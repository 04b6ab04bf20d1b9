"""Solver output container shared by all algorithms.

A report takes its leximin tuple only as the ``ScaledLeximin`` the solver
holds: the scaled ints it compared.  A Fraction is made only where a value
leaves the library: ``report.leximin`` is the public, read-only
``LeximinTuple`` of Fractions, built on first read and cached, and
``to_json_dict`` renders the wire strings from the ints, so a solve that is
only serialized builds no Fraction for its tuple.
"""

from __future__ import annotations

from typing import Optional

from .model import LeximinTuple, Matching, ScaledLeximin


class SolverReport:
    """What a solver returns: the matching, its leximin tuple, a step count
    and the solver's own counters.  The leximin tuple is given as the
    solver's ScaledLeximin and read back as a LeximinTuple.  Reports are
    mutable, except for their tuple, and compare equal when every field is
    equal."""

    def __init__(
        self,
        algorithm: str,
        matching: Matching,
        leximin: ScaledLeximin,
        steps: int,
        counters: Optional[dict] = None,
    ):
        self.algorithm = algorithm
        self.matching = matching
        self._leximin = leximin
        self.steps = steps
        self.counters = {} if counters is None else counters

    @property
    def leximin(self) -> LeximinTuple:
        return self._leximin.view()

    def _fields(self) -> tuple:
        return (self.algorithm, self.matching, self.leximin, self.steps, self.counters)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the public tuples, since equal tuples can sit at different scales
        return self._fields() == other._fields()

    # mutable, so unhashable
    __hash__ = None

    def __repr__(self):
        return (
            f"SolverReport(algorithm={self.algorithm!r}, matching={self.matching!r}, "
            f"leximin={self.leximin!r}, steps={self.steps!r}, counters={self.counters!r})"
        )

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "steps": self.steps,
            "counters": dict(self.counters),
            "matching": {"assignment": list(self.matching.assignment)},
            "leximin": self._leximin.wire(),
        }
