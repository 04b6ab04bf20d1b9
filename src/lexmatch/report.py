"""Solver output container shared by all algorithms.

A report stores its leximin tuple as a ``ScaledLeximin``: the sorted scaled
ints the ranked solvers already hold.  ``report.leximin`` is the public
``LeximinTuple`` of Fractions, built on first read, and ``to_json_dict``
renders the wire strings from the ints, so a solve that is only serialized
builds no Fraction for its tuple.
"""

from __future__ import annotations

from typing import Optional, Union

from .model import LeximinTuple, Matching, ScaledLeximin


class SolverReport:
    """What a solver returns: the matching, its leximin tuple, a step count
    and the solver's own counters.  The leximin tuple may be given as a
    ScaledLeximin or as a LeximinTuple of exact values (kept as the
    record's view).  Reports are mutable and compare equal when every field
    is equal."""

    def __init__(
        self,
        algorithm: str,
        matching: Matching,
        leximin: Union[ScaledLeximin, LeximinTuple],
        steps: int,
        counters: Optional[dict] = None,
    ):
        self.algorithm = algorithm
        self.matching = matching
        self.leximin = leximin
        self.steps = steps
        self.counters = {} if counters is None else counters

    @property
    def leximin(self) -> LeximinTuple:
        return self._leximin.view()

    @leximin.setter
    def leximin(self, value: Union[ScaledLeximin, LeximinTuple]) -> None:
        self._leximin = value if isinstance(value, ScaledLeximin) else ScaledLeximin.of(value)

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
