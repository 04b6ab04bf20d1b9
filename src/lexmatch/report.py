"""Solver output container shared by all algorithms."""

from __future__ import annotations

from typing import Optional

from .model import LeximinTuple, Matching, value_to_str


class SolverReport:
    """What a solver returns: the matching, its leximin tuple, a step count
    and the solver's own counters.  Reports are mutable and compare equal
    when every field is equal."""

    def __init__(
        self,
        algorithm: str,
        matching: Matching,
        leximin: LeximinTuple,
        steps: int,
        counters: Optional[dict] = None,
    ):
        self.algorithm = algorithm
        self.matching = matching
        self.leximin = leximin
        self.steps = steps
        self.counters = {} if counters is None else counters

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

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
            "leximin": [value_to_str(v) for v in self.leximin.values],
        }
