"""Mutable boundary-vector state used by the ranked solvers.

On ranked instances every stable complete matching is a contiguous block
assignment, so the solvers never materialize full matchings while iterating.
They mutate a boundary vector and read per-college totals off prefix sums of
the college values.  A chain demotion is O(1) (one boundary moves on each
side of the chain); a college's block start, and with it its total value,
costs O(j) to locate, since the block starts themselves are not cached.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InfeasibleError
from .model import Instance, LeximinTuple, Matching, _agent_sort_key
from .ranked import assignment_from_sizes


def initial_boundary(instance: Instance, capacities=None) -> list:
    """Greedy left-heavy fill: college j takes as many of the next students as
    its capacity allows while reserving one seat for every college after it.
    With no capacities this is (n-m+1, 1, ..., 1).  Raises InfeasibleError when
    no complete matching exists (n < m, or the capacities cannot hold n)."""
    n, m = instance.n, instance.m
    if n < m:
        raise InfeasibleError(f"{n} students cannot cover {m} colleges")
    caps = list(instance.capacities) if capacities is None else list(capacities)
    k, assigned = [], 0
    for j in range(m):
        size = min(caps[j], n - assigned - (m - 1 - j))
        if size < 1:
            raise InfeasibleError("capacities admit no complete matching")
        k.append(size)
        assigned += size
    if assigned < n:
        raise InfeasibleError(
            f"total capacity {sum(caps)} cannot place all {n} students"
        )
    return k


class RankedState:
    """Boundary vector k plus cached prefix sums of every college's student
    values.  Mutated in place by demote(); copy() is cheap (the prefix sums
    are shared, only k is duplicated)."""

    __slots__ = ("instance", "k", "_pv")

    def __init__(self, instance: Instance, k, _pv=None):
        self.instance = instance
        self.k = list(k)
        if _pv is None:
            _pv = []
            for j in range(instance.m):
                acc, row = Fraction(0), [Fraction(0)]
                for i in range(instance.n):
                    acc += instance.v(j, i)
                    row.append(acc)
                _pv.append(row)
        self._pv = _pv

    def copy(self) -> "RankedState":
        return RankedState(self.instance, self.k, self._pv)

    def start_of(self, j: int) -> int:
        return sum(self.k[:j])

    def college_value(self, j: int) -> Fraction:
        w = self.start_of(j)
        return self._pv[j][w + self.k[j]] - self._pv[j][w]

    def demote(self, up: int, down: int) -> None:
        """Chain demotion on the block structure: each college up..down-1
        passes its bottom student to the next, so only the two end block
        sizes change."""
        self.k[up] -= 1
        self.k[down] += 1

    def matching(self) -> Matching:
        return assignment_from_sizes(self.k)

    def leximin(self) -> LeximinTuple:
        instance = self.instance
        entries = []
        w = 0
        for j, size in enumerate(self.k):
            for i in range(w, w + size):
                entries.append((instance.u(i, j), ("s", i)))
            entries.append((self._pv[j][w + size] - self._pv[j][w], ("c", j)))
            w += size
        entries.sort(key=_agent_sort_key)
        return LeximinTuple(
            values=tuple(e[0] for e in entries), agent_at=tuple(e[1] for e in entries)
        )
