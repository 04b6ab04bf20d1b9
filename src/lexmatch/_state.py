"""Mutable boundary-vector state used by the ranked solvers.

On ranked instances every stable complete matching is a contiguous block
assignment, so the solvers never materialize full matchings while iterating.
They mutate a boundary vector and read per-college totals off prefix sums of
the college values.  A chain demotion is O(1) (one boundary moves on each
side of the chain); a college's block start is the sum of the block sizes
before it, found by walking the prefix of k.

All values here are the instance's integer kernel (``Instance._kernel``):
each value times one common scale, so comparisons are plain int compares.
``leximin()`` returns the tuple as a ``ScaledLeximin`` of those ints; the
solvers compare it as it stands and hand it to ``SolverReport``, which
builds the Fraction tuple only when it is read.

Delta comparison.  A chain demotion p -> q changes only q - p + 1 college
totals and the values of the q - p students that move down one college;
``delta`` returns those removed and added values without applying the move.
Two equal-size value multisets keep their leximin order when the same
multiset is added to both (in the cumulative-count view of lexicographic
max-min, the counts #{values <= t} of the added multiset add to both sides).
So a trial with removed R and added A compares with its base as sorted(A)
against sorted(R), and two trials from the same base compare as
sorted(A1 + R2) against sorted(A2 + R1): O(m log m) instead of re-sorting
all n + m values.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import InfeasibleError
from .model import Instance, Matching, ScaledLeximin
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
    """Boundary vector k plus the scaled student values, column by column
    (``_uc[j][i]`` is student i's value for college j), and prefix sums of
    every college's scaled student values.  Mutated in place by demote();
    copy() is cheap (everything but k is shared)."""

    __slots__ = ("instance", "k", "scale", "_uc", "_pv")

    def __init__(self, instance: Instance, k, _shared=None):
        self.instance = instance
        self.k = list(k)
        if _shared is None:
            scale, student_rows, college_rows = instance._kernel
            _shared = (
                scale,
                tuple(zip(*student_rows)),
                [[0, *accumulate(row)] for row in college_rows],
            )
        self.scale, self._uc, self._pv = _shared

    def copy(self) -> "RankedState":
        return RankedState(self.instance, self.k, (self.scale, self._uc, self._pv))

    def college_value(self, j: int) -> int:
        """Scaled total value of college j's block."""
        w = sum(self.k[:j])
        row = self._pv[j]
        return row[w + self.k[j]] - row[w]

    def delta(self, p: int, q: int):
        """(removed, added): the scaled values that demote(p, q) would take
        out of and put into the agents' value multiset, without applying it.
        Covers colleges p..q and the bottom student of each of p..q-1."""
        k, pv, uc = self.k, self._pv, self._uc
        removed, added = [], []
        start = sum(k[:p])
        for t in range(p, q + 1):
            end = start + k[t]
            row = pv[t]
            removed.append(row[end] - row[start])
            # p keeps its start and loses its bottom student; every college
            # after it gains the bottom student of the one before, and all
            # but q pass their own bottom student on
            added.append(
                row[end if t == q else end - 1] - row[start if t == p else start - 1]
            )
            if t < q:
                removed.append(uc[t][end - 1])
                added.append(uc[t + 1][end - 1])
            start = end
        return removed, added

    def demote(self, up: int, down: int) -> None:
        """Chain demotion on the block structure: each college up..down-1
        passes its bottom student to the next, so only the two end block
        sizes change."""
        self.k[up] -= 1
        self.k[down] += 1

    def matching(self) -> Matching:
        return assignment_from_sizes(self.k)

    def _agent_values(self):
        """(student values by index, college values by index), scaled."""
        uc, pv = self._uc, self._pv
        students, colleges, w = [], [], 0
        for j, size in enumerate(self.k):
            students += uc[j][w : w + size]
            colleges.append(pv[j][w + size] - pv[j][w])
            w += size
        return students, colleges

    def values(self) -> list:
        """Every agent's scaled value, sorted ascending (the leximin tuple's
        values times scale)."""
        students, colleges = self._agent_values()
        students += colleges
        students.sort()
        return students

    def leximin(self) -> ScaledLeximin:
        """The leximin tuple on the scaled ints."""
        return ScaledLeximin.build(self.scale, *self._agent_values())
