"""Mutable boundary-vector state used by the ranked solvers.

On ranked instances every stable complete matching is a contiguous block
assignment, so the solvers never materialize full matchings while iterating.
They mutate a boundary vector and keep, besides it, only each college's
block start and total: O(m) state over the instance's kernel.  A chain
demotion p -> q passes one student down across each of the q - p boundaries
and so is O(q - p); a college's value is read in O(1).

All values here are the instance's integer kernel (``Instance._kernel``,
college by college: ``u[j][i]`` and ``v[j][i]``): each value times one
common scale, so comparisons are plain int compares.
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
all n + m values.  A run of moves compares with the state it started from
the same way, by all the values it has removed and added so far.  The users:
fast_gen ranks its demotion trials by their deltas, and three walks compare
a state with a fixed earlier one by what changed since it: the speculative
runs of fast (its tie case) and of fast_gen's _look_ahead against their base,
and const2.fast_const (on its own values, not through this class) against
the best state it has seen.
"""

from __future__ import annotations

from bisect import bisect_right
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
    """Boundary vector k plus each college's block start and total scaled
    value, over the instance's kernel columns ``u`` and ``v``.  Mutated in
    place by demote(); copy() is O(m) (the kernel is shared)."""

    __slots__ = ("instance", "k", "scale", "_u", "_v", "_start", "_total")

    def __init__(self, instance: Instance, k):
        self.instance = instance
        self.k = list(k)
        self.scale, self._u, self._v = instance._kernel
        self._start = [0, *accumulate(self.k)]
        self._total = [
            sum(row[s:e]) for row, s, e in zip(self._v, self._start, self._start[1:])
        ]

    def copy(self) -> "RankedState":
        other = RankedState.__new__(RankedState)
        other.instance, other.scale, other._u, other._v = (
            self.instance, self.scale, self._u, self._v
        )
        other.k, other._start, other._total = self.k[:], self._start[:], self._total[:]
        return other

    def college_value(self, j: int) -> int:
        """Scaled total value of college j's block."""
        return self._total[j]

    def college_of(self, i: int) -> int:
        """The college whose block holds student i."""
        return bisect_right(self._start, i) - 1

    def delta(self, p: int, q: int):
        """(removed, added): the scaled values that demote(p, q) would take
        out of and put into the agents' value multiset, without applying it.
        Covers colleges p..q and the bottom student of each of p..q-1."""
        u, v, start, total = self._u, self._v, self._start, self._total
        removed, added = [], []
        gained = 0  # college t's value of the student it gains from t - 1
        for t in range(p, q + 1):
            removed.append(total[t])
            if t == q:
                added.append(total[t] + gained)
                break
            # college t passes its bottom student b on to t + 1
            b = start[t + 1] - 1
            added.append(total[t] + gained - v[t][b])
            removed.append(u[t][b])
            added.append(u[t + 1][b])
            gained = v[t + 1][b]
        return removed, added

    def demote(self, up: int, down: int) -> None:
        """Chain demotion on the block structure: each college up..down-1
        passes its bottom student to the next, so only the two end block
        sizes change, but every boundary between them moves."""
        v, start, total = self._v, self._start, self._total
        self.k[up] -= 1
        self.k[down] += 1
        for t in range(up, down):
            b = start[t + 1] - 1
            total[t] -= v[t][b]
            total[t + 1] += v[t + 1][b]
            start[t + 1] = b

    def matching(self) -> Matching:
        return assignment_from_sizes(self.k)

    def leximin(self) -> ScaledLeximin:
        """The leximin tuple on the scaled ints."""
        students = []
        for row, s, e in zip(self._u, self._start, self._start[1:]):
            students += row[s:e]
        return ScaledLeximin.build(self.scale, students, list(self._total))
