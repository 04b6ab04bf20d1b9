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
``leximin()`` returns the tuple as a ``ScaledLeximin`` of those ints, and
``report`` ends a ranked walk by handing it to ``SolverReport``, which
builds the Fraction tuple only when it is read.

Delta comparison.  A chain demotion p -> q changes only q - p + 1 college
totals and the values of the q - p students that move down one college.
``table`` lists, in O(m), the 2m - 1 values any trial can remove (R) and
those it can add, and ``record`` reads off it, without applying the move,
the agents a trial changes with their old and new values.  Two equal-size
value multisets keep their leximin order when the same multiset is added to
both (in the cumulative-count view of lexicographic max-min, the counts
#{values <= t} of the added multiset add to both sides).  So a trial
compares with its base as its sorted new values against its sorted old
ones.  Trials from one base compare by keys: a trial's old values R' are a
slice of R, and R holds values of distinct agents, so R is part of the
agents' multiset S and the trial's multiset is (S - R) + key with key =
sorted(R - R' + A'), A' its new values, 2m - 1 values.  Every trial shares
S - R, so keys order the trials exactly as their tuples do, and a trial
beats its base iff its key beats sorted(R): one sort of 2m - 1 values per
trial instead of n + m.  A run of moves compares with its start the same
way, by one record of every agent it has changed.  The users: fast_gen's
_best_trial ranks its trials by their keys, and two givers below one
receiver by their slices alone; fast's tie rule records one trial;
fast_gen's _blame finds from a record (a trial's, or a look-ahead run's)
where a loss starts; and const2.fast_const, on its own values, compares each
candidate with its best state by the students whose college differs and the
totals.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from .errors import InfeasibleError
from .model import Instance, Matching, ScaledLeximin, _capacity_binds
from .ranked import assignment_from_sizes
from .report import SolverReport


def initial_boundary(instance: Instance) -> list:
    """Greedy left-heavy fill: college j takes as many of the next students as
    its capacity allows while reserving one seat for every college after it.
    With capacities of n-1 or more this is (n-m+1, 1, ..., 1).  Raises
    InfeasibleError when no complete matching exists (n < m, or the
    capacities cannot hold n).  No college gets an empty block: once n >= m,
    the fill keeps at most n - (m - j) students placed before college j, so
    the reserve leaves j at least one, and ``Instance`` keeps every capacity
    in [1, n]."""
    n, m = instance.n, instance.m
    if n < m:
        raise InfeasibleError(f"{n} students cannot cover {m} colleges")
    caps = instance.capacities
    k, assigned = [], 0
    for j in range(m):
        size = min(caps[j], n - assigned - (m - 1 - j))
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

    def college_of(self, i: int) -> int:
        """The college whose block holds student i."""
        return bisect_right(self._start, i) - 1

    def table(self):
        """(R, A, head, tail), off which ``record`` and the trial search
        read every trial's values as slices; O(m).  With b_t the bottom
        student of college t:
        R = [total[0], u[0][b_0], total[1], u[1][b_1], ..., total[m-1]] holds
        the values a trial can remove; A = [_, u[1][b_0], mid[1], u[2][b_1],
        ..., mid[m-2], u[m-1][b_{m-2}]] those it can add between its ends,
        where mid[t] = total[t] + v[t][b_{t-1}] - v[t][b_t] is the new total
        of a college the chain passes through (A[0] is never read); and
        head[p] = total[p] - v[p][b_p] and tail[q] = total[q] + v[q][b_{q-1}]
        are the new totals of a giver p and a receiver q (tail[0] is never
        read)."""
        u, v, start, total = self._u, self._v, self._start, self._total
        R, A, head, tail = [], [], [], [0]
        gained = t = 0  # college t's value of the bottom student of t - 1
        for b in start[1:-1]:
            b -= 1
            lost = v[t][b]
            R.append(total[t])
            R.append(u[t][b])
            A.append(total[t] + gained - lost)
            head.append(total[t] - lost)
            t += 1
            A.append(u[t][b])
            gained = v[t][b]
            tail.append(total[t] + gained)
        R.append(total[-1])
        return R, A, head, tail

    def record(self, changes: dict, table, p: int, q: int) -> None:
        """Add to `changes` each agent whose value the trial p -> q changes,
        read off this state's ``table``: college p, the bottom student of p,
        college p + 1, ..., college q, with old values R[2p:2q+1] and new
        values head[p], A[2p+1:2q] and tail[q].  `changes` maps an agent's
        position (the students by index, then the colleges from n) to (its
        value before the first trial recorded in `changes`, its value after
        this one)."""
        R, A, head, tail = table
        n, start = self.instance.n, self._start
        at = [n + p]
        for t in range(p, q):
            at += (start[t + 1] - 1, n + t + 1)
        news = [head[p], *A[2 * p + 1:2 * q], tail[q]]
        for a, old, new in zip(at, R[2 * p:2 * q + 1], news):
            changes[a] = (changes.get(a, (old,))[0], new)

    def holders(self, x: int) -> list:
        """Positions of the agents whose value is x, ascending.  A
        membership test on each block keeps the scan at C speed."""
        n, start, total = self.instance.n, self._start, self._total
        out = []
        for col, s, e in zip(self._u, start, start[1:]):
            block = col[s:e]
            if x in block:
                out += (s + i for i, y in enumerate(block) if y == x)
        return out + [n + j for j, y in enumerate(total) if y == x]

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

    def values(self) -> list:
        """The agents' scaled values by position: students by index, then
        colleges."""
        students = []
        for row, s, e in zip(self._u, self._start, self._start[1:]):
            students += row[s:e]
        return students + self._total

    def leximin(self) -> ScaledLeximin:
        """The leximin tuple on the scaled ints."""
        return ScaledLeximin(self.scale, self.instance.n, self.values())

    def report(self, name: str, counters: dict) -> SolverReport:
        """The report of a ranked walk that ends in this state: named
        cap_<name> when some capacity can bind (model._capacity_binds), its
        steps iterations + chain_moves + tuple_comparisons * (n + m)."""
        instance = self.instance
        steps = counters["iterations"] + counters["chain_moves"]
        steps += counters["tuple_comparisons"] * (instance.n + instance.m)
        algorithm = f"cap_{name}" if _capacity_binds(instance) else name
        return SolverReport(algorithm, self.matching(), self.leximin(), steps, counters)
