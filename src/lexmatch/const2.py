"""Leximin solver for two colleges under strict (not necessarily ranked)
preferences.

With m=2 a student's preference is just their favorite college, and the
stable complete matchings have a closed form (``_staircase``): each college
j hands the d_j fans it values least to the other and, when d0 and d1 are
both positive, must value every reluctant member above every fan it handed
away.  The stable pairs form a staircase: for a fixed d0 the stable d1 are a
prefix, and for a fixed d1 the stable d0 are.  is_stable_m2 reads a
matching's (d0, d1) off it; fast_const scans it.

The scan.  With f_j college j's fans, state (d0, d1) puts |f0| - d0 + d1
students in college 0 and |f1| - d1 + d0 in college 1.  Rows go d0 = 0, 1,
..., |f0|, skipping those whose every state overfills college 0; in each
row d1 rises from the row's start past the states that overfill college 1,
up to the first that overfills college 0 or is not stable.  Later rows
start no lower, so a row whose first state is not stable ends the scan.
A candidate is a state with both colleges nonempty; the first best one is
kept, which is the optimum with the fewest college-0 fans handed away, then
the fewest college-1 fans.

The cuts rest on one lemma.  Let C be a state and L another.  Pair L's
values one-to-one with C's so that each L value is at most its partner,
except partners that are at least some bound B.  If some L value below B is
strictly below its partner, L is leximin-worse than C: for every y < B, L
has at least as many values <= y as C, and at that value one more.  From C
to a state that moves more students away from their favorites, every mover
strictly falls and only the total of a college that receives students may
rise, so B may be any bound at most C's totals of the receiving colleges.
Each cut fires only at a candidate C = (d0, d1) with totals t0, t1:
  * Row cut (B = t0).  End the row when the next college-1 fan b has
    u0[b] < t0, or t1 < t0 and v1[b] > 0.  Every later state of the row
    moves b and gives college 1 no students back, so b falls to u0[b] and
    college 1 strictly below t1.
  * Row stop (B = min(t0, t1)).  At (d0, 0), make d0 the last row when the
    next college-0 fan a has u1[a] < min(t0, t1).  Every later row moves a,
    and both of C's totals are at least B.
  * Diagonal start (B = max(t0, t1)).  If t0 <= t1 and the next college-0
    fan a has v0[a] > 0, C beats every (d0', d1) with d0' > d0: they move a,
    and college 0 falls strictly below t0 <= B.  So each row starts at the
    first state of the row before it that is not such a candidate (the
    start never moves back), and the scan ends when the start passes |f1|.
The row cut's second clause and the diagonal start both turn at the first
state with t0 > t1, so where nothing else fires the scan visits the states
of a walk in which the richer college hands the other its next fan.
Every state the scan skips is unstable, overfills a college or is worse
than a candidate it visited, so its best candidate is optimal.  Strict
preferences make every mover fall, so zero values need no other case.

The visit count is measured, not proved: on every strict m=2 input of the
equivalence sweep, and on 7,092 generated strict, ranked and ranked
isometric ones (n 2..40, capacities none, random and uniform, default and
n+3 value_max), the scan visited at most n states other than (0, 0).  The
tests pin that bound.

The compare.  A candidate beats the best iff the sorted values that differ
(the students in different colleges, and both totals) beat the best's as
plain lists: adding the same multiset to two equal-size multisets keeps
their leximin order (see ``_state``).  Next to the best this costs O(1).
It runs on the integer kernel (``Instance._kernel``), a positive scaling
that keeps the leximin order.  The report is built from the best state's
(d0, d1) and totals, without validating or regrouping the matching.
"""

from __future__ import annotations

from itertools import compress
from math import inf
from operator import gt, lt
from typing import Callable, Optional

from .errors import InfeasibleError, InvalidInputError, NotAdmissibleError
from .model import (
    Instance,
    Matching,
    ScaledLeximin,
    classify,
    is_stable,  # not called here; kept bound for perfbench/spans.py
    leximin_tuple,  # not called here; kept bound for perfbench/spans.py
)
from .report import SolverReport


def _require_m2_strict(instance: Instance) -> None:
    if instance.m != 2:
        raise NotAdmissibleError("solver requires exactly two colleges")
    if not classify(instance).strict:
        raise NotAdmissibleError("solver requires strict preferences on both sides")


def _prefix_minima(values) -> list:
    """The running minimum of values at each position; this plain loop is
    several times faster than accumulate(values, min)."""
    out = []
    least = inf
    for x in values:
        if x < least:
            least = x
        out.append(least)
    return out


def _staircase(instance: Instance) -> tuple:
    """(fans, stable) on the kernel ints: fans[j] lists college j's fans in
    ascending order of its value, and stable(d0, d1) tells whether the
    complete matching in which each college j hands its first d_j fans to
    the other is stable.  The split into fans needs strict preferences
    (u0[i] != u1[i]): a student with a tie would be nobody's fan.  Both
    callers check them first."""
    _, (u0, u1), v = instance._kernel
    # split the students by favorite at C speed: compress keeps the indices
    # whose flag is true
    students = range(instance.n)
    split = (compress(students, map(gt, u0, u1)), compress(students, map(lt, u0, u1)))
    fans = tuple(sorted(f, key=col.__getitem__) for f, col in zip(split, v))
    # floor[j][k]: the other college's least value over fans[j][: k + 1],
    # its reluctant members once j has handed k + 1 away; built lazily
    floor = []

    def stable(d0: int, d1: int) -> bool:
        if not (d0 and d1):
            return True
        if not floor:
            floor.extend(_prefix_minima(map(v[1 - j].__getitem__, fans[j])) for j in (0, 1))
        # fans are sorted, so fans[j][d_j - 1] is the best fan j handed away
        return (
            v[0][fans[0][d0 - 1]] < floor[1][d1 - 1]
            and v[1][fans[1][d1 - 1]] < floor[0][d0 - 1]
        )

    return fans, stable


def _assignment(n: int, fans, d0: int, d1: int) -> list:
    """The matching of state (d0, d1): college 1 holds fans[0][:d0] and
    fans[1][d1:]."""
    out = [0] * n
    for i in fans[0][:d0]:
        out[i] = 1
    for i in fans[1][d1:]:
        out[i] = 1
    return out


def is_stable_m2(instance: Instance, matching: Matching) -> bool:
    """Closed-form stability test for m=2: each college must hand the other
    its least-valued fans, and the counts (d0, d1) must pass the
    staircase's stable test."""
    _require_m2_strict(instance)
    matching.validate(instance)
    assignment = matching.assignment
    if any(j is None for j in assignment):
        raise InvalidInputError("characterization needs every student matched")
    fans, stable = _staircase(instance)
    d = []
    for j, fans_j in enumerate(fans):
        d_j = sum(assignment[i] != j for i in fans_j)
        if any(assignment[i] == j for i in fans_j[:d_j]):
            return False
        d.append(d_j)
    return stable(*d)


def fast_const(instance: Instance, on_state: Optional[Callable] = None) -> SolverReport:
    """Leximin-optimal complete stable matching for m=2 with strict
    preferences, within the instance's capacities (see the module
    docstring).  Raises InfeasibleError when no stable matching fills both
    colleges within them.  on_state gets the matching of every state the
    scan visits.

    The counters are pinned by the equivalence digests: ``toggles`` counts
    the visited states other than (0, 0); ``tuple_comparisons`` is defined
    as ``toggles``, not counted (the first candidate is not compared); and
    ``steps`` charges n + 2 per compare, though a compare sorts only the
    students between the state and the best one, and four totals."""
    _require_m2_strict(instance)
    n = instance.n
    scale, (u0, u1), (v0, v1) = instance._kernel
    fans, stable = _staircase(instance)
    f0, f1 = fans
    n0, n1 = len(f0), len(f1)
    cap0, cap1 = instance.capacities
    # each fan's value at their favorite (h) and away from it (w), in fan order
    h0, w0 = [*map(u0.__getitem__, f0)], [*map(u1.__getitem__, f0)]
    h1, w1 = [*map(u1.__getitem__, f1)], [*map(u0.__getitem__, f1)]
    d0 = max(0, n0 - cap0)  # the rows before it overfill college 0
    r0 = sum(map(v0.__getitem__, f0[d0:]))
    r1 = sum(map(v1.__getitem__, f1)) + sum(map(v1.__getitem__, f0[:d0]))
    rs = start = toggles = 0  # r0, r1 are the totals at (d0, rs)
    # the first best candidate's (d0, d1) and totals; b0 is None until one
    b0 = None
    b1 = s0 = s1 = 0
    last = min(n0, cap1)  # college 1 holds at least d0 students
    while d0 <= last and start <= n1:
        if start < d0 + n1 - cap1:
            start = d0 + n1 - cap1  # the states before it overfill college 1
        if start > rs:
            for b in f1[rs:start]:
                r0 += v0[b]
                r1 -= v1[b]
        rs = d1 = start
        t0, t1 = r0, r1
        hi = cap0 - n0 + d0  # beyond it college 0 is overfilled
        if hi > n1:
            hi = n1
        # a pair with a 0 is stable; testing that inline saves a call per state
        while d1 <= hi and (not (d0 and d1) or stable(d0, d1)):
            if d0 or d1:
                toggles += 1
            if on_state is not None:
                on_state(Matching(_assignment(n, fans, d0, d1)))
            if n0 - d0 + d1 and n1 - d1 + d0:  # a candidate
                if b0 is None:
                    b0, b1, s0, s1 = d0, d1, t0, t1
                else:
                    # the students in different colleges, then the totals
                    # b0 is only ever set to the current d0, and d0 only grows
                    new, old = w0[b0:d0], h0[b0:d0]
                    if d1 > b1:
                        new += w1[b1:d1]
                        old += h1[b1:d1]
                    elif d1 < b1:
                        new += h1[d1:b1]
                        old += w1[d1:b1]
                    new.append(t0)
                    new.append(t1)
                    old.append(s0)
                    old.append(s1)
                    new.sort()
                    old.sort()
                    if new > old:
                        b0, b1, s0, s1 = d0, d1, t0, t1
                if d0 < n0:
                    if d1 == start and t0 <= t1 and v0[f0[d0]]:
                        start += 1  # diagonal start
                    if not d1 and w0[d0] < t0 and w0[d0] < t1:
                        last = d0  # row stop
                if d1 < n1 and (w1[d1] < t0 or (t1 < t0 and v1[f1[d1]])):
                    break  # row cut
            if d1 == n1:
                break
            b = f1[d1]
            t0 += v0[b]
            t1 -= v1[b]
            d1 += 1
        else:
            if rs == d1 <= hi:
                break  # the row's first state is unstable, and so are the rest
        if d0 < n0:
            a = f0[d0]
            r0 -= v0[a]
            r1 += v1[a]
        d0 += 1

    if b0 is None:
        raise InfeasibleError("no stable matching fills both colleges within their capacities")
    tuple_comparisons = toggles  # one compare per toggle
    steps = toggles + tuple_comparisons * (n + 2)
    assignment = _assignment(n, fans, b0, b1)
    students = [u1[i] if j else u0[i] for i, j in enumerate(assignment)]
    return SolverReport(
        algorithm="fast_const",
        matching=Matching(assignment),
        leximin=ScaledLeximin(scale, n, students + [s0, s1]),
        steps=steps,
        counters={"toggles": toggles, "tuple_comparisons": tuple_comparisons},
    )
