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
their leximin order (see ``_state``).  Next to the best this costs O(1); a
state one college-0 fan past the best compares two sorted triples, without
building and sorting two lists.  It runs on the integer kernel
(``Instance._kernel``), a positive scaling that keeps the leximin order.

The cost.  The set-up runs at C speed: O(n) passes and a sort of the fans.
The scan does O(1) Python work per visited state, apart from compares away
from the best, and the report one step per student in college 1.  The
fans: when every student prefers college 0 (one pass finds it) college 0's
fans are every student, sorted, and college 1 has none.  All ranked input
is such, and there college 0's values fall with the index, so the sort only
reverses one run.  Other input is split by ``itertools.compress`` and each
side sorted.  The scan reads a fan's two values through the fan index, only
at the states it visits; college 0's starting total is the sum of its
values less those of the students it does not hold.  The report is one
pass over the best state's college-1 members, starting from college 0's
values, and takes its totals from the scan, without validating or
regrouping the matching.
"""

from __future__ import annotations

from itertools import chain, compress
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
    students = range(instance.n)
    if all(map(gt, u0, u1)):
        # every student prefers college 0 (all ranked input does; there its
        # values fall with the index, and the sort reverses one run)
        fans = (sorted(students, key=v[0].__getitem__), [])
    else:
        # split the students by favorite at C speed: compress keeps the
        # indices whose flag is true
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
    students between the state and the best one, and four totals.

    Its set-up runs at C speed (see the module docstring): input whose
    students all prefer college 0 takes its fans without a split, the fans'
    values are read only at the states the scan visits, and the report is
    one pass over college 1's members."""
    _require_m2_strict(instance)
    n = instance.n
    scale, (u0, u1), (v0, v1) = instance._kernel
    fans, stable = _staircase(instance)
    f0, f1 = fans
    n0, n1 = len(f0), len(f1)
    cap0, cap1 = instance.capacities
    d0 = max(0, n0 - cap0)  # the rows before it overfill college 0
    # college 0 holds every student but f1 and f0[:d0], college 1 those
    gone = f0[:d0]
    r0 = sum(v0) - sum(map(v0.__getitem__, f1)) - sum(map(v0.__getitem__, gone))
    r1 = sum(map(v1.__getitem__, f1)) + sum(map(v1.__getitem__, gone))
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
                # compare the students in different colleges, then the
                # totals; b0 is only ever set to the current d0, and d0
                # only grows
                if b0 is None:
                    b0, b1, s0, s1 = d0, d1, t0, t1
                elif d0 == b0 + 1 and d1 == b1:  # one college-0 fan past the best
                    a = f0[b0]
                    if sorted((u1[a], t0, t1)) > sorted((u0[a], s0, s1)):
                        b0, s0, s1 = d0, t0, t1
                else:
                    moved = f0[b0:d0]
                    new = [*map(u1.__getitem__, moved), t0, t1]
                    old = [*map(u0.__getitem__, moved), s0, s1]
                    if d1 > b1:
                        moved = f1[b1:d1]
                        new += map(u0.__getitem__, moved)
                        old += map(u1.__getitem__, moved)
                    elif d1 < b1:
                        moved = f1[d1:b1]
                        new += map(u1.__getitem__, moved)
                        old += map(u0.__getitem__, moved)
                    new.sort()
                    old.sort()
                    if new > old:
                        b0, b1, s0, s1 = d0, d1, t0, t1
                if d0 < n0:
                    a = f0[d0]
                    if d1 == start and t0 <= t1 and v0[a]:
                        start += 1  # diagonal start
                    if not d1 and u1[a] < t0 and u1[a] < t1:
                        last = d0  # row stop
                if d1 < n1:
                    b = f1[d1]
                    if u0[b] < t0 or (t1 < t0 and v1[b]):
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
    # the best state's matching and values in one pass over college 1
    assignment = [0] * n
    values = list(u0)
    for i in chain(f0[:b0], f1[b1:]):
        assignment[i] = 1
        values[i] = u1[i]
    values += (s0, s1)
    return SolverReport(
        algorithm="fast_const",
        matching=Matching(assignment),
        leximin=ScaledLeximin(scale, n, values),
        steps=steps,
        counters={"toggles": toggles, "tuple_comparisons": tuple_comparisons},
    )
