"""Leximin solver for two colleges under strict (not necessarily ranked)
preferences.

With m=2 a student's preference is just their favorite college, and the
stable complete matchings have a closed form, stated once in
``_staircase``: each college j hands the d_j fans it values least to the
other college and, when d0 and d1 are both positive, must value every
reluctant member above every fan it handed away.  The pairs (d0, d1) with
d0, d1 >= 1 that pass form a staircase.  is_stable_m2 reads a matching's
(d0, d1) off it; fast_const walks it.

fast_const starts at d = (0, 0), everyone at their favorite, and moves the
richer college's next fan to the poorer college, keeping the best (d0, d1)
seen among those that leave both colleges nonempty (with some values 0, a
state can beat every complete one and still leave a college empty).  An
empty college is always the poorer one, as n >= 2.  The walk stops when
the richer college has no fan left, when the next pair is not stable, or
by rule A (an irreversible value drop for the mover).

On a ranked instance with positive college values the walk is exact.
Every student's favorite is college 0, so college 1 has no fans: the walk
moves college 0's fans one by one, every (d0, 0) is stable, and it stops in
one of two ways.  Let C be the state it stops at, with totals t0 and t1.
Each later state L moves more students, and the domination lemma applies
with B = t1: pair L's values one-to-one with C's so that each is at most its
partner, except partners that are at least B; if some L value below B is
strictly below its partner, L is leximin-worse than C (for every y < B, L
has at least as many values <= y as C, and at that value one more).  A
mover leaves their favorite and strictly falls, college 0's total falls,
and only college 1's total rises, to at least t1.
  * It stops when t0 <= t1.  Every later state has a college-0 total
    strictly below t0, hence below B, so it is worse than C.
  * Rule A stops it when the next mover values college 1 below a_max.
    College 1 has been the poorer one all along and its total only rises,
    so a_max is t1, and every later state holds that mover below B and
    below their value in C, so it is worse than C.
The walk has compared every earlier state, so its best is optimal.

For students with two different favorites the walk's exactness rests on a
claim that is not proved: with positive values, the path that moves the
richer college's fans passes through a leximin-optimal stable pair.  The
tests check it against the oracle up to n = 10 and against every stable
(d0, d1) pair up to n = 60.  Rule A is only a speed cut, not part of the
claim: without it the walk returned the same tuple on 2,955 strict m=2
inputs, with 15,286 moves in all against 1,349.

With some values 0 the walk can stop short of the optimum: on
``Instance.build([[0, 3], [3, 1], [3, 2]], [[3, 1, 0], [1, 4, 2]])`` it
returns the tuple (1, 1, 3, 3, 3), while the leximin optimum
(``oracle_leximin``) is (1, 2, 3, 3, 3).

The walk runs on the integer kernel (``Instance._kernel``).  A move
changes three agent values: the mover's and both totals.  The walk does
not keep the n + 2 values; it keeps two small sorted int lists, ``gone``
(the values removed since the best state) and ``came`` (the values added
since then).  The current state is the best state minus ``gone`` plus
``came``, and adding the same multiset to two equal-size multisets keeps
their leximin order (see ``_state``), so the current state beats the best
iff ``came > gone`` as plain lists.  At the best state both lists are
empty, so a move is decided by its own three removed and three added
values, sorted; the lists are filled only by a move that does not improve,
and emptied when the best changes.  So a move costs O(moves since the best
state), not O(n).  Scaling by a positive constant keeps the leximin order,
so this compare ranks states exactly as leximin_compare on the Fraction
tuples.

The result is read off the walk: it records the two college totals
whenever the best state changes, undoes the moves made since, and builds
the report's tuple from those totals and the students' kernel values,
without validating or regrouping the matching it built itself.
"""

from __future__ import annotations

from bisect import insort
from math import inf
from typing import Callable, Optional

from .errors import InfeasibleError, InvalidInputError, NotAdmissibleError
from .model import (
    Instance,
    Matching,
    ScaledLeximin,
    _capacity_binds,
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


def favorites(instance: Instance) -> list:
    """alpha: each student's preferred college (0 or 1)."""
    u0, u1 = instance._kernel[1]
    return [0 if a > b else 1 for a, b in zip(u0, u1)]


def _prefix_minima(values) -> list:
    """The running minimum of values at each position.  A plain loop:
    accumulate(values, min) calls the min builtin once per value, which
    costs several times the compare."""
    out = []
    least = inf
    for x in values:
        if x < least:
            least = x
        out.append(least)
    return out


def _staircase(instance: Instance) -> tuple:
    """(alpha, fans, stable) on the kernel ints: alpha is favorites(instance),
    fans[j] lists college j's fans in ascending order of its value, and
    stable(d0, d1) tells whether the complete matching in which each college
    j hands its first d_j fans to the other is stable."""
    _, _, v = instance._kernel
    alpha = favorites(instance)
    fans = tuple(
        sorted((i for i, a in enumerate(alpha) if a == j), key=v[j].__getitem__)
        for j in (0, 1)
    )
    # floor[j][k]: the other college's least value over fans[j][: k + 1],
    # which are its reluctant members once college j has handed k + 1 away
    floor = tuple(_prefix_minima(map(v[1 - j].__getitem__, fans[j])) for j in (0, 1))

    def stable(d0: int, d1: int) -> bool:
        # fans are sorted, so fans[j][d_j - 1] is the best fan j handed away
        return not (d0 and d1) or (
            v[0][fans[0][d0 - 1]] < floor[1][d1 - 1]
            and v[1][fans[1][d1 - 1]] < floor[0][d0 - 1]
        )

    return alpha, fans, stable


def is_stable_m2(instance: Instance, matching: Matching) -> bool:
    """Closed-form stability test for m=2: each college must hand the other
    its least-valued fans, and the counts (d0, d1) must pass the
    staircase's stable test."""
    _require_m2_strict(instance)
    matching.validate(instance)
    assignment = matching.assignment
    if any(j is None for j in assignment):
        raise InvalidInputError("characterization needs every student matched")
    _, fans, stable = _staircase(instance)
    d = []
    for j, fans_j in enumerate(fans):
        d_j = sum(assignment[i] != j for i in fans_j)
        if any(assignment[i] == j for i in fans_j[:d_j]):
            return False
        d.append(d_j)
    return stable(*d)


def fast_const(instance: Instance, on_state: Optional[Callable] = None) -> SolverReport:
    """Complete stable matching for m=2 with strict preferences, leximin
    optimal on every input tested with positive values (see the module
    docstring for one with zeros where it is not).  Raises InfeasibleError
    for a single student."""
    _require_m2_strict(instance)
    if _capacity_binds(instance):
        raise NotAdmissibleError("solver assumes capacities of at least n-1")
    n = instance.n
    if n < 2:
        raise InfeasibleError(f"{n} student cannot cover 2 colleges")
    scale, u, v = instance._kernel
    assignment, fans, stable = _staircase(instance)
    totals = [sum(map(v[j].__getitem__, fans[j])) for j in (0, 1)]
    gone, came = [], []  # values removed and added since the best state
    toggles = 0
    d = [0, 0]
    # only a complete state can be the best, and the walk's first one is
    best_d = (0, 0) if fans[0] and fans[1] else None
    best_totals = tuple(totals)  # the best state's college totals
    # Rule A forbids a student from leaving their favorite for a college
    # they value below the poorer college's total at some step, so a_max is
    # the largest such total seen.
    a_max = -1

    if on_state is not None:
        on_state(Matching(assignment))
    while True:
        # an empty college is the poorer one: the other holds all n >= 2
        # students, and strict preferences value at most one of them at 0
        low, high = (0, 1) if totals[0] <= totals[1] else (1, 0)
        if totals[low] > a_max:
            a_max = totals[low]
        if d[high] == len(fans[high]):
            break
        mover = fans[high][d[high]]
        if u[low][mover] < a_max:
            break
        d[high] += 1
        if not stable(*d):
            break
        assignment[mover] = low
        toggles += 1
        if on_state is not None:
            on_state(Matching(assignment))
        # a move changes three agents' values: the mover's and both totals
        old = sorted((u[high][mover], totals[high], totals[low]))
        totals[high] -= v[high][mover]
        totals[low] += v[low][mover]
        new = sorted((u[low][mover], totals[high], totals[low]))
        # at the best state the since-best lists are empty and the move's
        # own values decide; elsewhere they join the lists
        if gone:
            for x in old:
                insort(gone, x)
            for x in new:
                insort(came, x)
            old, new = gone, came
        # low has just gained the mover, so the state is complete iff high
        # still holds someone: its unmoved fans or the d[low] low handed it
        if (new > old or best_d is None) and len(fans[high]) - d[high] + d[low]:
            best_d = tuple(d)
            best_totals = tuple(totals)
            gone, came = [], []
        else:
            gone, came = old, new

    tuple_comparisons = toggles  # one list compare per toggle
    steps = toggles + tuple_comparisons * (n + 2)
    # the best state: undo the moves made since it (the walk's last d[high]
    # may count a fan it did not move, who is at their favorite anyway)
    for j in (0, 1):
        for i in fans[j][best_d[j] : d[j]]:
            assignment[i] = j
    u0, u1 = u
    students = [u1[i] if j else u0[i] for i, j in enumerate(assignment)]
    return SolverReport(
        algorithm="fast_const",
        matching=Matching(assignment),
        leximin=ScaledLeximin.build(scale, students, best_totals),
        steps=steps,
        counters={"toggles": toggles, "tuple_comparisons": tuple_comparisons},
    )
