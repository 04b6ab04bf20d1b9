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
richer college's next fan to the poorer college, keeping the best matching
seen.  It stops when the richer college has no fan left, when the next pair
is not stable, or by rule A (an irreversible value drop for the mover).

The walk runs on the integer kernel (``Instance._kernel``).  All n + 2
agent values are kept as one sorted int list; a move changes three of them
(the mover's and both totals), and the best state so far is found by a
plain list compare.  Scaling by a positive constant keeps the leximin
order, so this compare ranks states exactly as leximin_compare on the
Fraction tuples.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import accumulate
from typing import Callable, Optional

from .errors import InvalidInputError, NotAdmissibleError
from .model import (
    Instance,
    Matching,
    classify,
    is_stable,  # not called here; kept bound for perfbench/spans.py
    leximin_tuple,  # not called here; kept bound for perfbench/spans.py
    scaled_leximin,
)
from .report import SolverReport


def _require_m2_strict(instance: Instance) -> None:
    if instance.m != 2:
        raise NotAdmissibleError("solver requires exactly two colleges")
    if not classify(instance).strict:
        raise NotAdmissibleError("solver requires strict preferences on both sides")


def favorites(instance: Instance) -> list:
    """alpha: each student's preferred college (0 or 1)."""
    return [0 if u0 > u1 else 1 for u0, u1 in instance._kernel[1]]


def _staircase(instance: Instance) -> tuple:
    """(fans, stable) on the kernel ints: fans[j] lists college j's fans in
    ascending order of its value, and stable(d0, d1) tells whether the
    complete matching in which each college j hands its first d_j fans to
    the other is stable."""
    _, _, cv = instance._kernel
    alpha = favorites(instance)
    fans = tuple(
        sorted((i for i, a in enumerate(alpha) if a == j), key=cv[j].__getitem__)
        for j in (0, 1)
    )
    # floor[j][k]: the other college's least value over fans[j][: k + 1],
    # which are its reluctant members once college j has handed k + 1 away
    floor = tuple(
        list(accumulate((cv[1 - j][i] for i in fans[j]), min)) for j in (0, 1)
    )

    def stable(d0: int, d1: int) -> bool:
        # fans are sorted, so fans[j][d_j - 1] is the best fan j handed away
        return not (d0 and d1) or (
            cv[0][fans[0][d0 - 1]] < floor[1][d1 - 1]
            and cv[1][fans[1][d1 - 1]] < floor[0][d0 - 1]
        )

    return fans, stable


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
    """Leximin-optimal stable matching for m=2 with strict preferences."""
    _require_m2_strict(instance)
    n = instance.n
    if any(b < n - 1 for b in instance.capacities):
        raise NotAdmissibleError("solver assumes capacities of at least n-1")
    _, sv, cv = instance._kernel
    fans, stable = _staircase(instance)
    assignment = favorites(instance)
    totals = [sum(map(cv[j].__getitem__, fans[j])) for j in (0, 1)]
    values = sorted([sv[i][j] for i, j in enumerate(assignment)] + totals)
    best, best_values = list(assignment), list(values)
    toggles = 0
    d = [0, 0]
    # Rule A forbids a student from leaving their favorite for a college
    # they value below the poorer college's total at some step, so a_max is
    # the largest such total seen.
    a_max = -1

    if on_state is not None:
        on_state(Matching(assignment))
    while True:
        low, high = (0, 1) if totals[0] <= totals[1] else (1, 0)
        a_max = max(a_max, totals[low])
        if d[high] == len(fans[high]):
            break
        mover = fans[high][d[high]]
        if sv[mover][low] < a_max:
            break
        d[high] += 1
        if not stable(*d):
            break
        assignment[mover] = low
        toggles += 1
        if on_state is not None:
            on_state(Matching(assignment))
        # a move changes three agents' values: the mover's and both totals
        for old in (sv[mover][high], totals[high], totals[low]):
            del values[bisect_left(values, old)]
        totals[high] -= cv[high][mover]
        totals[low] += cv[low][mover]
        for new in (sv[mover][low], totals[high], totals[low]):
            insort(values, new)
        if values > best_values:
            best, best_values = list(assignment), list(values)

    tuple_comparisons = toggles  # one list compare per toggle
    steps = toggles + tuple_comparisons * (n + 2)
    matching = Matching(best)
    return SolverReport(
        algorithm="fast_const",
        matching=matching,
        leximin=scaled_leximin(instance, matching),
        steps=steps,
        counters={"toggles": toggles, "tuple_comparisons": tuple_comparisons},
    )
