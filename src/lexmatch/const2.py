"""Leximin solver for two colleges under strict (not necessarily ranked)
preferences.

With m=2 a student's preference is just their favorite college, and the
stable matchings have a closed form (is_stable_m2).  The solver starts from
everyone-at-their-favorite (always stable) and repeatedly toggles the
least-valued student of the richer college over to the poorer one, tracking
the best matching seen.  A forbidden-pair cutoff stops the walk before a
toggle that provably cannot appear in any optimum: an irreversible value
drop for the moved student, an undo of an earlier toggle, or a stability
violation.

The walk runs on the integer kernel (``Instance._kernel``).  The forbidden
pairs only ever grow and are only asked about the next mover, so they are
kept as three thresholds: the largest poorer-college value seen so far
(below it, leaving one's favorite is forbidden) and, per college, the
largest value of a student it has given away (at or below it, joining that
college is forbidden).  Each college keeps a heap of its members keyed by
its value of them, so the mover is the richer college's heap top.  All
n + 2 agent values are kept as one sorted int list; a toggle changes three
of them (the mover's and both totals), so it costs three deletions and
three insertions, and the best state so far is found by a plain list
compare.  Scaling by a positive constant keeps the leximin order, so this
compare ranks states exactly as leximin_compare on the Fraction tuples.
One LeximinTuple is built, for the result.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from typing import Callable, Optional

from .errors import InvalidInputError, NotAdmissibleError
from .model import (
    Instance,
    Matching,
    classify,
    is_stable,  # not called here; kept bound for perfbench/spans.py
    leximin_tuple,
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


def is_stable_m2(instance: Instance, matching: Matching) -> bool:
    """Closed-form stability test for m=2: each college holds its top slice
    of the students who prefer it, plus the other college's bottom slice of
    the rest, and any reluctant member must still out-value the best student
    the college turned away."""
    _require_m2_strict(instance)
    matching.validate(instance)
    if any(j is None for j in matching.assignment):
        raise InvalidInputError("characterization needs every student matched")
    alpha = favorites(instance)
    view = matching.college_view(2)
    for j in (0, 1):
        oj = 1 - j
        A_j = [i for i in range(instance.n) if alpha[i] == j]
        members = set(view[j])
        own = members & set(A_j)
        reluctant = members - set(A_j)
        # own must be c_j's most preferred |own| students of A_j
        top = sorted(A_j, key=lambda i: -instance.v(j, i))[: len(own)]
        if own != set(top):
            return False
        # reluctant must be c_oj's least preferred slice of its own fans
        A_oj = [i for i in range(instance.n) if alpha[i] == oj]
        bottom = sorted(A_oj, key=lambda i: instance.v(oj, i))[: len(reluctant)]
        if reluctant != set(bottom):
            return False
        if reluctant:
            turned_away = [i for i in A_j if i not in members]
            if turned_away:
                best_refused = max(instance.v(j, i) for i in turned_away)
                worst_reluctant = min(instance.v(j, i) for i in reluctant)
                if not best_refused < worst_reluctant:
                    return False
    return True


def fast_const(instance: Instance, on_state: Optional[Callable] = None) -> SolverReport:
    """Leximin-optimal stable matching for m=2 with strict preferences."""
    _require_m2_strict(instance)
    n = instance.n
    if any(b < n - 1 for b in instance.capacities):
        raise NotAdmissibleError("solver assumes capacities of at least n-1")
    _, sv, cv = instance._kernel
    assignment = favorites(instance)
    heaps = ([], [])
    totals = [0, 0]
    for i, j in enumerate(assignment):
        heaps[j].append((cv[j][i], i))
        totals[j] += cv[j][i]
    for heap in heaps:
        heapify(heap)
    values = sorted([sv[i][j] for i, j in enumerate(assignment)] + totals)
    best, best_values = list(assignment), list(values)
    toggles = 0
    moved = bytearray(n)
    # The forbidden pairs, as thresholds.  Rule A forbids (i, 1 - alpha[i])
    # once u(i, 1 - alpha[i]) falls below the poorer college's value at some
    # step, so a_max is the largest such value seen.  Rule B forbids (i, j)
    # once college j has given away a student it values at least v(j, i),
    # so bar[j] is the largest value of a student j has given away.
    alpha = tuple(assignment)
    a_max = -1
    bar = [-1, -1]

    if on_state is not None:
        on_state(Matching(assignment))
    while True:
        low, high = (0, 1) if totals[0] <= totals[1] else (1, 0)
        a_max = max(a_max, totals[low])
        if not heaps[high]:
            break
        v_high, mover = heaps[high][0]
        v_low = cv[low][mover]
        if (low != alpha[mover] and sv[mover][low] < a_max) or v_low <= bar[low]:
            break
        if moved[mover]:
            raise InvalidInputError("toggle walk revisited a student")
        moved[mover] = 1
        heappop(heaps[high])
        heappush(heaps[low], (v_low, mover))
        assignment[mover] = low
        toggles += 1
        if on_state is not None:
            on_state(Matching(assignment))
        # a toggle changes three agents' values: the mover's and both totals
        for old in (sv[mover][high], totals[high], totals[low]):
            del values[bisect_left(values, old)]
        totals[high] -= v_high
        totals[low] += v_low
        for new in (sv[mover][low], totals[high], totals[low]):
            insort(values, new)
        if values > best_values:
            best, best_values = list(assignment), list(values)
        # no student the source college likes at most as much as the one it
        # just lost may ever (re)join it
        bar[high] = max(bar[high], v_high)

    tuple_comparisons = toggles  # one list compare per toggle
    steps = toggles + tuple_comparisons * (n + 2)
    matching = Matching(best)
    return SolverReport(
        algorithm="fast_const",
        matching=matching,
        leximin=leximin_tuple(instance, matching),
        steps=steps,
        counters={"toggles": toggles, "tuple_comparisons": tuple_comparisons},
    )
