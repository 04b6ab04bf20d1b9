"""Leximin solver for two colleges under strict (not necessarily ranked)
preferences.

With m=2 a student's preference is just their favorite college, and the
stable matchings have a closed form (is_stable_m2).  The solver starts from
everyone-at-their-favorite (always stable) and repeatedly toggles the
least-valued student of the richer college over to the poorer one, tracking
the best matching seen.  A forbidden-pair set stops the walk before a toggle
that provably cannot appear in any optimum: an irreversible value drop for
the moved student, an undo of an earlier toggle, or a stability violation.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import InvalidInputError, NotAdmissibleError
from .model import (
    GREATER,
    Instance,
    Matching,
    classify,
    college_value,
    is_stable,
    leximin_compare,
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
    return [0 if instance.u(i, 0) > instance.u(i, 1) else 1 for i in range(instance.n)]


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
    alpha = favorites(instance)
    mu = Matching(alpha)
    best = mu
    best_tuple = leximin_tuple(instance, mu)
    toggles = tuple_comparisons = 0
    moved = set()

    def emit(matching):
        if on_state is not None:
            on_state(matching)

    emit(mu)

    forbidden = set()
    while True:
        v0 = college_value(instance, mu, 0)
        v1 = college_value(instance, mu, 1)
        low, high, v_low = (0, 1, v0) if v0 <= v1 else (1, 0, v1)
        forbidden |= {
            (i, 1 - alpha[i])
            for i in range(n)
            if instance.u(i, 1 - alpha[i]) < v_low
        }
        members = mu.college_view(2)[high]
        if not members:
            break
        mover = min(members, key=lambda i: instance.v(high, i))
        if (mover, low) in forbidden:
            break
        if mover in moved:
            raise InvalidInputError("toggle walk revisited a student")
        moved.add(mover)
        source = high
        assignment = list(mu.assignment)
        assignment[mover] = low
        mu = Matching(assignment)
        toggles += 1
        emit(mu)
        t = leximin_tuple(instance, mu)
        tuple_comparisons += 1
        if leximin_compare(t, best_tuple) == GREATER:
            best, best_tuple = mu, t
        # no student the source college likes at most as much as the one it
        # just lost may ever (re)join it
        bar = instance.v(source, mover)
        forbidden |= {
            (i, source) for i in range(n) if instance.v(source, i) <= bar
        }

    steps = toggles + tuple_comparisons * (n + 2)
    return SolverReport(
        algorithm="fast_const",
        matching=best,
        leximin=best_tuple,
        steps=steps,
        counters={"toggles": toggles, "tuple_comparisons": tuple_comparisons},
    )
