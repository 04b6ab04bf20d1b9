"""Leximin solver for ranked instances whose student values are dominated by
the college side (isometric valuations being the main case).

The solver walks the colleges from last to first.  For the current college
`down` it repeatedly pulls the weakest student of college down-1 into `down`
(a chain demotion sourced at the lowest-indexed college that still has more
than one student) as long as that raises the running minimum.  On an exact
tie it speculatively continues demoting in a shadow state and commits the
whole run only if the full sorted value tuple strictly improves.

The capacitated variant is the same walk with three extra guards: the
initial fill respects capacities, a full college is skipped, and the
speculative run stops at the capacity of `down`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ._state import RankedState, initial_boundary
from .errors import NotAdmissibleError
from .model import EQUAL, GREATER, Instance, classify, leximin_compare
from .report import SolverReport


def fast_admissible(instance: Instance) -> bool:
    """Both sides ranked by index, and either u == v pointwise or u is
    dominated by v pointwise with every student column of u non-increasing
    (so a college is never valued below any student it holds)."""
    flags = classify(instance)
    if not flags.ranked:
        return False
    if flags.isometric:
        return True
    n, m = instance.n, instance.m
    dominated = all(
        instance.u(i, j) <= instance.v(j, i) for i in range(n) for j in range(m)
    )
    columns_monotone = all(
        instance.u(i, j) >= instance.u(i + 1, j)
        for j in range(m)
        for i in range(n - 1)
    )
    return dominated and columns_monotone


def _run(
    instance: Instance,
    caps,
    label: str,
    on_state: Optional[Callable] = None,
) -> SolverReport:
    n, m = instance.n, instance.m
    state = RankedState(instance, initial_boundary(instance, caps))
    k = state.k
    iterations = chain_moves = tuple_comparisons = 0

    def emit():
        if on_state is not None:
            on_state(tuple(k))

    emit()
    j = m - 1
    while j >= 1:
        iterations += 1
        w = 0
        for p in range(j):
            w += k[p]
        ib = w - 1  # weakest student of college j-1, the candidate demotee
        if ib < j:
            # colleges 0..j-1 hold one student each; nothing can move
            j -= 1
            continue
        vj = state.college_value(j)
        if vj >= instance.u(ib, j - 1) or k[j] >= caps[j]:
            j -= 1
            continue
        if instance.u(ib, j) > vj:
            up = max(p for p in range(j) if k[p] > 1)
            state.demote(up, j)
            chain_moves += j - up
            emit()
            continue
        if instance.u(ib, j) < vj:
            j -= 1
            continue
        # exact tie: the demotee would land exactly at the college's current
        # value.  Speculate forward; only a strict improvement of the whole
        # sorted tuple justifies committing the run.
        base = state.leximin()
        trial = state.copy()
        committed = False
        while True:
            tw = 0
            for p in range(j):
                tw += trial.k[p]
            if tw - 1 < j or trial.k[j] >= caps[j]:
                break
            t_up = max(p for p in range(j) if trial.k[p] > 1)
            trial.demote(t_up, j)
            chain_moves += j - t_up
            cmp = leximin_compare(trial.leximin(), base)
            tuple_comparisons += 1
            if cmp == GREATER:
                state = trial
                k = state.k
                committed = True
                emit()
                break
            if cmp != EQUAL:
                break
        if not committed:
            j -= 1

    steps = iterations + chain_moves + tuple_comparisons * (n + m)
    return SolverReport(
        algorithm=label,
        matching=state.matching(),
        leximin=state.leximin(),
        steps=steps,
        counters={
            "iterations": iterations,
            "chain_moves": chain_moves,
            "tuple_comparisons": tuple_comparisons,
        },
    )


def fast(instance: Instance, on_state: Optional[Callable] = None) -> SolverReport:
    """Leximin-optimal complete stable matching of a ranked instance with
    non-binding capacities.  Dispatches to cap_fast when a capacity is below
    n-1 and could bind."""
    if not fast_admissible(instance):
        raise NotAdmissibleError(
            "solver requires a ranked instance with college-dominant values"
        )
    n = instance.n
    if any(b < n - 1 for b in instance.capacities):
        return cap_fast(instance, on_state=on_state)
    return _run(instance, [n] * instance.m, "fast", on_state)


def cap_fast(instance: Instance, on_state: Optional[Callable] = None) -> SolverReport:
    """Capacity-respecting variant of fast."""
    if not fast_admissible(instance):
        raise NotAdmissibleError(
            "solver requires a ranked instance with college-dominant values"
        )
    return _run(instance, list(instance.capacities), "cap_fast", on_state)
