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

The walk is a heuristic, not an exact solver: its stopping rule can end
before the optimum even at m=2.  On
``generate(GenSpec("ranked_isometric", 5, 2, seed=211977))`` it returns block
sizes (3, 2), while the leximin optimum (``oracle_leximin``) is (1, 4).
"""

from __future__ import annotations

from itertools import chain
from operator import ge, le
from typing import Callable, Optional

from ._state import RankedState, initial_boundary
from .errors import NotAdmissibleError
from .model import Instance, classify
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
    _, sv, cv = instance._kernel
    dominated = all(map(le, chain.from_iterable(zip(*sv)), chain.from_iterable(cv)))
    columns_monotone = all(all(map(ge, col, col[1:])) for col in zip(*sv))
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
    u = instance._kernel[1]  # scaled u(i, j), like every value below
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
        if vj >= u[ib][j - 1] or k[j] >= caps[j]:
            j -= 1
            continue
        if u[ib][j] > vj:
            up = max(p for p in range(j) if k[p] > 1)
            state.demote(up, j)
            chain_moves += j - up
            emit()
            continue
        if u[ib][j] < vj:
            j -= 1
            continue
        # exact tie: the demotee would land exactly at the college's current
        # value.  Speculate forward; only a strict improvement of the whole
        # sorted tuple justifies committing the run.
        base = state.values()
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
            values = trial.values()
            tuple_comparisons += 1
            if values > base:
                state = trial
                k = state.k
                committed = True
                emit()
                break
            if values != base:
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
    """Complete stable matching of a ranked instance with non-binding
    capacities, aiming at the leximin optimum but not always reaching it (see
    the module docstring).  Dispatches to cap_fast when a capacity is below
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
