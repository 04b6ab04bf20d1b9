"""Leximin solver for ranked isometric instances (u == v pointwise).

The solver walks the colleges from last to first.  For the current college
`down` it repeatedly pulls the weakest student of college down-1 into `down`
(a chain demotion sourced at the lowest-indexed college that still has more
than one student) as long as that raises the running minimum.  On an exact
tie it commits the demotion only if the whole sorted value tuple strictly
improves, which it reads off the demotion's record (see _state).

The walk reads the capacities from the instance: the initial fill respects
them and a full college is skipped.  A capacity that cannot bind
(model._capacity_binds) never stops it.  cap_fast is another name for fast;
the report says cap_fast when some capacity can bind (RankedState.report).

The walk is a heuristic, not an exact solver: its stopping rule can end
before the optimum even at m=2.  On
``generate(GenSpec("ranked_isometric", 5, 2, seed=211977))`` it returns block
sizes (3, 2), while the leximin optimum (``oracle_leximin``) is (1, 4).
solve_dispatch sends every strict m=2 input to const2.fast_const, which is
exact on them.  At m=3, on ``Instance.from_matrix([[15, 13, 11], [14, 9, 7],
[12, 6, 3], [10, 5, 2], [8, 4, 1]])`` it returns (1, 1, 3), while the
optimum is (1, 2, 2); solve_dispatch sends that input here.  A matrix is
row-separated when each student's worst value exceeds the next student's
best; this one is not, as student 1's worst, 7, is below student 2's best,
12.
"""

from __future__ import annotations

from typing import Callable, Optional

from ._state import RankedState, initial_boundary
from .errors import NotAdmissibleError
from .model import Instance, classify
from .report import SolverReport


def fast_admissible(instance: Instance) -> bool:
    """Both sides ranked by index and the valuations isometric (u == v
    pointwise): the class the paper defines FaSt for.  General ranked
    instances are fast_gen's."""
    flags = classify(instance)
    return flags.ranked and flags.isometric


def fast(instance: Instance, on_state: Optional[Callable] = None) -> SolverReport:
    """Complete stable matching of a ranked isometric instance, aiming at
    the leximin optimum but not always reaching it (see the module
    docstring).  The report is named cap_fast when a capacity can bind.

    A tie step up -> j commits iff its record's sorted new values beat its
    sorted old values (see _state).  It never leaves the tuple equal, so no
    run of tied steps needs speculating.  The parity proof, with w = u = v,
    T_p college p's total, s0 up's bottom student and x = w(s0, up), above
    w(i, up) >= 0 for the later students i of college j: the step removes
    T_up, x, T_j and two equal values (total and student) for each
    single-student college it crosses.  It adds T_up - x, two equal values
    per crossed college, u_j(s_L) = T_j for the student s_L landing in j,
    and T_j + y with y = w(s_L, j) = T_j.  Equal multisets would need
    {T_up, x} = {T_up - x, 2T_j} as odd-multiplicity sets.  As x > 0, that
    forces T_up = 2x; but up holds another member, worth more than x on a
    ranked instance, so T_up > 2x."""
    if not fast_admissible(instance):
        raise NotAdmissibleError("solver requires a ranked isometric instance")
    m = instance.m
    caps = instance.capacities
    state = RankedState(instance, initial_boundary(instance))
    k = state.k
    u = instance._kernel[1]  # u[j][i] is scaled u(i, j), like every value below
    iterations = chain_moves = tuple_comparisons = 0

    if on_state is not None:
        on_state(tuple(k))
    j = m - 1
    while j >= 1:
        iterations += 1
        ib = sum(k[:j]) - 1  # weakest student of college j-1, the candidate demotee
        # ib < j: colleges 0..j-1 hold one student each, so nothing can move
        if ib < j or k[j] >= caps[j]:
            j -= 1
            continue
        vj = state._total[j]
        if vj >= u[j - 1][ib] or u[j][ib] < vj:
            j -= 1
            continue
        up = max(p for p in range(j) if k[p] > 1)
        chain_moves += j - up
        if u[j][ib] == vj:
            # exact tie: the demotee would land at j's value; the tuple decides
            changes = {}
            state.record(changes, state.table(), up, j)
            gone, came = map(sorted, zip(*changes.values()))
            tuple_comparisons += 1
            if not came > gone:
                j -= 1
                continue
        state.demote(up, j)
        if on_state is not None:
            on_state(tuple(k))

    return state.report(
        "fast",
        dict(iterations=iterations, chain_moves=chain_moves, tuple_comparisons=tuple_comparisons),
    )


cap_fast = fast  # the one walk under its capacitated name
