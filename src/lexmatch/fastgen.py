"""Leximin solver for general ranked valuations, with capacitated variants.

The solver maintains a contiguous block matching and two cursors: `up`, the
best-ranked college whose lower boundary is still open, and `down`, the
currently worst-off college among those whose upper boundary is open.  Each
iteration either chain-demotes one student from up's side into down (kept
only if the full sorted value tuple does not get worse) or fixes a boundary
based on *which agent* would be the first to lose:

  * the giving college loses -> its lower boundary is final;
  * a chained student loses -> its old college's lower boundary is final and
    colleges further right are soft-blocked until that college opens again;
  * some other college loses -> speculate several demotions ahead and commit
    the whole run only if the tuple recovers.

With capacities the same loop runs with full colleges upper-fixed; whenever a
full college still gives a student away, the boundaries right of it may have
been fixed prematurely, so the run restarts with those fixes cleared.

Demotion trials are never applied to be compared.  Each trial p -> q is
ranked by its delta (``RankedState.delta``): the scaled values it removes and
adds, O(q - p) of them.  A trial beats the base iff its sorted added values
beat its sorted removed ones, and trial 1 beats trial 2 iff sorted(A1 + R2)
beats sorted(A2 + R1), since adding the same multiset to two equal-size
multisets keeps their leximin order.  Only the chosen trial is applied, and
full tuples (of scaled ints) are built only to find the agent that loses.

The rules are heuristic, not exact: on
``generate(GenSpec("ranked", 4, 2, seed=54, value_max=7))`` fast_gen returns
block sizes (3, 1), while the leximin optimum (``oracle_leximin``) is (1, 3).
Along (3, 1) -> (2, 2) -> (1, 3) the tuple first gets worse and then better,
so a walk that stops at the first loss misses it.
"""

from __future__ import annotations

from typing import Callable, Optional

from ._state import RankedState, initial_boundary
from .errors import InvalidInputError
from .model import (
    Agent,
    Instance,
    Matching,
    ScaledLeximin,
    classify,  # not called here; kept bound for perfbench/spans.py
    leximin_tuple,  # not called here; kept bound for perfbench/spans.py
    scaled_leximin,
)
from .ranked import _require_ranked
from .report import SolverReport


class FixSets:
    """Boundary bookkeeping.  upper_fix: colleges whose block may not grow;
    lower_fix: colleges whose block may not shrink; soft_fix: pairs
    (blocked, blocker) suspending `blocked` from being chosen as the
    receiving college until `up` moves past `blocker`."""

    def __init__(self, upper_fix=None, lower_fix=None, soft_fix=None):
        self.upper_fix = set() if upper_fix is None else upper_fix
        self.lower_fix = set() if lower_fix is None else lower_fix
        self.soft_fix = set() if soft_fix is None else soft_fix

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    # mutable, so unhashable
    __hash__ = None

    def __repr__(self):
        return (
            f"FixSets(upper_fix={self.upper_fix!r}, lower_fix={self.lower_fix!r}, "
            f"soft_fix={self.soft_fix!r})"
        )

    def soft_blocked(self, j: int) -> bool:
        return any(pair[0] == j for pair in self.soft_fix)

    def unfixed(self, m: int) -> list:
        return [
            j for j in range(m) if j not in self.upper_fix and not self.soft_blocked(j)
        ]

    def purge(self, up: int) -> None:
        self.soft_fix = {
            (j, blocker) for (j, blocker) in self.soft_fix if not blocker <= up < j
        }


def _first_loss_agent(new: ScaledLeximin, old: ScaledLeximin) -> Agent:
    """Agent blamed for a leximin decrease: the occupant, in the new sorted
    tuple, of the first index where new < old.  When equal values reshuffle,
    that occupant may not have lost anything itself; in that case blame the
    first agent in the tied block whose own value strictly decreased (without
    this, the fixing rules can fail to make progress)."""
    new_values, old_values = new.values, old.values
    for t, (x, y) in enumerate(zip(new_values, old_values)):
        if x == y:
            continue
        if x > y:
            raise InvalidInputError("tuple does not lose at first divergence")
        agent = new.agents[t]
        old_of = dict(zip(old.agents, old_values))
        if old_of[agent] > x:
            return new.agent(agent)
        for a, v in zip(new.agents, new_values):
            if v == x and old_of[a] > v:
                return new.agent(a)
        return new.agent(agent)
    raise InvalidInputError("tuples are equal; no losing agent")


def source_dec(instance: Instance, mu_new: Matching, mu_old: Matching) -> Agent:
    """The agent to blame for a leximin decrease between two matchings."""
    return _first_loss_agent(
        scaled_leximin(instance, mu_new), scaled_leximin(instance, mu_old)
    )


class _Counters:
    __slots__ = ("iterations", "chain_moves", "tuple_comparisons", "reruns")

    def __init__(self):
        self.iterations = self.chain_moves = self.tuple_comparisons = 0
        self.reruns = 0

    def steps(self, n: int, m: int) -> int:
        return self.iterations + self.chain_moves + self.tuple_comparisons * (n + m)

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "chain_moves": self.chain_moves,
            "tuple_comparisons": self.tuple_comparisons,
            "reruns": self.reruns,
        }


def _look_ahead(
    state: RankedState,
    down: int,
    fixes: FixSets,
    caps,
    counters: _Counters,
):
    """Speculative multi-demote into college `down`.  Returns the committed
    state (or None) and mutates the global fix sets only on the non-commit
    exits that pin something down permanently."""
    m = state.instance.m
    shadow = state.copy()
    lf = set(fixes.lower_fix)
    uf = set(fixes.upper_fix)
    base = state.values()
    while len(lf) < m:
        if caps is not None and shadow.k[down] >= caps[down]:
            break
        up = min(j for j in range(m) if j not in lf)
        if up >= down:
            break
        if shadow.k[up] == 1 or shadow.college_value(up) <= shadow.college_value(down):
            lf.add(up)
            continue
        shadow.demote(up, down)
        counters.chain_moves += down - up
        counters.tuple_comparisons += 1
        if shadow.values() >= base:
            fixes.lower_fix = lf
            fixes.upper_fix = uf
            return shadow
        kind, idx = _first_loss_agent(shadow.leximin(), state.leximin())
        if kind == "c" and idx == up:
            lf.add(up)
            uf.add(up + 1)
            continue
        if kind == "s":
            t = shadow.matching().assignment[idx]
            if t == down:
                fixes.upper_fix.add(down)
            else:
                fixes.soft_fix.add((down, t))
            return None
        # some other college lost; keep speculating
    fixes.upper_fix.add(down)
    return None


def _inner_run(
    instance: Instance,
    state: RankedState,
    fixes: FixSets,
    caps,
    T,
    counters: _Counters,
    on_state,
):
    """One full run of the main loop.  Mutates state/fixes/T in place and
    returns the final state."""
    m = instance.m

    def emit(st):
        if on_state is not None:
            on_state(tuple(st.k))

    emit(state)
    seen_configs = set()
    while len(fixes.lower_fix) < m:
        counters.iterations += 1
        up = min(j for j in range(m) if j not in fixes.lower_fix)
        sig = (
            tuple(state.k),
            frozenset(fixes.lower_fix),
            frozenset(fixes.upper_fix),
            frozenset(fixes.soft_fix),
        )
        if sig in seen_configs:
            # livelock escape: this exact configuration was seen before, so
            # no rule can make further progress from it
            fixes.lower_fix.add(up)
            continue
        seen_configs.add(sig)
        fixes.purge(up)
        unfixed = fixes.unfixed(m)
        if not unfixed:
            break
        down = min(unfixed, key=lambda j: (state.college_value(j), j))
        if down < up:
            fixes.upper_fix.add(down)
            continue
        if state.k[up] == 1 or state.college_value(up) <= state.college_value(down):
            fixes.lower_fix.add(up)
            continue
        if caps is not None and state.k[down] >= caps[down]:
            fixes.upper_fix.add(down)
            continue
        # A demotion is irreversible (blocks only shrink on the left), so
        # committing the first improving move from the leftmost college into
        # the worst-off college can strand the run at a local optimum: a
        # giver further right, or a receiver other than the minimum-value
        # college, may improve the tuple more.  Try every eligible
        # (giver, receiver) pair and keep the leximin-best trial; the
        # canonical up -> down move (always eligible here) still drives the
        # loss attribution when nothing improves.  Trials are ranked by their
        # deltas (see _state): trial 1 beats trial 2 iff sorted(A1 + R2) >
        # sorted(A2 + R1).
        receivers = [
            q
            for q in unfixed
            if q > up and (caps is None or state.k[q] < caps[q])
        ]
        best = None
        for q in receivers:
            for p in range(q):
                if p in fixes.lower_fix or state.k[p] <= 1:
                    continue
                removed, added = state.delta(p, q)
                counters.chain_moves += q - p
                counters.tuple_comparisons += 1
                if best is None or sorted(added + best_removed) > sorted(best_added + removed):
                    best, best_removed, best_added = (p, q), removed, added
        giver, receiver = best
        best_removed.sort()
        best_added.sort()
        # an EQUAL trial commits too: every commit moves a student from a
        # college to one on its right, so sum(j * k[j]) rises and no
        # boundary vector comes back
        if best_added >= best_removed:
            if T is not None and caps is not None and state.k[giver] >= caps[giver]:
                T[giver] = 1
            state.demote(giver, receiver)
            emit(state)
            continue
        # attribute the loss from the canonical up -> down trial: its blame
        # decides whether to fix a boundary or speculate ahead
        canon = state.copy()
        canon.demote(up, down)
        kind, idx = _first_loss_agent(canon.leximin(), state.leximin())
        if kind == "c" and idx == up:
            fixes.lower_fix.add(up)
            fixes.upper_fix.add(up + 1)
        elif kind == "s":
            t = state.matching().assignment[idx]
            before = (set(fixes.lower_fix), set(fixes.upper_fix), set(fixes.soft_fix))
            fixes.lower_fix.add(t)
            if t + 1 < m:
                fixes.upper_fix.add(t + 1)
                fixes.soft_fix |= {(j, t + 1) for j in unfixed if j > t + 1}
            if (fixes.lower_fix, fixes.upper_fix, fixes.soft_fix) == before:
                # everything around the blamed student is already pinned,
                # so the only remaining conclusion is that the giving
                # college cannot shrink further
                fixes.lower_fix.add(up)
                fixes.upper_fix.add(up + 1)
        else:
            committed = _look_ahead(state, down, fixes, caps, counters)
            if committed is not None:
                state = committed
                emit(state)
    return state


def fast_gen(instance: Instance, on_state: Optional[Callable] = None) -> SolverReport:
    """Complete stable matching for general ranked valuations, aiming at the
    leximin optimum but not always reaching it (see the module docstring).
    Dispatches to cap_fast_gen when a capacity is below n-1."""
    _require_ranked(instance)
    n, m = instance.n, instance.m
    if any(b < n - 1 for b in instance.capacities):
        return cap_fast_gen(instance, on_state=on_state)
    state = RankedState(instance, initial_boundary(instance, [n] * m))
    fixes = FixSets(upper_fix={0}, lower_fix={m - 1})
    counters = _Counters()
    state = _inner_run(instance, state, fixes, None, None, counters, on_state)
    return SolverReport(
        algorithm="fast_gen",
        matching=state.matching(),
        leximin=state.leximin(),
        steps=counters.steps(n, m),
        counters=counters.as_dict(),
    )


def cap_preprocess(instance: Instance):
    """Capacity-aware starting point: the left-heavy feasible fill, plus fix
    sets.  When some tail student already sits at or below every college's
    value and is alone at its college, that college and everything to its
    right can never profitably shed students, so their lower boundaries are
    fixed up front.  (Only the lower ones: such a college may still *gain*
    members when that raises its value without hurting the minimum.)"""
    _require_ranked(instance)
    n, m = instance.n, instance.m
    state = RankedState(instance, initial_boundary(instance))
    fixes = FixSets(upper_fix={0}, lower_fix={m - 1})
    student_rows = instance._kernel[1]
    college_values = [state.college_value(j) for j in range(m)]
    matching = state.matching()
    assignment = matching.assignment
    for i in range(1, n - 1):
        j = assignment[i]
        if (
            all(state.k[p] == 1 for p in range(j, m))
            and all(student_rows[i][j] <= cv for cv in college_values)
        ):
            for p in range(j, m):
                fixes.lower_fix.add(p)
            break
    return matching, fixes


def cap_fast_gen(
    instance: Instance, on_state: Optional[Callable] = None
) -> SolverReport:
    """Capacity-respecting variant of fast_gen with the restart rule for
    prematurely fixed boundaries."""
    _require_ranked(instance)
    n, m = instance.n, instance.m
    matching, fixes = cap_preprocess(instance)
    k0 = [len(ms) for ms in matching.college_view(m)]
    state = RankedState(instance, k0)
    caps = list(instance.capacities)
    counters = _Counters()
    T = [0] * m
    while True:
        state = _inner_run(instance, state, fixes, caps, T, counters, on_state)
        if not any(T):
            break
        counters.reruns += 1
        j_star = min(j for j in range(m) if T[j])
        fixes = FixSets(upper_fix=set(range(j_star)) or {0}, lower_fix={m - 1})
        T = [0] * m
    return SolverReport(
        algorithm="cap_fast_gen",
        matching=state.matching(),
        leximin=state.leximin(),
        steps=counters.steps(n, m),
        counters=counters.as_dict(),
    )
