"""Leximin solver for general ranked valuations, capacities included.

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

Capacities are part of the instance: the initial fill respects them, and a
full college never receives.  When a capacity can bind
(model._capacity_binds) and a full college still gives a student away, the
boundaries right of it may have been fixed prematurely, so the run restarts
from its end state, with only the colleges left of the smallest such giver
upper-fixed.  Capacities that cannot bind (n - 1 or more) fill a college
only when every other college holds one student; their runs never restart,
and the report is named fast_gen rather than cap_fast_gen
(RankedState.report).

Demotion trials are never applied to be compared.  The state's ``table``
holds, in O(m), the 2m - 1 values any trial can remove (R) and those it can
add; a trial p -> q removes a slice of R and adds a slice of the rest plus
its two end totals (``RankedState.record``).  A trial's key is
sorted(R - removed + added), 2m - 1 values: the values outside R are the
same in every trial, so keys rank the trials as their tuples do, and the
best trial is no worse than the state iff its key is at least sorted(R)
(see _state).  The search is separable (``_best_trial``): two givers below
one receiver compare the same way whatever the receiver is, so a running
maximum over the givers and one key per receiver find the best trial, and
only that one is applied.  An iteration thus costs one table of 2m - 1
values, one key per receiver and one compare per giver: O(m) Python steps,
each a slice or a sort of at most 2m - 1 ints at C speed.  On the nine
ranked_gen inputs of perfbench (n = 100-360, m = 4-8; one core of a 2-CPU
x86 container, CPython 3.11) a solve takes 12-19 us per iteration, set-up
and report included, and of fast_gen's time _best_trial takes about 45%,
the loop's own steps (with demote and record) 24%, _blame 13%, table 11%,
state set-up and report 8%.
The table serves the search and, when no trial improves, the record of
the canonical up -> down trial.  A loss is blamed without sorting the
tuple or listing the agents' values (``_blame``): from the recorded
agents, each with its old and new value, and the other holders of the
value where the tuple falls.  _look_ahead records its run of moves into
one dict, every agent the run has changed since its base, and commits the
run as soon as _blame finds no loss.

Progress.  On a ranked instance a chain demotion strictly lowers the value of
every student it moves and leaves every other student's value unchanged.  So
the blame never falls on a student who did not move: at the first index where
the new tuple is lower, more agents hold that value than before; if none of
them lost value, every student among them held it before too, and since
students sort first at equal values, the occupant at that index is a
college.  The blamed student therefore sat in [up, down - 1] before
the canonical up -> down trial, and ends right of `up` in the look-ahead.
Hence every iteration commits a demotion (sum(j * k[j]) rises), grows
lower_fix or upper_fix, or adds a soft pair whose blocker lies right of `up`,
which purge(up) keeps until lower_fix grows.  lower_fix and sum(j * k[j])
never fall, and upper_fix and soft_fix never shrink while lower_fix stays put,
so no configuration recurs and each run ends.

The rules are heuristic, not exact: on
``generate(GenSpec("ranked", 4, 2, seed=54, value_max=7))`` fast_gen returns
block sizes (3, 1), while the leximin optimum (``oracle_leximin``) is (1, 3).
Along (3, 1) -> (2, 2) -> (1, 3) the tuple first gets worse and then better,
so a walk that stops at the first loss misses it.  solve_dispatch sends
every strict m=2 input to const2.fast_const, which is exact on them.
"""

from __future__ import annotations

from typing import Callable, Optional

from ._state import RankedState, initial_boundary
from .model import (
    Instance,
    _capacity_binds,
    classify,  # not called here; kept bound for perfbench/spans.py
    leximin_tuple,  # not called here; kept bound for perfbench/spans.py
)
from .ranked import _require_ranked
from .report import SolverReport


class FixSets:
    """Boundary bookkeeping.  upper_fix: colleges whose block may not grow;
    lower_fix: colleges whose block may not shrink; soft_fix: pairs
    (blocked, blocker) suspending `blocked` from being chosen as the
    receiving college until `up` moves past `blocker`."""

    def __init__(self, upper_fix: set, lower_fix: set):
        self.upper_fix = upper_fix
        self.lower_fix = lower_fix
        self.soft_fix = set()

    def purge(self, up: int) -> None:
        """Drop the soft pairs (j, blocker) with blocker <= up < j.  The main
        loop calls this once per iteration, before any rule fires, even with
        no soft pair: TestProgress counts the configurations through it."""
        if self.soft_fix:
            self.soft_fix = {(j, b) for j, b in self.soft_fix if not b <= up < j}


def _blame(state: RankedState, changes: dict) -> Optional[int]:
    """Position of the agent blamed for the leximin loss from `state` to
    the state in which the agents in `changes` (position -> (old, new), see
    ``RankedState.record``) take their new values and every other agent
    keeps its own, or None when there is no loss.

    The new state loses iff the sorted new values of the changed agents
    fall below their sorted old values (the agents that keep their values
    add the same multiset to both; see _state).  The blame falls on the
    occupant, in the new sorted tuple, of the first index where new < old.
    The value x there is the first at which the two sorted lists differ.
    Equal values sort by position, so the occupant is holder number c of x
    in the new state, c being the number of agents holding x in the old
    one.  The holders are the changed agents whose new value is x and the
    others that hold x in `state` (``RankedState.holders``).  When equal
    values reshuffle, the occupant may not have lost anything itself; then
    blame the first holder whose own value strictly decreased (without
    this, the fixing rules can fail to make progress).  No full tuple is
    sorted and no values list is built: O(n) compares at C speed, plus
    O(m + len(changes))."""
    gone, came = map(sorted, zip(*changes.values()))
    if came >= gone:
        return None
    x = next(x for x, y in zip(came, gone) if x != y)
    others = [a for a in state.holders(x) if a not in changes]
    holders = sorted(others + [a for a, (_, new) in changes.items() if new == x])
    at = holders[len(others) + gone.count(x)]
    lost = [a for a, (old, new) in changes.items() if new == x < old]
    return at if at in lost else min(lost, default=at)


def _best_trial(state: RankedState, table, receivers: list, lower_fix: set, counters):
    """(p, q, improves): the first trial p -> q, over the receivers q and
    the givers p < q outside lower_fix with more than one student, whose
    key sorted(R - R[2p:2q+1] + added) is largest (see _state), and whether
    that key is at least sorted(R), which stands for the state.

    The rule is separable.  For givers p < g below a receiver q, key(p, q)
    and key(g, q) share all but head[p] + A[2p+1:2g+1] against R[2p:2g] +
    [head[g]], and adding a common multiset keeps leximin order (the _state
    lemma), so the two compare alike whatever q is.  So the receivers are
    walked in ascending order, keeping the best giver below each one as a
    running maximum (a tie keeps the smaller giver), and one key is sorted
    per receiver, the first largest winning over all pairs.  Every list is
    two slices of the rows R and X = R[:2p] + [head[p]] + A[2p+1:], the
    giver's row: key(p, q) is X[:2q] + R[2q:] with tail[q] in place of
    R[2q] = total[q]; above, p's side is X[2p:2g+1] and g's is R[2p:2g+1]
    with head[g] last.  chain_moves and tuple_comparisons still count every
    pair ranked (q - p moves each), from the number and the sum of the
    givers below q."""
    R, A, head, tail = table
    k = state.k
    givers = [g for g in range(receivers[-1]) if g not in lower_fix and k[g] > 1]
    best_key = p = None
    moves = trials = below = i = 0  # below: the sum of the givers below q
    for q in receivers:
        while i < len(givers):
            g = givers[i]
            if g >= q:
                break
            i += 1
            below += g
            if p is not None:
                kept = X[lo:2 * g + 1]
                kept.sort()
                moved = R[lo:2 * g + 1]
                moved[-1] = head[g]
                moved.sort()
                if moved <= kept:
                    continue
            p, lo = g, 2 * g
            X = R[:lo] + [head[g]] + A[lo + 1:]
        if p is None:
            continue
        moves += i * q - below
        trials += i
        q2 = 2 * q
        key = X[:q2] + R[q2:]
        key[q2] = tail[q]
        key.sort()
        if best_key is None or key > best_key:
            best_key, giver, receiver = key, p, q
    counters["chain_moves"] += moves
    counters["tuple_comparisons"] += trials
    return giver, receiver, best_key >= sorted(R)


def _look_ahead(state: RankedState, down: int, fixes: FixSets, counters: dict):
    """Speculative multi-demote into college `down`.  Returns the committed
    state (or None) and mutates the global fix sets only on the non-commit
    exits that pin something down permanently."""
    n, m = state.instance.n, state.instance.m
    caps = state.instance.capacities
    shadow = state.copy()
    lf = set(fixes.lower_fix)
    uf = set(fixes.upper_fix)
    changes = {}  # every agent the shadow changed: base and current value
    while len(lf) < m:
        if shadow.k[down] >= caps[down]:
            break
        up = min(j for j in range(m) if j not in lf)
        if up >= down:
            break
        if shadow.k[up] == 1 or shadow.college_value(up) <= shadow.college_value(down):
            lf.add(up)
            continue
        shadow.record(changes, shadow.table(), up, down)
        shadow.demote(up, down)
        counters["chain_moves"] += down - up
        counters["tuple_comparisons"] += 1
        # the shadow against its base, by the agents it changed (see _state)
        blamed = _blame(state, changes)
        if blamed is None:
            fixes.lower_fix = lf
            fixes.upper_fix = uf
            return shadow
        if blamed == n + up:
            lf.add(up)
            uf.add(up + 1)
            continue
        if blamed < n:
            t = shadow.college_of(blamed)
            if t == down:
                fixes.upper_fix.add(down)
            else:
                fixes.soft_fix.add((down, t))
            return None
        # some other college lost; keep speculating
    fixes.upper_fix.add(down)
    return None


def _inner_run(state: RankedState, fixes: FixSets, watch_full: bool, counters: dict, on_state):
    """One full run of the main loop.  Mutates state and fixes in place and
    returns (final state, restart): restart is the smallest college that
    gave a student while full, or m if none did or watch_full is false."""
    instance = state.instance
    n, m = instance.n, instance.m
    caps = instance.capacities
    restart = m
    k, total = state.k, state._total
    up = iterations = 0
    if on_state is not None:
        on_state(tuple(k))
    # terminates by the progress measure in the module docstring
    while len(fixes.lower_fix) < m:
        iterations += 1
        lower_fix, upper_fix = fixes.lower_fix, fixes.upper_fix
        while up in lower_fix:  # lower_fix never shrinks within a run
            up += 1
        fixes.purge(up)
        soft_fix = fixes.soft_fix
        blocked = upper_fix | {j for j, _ in soft_fix} if soft_fix else upper_fix
        unfixed = [j for j in range(m) if j not in blocked]
        if not unfixed:
            break
        # unfixed ascends, so min keeps the leftmost of equal totals
        down = min(unfixed, key=total.__getitem__)
        if down < up:
            upper_fix.add(down)
            continue
        if k[up] == 1 or total[up] <= total[down]:
            lower_fix.add(up)
            continue
        if k[down] >= caps[down]:
            upper_fix.add(down)
            continue
        # A demotion is irreversible, so committing the first improving
        # up -> down move can strand the run at a local optimum: try every
        # eligible (giver, receiver) pair and keep the leximin-best trial;
        # the canonical up -> down move (always eligible here) still drives
        # the loss attribution when nothing improves.
        receivers = [q for q in unfixed if q > up and k[q] < caps[q]]
        # one table serves every trial and, if none improves, the blame
        table = state.table()
        giver, receiver, improves = _best_trial(state, table, receivers, lower_fix, counters)
        # an EQUAL trial commits too: sum(j * k[j]) still rises (see Progress)
        if improves:
            if watch_full and giver < restart and k[giver] >= caps[giver]:
                restart = giver
            state.demote(giver, receiver)
            if on_state is not None:
                on_state(tuple(k))
            continue
        # attribute the loss from the canonical up -> down trial, read off
        # the same table: its blame decides whether to fix a boundary or
        # speculate ahead; _best_trial ranked this trial below the state, so
        # it loses and is blamed on someone
        canon = {}
        state.record(canon, table, up, down)
        blamed = _blame(state, canon)
        if blamed == n + up:
            lower_fix.add(up)
            upper_fix.add(up + 1)
        elif blamed < n:
            # the student moved, so up <= t < down: t + 1 is a college, and
            # either t + 1 == down joins upper_fix or (down, t + 1) is a new
            # soft pair (down is in unfixed, so not soft-blocked yet)
            t = state.college_of(blamed)
            lower_fix.add(t)
            upper_fix.add(t + 1)
            soft_fix |= {(j, t + 1) for j in unfixed if j > t + 1}
        else:
            committed = _look_ahead(state, down, fixes, counters)
            if committed is not None:
                state = committed
                k, total = state.k, state._total
                if on_state is not None:
                    on_state(tuple(k))
    counters["iterations"] += iterations
    return state, restart


def fast_gen(instance: Instance, on_state: Optional[Callable] = None) -> SolverReport:
    """Complete stable matching for general ranked valuations, aiming at the
    leximin optimum but not always reaching it (see the module docstring).
    When a capacity can bind, the report is named cap_fast_gen
    (RankedState.report) and a run in which a full college gave a student
    restarts (see the module docstring)."""
    _require_ranked(instance)
    m = instance.m
    binds = _capacity_binds(instance)
    state = RankedState(instance, initial_boundary(instance))
    fixes = FixSets(upper_fix={0}, lower_fix={m - 1})
    counters = dict.fromkeys(("iterations", "chain_moves", "tuple_comparisons", "reruns"), 0)
    while True:
        state, restart = _inner_run(state, fixes, binds, counters, on_state)
        if restart == m:
            break
        counters["reruns"] += 1
        fixes = FixSets(upper_fix=set(range(restart)) or {0}, lower_fix={m - 1})
    return state.report("fast_gen", counters)


cap_fast_gen = fast_gen  # the one solver under its capacitated name
