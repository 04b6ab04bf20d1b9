import itertools
import random
from collections import Counter

import pytest

from lexmatch import (
    GenSpec,
    Instance,
    Matching,
    NotAdmissibleError,
    boundary_from_matching,
    cap_fast_gen,
    fast,
    fast_gen,
    generate,
    is_stable,
    oracle_leximin,
)
from lexmatch import fastgen
from lexmatch._state import RankedState, initial_boundary
from lexmatch.fastgen import FixSets
from lexmatch.model import ScaledLeximin, _capacity_binds, scaled_leximin
from lexmatch.reference import ranked_dp

from conftest import random_instances, random_sizes


def _first_loss_agent(came: list, gone: list, new: list, old: list):
    """The blame as fastgen once read it off the agents' values by position
    (students by index, then colleges): `came` and `gone` are the values
    added and removed since old, sorted.  The occupant of the first index
    where new < old is occurrence old.count(x) of its value x in new; when
    that occupant did not lose, the first holder of x that did.  None when
    new does not lose."""
    for x, y in zip(came, gone):
        if x != y:
            break
    else:
        return None  # the tuples are equal
    if x > y:
        return None  # the tuple gains at the first divergence
    holders, at = [], -1  # positions holding x in new, in order
    for _ in range(new.count(x)):
        at = new.index(x, at + 1)
        holders.append(at)
    at = holders[old.count(x)]
    if old[at] > x:
        return at
    return next((a for a in holders if old[a] > x), at)


def _by_position(state, changes):
    """(new, old): the agents' values by position once the agents in
    `changes` take their new values, and in `state`."""
    old = state.values()
    new = old[:]
    for at, (_, value) in changes.items():
        new[at] = value
    return new, old


def _reference_blame(state, changes):
    """fastgen._blame by the values-list definition above."""
    new, old = _by_position(state, changes)
    gone, came = (sorted(side) for side in zip(*changes.values()))
    return _first_loss_agent(came, gone, new, old)


def _blame(instance, mu_new, mu_old):
    """The agent fastgen._blame blames for going from the block matching
    mu_old to mu_new, given the agents whose values differ between them."""
    new, old = scaled_leximin(instance, mu_new), scaled_leximin(instance, mu_old)
    changes = {
        at: (a, b)
        for at, (a, b) in enumerate(zip(old._by_position, new._by_position))
        if a != b
    }
    state = RankedState(instance, boundary_from_matching(instance, mu_old).k)
    at = fastgen._blame(state, changes)
    if at is None:
        return None
    return ("s", at) if at < instance.n else ("c", at - instance.n)


class TestFirstLossAgent:
    def test_single_student_drop(self):
        inst = Instance.build(
            [[10, 1], [9, 8]], [[3, 2], [7, 6]], capacities=[2, 2]
        )
        old = Matching([0, 1])  # tuple (3, 6, 8, 10)
        new = Matching([1, 0])  # tuple (1, 2, 7, 9); s_0 now holds the minimum
        assert _blame(inst, new, old) == ("s", 0)

    def test_college_drop(self):
        inst = Instance.from_matrix([[10, 9], [8, 7], [6, 5]])
        old = Matching([0, 1, 1])  # tuple (5, 7, 10, 10, 12)
        new = Matching([0, 0, 1])  # tuple (5, 5, 8, 10, 18); c_1 lost 12 -> 5
        # first divergence lands in a (5, 5) tie shared with s_2, whose own
        # value did not move; the blame must go to the agent that lost
        assert _blame(inst, new, old) == ("c", 1)

    def test_no_one_is_blamed_without_a_loss(self, ref_instance):
        # the tuple rises from (3, 4, 7, 99, 100, 199) to (3, 4, 9, 16, 100, 100)
        assert _blame(ref_instance, Matching([0, 1, 1, 1]), Matching([0, 0, 1, 1])) is None
        # student 1 moves to college 1 and the values {5, 3, 2} become {3, 2, 5}
        inst = Instance.build([[10, 9], [5, 3], [7, 6]], [[2, 1, 0], [4, 3, 2]])
        assert _blame(inst, Matching([0, 1, 1]), Matching([0, 0, 1])) is None


class TestFastGen:
    def test_reference_instance(self, ref_instance):
        report = fast_gen(ref_instance)
        assert report.leximin.values == (3, 4, 9, 16, 100, 100)

    def test_square_identity(self):
        inst = generate(GenSpec(kind="ranked", n=5, m=5, seed=3))
        assert fast_gen(inst).matching.assignment == (0, 1, 2, 3, 4)

    def test_asymmetric_values_vs_oracle(self):
        inst = Instance.build(
            [["10", "1"], ["9", "1/2"], ["8", "1/3"], ["7", "1/4"]],
            [[40, 30, 20, 10], [8, 6, 4, 2]],
        )
        got = fast_gen(inst).leximin.values
        want = oracle_leximin(inst, require_complete=True).leximin.values
        assert got == want

    def test_matches_fast_on_isometric(self):
        for inst in random_instances(
            "ranked_isometric", seed=41, count=50, n_max=9, m_max=4
        ):
            assert fast_gen(inst).leximin.values == fast(inst).leximin.values

    def test_oracle_equality_random(self):
        for inst in random_instances("ranked", seed=43, count=100, n_max=9, m_max=4):
            got = fast_gen(inst).leximin.values
            want = oracle_leximin(inst, require_complete=True).leximin.values
            assert got == want, inst

    def test_rejects_non_ranked(self):
        inst = Instance.build([[1, 2], [4, 3]], [[2, 1], [2, 1]])
        with pytest.raises(NotAdmissibleError):
            fast_gen(inst)

    def test_committed_states_contiguous_and_stable(self):
        for inst in random_instances("ranked", seed=47, count=15, n_max=8, m_max=4):
            seen = []
            fast_gen(inst, on_state=seen.append)
            for k in seen:
                assert sum(k) == inst.n and all(p >= 1 for p in k)
                mu = Matching([j for j, size in enumerate(k) for _ in range(size)])
                assert is_stable(inst, mu) is None
                assert boundary_from_matching(inst, mu) is not None


def _tie_heavy_ranked(seed, count, n_max, m_max):
    """Ranked instances with values in [1, n+1] or [1, n+3], under
    capacities none, random and uniform (ceil(n/m), sometimes one more)."""
    for n, m, s in random_sizes(seed, count, n_max, m_max, n_min=3):
        for value_max in (n + 1, n + 3):
            for mode in ("none", "random", "uniform"):
                cap = min(n, -(-n // m) + s % 2) if mode == "uniform" else None
                yield generate(
                    GenSpec(
                        "ranked", n, m, seed=s, capacity_mode=mode,
                        capacity=cap, value_max=value_max,
                    )
                )


def _tail_capped(seed, count):
    """Ranked instances on which the deleted capacity start fires often:
    2..m-1 tail colleges of capacity 1, student values in [1, m+2] and
    college values in a window of n+3 that starts in [1, m+2], so a tail
    student's value is often at or below every college's."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(3, 6)
        n = rng.randint(m + 1, 14)
        tail = rng.randint(2, m - 1)
        sv = [sorted(rng.sample(range(1, m + 3), m), reverse=True) for _ in range(n)]
        lo = rng.randint(1, m + 2)
        cv = [sorted(rng.sample(range(lo, lo + n + 3), n), reverse=True) for _ in range(m)]
        caps = [rng.randint(1, n - 1) for _ in range(m - tail)] + [1] * tail
        caps[0] = max(caps[0], n - sum(caps[1:]))
        yield Instance.build(sv, cv, caps)


def _cap_preprocess(instance):
    """The start cap_fast_gen once had: the left-heavy fill, with the lower
    boundaries of a single-student tail fixed up front from the first
    college j whose student i in 1..n-2 sits at or below every college's
    value."""
    n, m = instance.n, instance.m
    state = RankedState(instance, initial_boundary(instance))
    fixes = FixSets(upper_fix={0}, lower_fix={m - 1})
    u, k = instance._kernel[1], state.k
    floor = min(state._total[j] for j in range(m))
    tail = m  # colleges tail..m-1 hold one student each
    while tail and k[tail - 1] == 1:
        tail -= 1
    # college j of the tail holds student n - m + j alone; i = n - 1 is out
    for j in range(tail, m - 1):
        i = n - m + j
        if i >= 1 and u[j][i] <= floor:
            fixes.lower_fix.update(range(j, m))
            break
    return state, fixes


def _counters():
    """fast_gen's counters, all zero."""
    return dict.fromkeys(("iterations", "chain_moves", "tuple_comparisons", "reruns"), 0)


def _fast_gen_from_the_old_start(instance):
    """(matching, leximin tuple) of fast_gen's run loop, restarts included,
    seeded by _cap_preprocess; also whether that start fixed anything beyond
    fast_gen's own."""
    state, fixes = _cap_preprocess(instance)
    fired = fixes.lower_fix != {instance.m - 1}
    counters = _counters()
    while True:
        state, restart = fastgen._inner_run(state, fixes, True, counters, None)
        if restart == instance.m:
            return (state.matching(), state.leximin().view()), fired
        fixes = FixSets(upper_fix=set(range(restart)) or {0}, lower_fix={instance.m - 1})


class TestWithoutTheCapacityStart:
    def test_same_matching_and_tuple_as_the_old_start(self):
        pool = [
            inst for inst in _tie_heavy_ranked(seed=61, count=200, n_max=12, m_max=6)
            if _capacity_binds(inst)
        ]
        pool += _tail_capped(seed=3, count=600)
        fired = 0
        for inst in pool:
            want, start_fired = _fast_gen_from_the_old_start(inst)
            got = fast_gen(inst)
            assert got.algorithm == "cap_fast_gen"
            assert (got.matching, got.leximin) == want, inst
            fired += start_fired
        assert len(pool) >= 1000 and fired >= 200

    def test_the_restart_mends_a_full_giver(self):
        # the first run ends at (39, 4, 6); college 0 gave a student while
        # full, and the rerun with its fixes cleared reaches the optimum
        inst = generate(
            GenSpec("ranked", 49, 3, seed=1, capacity_mode="random", value_max=52)
        )
        state = RankedState(inst, initial_boundary(inst))
        first, restart = fastgen._inner_run(
            state, FixSets(upper_fix={0}, lower_fix={2}), True, _counters(), None
        )
        assert (first.k, restart) == ([39, 4, 6], 0)
        report = fast_gen(inst)
        assert boundary_from_matching(inst, report.matching).k == (38, 5, 6)
        assert report.counters["reruns"] == 1
        assert ranked_dp(inst).matching == report.matching


class TestProgress:
    """The progress measure of the fastgen module docstring, checked on
    tie-heavy instances, where equal values reshuffle the sorted tuple."""

    def test_no_configuration_recurs(self, monkeypatch):
        seen, alive, commits = set(), [], [0]
        purge = FixSets.purge

        def recording_purge(self, up):
            # purge runs once per main-loop iteration, before any rule fires
            key = (
                id(self),
                commits[0],
                frozenset(self.lower_fix),
                frozenset(self.upper_fix),
                frozenset(self.soft_fix),
            )
            assert key not in seen
            seen.add(key)
            alive.append(self)  # keeps id(self) from being reused
            purge(self, up)

        def mark(k):
            commits[0] += 1

        monkeypatch.setattr(FixSets, "purge", recording_purge)
        for inst in _tie_heavy_ranked(seed=67, count=40, n_max=14, m_max=6):
            fast_gen(inst, on_state=mark)
        assert len(seen) > 1000

    def test_blame_falls_on_a_student_only_if_it_moved(self, monkeypatch):
        blamed = []
        blame = fastgen._blame

        def checked(state, changes):
            at = blame(state, changes)
            assert at == _reference_blame(state, changes)
            new, old = _by_position(state, changes)
            if at is not None and at < inst.n:  # positions below n are students
                assert new[at] < old[at]
                blamed.append(at)
            return at

        monkeypatch.setattr(fastgen, "_blame", checked)
        for inst in _tie_heavy_ranked(seed=71, count=40, n_max=14, m_max=6):
            fast_gen(inst)
        assert len(blamed) > 20


def _old_delta(state, p, q):
    """(removed, added) of the trial p -> q as the O(q - p) walk over
    colleges p..q that the table replaced."""
    u, v, start, total = state._u, state._v, state._start, state._total
    removed, added = [], []
    gained = 0  # college t's value of the student it gains from t - 1
    for t in range(p, q + 1):
        removed.append(total[t])
        if t == q:
            added.append(total[t] + gained)
            break
        # college t passes its bottom student b on to t + 1
        b = start[t + 1] - 1
        added.append(total[t] + gained - v[t][b])
        removed.append(u[t][b])
        added.append(u[t + 1][b])
        gained = v[t + 1][b]
    return removed, added


def _old_pick(state, trials):
    """The trial choice as pairwise delta comparisons: trial 1 replaces the
    best so far iff sorted(A1 + R_best) > sorted(A_best + R1); it commits iff
    sorted(A_best) >= sorted(R_best)."""
    best = None
    for p, q in trials:
        removed, added = _old_delta(state, p, q)
        if best is None or sorted(added + best_removed) > sorted(best_added + removed):
            best, best_removed, best_added = (p, q), removed, added
    return (*best, sorted(best_added) >= sorted(best_removed))


def _old_first_loss_agent(new: ScaledLeximin, old: ScaledLeximin):
    """The blame as a scan of the two full sorted tuples and a dict of the
    old values, returning the blamed agent's position, or None when new does
    not lose."""
    new_values, old_values = new.values, old.values
    for t, (x, y) in enumerate(zip(new_values, old_values)):
        if x == y:
            continue
        if x > y:
            return None  # the tuple gains at the first divergence
        agent = new.agents[t]
        old_of = dict(zip(old.agents, old_values))
        if old_of[agent] > x:
            return agent
        for a, v in zip(new.agents, new_values):
            if v == x and old_of[a] > v:
                return a
        return agent
    return None  # the tuples are equal


def _high_m_ties():
    """Ranked instances with up to 8 colleges and values in [1, n], [1, n+1]
    or [1, n+3] (every college row then holds n distinct values, so [1, n]
    gives every college the same row), under capacities none and random."""
    for n, m, s in random_sizes(73, 60, 16, 8, n_min=3):
        for value_max in (n, n + 1, n + 3):
            for mode in ("none", "random"):
                yield generate(
                    GenSpec("ranked", n, m, seed=s, capacity_mode=mode, value_max=value_max)
                )


class TestAgainstTheOldDefinitions:
    """The table, the keys and the blame give what the definitions they
    replaced give, on tie-heavy instances with up to 8 colleges."""

    def test_table_slices_are_the_old_walk(self, monkeypatch):
        tables = []
        table = RankedState.table

        def checked(state):
            got = table(state)
            for p, q in itertools.combinations(range(len(state.k)), 2):
                changes = {}
                state.record(changes, got, p, q)
                removed, added = zip(*changes.values())
                old_removed, old_added = _old_delta(state, p, q)
                assert sorted(removed) == sorted(old_removed)
                assert sorted(added) == sorted(old_added)
            tables.append(len(state.k))
            return got

        monkeypatch.setattr(RankedState, "table", checked)
        for inst in _high_m_ties():
            fast_gen(inst)
        assert len(tables) > 1000 and max(tables) == 8

    def test_keys_pick_the_pairwise_trial(self, monkeypatch):
        picks, tied = [], [0]
        best_trial = fastgen._best_trial

        def checked(state, table, receivers, lower_fix, counters):
            got = best_trial(state, table, receivers, lower_fix, counters)
            trials = [
                (p, q)
                for q in receivers
                for p in range(q)
                if p not in lower_fix and state.k[p] > 1
            ]
            assert got == _old_pick(state, trials)
            # another trial as good as the pick: only the first may win
            r, a = _old_delta(state, *got[:2])
            tied[0] += any(
                (p, q) != got[:2]
                and sorted(a + _old_delta(state, p, q)[0])
                == sorted(_old_delta(state, p, q)[1] + r)
                for p, q in trials
            )
            picks.append(got)
            return got

        monkeypatch.setattr(fastgen, "_best_trial", checked)
        for inst in _high_m_ties():
            fast_gen(inst)
        assert len(picks) > 1000 and tied[0] > 5
        assert {True, False} == {improves for _, _, improves in picks}

    def test_blame_is_the_old_sort_and_dict(self, monkeypatch):
        blames, runs, inside = [], [0], [0]
        blame = fastgen._blame
        look_ahead = fastgen._look_ahead

        def checked(state, changes):
            got = blame(state, changes)
            new, old = _by_position(state, changes)
            want = _old_first_loss_agent(
                ScaledLeximin(1, len(new), new), ScaledLeximin(1, len(old), old)
            )
            assert got == want == _reference_blame(state, changes)
            blames.append(inside[0])
            return got

        def counted(*args):
            runs[0] += 1
            inside[0] = runs[0]  # the blames of this run carry its number
            try:
                return look_ahead(*args)
            finally:
                inside[0] = 0

        monkeypatch.setattr(fastgen, "_blame", checked)
        monkeypatch.setattr(fastgen, "_look_ahead", counted)
        for inst in _high_m_ties():
            fast_gen(inst)
        # a look-ahead run blames after each step; from the second
        # step on, its changes hold the agents of several moves
        multi_step = sum(
            count - 1 for run, count in Counter(blames).items() if run and count > 1
        )
        assert len(blames) > 500 and multi_step > 20


def _all_pairs_best_trial(state, table, receivers, lower_fix, counters):
    """fastgen._best_trial as one sorted key per (giver, receiver) pair, the
    first largest over q, then p, before the search became separable."""
    R, A, head, tail = table
    k = state.k
    givers = [p for p in range(len(k)) if p not in lower_fix and k[p] > 1]
    best_key = None
    moves = trials = 0
    for q in receivers:
        suffix = R[2 * q + 1:]  # what every trial into q keeps right of q
        suffix.append(tail[q])
        for p in givers:
            if p >= q:
                break
            moves += q - p
            trials += 1
            key = R[:2 * p] + A[2 * p + 1:2 * q] + suffix
            key.append(head[p])
            key.sort()
            if best_key is None or key > best_key:
                best_key, giver, receiver = key, p, q
    counters["chain_moves"] += moves
    counters["tuple_comparisons"] += trials
    return giver, receiver, best_key >= sorted(R)


def _trial_key(state, table, p, q):
    """sorted(R - removed + added) of the trial p -> q."""
    R = table[0]
    changes = {}
    state.record(changes, table, p, q)
    return sorted(R[:2 * p] + R[2 * q + 1:] + [new for _, new in changes.values()])


class TestSeparableSearch:
    """_best_trial's separable rule against the all-pairs search it
    replaced."""

    def test_the_search_is_the_all_pairs_search(self):
        # random block states, fix sets and receiver sets with up to 16
        # colleges, default and tie-heavy (n + 3) values
        rng = random.Random(83)
        searches, later_giver, outcomes = 0, 0, set()
        while searches < 3000:
            m = rng.randint(2, 16)
            n = rng.randint(m + 1, 5 * m)
            value_max = rng.choice((None, n + 3))
            spec = GenSpec("ranked", n, m, seed=rng.randrange(10**6), value_max=value_max)
            inst = generate(spec)
            cuts = sorted(rng.sample(range(1, n), m - 1))
            state = RankedState(inst, [b - a for a, b in zip([0, *cuts], [*cuts, n])])
            lower_fix = set(rng.sample(range(m), rng.randint(0, m - 1)))
            receivers = sorted(rng.sample(range(1, m), rng.randint(1, m - 1)))
            givers = [p for p in range(m) if p not in lower_fix and state.k[p] > 1]
            if not givers or givers[0] >= receivers[-1]:
                continue  # no trial: the main loop always has up -> down
            table = state.table()
            got_counts, want_counts = _counters(), _counters()
            got = fastgen._best_trial(state, table, receivers, lower_fix, got_counts)
            want = _all_pairs_best_trial(state, table, receivers, lower_fix, want_counts)
            assert got == want
            assert got_counts == want_counts
            searches += 1
            later_giver += got[0] != givers[0]  # the running maximum moved
            outcomes.add(got[2])
        assert later_giver > 500 and outcomes == {True, False}

    def test_a_giver_tie_keeps_the_smaller_giver(self):
        # blocks (2, 2, 1): 0 -> 2 and 1 -> 2 give the same key, since
        # head[0] == head[1] == 10, u[1][1] == total[0] == 15 and
        # u[0][1] == mid[1] == 25
        sv = [[30, 20, 1], [25, 15, 1], [30, 20, 1], [30, 20, 1], [30, 20, 1]]
        cv = [[10, 5, 4, 3, 2], [20, 15, 10, 2, 1], [5, 4, 3, 2, 1]]
        state = RankedState(Instance.build(sv, cv), [2, 2, 1])
        table = state.table()
        assert _trial_key(state, table, 0, 2) == _trial_key(state, table, 1, 2)
        got = fastgen._best_trial(state, table, [2], set(), _counters())
        want = _all_pairs_best_trial(state, table, [2], set(), _counters())
        assert got[:2] == want[:2] == (0, 2)


class TestOneTablePerIteration:
    def test_the_trials_and_the_blame_share_one_table(self, monkeypatch):
        # outside _look_ahead, each iteration that tries trials builds one
        # table, and the trial loop reads the state's current one
        built, calls, inside = [0], [0], [False]
        table = RankedState.table
        best_trial = fastgen._best_trial
        look_ahead = fastgen._look_ahead

        def counted_table(state):
            built[0] += not inside[0]
            return table(state)

        def checked(state, got_table, *rest):
            assert built[0] == 1
            assert got_table == table(state)
            built[0] = 0
            calls[0] += 1
            return best_trial(state, got_table, *rest)

        def flagged(*args):
            inside[0] = True
            try:
                return look_ahead(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(RankedState, "table", counted_table)
        monkeypatch.setattr(fastgen, "_best_trial", checked)
        monkeypatch.setattr(fastgen, "_look_ahead", flagged)
        sweeps = itertools.chain(
            _tie_heavy_ranked(seed=67, count=40, n_max=14, m_max=6), _high_m_ties()
        )
        for inst in sweeps:
            fast_gen(inst)
            assert built[0] == 0  # no table after the last trial loop
        assert calls[0] > 1000


class TestCapFastGen:
    def test_nonbinding_capacities_match_fast_gen(self):
        assert cap_fast_gen is fast_gen
        for n, m, s in random_sizes(51, count=50, n_max=9, m_max=4, n_min=2):
            inst = generate(GenSpec(kind="ranked", n=n, m=m, seed=s))
            loose = Instance(inst.student_values, inst.college_values, (n,) * m)
            assert fast_gen(loose) == fast_gen(inst)
            assert fast_gen(loose).algorithm == "fast_gen"

    def test_small_binding_case(self):
        inst = generate(GenSpec(kind="ranked", n=5, m=2, seed=8))
        capped = Instance(inst.student_values, inst.college_values, (2, 4))
        got = cap_fast_gen(capped).leximin.values
        want = oracle_leximin(
            capped, require_complete=True, respect_capacities=True
        ).leximin.values
        assert got == want

    def test_square_unit_capacities(self):
        inst = generate(GenSpec(kind="ranked", n=4, m=4, seed=9))
        capped = Instance(inst.student_values, inst.college_values, (1, 1, 1, 1))
        report = cap_fast_gen(capped)
        assert report.matching.assignment == (0, 1, 2, 3)

    def test_full_giver_family_vs_oracle(self):
        # capacity patterns where the leftmost college starts full and the
        # best giving college is not the leftmost one
        for s in range(25):
            inst = generate(GenSpec(kind="ranked", n=6, m=3, seed=1000 + s))
            capped = Instance(inst.student_values, inst.college_values, (2, 4, 5))
            got = cap_fast_gen(capped).leximin.values
            want = oracle_leximin(
                capped, require_complete=True, respect_capacities=True
            ).leximin.values
            assert got == want, s

    def test_binding_capacities_match_oracle(self):
        for n, m, s in random_sizes(57, count=80, n_max=8, m_max=3, n_min=2):
            rng = random.Random(s)
            inst = generate(GenSpec(kind="ranked", n=n, m=m, seed=s))
            while True:
                caps = tuple(rng.randint(1, n) for _ in range(m))
                if sum(caps) >= n:
                    break
            capped = Instance(inst.student_values, inst.college_values, caps)
            got = cap_fast_gen(capped).leximin.values
            want = oracle_leximin(
                capped, require_complete=True, respect_capacities=True
            ).leximin.values
            assert got == want, (caps, n, m, s)

    def test_committed_states_capacity_feasible(self):
        for s in range(10):
            inst = generate(GenSpec(kind="ranked", n=7, m=3, seed=s))
            capped = Instance(inst.student_values, inst.college_values, (3, 3, 3))
            seen = []
            cap_fast_gen(capped, on_state=seen.append)
            for k in seen:
                assert sum(k) == 7 and all(p >= 1 for p in k)
                assert all(size <= cap for size, cap in zip(k, capped.capacities))
