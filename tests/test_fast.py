import random
from collections import Counter

import pytest

from lexmatch import (
    GenSpec,
    Instance,
    Matching,
    NotAdmissibleError,
    boundary_from_matching,
    cap_fast,
    classify,
    fast,
    fast_admissible,
    generate,
    is_stable,
    oracle_leximin,
    solve_dispatch,
)
from lexmatch._state import RankedState
from lexmatch.report import SolverReport

from conftest import random_instances, random_sizes
from test_equivalence import SWEEP

# Ranked but not isometric: u <= v pointwise with non-increasing u columns,
# the "dominated" class fast once accepted.  From the first state (2, 1, 1)
# the tie step 0 -> 2 leaves the tuple equal, so the old multi-step tie
# loop below takes a second speculative step on it.
DOMINATED = Instance.build(
    [[4, 3, 2], [3, 2, 1], [3, 2, 1], [3, 2, 1]],
    [[6, 5, 4, 3], [12, 11, 6, 3], [4, 3, 2, 1]],
)


class TestAdmissibility:
    def test_isometric_ranked_admissible(self, ref_instance):
        assert fast_admissible(ref_instance)

    def test_dominated_ranked_refused(self):
        # ranked and college-dominant but not isometric: fast_gen's class
        flags = classify(DOMINATED)
        assert flags.ranked and not flags.isometric
        assert not fast_admissible(DOMINATED)
        with pytest.raises(NotAdmissibleError, match="ranked isometric"):
            fast(DOMINATED)
        assert solve_dispatch(DOMINATED).algorithm == "fast_gen"
        # the input that made fast's tie speculation take a second step
        stats = Counter()
        _multi_step_fast(DOMINATED, stats=stats)
        assert stats["equal_steps"] == 1

    def test_non_ranked_rejected(self):
        inst = Instance.build([[1, 2], [4, 3]], [[2, 1], [2, 1]])
        assert not fast_admissible(inst)
        with pytest.raises(NotAdmissibleError):
            fast(inst)

    def test_general_ranked_not_admissible(self):
        # v dominated by u (the wrong way around)
        inst = Instance.build([[10, 5], [9, 4]], [[2, 1], [2, 1]])
        assert not fast_admissible(inst)


class TestFast:
    def test_reference_instance(self, ref_instance):
        report = fast(ref_instance)
        assert report.matching.assignment == (0, 1, 1, 1)
        assert report.leximin.values == (3, 4, 9, 16, 100, 100)

    def test_square_identity(self):
        inst = generate(GenSpec(kind="ranked_isometric", n=4, m=4, seed=2))
        assert fast(inst).matching.assignment == (0, 1, 2, 3)

    def test_three_by_two(self):
        inst = Instance.from_matrix([[10, 5], [9, 4], [8, 3]])
        report = fast(inst)
        oracle = oracle_leximin(inst, require_complete=True)
        assert report.leximin.values == oracle.leximin.values

    def test_oracle_equality_random(self):
        for inst in random_instances(
            "ranked_isometric", seed=21, count=100, n_max=9, m_max=4
        ):
            got = fast(inst).leximin.values
            want = oracle_leximin(inst, require_complete=True).leximin.values
            assert got == want, inst

    def test_intermediate_states_contiguous_complete_stable(self, ref_instance):
        seen = []
        fast(ref_instance, on_state=seen.append)
        assert seen[0] == (3, 1, 1, 1)[: ref_instance.m]
        for k in seen:
            assert sum(k) == ref_instance.n and all(p >= 1 for p in k)
            mu = Matching([j for j, size in enumerate(k) for _ in range(size)])
            assert boundary_from_matching(ref_instance, mu) is not None
            assert is_stable(ref_instance, mu) is None

    def test_step_counter_linear_bound(self):
        rng = random.Random(1)
        for _ in range(10):
            m = rng.randint(2, 5)
            n = rng.randint(m, 60)
            inst = generate(
                GenSpec(kind="ranked_isometric", n=n, m=m, seed=rng.randrange(10**6))
            )
            report = fast(inst)
            assert report.steps <= 40 * n * m


class TestCapFast:
    def test_forced_by_capacities(self, ref_instance):
        capped = Instance(
            ref_instance.student_values, ref_instance.college_values, (1, 3)
        )
        report = fast(capped)
        assert report.algorithm == "cap_fast"
        assert report.matching.assignment == (0, 1, 1, 1)
        assert report.leximin.values == (3, 4, 9, 16, 100, 100)

    def test_nonbinding_capacities_match_fast(self):
        assert cap_fast is fast
        for n, m, s in random_sizes(31, count=50, n_max=9, m_max=4, n_min=2):
            inst = generate(GenSpec(kind="ranked_isometric", n=n, m=m, seed=s))
            caps = (n,) * m
            loose = Instance(inst.student_values, inst.college_values, caps)
            assert fast(loose) == fast(inst)
            assert fast(loose).algorithm == "fast"

    def test_binding_capacities_match_oracle(self):
        for n, m, s in random_sizes(37, count=60, n_max=8, m_max=3, n_min=2):
            rng = random.Random(s)
            inst = generate(GenSpec(kind="ranked_isometric", n=n, m=m, seed=s))
            while True:
                caps = tuple(rng.randint(1, n) for _ in range(m))
                if sum(caps) >= n:
                    break
            capped = Instance(inst.student_values, inst.college_values, caps)
            got = cap_fast(capped).leximin.values
            want = oracle_leximin(
                capped, require_complete=True, respect_capacities=True
            ).leximin.values
            assert got == want, (capped.capacities, n, m, s)

    def test_uniform_two_capacity(self):
        inst = generate(GenSpec(kind="ranked_isometric", n=5, m=3, seed=9))
        capped = Instance(inst.student_values, inst.college_values, (2, 2, 2))
        got = cap_fast(capped).leximin.values
        want = oracle_leximin(
            capped, require_complete=True, respect_capacities=True
        ).leximin.values
        assert got == want


def _multi_step_fast(instance, on_state=None, stats=None):
    """fast as it was while its tie rule speculated: on a tie, demote into
    j again and again in a copy of the state, commit the run once its sorted
    added values beat its sorted removed values, and go on while the two are
    equal.  fast ran the walk under the name cap_fast when a capacity was
    below n-1, and otherwise with capacities n (the same for m >= 2).
    `stats` counts the ties, those whose chain crosses a single-student
    college (multi-link), and the speculative steps that left the tuple
    equal."""
    n, m = instance.n, instance.m
    caps, label = list(instance.capacities), "cap_fast"
    if all(b >= n - 1 for b in caps):
        caps, label = [n] * m, "fast"
    k, assigned = [], 0  # the left-heavy fill
    for j in range(m):
        k.append(min(caps[j], n - assigned - (m - 1 - j)))
        assigned += k[-1]
    state = RankedState(instance, k)
    k = state.k
    u = instance._kernel[1]
    iterations = chain_moves = tuple_comparisons = 0
    stats = Counter() if stats is None else stats

    def emit():
        if on_state is not None:
            on_state(tuple(k))

    emit()
    j = m - 1
    while j >= 1:
        iterations += 1
        ib = sum(k[:j]) - 1
        if ib < j:
            j -= 1
            continue
        vj = state._total[j]
        if vj >= u[j - 1][ib] or k[j] >= caps[j]:
            j -= 1
            continue
        if u[j][ib] > vj:
            up = max(p for p in range(j) if k[p] > 1)
            state.demote(up, j)
            chain_moves += j - up
            emit()
            continue
        if u[j][ib] < vj:
            j -= 1
            continue
        stats["ties"] += 1
        stats["multi_link"] += k[j - 1] == 1
        trial = state.copy()
        changes = {}  # every agent the trial changed: base and current value
        committed = False
        while sum(trial.k[:j]) - 1 >= j and trial.k[j] < caps[j]:
            t_up = max(p for p in range(j) if trial.k[p] > 1)
            trial.record(changes, trial.table(), t_up, j)
            gone, came = map(sorted, zip(*changes.values()))
            trial.demote(t_up, j)
            chain_moves += j - t_up
            tuple_comparisons += 1
            if came > gone:
                state, k, committed = trial, trial.k, True
                emit()
                break
            if came != gone:
                break
            stats["equal_steps"] += 1
        if not committed:
            j -= 1
    return SolverReport(
        algorithm=label,
        matching=state.matching(),
        leximin=state.leximin(),
        steps=iterations + chain_moves + tuple_comparisons * (n + m),
        counters={
            "iterations": iterations,
            "chain_moves": chain_moves,
            "tuple_comparisons": tuple_comparisons,
        },
    )


def _tie_rich_pool(seed, count):
    """Isometric from_matrix instances, m >= 2, whose matrix grows from the
    bottom-right corner by steps of 1 to 3, so sums of a college's values
    often equal one student's value: many walks meet exact ties.  A third
    get random feasible capacities."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(2, 6)
        n = rng.randint(m, 14)
        step = rng.randint(1, 3)
        V = [[0] * m for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            for j in range(m - 1, -1, -1):
                right = V[i][j + 1] if j + 1 < m else 0
                V[i][j] = max(V[i + 1][j], right) + rng.randint(1, step)
        caps = None
        if rng.random() < 1 / 3:
            caps = [0] * m
            while sum(caps) < n:
                caps = [rng.randint(1, n) for _ in range(m)]
        yield Instance.from_matrix(V[:n], caps)


class TestOneTrialTieRule:
    """fast's tie rule is one recorded trial; on isometric instances it must
    agree with the multi-step loop it replaced, report, counters and
    on_state trace alike (see the proof in fast's docstring)."""

    @staticmethod
    def _agree(instance, stats):
        want_trace, got_trace = [], []
        want = _multi_step_fast(instance, want_trace.append, stats)
        got = fast(instance, on_state=got_trace.append)
        assert got == want and got_trace == want_trace, instance

    def test_isometric_sweep_inputs(self):
        isometric = [
            inst for inst in SWEEP.values()
            if classify(inst).ranked and classify(inst).isometric
        ]
        assert len(isometric) == 60
        stats = Counter()
        for inst in isometric:
            self._agree(inst, stats)
        # the sweep's tie_rich inputs meet exact ties
        assert stats["ties"] > 0 and stats["equal_steps"] == 0

    def test_tie_rich_pools(self):
        stats = Counter()
        for inst in _tie_rich_pool(seed=19, count=3000):
            self._agree(inst, stats)
        assert stats["ties"] >= 1000 and stats["multi_link"] >= 500
        assert stats["equal_steps"] == 0
