import itertools
import random
from fractions import Fraction

import pytest

from lexmatch import (
    GenSpec,
    Instance,
    Matching,
    NotAdmissibleError,
    dump_instance,
    fast_const,
    generate,
    is_stable,
    leximin_compare,
    leximin_tuple,
    load_instance,
    oracle_leximin,
)
from lexmatch.const2 import favorites, is_stable_m2
from lexmatch.model import GREATER, scaled_leximin


def _strict_m2_instances(seed, count, n_max, n_min=2):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        yield generate(GenSpec(kind="strict", n=n, m=2, seed=rng.randrange(10**6)))


def _complete_assignments(n):
    return itertools.product((0, 1), repeat=n)


def _scaled_by_35(instance):
    # x -> (7x + x mod 5)/35 is strictly increasing on ints, so it keeps
    # every preference while making denominators of 5, 7 and 35
    def f(x):
        return Fraction(7 * x + x % 5, 35)

    return Instance.build(
        [[f(x) for x in row] for row in instance.student_values],
        [[f(x) for x in row] for row in instance.college_values],
        instance.capacities,
    )


def _oracle_sweep_instances():
    for n in range(2, 9):
        for value_max in (None, 2 * n + 3):
            for seed in range(100, 120):
                inst = generate(GenSpec("strict", n, 2, seed=seed, value_max=value_max))
                yield inst
                yield _scaled_by_35(inst)


ORACLE_SWEEP = list(_oracle_sweep_instances())


def _crossed(n, seed):
    """Half the students prefer each college, each college values the other
    college's fans above its own, and every student value exceeds any
    college total.  Every (d0, d1) is then stable, so the stable set is the
    whole grid."""
    rng = random.Random(seed)
    fan = [0] * (n // 2) + [1] * (n - n // 2)
    cv = [[0] * n for _ in range(2)]
    for j in (0, 1):
        own = [i for i in range(n) if fan[i] == j]
        others = [i for i in range(n) if fan[i] != j]
        ranks = rng.sample(range(1, len(own) + 1), len(own)) + rng.sample(
            range(len(own) + 1, n + 1), len(others)
        )
        for i, v in zip(own + others, ranks):
            cv[j][i] = v
    base = n * (n + 1) // 2 + 1  # above any college total
    sv = []
    for i in range(n):
        hi, lo = sorted(rng.sample(range(base, base + n * n), 2), reverse=True)
        sv.append([hi, lo] if fan[i] == 0 else [lo, hi])
    return Instance.build(sv, cv)


def _grid_best(instance):
    """Exact strict m=2 optimum without brute force: try the
    (|A0|+1)(|A1|+1) matchings in which each college j hands the d_j fans
    it values least to the other, keep the complete ones that the general
    is_stable accepts, and return the best leximin values."""
    alpha = favorites(instance)
    cv = instance.college_values
    fans = [
        sorted((i for i, a in enumerate(alpha) if a == j), key=cv[j].__getitem__)
        for j in (0, 1)
    ]
    best = None
    for d0 in range(len(fans[0]) + 1):
        for d1 in range(len(fans[1]) + 1):
            assignment = list(alpha)
            for i in fans[0][:d0]:
                assignment[i] = 1
            for i in fans[1][:d1]:
                assignment[i] = 0
            mu = Matching(assignment)
            if mu.is_complete(instance) and is_stable(instance, mu) is None:
                t = scaled_leximin(instance, mu)
                if best is None or t.values > best.values:
                    best = t
    return best.view().values


class TestFavorites:
    def test_reference_instance(self, ref_instance):
        assert favorites(ref_instance) == [0, 0, 0, 0]

    def test_mixed(self):
        inst = Instance.build([[10, 1], [2, 9]], [[5, 4], [3, 6]])
        assert favorites(inst) == [0, 1]


class TestIsStableM2:
    def test_reference_instance(self, ref_instance):
        assert is_stable_m2(ref_instance, Matching([0, 1, 1, 1]))
        assert not is_stable_m2(ref_instance, Matching([0, 1, 0, 1]))

    def test_requires_complete(self, ref_instance):
        from lexmatch import InvalidInputError

        with pytest.raises(InvalidInputError):
            is_stable_m2(ref_instance, Matching([0, None, 1, 1]))

    def test_agrees_with_general_test(self):
        # the closed form must coincide with the blocking-pair scan on every
        # complete assignment
        for inst in _strict_m2_instances(seed=61, count=15, n_max=6):
            for assignment in _complete_assignments(inst.n):
                mu = Matching(assignment)
                assert is_stable_m2(inst, mu) == (is_stable(inst, mu) is None), (
                    inst,
                    assignment,
                )

    def test_reads_only_the_kernel(self):
        # an instance loaded from JSON ints holds only its kernel; the test
        # must not build the Fraction matrices
        inst = load_instance(dump_instance(generate(GenSpec("strict", 9, 2, seed=1))))
        assert is_stable_m2(inst, fast_const(inst).matching)
        assert "college_values" not in vars(inst)


class TestFastConst:
    def test_reference_instance(self, ref_instance):
        report = fast_const(ref_instance)
        assert report.algorithm == "fast_const"
        assert report.leximin.values == (3, 4, 9, 16, 100, 100)
        assert report.matching.assignment == (0, 1, 1, 1)

    def test_zero_toggle_walk(self):
        inst = Instance.build([[10, 1], [2, 9]], [[5, 4], [3, 6]])
        report = fast_const(inst)
        assert report.counters["toggles"] == 0
        assert report.matching.assignment == (0, 1)

    def test_rejects_wrong_college_count(self):
        inst = Instance.from_matrix([[3, 2, 1], [6, 5, 4]])
        with pytest.raises(NotAdmissibleError):
            fast_const(inst)

    def test_rejects_ties(self):
        inst = Instance.build([[3, 3], [2, 1]], [[2, 1], [2, 1]])
        with pytest.raises(NotAdmissibleError):
            fast_const(inst)

    def test_rejects_small_capacities(self):
        inst = generate(GenSpec(kind="strict", n=5, m=2, seed=1))
        capped = Instance(inst.student_values, inst.college_values, (2, 2))
        with pytest.raises(NotAdmissibleError):
            fast_const(capped)

    def test_oracle_equality_random(self):
        for inst in _strict_m2_instances(seed=63, count=100, n_max=7):
            got = fast_const(inst).leximin.values
            want = oracle_leximin(inst, require_complete=True).leximin.values
            assert got == want, inst

    def test_optimum_beats_all_stable_brute_force(self):
        # independent 2^n check, not going through the oracle module
        for inst in _strict_m2_instances(seed=67, count=20, n_max=6):
            best = fast_const(inst).leximin
            for assignment in _complete_assignments(inst.n):
                mu = Matching(assignment)
                if is_stable(inst, mu) is None:
                    t = leximin_tuple(inst, mu)
                    assert leximin_compare(t, best) != GREATER

    def test_states_start_at_favorites_and_toggle_bound(self):
        for inst in _strict_m2_instances(seed=69, count=25, n_max=8):
            seen = []
            report = fast_const(inst, on_state=seen.append)
            assert seen[0].assignment == tuple(favorites(inst))
            # every student toggles at most once
            assert report.counters["toggles"] <= inst.n
            assert len(seen) == report.counters["toggles"] + 1
            for mu in seen:
                # every student stays matched throughout the walk (a college
                # may be empty, e.g. when everyone shares a favorite)
                assert all(j is not None for j in mu.assignment)
                # and every state the walk visits is stable
                assert is_stable(inst, mu) is None, (inst, mu)
                assert is_stable_m2(inst, mu), (inst, mu)

    def test_oracle_sweep_default_and_tie_heavy_values(self):
        assert len(ORACLE_SWEEP) == 560
        assert any(inst._kernel[0] > 1 for inst in ORACLE_SWEEP)
        toggled = 0
        for inst in ORACLE_SWEEP:
            report = fast_const(inst)
            want = oracle_leximin(inst, require_complete=True).leximin.values
            assert report.leximin.values == want, inst
            assert _grid_best(inst) == want, inst
            assert is_stable(inst, report.matching) is None, inst
            toggled += report.counters["toggles"] > 0
        # the sweep must exercise the walk, not only its starting point
        assert toggled > 0

    def test_grid_reference_beyond_brute_force(self):
        for n in range(15, 61, 5):
            for value_max in (None, 2 * n + 3, n + 1):
                for seed in range(3):
                    inst = generate(GenSpec("strict", n, 2, seed=seed, value_max=value_max))
                    assert fast_const(inst).leximin.values == _grid_best(inst), inst

    def test_crossed_family(self):
        for n in (8, 10):
            for seed in range(20):
                inst = _crossed(n, seed)
                report = fast_const(inst)
                want = oracle_leximin(inst, require_complete=True).leximin.values
                assert report.leximin.values == want, (n, seed)
                assert report.counters["toggles"] > 0
        for n in (20, 30, 40):
            for seed in range(5):
                inst = _crossed(n, seed)
                assert fast_const(inst).leximin.values == _grid_best(inst), (n, seed)

    # One hand-made walk per stopping rule.  All three students prefer
    # college 0 and college 0 ranks them 0, 1, 2 from the bottom, so the
    # walk moves them to college 1 in that order while college 0 is richer.

    def test_stops_when_leaving_a_favorite_drops_below_the_poorer_college(self):
        # after student 0 moves, college 1 is worth 4 and student 1 would
        # fall to u(1, 1) = 3 < 4: the (A) cutoff
        inst = Instance.build(
            [[9, 7], [8, 3], [6, 5]], [[10, 20, 30], [4, 5, 6]]
        )
        report = fast_const(inst)
        assert report.counters["toggles"] == 1
        assert report.matching.assignment == (1, 0, 0)

    def test_stops_before_a_student_returns_to_a_college_that_gave_it_away(self):
        # all three move (college 0 ends empty, college 1 is worth 15); then
        # student 0 would rejoin college 0, which has already given away a
        # student it values at least as much: the (B) cutoff
        inst = Instance.build(
            [[90, 70], [80, 60], [60, 50]], [[10, 20, 30], [4, 5, 6]]
        )
        report = fast_const(inst)
        assert report.counters["toggles"] == 3
        assert report.counters["tuple_comparisons"] == 3

    def test_stops_when_the_richer_college_is_empty(self):
        # both totals are 0, so college 1 counts as the richer one and has
        # no student to give away
        inst = Instance.build([[5, 3]], [[0], [2]])
        report = fast_const(inst)
        assert report.counters["toggles"] == 0
        assert report.matching.assignment == (0,)
