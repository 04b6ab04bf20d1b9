from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmatch import (
    EQUAL,
    GREATER,
    LESS,
    BlockingPair,
    Instance,
    InvalidInputError,
    LeximinTuple,
    Matching,
    as_value,
    check_alpha_approx,
    classify,
    is_stable,
    leximin_compare,
    leximin_tuple,
    value_to_str,
)

from conftest import random_instances


class TestValues:
    def test_accepts_ints_fractions_strings(self):
        assert as_value(3) == Fraction(3)
        assert as_value(Fraction(7, 2)) == Fraction(7, 2)
        assert as_value("7/3") == Fraction(7, 3)

    @pytest.mark.parametrize("bad", [1.5, True, -1, "-2/3", "x"])
    def test_rejects_floats_bools_negatives_garbage(self, bad):
        with pytest.raises(InvalidInputError):
            as_value(bad)

    def test_int_fast_path_keeps_types_and_messages(self):
        assert type(as_value(0)) is Fraction and as_value(0) == 0
        with pytest.raises(InvalidInputError, match="non-negative, got -1$"):
            as_value(-1)
        for flag in (True, False):
            with pytest.raises(InvalidInputError, match="exact rational"):
                as_value(flag)

    def test_value_to_str(self):
        assert value_to_str(Fraction(7)) == "7"
        assert value_to_str(Fraction(7, 3)) == "7/3"


class TestInstance:
    def test_dimension_checks(self):
        with pytest.raises(InvalidInputError):
            Instance.build([[1, 2]], [[1]])  # college row too short
        with pytest.raises(InvalidInputError):
            Instance.build([], [[1]])

    def test_capacity_bounds(self):
        with pytest.raises(InvalidInputError):
            Instance.build([[1], [2]], [[2, 1]], capacities=[0])
        with pytest.raises(InvalidInputError):
            Instance.build([[1], [2]], [[2, 1]], capacities=[3])

    def test_default_capacities(self):
        inst = Instance.build([[2, 1], [4, 3], [6, 5]], [[1, 2, 3], [4, 5, 6]])
        assert inst.capacities == (2, 2)
        single = Instance.build([[1], [2]], [[2, 1]])
        assert single.capacities == (2,)


class TestClassify:
    def test_reference_instance(self, ref_instance):
        flags = classify(ref_instance)
        assert flags.ranked and flags.isometric
        assert flags.strict_students and flags.strict_colleges and flags.strict
        assert flags.weakly_ranked

    def test_single_pair_all_flags(self):
        flags = classify(Instance.build([[5]], [[5]]))
        assert all(
            [
                flags.strict,
                flags.strict_students,
                flags.strict_colleges,
                flags.ranked,
                flags.weakly_ranked,
                flags.isometric,
            ]
        )

    def test_tie_forces_non_strict(self):
        inst = Instance.build([[3, 3], [2, 1]], [[2, 1], [2, 1]])
        flags = classify(inst)
        assert not flags.strict_students
        assert not flags.ranked
        assert flags.weakly_ranked  # remaining rows are non-increasing

    def test_ranked_implies_weakly_ranked_and_strict_rows(self):
        for inst in random_instances("ranked", seed=11, count=25, n_max=7, m_max=4):
            flags = classify(inst)
            assert flags.ranked
            assert flags.weakly_ranked
            assert flags.strict


class TestIsStable:
    def test_contiguous_split_is_stable(self, ref_instance):
        assert is_stable(ref_instance, Matching([0, 0, 1, 1])) is None

    def test_interleaved_split_has_certificate(self, ref_instance):
        cert = is_stable(ref_instance, Matching([0, 1, 0, 1]))
        assert cert == BlockingPair(student=1, college=0, displaced_student=2)

    def test_single_college_always_stable(self):
        inst = Instance.build([[3], [2], [1]], [[3, 2, 1]], capacities=[3])
        assert is_stable(inst, Matching([0, 0, 0])) is None

    def test_empty_college_cannot_block(self, ref_instance):
        # everyone at the first college: the second college is empty, so
        # nobody can displace a member there
        assert is_stable(ref_instance, Matching([0, 0, 0, 0])) is None

    def test_agrees_with_naive_triple_scan(self):
        import itertools
        import random as _random

        rng = _random.Random(5)
        for inst in random_instances("weak", seed=5, count=10, n_max=4, m_max=3, n_min=2):
            for assignment in itertools.product(
                [None, *range(inst.m)], repeat=inst.n
            ):
                if rng.random() < 0.5:
                    continue
                mu = Matching(assignment)
                blocked = any(
                    inst.u(i, j) > (0 if mu.assignment[i] is None else inst.u(i, mu.assignment[i]))
                    and any(inst.v(j, i) > inst.v(j, k) for k in mu.members(inst, j))
                    for i in range(inst.n)
                    for j in range(inst.m)
                    if mu.assignment[i] != j
                )
                assert (is_stable(inst, mu) is None) == (not blocked)


class TestLeximinTuple:
    def test_balanced_split_values(self, ref_instance):
        t = leximin_tuple(ref_instance, Matching([0, 0, 1, 1]))
        assert t.values == (3, 4, 7, 99, 100, 199)

    def test_one_three_split_values_and_tie_order(self, ref_instance):
        t = leximin_tuple(ref_instance, Matching([0, 1, 1, 1]))
        assert t.values == (3, 4, 9, 16, 100, 100)
        # both 100-valued agents: the student sorts before the college
        assert t.agent_at[4] == ("s", 0)
        assert t.agent_at[5] == ("c", 0)

    def test_empty_matching_is_all_zeros_students_first(self, ref_instance):
        t = leximin_tuple(ref_instance, Matching([None] * 4))
        assert t.values == (0,) * 6
        assert t.agent_at == (("s", 0), ("s", 1), ("s", 2), ("s", 3), ("c", 0), ("c", 1))

    def test_is_sorted_permutation_of_agent_values(self):
        for inst in random_instances("weak", seed=9, count=10, n_max=6, m_max=3, n_min=2):
            mu = Matching([i % inst.m for i in range(inst.n)])
            t = leximin_tuple(inst, mu)
            assert list(t.values) == sorted(t.values)
            assert len(t.values) == inst.n + inst.m
            assert t.position_of(("s", 0)) == t.agent_at.index(("s", 0))


def _lt(values):
    return LeximinTuple(values=tuple(values), agent_at=tuple(("s", i) for i in range(len(values))))


class TestLeximinCompare:
    def test_reference_comparison(self):
        a = _lt([3, 4, 9, 16, 100, 100])
        b = _lt([3, 4, 7, 99, 100, 199])
        assert leximin_compare(a, b) == GREATER
        assert leximin_compare(b, a) == LESS

    def test_equal_and_first_index(self):
        assert leximin_compare(_lt([1, 2]), _lt([1, 2])) == EQUAL
        assert leximin_compare(_lt([0, 9]), _lt([3, 0])) == LESS

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            leximin_compare(_lt([1]), _lt([1, 2]))

    @given(
        st.lists(st.integers(0, 5), min_size=3, max_size=3),
        st.lists(st.integers(0, 5), min_size=3, max_size=3),
        st.lists(st.integers(0, 5), min_size=3, max_size=3),
    )
    @settings(max_examples=200)
    def test_total_order_properties(self, xs, ys, zs):
        a, b, c = _lt(xs), _lt(ys), _lt(zs)
        ab, ba = leximin_compare(a, b), leximin_compare(b, a)
        assert ab == -ba
        if leximin_compare(a, b) != GREATER and leximin_compare(b, c) != GREATER:
            assert leximin_compare(a, c) != GREATER

    @given(st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=50)
    def test_scaling_invariance(self, num, den):
        scale = Fraction(num, den)
        inst = Instance.from_matrix([[100, 10], [99, 9], [20, 4], [19, 3]])
        scaled = Instance(
            tuple(tuple(x * scale for x in row) for row in inst.student_values),
            tuple(tuple(x * scale for x in row) for row in inst.college_values),
            inst.capacities,
        )
        mu1, mu2 = Matching([0, 1, 1, 1]), Matching([0, 0, 1, 1])
        assert leximin_compare(
            leximin_tuple(inst, mu1), leximin_tuple(inst, mu2)
        ) == leximin_compare(leximin_tuple(scaled, mu1), leximin_tuple(scaled, mu2))


class TestAlphaApprox:
    def test_identical_true(self):
        t = _lt([2, 4])
        assert check_alpha_approx(t, t, Fraction(1, 2))

    def test_bound_arithmetic(self):
        opt, cand = _lt([2, 4]), _lt([1, 4])
        assert check_alpha_approx(opt, cand, Fraction(1, 2))
        assert not check_alpha_approx(opt, cand, Fraction(3, 4))

    def test_zero_violates_lower_bound(self):
        assert not check_alpha_approx(_lt([1, 1]), _lt([0, 1]), Fraction(9, 10))

    def test_alpha_out_of_range(self):
        with pytest.raises(InvalidInputError):
            check_alpha_approx(_lt([1]), _lt([1]), 0)
