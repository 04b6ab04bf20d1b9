import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmatch import (
    EQUAL,
    GREATER,
    LESS,
    BlockingPair,
    GenSpec,
    Instance,
    InvalidInputError,
    LeximinTuple,
    Matching,
    as_value,
    check_alpha_approx,
    classify,
    college_value,
    generate,
    is_stable,
    leximin_compare,
    leximin_tuple,
    partition_to_smo,
    student_value,
    value_to_str,
)
from lexmatch.generate import KINDS

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


    def test_int_rows_equal_fraction_and_string_rows(self):
        sv, cv = [[4, 0], [3, 2], [1, 5]], [[9, 8, 0], [7, 0, 6]]
        as_ints = Instance.build(sv, cv, capacities=[2, 3])
        as_fractions = Instance.build(
            [[Fraction(x) for x in row] for row in sv],
            [[Fraction(x) for x in row] for row in cv],
            capacities=[2, 3],
        )
        as_strings = Instance.build(
            [[f"{x}/1" for x in row] for row in sv],
            [[f"{x}/1" for x in row] for row in cv],
            capacities=[2, 3],
        )
        # every input is parsed into the kernel, and only the kernel is kept
        assert "student_values" not in vars(as_ints)
        assert "student_values" not in vars(as_strings)
        for other in (as_fractions, as_strings):
            assert other == as_ints and as_ints == other
            assert hash(other) == hash(as_ints)
            assert other._kernel == as_ints._kernel == (1, tuple(map(tuple, sv)), tuple(map(tuple, cv)))
            assert repr(other) == repr(as_ints)
        for inst in (as_ints, as_fractions, as_strings):
            for row in inst.student_values + inst.college_values:
                assert all(type(x) is Fraction for x in row)
            assert all(type(inst.u(i, j)) is Fraction for i in range(3) for j in range(2))
            assert all(type(inst.v(j, i)) is Fraction for i in range(3) for j in range(2))
        assert as_ints.student_values == ((4, 0), (3, 2), (1, 5))
        assert as_ints != Instance.build(sv, cv, capacities=[3, 3])
        assert as_ints != Instance.build([[4, 0], [3, 2], [1, 6]], cv, capacities=[2, 3])

    def test_mixed_int_and_string_rows_parse(self):
        inst = Instance.build([[2, "1/2"], [4, 3]], [["3/4", 1], [4, 3]])
        assert inst.student_values == ((2, Fraction(1, 2)), (4, 3))
        assert inst._kernel == (4, ((8, 2), (16, 12)), ((3, 4), (16, 12)))

    @pytest.mark.parametrize("construct", [Instance.build, Instance], ids=["build", "positional"])
    @pytest.mark.parametrize(
        "sv, cv, capacities, message",
        [
            ([[1, -1]], [[1], [1]], None, "values must be non-negative, got -1"),
            ([[1, True]], [[1], [1]], None, "value must be an exact rational, got True"),
            ([[1, 2.0]], [[1], [1]], None, "value must be an exact rational, got 2.0"),
            ([[1]], [[-3]], None, "values must be non-negative, got -3"),
            (
                [[2, 1], [4]],
                [[2, 1], [4, 3]],
                None,
                "student value row length != number of colleges",
            ),
            (
                [[2, 1], [4, 3]],
                [[2, 1], [4]],
                None,
                "college value row length != number of students",
            ),
            ([], [[1]], None, "instance needs at least one student and one college"),
            ([[]], [[1]], None, "student value row length != number of colleges"),
            (["21", "43"], [[2, 1], [4, 3]], None, "student_values must be a list of value rows"),
            (
                [[Fraction(-3), 1]],
                [[Fraction(-2)], [1]],
                None,
                "values must be non-negative, got Fraction(-3, 1)",
            ),
            (
                [[Fraction(1), False]],
                [[1], [1]],
                None,
                "value must be an exact rational, got False",
            ),
            ([[2, 1]], [[2], [1]], 5, "need exactly one capacity per college"),
        ],
    )
    def test_refusals_keep_their_messages(self, construct, sv, cv, capacities, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            construct(sv, cv, capacities)

    @pytest.mark.parametrize("sv", [[[3, 1]], [[Fraction(3), "1"]]])
    def test_stores_the_kernel_and_tuple_capacities(self, sv):
        for inst in (Instance(sv, [[2], [1]], [1, 1]), Instance.build(sv, [[2], [1]], [1, 1])):
            assert set(vars(inst)) == {"_kernel", "capacities"}
            assert inst.capacities == (1, 1)
            assert hash(inst) == hash(Instance.build([[3, 1]], [[2], [1]], (1, 1)))

    def test_is_immutable(self):
        built = Instance.build([[2, 1], [4, 3]], [[2, 4], [1, 3]])
        given = Instance(built.student_values, built.college_values, built.capacities)
        for inst in (built, given):
            for name in ("student_values", "capacities", "_kernel", "n", "other"):
                with pytest.raises(AttributeError):
                    setattr(inst, name, None)
            for name in ("student_values", "capacities", "_kernel"):
                with pytest.raises(AttributeError):
                    delattr(inst, name)
        assert built == given


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


    @staticmethod
    def _flags_by_definition(inst):
        rows_s = [[inst.u(i, j) for j in range(inst.m)] for i in range(inst.n)]
        rows_c = [[inst.v(j, i) for i in range(inst.n)] for j in range(inst.m)]

        def strictly_decreasing(row):
            return all(row[k] > row[k + 1] for k in range(len(row) - 1))

        def non_increasing(row):
            return all(row[k] >= row[k + 1] for k in range(len(row) - 1))

        def no_ties(rows):
            return all(len(set(row)) == len(row) for row in rows)

        ranked = all(map(strictly_decreasing, rows_s + rows_c))
        return (
            no_ties(rows_s),
            no_ties(rows_c),
            no_ties(rows_s) and no_ties(rows_c),
            ranked,
            all(map(non_increasing, rows_s + rows_c)),
            all(rows_s[i][j] == rows_c[j][i] for i in range(inst.n) for j in range(inst.m)),
        )

    def _assert_flags_match_definition(self, inst):
        flags = classify(inst)
        assert (
            flags.strict_students,
            flags.strict_colleges,
            flags.strict,
            flags.ranked,
            flags.weakly_ranked,
            flags.isometric,
        ) == self._flags_by_definition(inst)

    def test_column_form_matches_the_row_definitions(self):
        def by_35(inst):
            def f(x):
                return Fraction(7 * x + x % 5, 35)

            return Instance.build(
                [[f(x) for x in row] for row in inst.student_values],
                [[f(x) for x in row] for row in inst.college_values],
                inst.capacities,
            )

        checked = 0
        for kind in KINDS:
            for n, m in ((1, 1), (4, 1), (5, 2), (7, 3), (9, 5)):
                for value_max in (None, max(n, m) + 3):
                    for seed in range(3):
                        try:
                            inst = generate(GenSpec(kind, n, m, seed=seed, value_max=value_max))
                        except InvalidInputError:
                            continue  # too few distinct values for the kind
                        self._assert_flags_match_definition(inst)
                        self._assert_flags_match_definition(by_35(inst))
                        checked += 1
        assert checked > 100
        for P in ([3, 1, 1, 1], [6, 1, 1], [5, 4, 3, 2, 2], [2, 2]):
            image = partition_to_smo(P)
            flags = classify(image)
            assert flags.weakly_ranked and not flags.strict
            self._assert_flags_match_definition(image)
            self._assert_flags_match_definition(by_35(image))

    @pytest.mark.parametrize(
        "sv, cv",
        [
            ([[7]], [[7]]),
            ([[7]], [[3]]),
            ([[3, 2, 1]], [[3], [2], [1]]),
            ([[3, 3, 1]], [[3], [3], [1]]),
            ([[1, 2, 3]], [[1], [2], [3]]),
            ([[3], [2], [1]], [[3, 2, 1]]),
            ([[3], [3], [1]], [[3, 3, 1]]),
            ([[1], [2], [3]], [[1, 2, 3]]),
            ([[3], [2], [1]], [[3, 1, 2]]),
        ],
    )
    def test_single_row_and_single_column_instances(self, sv, cv):
        self._assert_flags_match_definition(Instance.build(sv, cv))

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


    def test_matches_the_fraction_definition_on_random_matchings(self):
        # the reference reads Fraction values through u/v; is_stable reads
        # the scaled int kernel.  Small value ranges make ties common, so
        # the displaced-student tie-break is exercised too.
        import random

        def first_blocking_pair(inst, mu):
            weakest = [
                min(ms, key=lambda i: (inst.v(j, i), i)) if ms else None
                for j, ms in enumerate(mu.members(inst, j) for j in range(inst.m))
            ]
            for i in range(inst.n):
                here = mu.assignment[i]
                cur = Fraction(0) if here is None else inst.u(i, here)
                for j in range(inst.m):
                    w = weakest[j]
                    if j == here or w is None:
                        continue
                    if inst.u(i, j) > cur and inst.v(j, i) > inst.v(j, w):
                        return BlockingPair(student=i, college=j, displaced_student=w)
            return None

        rng = random.Random(17)
        outcomes = set()
        for kind in ("weak", "strict", "ranked"):
            for value_max in (None, 3, 9):
                if kind != "weak" and value_max == 3:
                    continue  # too few distinct values for strict rows
                for inst in random_instances(
                    kind, seed=19, count=12, n_max=7, m_max=3, n_min=3, value_max=value_max
                ):
                    scaled = Instance.build(
                        [[x / 6 for x in row] for row in inst.student_values],
                        [[x / 35 for x in row] for row in inst.college_values],
                        inst.capacities,
                    )
                    assert scaled._kernel[0] > 1
                    for case in (inst, scaled):
                        for _ in range(8):
                            mu = Matching(
                                [rng.choice([None, *range(case.m)]) for _ in range(case.n)]
                            )
                            expected = first_blocking_pair(case, mu)
                            assert is_stable(case, mu) == expected, (case, mu)
                            outcomes.add(expected is None)
        assert outcomes == {True, False}


@pytest.mark.parametrize("check", [is_stable, leximin_tuple])
@pytest.mark.parametrize("college", [True, False])
def test_matchings_refuse_bool_colleges(ref_instance, check, college):
    # a bool is an int, so Matching([True, ...]) once read as college 1
    with pytest.raises(
        InvalidInputError, match=f"^student 0 assigned to invalid college {college}$"
    ):
        check(ref_instance, Matching([college, 0, 1, 1]))


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


    def test_matches_the_fraction_definition_on_partial_matchings(self):
        import random

        rng = random.Random(3)
        for inst in random_instances("weak", seed=13, count=20, n_max=7, m_max=3, n_min=2):
            scaled = Instance.build(
                [[x / 6 for x in row] for row in inst.student_values],
                [[x / 35 for x in row] for row in inst.college_values],
                inst.capacities,
            )
            for case in (inst, scaled):
                mu = Matching([rng.choice([None, *range(case.m)]) for _ in range(case.n)])
                entries = sorted(
                    [(student_value(case, mu, i), 0, i) for i in range(case.n)]
                    + [(college_value(case, mu, j), 1, j) for j in range(case.m)]
                )
                t = leximin_tuple(case, mu)
                assert t.values == tuple(v for v, _, _ in entries)
                assert all(type(v) is Fraction for v in t.values)
                assert t.agent_at == tuple(("sc"[kind], idx) for _, kind, idx in entries)

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
