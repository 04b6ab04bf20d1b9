import re
from enum import IntEnum
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
from lexmatch.model import ScaledLeximin

from conftest import random_instances

# Each refusal table runs on three spellings of its matrices: every plain
# non-negative int as it stands, as a Fraction and as a "p/q" string.  The
# faulty entries are kept as written, so each spelling must give the same
# message.
SPELLINGS = {"int": int, "fraction": Fraction, "string": lambda x: f"{x}/1"}


class _Grade(IntEnum):
    # an int subclass: as_value parses it, but it is not a plain int
    NONE = 0
    HIGH = 3


# marks a refusal row built by Instance.from_matrix(sv, capacities)
FROM_MATRIX = "from_matrix"


def _respell(rows, spelling):
    if not isinstance(rows, list):
        return rows
    spell = SPELLINGS[spelling]
    return [
        [spell(x) if type(x) is int and x >= 0 else x for x in row]
        if isinstance(row, list)
        else row
        for row in rows
    ]


class TestValues:
    def test_accepts_ints_fractions_strings(self):
        assert as_value(3) == Fraction(3)
        assert as_value(Fraction(7, 2)) == Fraction(7, 2)
        assert as_value("7/3") == Fraction(7, 3)

    @pytest.mark.parametrize(
        "bad", [1.5, True, -1, "-2/3", "x", "0.5", "1e3", " 7 ", "1_000", "+3"]
    )
    def test_rejects_floats_bools_negatives_garbage(self, bad):
        with pytest.raises(InvalidInputError):
            as_value(bad)

    @pytest.mark.parametrize(
        "text",
        ["0.5", "1e3", " 7 ", "1_000", "+3", "-0.5", "7/", "/3", "1/0", "3/-4", "٣"],
    )
    def test_strings_are_digits_or_digits_over_digits(self, text):
        # Fraction(str) would take decimals, exponents, blanks and
        # underscores; the documented grammar is '7' and '7/3' only
        with pytest.raises(InvalidInputError, match=re.escape(f"cannot parse value {text!r}") + "$"):
            as_value(text)

    def test_a_minus_sign_on_a_valid_string_is_a_negative_value(self):
        for text in ("-3", "-2/3"):
            with pytest.raises(InvalidInputError, match=re.escape(f"non-negative, got {text!r}") + "$"):
                as_value(text)
        assert as_value("007") == 7 and as_value("14/4") == Fraction(7, 2)

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
            # college by college: u[j][i] is student i's value for college j
            assert other._kernel == as_ints._kernel == (1, tuple(zip(*sv)), tuple(map(tuple, cv)))
            assert as_ints._kernel[1] == ((4, 3, 1), (0, 2, 5))
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
        assert inst._kernel == (4, ((8, 16), (2, 12)), ((3, 4), (16, 12)))

    @pytest.mark.parametrize("spelling", SPELLINGS)
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
            ([], FROM_MATRIX, None, "instance needs at least one student and one college"),
            (
                [[1, 2], [3]],
                FROM_MATRIX,
                None,
                "student value row length != number of colleges",
            ),
            ("12", FROM_MATRIX, None, "matrix must be a list of value rows, each a list"),
            ([[2, 1]], [[2], [1]], [1], "need exactly one capacity per college"),
        ],
    )
    def test_refusals_keep_their_messages(
        self, construct, spelling, sv, cv, capacities, message
    ):
        sv, cv = _respell(sv, spelling), _respell(cv, spelling)
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            if cv == FROM_MATRIX:
                Instance.from_matrix(sv, capacities)
            else:
                construct(sv, cv, capacities)

    @pytest.mark.parametrize("spelling", SPELLINGS)
    @pytest.mark.parametrize("construct", [Instance.build, Instance], ids=["build", "positional"])
    @pytest.mark.parametrize(
        "sv, cv, message",
        [
            # ragged student rows
            ([[1], [2, 3]], [[1, 2]], "student value row length != number of colleges"),
            ([[1, 2], [1]], [[1, 2], [1, 2]], "student value row length != number of colleges"),
            # one width throughout, but the wrong one
            ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4]], "student value row length != number of colleges"),
            ([[1, 2], [3, 4]], [[1, 2, 3], [3, 4, 5]], "college value row length != number of students"),
            ([[1]], [[1, 2]], "college value row length != number of students"),
            # no values at all
            ([[]], [[1]], "student value row length != number of colleges"),
            ([[]], [], "instance needs at least one student and one college"),
            ([[1, 2]], [], "instance needs at least one student and one college"),
            # a non-int among ints, on either side
            ([[False, 2]], [[1], [1]], "value must be an exact rational, got False"),
            ([[2, 1]], [[1], [True]], "value must be an exact rational, got True"),
            ([[1, 1]], [[1.5], [1]], "value must be an exact rational, got 1.5"),
            ([[1, 2.0]], [[1], [1]], "value must be an exact rational, got 2.0"),
            ([[1, 2]], [[1], [-1]], "values must be non-negative, got -1"),
            ([[0, -4]], [[1], [1]], "values must be non-negative, got -4"),
            # a shape fault is reported before a value fault
            ([[1, -1], [2]], [[1, 2], [1, 2]], "student value row length != number of colleges"),
            ([[1, 2]], [[True], [1, 1]], "college value row length != number of students"),
        ],
    )
    def test_shape_and_value_refusals_keep_their_messages(
        self, construct, spelling, sv, cv, message
    ):
        with pytest.raises(InvalidInputError, match=re.escape(message) + "$"):
            construct(_respell(sv, spelling), _respell(cv, spelling), None)

    @pytest.mark.parametrize("spelling", SPELLINGS)
    @pytest.mark.parametrize(
        "sv, cv, message",
        [
            # ranked: the refusal names the first value read, not the minimum
            ([[-1, -2]], [[5], [4]], "values must be non-negative, got -1"),
            # weakly ranked and isometric, the minimum -2 read after -1
            ([[3, 3], [-1, -2]], [[3, -1], [3, -2]], "values must be non-negative, got -1"),
            # ranked, the only negative value last in a student or a college row
            ([[5, -1]], [[2], [1]], "values must be non-negative, got -1"),
            ([[5, 4], [3, 2]], [[5, 3], [4, -2]], "values must be non-negative, got -2"),
            # isometric by ==, but the college side is not all ints
            ([[3, 1]], [[3.0], [1]], "value must be an exact rational, got 3.0"),
            ([[3, 1]], [[3], [True]], "value must be an exact rational, got True"),
        ],
    )
    def test_ranked_and_isometric_inputs_keep_their_value_refusals(
        self, spelling, sv, cv, message
    ):
        # a (weakly) ranked int input reads only each row's last value for
        # the sign; isometry never stands in for the college side's types
        with pytest.raises(InvalidInputError, match=re.escape(message) + "$"):
            Instance(_respell(sv, spelling), _respell(cv, spelling), None)

    def test_int_fast_path_accepts_tuple_rows(self):
        inst = Instance.build(((1, 2), (3, 4), (5, 6)), [(1, 2, 3), [4, 5, 6]])
        assert inst._kernel == (1, ((1, 3, 5), (2, 4, 6)), ((1, 2, 3), (4, 5, 6)))
        assert inst == Instance.build([[1, 2], [3, 4], [5, 6]], [[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("where", ["student first", "student last", "college first", "college last"])
    @pytest.mark.parametrize(
        "odd", [True, False, 1.0, 3.0, "3", "7/2", _Grade.HIGH, _Grade.NONE], ids=repr
    )
    def test_one_odd_value_among_ints_builds_or_is_refused_as_before(self, odd, where):
        # only a column of plain ints is the kernel as it stands: a bool, a
        # float, a string or an int subclass sends the whole input through
        # as_value, which refuses the first two and parses the others
        sv, cv = [[9, 8], [7, 5], [6, 4]], [[9, 7, 6], [8, 5, 4]]
        side, pos = where.split()
        pos = 0 if pos == "first" else 2
        if side == "student":
            sv[pos][1] = odd
        else:
            cv[1][pos] = odd
        if type(odd) in (bool, float):
            message = f"value must be an exact rational, got {odd!r}"
            with pytest.raises(InvalidInputError, match=re.escape(message) + "$"):
                Instance.build(sv, cv)
            return
        inst = Instance.build(sv, cv)
        exact = Fraction(odd)
        respelled = [[exact if x is odd else x for x in row] for row in (sv if side == "student" else cv)]
        want = Instance.build(respelled, cv) if side == "student" else Instance.build(sv, respelled)
        assert inst._kernel == want._kernel and inst._flags == want._flags
        assert inst._flags == TestClassify._flags_by_definition(inst)
        scale, u, v = inst._kernel
        assert all(type(x) is int for col in (*u, *v) for x in col)

    @pytest.mark.parametrize("sv", [[[3, 1]], [[Fraction(3), "1"]]])
    def test_stores_the_kernel_and_tuple_capacities(self, sv):
        for inst in (Instance(sv, [[2], [1]], [1, 1]), Instance.build(sv, [[2], [1]], [1, 1])):
            # the flags are found while the kernel is built, and stored with it
            assert set(vars(inst)) == {"_kernel", "_flags", "capacities"}
            assert inst._flags == TestClassify._flags_by_definition(inst)
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


def test_matchings_refuse_the_wrong_length_and_an_overfull_college(ref_instance):
    with pytest.raises(InvalidInputError, match="^matching length != number of students$"):
        Matching([0, 1, 1]).validate(ref_instance)
    overfull = Matching([0, 0, 0, 0])  # capacities (3, 3)
    overfull.validate(ref_instance)
    with pytest.raises(InvalidInputError, match="^college 0 holds 4 students, capacity 3$"):
        overfull.validate(ref_instance, enforce_capacities=True)


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

    @pytest.mark.parametrize("scale", [1, 6])
    def test_agents_are_sorted_on_first_read_students_first_on_ties(self, scale):
        import random

        rng = random.Random(scale)
        for n, m in ((1, 1), (5, 2), (9, 4), (30, 6)):
            for _ in range(20):
                vals = [rng.randrange(4) for _ in range(n + m)]
                scaled = ScaledLeximin.build(scale, vals[:n], vals[n:])
                expected = sorted(range(n + m), key=vals.__getitem__)
                assert scaled.values == sorted(vals)
                assert scaled.wire() == [str(Fraction(x, scale)) for x in sorted(vals)]
                # serializing needs no agents, so it sorts none
                assert scaled._agents is None
                assert scaled.agents == expected
                # on ties students come first, each side by index
                agents = scaled.agents
                assert all(
                    p < q
                    for t, (p, q) in enumerate(zip(agents, agents[1:]))
                    if scaled.values[t] == scaled.values[t + 1]
                )
                assert scaled.view() == LeximinTuple(
                    values=tuple(Fraction(x, scale) for x in sorted(vals)),
                    agent_at=tuple(("s", p) if p < n else ("c", p - n) for p in expected),
                )

    def test_is_sorted_permutation_of_agent_values(self):
        for inst in random_instances("weak", seed=9, count=10, n_max=6, m_max=3, n_min=2):
            mu = Matching([i % inst.m for i in range(inst.n)])
            t = leximin_tuple(inst, mu)
            assert list(t.values) == sorted(t.values)
            assert len(t.values) == inst.n + inst.m
            assert t.values[t.agent_at.index(("s", 0))] == student_value(inst, mu, 0)


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

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="^tuple length mismatch$"):
            check_alpha_approx(_lt([1]), _lt([1, 2]), 1)

    def test_alpha_out_of_range(self):
        # alpha is parsed like every other value, then range-checked
        for alpha, message in [
            (0, "alpha must be in (0, 1], got 0"),
            ("3/2", "alpha must be in (0, 1], got 3/2"),
            (-1, "values must be non-negative, got -1"),
            ("x", "cannot parse value 'x'"),
            (None, "cannot parse value None"),
            (True, "value must be an exact rational, got True"),
            (0.5, "value must be an exact rational, got 0.5"),
        ]:
            with pytest.raises(InvalidInputError, match=re.escape(message) + "$"):
                check_alpha_approx(_lt([1]), _lt([1]), alpha)
        for alpha in ("1/2", Fraction(1, 2)):
            assert check_alpha_approx(_lt([2, 4]), _lt([1, 4]), alpha)
        assert check_alpha_approx(_lt([2, 4]), _lt([2, 4]), 1)
