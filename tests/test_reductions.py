"""Oracle-backed checks of the hardness constructions.

The recurring helper `_collector_value` reads off the deciding quantity: the
last college's value under the leximin-optimal complete stable matching.
"""

import json
from fractions import Fraction

import pytest

from lexmatch import (
    InvalidInputError,
    ReductionSpec,
    bin_packing_to_smo,
    classify,
    college_value,
    oracle_leximin,
    partition_to_smo,
    subset_sum_to_smo,
    three_partition_to_smo,
)
from lexmatch.cli import main


def _optimum(inst):
    return oracle_leximin(
        inst, require_complete=True, respect_capacities=True
    ).matching


def _collector_value(inst):
    mu = _optimum(inst)
    m = inst.m
    return sum(
        (inst.v(m - 1, i) for i, j in enumerate(mu.assignment) if j == m - 1),
        Fraction(0),
    )


def _college_values(inst):
    mu = _optimum(inst)
    return [college_value(inst, mu, j) for j in range(inst.m)]


class TestSubsetSum:
    def test_shapes_and_classification(self):
        inst = subset_sum_to_smo([2, 5, 9], 9)
        assert (inst.n, inst.m) == (6, 4)
        assert inst.capacities == (3, 3, 3, 3)
        # the collector's valuation row stays strict thanks to distinctness
        assert classify(inst).strict_colleges

    @pytest.mark.parametrize(
        "A,B,value",
        [
            ([1, 2], 3, 3),
            ([5], 5, 5),
            ([1, 2, 3], 3, 3),
            # best subset sum <= B when no exact subset exists
            ([2, 3], 4, 2),
            ([1, 2, 4], 6, 3),
        ],
    )
    def test_collector_value(self, A, B, value):
        assert _collector_value(subset_sum_to_smo(A, B)) == value

    def test_collector_value_is_a_subset_sum_at_most_target(self):
        # the collector always ends up with a realizable subset sum <= B
        # (though not necessarily B itself even when an exact subset exists;
        # the leximin optimum may prefer a smaller collector)
        import itertools

        for A, B in [([1, 2], 3), ([2, 4, 5], 9), ([1, 5, 6], 7), ([1, 2, 4], 6)]:
            got = _collector_value(subset_sum_to_smo(A, B))
            sums = {
                sum(c)
                for r in range(len(A) + 1)
                for c in itertools.combinations(A, r)
            }
            assert got <= B and got in sums

    @pytest.mark.parametrize(
        "A,B",
        [
            ([0, 1], 1),
            ([2, 2], 2),
            ([3], 2),
            ([1, 2], 4),
            ([], 0),
            # non-ints are refused, not truncated
            ([2.7, 1], 3),
            ([True, 2], 2),
            (["3", 1], 3),
            ([1, 2], 3.0),
            ([1, 2], True),
            (3, 3),
            ("12", 3),
        ],
    )
    def test_preconditions(self, A, B):
        with pytest.raises(InvalidInputError):
            subset_sum_to_smo(A, B)


class TestPartition:
    def test_image_is_weakly_ranked(self):
        inst = partition_to_smo([2, 3, 3, 2])
        assert classify(inst).weakly_ranked
        assert inst.m == 2

    @pytest.mark.parametrize(
        "P,values",
        [
            ([3, 3], [3, 3]),
            ([3, 3, 2, 2], [5, 5]),
            ([5, 3, 2], [5, 5]),  # {5} vs {3, 2}
        ],
    )
    def test_balanced_split_found(self, P, values):
        assert _college_values(partition_to_smo(P)) == values

    def test_unbalanced_detected(self):
        # total 8, but the 6 cannot be split: best is (6, 2)
        assert _college_values(partition_to_smo([6, 1, 1])) == [6, 2]

    @pytest.mark.parametrize(
        "P",
        [[3, 2], [0, 2], [-1, 1], [2.7, 2.2, 3, 1], [True, 1], ["2", 2], 4, "22"],
    )
    def test_preconditions(self, P):
        with pytest.raises(InvalidInputError):
            partition_to_smo(P)


class TestThreePartition:
    def test_equal_sum_parts_sizes_unconstrained(self):
        # {3, 3} and {3, 1, 1, 1} both sum to 6: a yes-instance even though
        # the parts are not triples
        assert _college_values(three_partition_to_smo([3, 3, 3, 1, 1, 1])) == [6, 6]

    def test_single_group(self):
        assert _college_values(three_partition_to_smo([5, 4, 3])) == [12]

    def test_no_equal_split(self):
        # 7 > 12/2, so two equal parts of 6 are impossible
        assert _college_values(three_partition_to_smo([7, 1, 1, 1, 1, 1])) == [7, 5]

    @pytest.mark.parametrize(
        "P",
        [[1, 2], [1, 2, 3, 4], [0, 3, 3], [1, 1, 1, 1, 1, 2], [5, 4, 3.0], [5, 4, "3"]],
    )
    def test_preconditions(self, P):
        with pytest.raises(InvalidInputError):
            three_partition_to_smo(P)


class TestBinPacking:
    def test_shapes(self):
        inst = bin_packing_to_smo(["3/5", "3/5"], 2, 1)
        assert (inst.n, inst.m) == (3, 3)
        assert inst.capacities == (1, 1, 1)

    def test_uniform_packable(self):
        # two items of 3/5 fit into two bins; collector holds only the dummy
        inst = bin_packing_to_smo([Fraction(3, 5)] * 2, 2, 1)
        assert _collector_value(inst) == (1 + 1) * inst.n  # == 6

    def test_uniform_unpackable(self):
        # three items of 3/5 cannot fit into two bins
        inst = bin_packing_to_smo([Fraction(3, 5)] * 3, 2, 1)
        assert _collector_value(inst) == 16  # two refugees at (t+1)n = 8

    def test_replicated_packable(self):
        inst = bin_packing_to_smo([Fraction(1, 2)] * 2, 2, 2)
        assert _collector_value(inst) == 3 * inst.n  # == 15, dummy only

    def test_replicated_unpackable(self):
        inst = bin_packing_to_smo([Fraction(3, 5)] * 3, 2, 2)
        assert _collector_value(inst) == 63  # three refugees at (t+1)n = 21

    def test_heterogeneous_weights_break_the_correspondence(self):
        # {2/5, 3/5} and {1/2, 1/2} pack into two bins, yet the leximin
        # optimum still parks two items at the collector: with unequal
        # weights a locally poorer bin can outweigh the global packing, so
        # the collector criterion is only trusted for uniform weights
        inst = bin_packing_to_smo(
            [Fraction(2, 5), Fraction(3, 5), Fraction(1, 2), Fraction(1, 2)], 2, 1
        )
        assert _collector_value(inst) == 20  # not (t+1)n == 10

    def test_epsilon_validation(self):
        with pytest.raises(InvalidInputError):
            bin_packing_to_smo([Fraction(1, 2)] * 2, 2, 1, epsilon=Fraction(1, 2))
        with pytest.raises(InvalidInputError):
            bin_packing_to_smo([Fraction(1, 2)] * 2, 2, 1, epsilon=0)

    @pytest.mark.parametrize(
        "w,k,t",
        [
            ([Fraction(3, 2)], 1, 1),  # weight above 1
            ([Fraction(1, 2)] * 2, 1, 1),  # fewer than two bins
            ([Fraction(1, 2)], 2, 1),  # fewer items than bins
            ([Fraction(1, 2)] * 2, 2, 0),  # no replication
            ([Fraction(1, 2)] * 2, 2.9, 1),  # bins not an int
            ([Fraction(1, 2)] * 2, True, 1),
            ([Fraction(1, 2)] * 2, 2, 1.0),  # replication not an int
            (Fraction(1, 2), 2, 1),  # weights not a list
        ],
    )
    def test_preconditions(self, w, k, t):
        with pytest.raises(InvalidInputError):
            bin_packing_to_smo(w, k, t)


class TestReductionSpec:
    def test_round_trips_to_builders(self):
        a = ReductionSpec("subset_sum", {"integers": [1, 2], "target": 3}).build()
        assert a == subset_sum_to_smo([1, 2], 3)
        b = ReductionSpec("balanced_partition", {"integers": [3, 3]}).build()
        assert b == partition_to_smo([3, 3])
        c = ReductionSpec("three_partition", {"integers": [5, 4, 3]}).build()
        assert c == three_partition_to_smo([5, 4, 3])
        d = ReductionSpec(
            "bin_packing", {"weights": ["1/2", "1/2"], "bins": 2, "replicate": 2}
        ).build()
        assert d == bin_packing_to_smo([Fraction(1, 2)] * 2, 2, t=2)

    @pytest.mark.parametrize(
        "kind, data",
        [
            ("balanced_partition", {"integers": [2.7, 2.2, 3, 1]}),
            ("subset_sum", {"integers": [1, 2], "target": True}),
            ("bin_packing", {"weights": ["1/2", "1/2"], "bins": 2.9}),
            ("bin_packing", {"weights": ["1/2", "1/2"], "bins": "2"}),
        ],
    )
    def test_refuses_non_int_input(self, kind, data):
        with pytest.raises(InvalidInputError, match="must be an int"):
            ReductionSpec(kind, data).build()

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            ReductionSpec("vertex_cover", {}).build()

    @pytest.mark.parametrize("kind", [["x"], {"subset_sum": 1}, None])
    def test_a_kind_that_is_not_a_string_is_unknown(self, kind):
        # an unhashable kind too, rather than a TypeError from the lookup
        with pytest.raises(InvalidInputError, match="^unknown reduction kind "):
            ReductionSpec(kind, {}).build()

    @pytest.mark.parametrize("data", [5, [1, 2], "integers", None])
    def test_refuses_data_that_is_not_a_dict(self, data):
        with pytest.raises(InvalidInputError, match="^reduction input must be a JSON object$"):
            ReductionSpec("subset_sum", data).build()

    @pytest.mark.parametrize(
        "kind, data, unknown",
        [
            ("balanced_partition", {"integers": [1, 1], "replicate": 2}, "'replicate'"),
            ("subset_sum", {"integers": [1, 2], "target": 2, "bogus": 3}, "'bogus'"),
            ("three_partition", {"integers": [5, 4, 3], "target": 4, "bins": 1}, "'bins', 'target'"),
            ("bin_packing", {"weights": ["1/2", "1/2"], "bins": 2, "bin": 3}, "'bin'"),
        ],
    )
    def test_refuses_keys_its_kind_does_not_read(self, kind, data, unknown):
        with pytest.raises(InvalidInputError, match=f"unknown keys {unknown};"):
            ReductionSpec(kind, data).build()

    @pytest.mark.parametrize(
        "kind, data, missing",
        [
            ("balanced_partition", {}, "'integers'"),
            ("subset_sum", {}, "'integers', 'target'"),
            ("subset_sum", {"integers": [1, 2]}, "'target'"),
            ("three_partition", {}, "'integers'"),
            ("bin_packing", {"weights": ["1/2"]}, "'bins'"),
            ("bin_packing", {"epsilon": "1/100"}, "'weights', 'bins'"),
        ],
    )
    def test_names_every_missing_required_key(self, kind, data, missing):
        with pytest.raises(InvalidInputError) as info:
            ReductionSpec(kind, data).build()
        assert str(info.value) == f"{kind} input lacks required keys {missing}"

    def test_reads_every_key_it_names(self):
        # epsilon and replicate are optional, but a bin-packing input may give them
        data = {"weights": ["1/2", "1/2"], "bins": 2, "replicate": 1, "epsilon": "1/100"}
        assert ReductionSpec("bin_packing", data).build() == bin_packing_to_smo(
            [Fraction(1, 2)] * 2, 2, epsilon=Fraction(1, 100)
        )

    @pytest.mark.parametrize(
        "source, data",
        [
            ("partition", {"integers": [1, 1], "replicate": 2}),
            ("subset-sum", {"integers": [1, 2], "target": 2, "bogus": 3}),
        ],
    )
    def test_cli_exits_2_on_an_unknown_key(self, tmp_path, capsys, source, data):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        assert main(["reduce", "--from", source, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown keys" in captured.err

    @pytest.mark.parametrize(
        "source, data, message",
        [
            ("partition", {}, "balanced_partition input lacks required keys 'integers'"),
            ("subset-sum", {"integers": [1, 2]}, "subset_sum input lacks required keys 'target'"),
            ("bin-packing", {"bins": 2}, "bin_packing input lacks required keys 'weights'"),
        ],
    )
    def test_cli_exits_2_on_a_missing_key(self, tmp_path, capsys, source, data, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        assert main(["reduce", "--from", source, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
