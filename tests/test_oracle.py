import itertools
import math

import pytest

from lexmatch import (
    BudgetExceededError,
    GenSpec,
    InfeasibleError,
    Instance,
    Matching,
    generate,
    is_stable,
    leximin_compare,
    leximin_tuple,
    oracle_leximin,
    solve_dispatch,
    subset_sum_to_smo,
)
from lexmatch.model import GREATER
from lexmatch.oracle import OracleBudget

from conftest import random_instances


class TestOracle:
    def test_reference_instance(self, ref_instance):
        report = oracle_leximin(ref_instance, require_complete=True)
        assert report.leximin.values == (3, 4, 9, 16, 100, 100)
        assert report.matching.assignment == (0, 1, 1, 1)

    def test_square_identity(self):
        inst = generate(GenSpec(kind="ranked", n=4, m=4, seed=7))
        report = oracle_leximin(inst, require_complete=True)
        assert report.matching.assignment == (0, 1, 2, 3)

    def test_subset_sum_witness(self):
        # A = {1, 2, 3}, target 3: the last college can collect exactly 3
        inst = subset_sum_to_smo([1, 2, 3], 3)
        report = oracle_leximin(inst, require_complete=True)
        m = inst.m
        last = [
            i for i, j in enumerate(report.matching.assignment) if j == m - 1
        ]
        assert sum(inst.v(m - 1, i) for i in last) == 3

    def test_ranked_path_agrees_with_naive_enumeration(self):
        # the composition shortcut must return the same optimum as scanning
        # every complete assignment
        for inst in random_instances("ranked", seed=71, count=30, n_max=6, m_max=3):
            fast_path = oracle_leximin(inst, require_complete=True)
            best = None
            for assignment in itertools.product(range(inst.m), repeat=inst.n):
                mu = Matching(assignment)
                if not mu.is_complete(inst):
                    continue
                if is_stable(inst, mu) is not None:
                    continue
                t = leximin_tuple(inst, mu)
                if best is None or leximin_compare(t, best) == GREATER:
                    best = t
            assert fast_path.leximin.values == best.values

    def test_optimum_is_stable(self):
        for inst in random_instances("weak", seed=73, count=20, n_max=6, m_max=3, n_min=2):
            report = oracle_leximin(inst)
            assert is_stable(inst, report.matching) is None

    def test_counters(self, ref_instance):
        report = oracle_leximin(ref_instance)
        assert report.algorithm == "oracle"
        assert report.counters["enumerated"] == 5  # compositions of 4 into 2
        assert report.counters["stable"] == 5

    @pytest.mark.parametrize("n,m", [(6, 3), (7, 2), (5, 5), (4, 1)])
    def test_steps_count_one_candidate_per_composition(self, n, m):
        inst = generate(GenSpec(kind="ranked", n=n, m=m, seed=3))
        dispatched = solve_dispatch(inst, "oracle")
        report = oracle_leximin(inst, require_complete=True)
        # one candidate per composition of n into m nonempty blocks
        assert dispatched.steps == report.steps == math.comb(n - 1, m - 1)
        assert dispatched.counters["enumerated"] == report.counters["enumerated"]
        assert report.counters["enumerated"] == report.steps

    def test_budget_exceeded(self):
        inst = generate(GenSpec(kind="weak", n=10, m=3, seed=1))
        with pytest.raises(BudgetExceededError):
            oracle_leximin(inst, budget=OracleBudget(max_enumerated=100))

    def test_complete_budget_counts_the_nonempty_compositions(self):
        # C(9, 3) = 84 compositions of 10 into 4 nonempty blocks
        inst = generate(GenSpec("ranked", 10, 4, 0))
        report = oracle_leximin(
            inst, require_complete=True, budget=OracleBudget(84)
        )
        assert report.counters["enumerated"] == 84
        with pytest.raises(BudgetExceededError, match="84 candidates exceed"):
            oracle_leximin(inst, require_complete=True, budget=OracleBudget(83))

    def test_infeasible_when_fewer_students_than_nonempty_colleges(self):
        inst = Instance.build([[5, 4]], [[7], [6]], capacities=[1, 1])
        with pytest.raises(InfeasibleError):
            oracle_leximin(inst, require_complete=True)
