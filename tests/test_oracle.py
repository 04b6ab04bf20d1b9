import itertools
import json
import math
from types import SimpleNamespace

import pytest

from lexmatch import (
    BudgetExceededError,
    GenSpec,
    InfeasibleError,
    Instance,
    Matching,
    classify,
    dump_instance,
    generate,
    is_stable,
    leximin_compare,
    leximin_tuple,
    oracle_leximin,
    solve_dispatch,
    subset_sum_to_smo,
)
from lexmatch import cli, oracle
from lexmatch.generate import CAPACITY_MODES, KINDS
from lexmatch.model import GREATER
from lexmatch.oracle import OracleBudget, candidate_count, candidates
from lexmatch.reference import ranked_dp

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

    def test_budget_counts_the_compositions_that_fit_the_capacities(self, tmp_path, capsys):
        # C(39, 7) = 15,380,937 compositions into nonempty blocks, but only
        # 6,147 of them keep every block within its capacity of 6
        inst = generate(GenSpec("ranked", 40, 8, seed=1, capacity_mode="uniform", capacity=6))
        report = oracle_leximin(inst, require_complete=True, respect_capacities=True)
        assert report.counters["enumerated"] == 6147
        exact = ranked_dp(inst)
        assert (report.matching, report.leximin) == (exact.matching, exact.leximin)
        path = tmp_path / "inst.json"
        path.write_text(dump_instance(inst))
        assert cli.main(["solve", "--instance", str(path), "--algo", "oracle"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["matching"]["assignment"] == list(exact.matching.assignment)

    def test_infeasible_when_fewer_students_than_nonempty_colleges(self):
        inst = Instance.build([[5, 4]], [[7], [6]], capacities=[1, 1])
        with pytest.raises(InfeasibleError):
            oracle_leximin(inst, require_complete=True)


def _specs(kind):
    """Specs of one generate kind at n <= 7 under capacities none, random
    and uniform (the tightest uniform bound).  The general assignment space
    is walked whole, so there it stays at (m+1)^n <= 4096, and the kinds
    that need two value cells start at n*m = 2."""
    general = kind not in ("ranked", "ranked_isometric")
    for n in range(1, 8):
        for m in range(1, n + 1):
            if general and ((m + 1) ** n > 4096 or n * m < 2):
                continue
            for mode in CAPACITY_MODES:
                yield GenSpec(kind, n, m, seed=n * m, capacity_mode=mode, capacity=-(-n // m))


@pytest.mark.parametrize("kind", KINDS)
def test_candidate_count_is_what_the_walk_visits(monkeypatch, kind):
    # a ranked walk visits only the compositions it yields; the general walk
    # visits every assignment of its product and filters after
    visited = []

    def product(*args, **kwargs):
        for assignment in itertools.product(*args, **kwargs):
            visited.append(assignment)
            yield assignment

    monkeypatch.setattr(
        oracle, "itertools", SimpleNamespace(product=product, accumulate=itertools.accumulate)
    )
    for spec in _specs(kind):
        inst = generate(spec)
        for flags in itertools.product((False, True), repeat=2):
            visited.clear()
            yielded = len(list(candidates(inst, *flags)))
            want = yielded if classify(inst).ranked else len(visited)
            assert candidate_count(inst, *flags) == want >= yielded, (spec, flags)


def test_enumerate_refuses_before_checking_any_candidate(tmp_path, capsys, monkeypatch):
    # C(204, 4) = 70,058,751 candidates, counted before the walk starts
    def is_stable(*args):
        raise AssertionError("a candidate was checked")

    monkeypatch.setattr(cli, "is_stable", is_stable)
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(generate(GenSpec("ranked", 200, 5, seed=1))))
    assert cli.main(["enumerate", "--instance", str(path)]) == 5
    assert "70058751 candidates exceed the budget of 1000000" in capsys.readouterr().err
