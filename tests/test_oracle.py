import ast
import itertools
import json
import math
import operator
import random
from pathlib import Path

import pytest

from lexmatch import (
    BudgetExceededError,
    GenSpec,
    InfeasibleError,
    Instance,
    InvalidInputError,
    Matching,
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
from lexmatch.oracle import candidates
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
        # the pruned walk yields only stable matchings: the 5 compositions
        # of 4 into 2 and 10 that leave a suffix of the students unmatched
        assert report.counters["enumerated"] == 15
        assert report.counters["stable"] == 15

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
            oracle_leximin(inst, budget=100)

    def test_complete_budget_counts_the_nonempty_compositions(self):
        # C(9, 3) = 84 compositions of 10 into 4 nonempty blocks
        inst = generate(GenSpec("ranked", 10, 4, 0))
        report = oracle_leximin(inst, require_complete=True, budget=84)
        assert report.counters["enumerated"] == 84
        with pytest.raises(BudgetExceededError, match="84 candidates exceed"):
            oracle_leximin(inst, require_complete=True, budget=83)

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
    """Specs of one generate kind at n <= 7 and m <= 3 under capacities
    none, random and uniform (the tightest uniform bound).  The kinds that
    need two value cells start at n*m = 2."""
    general = kind not in ("ranked", "ranked_isometric")
    for n in range(1, 8):
        for m in range(1, min(n, 3) + 1):
            if general and n * m < 2:
                continue
            for mode in CAPACITY_MODES:
                yield GenSpec(kind, n, m, seed=n * m, capacity_mode=mode, capacity=-(-n // m))


def _product_walk(inst, require_complete, respect_capacities):
    """The reference walk: every assignment of the students in
    itertools.product's order, filtered afterwards by capacity,
    completeness and stability."""
    choices = range(inst.m) if require_complete else [None, *range(inst.m)]
    for assignment in itertools.product(choices, repeat=inst.n):
        mu = Matching(assignment)
        sizes = map(len, mu.college_view(inst.m))
        if respect_capacities and any(map(operator.gt, sizes, inst.capacities)):
            continue
        if require_complete and not mu.is_complete(inst):
            continue
        if is_stable(inst, mu) is None:
            yield mu


@pytest.mark.parametrize("kind", KINDS)
def test_the_walk_yields_the_product_walks_stable_matchings_in_its_order(kind):
    # the pruned walk, and the composition walk on ranked input under
    # require_complete, yield exactly what the product walk keeps
    for spec in _specs(kind):
        inst = generate(spec)
        for flags in itertools.product((False, True), repeat=2):
            got, want = list(candidates(inst, *flags)), list(_product_walk(inst, *flags))
            assert got == want, (spec, flags)


@pytest.mark.parametrize(
    "n, caps",
    [(5, (5, 5, 5)), (6, (2, 3, 2)), (7, (2, 3, 2)), (8, (2, 3, 2)), (2, (2, 2, 2)),
     (4, (4,)), (4, (1, 1, 1, 1)), (9, (9, 1, 4, 2))],
    ids=["loose", "capped", "caps-fill", "caps-short", "few-students",
         "one-college", "one-each", "mixed"],
)
def test_the_block_walk_yields_the_capped_compositions_in_descending_lex_order(n, caps):
    # every k with 1 <= k_j <= caps[j] summing to n, each k_j largest
    # first, as colleges 0..m-1 taking the next k_j students in turn
    sizes = itertools.product(*(range(cap, 0, -1) for cap in caps))
    want = [
        Matching([j for j, kj in enumerate(k) for _ in range(kj)])
        for k in sizes if sum(k) == n
    ]
    assert list(oracle._block_walk(n, caps)) == want


# (placements tried, stable matchings) on each kind at n = 8, m = 3,
# uniform capacity 3 and seed 5, under the flag pairs (require_complete,
# respect_capacities) in product order: the figures of the walk that
# rescanned the placed students for a falling floor, before it kept a rival
# per college.  Ranked input under require_complete counts compositions
# instead, refused before the walk.
PLACEMENTS_TRIED = {
    "ranked_isometric": [(1320, 165), (900, 63), (21, 21), (3, 3)],
    "ranked": [(1320, 165), (900, 63), (21, 21), (3, 3)],
    "strict": [(1456, 193), (972, 69), (447, 37), (231, 7)],
    "weak": [(1664, 221), (1116, 74), (567, 52), (309, 12)],
    "weak_ranked_isometric": [(1320, 165), (900, 63), (351, 21), (180, 3)],
}


@pytest.mark.parametrize("kind", KINDS)
def test_the_budget_counts_the_same_placements_tried_as_the_rescanning_walk(kind):
    inst = generate(GenSpec(kind, 8, 3, seed=5, capacity_mode="uniform", capacity=3))
    flag_pairs = itertools.product((False, True), repeat=2)
    for flags, (tried, stable) in zip(flag_pairs, PLACEMENTS_TRIED[kind], strict=True):
        assert sum(1 for _ in candidates(inst, *flags, budget=tried)) == stable, flags
        with pytest.raises(BudgetExceededError):
            list(candidates(inst, *flags, budget=tried - 1))


def test_enumerate_refuses_before_checking_any_candidate(tmp_path, capsys, monkeypatch):
    # ranked input under --complete: C(199, 4) = 63,391,251 compositions,
    # counted before the walk starts
    def is_stable(*args):
        raise AssertionError("a candidate was checked")

    monkeypatch.setattr(cli, "is_stable", is_stable)
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(generate(GenSpec("ranked", 200, 5, seed=1))))
    assert cli.main(["enumerate", "--instance", str(path), "--complete"]) == 5
    assert "63391251 candidates exceed the budget of 1000000" in capsys.readouterr().err


def test_enumerate_refuses_a_deep_walk_during_the_walk(tmp_path, capsys):
    # 2,000 students deep: the walk's stack is explicit, so the refusal is
    # exit 5, not a RecursionError
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(generate(GenSpec("weak", 2000, 2, seed=1))))
    assert cli.main(["enumerate", "--instance", str(path), "--budget", "5000"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: BUDGET_EXCEEDED: placements tried exceed the budget of 5000\n"


def test_a_thousand_colleges_deep_block_walk_solves_and_enumerates(tmp_path, capsys):
    # ranked n = m = 1,000 has one composition into nonempty blocks; the
    # block walk's stack is explicit, so this is exit 0, not a RecursionError
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(generate(GenSpec("ranked", 1000, 1000, seed=1))))
    identity = list(range(1000))
    assert cli.main(["solve", "--instance", str(path), "--algo", "oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["matching"]["assignment"] == identity
    assert cli.main(["enumerate", "--instance", str(path), "--complete"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["count"], out["stable_matchings"][0]["assignment"]) == (1, identity)


def _full_row_count(n, caps):
    """The compositions of n into parts 1 <= part j <= caps[j], counted over
    every total 0..n after each part."""
    ways = [1] + [0] * n
    for cap in caps:
        ways = [sum(ways[max(t - cap, 0):t]) for t in range(n + 1)]
    return ways[n]


@pytest.mark.parametrize("n", range(1, 11))
def test_the_banded_count_equals_the_full_row_count(n):
    # caps absent, uniform at every bound (those below n/m cannot hold n)
    # and random, counted with and without respect_capacities
    rng = random.Random(n)
    for m in range(1, n + 1):
        cap_sets = [None, *([b] * m for b in range(1, n + 1))]
        cap_sets += [[rng.randint(1, n) for _ in range(m)] for _ in range(3)]
        for caps in cap_sets:
            # every student ranks colleges 0..m-1, every college students 0..n-1
            inst = Instance.build([list(range(m, 0, -1))] * n, [list(range(n, 0, -1))] * m, caps)
            for respect in (False, True):
                used = inst.capacities if respect else (n,) * m
                want = _full_row_count(n, used)
                assert oracle._block_count(n, used) == want
                walk = candidates(inst, True, respect, budget=want)
                assert sum(1 for _ in walk) == want, (m, caps, respect)
                if want:
                    refusal = f"^{want} candidates exceed the budget of {want - 1}$"
                    with pytest.raises(BudgetExceededError, match=refusal):
                        candidates(inst, True, respect, budget=want - 1)


def test_the_banded_count_at_two_thousand_colleges():
    # one composition of 2,000 into 2,000 nonempty parts, and 1,999 of
    # 2,000 into 1,999; the full rows would hold 2,000 x 2,001 counts
    assert oracle._block_count(2000, (2000,) * 2000) == 1
    assert oracle._block_count(2000, (2000,) * 1999) == 1999
    assert oracle._block_count(2000, (2,) * 1999) == 1999
    assert oracle._block_count(2000, (1,) * 1999) == 0
    assert oracle._block_count(1999, (2000,) * 2000) == 0


def test_the_oracle_imports_only_errors_model_and_report():
    # the oracle is an independent check: it shares no code with the solvers
    source = Path(__file__).resolve().parents[1] / "src" / "lexmatch" / "oracle.py"
    package = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        package.update(name for name in names if name.startswith((".", "lexmatch")))
    assert package == {".errors", ".model", ".report"}


def _refuse_to_walk(monkeypatch):
    """Make counting the compositions (which reads the flags) or starting
    the pruned walk fail the test."""

    def walk(*args):
        raise AssertionError("the walk was counted or started")

    monkeypatch.setattr(oracle, "classify", walk)
    monkeypatch.setattr(oracle, "_pruned_walk", walk)


@pytest.mark.parametrize("budget", [-1, "x", True, False, 10.0, None])
def test_a_budget_that_is_not_a_non_negative_int_is_refused_before_counting(
    monkeypatch, budget
):
    _refuse_to_walk(monkeypatch)
    inst = generate(GenSpec("ranked", 4, 2, seed=0))
    for flags in itertools.product((False, True), repeat=2):
        with pytest.raises(InvalidInputError, match="budget must be a non-negative int"):
            oracle_leximin(inst, *flags, budget=budget)


@pytest.mark.parametrize("complete", [[], ["--complete"]])
def test_enumerate_refuses_a_negative_budget_as_invalid_input(
    tmp_path, capsys, monkeypatch, complete
):
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(generate(GenSpec("ranked", 40, 8, seed=1))))
    _refuse_to_walk(monkeypatch)
    assert cli.main(["enumerate", "--instance", str(path), *complete, "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input: budget must be a non-negative int, got -1" in captured.err


def test_a_zero_budget_refuses_any_non_empty_walk(tmp_path, capsys):
    inst = generate(GenSpec("ranked", 4, 2, seed=0))
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(inst))
    args = ["enumerate", "--instance", str(path), "--budget", "0"]
    # the pruned walk refuses its first placement; under --complete the
    # C(3, 1) = 3 compositions are refused before the walk
    assert cli.main(args) == 5
    assert "placements tried exceed the budget of 0" in capsys.readouterr().err
    assert cli.main([*args, "--complete"]) == 5
    assert "3 candidates exceed the budget of 0" in capsys.readouterr().err
    for complete in (False, True):
        with pytest.raises(BudgetExceededError, match="exceed the budget of 0"):
            oracle_leximin(inst, complete, budget=0)
