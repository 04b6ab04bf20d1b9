"""ranked_dp, the exact leximin reference for ranked instances, against the
oracle, and the ranked heuristics against it."""

import json
import random

import pytest

from lexmatch import (
    GenSpec,
    InfeasibleError,
    Instance,
    NotAdmissibleError,
    classify,
    dump_instance,
    fast,
    fast_gen,
    generate,
    oracle_leximin,
    solve_dispatch,
)
from lexmatch.cli import main
from lexmatch.reference import ranked_dp

from conftest import random_sizes, tableau


def _sizes(k_of, m):
    return tuple(k_of.count(j) for j in range(m))


def _ranked_sweep(seed, count, n_max, m_max):
    """Ranked and ranked-isometric instances under capacities none and
    random; the ranked ones also with tie-heavy values in [1, n+3]."""
    for n, m, s in random_sizes(seed, count, n_max, m_max):
        for mode in ("none", "random"):
            yield generate(GenSpec("ranked_isometric", n, m, seed=s, capacity_mode=mode))
            for value_max in (None, n + 3):
                yield generate(
                    GenSpec("ranked", n, m, seed=s, capacity_mode=mode, value_max=value_max)
                )


def test_matches_the_oracle_tuple_and_matching():
    checked = 0
    for inst in _ranked_sweep(seed=5, count=150, n_max=9, m_max=5):
        want = oracle_leximin(inst, require_complete=True, respect_capacities=True)
        got = ranked_dp(inst)
        assert (got.matching, got.leximin) == (want.matching, want.leximin), inst
        checked += 1
    assert checked == 900


@pytest.mark.parametrize("spread", ["tight", "wide"])
def test_matches_the_oracle_on_the_tableau_family(spread):
    # tight values come from [1, nm] or [1, nm+3], wide ones from [1, 3nm]
    # or [1, 50nm]; most grids are not row-separated
    rng = random.Random(spread)
    separated = 0
    for _ in range(200):
        m = rng.randint(2, 4)
        n = rng.randint(m, 8)
        hi = n * m + rng.choice((0, 3)) if spread == "tight" else n * m * rng.choice((3, 50))
        inst = tableau(rng, n, m, hi)
        want = oracle_leximin(inst, require_complete=True, respect_capacities=True)
        got = ranked_dp(inst)
        assert (got.matching, got.leximin) == (want.matching, want.leximin), inst
        rows = inst.student_values
        separated += all(rows[i][-1] > rows[i + 1][0] for i in range(n - 1))
    assert separated < 100


def test_refuses_what_the_oracle_refuses():
    with pytest.raises(NotAdmissibleError):
        ranked_dp(generate(GenSpec("strict", 6, 2, seed=4)))
    inst = generate(GenSpec("ranked", 4, 3, seed=1))
    short = Instance(inst.student_values, inst.college_values, (1, 1, 1))
    with pytest.raises(InfeasibleError):
        oracle_leximin(short, require_complete=True, respect_capacities=True)
    with pytest.raises(InfeasibleError):
        ranked_dp(short)
    # fewer students than colleges: no complete matching
    few = Instance.from_matrix([[3, 2, 1], [2, 1, 0]])
    assert classify(few).ranked
    for solver in (fast, fast_gen, solve_dispatch, ranked_dp):
        with pytest.raises(InfeasibleError):
            solver(few)


def test_the_ranked_heuristics_never_beat_it():
    below = 0
    for inst in _ranked_sweep(seed=9, count=300, n_max=16, m_max=6):
        exact = ranked_dp(inst).leximin.values
        solver = fast if classify(inst).isometric else fast_gen
        got = solver(inst).leximin.values
        assert got <= exact, inst
        below += got < exact
    assert below > 0


# The named counterexamples to fast_gen (ranked) and fast (ranked-isometric):
# GenSpec fields, the block sizes the heuristic returns, and the optimal block
# sizes (also listed in the README).
NOT_EXACT = [
    ("ranked", 4, 2, 54, 7, (3, 1), (1, 3)),
    ("ranked", 5, 3, 274, 8, (2, 2, 1), (1, 1, 3)),
    ("ranked", 6, 4, 170, 9, (2, 2, 1, 1), (1, 1, 2, 2)),
    ("ranked", 6, 3, 1, 9, (2, 3, 1), (1, 2, 3)),
    ("ranked", 7, 4, 547368, 14, (3, 2, 1, 1), (1, 2, 3, 1)),
    ("ranked", 9, 3, 486137, 15, (5, 3, 1), (5, 1, 3)),
    ("ranked", 13, 4, 466377, None, (4, 3, 2, 4), (5, 2, 2, 4)),
    ("ranked", 11, 3, 9, None, (7, 3, 1), (7, 1, 3)),
    ("ranked_isometric", 5, 2, 211977, None, (3, 2), (1, 4)),
    ("ranked_isometric", 11, 2, 20, None, (9, 2), (7, 4)),
]


@pytest.mark.parametrize("kind, n, m, seed, value_max, _returned_k, optimal_k", NOT_EXACT)
def test_named_counterexample_optimum(kind, n, m, seed, value_max, _returned_k, optimal_k):
    inst = generate(GenSpec(kind, n, m, seed=seed, value_max=value_max))
    exact = ranked_dp(inst)
    assert _sizes(exact.matching.assignment, m) == optimal_k
    solver = fast if kind == "ranked_isometric" else fast_gen
    got = solver(inst)
    assert got.leximin.values <= exact.leximin.values


def test_fast_is_not_exact_on_a_ranked_isometric_5x3():
    # strict, ranked and isometric, but not row-separated: student 1's
    # worst value, 7, is below student 2's best, 12
    inst = Instance.from_matrix([[15, 13, 11], [14, 9, 7], [12, 6, 3], [10, 5, 2], [8, 4, 1]])
    flags = classify(inst)
    assert flags.strict and flags.ranked and flags.isometric
    for got in (fast(inst), solve_dispatch(inst)):
        assert got.algorithm == "fast"
        assert _sizes(got.matching.assignment, 3) == (1, 1, 3)
        assert got.leximin.values == (1, 2, 3, 6, 9, 9, 15, 15)
    for exact in (
        ranked_dp(inst),
        oracle_leximin(inst, require_complete=True, respect_capacities=True),
    ):
        assert _sizes(exact.matching.assignment, 3) == (1, 2, 2)
        assert exact.leximin.values == (1, 2, 3, 6, 9, 15, 15, 15)


@pytest.mark.parametrize(
    "kind, n, m, seed, value_max, returned_k, optimal_k",
    [case for case in NOT_EXACT if case[2] == 2],
)
def test_dispatch_is_exact_on_the_m2_counterexamples(
    kind, n, m, seed, value_max, returned_k, optimal_k
):
    # strict m=2 goes to fast_const, which const2 proves exact
    inst = generate(GenSpec(kind, n, m, seed=seed, value_max=value_max))
    got, exact = solve_dispatch(inst), ranked_dp(inst)
    assert got.algorithm == "fast_const"
    assert (got.matching, got.leximin) == (exact.matching, exact.leximin)
    assert _sizes(got.matching.assignment, m) == optimal_k != returned_k


def test_dispatch_is_exact_on_ranked_m2():
    # every strict m=2 input goes to fast_const, capacitated ones included
    checked = 0
    for n, _, s in random_sizes(seed=13, count=150, n_max=24, m_max=1, n_min=2):
        for kind, value_max in (
            ("ranked_isometric", None), ("ranked", None), ("ranked", n + 3)
        ):
            for capacity_mode in ("none", "random", "uniform"):
                spec = GenSpec(
                    kind, n, 2, seed=s, capacity_mode=capacity_mode,
                    capacity=(n + 1) // 2 + s % (n // 2 + 1), value_max=value_max,
                )
                inst = generate(spec)
                got, exact = solve_dispatch(inst), ranked_dp(inst)
                assert got.algorithm == "fast_const"
                assert (got.matching, got.leximin) == (exact.matching, exact.leximin), spec
                checked += 1
    assert checked == 1350


def test_dispatch_is_exact_on_a_capacitated_ranked_m2_counterexample():
    # capacities (11, 5) bind; fast, where dispatch once sent capacitated
    # ranked isometric m=2, returns block sizes (9, 2)
    inst = generate(GenSpec("ranked_isometric", 11, 2, seed=20, capacity_mode="random"))
    assert inst.capacities == (11, 5)
    got, exact = solve_dispatch(inst), ranked_dp(inst)
    assert got.algorithm == "fast_const"
    assert (got.matching, got.leximin) == (exact.matching, exact.leximin)
    assert _sizes(got.matching.assignment, 2) == (7, 4) != _sizes(fast(inst).matching.assignment, 2)


def test_dispatch_solves_capacitated_strict_m2(tmp_path, capsys):
    # dispatch once refused this input (exit 3), although the class is
    # polynomial
    inst = generate(GenSpec("strict", 6, 2, seed=3, capacity_mode="uniform", capacity=4))
    got = solve_dispatch(inst)
    want = oracle_leximin(inst, require_complete=True, respect_capacities=True)
    assert got.algorithm == "fast_const"
    assert got.leximin.values == want.leximin.values
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(inst))
    assert main(["solve", "--instance", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["leximin"] == got.to_json_dict()["leximin"]
