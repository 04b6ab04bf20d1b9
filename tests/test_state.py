"""The ranked solvers' integer kernel and delta comparison against the
Fraction-valued definitions in lexmatch.model."""

import itertools
import random
from fractions import Fraction

import pytest

from lexmatch import GenSpec, Instance, generate, leximin_compare, leximin_tuple
from lexmatch._state import RankedState
from lexmatch.model import EQUAL, GREATER, LESS, college_value

from conftest import random_sizes


def _verdict(a: list, b: list) -> int:
    return GREATER if a > b else LESS if a < b else EQUAL


def _scaled_by_35(instance):
    # x -> (7x + x mod 5)/35 is strictly increasing on ints, so it keeps
    # ranking and isometry while making denominators of 5, 7 and 35
    def f(x):
        return Fraction(7 * x + x % 5, 35)

    return Instance.build(
        [[f(x) for x in row] for row in instance.student_values],
        [[f(x) for x in row] for row in instance.college_values],
        instance.capacities,
    )


def _instances():
    for sizes_seed, kind in enumerate(("ranked", "ranked_isometric")):
        for n, m, seed in random_sizes(sizes_seed, 12, 14, 6, n_min=4):
            m = max(m, 2)
            specs = [GenSpec(kind, n, m, seed=seed)]
            if kind == "ranked":
                specs.append(GenSpec(kind, n, m, seed=seed, value_max=n + 3))
            for spec in specs:
                inst = generate(spec)
                yield inst
                yield _scaled_by_35(inst)


def _boundaries(instance, rng, count):
    n, m = instance.n, instance.m
    for _ in range(count):
        cuts = sorted(rng.sample(range(1, n), m - 1))
        yield [b - a for a, b in zip([0] + cuts, cuts + [n])]


INSTANCES = list(_instances())


def test_the_sweep_covers_scales_above_one():
    assert any(inst._kernel[0] > 1 for inst in INSTANCES)
    assert any(inst._kernel[0] == 1 for inst in INSTANCES)


def test_kernel_is_every_value_times_the_lcm_of_denominators():
    inst = Instance.build([["1/2", "1/3"], ["1/4", 0]], [[5, "2/3"], ["7/6", 1]])
    scale, student_rows, college_rows = inst._kernel
    assert scale == 12
    assert student_rows == ((6, 4), (3, 0))
    assert college_rows == ((60, 8), (14, 12))
    for rows, scaled in (
        (inst.student_values, student_rows),
        (inst.college_values, college_rows),
    ):
        for row, scaled_row in zip(rows, scaled):
            assert [Fraction(v, scale) for v in scaled_row] == list(row)
            assert all(type(v) is int for v in scaled_row)


@pytest.mark.parametrize("index", range(len(INSTANCES)))
def test_state_matches_the_fraction_definitions(index):
    inst = INSTANCES[index]
    rng = random.Random(index)
    scale = inst._kernel[0]
    for k in _boundaries(inst, rng, 4):
        state = RankedState(inst, k)
        mu = state.matching()
        full = leximin_tuple(inst, mu)
        tup = state.leximin()
        assert tup.values == full.values
        assert tup.agent_at == full.agent_at
        assert state.values() == [v * scale for v in full.values]
        for j in range(inst.m):
            assert state.college_value(j) == college_value(inst, mu, j) * scale

        trials = {}
        for p, q in itertools.combinations(range(inst.m), 2):
            if state.k[p] <= 1:
                continue
            removed, added = state.delta(p, q)
            trial = state.copy()
            trial.demote(p, q)
            trial_tuple = leximin_tuple(inst, trial.matching())
            assert _verdict(sorted(added), sorted(removed)) == leximin_compare(trial_tuple, full)
            trials[p, q] = (removed, added, trial_tuple)
        for (r1, a1, t1), (r2, a2, t2) in itertools.product(trials.values(), repeat=2):
            assert _verdict(sorted(a1 + r2), sorted(a2 + r1)) == leximin_compare(t1, t2)
        assert state.k == k, "delta and copies must leave the state alone"


def test_delta_of_a_trial_that_only_reshuffles_values_is_equal():
    # demote(0, 1) from k = (2, 1) moves student 1 to college 1: it removes
    # {u(1,0), v_0 total, v_1 total} = {5, 3, 2} and adds {3, 2, 5}
    inst = Instance.build([[10, 9], [5, 3], [7, 6]], [[2, 1, 0], [4, 3, 2]])
    state = RankedState(inst, [2, 1])
    removed, added = state.delta(0, 1)
    assert sorted(removed) == sorted(added) == [2, 3, 5]
    trial = state.copy()
    trial.demote(0, 1)
    assert leximin_compare(trial.leximin(), state.leximin()) == EQUAL
