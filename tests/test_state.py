"""The ranked solvers' integer kernel and trial records against the
Fraction-valued definitions in lexmatch.model."""

import itertools
import random
from fractions import Fraction

import pytest

from lexmatch import GenSpec, Instance, generate, leximin_compare, leximin_tuple
from lexmatch._state import RankedState, initial_boundary
from lexmatch.model import EQUAL, GREATER, LESS, college_value, student_value
from lexmatch.ranked import assignment_from_sizes

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
    scale, u, v = inst._kernel
    assert scale == 12
    # college by college: u[j][i] is student i's value for college j
    assert u == ((6, 3), (4, 0))
    assert v == ((60, 8), (14, 12))
    for rows, scaled in (
        (tuple(zip(*inst.student_values)), u),
        (inst.college_values, v),
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
        scaled = state.leximin()
        assert scaled.view() == full
        assert scaled.values == [v * scale for v in full.values]
        n = inst.n
        assert [("s", p) if p < n else ("c", p - n) for p in scaled.agents] == list(full.agent_at)
        for j in range(inst.m):
            assert state._total[j] == college_value(inst, mu, j) * scale
        assert list(map(state.college_of, range(inst.n))) == list(mu.assignment)
        before = state.values()
        for x in set(before):
            assert state.holders(x) == [a for a, y in enumerate(before) if y == x]

        table = state.table()
        trials = {}
        for p, q in itertools.combinations(range(inst.m), 2):
            if state.k[p] <= 1:
                continue
            changes = {}
            state.record(changes, table, p, q)
            removed, added = map(list, zip(*changes.values()))
            trial = state.copy()
            trial.demote(p, q)
            trial_tuple = leximin_tuple(inst, trial.matching())
            assert list(map(trial.college_of, range(inst.n))) == list(
                trial.matching().assignment
            )
            assert _verdict(sorted(added), sorted(removed)) == leximin_compare(trial_tuple, full)
            # the record lists every agent whose value differs, old and new
            after = trial.values()
            assert all(
                before[a] == old and after[a] == new for a, (old, new) in changes.items()
            )
            assert all(before[a] == after[a] for a in range(len(before)) if a not in changes)
            trials[p, q] = (removed, added, trial_tuple)
        for (r1, a1, t1), (r2, a2, t2) in itertools.product(trials.values(), repeat=2):
            assert _verdict(sorted(a1 + r2), sorted(a2 + r1)) == leximin_compare(t1, t2)
        assert state.k == k, "records and copies must leave the state alone"


def test_the_record_of_a_trial_that_only_reshuffles_values_is_equal():
    # demote(0, 1) from k = (2, 1) moves student 1 to college 1: it removes
    # {u(1,0), v_0 total, v_1 total} = {5, 3, 2} and adds {3, 2, 5}
    inst = Instance.build([[10, 9], [5, 3], [7, 6]], [[2, 1, 0], [4, 3, 2]])
    state = RankedState(inst, [2, 1])
    changes = {}
    state.record(changes, state.table(), 0, 1)
    removed, added = zip(*changes.values())
    assert sorted(removed) == sorted(added) == [2, 3, 5]
    trial = state.copy()
    trial.demote(0, 1)
    assert leximin_compare(trial.leximin().view(), state.leximin().view()) == EQUAL


def _chain_instances():
    # uncapacitated and capacitated ranked instances, each with its scaled image
    for sizes_seed, kind in enumerate(("ranked", "ranked_isometric"), start=7):
        for n, m, seed in random_sizes(sizes_seed, 6, 12, 5, n_min=4):
            m = max(m, 2)
            for capacity_mode in ("none", "random"):
                inst = generate(GenSpec(kind, n, m, seed=seed, capacity_mode=capacity_mode))
                yield inst
                yield _scaled_by_35(inst)


CHAIN_INSTANCES = list(_chain_instances())


def _check_against_fractions(inst, state):
    """Every read of the state equals its definition on Fraction values."""
    scale = inst._kernel[0]
    k = state.k
    mu = state.matching()
    full = leximin_tuple(inst, mu)
    scaled = state.leximin()
    assert scaled.values == [x * scale for x in full.values]
    assert scaled.view() == full
    for j in range(inst.m):
        assert state._total[j] == college_value(inst, mu, j) * scale
    for p, q in itertools.combinations(range(inst.m), 2):
        if k[p] <= 1:
            continue
        trial_k = list(k)
        trial_k[p] -= 1
        trial_k[q] += 1
        trial = assignment_from_sizes(trial_k)
        # the agents demote(p, q) touches: colleges p..q and the bottom
        # student of each of p..q-1
        movers = [sum(k[: t + 1]) - 1 for t in range(p, q)]
        removed = [college_value(inst, mu, t) for t in range(p, q + 1)]
        removed += [student_value(inst, mu, i) for i in movers]
        added = [college_value(inst, trial, t) for t in range(p, q + 1)]
        added += [student_value(inst, trial, i) for i in movers]
        changes = {}
        state.record(changes, state.table(), p, q)
        got_removed, got_added = zip(*changes.values())
        assert sorted(got_removed) == sorted(x * scale for x in removed)
        assert sorted(got_added) == sorted(x * scale for x in added)


def _starts(inst, rng):
    """The left-heavy fill, then random complete boundaries within the
    capacities."""
    yield initial_boundary(inst)
    found = 0
    for k in _boundaries(inst, rng, 40):
        if all(size <= cap for size, cap in zip(k, inst.capacities)):
            yield k
            found += 1
            if found == 2:
                return


@pytest.mark.parametrize("index", range(len(CHAIN_INSTANCES)))
def test_random_demote_chains_keep_the_state_exact(index):
    inst = CHAIN_INSTANCES[index]
    rng = random.Random(1000 + index)
    caps = inst.capacities
    for k in list(_starts(inst, rng)):
        state = RankedState(inst, k)
        _check_against_fractions(inst, state)
        for _ in range(3 * inst.n):
            moves = [
                (p, q)
                for p, q in itertools.combinations(range(inst.m), 2)
                if state.k[p] > 1 and state.k[q] < caps[q]
            ]
            if not moves:
                break
            p, q = rng.choice(moves)
            before = state.copy()
            state.demote(p, q)
            assert before.k != state.k, "a copy must not share the boundary vector"
            _check_against_fractions(inst, before)
            _check_against_fractions(inst, state)
