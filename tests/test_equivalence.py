"""Every solver's output on a fixed generated sweep, pinned by digest.

``tests/data/equivalence.json`` maps each sweep instance's key to the sha256
of ``report.to_json_dict()`` (canonical JSON) for every solver, and for
``solve_dispatch``'s auto route (column ``dispatch``, which pins the
routing), or of the error raised.  cap_fast and cap_fast_gen are other
names for fast and fast_gen, so they have no column.  The sweep covers
every generator kind at sizes up to 60 students and 8 colleges, ranked
inputs also at 12 colleges (where fast_gen's trial search does the most
work), two colleges at 40 students
(longer m=2 walks), capacities none and random, tie-heavy ranked values (``value_max`` n+3, keys ending in
``/ties``), a few isometric ``Instance.from_matrix`` inputs on which fast's
walk meets exact ties (keys ``tie_rich/...``), and for each instance one
image scaled to denominators of 5, 7 and 35.  Strict two-college inputs
whose fans sit on both sides and whose walks run 10 or more moves (keys
``two_sided/...``, one of them with binding capacities) pin the m=2 solver
beyond the generated sweep, where such walks are rare.  Ranked inputs on which
fast_gen's look-ahead commits its run (keys ``look_ahead/...``) pin that
branch, which the generated sweep reaches without a commit.  Ranked isometric
grids of the tableau family (keys ``tableau/...``, see ``conftest.tableau``),
with values drawn tight (from [1, nm]) and wide (from [1, 50nm]), pin the
ranked solvers off the row-separated inputs that ``generate`` draws.  A change that keeps outputs
as they are (a refactor, a speed-up) must leave every digest in place; the
digests change only in a change that states an output change, which
records them again with

    PYTHONPATH=src python tests/test_equivalence.py --record

which prints each (key, column) whose digest moved.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lexmatch import (
    GenSpec,
    Instance,
    LexmatchError,
    classify,
    fast,
    fast_const,
    fast_gen,
    generate,
    oracle_leximin,
    solve_dispatch,
)
from lexmatch import fastgen
from lexmatch.fast import fast_admissible
from lexmatch.generate import KINDS

from conftest import tableau

DATA = Path(__file__).resolve().parent / "data" / "equivalence.json"
SIZES = ((2, 2), (5, 2), (7, 3), (16, 3), (30, 5), (40, 2), (60, 8))
# fast_gen's trial search saves the most at many colleges
RANKED_SIZES = SIZES + ((60, 12),)
TIE_RICH_SEEDS = range(6)
ORACLE_MAX_N = 7


def _oracle(instance):
    return oracle_leximin(instance, require_complete=True, respect_capacities=True)


SOLVERS = {
    "fast": fast,
    "fast_gen": fast_gen,
    "fast_const": fast_const,
    "oracle": _oracle,
    "dispatch": solve_dispatch,
}


def _image(instance):
    # x -> (7x + x mod 5)/35 is strictly increasing on ints, so it keeps
    # every structural class while making denominators of 5, 7 and 35
    def f(x):
        return Fraction(7 * x + x % 5, 35)

    return Instance.build(
        [[f(x) for x in row] for row in instance.student_values],
        [[f(x) for x in row] for row in instance.college_values],
        instance.capacities,
    )


def _tie_rich(seed):
    """An isometric from_matrix instance whose matrix grows from the
    bottom-right corner by steps of 1 or 2, so that a college's total often
    equals one student's value: fast's walk meets exact ties."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    n = rng.randint(m + 2, 12)
    V = [[0] * m for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            right = V[i][j + 1] if j + 1 < m else 0
            V[i][j] = max(V[i + 1][j], right) + rng.randint(1, 2)
    return Instance.from_matrix(V[:n])


def _two_sided(n, seed, capacities=None):
    """Strict m=2: about 70% of the students prefer college 0, the rest
    college 1, each college ranks the students in random order, and every
    student value exceeds any college total, so the solver moves many
    students before the totals balance."""
    rng = random.Random(seed)
    fan = [0 if rng.random() < 0.7 else 1 for _ in range(n)]
    cv = [rng.sample(range(1, 2 * n + 1), n) for _ in range(2)]
    base = 2 * n * n + 1  # above any college total
    sv = []
    for i, b in enumerate(rng.sample(range(4 * n), n)):
        hi, lo = base + 2 * b + 1, base + 2 * b
        sv.append([hi, lo] if fan[i] == 0 else [lo, hi])
    return Instance.build(sv, cv, capacities)


TWO_SIDED = ((16, 3, None), (30, 7, None), (40, 9, None), (30, 7, (20, 13)))
# ranked inputs on which fast_gen's look-ahead commits once
LOOK_AHEAD = (
    GenSpec("ranked", 6, 4, seed=2, capacity_mode="random"),
    GenSpec("ranked", 13, 4, seed=2, value_max=16),
    GenSpec("ranked", 16, 3, seed=2, value_max=19),
)

# (n, m) of the tableau grids, each drawn with tight and wide values
TABLEAU = ((5, 3), (7, 3), (7, 4), (12, 4), (30, 5))


def _sweep():
    """(key, instance) for every instance of the sweep, in a fixed order."""
    for kind in KINDS:
        for n, m in RANKED_SIZES if kind == "ranked" else SIZES:
            for capacity_mode in ("none", "random"):
                for value_max in (None, n + 3) if kind == "ranked" else (None,):
                    spec = GenSpec(
                        kind, n, m, seed=n * m, capacity_mode=capacity_mode,
                        value_max=value_max,
                    )
                    inst = generate(spec)
                    key = f"{kind}/n{n}/m{m}/{capacity_mode}"
                    key += "" if value_max is None else "/ties"
                    yield key, inst
                    yield key + "/scaled", _image(inst)
    for seed in TIE_RICH_SEEDS:
        inst = _tie_rich(seed)
        key = f"tie_rich/n{inst.n}/m{inst.m}/s{seed}"
        yield key, inst
        yield key + "/scaled", _image(inst)
    for n, seed, capacities in TWO_SIDED:
        inst = _two_sided(n, seed, capacities)
        key = f"two_sided/n{n}/s{seed}" + ("" if capacities is None else "/capped")
        yield key, inst
        yield key + "/scaled", _image(inst)
    for spec in LOOK_AHEAD:
        inst = generate(spec)
        key = f"look_ahead/n{spec.n}/m{spec.m}/{spec.capacity_mode}/s{spec.seed}"
        key += "" if spec.value_max is None else "/ties"
        yield key, inst
        yield key + "/scaled", _image(inst)
    for n, m in TABLEAU:
        for hi in (n * m, 50 * n * m):
            key = f"tableau/n{n}/m{m}/hi{hi}"
            inst = tableau(random.Random(key), n, m, hi)
            yield key, inst
            yield key + "/scaled", _image(inst)


SWEEP = dict(_sweep())


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests(instance) -> dict:
    """Solver name -> digest of its report, or of the error it raises."""
    out = {}
    for name, solver in SOLVERS.items():
        if name == "oracle" and instance.n > ORACLE_MAX_N:
            continue
        try:
            data = solver(instance).to_json_dict()
        except LexmatchError as exc:
            data = {"error": type(exc).__name__, "message": str(exc)}
        out[name] = _digest(data)
    return out


def _recorded() -> dict:
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_the_recording_covers_the_sweep():
    assert sorted(_recorded()) == sorted(SWEEP)
    scales = {inst._kernel[0] for inst in SWEEP.values()}
    assert 1 in scales and max(scales) > 1


def test_the_sweep_reaches_fast_tie_trials():
    # the recorded digests pin fast's exact-tie rule only if some walk
    # meets a tie
    reports = [fast(inst) for inst in SWEEP.values() if fast_admissible(inst)]
    assert sum(r.counters["tuple_comparisons"] > 0 for r in reports) >= 3


def test_the_sweep_reaches_look_ahead_commits(monkeypatch):
    # the recorded digests pin fast_gen's look-ahead commit only if some
    # run commits one
    commits = []
    look_ahead = fastgen._look_ahead

    def counted(*args):
        committed = look_ahead(*args)
        commits.append(committed is not None)
        return committed

    monkeypatch.setattr(fastgen, "_look_ahead", counted)
    for inst in SWEEP.values():
        if classify(inst).ranked:
            fast_gen(inst)
    assert sum(commits) >= len(LOOK_AHEAD)


def test_int_and_digit_string_rows_give_the_same_kernel_and_flags():
    # plain ints take the column-typed fast path and digit strings the
    # value parser at scale 1; both must give one kernel and one set of flags
    for key, inst in SWEEP.items():
        _, u, v = inst._kernel
        sv, cv = list(zip(*u)), list(v)
        as_ints = Instance.build(sv, cv, inst.capacities)
        as_strings = Instance.build(
            [list(map(str, row)) for row in sv], [list(map(str, row)) for row in cv],
            inst.capacities,
        )
        assert as_ints._kernel == as_strings._kernel == (1, u, v), key
        assert classify(as_ints) == classify(as_strings) == classify(inst), key


@pytest.mark.parametrize("key", list(SWEEP))
def test_outputs_match_the_recorded_digests(key):
    assert digests(SWEEP[key]) == _recorded()[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_equivalence.py --record")
    before = _recorded() if DATA.exists() else {}
    after = {key: digests(inst) for key, inst in SWEEP.items()}
    # name every (key, column) that moved, so a stated change lists exactly what
    for key in sorted(before.keys() | after.keys()):
        was, now = before.get(key, {}), after.get(key, {})
        for column in sorted(was.keys() | now.keys()):
            if was.get(column) != now.get(column):
                print(key, column)
    DATA.parent.mkdir(exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(after, fh, indent=1, sort_keys=True)
        fh.write("\n")
