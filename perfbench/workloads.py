"""Seeded inputs for the four benchmark workloads.

Every input is generated here rather than by ``lexmatch.generate``, so a
change to the library's generators cannot change what the benchmark runs.
Each workload is a fixed list of shapes (regime, n, m), and each shape has
one instance, derived only from (workload, shape); ``reference.json`` holds
the result the solvers gave for each of them when the benchmark was defined.
Every run times the same inputs: ``--seed`` only sets the order in which the
closed loop visits them, so two runs differ in machine noise and not in the
cost of their inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Shape:
    regime: str
    n: int
    m: int
    algo: str = "auto"

    @property
    def label(self) -> str:
        return f"{self.regime}-n{self.n}-m{self.m}"


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple
    in_process: bool


@dataclass
class Item:
    """One input of the closed loop: the wire text the program receives and
    the benchmark's own Instance used to check the output."""

    key: str
    shape: Shape
    text: str
    instance: object
    reference: dict

    @property
    def algo(self) -> str:
        return self.shape.algo


# Why each workload exists is recorded in BENCHMARK.json.  Within a
# workload the shapes are sized so that operations cost about the same: on a
# machine whose speed drifts, the median of a tight distribution moves much
# less than that of a spread-out one.
RANKED_SIZES = ((100, 8), (160, 6), (260, 4))
# capacitated solves are cheaper at equal size
CAPS_SIZES = ((140, 8), (220, 6), (360, 4))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "iso_large",
            tuple(
                Shape("iso", n, m)
                for n, m in ((2000, 4), (1600, 5), (1330, 6), (1140, 7), (1000, 8))
            ),
            in_process=True,
        ),
        Workload(
            "ranked_gen",
            tuple(Shape("ranked", n, m) for n, m in RANKED_SIZES)
            + tuple(Shape("ties", n, m) for n, m in RANKED_SIZES)
            + tuple(Shape("caps", n, m) for n, m in CAPS_SIZES),
            in_process=True,
        ),
        Workload(
            "strict_toggle",
            tuple(Shape("toggle", n, 2) for n in (150, 155, 160, 165, 170)),
            in_process=True,
        ),
        Workload(
            "small_cli",
            tuple(Shape("iso", n, m) for n, m in ((8, 2), (8, 3), (12, 3), (12, 4)))
            + tuple(Shape("ranked", n, m) for n, m in ((8, 2), (8, 3), (12, 3), (12, 4)))
            + (Shape("strict", 8, 2), Shape("strict", 12, 2))
            # the oracle's enumeration doubles with each student, so these
            # stay small enough that no input costs much more than the rest
            + (Shape("subset_sum", 4, 3, "oracle"),)
            + (Shape("partition", 6, 2, "oracle"), Shape("partition", 7, 2, "oracle")),
            in_process=False,
        ),
    )
}


# ------------------------------------------------------------ generators


def _capacities(rng, n, m):
    """Random capacities between an even share of n and twice that: they
    admit a complete matching and bind (n >= 3m keeps them below n-1)."""
    share = -(-n // m)
    return [rng.randint(share, 2 * share) for _ in range(m)]


def _ranked(rng, n, m, hi, caps=None):
    sv = [sorted(rng.sample(range(1, hi + 1), m), reverse=True) for _ in range(n)]
    cv = [sorted(rng.sample(range(1, hi + 1), n), reverse=True) for _ in range(m)]
    return sv, cv, caps


def _iso(rng, n, m):
    # one pool of distinct values filled row-major in descending order makes
    # every row and every column strictly decreasing
    pool = sorted(rng.sample(range(1, 4 * n * m + 1), n * m), reverse=True)
    sv = [pool[i * m : (i + 1) * m] for i in range(n)]
    cv = [[row[j] for row in sv] for j in range(m)]
    return sv, cv, None


def _toggle(rng, n):
    # Colleges rank students in random order (so the instance is not ranked),
    # everyone prefers college 0, and every student value exceeds any
    # possible college total: the walk must move students one at a time
    # until the two college totals balance.
    hi = 4 * n
    cv = [rng.sample(range(1, hi + 1), n) for _ in range(2)]
    floor = n * hi + 1
    sv = [[floor + 2 * b + 1, floor + 2 * b] for b in rng.sample(range(4 * n), n)]
    return sv, cv, None


def _strict_small(rng, n, m):
    hi = max(4 * n * m, 100)
    while True:
        sv = [rng.sample(range(1, hi + 1), m) for _ in range(n)]
        cv = [rng.sample(range(1, hi + 1), n) for _ in range(m)]
        if any(row != sorted(row, reverse=True) for row in sv + cv):
            return sv, cv, None


def _reduction_image(lexmatch, regime, rng, n):
    # the source problems are drawn here; the images come from the library's
    # reductions, as `lexmatch reduce` would build them
    if regime == "subset_sum":
        A = rng.sample(range(1, 30), n // 2)
        inst = lexmatch.subset_sum_to_smo(A, rng.randint(max(A), sum(A)))
    else:
        P = [rng.randint(1, 30) for _ in range(n)]
        P[0] += sum(P) % 2
        inst = lexmatch.partition_to_smo(P)
    return (
        [list(row) for row in inst.student_values],
        [list(row) for row in inst.college_values],
        list(inst.capacities),
    )


def wire_value(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def wire_dict(sv, cv, caps) -> dict:
    data = {
        "student_values": [[wire_value(x) for x in row] for row in sv],
        "college_values": [[wire_value(x) for x in row] for row in cv],
    }
    if caps is not None:
        data["capacities"] = list(caps)
    return data


def instance_dict(workload: str, shape: Shape, lexmatch) -> dict:
    """The wire-format dict of the instance of `shape`."""
    rng = random.Random(f"{workload}/{shape.label}")
    n, m, regime = shape.n, shape.m, shape.regime
    if regime == "iso":
        parts = _iso(rng, n, m)
    elif regime == "ranked":
        parts = _ranked(rng, n, m, max(4 * n * m, 100))
    elif regime == "ties":
        parts = _ranked(rng, n, m, n + 3)
    elif regime == "caps":
        parts = _ranked(rng, n, m, max(4 * n * m, 100), _capacities(rng, n, m))
    elif regime == "toggle":
        parts = _toggle(rng, n)
    elif regime == "strict":
        parts = _strict_small(rng, n, m)
    elif regime in ("subset_sum", "partition"):
        parts = _reduction_image(lexmatch, regime, rng, n)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return wire_dict(*parts)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def assert_regime(lexmatch, shape: Shape, instance) -> None:
    """Raise AssertionError unless the instance has the structure its shape
    is meant to exercise."""
    flags = lexmatch.classify(instance)
    regime = shape.regime
    ok = {
        "iso": flags.ranked and flags.isometric and flags.strict,
        "ranked": flags.ranked and not flags.isometric,
        "ties": flags.ranked and not flags.isometric,
        "caps": flags.ranked
        and not flags.isometric
        and min(instance.capacities) < instance.n - 1,
        # strict, not ranked, two colleges and capacities of at least n-1:
        # exactly the instances solve_dispatch routes to fast_const
        "toggle": flags.strict
        and not flags.ranked
        and instance.m == 2
        and min(instance.capacities) >= instance.n - 1,
        "strict": flags.strict
        and not flags.ranked
        and instance.m == 2
        and min(instance.capacities) >= instance.n - 1,
        "subset_sum": not flags.ranked,
        "partition": flags.weakly_ranked and not flags.strict,
    }[regime]
    if not ok:
        raise AssertionError(f"{shape.label}: instance is not in regime {regime}: {flags}")


def build_item(workload: str, shape: Shape, lexmatch, reference: dict) -> Item:
    data = instance_dict(workload, shape, lexmatch)
    text = json.dumps(data, separators=(",", ":"))
    instance = lexmatch.Instance.build(
        data["student_values"], data["college_values"], data.get("capacities")
    )
    assert_regime(lexmatch, shape, instance)
    key = shape.label
    ref = reference.get(key) if reference is not None else None
    if reference is not None:
        if ref is None:
            raise KeyError(f"{workload}: no reference recorded for {key}")
        if ref["sha"] != text_digest(text):
            raise ValueError(
                f"{workload}: {key} no longer matches its recorded reference; "
                "the generator changed, so record the reference again"
            )
    return Item(key=key, shape=shape, text=text, instance=instance, reference=ref)


def pool(workload: Workload, lexmatch, reference: dict) -> list:
    """The run's inputs: the instance of every shape, in shape order (the
    first item is the warm-up input)."""
    return [build_item(workload.name, shape, lexmatch, reference) for shape in workload.shapes]


def loop_order(workload: Workload, seed: int, count: int) -> list:
    """Seeded visiting order of the pool for the closed loop."""
    order = list(range(count))
    random.Random(f"order/{workload.name}/{seed}").shuffle(order)
    return order
