"""Seeded random instance generators for each structural regime."""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .errors import InvalidInputError
from .model import Instance, classify

KINDS = ("ranked_isometric", "ranked", "strict", "weak", "weak_ranked_isometric")
CAPACITY_MODES = ("none", "uniform", "random")


class GenSpec(NamedTuple):
    kind: str
    n: int
    m: int
    seed: int = 0
    capacity_mode: str = "none"  # none | uniform | random
    capacity: Optional[int] = None  # bound for uniform mode
    value_max: Optional[int] = None  # values drawn from [1, value_max]


def _distinct(rng: random.Random, count: int, hi: int) -> list:
    if hi < count:
        raise InvalidInputError(
            f"cannot draw {count} distinct values from [1, {hi}]"
        )
    return rng.sample(range(1, hi + 1), count)


def _capacities(spec: GenSpec, rng: random.Random):
    n, m = spec.n, spec.m
    if spec.capacity_mode == "none":
        return None
    if spec.capacity_mode == "uniform":
        b = spec.capacity
        if b is None or not 1 <= b <= n:
            raise InvalidInputError("uniform capacity mode needs a bound in [1, n]")
        if b * m < n:
            raise InvalidInputError("total capacity below the number of students")
        return [b] * m
    if spec.capacity_mode == "random":
        while True:
            caps = [rng.randint(1, n) for _ in range(m)]
            if sum(caps) >= n:
                return caps
    raise InvalidInputError(f"unknown capacity mode {spec.capacity_mode!r}")


def generate(spec: GenSpec) -> Instance:
    """Deterministic for a fixed spec; the result's classification flags are
    guaranteed to include the requested kind's defining flags."""
    n, m = spec.n, spec.m
    for name in ("n", "m", "capacity", "value_max"):
        x = getattr(spec, name)
        # type() refuses bools; capacity and value_max may be left as None
        if type(x) is not int and (x is not None or name in ("n", "m")):
            raise InvalidInputError(f"{name} must be an int, got {x!r}")
    if not n >= m >= 1:
        raise InvalidInputError("need n >= m >= 1")
    if spec.kind not in KINDS:
        raise InvalidInputError(f"unknown generator kind {spec.kind!r}")
    if n * m < 2 and spec.kind in ("strict", "weak", "weak_ranked_isometric"):
        raise InvalidInputError(f"kind {spec.kind} needs at least two value cells")
    rng = random.Random((spec.kind, n, m, spec.seed).__repr__())
    hi = spec.value_max if spec.value_max is not None else max(4 * n * m, 100)
    if hi < 1:
        raise InvalidInputError(f"value_max must be at least 1, got {hi}")
    caps = _capacities(spec, rng)

    if spec.kind == "ranked_isometric":
        # one pool of distinct values filled row-major in descending order
        # makes every row and every column strictly decreasing
        pool = sorted(_distinct(rng, n * m, hi), reverse=True)
        matrix = [pool[i * m : (i + 1) * m] for i in range(n)]
        inst = Instance.from_matrix(matrix, capacities=caps)
    elif spec.kind == "weak_ranked_isometric":
        pool = sorted((rng.randint(1, hi) for _ in range(n * m)), reverse=True)
        pool[-1] = pool[-2] if n * m > 1 else pool[-1]  # guarantee a tie
        matrix = [pool[i * m : (i + 1) * m] for i in range(n)]
        inst = Instance.from_matrix(matrix, capacities=caps)
    elif spec.kind == "ranked":
        sv = [sorted(_distinct(rng, m, hi), reverse=True) for _ in range(n)]
        cv = [sorted(_distinct(rng, n, hi), reverse=True) for _ in range(m)]
        inst = Instance.build(sv, cv, capacities=caps)
    elif spec.kind == "strict":
        while True:
            sv = [_distinct(rng, m, hi) for _ in range(n)]
            cv = [_distinct(rng, n, hi) for _ in range(m)]
            inst = Instance.build(sv, cv, capacities=caps)
            if not classify(inst).ranked:
                break
    else:  # weak
        sv = [[rng.randint(1, hi) for _ in range(m)] for _ in range(n)]
        cv = [[rng.randint(1, hi) for _ in range(n)] for _ in range(m)]
        if m > 1:
            sv[0][1] = sv[0][0]  # guarantee a tie
        else:
            cv[0][min(1, n - 1)] = cv[0][0]
        inst = Instance.build(sv, cv, capacities=caps)

    flags = classify(inst)
    if spec.kind == "ranked_isometric":
        assert flags.ranked and flags.isometric and flags.strict
    elif spec.kind == "ranked":
        assert flags.ranked
    elif spec.kind == "strict":
        assert flags.strict and not flags.ranked
    elif spec.kind == "weak_ranked_isometric":
        assert flags.weakly_ranked and flags.isometric and not flags.strict
    else:
        assert not flags.strict
    return inst
