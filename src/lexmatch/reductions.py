"""Executable hardness constructions: encode classic NP-hard problems as
matching instances whose leximin-optimal stable matching answers the source
problem.  These exist to stress the oracle and solvers with adversarial
structure, not to decide large instances.

All constructions use capacities n-m+1 throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidInputError
from .model import Instance, as_value


def _caps(n: int, m: int) -> list:
    return [n - m + 1] * m


def _plain_int(x, what: str) -> int:
    """x when it is a plain int.  Anything else, a bool, a float or a numeric
    string included, is refused rather than truncated."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InvalidInputError(f"{what} must be an int, got {x!r}")
    return x


def _int_list(xs, what: str) -> list:
    """xs as a list of plain ints; a string or a bare number is refused
    too (a string would iterate by character)."""
    if not isinstance(xs, (list, tuple)):
        raise InvalidInputError(f"{what} must be a list of ints, got {xs!r}")
    return [_plain_int(x, what) for x in xs]


def subset_sum_to_smo(A, B) -> Instance:
    """Encode 'does some subset of A sum to exactly B?'.

    One student and one college per integer, plus a collector college c_m
    whose final value in the leximin optimum is the best subset sum <= B:
    the subset exists iff that value equals B.  Filler students keep every
    integer college nonempty.  Requires distinct integers (duplicates would
    introduce ties in the collector's valuation row, breaking strictness).
    """
    A = _int_list(A, "subset-sum integers")
    if not A:
        raise InvalidInputError("subset-sum needs at least one integer")
    if any(a <= 0 for a in A):
        raise InvalidInputError("subset-sum integers must be positive")
    if len(set(A)) != len(A):
        raise InvalidInputError("subset-sum integers must be distinct")
    B = _plain_int(B, "subset-sum target")
    k = len(A)
    if not max(A) <= B <= sum(A):
        raise InvalidInputError("target must satisfy max(A) <= B <= sum(A)")
    m, n = k + 1, 2 * k
    eps = Fraction(1, 3 * k * k)
    u = [[0] * m for _ in range(n)]
    v = [[0] * n for _ in range(m)]
    for i in range(k):
        for j in range(m):
            if j == i:
                u[i][j] = B
            elif j == m - 1:
                u[i][j] = B - A[i] + eps
            else:
                u[i][j] = (j + 1) * eps
    for i in range(k, n):
        for j in range(m):
            u[i][j] = B if i == j + k else (j + 1) * eps
    for j in range(k):
        for i in range(n):
            if i == j + k:
                v[j][i] = 2 * B
            elif i == j:
                v[j][i] = B
            else:
                v[j][i] = (i + 1) * eps
    for i in range(n):
        v[m - 1][i] = A[i] if i < k else (i + 1) * eps
    return Instance(u, v, _caps(n, m))


def partition_to_smo(P) -> Instance:
    """Encode balanced partition: both colleges reach sum(P)/2 in the leximin
    optimum iff P splits into two equal-sum halves.  Every complete matching
    of the image instance is stable."""
    P = _int_list(P, "partition integers")
    if len(P) < 2:
        raise InvalidInputError(f"partition needs at least two integers, got {len(P)}")
    if any(p <= 0 for p in P):
        raise InvalidInputError("partition integers must be positive")
    if sum(P) % 2 != 0:
        raise InvalidInputError("total must be even for a balanced partition")
    return _uniform_columns(P, 2)


def three_partition_to_smo(P) -> Instance:
    """Encode 3-partition with k/3 colleges: all colleges reach the target
    3*sum(P)/k iff the triplet partition exists."""
    P = _int_list(P, "3-partition integers")
    k = len(P)
    if any(p <= 0 for p in P):
        raise InvalidInputError("3-partition integers must be positive")
    if k % 3 != 0 or k < 3:
        raise InvalidInputError("3-partition needs a multiple of three integers")
    if sum(P) % (k // 3) != 0:
        raise InvalidInputError("total must divide evenly across the k/3 triples")
    return _uniform_columns(P, k // 3)


def _uniform_columns(P, m: int) -> Instance:
    # heaviest first: the partition is order-free and the sort keeps the
    # image weakly ranked
    P = sorted(P, reverse=True)
    n = len(P)
    return Instance([[p] * m for p in P], [P] * m, _caps(n, m))


def bin_packing_to_smo(weights, k: int, t: int = 1, epsilon=None) -> Instance:
    """Encode bin packing, replicated t times: t disjoint copies of the
    items/bins plus one dummy student and one collector college c_m valuing
    every student at (t+1)n.  A packing exists iff the leximin optimum gives
    c_m exactly (t+1)n (only the dummy student ends up there).

    Items see same-or-earlier copies' bins at 1 - w_i + eps, later copies at
    0, and the collector at t+1; bins value items of same-or-earlier copies
    at w_i, later at 0.
    """
    if not isinstance(weights, (list, tuple)):
        raise InvalidInputError(f"weights must be a list, got {weights!r}")
    w = [as_value(x) for x in weights]
    k = _plain_int(k, "bins")
    t = _plain_int(t, "replication factor")
    ell = len(w)
    if any(not 0 <= x <= 1 for x in w):
        raise InvalidInputError("weights must lie in [0, 1]")
    if not ell >= k > 1:
        raise InvalidInputError("need at least as many items as bins and at least 2 bins")
    if t < 1:
        raise InvalidInputError("replication factor must be >= 1")
    n, m = t * ell + 1, t * k + 1
    if epsilon is None:
        epsilon = Fraction(1, 4 * n * n)
    else:
        epsilon = as_value(epsilon)
    # every strict inequality in the encoding needs eps below the smallest
    # possible overflow of a bin, i.e. 1/lcm of the weight denominators
    lcm = math.lcm(*(x.denominator for x in w))
    if not 0 < epsilon < Fraction(1, lcm):
        raise InvalidInputError(
            f"epsilon must be in (0, 1/{lcm}) for these weights, got {epsilon}"
        )
    u = [[0] * m for _ in range(n)]
    v = [[0] * n for _ in range(m)]
    for p in range(t):
        for i in range(ell):
            s = p * ell + i
            u[s][m - 1] = t + 1
            for pp in range(p + 1):  # same or earlier copy
                for j in range(k):
                    u[s][pp * k + j] = 1 - w[i] + epsilon
    u[n - 1][m - 1] = 1
    for p in range(t):
        for j in range(k):
            c = p * k + j
            for pp in range(p + 1):
                for i in range(ell):
                    v[c][pp * ell + i] = w[i]
    v[m - 1] = [(t + 1) * n] * n
    return Instance(u, v, _caps(n, m))


# the keys each reduction kind reads from its input; all but _OPTIONAL are
# required
_OPTIONAL = ("replicate", "epsilon")
_KEYS = {
    "subset_sum": ("integers", "target"),
    "balanced_partition": ("integers",),
    "three_partition": ("integers",),
    "bin_packing": ("weights", "bins", "replicate", "epsilon"),
}


class ReductionSpec(NamedTuple):
    """Declarative form of a reduction request, mirroring the CLI."""

    kind: str  # subset_sum | balanced_partition | three_partition | bin_packing
    data: dict

    def build(self) -> Instance:
        """The image instance.  Raises InvalidInputError for an unknown kind,
        data that is not a dict, a key the kind does not read (rather than
        ignore it) or a missing required key."""
        kind = self.kind
        if not isinstance(kind, str) or kind not in _KEYS:
            raise InvalidInputError(f"unknown reduction kind {kind!r}")
        if not isinstance(self.data, dict):
            raise InvalidInputError("reduction input must be a JSON object")
        unknown = sorted(set(self.data).difference(_KEYS[kind]))
        if unknown:
            raise InvalidInputError(
                f"{kind} input has unknown keys {', '.join(map(repr, unknown))}; "
                f"it reads {', '.join(map(repr, _KEYS[kind]))}"
            )
        missing = [k for k in _KEYS[kind] if k not in self.data and k not in _OPTIONAL]
        if missing:
            raise InvalidInputError(
                f"{kind} input lacks required keys {', '.join(map(repr, missing))}"
            )
        if kind == "subset_sum":
            return subset_sum_to_smo(self.data["integers"], self.data["target"])
        if kind == "balanced_partition":
            return partition_to_smo(self.data["integers"])
        if kind == "three_partition":
            return three_partition_to_smo(self.data["integers"])
        return bin_packing_to_smo(
            self.data["weights"],
            self.data["bins"],
            t=self.data.get("replicate", 1),
            epsilon=self.data.get("epsilon"),
        )
