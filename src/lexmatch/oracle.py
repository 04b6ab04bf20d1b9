"""Brute-force ground truth: enumerate, filter by stability, take the
leximin maximum.  Deliberately has no shared code with the solvers beyond
the core model, so it can serve as an independent check."""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from .errors import BudgetExceededError, InfeasibleError
from .model import (
    GREATER,
    Instance,
    Matching,
    classify,
    is_stable,
    leximin_compare,
    leximin_tuple,
)
from .ranked import enumerate_stable
from .report import SolverReport


class OracleBudget(NamedTuple):
    """Cap on how many candidate matchings the oracle may enumerate."""

    max_enumerated: int = 10**7


def candidates(
    instance: Instance, require_complete: bool = False, respect_capacities: bool = False
) -> Iterator[Matching]:
    """Every matching that can be stable under the constraints, in a fixed
    order.  Ranked instances need only one per contiguous block assignment
    (enumerate_stable); all other instances get the full assignment space."""
    if classify(instance).ranked:
        yield from enumerate_stable(instance, require_complete, respect_capacities)
        return
    n, m = instance.n, instance.m
    choices = range(m) if require_complete else [None, *range(m)]
    for assignment in itertools.product(choices, repeat=n):
        if respect_capacities:
            if any(
                assignment.count(j) > instance.capacities[j] for j in range(m)
            ):
                continue
        mu = Matching(assignment)
        if require_complete and not mu.is_complete(instance):
            continue
        yield mu


def candidate_count(instance: Instance, require_complete: bool = False) -> int:
    """Size of the space `candidates` walks: on a ranked instance the
    compositions of n into m parts, C(n+m-1, m-1), or C(n-1, m-1) when every
    part must be nonempty; else every assignment of the n students."""
    n, m = instance.n, instance.m
    if classify(instance).ranked:
        return math.comb(n - 1 if require_complete else n + m - 1, m - 1)
    return (m if require_complete else m + 1) ** n


def oracle_leximin(
    instance: Instance,
    require_complete: bool = False,
    respect_capacities: bool = False,
    budget: OracleBudget = OracleBudget(),
) -> SolverReport:
    """Leximin-optimal stable matching by exhaustive search.  Ranked
    instances only need one candidate per contiguous block assignment; all
    other instances get the full assignment space.  Ties in the optimum go to
    the first-enumerated matching."""
    count = candidate_count(instance, require_complete)
    if count > budget.max_enumerated:
        raise BudgetExceededError(
            f"{count} candidates exceed the oracle budget of {budget.max_enumerated}"
        )
    best = best_tuple = None
    enumerated = stable_count = 0
    for mu in candidates(instance, require_complete, respect_capacities):
        enumerated += 1
        if is_stable(instance, mu) is not None:
            continue
        stable_count += 1
        t = leximin_tuple(instance, mu)
        if best is None or leximin_compare(t, best_tuple) == GREATER:
            best, best_tuple = mu, t
    if best is None:
        raise InfeasibleError("no stable matching satisfies the requested constraints")
    return SolverReport(
        algorithm="oracle",
        matching=best,
        leximin=best_tuple,
        steps=enumerated,
        counters={"enumerated": enumerated, "stable": stable_count},
    )
