"""Brute-force ground truth: enumerate, filter by stability, take the
leximin maximum.  Deliberately has no shared code with the solvers beyond
the core model, so it can serve as an independent check.  The oracle's
budget and `lexmatch enumerate --budget` are one rule: candidate_count gives
the exact number of candidates the walk would visit, capacities included,
and a walk over budget is refused before it starts."""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import BudgetExceededError, InfeasibleError, InvalidInputError
from .model import (
    Instance,
    Matching,
    classify,
    is_stable,
    leximin_tuple,  # not called here; kept bound for perfbench/spans.py
    scaled_leximin,
)
from .ranked import enumerate_stable
from .report import SolverReport


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


def candidate_count(
    instance: Instance, require_complete: bool = False, respect_capacities: bool = False
) -> int:
    """How many matchings `candidates` visits with the same arguments.  On a
    ranked instance it yields every one it visits: the compositions of n
    into m parts, each part at least 1 under require_complete and at most
    its college's capacity under respect_capacities, counted part by part
    with prefix sums in O(m n).  Elsewhere it visits every assignment of
    the n students, (m+1)^n or m^n, and filters them after."""
    n, m = instance.n, instance.m
    if not classify(instance).ranked:
        return (m if require_complete else m + 1) ** n
    lo = 1 if require_complete else 0
    ways = [1] + [0] * n  # ways[t]: compositions of t into the parts so far
    for cap in instance.capacities if respect_capacities else (n,) * m:
        # the next part is lo..cap: ways[t] becomes ways[t-cap] + ... + ways[t-lo]
        sums = list(itertools.accumulate(ways, initial=0))
        ways = [sums[max(t - lo + 1, 0)] - sums[max(t - cap, 0)] for t in range(n + 1)]
    return ways[n]


def _budgeted_walk(
    instance: Instance, require_complete: bool, respect_capacities: bool, budget: int
) -> Iterator[Matching]:
    """`candidates`, refused up front if budget is not a plain non-negative
    int (a bool is not) or the walk would visit more than budget."""
    if type(budget) is not int or budget < 0:
        raise InvalidInputError(f"budget must be a non-negative int, got {budget!r}")
    count = candidate_count(instance, require_complete, respect_capacities)
    if count > budget:
        raise BudgetExceededError(f"{count} candidates exceed the budget of {budget}")
    return candidates(instance, require_complete, respect_capacities)


def oracle_leximin(
    instance: Instance,
    require_complete: bool = False,
    respect_capacities: bool = False,
    budget: int = 10**7,
) -> SolverReport:
    """Leximin-optimal stable matching by exhaustive search.  Ranked
    instances only need one candidate per contiguous block assignment; all
    other instances get the full assignment space.  Ties in the optimum go to
    the first-enumerated matching.  budget caps the candidates visited."""
    walk = _budgeted_walk(instance, require_complete, respect_capacities, budget)
    best = best_tuple = None
    enumerated = stable_count = 0
    for mu in walk:
        enumerated += 1
        if is_stable(instance, mu) is not None:
            continue
        stable_count += 1
        # every candidate shares the instance's scale, so a list compare of
        # the scaled values is the leximin order
        t = scaled_leximin(instance, mu)
        if best is None or t.values > best_tuple.values:
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
