"""Brute-force ground truth: enumerate, filter by stability, take the
leximin maximum.  Deliberately has no shared code with the solvers beyond
the core model, so it can serve as an independent check."""

from __future__ import annotations

from itertools import accumulate
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
    instance: Instance, require_complete=False, respect_capacities=False, budget: int = 10**7
) -> Iterator[Matching]:
    """The one walk of the oracle and `lexmatch enumerate`.  Ranked input
    under require_complete needs one matching per composition of n into m
    nonempty blocks (enumerate_stable), refused before the walk if they
    number more than budget, a plain non-negative int; all other input gets
    _pruned_walk, refused once it tries more than budget placements."""
    if type(budget) is not int or budget < 0:
        raise InvalidInputError(f"budget must be a non-negative int, got {budget!r}")
    if not (require_complete and classify(instance).ranked):
        return _pruned_walk(instance, require_complete, respect_capacities, budget)
    n = instance.n
    ways = [1] + [0] * n  # ways[t]: compositions of t into the parts so far
    for cap in instance.capacities if respect_capacities else (n,) * instance.m:
        # the next part is 1..cap: ways[t] becomes ways[t-cap] + ... + ways[t-1]
        sums = list(accumulate(ways, initial=0))
        ways = [sums[t] - sums[max(t - cap, 0)] for t in range(n + 1)]
    if ways[n] > budget:
        raise BudgetExceededError(f"{ways[n]} candidates exceed the budget of {budget}")
    return enumerate_stable(instance, require_complete, respect_capacities)


def _pruned_walk(instance, require_complete, respect_capacities, budget) -> Iterator[Matching]:
    """The stable matchings in the product's order: students 0..n-1 placed
    depth first on an explicit stack, each to None (unless require_complete),
    then to colleges 0..m-1.  A placement is cut when the college is full,
    when the student blocks with a nonempty college, when the college's
    floor (least member value) falls and an earlier student now blocks with
    it, or when too few students remain to fill the empty colleges.  Floors
    only fall, so a blocking pair among placed students stays blocking."""
    _, u, v = instance._kernel
    n, m = instance.n, instance.m
    caps = instance.capacities if respect_capacities else (n,) * m
    choices = range(m) if require_complete else (None, *range(m))
    size, floor = [0] * m, [1 + max(map(max, v))] * m  # floor[j]: above all v while j is empty
    placed = []  # per placed student: college, value there, the college's old floor
    tries = [0]  # tries[i]: how many of student i's choices have been tried
    tried = 0
    while tries:
        i = len(tries) - 1
        if len(placed) > i:  # student i's subtree is done: take it out
            c, _, old = placed.pop()
            if c is not None:
                size[c], floor[c] = size[c] - 1, old
        if tries[i] == len(choices):
            tries.pop()
            continue
        c = choices[tries[i]]
        tries[i] += 1
        tried += 1
        if tried > budget:
            raise BudgetExceededError(f"placements tried exceed the budget of {budget}")
        mine, old = (0, None) if c is None else (u[c][i], floor[c])
        if c is not None and size[c] == caps[c]:
            continue
        if any(uj[i] > mine and vj[i] > f for uj, vj, f in zip(u, v, floor)):
            continue
        if c is not None:
            low = v[c][i]
            # an earlier student blocks if it prefers c and c prefers it to low
            if low < old and any(x > h and y > low for x, (_, h, _), y in zip(u[c], placed, v[c])):
                continue
            size[c], floor[c] = size[c] + 1, min(low, old)
        placed.append((c, mine, old))
        if require_complete and size.count(0) > n - 1 - i:
            continue
        if i + 1 < n:
            tries.append(0)
        else:
            yield Matching([c for c, _, _ in placed])


def oracle_leximin(
    instance: Instance, require_complete=False, respect_capacities=False, budget: int = 10**7
) -> SolverReport:
    """Leximin-optimal stable matching by exhaustive search: every one of
    `candidates` is judged by is_stable, and ties in the optimum go to the
    first-enumerated matching."""
    best = best_tuple = None
    enumerated = stable_count = 0
    for mu in candidates(instance, require_complete, respect_capacities, budget):
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
