"""Exact leximin reference for ranked instances, by dynamic programming.

On a ranked instance the complete stable matchings are the contiguous block
assignments, so an optimum is a vector k of block sizes.  ``ranked_dp``
walks the colleges in order and keeps, for every count c of students placed
so far, the leximin-best sorted value list of the placed students and
colleges.  It is exact because adding the same multiset to two equal-size
multisets keeps their leximin order (the cumulative counts of the added
values add to both sides): a prefix that is not the best for its count can
be swapped for the best one without making the whole tuple worse.  Equal
lists go to the lexicographically larger k, which is the oracle's tie rule
(``oracle_leximin`` keeps the first optimum in descending-lex k order); an
optimum's prefix that lost a tie to a larger one would give a larger optimal
k.  O(m n^2) candidate blocks, each merged by one sort of O(n) values.
"""

from __future__ import annotations

from .errors import InfeasibleError
from .model import Instance, scaled_leximin
from .ranked import _require_ranked, assignment_from_sizes
from .report import SolverReport


def ranked_dp(instance: Instance) -> SolverReport:
    """The leximin-optimal complete stable matching of a ranked instance
    within its capacities, as ``oracle_leximin(instance,
    require_complete=True, respect_capacities=True)`` finds it."""
    _require_ranked(instance)
    n, m = instance.n, instance.m
    _, u, v = instance._kernel
    caps = instance.capacities
    best = {0: ([], ())}  # students placed -> (sorted values, block sizes)
    candidates = 0
    for j in range(m):
        layer = {}
        for c in range(j + 1, n - (m - 1 - j) + 1):
            for a in range(max(j, c - caps[j]), c):
                if a not in best:
                    continue
                values, k = best[a]
                candidates += 1
                trial = (sorted(values + [*u[j][a:c], sum(v[j][a:c])]), (*k, c - a))
                if c not in layer or trial > layer[c]:
                    layer[c] = trial
        best = layer
    if n not in best:
        raise InfeasibleError("no stable matching satisfies the requested constraints")
    matching = assignment_from_sizes(best[n][1])
    return SolverReport(
        algorithm="ranked_dp",
        matching=matching,
        leximin=scaled_leximin(instance, matching),
        steps=candidates,
        counters={"candidates": candidates},
    )
