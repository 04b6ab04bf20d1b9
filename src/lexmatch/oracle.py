"""Brute-force ground truth: enumerate, filter by stability, take the
leximin maximum.  Deliberately has no shared code with the solvers beyond
the core model (it imports only errors, model and report), so it can serve
as an independent check: its walk over the contiguous block assignments of
ranked input is its own, not `ranked`'s."""

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
from .report import SolverReport


def candidates(
    instance: Instance, require_complete=False, respect_capacities=False, budget: int = 10**7
) -> Iterator[Matching]:
    """The one walk of the oracle and `lexmatch enumerate`.  Ranked input
    under require_complete needs one matching per composition of n into m
    nonempty blocks (_block_walk), refused before the walk if they number
    more than budget, a plain non-negative int; all other input gets
    _pruned_walk, refused once it tries more than budget placements."""
    if type(budget) is not int or budget < 0:
        raise InvalidInputError(f"budget must be a non-negative int, got {budget!r}")
    if not (require_complete and classify(instance).ranked):
        return _pruned_walk(instance, require_complete, respect_capacities, budget)
    n = instance.n
    caps = instance.capacities if respect_capacities else (n,) * instance.m
    count = _block_count(n, caps)
    if count > budget:
        raise BudgetExceededError(f"{count} candidates exceed the budget of {budget}")
    return _block_walk(n, caps)


def _block_count(n, caps) -> int:
    """How many compositions of n into m = len(caps) parts with 1 <= part j
    <= caps[j] there are: the number of matchings _block_walk yields.  After
    j parts only the totals j..j+n-m can still end in a full composition, so
    each row holds n-m+1 counts and the whole count is O(m(n-m+1))."""
    width = n - len(caps) + 1
    ways = [1] + [0] * (width - 1)  # ways[d]: compositions of j + d into the j parts so far
    for cap in caps:
        # the next part is 1..cap: total t gets the counts of t-cap..t-1 summed
        sums = list(accumulate(ways, initial=0))
        ways = [sums[d + 1] - sums[max(d + 1 - cap, 0)] for d in range(width)]
    return ways[-1] if width > 0 else 0


def _block_walk(n, caps) -> Iterator[Matching]:
    """The complete stable matchings of a ranked instance, which are its
    contiguous block assignments: colleges 0..m-1 take the next k_j
    students in turn, 1 <= k_j <= caps[j], each trying its largest block
    first, so k comes in descending lexicographic order.  Depth first on an
    explicit stack: a block size is cut when the later colleges cannot take
    what is left, at least one student each and at most their summed caps."""
    m = len(caps)
    room = [*accumulate(reversed(caps), initial=0)][::-1]  # room[j]: caps[j:] summed
    assignment, ks = [], []  # ks: the sizes of the blocks placed
    k = min(caps[0], n - m + 1)  # the block size that college len(ks) tries next
    while True:
        j, left = len(ks), n - len(assignment)
        if k >= max(1, left - room[j + 1]):
            if j == m - 1:  # the last college takes the rest: k == left
                yield Matching(assignment + [j] * k)
            else:
                ks.append(k)
                assignment += [j] * k
                k = min(caps[j + 1], left - k - (m - j - 2))
                continue
        if not ks:
            return
        k = ks.pop()
        del assignment[-k:]
        k -= 1


def _pruned_walk(instance, require_complete, respect_capacities, budget) -> Iterator[Matching]:
    """The stable matchings in the product's order: students 0..n-1 placed
    depth first on an explicit stack, each to None (unless require_complete),
    then to colleges 0..m-1.  A placement is cut when the college is full,
    when the student blocks with a nonempty college, when the college's
    floor (least member value) falls below its rival (the most it values a
    placed student who prefers it to their own placement), or when too few
    students remain to fill the empty colleges.  Floors only fall and
    rivals only rise, so a blocking pair among placed students stays
    blocking."""
    _, u, v = instance._kernel
    n, m = instance.n, instance.m
    u_of, v_of = list(zip(*u)), list(zip(*v))  # per student: the values by college
    caps = instance.capacities if respect_capacities else (n,) * m
    choices = range(m) if require_complete else (None, *range(m))
    size, floor = [0] * m, [1 + max(map(max, v))] * m  # floor[j]: above all v while j is empty
    # rival[j]: the most j values a placed student who prefers j to their own
    # placement, below all v while there is none
    rival = [-1] * m
    placed = []  # per placed student: college, the college's old floor, the old rivals
    tries = [0]  # tries[i]: how many of student i's choices have been tried
    tried = 0
    while tries:
        i = len(tries) - 1
        if len(placed) > i:  # student i's subtree is done: take it out
            c, old, rival = placed.pop()
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
        ui, vi = u_of[i], v_of[i]
        mine, old = (0, None) if c is None else (ui[c], floor[c])
        if c is not None and size[c] == caps[c]:
            continue
        if any(x > mine and y > f for x, y, f in zip(ui, vi, floor)):
            continue
        if c is not None:
            low = vi[c]
            if rival[c] > low:  # an earlier student now blocks with c
                continue
            size[c], floor[c] = size[c] + 1, min(low, old)
        placed.append((c, old, rival))
        rival = [max(r, y) if x > mine else r for r, x, y in zip(rival, ui, vi)]
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
