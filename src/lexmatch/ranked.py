"""Structure of stable matchings on ranked instances.

When both sides share the index order as a common strict ranking, the
complete stable matchings are exactly the assignments of contiguous student
blocks to colleges in order: college j receives students w_j..w_j+k_j-1
where k is a composition of n into m non-negative parts.  A matching is
therefore representable by its boundary vector k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InvalidInputError, NotAdmissibleError
from .model import Instance, Matching, classify


@dataclass(frozen=True)
class BoundaryVector:
    """College block sizes (k_0, ..., k_{m-1}), each >= 0."""

    k: tuple

    def __post_init__(self):
        if any((not isinstance(x, int)) or x < 0 for x in self.k):
            raise InvalidInputError(f"boundary vector parts must be ints >= 0: {self.k}")


def _require_ranked(instance: Instance) -> None:
    if not classify(instance).ranked:
        raise NotAdmissibleError("operation requires a ranked instance")


def matching_from_boundary(instance: Instance, boundary: BoundaryVector) -> Matching:
    """Build the contiguous-block matching described by the boundary vector."""
    _require_ranked(instance)
    k = boundary.k
    if len(k) != instance.m or sum(k) != instance.n:
        raise InvalidInputError(
            f"boundary vector {k} does not partition {instance.n} students "
            f"into {instance.m} blocks"
        )
    return assignment_from_sizes(k)


def assignment_from_sizes(k) -> Matching:
    """Internal fast path: no classification check, k assumed consistent."""
    assignment = []
    for j, size in enumerate(k):
        assignment.extend([j] * size)
    return Matching(assignment)


def boundary_from_matching(instance: Instance, matching: Matching) -> Optional[BoundaryVector]:
    """Inverse of matching_from_boundary.  Returns None when the matching is
    not a contiguous complete assignment (equivalently: not stable, by the
    block characterization)."""
    _require_ranked(instance)
    matching.validate(instance)
    if any(j is None for j in matching.assignment):
        return None
    # college indices must be non-decreasing along the student order
    seq = matching.assignment
    if any(a > b for a, b in zip(seq, seq[1:])):
        return None
    k = [0] * instance.m
    for j in seq:
        k[j] += 1
    return BoundaryVector(tuple(k))


def compositions(n: int, m: int, min_part: int = 0, caps=None) -> Iterator[tuple]:
    """Yield compositions of n into m parts, first part descending, each part
    in [min_part, cap].  With min_part=0 and no caps this yields all
    C(n+m-1, m-1) compositions starting at (n, 0, ..., 0)."""
    if caps is None:
        caps = [n] * m

    def rec(prefix, remaining, idx):
        if idx == m - 1:
            if min_part <= remaining <= caps[idx]:
                yield prefix + (remaining,)
            return
        tail_min = min_part * (m - idx - 1)
        tail_max = sum(caps[idx + 1 :])
        hi = min(remaining - tail_min, caps[idx])
        lo = max(min_part, remaining - tail_max)
        for part in range(hi, lo - 1, -1):
            yield from rec(prefix + (part,), remaining - part, idx + 1)

    yield from rec((), n, 0)


def enumerate_stable(
    instance: Instance,
    require_complete: bool = False,
    respect_capacities: bool = False,
) -> Iterator[Matching]:
    """Stream every complete-on-students stable matching of a ranked instance,
    i.e. one matching per boundary vector, in descending lexicographic k
    order.  require_complete additionally forces every block nonempty;
    respect_capacities filters blocks by the colleges' capacities."""
    _require_ranked(instance)
    caps = list(instance.capacities) if respect_capacities else None
    min_part = 1 if require_complete else 0
    for k in compositions(instance.n, instance.m, min_part=min_part, caps=caps):
        yield assignment_from_sizes(k)


def demote(matching: Matching, student: int, down: int, up: int) -> Matching:
    """Chain demotion: move `student` (the weakest member of college down-1)
    into college `down`, then refill each college on the chain from its left
    neighbour, ending with college `up` giving up one student.

    Preconditions (violations raise InvalidInputError): up < down; the chain
    colleges up..down-1 each end exactly one student lower than the next, so
    the weakest member of college p is student - (down-1-p); college up is
    nonempty.  Between colleges, block sizes other than up/down are preserved.
    """
    if up < 0 or up >= down:
        raise InvalidInputError(f"demote needs up < down, got up={up} down={down}")
    assignment = list(matching.assignment)
    n = len(assignment)
    if not 0 <= student < n:
        raise InvalidInputError(f"no such student {student}")
    if assignment[student] != down - 1:
        raise InvalidInputError(
            f"student {student} is matched to {assignment[student]}, not college {down - 1}"
        )
    # the chain: student - (down-1-p) must be the weakest (highest-index)
    # member of college p, for p = up .. down-1
    for p in range(up, down):
        mover = student - (down - 1 - p)
        if mover < 0 or assignment[mover] != p:
            raise InvalidInputError(
                f"chain misaligned: expected student {mover} in college {p}"
            )
        if any(
            a == p and i > mover for i, a in enumerate(assignment)
        ):
            raise InvalidInputError(
                f"student {mover} is not the weakest member of college {p}"
            )
    for p in range(down, up, -1):
        mover = student - (down - p)
        assignment[mover] = p
    return Matching(assignment)
