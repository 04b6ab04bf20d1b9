"""Structure of stable matchings on ranked instances.

When both sides share the index order as a common strict ranking, the
complete stable matchings are exactly the assignments of contiguous student
blocks to colleges in order: college j receives students w_j..w_j+k_j-1
where k is a composition of n into m non-negative parts.  A matching is
therefore representable by its boundary vector k.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .errors import InvalidInputError, NotAdmissibleError
from .model import Instance, Matching, classify


class BoundaryVector(NamedTuple("BoundaryVector", [("k", tuple)])):
    """College block sizes (k_0, ..., k_{m-1}), each >= 0."""

    __slots__ = ()

    def __new__(cls, k: tuple):
        if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in k):
            raise InvalidInputError(f"boundary vector parts must be ints >= 0: {k}")
        return super().__new__(cls, k)

    # namedtuple's _make (and so _replace) would skip the check in __new__
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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
    C(n+m-1, m-1) compositions starting at (n, 0, ..., 0).  caps is read once,
    as a list; m < 1, or caps not one plain int per part, raise at the call."""
    if m < 1:
        raise InvalidInputError(f"compositions need at least one part, got m={m}")
    caps = [n] * m if caps is None else list(caps)
    if len(caps) != m or any(type(cap) is not int for cap in caps):
        raise InvalidInputError(f"need one plain int cap per part, got {caps} for m={m}")

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

    return rec((), n, 0)


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

