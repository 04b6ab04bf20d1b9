"""Structure of stable matchings on ranked instances.

When both sides share the index order as a common strict ranking, the
complete stable matchings are exactly the assignments of contiguous student
blocks to colleges in order: college j receives students w_j..w_j+k_j-1
where k is a composition of n into m positive parts: a complete matching
leaves no college empty, so every block is nonempty.  A matching is
therefore representable by its boundary vector k.  `oracle.candidates`
lists them under require_complete.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

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
