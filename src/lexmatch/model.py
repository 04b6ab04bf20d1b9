"""Core model: instances, matchings, stability and leximin tuples.

Students and colleges are indexed from 0.  A student's additive valuation of
college j is ``u(i, j)``; a college's valuation of student i is ``v(j, i)``.
A college values a set of students by the sum of its valuations.  All values
are exact non-negative rationals (fractions.Fraction) — no floats anywhere,
because the solvers branch on exact equality.  Internally the ranked solvers
and ``classify`` work on an integer copy of the values, all scaled by the LCM
of their denominators (``Instance._kernel``), and convert back to Fraction
only for output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import ge, gt
from typing import Callable, Optional, Sequence

from .errors import InvalidInputError

Value = Fraction

# leximin_compare results
LESS = -1
EQUAL = 0
GREATER = 1


def as_value(x) -> Fraction:
    """Coerce x (int, Fraction, or a 'p/q' / decimal-integer string) to an
    exact non-negative Fraction.  Floats are rejected to avoid silent rounding."""
    if isinstance(x, bool) or isinstance(x, float):
        raise InvalidInputError(f"value must be an exact rational, got {x!r}")
    try:
        v = Fraction(x) if isinstance(x, (int, Fraction)) else Fraction(str(x))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse value {x!r}") from exc
    if v < 0:
        raise InvalidInputError(f"values must be non-negative, got {x!r}")
    return v


def value_to_str(v: Fraction) -> str:
    """Render a Fraction for the wire format: '7' or '7/3'."""
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class Instance:
    """A many-to-one matching market.

    student_values: n rows of m entries, row i = student i's value for each college.
    college_values: m rows of n entries, row j = college j's value for each student.
    capacities: one positive bound per college, each at most n.
    """

    student_values: tuple
    college_values: tuple
    capacities: tuple

    def __post_init__(self):
        n = len(self.student_values)
        m = len(self.college_values)
        if n == 0 or m == 0:
            raise InvalidInputError("instance needs at least one student and one college")
        for row in self.student_values:
            if len(row) != m:
                raise InvalidInputError("student value row length != number of colleges")
        for row in self.college_values:
            if len(row) != n:
                raise InvalidInputError("college value row length != number of students")
        for j, b in enumerate(self.capacities):
            if not isinstance(b, int) or isinstance(b, bool) or b < 1 or b > n:
                raise InvalidInputError(
                    f"capacity of college {j} must be an int in [1, n], got {b!r}"
                )
        if len(self.capacities) != m:
            raise InvalidInputError("need exactly one capacity per college")

    @property
    def n(self) -> int:
        return len(self.student_values)

    @property
    def m(self) -> int:
        return len(self.college_values)

    def u(self, i: int, j: int) -> Fraction:
        """Student i's value for college j."""
        return self.student_values[i][j]

    def v(self, j: int, i: int) -> Fraction:
        """College j's value for student i."""
        return self.college_values[j][i]

    @staticmethod
    def build(student_values, college_values, capacities=None) -> "Instance":
        """Construct from nested sequences of ints/Fractions/strings.
        Default capacities are n-1 each (n if there is a single college)."""
        sv = _value_matrix(student_values, "student_values")
        cv = _value_matrix(college_values, "college_values")
        n = len(sv)
        if capacities is None:
            m = len(cv)
            capacities = [max(1, n - 1) if m > 1 else n for _ in range(m)]
        return Instance(sv, cv, tuple(capacities))

    @staticmethod
    def from_matrix(matrix, capacities=None) -> "Instance":
        """Build an isometric instance from a single n-by-m matrix V where
        V[i][j] is both u_i(c_j) and v_j(s_i)."""
        sv = [list(row) for row in matrix]
        cv = [[row[j] for row in matrix] for j in range(len(matrix[0]))]
        return Instance.build(sv, cv, capacities)

    @cached_property
    def _kernel(self) -> tuple:
        """(scale, student_rows, college_rows): every value times `scale`, the
        LCM of all value denominators, as plain ints laid out like
        student_values and college_values.  Scaling by one positive constant
        keeps every order, equality and sum exact."""
        rows = self.student_values + self.college_values
        scale = lcm(*{x.denominator for row in rows for x in row})

        def scaled(row):
            if scale == 1:  # shares the Fractions' own int objects
                return tuple(x.numerator for x in row)
            return tuple(x.numerator * (scale // x.denominator) for x in row)

        return (
            scale,
            tuple(scaled(row) for row in self.student_values),
            tuple(scaled(row) for row in self.college_values),
        )

    @cached_property
    def _flags(self) -> "ClassificationFlags":
        _, sv, cv = self._kernel

        def strictly_decreasing(row):
            return all(map(gt, row, row[1:]))

        def non_increasing(row):
            return all(map(ge, row, row[1:]))

        strict_students = all(len(set(row)) == len(row) for row in sv)
        strict_colleges = all(len(set(row)) == len(row) for row in cv)
        ranked = all(strictly_decreasing(r) for r in sv) and all(
            strictly_decreasing(r) for r in cv
        )
        weakly_ranked = all(non_increasing(r) for r in sv) and all(
            non_increasing(r) for r in cv
        )
        isometric = tuple(zip(*cv)) == sv
        return ClassificationFlags(
            strict_students=strict_students,
            strict_colleges=strict_colleges,
            strict=strict_students and strict_colleges,
            ranked=ranked,
            weakly_ranked=weakly_ranked,
            isometric=isometric,
        )


def _value_matrix(rows, name: str) -> tuple:
    """Parse a value matrix given as a list of lists.  A string is iterable,
    so without the type check "21" would read as the row [2, 1]."""
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in rows
    ):
        raise InvalidInputError(f"{name} must be a list of value rows, each a list")
    return tuple(tuple(as_value(x) for x in row) for row in rows)


@dataclass(frozen=True)
class ClassificationFlags:
    strict_students: bool
    strict_colleges: bool
    strict: bool
    ranked: bool
    weakly_ranked: bool
    isometric: bool


def classify(instance: Instance) -> ClassificationFlags:
    """Detect which structural class the instance falls into.

    ranked means both sides share the index order as a common strict ranking:
    every student row strictly decreases in j and every college row strictly
    decreases in i.  weakly_ranked allows ties (non-increasing).  isometric
    means u_i(c_j) == v_j(s_i) for all pairs.  The flags are computed on the
    first call and kept on the (immutable) instance.
    """
    return instance._flags


class Matching:
    """An assignment of students to colleges.  assignment[i] is the college
    index of student i, or None when unmatched."""

    __slots__ = ("assignment", "_college_view")

    def __init__(self, assignment: Sequence[Optional[int]]):
        self.assignment = tuple(assignment)
        self._college_view = None

    def __eq__(self, other):
        return isinstance(other, Matching) and self.assignment == other.assignment

    def __hash__(self):
        return hash(self.assignment)

    def __repr__(self):
        return f"Matching({list(self.assignment)})"

    def college_of(self, i: int) -> Optional[int]:
        return self.assignment[i]

    def college_view(self, m: int) -> tuple:
        """Members of each college, as m tuples of ascending student indices."""
        if self._college_view is None or len(self._college_view) != m:
            view = [[] for _ in range(m)]
            for i, j in enumerate(self.assignment):
                if j is not None:
                    view[j].append(i)
            self._college_view = tuple(tuple(members) for members in view)
        return self._college_view

    def members(self, instance: Instance, j: int) -> tuple:
        return self.college_view(instance.m)[j]

    def is_complete(self, instance: Instance) -> bool:
        """No agent unmatched: every student assigned, every college nonempty."""
        if any(j is None for j in self.assignment):
            return False
        return all(len(ms) > 0 for ms in self.college_view(instance.m))

    def validate(self, instance: Instance, enforce_capacities: bool = False) -> None:
        """Raise InvalidInputError if this matching does not fit the instance.

        Capacity checking is opt-in: stability, leximin tuples and envy
        metrics are well defined for over-capacity assignments too, and the
        uncapacitated solvers treat capacities as absent.
        """
        if len(self.assignment) != instance.n:
            raise InvalidInputError("matching length != number of students")
        for i, j in enumerate(self.assignment):
            if j is None:
                continue
            if not isinstance(j, int) or j < 0 or j >= instance.m:
                raise InvalidInputError(f"student {i} assigned to invalid college {j!r}")
        if enforce_capacities:
            for j, ms in enumerate(self.college_view(instance.m)):
                if len(ms) > instance.capacities[j]:
                    raise InvalidInputError(
                        f"college {j} holds {len(ms)} students, "
                        f"capacity {instance.capacities[j]}"
                    )


def student_value(instance: Instance, matching: Matching, i: int) -> Fraction:
    j = matching.assignment[i]
    return Fraction(0) if j is None else instance.u(i, j)


def college_value(instance: Instance, matching: Matching, j: int) -> Fraction:
    return sum(
        (instance.v(j, i) for i in matching.members(instance, j)), Fraction(0)
    )


@dataclass(frozen=True)
class BlockingPair:
    """Certificate that (student, college) block the matching: the student
    strictly prefers the college to its current match and the college strictly
    prefers the student to displaced_student, one of its current members."""

    student: int
    college: int
    displaced_student: int


def is_stable(instance: Instance, matching: Matching) -> Optional[BlockingPair]:
    """Return None when stable, else the first blocking pair in (student,
    college) lexicographic order.

    (s_i, c_j) block iff u_i(c_j) > u_i(mu(s_i)) and some s_k in mu(c_j) has
    v_j(s_i) > v_j(s_k).  An empty college cannot be part of a blocking pair
    under this definition.  The displaced student reported is the member the
    college values least (smallest index on ties).
    """
    matching.validate(instance)
    view = matching.college_view(instance.m)
    # least-valued member of each nonempty college
    weakest = [None] * instance.m
    for j, ms in enumerate(view):
        if ms:
            weakest[j] = min(ms, key=lambda i: (instance.v(j, i), i))
    for i in range(instance.n):
        cur = student_value(instance, matching, i)
        here = matching.assignment[i]
        for j in range(instance.m):
            if j == here or weakest[j] is None:
                continue
            if instance.u(i, j) > cur and instance.v(j, i) > instance.v(j, weakest[j]):
                return BlockingPair(student=i, college=j, displaced_student=weakest[j])
    return None


# Agents are tagged tuples: ("s", i) for students, ("c", j) for colleges.
Agent = tuple


@dataclass(frozen=True)
class LeximinTuple:
    """All n+m agent values sorted ascending.  Agents with equal value appear
    in increasing index order, students before colleges."""

    values: tuple
    agent_at: tuple

    def position_of(self, agent: Agent) -> int:
        return self.agent_at.index(agent)


def _agent_sort_key(entry):
    value, (kind, idx) = entry
    return (value, 0 if kind == "s" else 1, idx)


def leximin_tuple(instance: Instance, matching: Matching) -> LeximinTuple:
    matching.validate(instance)
    entries = [
        (student_value(instance, matching, i), ("s", i)) for i in range(instance.n)
    ]
    entries += [
        (college_value(instance, matching, j), ("c", j)) for j in range(instance.m)
    ]
    entries.sort(key=_agent_sort_key)
    return LeximinTuple(
        values=tuple(e[0] for e in entries), agent_at=tuple(e[1] for e in entries)
    )


def leximin_compare(a: LeximinTuple, b: LeximinTuple) -> int:
    """Lexicographic comparison of the sorted value lists: LESS (-1), EQUAL
    (0) or GREATER (1).  EQUAL means the two value multisets coincide."""
    if len(a.values) != len(b.values):
        raise InvalidInputError("cannot compare leximin tuples of different lengths")
    for x, y in zip(a.values, b.values):
        if x < y:
            return LESS
        if x > y:
            return GREATER
    return EQUAL


def check_alpha_approx(optimal: LeximinTuple, candidate: LeximinTuple, alpha) -> bool:
    """Componentwise alpha-approximation check:
    alpha * optimal[t] <= candidate[t] <= optimal[t] / alpha for every t."""
    alpha = Fraction(alpha) if not isinstance(alpha, float) else Fraction(str(alpha))
    if not 0 < alpha <= 1:
        raise InvalidInputError(f"alpha must be in (0, 1], got {alpha}")
    if len(optimal.values) != len(candidate.values):
        raise InvalidInputError("tuple length mismatch")
    return all(
        alpha * o <= c and c * alpha <= o
        for o, c in zip(optimal.values, candidate.values)
    )
