"""Core model: instances, matchings, stability and leximin tuples.

Students and colleges are indexed from 0.  A student's additive valuation of
college j is ``u(i, j)``; a college's valuation of student i is ``v(j, i)``.
A college values a set of students by the sum of its valuations.  All values
are exact non-negative rationals (fractions.Fraction) — no floats anywhere,
because the solvers branch on exact equality.  An instance stores only an
integer copy of the values, all scaled by the LCM of their denominators
(``Instance._kernel``): the solvers, ``classify``, ``is_stable`` and
``leximin_tuple`` work on it, and the Fraction rows read through
``student_values``, ``college_values``, ``u`` and ``v`` are built from it on
first read.  Leximin tuples are built the same way: a ``ScaledLeximin``
holds the sorted scaled ints, and its ``LeximinTuple`` of Fractions is built
only when read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from operator import ge, gt, itemgetter
from typing import NamedTuple, Optional, Sequence

from .errors import FrozenInstanceError, InvalidInputError

Value = Fraction

# leximin_compare results
LESS = -1
EQUAL = 0
GREATER = 1


def as_value(x) -> Fraction:
    """Coerce x (int, Fraction, or a 'p/q' / decimal-integer string) to an
    exact non-negative Fraction.  Floats are rejected to avoid silent rounding."""
    # the common JSON case first; type(True) is bool, so bools go on to be refused
    if type(x) is int:
        if x < 0:
            raise InvalidInputError(f"values must be non-negative, got {x!r}")
        return Fraction(x)
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


# Instance refuses attribute assignment; its own set-up writes through this
_set = object.__setattr__


class Instance:
    """A many-to-one matching market.

    student_values: n rows of m entries, row i = student i's value for each college.
    college_values: m rows of n entries, row j = college j's value for each student.
    capacities: one positive bound per college, each at most n; None gives
    n-1 each (n if there is a single college).

    Every value is parsed once into the integer kernel: matrices of plain
    non-negative ints are the kernel as they stand, anything else goes
    through as_value.  An instance stores only ``_kernel`` and the
    capacities (a tuple); ``student_values`` and ``college_values`` are
    Fraction rows built from the kernel on first read.  Instances are
    immutable (assignment raises FrozenInstanceError, an AttributeError) and
    equal when their values and capacities are.
    """

    def __init__(self, student_values, college_values, capacities):
        sv, cv = _int_rows(student_values), _int_rows(college_values)
        if sv is None or cv is None:
            kernel = _scaled(
                _value_matrix(student_values, "student_values"),
                _value_matrix(college_values, "college_values"),
            )
            _, sv, cv = kernel
        else:
            kernel = (1, sv, cv)
        n, m = len(sv), len(cv)
        if n == 0 or m == 0:
            raise InvalidInputError("instance needs at least one student and one college")
        for row in sv:
            if len(row) != m:
                raise InvalidInputError("student value row length != number of colleges")
        for row in cv:
            if len(row) != n:
                raise InvalidInputError("college value row length != number of students")
        if capacities is None:
            capacities = (max(1, n - 1) if m > 1 else n,) * m
        try:
            capacities = tuple(capacities)
        except TypeError as exc:
            raise InvalidInputError("need exactly one capacity per college") from exc
        for j, b in enumerate(capacities):
            if not isinstance(b, int) or isinstance(b, bool) or b < 1 or b > n:
                raise InvalidInputError(
                    f"capacity of college {j} must be an int in [1, n], got {b!r}"
                )
        if len(capacities) != m:
            raise InvalidInputError("need exactly one capacity per college")
        _set(self, "_kernel", kernel)
        _set(self, "capacities", capacities)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        # the kernel is a bijection of the Fraction rows
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._kernel, self.capacities) == (other._kernel, other.capacities)

    def __hash__(self):
        return hash((self._kernel, self.capacities))

    def __repr__(self):
        return (
            f"Instance(student_values={self.student_values!r}, "
            f"college_values={self.college_values!r}, capacities={self.capacities!r})"
        )

    @cached_property
    def student_values(self) -> tuple:
        scale, rows, _ = self._kernel
        return _fraction_rows(scale, rows)

    @cached_property
    def college_values(self) -> tuple:
        scale, _, rows = self._kernel
        return _fraction_rows(scale, rows)

    @property
    def n(self) -> int:
        return len(self._kernel[1])

    @property
    def m(self) -> int:
        return len(self._kernel[2])

    def u(self, i: int, j: int) -> Fraction:
        """Student i's value for college j."""
        return self.student_values[i][j]

    def v(self, j: int, i: int) -> Fraction:
        """College j's value for student i."""
        return self.college_values[j][i]

    @staticmethod
    def build(student_values, college_values, capacities=None) -> "Instance":
        """The constructor, with capacities optional: values are nested
        sequences of ints/Fractions/strings."""
        return Instance(student_values, college_values, capacities)

    @staticmethod
    def from_matrix(matrix, capacities=None) -> "Instance":
        """Build an isometric instance from a single n-by-m matrix V where
        V[i][j] is both u_i(c_j) and v_j(s_i)."""
        sv = [list(row) for row in matrix]
        cv = [[row[j] for row in matrix] for j in range(len(matrix[0]))]
        return Instance.build(sv, cv, capacities)

    @cached_property
    def _flags(self) -> "ClassificationFlags":
        _, sv, cv = self._kernel
        # students: one C-level scan per pair of adjacent columns, not one
        # Python call per row (n is large, m small)
        s_cols = tuple(zip(*sv))
        s_pairs = tuple(zip(s_cols, s_cols[1:]))
        ranked_s = all(all(map(gt, a, b)) for a, b in s_pairs)
        weak_s = ranked_s or all(all(map(ge, a, b)) for a, b in s_pairs)
        ranked_c = all(all(map(gt, row, row[1:])) for row in cv)
        weak_c = ranked_c or all(all(map(ge, row, row[1:])) for row in cv)
        # a strictly decreasing row has no ties
        strict_s = ranked_s or all(len(set(row)) == len(row) for row in sv)
        strict_c = ranked_c or all(len(set(row)) == len(row) for row in cv)
        return ClassificationFlags(
            strict_students=strict_s,
            strict_colleges=strict_c,
            strict=strict_s and strict_c,
            ranked=ranked_s and ranked_c,
            weakly_ranked=weak_s and weak_c,
            isometric=s_cols == cv,
        )


def _scaled(student_values, college_values) -> tuple:
    """The kernel (scale, student_rows, college_rows): every value times
    `scale`, the LCM of all value denominators, as plain ints laid out like
    student_values and college_values.  Scaling by one positive constant
    keeps every order, equality and sum exact."""
    rows = (*student_values, *college_values)
    scale = lcm(*{x.denominator for row in rows for x in row})

    def scaled(row):
        if scale == 1:  # shares the Fractions' own int objects
            return tuple(x.numerator for x in row)
        return tuple(x.numerator * (scale // x.denominator) for x in row)

    return (
        scale,
        tuple(scaled(row) for row in student_values),
        tuple(scaled(row) for row in college_values),
    )


def _fraction_rows(scale: int, rows) -> tuple:
    return tuple(tuple(Fraction(x, scale) for x in row) for row in rows)


def _int_rows(rows):
    """rows as a tuple of int tuples when rows is a list/tuple of list/tuple
    rows of plain non-negative ints, else None; every test runs at C speed.
    It accepts only input that as_value maps to Fraction(x) unchanged (a bool
    is not a plain int), so every refusal and its message still comes from
    as_value."""
    if type(rows) not in (list, tuple) or not set(map(type, rows)) <= {list, tuple}:
        return None
    flat = list(chain.from_iterable(rows))
    if set(map(type, flat)) != {int} or min(flat) < 0:
        return None
    return tuple(map(tuple, rows))


def _value_matrix(rows, name: str) -> tuple:
    """Parse a value matrix given as a list of lists.  A string is iterable,
    so without the type check "21" would read as the row [2, 1]."""
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in rows
    ):
        raise InvalidInputError(f"{name} must be a list of value rows, each a list")
    return tuple(tuple(as_value(x) for x in row) for row in rows)


class ClassificationFlags(NamedTuple):
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
        m = instance.m
        for i, j in enumerate(self.assignment):
            if j is None:
                continue
            if not isinstance(j, int) or isinstance(j, bool) or j < 0 or j >= m:
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


class BlockingPair(NamedTuple):
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
    _, sv, cv = instance._kernel
    # least-valued member of each nonempty college: members are in ascending
    # order and min keeps the first minimum, so ties go to the smallest index
    weakest = [
        min(members, key=cv[j].__getitem__) if members else None
        for j, members in enumerate(matching.college_view(instance.m))
    ]
    for i, (row, here) in enumerate(zip(sv, matching.assignment)):
        # a student never blocks with its own college: row[here] > row[here]
        # is false, so no j == here test is needed
        cur = 0 if here is None else row[here]
        for j, w in enumerate(weakest):
            if w is not None and row[j] > cur and cv[j][i] > cv[j][w]:
                return BlockingPair(student=i, college=j, displaced_student=w)
    return None


# Agents are tagged tuples: ("s", i) for students, ("c", j) for colleges.
Agent = tuple


class LeximinTuple(NamedTuple):
    """All n+m agent values sorted ascending.  Agents with equal value appear
    in increasing index order, students before colleges."""

    values: tuple
    agent_at: tuple

    def position_of(self, agent: Agent) -> int:
        return self.agent_at.index(agent)


class ScaledLeximin:
    """A leximin tuple on the integer kernel: ``values`` are the n+m agent
    values times ``scale``, sorted ascending, and ``agents[t]`` is the
    position of the agent that holds ``values[t]`` (i for student i, n+j for
    college j).  Scaling by one positive constant keeps order and equality,
    so the solvers compare these directly.  ``view()`` is the public
    LeximinTuple, built on first call; ``wire()`` gives the JSON strings."""

    __slots__ = ("scale", "n", "values", "agents", "_view")

    def __init__(self, scale: int, n: int, values, agents, view=None):
        self.scale, self.n, self.values, self.agents = scale, n, values, agents
        self._view = view

    @staticmethod
    def build(scale: int, student_values, college_values) -> "ScaledLeximin":
        """The record of scaled student values (by index) and college values
        (by index)."""
        vals = [*student_values, *college_values]
        # a stable sort keeps equal values in position order: students
        # first, each side by index, as LeximinTuple requires
        agents = sorted(range(len(vals)), key=vals.__getitem__)
        return ScaledLeximin(
            scale, len(student_values), list(map(vals.__getitem__, agents)), agents
        )

    @staticmethod
    def of(t: LeximinTuple) -> "ScaledLeximin":
        """The record of a LeximinTuple of exact values, kept as its view."""
        values = t.values
        scale = lcm(*{v.denominator for v in values})
        if scale == 1:
            ints = [v.numerator for v in values]
        else:
            ints = [v.numerator * (scale // v.denominator) for v in values]
        n = list(map(itemgetter(0), t.agent_at)).count("s")
        agents = [idx if kind == "s" else n + idx for kind, idx in t.agent_at]
        return ScaledLeximin(scale, n, ints, agents, t)

    def agent(self, position: int) -> Agent:
        return ("s", position) if position < self.n else ("c", position - self.n)

    def view(self) -> LeximinTuple:
        if self._view is None:
            scale, n = self.scale, self.n
            self._view = LeximinTuple(
                # Fraction(v) skips the gcd that Fraction(v, 1) runs
                values=tuple(
                    map(Fraction, self.values)
                    if scale == 1
                    else (Fraction(v, scale) for v in self.values)
                ),
                agent_at=tuple([("s", p) if p < n else ("c", p - n) for p in self.agents]),
            )
        return self._view

    def wire(self) -> list:
        """The values as the wire format's strings: '7' or '7/3'
        (Fraction's str is value_to_str)."""
        scale = self.scale
        if scale == 1:
            return list(map(str, self.values))
        return [str(Fraction(v, scale)) for v in self.values]


def scaled_leximin(instance: Instance, matching: Matching) -> ScaledLeximin:
    """The matching's leximin tuple on the integer kernel; unmatched
    students hold 0 and empty colleges 0."""
    matching.validate(instance)
    scale, sv, cv = instance._kernel
    return ScaledLeximin.build(
        scale,
        [0 if j is None else sv[i][j] for i, j in enumerate(matching.assignment)],
        [
            sum(map(cv[j].__getitem__, members))
            for j, members in enumerate(matching.college_view(instance.m))
        ],
    )


def leximin_tuple(instance: Instance, matching: Matching) -> LeximinTuple:
    return scaled_leximin(instance, matching).view()


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
