"""Core model: instances, matchings, stability and leximin tuples.

Students and colleges are indexed from 0.  A student's additive valuation of
college j is ``u(i, j)``; a college's valuation of student i is ``v(j, i)``.
A college values a set of students by the sum of its valuations.  All values
are exact non-negative rationals (fractions.Fraction) — no floats anywhere,
because the solvers branch on exact equality.  An instance stores an integer
copy of the values, all scaled by the LCM of their denominators and laid out
college by college (``Instance._kernel == (scale, u, v)``, where ``u[j][i]``
is student i's value for college j and ``v[j][i]`` is college j's value for
student i, so both are m tuples of n ints), and its flags (``classify``).
The solvers, ``is_stable``, ``leximin_tuple``, ``student_value``,
``college_value`` and ``fairness`` work on the kernel, and a Fraction is
made only where a value leaves the library: the Fraction rows
(``student_values``, ``college_values``, ``u``, ``v``) are built from the
kernel on first read.  ``Instance`` is the one way in: it checks rows and
shape once, then types and flags the kernel columns as it builds them.  A
``ScaledLeximin`` is built from the agents' scaled ints by position and sorts
them; who holds each, and its ``LeximinTuple`` of Fractions, are found only
when read.  It is the one form in which a solver holds its tuple and hands
it to ``SolverReport``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, islice, repeat
from math import lcm
from operator import countOf, ge, gt, iconcat
from typing import NamedTuple, Optional, Sequence

from .errors import FrozenInstanceError, InvalidInputError

Value = Fraction

# leximin_compare results
LESS = -1
EQUAL = 0
GREATER = 1


# a value string: ASCII digits, optionally '/' and more digits ('7', '7/3');
# a leading '-' is parsed so that it is refused as negative
_VALUE_STR = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def as_value(x) -> Fraction:
    """Coerce x (an int, a Fraction, or a digit string '7' or 'p/q' string
    '7/3') to an exact non-negative Fraction.  Floats are rejected to avoid
    silent rounding; any other string ('0.5', '1e3', ' 7 ', '1_000', '+3')
    cannot be parsed."""
    # the common JSON case first; type(True) is bool, so bools go on to be refused
    if type(x) is int:
        if x < 0:
            raise InvalidInputError(f"values must be non-negative, got {x!r}")
        return Fraction(x)
    if isinstance(x, bool) or isinstance(x, float):
        raise InvalidInputError(f"value must be an exact rational, got {x!r}")
    if isinstance(x, (int, Fraction)):
        v = Fraction(x)
    elif isinstance(x, str) and _VALUE_STR.fullmatch(x):
        try:
            v = Fraction(x)  # 'p/0' and over-long digit strings fail here
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse value {x!r}") from exc
    else:
        raise InvalidInputError(f"cannot parse value {x!r}")
    if v < 0:
        raise InvalidInputError(f"values must be non-negative, got {x!r}")
    return v


def value_to_str(v: Fraction) -> str:
    """Render a Fraction for the wire format: '7' or '7/3'."""
    top = _int_str(v.numerator)
    return top if v.denominator == 1 else f"{top}/{_int_str(v.denominator)}"


def _int_str(x: int) -> str:
    """str(x), exact also past the interpreter's int-to-str digit limit,
    which is left as it is: the JSON loader's refusal of over-long integers
    relies on it."""
    try:
        return str(x)
    except ValueError:
        from decimal import Decimal  # converts without the limit

        return str(Decimal(x))


class Instance:
    """A many-to-one matching market.

    student_values: n rows of m entries, row i = student i's value for each college.
    college_values: m rows of n entries, row j = college j's value for each student.
    capacities: a list or tuple of one positive bound per college, each at
    most n; None gives n-1 each (n if there is a single college).

    Both matrices must be lists of list rows, then nonempty and of fitting
    row lengths, and only then is each value parsed once into the integer
    kernel, so a shape fault is reported before a value fault.  An instance
    stores ``_kernel``, its ``_flags`` and the capacities (a tuple); the
    Fraction rows are built from the kernel on first read.  Instances are
    immutable (assignment raises FrozenInstanceError, an AttributeError) and
    equal when their values and capacities are.
    """

    def __init__(self, student_values, college_values, capacities):
        _check_rows(student_values, "student_values")
        _check_rows(college_values, "college_values")
        n, m = len(student_values), len(college_values)
        if n == 0 or m == 0:
            raise InvalidInputError("instance needs at least one student and one college")
        if set(map(len, student_values)) != {m}:
            raise InvalidInputError("student value row length != number of colleges")
        if set(map(len, college_values)) != {n}:
            raise InvalidInputError("college value row length != number of students")
        kernel, flags = _kernel(student_values, college_values)
        if capacities is None:
            capacities = (max(1, n - 1) if m > 1 else n,) * m
        elif not isinstance(capacities, (list, tuple)):
            # as for value rows: a set, a dict, bytes or a string is iterable
            # too, and would be read in its own order or element by element
            raise InvalidInputError("capacities must be a list of ints, one per college")
        capacities = tuple(capacities)
        for j, b in enumerate(capacities):
            if not isinstance(b, int) or isinstance(b, bool) or b < 1 or b > n:
                raise InvalidInputError(
                    f"capacity of college {j} must be an int in [1, n], got {b!r}"
                )
        if len(capacities) != m:
            raise InvalidInputError("need exactly one capacity per college")
        # assignment is refused, so set-up writes the fields directly
        vars(self).update(_kernel=kernel, _flags=flags, capacities=capacities)

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
        scale, u, _ = self._kernel
        return _fraction_rows(scale, zip(*u))

    @cached_property
    def college_values(self) -> tuple:
        scale, _, v = self._kernel
        return _fraction_rows(scale, v)

    @property
    def n(self) -> int:
        return len(self._kernel[1][0])

    @property
    def m(self) -> int:
        return len(self._kernel[1])

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
        V[i][j] is both u_i(c_j) and v_j(s_i).  The college rows are V's
        columns, cut as the kernel's are (_flat, _slices), so neither transpose
        makes an iterator per row.  m is the first row's length: a ragged V
        is refused by the student row check."""
        _check_rows(matrix, "matrix")
        m = len(matrix[0]) if matrix else 0
        return Instance(matrix, _slices(_flat(matrix), m), capacities)


def _check_rows(rows, name: str) -> None:
    # a string is iterable: unchecked, "21" would read as the row [2, 1]
    seq = (list, tuple)
    if not isinstance(rows, seq) or not all(map(isinstance, rows, repeat(seq))):
        raise InvalidInputError(f"{name} must be a list of value rows, each a list")


def _classify(flat, u, v) -> "ClassificationFlags":
    """The flags of student columns u, cut from the student rows laid end to
    end in `flat`, and college rows v: they ignore how values were spelled.
    An isometric kernel (tested first) whose flat values strictly fall is
    row-separated: its rows fall, and so does every column, since u[j][i]
    >= u[m-1][i] > u[0][i+1] >= u[j][i+1], and the columns are the college
    rows, so this one pass of nm - 1 compares proves it ranked.  Any other
    kernel gets the column-wise scans, after a pass that on an isometric
    kernel stops at its first failing compare."""
    isometric = u == v
    # students: one C-level scan per pair of adjacent colleges, not one
    # Python call per student (n is large, m small)
    s_pairs = tuple(zip(u, u[1:]))
    if isometric and all(map(gt, flat, islice(flat, 1, None))):
        ranked_s = ranked_c = True
    else:
        ranked_s = all(all(map(gt, a, b)) for a, b in s_pairs)
        ranked_c = all(all(map(gt, row, row[1:])) for row in v)
    weak_s = ranked_s or all(all(map(ge, a, b)) for a, b in s_pairs)
    weak_c = ranked_c or all(all(map(ge, row, row[1:])) for row in v)
    # a strictly decreasing row has no ties
    strict_s = ranked_s or all(len(set(row)) == len(row) for row in zip(*u))
    strict_c = ranked_c or all(len(set(row)) == len(row) for row in v)
    return ClassificationFlags(
        strict_students=strict_s,
        strict_colleges=strict_c,
        strict=strict_s and strict_c,
        ranked=ranked_s and ranked_c,
        weakly_ranked=weak_s and weak_c,
        isometric=isometric,
    )


def _flat(rows) -> tuple:
    """Rows of values laid end to end.  Extending one list by a list or
    tuple row makes no iterator, so this allocates O(1) GC-tracked objects.
    zip(*rows) would hold one iterator per row: on 2,000 rows of 4 those set
    off about 1.8 young-generation collections per build at the default
    threshold."""
    return tuple(reduce(iconcat, rows, []))


def _slices(flat: tuple, m: int) -> tuple:
    """The m columns of rows laid end to end in `flat`."""
    return tuple(flat[j::m] for j in range(m))


def _kernel(student_values, college_values) -> tuple:
    """The kernel (scale, u, v) of value matrices of checked shape, and its
    flags: every value times `scale`, the LCM of all value denominators, as
    plain ints, with the student rows flattened once (_flat) and sliced into
    columns so that both sides are m tuples of n; scaling by one positive
    constant keeps every order, equality and sum exact.  Plain non-negative
    ints (not bools) are the kernel as they stand (_int_kernel).  Anything
    else goes row by row through as_value, so a refusal names the first bad
    value in row order, and then takes the int path scaled.  An isometric
    kernel is (scale, u, u)."""
    found = _int_kernel(_flat(student_values), tuple(map(tuple, college_values)))
    if found is not None:
        return found
    sv = [tuple(map(as_value, row)) for row in student_values]
    cv = [tuple(map(as_value, row)) for row in college_values]
    scale = lcm(*{x.denominator for row in (*sv, *cv) for x in row})
    (_, u, v), flags = _kernel(
        [[x.numerator * (scale // x.denominator) for x in row] for row in sv],
        [[x.numerator * (scale // x.denominator) for x in row] for row in cv],
    )
    return (scale, u, v), flags


def _int_kernel(flat: tuple, v: tuple):
    """The kernel (1, u, v) of the student rows laid end to end in `flat`
    and college rows v, and its flags, when every value is a plain
    non-negative int; else None.  In order: the types, by one C-level
    countOf over flat and one per college row; the flags (_classify); the
    sign, where a weakly ranked kernel's rows have their minimum last."""
    # types compare by identity, so a bool, an IntEnum or any other int
    # subclass is not counted; no sequence is empty (n, m >= 1)
    if all(countOf(map(type, seq), int) == len(seq) for seq in (flat, *v)):
        u = _slices(flat, len(v))
        flags = _classify(flat, u, v)
        lows = (u[-1], [col[-1] for col in v]) if flags.weakly_ranked else chain(u, v)
        if min(map(min, lows)) >= 0:
            return (1, u, u if flags.isometric else v), flags
    return None


def _fraction_rows(scale: int, rows) -> tuple:
    return tuple(tuple(Fraction(x, scale) for x in row) for row in rows)


def _capacity_binds(instance: Instance) -> bool:
    """Some capacity can bind: one below n-1, or below n when there is a
    single college (the uncapacitated solvers assume that one of several
    colleges can take n-1 students, and a lone college all n)."""
    floor = instance.n - 1 if instance.m > 1 else instance.n
    return any(b < floor for b in instance.capacities)


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
    means u_i(c_j) == v_j(s_i) for all pairs.  The flags are computed from
    the kernel when the instance is built and kept on it.
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
        """College j's students, ascending; InvalidInputError if the
        matching does not fit the instance or j is not a college index."""
        self.validate(instance)
        if type(j) is not int or not 0 <= j < instance.m:
            raise InvalidInputError(
                f"college index must be an int in [0, {instance.m}), got {j!r}"
            )
        return self.college_view(instance.m)[j]

    def is_complete(self, instance: Instance) -> bool:
        """No agent unmatched: every student assigned, every college
        nonempty.  InvalidInputError if the matching does not fit."""
        self.validate(instance)
        if any(j is None for j in self.assignment):
            return False
        return all(len(ms) > 0 for ms in self.college_view(instance.m))

    def validate(self, instance: Instance, enforce_capacities: bool = False) -> None:
        """Raise InvalidInputError if this matching does not fit the instance.

        Capacity checking is opt-in: stability, leximin tuples and envy
        metrics are well defined for over-capacity assignments too.  The
        solvers fast, fast_gen and fast_const read the capacities off the
        instance; only oracle_leximin and candidates without
        respect_capacities, ``lexmatch enumerate`` without
        ``--respect-capacities``, and ``lexmatch verify`` ignore them.
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
    matching.validate(instance)
    if type(i) is not int or not 0 <= i < instance.n:
        raise InvalidInputError(f"student index must be an int in [0, {instance.n}), got {i!r}")
    scale, u, _ = instance._kernel
    j = matching.assignment[i]
    return Fraction(0 if j is None else u[j][i], scale)


def college_value(instance: Instance, matching: Matching, j: int) -> Fraction:
    members = matching.members(instance, j)  # validates the matching, then j
    scale, _, v = instance._kernel
    return Fraction(sum(map(v[j].__getitem__, members)), scale)


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
    _, u, v = instance._kernel
    # (college, its least-valued member, u and v columns, that member's
    # value) per nonempty college: members are in ascending order and min
    # keeps the first minimum, so ties go to the smallest index
    nonempty = []
    for j, members in enumerate(matching.college_view(instance.m)):
        if members:
            w = min(members, key=v[j].__getitem__)
            nonempty.append((j, w, u[j], v[j], v[j][w]))
    for i, here in enumerate(matching.assignment):
        # a student never blocks with its own college: u[here][i] >
        # u[here][i] is false, so no j == here test is needed
        cur = 0 if here is None else u[here][i]
        for j, w, u_j, v_j, floor in nonempty:
            if u_j[i] > cur and v_j[i] > floor:
                return BlockingPair(student=i, college=j, displaced_student=w)
    return None


class LeximinTuple(NamedTuple):
    """All n+m agent values sorted ascending, agent_at[p] tagging position p's
    agent ("s", i) or ("c", j).  Agents with equal value appear in increasing
    index order, students before colleges."""

    values: tuple
    agent_at: tuple


class ScaledLeximin:
    """A leximin tuple on the integer kernel, built from the n+m agent values
    times ``scale`` by position (student i at i, college j at n+j).
    ``values`` holds them sorted ascending, and ``agents[t]``, sorted when read,
    is the position of the agent holding ``values[t]``.  Scaling by one
    positive constant keeps order and equality, so the solvers compare these
    directly, and a SolverReport keeps the solver's own record.  ``view()``
    is the public LeximinTuple, built on first call and cached; ``wire()``
    the JSON."""

    __slots__ = ("scale", "n", "values", "_by_position", "_view")

    def __init__(self, scale: int, n: int, by_position):
        self.scale, self.n, self._by_position, self._view = scale, n, by_position, None
        self.values = sorted(by_position)

    @property
    def agents(self) -> list:
        # a stable sort keeps equal values in position order: students
        # first, each side by index, as LeximinTuple requires
        return sorted(range(len(self._by_position)), key=self._by_position.__getitem__)

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
        """The values as the wire format's strings: '7' or '7/3'."""
        if self.scale == 1:
            try:
                return list(map(str, self.values))
            except ValueError:  # a value past the int-to-str digit limit
                pass
        return [value_to_str(Fraction(v, self.scale)) for v in self.values]


def scaled_leximin(instance: Instance, matching: Matching) -> ScaledLeximin:
    """The matching's leximin tuple on the integer kernel; unmatched
    students hold 0 and empty colleges 0."""
    matching.validate(instance)
    scale, u, v = instance._kernel
    students = [0 if j is None else u[j][i] for i, j in enumerate(matching.assignment)]
    view = matching.college_view(instance.m)
    colleges = [sum(map(v[j].__getitem__, members)) for j, members in enumerate(view)]
    return ScaledLeximin(scale, instance.n, students + colleges)


def leximin_tuple(instance: Instance, matching: Matching) -> LeximinTuple:
    return scaled_leximin(instance, matching).view()


def leximin_compare(a: LeximinTuple, b: LeximinTuple) -> int:
    """Lexicographic comparison of the sorted value lists: LESS (-1), EQUAL
    (0) or GREATER (1).  EQUAL means the two value multisets coincide."""
    x, y = tuple(a.values), tuple(b.values)
    if len(x) != len(y):
        raise InvalidInputError("cannot compare leximin tuples of different lengths")
    return GREATER if x > y else LESS if x < y else EQUAL


def check_alpha_approx(optimal: LeximinTuple, candidate: LeximinTuple, alpha) -> bool:
    """Componentwise alpha-approximation check, alpha parsed by as_value:
    alpha * optimal[t] <= candidate[t] <= optimal[t] / alpha for every t."""
    alpha = as_value(alpha)
    if not 0 < alpha <= 1:
        raise InvalidInputError(f"alpha must be in (0, 1], got {alpha}")
    if len(optimal.values) != len(candidate.values):
        raise InvalidInputError("tuple length mismatch")
    return all(
        alpha * o <= c and c * alpha <= o
        for o, c in zip(optimal.values, candidate.values)
    )
