"""JSON wire format.  Indices are 0-based; exact rationals travel as "p/q"
strings (plain ints allowed on input), so round-trips are bit-exact."""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InvalidInputError
from .model import Instance, Matching, value_to_str


def _emit_value(x: Fraction):
    return int(x) if x.denominator == 1 else value_to_str(x)


def _emit_rows(scale: int, rows) -> list:
    """Kernel rows as wire rows: ints stay ints, others become "p/q"."""
    if scale == 1:
        return [list(row) for row in rows]
    return [[_emit_value(Fraction(v, scale)) for v in row] for row in rows]


def instance_to_dict(instance: Instance) -> dict:
    scale, u, v = instance._kernel
    return {
        # the kernel is college by college; the wire rows are per student
        "student_values": _emit_rows(scale, zip(*u)),
        "college_values": _emit_rows(scale, v),
        "capacities": list(instance.capacities),
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        sv = data["student_values"]
        cv = data["college_values"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError("instance JSON needs student_values and college_values") from exc
    try:
        return Instance.build(sv, cv, capacities=data.get("capacities"))
    except TypeError as exc:
        raise InvalidInputError("value matrices and capacities must be lists") from exc


def matching_to_dict(matching: Matching) -> dict:
    return {"assignment": list(matching.assignment)}


def matching_from_dict(data: dict) -> Matching:
    try:
        assignment = data["assignment"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError("matching JSON needs an assignment list") from exc
    if not isinstance(assignment, (list, tuple)):
        raise InvalidInputError("matching JSON needs an assignment list")
    out = []
    for j in assignment:
        if j is None:
            out.append(None)
        elif isinstance(j, int) and not isinstance(j, bool):
            out.append(j)
        else:
            raise InvalidInputError("assignment entries must be ints or null")
    return Matching(out)


def dump_instance(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2)


def load_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON: {exc}") from exc
    return instance_from_dict(data)


def dump_matching(matching: Matching) -> str:
    return json.dumps(matching_to_dict(matching), indent=2)


def load_matching(text: str) -> Matching:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON: {exc}") from exc
    return matching_from_dict(data)
