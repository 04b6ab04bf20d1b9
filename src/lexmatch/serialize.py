"""JSON wire format.  Indices are 0-based; exact rationals travel as "p/q"
strings (plain ints allowed on input), so round-trips are bit-exact."""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from operator import iconcat
from typing import Optional

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
    return Instance.build(sv, cv, capacities=data.get("capacities"))


def matching_to_dict(matching: Matching) -> dict:
    return {"assignment": list(matching.assignment)}


def matching_from_dict(data: dict) -> Matching:
    assignment = data.get("assignment") if isinstance(data, dict) else None
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


def _decode(text: str):
    # malformed JSON and over-long integers raise ValueError, deep nesting
    # RecursionError
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"bad JSON: {exc}") from exc


def load_instance(text: str) -> Instance:
    instance = _load_blocked(text) if isinstance(text, str) else None
    return instance if instance is not None else instance_from_dict(_decode(text))


# At most this many student rows are decoded at once by _load_blocked: well
# under the 700 new container objects that set off a young-generation
# collection at the default threshold.
_BLOCK_ROWS = 256
# the compact wire form, as json.dumps(instance_to_dict(...),
# separators=(",", ":")) writes it, begins with the student rows
_HEAD = '{"student_values":[['
_STUDENTS = object()  # what the student matrix decodes to while it is cut out


def _load_blocked(text: str) -> Optional[Instance]:
    """The instance of a compact wire `text`, decoded with at most
    _BLOCK_ROWS student row lists alive at a time, or None, and then the
    whole text is decoded at once as usual.

    json.loads makes one list per student row, and they all live until the
    load ends: 2,000 rows set off one or two young-generation collections
    per load, and now and then a full one, which costs more than the load.
    Here the student matrix, from the "[[" that _HEAD ends with to the first
    "]]", is cut out of the text and the rest is decoded with NaN in its
    place.  That NaN is the first constant in the text, and only it decodes
    to _STUDENTS, so the cut was the value of the last "student_values" key
    exactly when that key holds _STUDENTS.  The cut is then decoded a block
    of rows at a time, split at "],[", and each block is flattened and
    dropped before the next.  If every block decodes, its items are those of
    the whole cut, since the items of JSON arrays joined by commas are the
    items of the joined array.  A text that does not decode this way, or
    whose matrices are not of plain shape, returns None and is decoded
    whole; a bad value or capacity is refused by the checks the whole decode
    reaches with the same rows, so every refusal and its message are
    unchanged."""
    if not text.startswith(_HEAD):
        return None
    start = len(_HEAD) - 2
    first = text.find("],[", start)  # the first row runs from start + 1 to here
    if first < 0 or len(text) - start <= 4 * _BLOCK_ROWS * (first - start + 1):
        # the text, about twice the student matrix, has room for about two
        # blocks of rows like the first or fewer: the cut costs more than it
        # saves
        return None
    end = text.find("]]", start)
    if end < 0:
        return None
    pending = [_STUDENTS]
    try:
        data = json.loads(
            text[:start] + "NaN" + text[end + 2 :],
            parse_constant=lambda s: pending.pop() if s == "NaN" and pending else float(s),
        )
    except (ValueError, RecursionError):
        return None
    if type(data) is not dict or data.get("student_values") is not _STUDENTS:
        return None
    cv = data.get("college_values")
    if type(cv) is not list or not cv or set(map(type, cv)) != {list} or not cv[0]:
        return None
    m, n = len(cv), len(cv[0])
    flat, rows = [], 0
    step = (end - start) * _BLOCK_ROWS // n  # characters in about one block
    lo = start + 1  # the rows, "[..],[..],...,[..]", run from lo to end
    while lo <= end:
        cut = text.find("],[", lo + step, end + 1)
        hi = end + 1 if cut < 0 else cut + 1
        try:
            block = json.loads("[" + text[lo:hi] + "]")
        except (ValueError, RecursionError):
            return None
        if set(map(type, block)) != {list} or set(map(len, block)) != {m}:
            return None
        reduce(iconcat, block, flat)
        rows += len(block)
        del block  # its row lists go before the next block's are made
        lo = hi + 1  # past the comma
    if set(map(len, cv)) != {rows}:
        return None
    flat = tuple(flat)  # the list goes before the kernel is cut from the tuple
    return Instance._from_flat(flat, cv, data.get("capacities"))


def dump_matching(matching: Matching) -> str:
    return json.dumps(matching_to_dict(matching), indent=2)


def load_matching(text: str) -> Matching:
    return matching_from_dict(_decode(text))
