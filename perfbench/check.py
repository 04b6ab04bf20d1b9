"""Output check for one operation, run outside the timed operation.

An output fails when it is not a solver report, when its matching is not a
complete, capacity-respecting matching of the instance, when ``is_stable``
finds a blocking pair, when the reported tuple differs from
``leximin_tuple(instance, matching)``, or when the tuple is leximin-worse
than the reference recorded for the instance.  A strictly better tuple is
``improved``, not a failure.  Where an oracle result is recorded (small
instances) a tuple that differs from it fails too.
"""

from __future__ import annotations

import json
from fractions import Fraction

OK = "ok"
IMPROVED = "improved"


def encode_assignment(assignment) -> list:
    """Run-length form [[college, count], ...] of a complete assignment."""
    runs = []
    for j in assignment:
        if runs and runs[-1][0] == j:
            runs[-1][1] += 1
        else:
            runs.append([j, 1])
    return runs


def decode_assignment(runs) -> list:
    return [j for j, count in runs for _ in range(count)]


def reference_values(lexmatch, instance, runs) -> tuple:
    return lexmatch.leximin_tuple(instance, lexmatch.Matching(decode_assignment(runs))).values


def check_output(lexmatch, item, text: str, require=None) -> str:
    """Return OK, IMPROVED or the name of the first failed condition.
    `require` optionally checks the parsed report and returns a failure name
    or None."""
    try:
        report = json.loads(text)
        assignment = report["matching"]["assignment"]
        values = tuple(Fraction(x) for x in report["leximin"])
    except (ValueError, KeyError, TypeError):
        return "bad_output"
    instance = item.instance
    matching = lexmatch.Matching(assignment)
    try:
        matching.validate(instance, enforce_capacities=True)
    except lexmatch.InvalidInputError:
        return "invalid_matching"
    if not matching.is_complete(instance):
        return "incomplete"
    if lexmatch.is_stable(instance, matching) is not None:
        return "unstable"
    if values != lexmatch.leximin_tuple(instance, matching).values:
        return "tuple_mismatch"
    if require is not None:
        failure = require(report)
        if failure is not None:
            return failure
    # tuples of equal length compare lexicographically, which is the
    # leximin order on sorted value lists
    reference = reference_values(lexmatch, instance, item.reference["ref"])
    if values < reference:
        return "worse_than_reference"
    if "oracle" in item.reference:
        if values != reference_values(lexmatch, instance, item.reference["oracle"]):
            return "oracle_mismatch"
    return IMPROVED if values > reference else OK
