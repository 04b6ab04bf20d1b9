"""Envy accounting, EF1/EFX checks and welfare aggregates over matchings.

Envy is measured against occupied bundles only: a student compares their
college's value to every other *nonempty* college, and a college evaluates a
rival's student set with its own additive valuation.

Everything is computed on the instance's integer kernel (every value times
one common scale, ``model``); a Fraction is made only in the returned
values, by dividing by the scale once.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple

from .model import Instance, Matching, scaled_leximin, value_to_str


def _table(instance: Instance, matching: Matching) -> tuple:
    """(scale, u, v, view, own, bundle) on the kernel: view is the members
    of each college, own[i] student i's value (0 when unmatched), and
    bundle[j][j'] college j's total for college j''s members."""
    matching.validate(instance)
    scale, u, v = instance._kernel
    view = matching.college_view(instance.m)
    own = [0 if j is None else u[j][i] for i, j in enumerate(matching.assignment)]
    bundle = [[sum(map(row.__getitem__, members)) for members in view] for row in v]
    return scale, u, v, view, own, bundle


def _envy(scale, u, v, view, own, bundle) -> tuple:
    # a student's own college, and a college's own bundle, add a gap of 0
    e_s = sum(
        x - o for j, members in enumerate(view) if members for x, o in zip(u[j], own) if x > o
    )
    e_c = sum(r - row[j] for j, row in enumerate(bundle) for r in row if r > row[j])
    return Fraction(e_s, scale), Fraction(e_c, scale), Fraction(e_s + e_c, scale)


def _bounded_envy(pick, scale, u, v, view, own, bundle) -> bool:
    # a rival bundle worth more than j's own is nonempty: values are >= 0
    return not any(
        r - pick(map(v[j].__getitem__, view[jp])) > row[j]
        for j, row in enumerate(bundle)
        for jp, r in enumerate(row)
        if r > row[j]
    )


def envy_totals(instance: Instance, matching: Matching):
    """(E_S, E_C, E_total).  E_S sums, per student, the positive gap toward
    each occupied college other than their own; unmatched students compare
    from value 0.  E_C sums, per ordered college pair, the positive gap
    between the rival bundle (valued with the envier's valuation) and the
    envier's own bundle."""
    return _envy(*_table(instance, matching))


def ef1_check(instance: Instance, matching: Matching) -> bool:
    """College-side EF1: for every ordered pair (j, j') either j does not
    envy j', or removing a single (best chosen) student from j''s bundle
    kills the envy.  Students hold at most one college each, so their side is
    trivially EF1."""
    return _bounded_envy(max, *_table(instance, matching))


def efx_check(instance: Instance, matching: Matching) -> bool:
    """College-side EFX: as EF1 but removing the *least* valued student of
    the rival bundle must already kill the envy."""
    return _bounded_envy(min, *_table(instance, matching))


def welfare(instance: Instance, matching: Matching):
    """(egalitarian, nash, utilitarian) over all n+m agent values."""
    t = scaled_leximin(instance, matching)
    return _welfare(t.scale, t.values)


def _welfare(scale: int, values) -> tuple:
    return (
        Fraction(min(values), scale),
        Fraction(prod(values), scale ** len(values)),
        Fraction(sum(values), scale),
    )


class FairnessReport(NamedTuple):
    e_s: Fraction
    e_c: Fraction
    e_total: Fraction
    ef1_colleges: bool
    efx_colleges: bool
    egalitarian: Fraction
    nash: Fraction
    utilitarian: Fraction

    def to_json_dict(self) -> dict:
        return {
            "E_S": value_to_str(self.e_s),
            "E_C": value_to_str(self.e_c),
            "E_total": value_to_str(self.e_total),
            "ef1_colleges": self.ef1_colleges,
            "efx_colleges": self.efx_colleges,
            "egalitarian": value_to_str(self.egalitarian),
            "nash": value_to_str(self.nash),
            "utilitarian": value_to_str(self.utilitarian),
        }


def fairness_report(instance: Instance, matching: Matching) -> FairnessReport:
    table = _table(instance, matching)
    scale, _, _, _, own, bundle = table
    return FairnessReport(
        *_envy(*table),
        _bounded_envy(max, *table),
        _bounded_envy(min, *table),
        # each agent's value: the students' own, then each college's own bundle
        *_welfare(scale, own + [row[j] for j, row in enumerate(bundle)]),
    )
