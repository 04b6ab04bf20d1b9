"""Envy accounting, EF1/EFX checks and welfare aggregates over matchings.

Envy is measured against occupied bundles only: a student compares their
college's value to every other *nonempty* college, and a college evaluates a
rival's student set with its own additive valuation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .model import Instance, Matching, college_value, student_value, value_to_str


def envy_totals(instance: Instance, matching: Matching):
    """(E_S, E_C, E_total).  E_S sums, per student, the positive gap toward
    each occupied college other than their own; unmatched students compare
    from value 0.  E_C sums, per ordered college pair, the positive gap
    between the rival bundle (valued with the envier's valuation) and the
    envier's own bundle."""
    matching.validate(instance)
    view = matching.college_view(instance.m)
    e_s = Fraction(0)
    for i in range(instance.n):
        own = student_value(instance, matching, i)
        for j in range(instance.m):
            if j == matching.assignment[i] or not view[j]:
                continue
            gap = instance.u(i, j) - own
            if gap > 0:
                e_s += gap
    e_c = Fraction(0)
    for j in range(instance.m):
        own = college_value(instance, matching, j)
        for jp in range(instance.m):
            if jp == j:
                continue
            rival = sum((instance.v(j, i) for i in view[jp]), Fraction(0))
            if rival > own:
                e_c += rival - own
    return e_s, e_c, e_s + e_c


def ef1_check(instance: Instance, matching: Matching) -> bool:
    """College-side EF1: for every ordered pair (j, j') either j does not
    envy j', or removing a single (best chosen) student from j''s bundle
    kills the envy.  Students hold at most one college each, so their side is
    trivially EF1."""
    return _bounded_envy_check(instance, matching, drop_best=True)


def efx_check(instance: Instance, matching: Matching) -> bool:
    """College-side EFX: as EF1 but removing the *least* valued student of
    the rival bundle must already kill the envy."""
    return _bounded_envy_check(instance, matching, drop_best=False)


def _bounded_envy_check(instance: Instance, matching: Matching, drop_best: bool) -> bool:
    matching.validate(instance)
    view = matching.college_view(instance.m)
    for j in range(instance.m):
        own = college_value(instance, matching, j)
        for jp in range(instance.m):
            if jp == j:
                continue
            rival_items = [instance.v(j, i) for i in view[jp]]
            rival = sum(rival_items, Fraction(0))
            if rival <= own:
                continue  # always so for an empty bundle: values are >= 0
            removed = max(rival_items) if drop_best else min(rival_items)
            if rival - removed > own:
                return False
    return True


def welfare(instance: Instance, matching: Matching):
    """(egalitarian, nash, utilitarian) over all n+m agent values."""
    matching.validate(instance)
    values = [student_value(instance, matching, i) for i in range(instance.n)]
    values += [college_value(instance, matching, j) for j in range(instance.m)]
    egalitarian = min(values)
    nash = Fraction(1)
    for v in values:
        nash *= v
    utilitarian = sum(values, Fraction(0))
    return egalitarian, nash, utilitarian


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
    e_s, e_c, e_total = envy_totals(instance, matching)
    egal, nash, util = welfare(instance, matching)
    return FairnessReport(
        e_s=e_s,
        e_c=e_c,
        e_total=e_total,
        ef1_colleges=ef1_check(instance, matching),
        efx_colleges=efx_check(instance, matching),
        egalitarian=egal,
        nash=nash,
        utilitarian=util,
    )
