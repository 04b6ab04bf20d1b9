import itertools
from fractions import Fraction

import pytest

from lexmatch import (
    FairnessReport,
    Instance,
    Matching,
    ef1_check,
    efx_check,
    envy_totals,
    fairness_report,
    oracle_leximin,
    welfare,
)
from lexmatch.oracle import candidates

from conftest import random_instances
from test_equivalence import SWEEP


class TestEnvyTotals:
    def test_reference_rows(self, ref_instance):
        rows = {
            (0, 0, 0, 0): (0, 26, 26),
            (0, 0, 0, 1): (16, 20, 36),
            (0, 0, 1, 1): (32, 12, 44),
            (0, 1, 1, 1): (122, 38, 160),
            (1, 1, 1, 1): (0, 238, 238),
        }
        for assignment, want in rows.items():
            assert envy_totals(ref_instance, Matching(list(assignment))) == want

    def test_empty_college_draws_no_student_envy(self, ref_instance):
        # everyone at the first college: nobody envies toward the empty one,
        # but the empty college envies the full one
        e_s, e_c, e_total = envy_totals(ref_instance, Matching([0, 0, 0, 0]))
        assert e_s == 0 and e_c == 26 and e_total == 26

    def test_unmatched_student_compares_from_zero(self):
        inst = Instance.build([[5], [4]], [[7, 6]], capacities=[2])
        e_s, _, _ = envy_totals(inst, Matching([0, None]))
        assert e_s == 4

    def test_totals_are_nonnegative_and_additive(self):
        for inst in random_instances("weak", seed=81, count=15, n_max=6, m_max=3, n_min=2):
            mu = Matching([i % inst.m for i in range(inst.n)])
            e_s, e_c, e_total = envy_totals(inst, mu)
            assert e_s >= 0 and e_c >= 0
            assert e_total == e_s + e_c


class TestEF1EFX:
    def test_reference_scan(self, ref_instance):
        ef1 = [
            a
            for a in itertools.product((0, 1), repeat=4)
            if ef1_check(ref_instance, Matching(list(a)))
        ]
        efx = [
            a
            for a in itertools.product((0, 1), repeat=4)
            if efx_check(ref_instance, Matching(list(a)))
        ]
        assert ef1 == [
            (0, 1, 0, 0),
            (0, 1, 0, 1),
            (0, 1, 1, 0),
            (0, 1, 1, 1),
            (1, 0, 0, 0),
            (1, 0, 0, 1),
            (1, 0, 1, 0),
            (1, 0, 1, 1),
        ]
        assert efx == [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]

    def test_efx_implies_ef1(self):
        for inst in random_instances("weak", seed=83, count=10, n_max=5, m_max=3, n_min=2):
            for assignment in itertools.product(range(inst.m), repeat=inst.n):
                mu = Matching(assignment)
                if efx_check(inst, mu):
                    assert ef1_check(inst, mu)

    def test_empty_rival_bundle_is_never_envied(self, ref_instance):
        # an empty bundle sums to 0 <= own, since values are non-negative
        for mu in (Matching([None] * 4), Matching([None, None, None, 0])):
            assert ef1_check(ref_instance, mu) and efx_check(ref_instance, mu)

    def test_single_college_trivially_fair(self):
        inst = Instance.build([[3], [2]], [[5, 4]], capacities=[2])
        mu = Matching([0, 0])
        assert ef1_check(inst, mu) and efx_check(inst, mu)


class TestWelfare:
    def test_single_pair(self):
        inst = Instance.build([[5]], [[25]], capacities=[1])
        assert welfare(inst, Matching([0])) == (5, 125, 30)

    def test_reference_optimum(self, ref_instance):
        egal, nash, util = welfare(ref_instance, Matching([0, 1, 1, 1]))
        assert (egal, nash, util) == (3, 17280000, 232)

    def test_empty_matching(self, ref_instance):
        egal, nash, util = welfare(ref_instance, Matching([None] * 4))
        assert (egal, nash, util) == (0, 0, 0)

    def test_fractions_preserved(self):
        inst = Instance.build([["1/2"]], [["1/3"]], capacities=[1])
        egal, nash, util = welfare(inst, Matching([0]))
        assert egal == Fraction(1, 3)
        assert nash == Fraction(1, 6)
        assert util == Fraction(5, 6)


class TestReportAndLeximinLink:
    def test_report_fields(self, ref_instance):
        rep = fairness_report(ref_instance, Matching([0, 1, 1, 1]))
        assert rep.ef1_colleges and not rep.efx_colleges
        assert rep.to_json_dict() == {
            "E_S": "122",
            "E_C": "38",
            "E_total": "160",
            "ef1_colleges": True,
            "efx_colleges": False,
            "egalitarian": "3",
            "nash": "17280000",
            "utilitarian": "232",
        }

    def test_leximin_optimum_maximizes_egalitarian_among_stable(self):
        # the leximin optimum's first coordinate is the egalitarian optimum
        # over complete stable matchings
        for inst in random_instances("ranked", seed=87, count=15, n_max=7, m_max=3):
            opt = oracle_leximin(inst, require_complete=True)
            egal_opt = welfare(inst, opt.matching)[0]
            for mu in candidates(inst, require_complete=True):
                assert welfare(inst, mu)[0] <= egal_opt


def _fraction_report(inst, mu):
    """fairness_report by the Fraction definitions the kernel version
    replaced, with every value read from the instance's Fraction rows."""
    sv, cv = inst.student_values, inst.college_values
    view = mu.college_view(inst.m)
    pairs = [(j, jp) for j in range(inst.m) for jp in range(inst.m)]
    # college j's values for college jp's members, and their sum
    items = {(j, jp): [cv[j][i] for i in view[jp]] for j, jp in pairs}
    bundle = {key: sum(xs, Fraction(0)) for key, xs in items.items()}
    values = [Fraction(0) if j is None else sv[i][j] for i, j in enumerate(mu.assignment)]
    values += [bundle[j, j] for j in range(inst.m)]

    e_s = Fraction(0)
    for i, here in enumerate(mu.assignment):
        for j in range(inst.m):
            if j != here and view[j] and sv[i][j] > values[i]:
                e_s += sv[i][j] - values[i]
    e_c = Fraction(0)
    for j, jp in pairs:
        if jp != j and bundle[j, jp] > bundle[j, j]:
            e_c += bundle[j, jp] - bundle[j, j]

    def bounded(drop):
        return all(
            jp == j or bundle[j, jp] <= bundle[j, j]
            or bundle[j, jp] - drop(items[j, jp]) <= bundle[j, j]
            for j, jp in pairs
        )

    nash = Fraction(1)
    for x in values:
        nash *= x
    return FairnessReport(
        e_s, e_c, e_s + e_c, bounded(max), bounded(min),
        min(values), nash, sum(values, Fraction(0)),
    )


SMALL = {key: inst for key, inst in SWEEP.items() if inst.n <= 6}


@pytest.mark.parametrize("key", list(SMALL))
def test_kernel_report_is_the_fraction_report_on_every_assignment(key):
    # every assignment of the sweep's small instances and their /scaled
    # images, unmatched students included
    inst = SMALL[key]
    for assignment in itertools.product([None, *range(inst.m)], repeat=inst.n):
        mu = Matching(assignment)
        got = fairness_report(inst, mu)
        assert got == _fraction_report(inst, mu), (key, assignment)
        assert all(type(x) is Fraction for x in got[:3] + got[5:])


def test_the_small_sweep_has_scaled_images():
    assert any(inst._kernel[0] > 1 for inst in SMALL.values())
    assert any(key.endswith("/scaled") for key in SMALL)


def test_the_report_builds_no_fraction_rows(ref_instance):
    inst = Instance.build([[5, 2], [4, 3]], [["7/2", 6], [1, "1/3"]])
    for instance in (ref_instance, inst):
        fairness_report(instance, Matching([0, 1] * (instance.n // 2)))
        assert "student_values" not in vars(instance)
        assert "college_values" not in vars(instance)


def test_the_report_validates_the_matching_once(ref_instance, monkeypatch):
    calls = []
    validate = Matching.validate

    def counted(self, instance, *args):
        calls.append(self)
        return validate(self, instance, *args)

    monkeypatch.setattr(Matching, "validate", counted)
    mu = Matching([0, 1, 1, 1])
    fairness_report(ref_instance, mu)
    assert calls == [mu]
