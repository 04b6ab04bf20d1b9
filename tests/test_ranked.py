import itertools
import math

import pytest

from lexmatch import (
    BoundaryVector,
    Instance,
    InvalidInputError,
    Matching,
    boundary_from_matching,
    is_stable,
    matching_from_boundary,
)
from lexmatch.oracle import candidates

from conftest import random_instances


class TestBoundaryConversion:
    def test_balanced_boundary(self, ref_instance):
        mu = matching_from_boundary(ref_instance, BoundaryVector((2, 2)))
        assert mu.assignment == (0, 0, 1, 1)

    def test_all_at_first(self, ref_instance):
        mu = matching_from_boundary(ref_instance, BoundaryVector((4, 0)))
        assert mu.assignment == (0, 0, 0, 0)

    def test_square_identity(self):
        inst = Instance.from_matrix([[9, 6, 3], [8, 5, 2], [7, 4, 1]])
        mu = matching_from_boundary(inst, BoundaryVector((1, 1, 1)))
        assert mu.assignment == (0, 1, 2)

    def test_sum_mismatch_rejected(self, ref_instance):
        with pytest.raises(InvalidInputError):
            matching_from_boundary(ref_instance, BoundaryVector((2, 1)))

    def test_recover_boundary(self, ref_instance):
        assert boundary_from_matching(ref_instance, Matching([0, 1, 1, 1])).k == (1, 3)
        assert boundary_from_matching(ref_instance, Matching([0, 0, 0, 0])).k == (4, 0)

    def test_non_contiguous_returns_none(self, ref_instance):
        assert boundary_from_matching(ref_instance, Matching([0, 1, 0, 1])) is None

    def test_incomplete_returns_none(self, ref_instance):
        # contiguous in the matched students, but one is unmatched
        assert boundary_from_matching(ref_instance, Matching([0, 0, None, 1])) is None
        assert boundary_from_matching(ref_instance, Matching([None] * 4)) is None


class TestEnumeration:
    def test_complete_only(self, ref_instance):
        ks = [
            boundary_from_matching(ref_instance, mu).k
            for mu in candidates(ref_instance, require_complete=True)
        ]
        assert ks == [(3, 1), (2, 2), (1, 3)]

    def test_single_college(self):
        inst = Instance.build([[3], [2], [1]], [[3, 2, 1]], capacities=[3])
        assert [mu.assignment for mu in candidates(inst, require_complete=True)] == [(0, 0, 0)]

    def test_respect_capacities(self, ref_instance):
        capped = Instance(
            ref_instance.student_values, ref_instance.college_values, (1, 3)
        )
        ks = [
            boundary_from_matching(capped, mu).k
            for mu in candidates(capped, require_complete=True, respect_capacities=True)
        ]
        assert ks == [(1, 3)]

    def test_composition_count_and_stability(self):
        for inst in random_instances("ranked", seed=3, count=8, n_max=6, m_max=3):
            mus = list(candidates(inst, require_complete=True))
            # one per composition of n into m nonempty blocks
            assert len(mus) == math.comb(inst.n - 1, inst.m - 1)
            assert all(is_stable(inst, mu) is None for mu in mus)

    def test_exactly_contiguous_matchings_are_stable(self):
        # complete-on-students matchings of a ranked instance are stable
        # iff they are contiguous block assignments
        for inst in random_instances("ranked", seed=4, count=6, n_max=5, m_max=3):
            for assignment in itertools.product(range(inst.m), repeat=inst.n):
                mu = Matching(assignment)
                stable = is_stable(inst, mu) is None
                contiguous = boundary_from_matching(inst, mu) is not None
                assert stable == contiguous

