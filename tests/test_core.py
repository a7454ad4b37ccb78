"""Unit tests for the data model and the per-instance distortion ratio."""

import math

import numpy as np
import pytest

from distortion_lab import (
    DistortionValue,
    Lottery,
    MetricSpace,
    Profile,
    TopTProfile,
    UtilityProfile,
    eval_distortion,
    is_metric_consistent,
    is_utility_consistent,
    plurality_scores,
    social_cost,
    social_welfare,
    truncate_profile,
    validate_profile,
)
from reference_oracles import restrict_profile

P1 = Profile(m=3, rankings=((0, 1, 2), (0, 2, 1), (1, 0, 2)))
P2 = Profile(m=3, rankings=((0, 1, 2), (1, 0, 2), (2, 1, 0)))


def _metric_1agent(d_a: float, d_b: float, d_ab: float) -> MetricSpace:
    return MetricSpace(
        n=1,
        m=2,
        dist=np.array(
            [
                [0.0, d_a, d_b],
                [d_a, 0.0, d_ab],
                [d_b, d_ab, 0.0],
            ]
        ),
    )


class TestValidateProfile:
    def test_well_formed(self):
        assert validate_profile(P1) == []

    def test_duplicate_entry(self):
        p = Profile(m=3, rankings=((0, 0, 2),))
        violations = validate_profile(p)
        assert any("duplicate alternative 0 for agent 0" in v for v in violations)

    def test_prefix_out_of_range(self):
        p = TopTProfile(m=3, t=2, prefixes=((0, 3),))
        violations = validate_profile(p)
        assert any("out of range" in v for v in violations)


class TestEmptyProfile:
    # Every rule divides by, vetoes with or reads the top of some ballot, so
    # a profile without one is refused where it is built.
    def test_full_profile_needs_a_ballot(self):
        with pytest.raises(ValueError, match="at least one ballot"):
            Profile(3, ())

    def test_prefix_profile_needs_a_ballot(self):
        with pytest.raises(ValueError, match="at least one ballot"):
            TopTProfile(3, 1, ())


class TestPluralityScores:
    def test_p1(self):
        assert plurality_scores(P1).tolist() == [2, 1, 0]

    def test_unanimous(self):
        p = Profile(m=3, rankings=((0, 1, 2),) * 3)
        assert plurality_scores(p).tolist() == [3, 0, 0]

    def test_top1(self):
        p = TopTProfile(m=3, t=1, prefixes=((0,), (0,), (1,)))
        assert plurality_scores(p).tolist() == [2, 1, 0]


class TestRestrictProfile:
    def test_p1_keep_ab(self):
        q, index_map = restrict_profile(P1, [0, 1])
        assert q.m == 2
        assert [r for r in q.rankings] == [(0, 1), (0, 1), (1, 0)]
        assert list(index_map) == [0, 1]

    def test_keep_everything(self):
        q, index_map = restrict_profile(P1, [0, 1, 2])
        assert q == P1
        assert list(index_map) == [0, 1, 2]

    def test_p2_keep_bc(self):
        q, index_map = restrict_profile(P2, [1, 2])
        # local index 0 is B, 1 is C
        assert [r for r in q.rankings] == [(0, 1), (0, 1), (1, 0)]
        assert list(index_map) == [1, 2]

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="empty restriction"):
            restrict_profile(P1, [])


class TestTruncateProfile:
    def test_p1_top1(self):
        q = truncate_profile(P1, 1)
        assert q.prefixes == ((0,), (0,), (1,))

    def test_p1_top_m_keeps_content(self):
        q = truncate_profile(P1, 3)
        assert q.prefixes == tuple(r for r in P1.rankings)

    def test_p2_top2(self):
        assert truncate_profile(P2, 2).prefixes == ((0, 1), (1, 0), (2, 1))

    def test_positions_put_unranked_at_m(self):
        assert truncate_profile(P2, 2).positions.tolist() == [[0, 1, 3], [1, 0, 3], [3, 1, 0]]
        assert truncate_profile(P2, 3).positions.tolist() == P2.positions.tolist()

    def test_bad_t(self):
        with pytest.raises(ValueError):
            truncate_profile(P1, 0)
        with pytest.raises(ValueError):
            truncate_profile(P1, 4)


class TestMetricConsistency:
    def test_ordered_distances(self):
        met = _metric_1agent(0.0, 1.0, 1.0)
        p = Profile(m=2, rankings=((0, 1),))
        assert is_metric_consistent(met, p)

    def test_reversed_order(self):
        met = _metric_1agent(0.0, 1.0, 1.0)
        p = Profile(m=2, rankings=((1, 0),))
        assert not is_metric_consistent(met, p)

    def test_all_zero_pseudometric(self):
        met = MetricSpace(n=1, m=2, dist=np.zeros((3, 3)))
        for order in ((0, 1), (1, 0)):
            assert is_metric_consistent(met, Profile(m=2, rankings=(order,)))

    def test_dimension_mismatch(self):
        met = _metric_1agent(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            is_metric_consistent(met, P1)

    def test_topt_ranked_vs_unranked(self):
        # Prefix [0] with m=2: alternative 1 is unranked, so d(i,0) <= d(i,1).
        p = TopTProfile(m=2, t=1, prefixes=((0,),))
        assert is_metric_consistent(_metric_1agent(0.2, 1.0, 1.0), p)
        assert not is_metric_consistent(_metric_1agent(1.0, 0.2, 1.0), p)


class TestUtilityConsistency:
    def test_sorted_row(self):
        u = UtilityProfile(util=np.array([[0.5, 0.3, 0.2]]))
        p = Profile(m=3, rankings=((0, 1, 2),))
        assert is_utility_consistent(u, p)

    def test_reversed_row(self):
        u = UtilityProfile(util=np.array([[0.2, 0.3, 0.5]]))
        p = Profile(m=3, rankings=((0, 1, 2),))
        assert not is_utility_consistent(u, p)

    def test_top1_prefix_dominance(self):
        u = UtilityProfile(util=np.array([[0.4, 0.3, 0.3]]))
        p = TopTProfile(m=3, t=1, prefixes=((0,),))
        assert is_utility_consistent(u, p)
        # an unranked alternative above the ranked one breaks it
        u_bad = UtilityProfile(util=np.array([[0.3, 0.4, 0.3]]))
        assert not is_utility_consistent(u_bad, p)


class TestSocialObjectives:
    def test_cost_sum(self):
        met = MetricSpace(
            n=2,
            m=1,
            dist=np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 2.0], [1.0, 2.0, 0.0]]),
        )
        assert social_cost(met, 0) == pytest.approx(3.0)

    def test_welfare_sum(self):
        u = UtilityProfile(util=np.array([[1.0, 0.0]] * 3))
        assert social_welfare(u, 0) == 3.0
        assert social_welfare(u, 1) == 0.0


class TestEvalDistortion:
    def test_point_mass_on_optimum(self):
        met = _metric_1agent(0.0, 2.0, 2.0)
        assert eval_distortion(Lottery.point_mass(2, 0), met) == DistortionValue.finite(1.0)

    def test_zero_cost_optimum_unbounded(self):
        met = _metric_1agent(0.0, 2.0, 2.0)
        assert eval_distortion(Lottery.point_mass(2, 1), met).is_unbounded

    def test_utility_ratio(self):
        u = UtilityProfile(util=np.array([[1.0, 0.0]]))
        val = eval_distortion(Lottery(np.array([0.5, 0.5])), u)
        assert val.is_finite and val.value == pytest.approx(2.0)

    def test_both_zero_is_one(self):
        met = MetricSpace(n=1, m=2, dist=np.zeros((3, 3)))
        assert eval_distortion(Lottery(np.array([0.5, 0.5])), met) == DistortionValue.finite(1.0)


class TestConstructionValidation:
    def test_lottery_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Lottery(np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            Lottery(np.array([1.5, -0.5]))

    def test_metric_rejects_asymmetry(self):
        dist = np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            MetricSpace(n=1, m=2, dist=dist)

    def test_metric_rejects_triangle_violation(self):
        dist = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError):
            MetricSpace(n=1, m=2, dist=dist)

    def test_utilities_must_be_unit_sum(self):
        with pytest.raises(ValueError):
            UtilityProfile(util=np.array([[0.5, 0.2]]))

    def test_distortion_value_str(self):
        assert str(DistortionValue.unbounded()) == "inf"
        assert DistortionValue.finite(2.0).as_json() == 2.0
        assert DistortionValue.unbounded().as_json() == "unbounded"
