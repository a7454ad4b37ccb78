"""Unit tests for the voting rules, pinned to hand-derived lotteries."""

import itertools

import numpy as np
import pytest

import distortion_lab as dl
from distortion_lab.rules import _restricted_plurality_veto
from reference_oracles import (
    reference_copeland,
    reference_plurality_veto,
    reference_pruned_plurality_veto,
    reference_restricted_veto,
    reference_top_t_truncated_harmonic,
    reference_truncated_harmonic,
    reference_truncated_weights,
)
from distortion_lab import (
    Lottery,
    Profile,
    TopTProfile,
    copeland,
    harmonic_number,
    harmonic_rule,
    mix,
    plurality,
    plurality_veto,
    pruned_plurality_veto,
    random_dictatorship,
    top_t_det_rule,
    top_t_truncated_harmonic,
    truncate_profile,
    truncated_harmonic,
    truncated_weights,
)

P1 = Profile(m=3, rankings=((0, 1, 2), (0, 2, 1), (1, 0, 2)))
P2 = Profile(m=3, rankings=((0, 1, 2), (1, 0, 2), (2, 1, 0)))


def _point(lot: Lottery) -> int:
    assert lot.prob.max() == 1.0
    return int(np.argmax(lot.prob))


class TestPlurality:
    def test_p1(self):
        assert _point(plurality(P1)) == 0

    def test_top1_tie_lowest_index(self):
        p = TopTProfile(m=3, t=1, prefixes=((0,), (1,)))
        assert _point(plurality(p)) == 0

    def test_unanimous(self):
        p = Profile(m=3, rankings=((1, 0, 2),) * 4)
        assert _point(plurality(p)) == 1


class TestCopeland:
    def test_p2_scores(self):
        assert _point(copeland(P2)) == 1

    def test_unanimous_condorcet(self):
        p = Profile(m=3, rankings=((0, 1, 2),) * 2)
        assert _point(copeland(p)) == 0

    def test_symmetric_tie(self):
        p = Profile(m=2, rankings=((0, 1), (1, 0)))
        assert _point(copeland(p)) == 0

    def test_rejects_prefix_profile(self):
        with pytest.raises(ValueError, match="full rankings"):
            copeland(truncate_profile(P2, 2))


class TestPluralityVeto:
    def test_p2_trace(self):
        lot, trace = plurality_veto(P2)
        assert _point(lot) == 1
        assert trace.initial_scores == (1, 1, 1)
        assert trace.events == ((0, 2, 0), (1, 0, 0), (2, 1, 0))
        assert trace.winner == 1

    def test_unanimous_survivor(self):
        p = Profile(m=3, rankings=((0, 1, 2),) * 3)
        lot, trace = plurality_veto(p)
        assert trace.winner == 0
        assert len(trace.events) == 3
        assert all(alt == 0 for _, alt, _ in trace.events)

    def test_absorbs_last_veto(self):
        p = Profile(
            m=3,
            rankings=((0, 1, 2), (0, 1, 2), (1, 2, 0)),
        )
        lot, trace = plurality_veto(p)
        assert trace.winner == 0
        # agent 0 eliminates the other survivor first
        assert trace.events[0] == (0, 1, 0)

    def test_scores_never_negative(self):
        for seed in range(25):
            import distortion_lab as dl

            p = dl.random_profile(4, 4, seed=seed)
            _, trace = plurality_veto(p)
            assert len(trace.events) == 4
            assert all(after >= 0 for _, _, after in trace.events)


class TestPrunedPluralityVeto:
    def test_p1_prunes_to_two(self):
        assert _point(pruned_plurality_veto(P1, 1.0)) == 0

    def test_p2_keeps_everything(self):
        assert _point(pruned_plurality_veto(P2, 1.0)) == 1

    def test_unanimous_singleton(self):
        p = Profile(m=4, rankings=((2, 0, 1, 3),) * 5)
        for eps in (0.1, 1.0, 4.0):
            assert _point(pruned_plurality_veto(p, eps)) == 2

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            pruned_plurality_veto(P1, 0.0)

    @pytest.mark.parametrize("eps", [float("inf"), float("nan")])
    def test_rejects_nonfinite_eps(self, eps):
        # eps*n/((6+eps)*m) is NaN here, which would keep no alternative.
        with pytest.raises(ValueError, match="finite"):
            pruned_plurality_veto(P1, eps)


class TestRandomDictatorship:
    def test_p1(self):
        assert np.allclose(random_dictatorship(P1).prob, [2 / 3, 1 / 3, 0.0])

    def test_unanimous(self):
        p = Profile(m=3, rankings=((1, 0, 2),) * 3)
        assert np.allclose(random_dictatorship(p).prob, [0.0, 1.0, 0.0])

    def test_top1(self):
        p = TopTProfile(m=3, t=1, prefixes=((0,), (1,)))
        assert np.allclose(random_dictatorship(p).prob, [0.5, 0.5, 0.0])


class TestHarmonicRule:
    def test_single_agent(self):
        p = Profile(m=3, rankings=((0, 1, 2),))
        assert np.allclose(harmonic_rule(p).prob, [6 / 11, 3 / 11, 2 / 11])

    def test_two_agent_symmetry(self):
        p = Profile(m=2, rankings=((0, 1), (1, 0)))
        assert np.allclose(harmonic_rule(p).prob, [0.5, 0.5])

    def test_normalized(self):
        import distortion_lab as dl

        for seed in range(25):
            p = dl.random_profile(3, 5, seed=seed)
            assert abs(harmonic_rule(p).prob.sum() - 1.0) <= 1e-12

    def test_harmonic_number(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(3) == pytest.approx(11 / 6)


class TestTruncatedHarmonic:
    def test_anchor_top_gives_point_mass(self):
        p = Profile(m=3, rankings=((0, 1, 2),))
        for eps in (0.5, 1.0, 5.5):
            assert np.allclose(truncated_harmonic(p, eps).prob, [1.0, 0.0, 0.0])

    def test_p2_frozen_value(self):
        lot = truncated_harmonic(P2, 1.0)
        assert np.allclose(lot.prob, [1 / 33, 31 / 33, 1 / 33])

    def test_anchor_mass_floor(self):
        import distortion_lab as dl

        for seed in range(25):
            p = dl.random_profile(4, 4, seed=seed)
            for eps in (0.5, 3.0, 5.9):
                anchor = plurality_veto(p)[1].winner
                assert truncated_harmonic(p, eps).prob[anchor] >= 1 - eps / 6 - 1e-12

    def test_matches_per_agent_loop(self):
        # The per-agent formula the rule once computed directly: eps/(6 H_m r)
        # above the veto winner, the remainder on it. The rule now scales the
        # truncated weights instead, which reorders the float operations.
        import distortion_lab as dl

        for seed in range(40):
            p = dl.random_profile(1 + seed % 7, 2 + seed % 5, seed=seed)
            winner = plurality_veto(p)[1].winner
            h_m = harmonic_number(p.m)
            for eps in (1e-3, 0.5, 1.0, 2.0, 5.9):
                rows = np.zeros((p.n, p.m))
                for i, r in enumerate(p.rankings):
                    cut = r.index(winner)
                    for rank0, y in enumerate(r[:cut]):
                        rows[i, y] = eps / (6.0 * h_m * (rank0 + 1))
                    rows[i, winner] = 1.0 - rows[i].sum()
                got = truncated_harmonic(p, eps).prob
                assert np.allclose(got, rows.mean(axis=0), rtol=0, atol=4 * np.finfo(float).eps)

    def test_eps_range_enforced(self):
        for eps in (0.0, -1.0, 6.0, 7.2):
            with pytest.raises(ValueError):
                truncated_harmonic(P2, eps)


class TestTruncatedWeights:
    def test_mid_anchor_row(self):
        p = Profile(m=3, rankings=((0, 1, 2),))
        w = truncated_weights(p, 1)
        assert np.allclose(w[0], [6 / 11, 5 / 11, 0.0])

    def test_top_anchor_point_mass(self):
        p = Profile(m=3, rankings=((0, 1, 2),))
        w = truncated_weights(p, 0)
        assert np.allclose(w[0], [1.0, 0.0, 0.0])

    def test_rows_sum_to_one(self):
        import distortion_lab as dl

        for seed in range(25):
            p = dl.random_profile(3, 4, seed=seed)
            w = truncated_weights(p, seed % 4)
            assert np.allclose(w.sum(axis=1), 1.0)


class TestTopTDetRule:
    def test_small_t_uses_plurality(self):
        p = TopTProfile(m=3, t=1, prefixes=((0,), (0,), (1,)))
        assert _point(top_t_det_rule(p)) == 0

    def test_small_shortlist_max_plurality(self):
        prefixes = tuple([(0, 1, 2)] * 4 + [(1, 0, 2)] * 4)
        p = TopTProfile(m=4, t=3, prefixes=prefixes)
        assert _point(top_t_det_rule(p)) == 0

    def test_base_rule_branch(self):
        # All four alternatives clear n/(2m); the default base rule runs on
        # the restriction and picks the recipient of the final veto.
        prefixes = tuple(
            [(0, 1, 2)] * 2 + [(1, 0, 2)] * 2 + [(2, 0, 1)] * 2 + [(3, 0, 1)] * 2
        )
        p = TopTProfile(m=4, t=3, prefixes=prefixes)
        assert _point(top_t_det_rule(p)) == 0


class TestTopTTruncatedHarmonic:
    def test_anchor_first_point_mass(self):
        p = TopTProfile(m=3, t=2, prefixes=((0, 1),))
        assert np.allclose(top_t_truncated_harmonic(p).prob, [1.0, 0.0, 0.0])

    def test_forced_anchor_arithmetic(self):
        p = TopTProfile(m=3, t=2, prefixes=((0, 1),))
        lot = top_t_truncated_harmonic(p, anchor_rule=lambda q: 1)
        assert np.allclose(lot.prob, [1 / 3, 2 / 3, 0.0])

    def test_anchor_keeps_half(self):
        import distortion_lab as dl

        for seed in range(25):
            p = dl.truncate_profile(dl.random_profile(3, 5, seed=seed), 2)
            lot = top_t_truncated_harmonic(p)
            anchor = _point(top_t_det_rule(p))
            assert lot.prob[anchor] >= 0.5 - 1e-12


class TestMix:
    def test_half_half(self):
        a = Lottery.point_mass(2, 0)
        b = Lottery.point_mass(2, 1)
        assert np.allclose(mix(a, b, 0.5).prob, [0.5, 0.5])

    def test_beta_one_is_first(self):
        a = Lottery(np.array([0.25, 0.75]))
        b = Lottery.point_mass(2, 1)
        assert np.allclose(mix(a, b, 1.0).prob, a.prob)

    def test_quarter(self):
        a = Lottery.point_mass(2, 0)
        b = Lottery.point_mass(2, 1)
        assert np.allclose(mix(a, b, 0.25).prob, [0.25, 0.75])

    def test_bad_beta(self):
        a = Lottery.point_mass(2, 0)
        with pytest.raises(ValueError):
            mix(a, a, 1.5)

    def test_mismatched_width(self):
        with pytest.raises(ValueError):
            mix(Lottery.point_mass(2, 0), Lottery.point_mass(3, 0), 0.5)


class TestReferenceCrossCheck:
    """The shared veto phase, the anchored rows and Copeland's win count
    against the loops they replaced (``reference_oracles``): equal traces,
    winners and bits."""

    CASES = 300

    @staticmethod
    def _full(seed: int) -> Profile:
        return dl.random_profile(1 + seed % 9, 1 + seed % 6, seed=seed)

    @staticmethod
    def _top_t(seed: int, long: bool = False) -> TopTProfile:
        """A seeded top-t profile; ``long`` keeps 2t > m."""
        m = 2 + seed % 5
        t = int(np.random.default_rng(seed).integers(m // 2 + 1 if long else 1, m + 1))
        return truncate_profile(dl.random_profile(2 + seed % 11, m, seed=seed), t)

    def test_plurality_veto(self):
        for seed in range(self.CASES):
            p = self._full(seed)
            lot, trace = plurality_veto(p)
            ref_lot, ref_trace = reference_plurality_veto(p)
            assert trace == ref_trace, seed
            assert np.array_equal(lot.prob, ref_lot.prob), seed

    def test_copeland(self):
        ties = 0
        for seed in range(self.CASES):
            p = self._full(seed)
            got = copeland(p).prob
            assert np.array_equal(got, reference_copeland(p).prob), seed
            pos = p.positions
            ties += sum(
                2 * int((pos[:, x] < pos[:, y]).sum()) == p.n
                for x, y in itertools.combinations(range(p.m), 2)
            )
        assert ties > 0  # pairwise ties, at even n, score 1/2 each

    def test_pruned_plurality_veto(self):
        for seed in range(self.CASES):
            p = self._full(seed)
            # At eps = 6 the bar n/(2m) is often met exactly.
            for eps in (0.1, 1.0, 6.0):
                got = pruned_plurality_veto(p, eps).prob
                assert np.array_equal(got, reference_pruned_plurality_veto(p, eps).prob), seed

    def test_restricted_veto_on_ragged_prefixes(self):
        for seed in range(self.CASES):
            rng = np.random.default_rng(seed)
            m = 1 + seed % 6
            prefixes = tuple(
                tuple(int(x) for x in rng.permutation(m)[: rng.integers(1, m + 1)])
                for _ in range(1 + seed % 8)
            )
            assert _restricted_plurality_veto(prefixes, m) == reference_restricted_veto(
                prefixes, m
            ), seed

    def test_top_t_det_rule_base_branch(self):
        runs = []

        def counted(prefixes, m_sub):
            runs.append(m_sub)
            return _restricted_plurality_veto(prefixes, m_sub)

        for seed in range(self.CASES):
            p = self._top_t(seed, long=True)
            assert 2 * p.t > p.m
            got = top_t_det_rule(p, base_rule=counted).prob
            assert np.array_equal(got, top_t_det_rule(p).prob), seed
            ref = top_t_det_rule(p, base_rule=reference_restricted_veto).prob
            assert np.array_equal(got, ref), seed
        assert len(runs) >= self.CASES // 3

    def test_truncated_weights_and_harmonic(self):
        for seed in range(self.CASES):
            p = self._full(seed)
            for anchor in range(p.m):
                got = truncated_weights(p, anchor)
                assert np.array_equal(got, reference_truncated_weights(p, anchor)), seed
            for eps in (1e-3, 1.0, 5.9):
                got = truncated_harmonic(p, eps).prob
                assert np.array_equal(got, reference_truncated_harmonic(p, eps).prob), seed

    def test_top_t_truncated_harmonic(self):
        for seed in range(self.CASES):
            p = self._top_t(seed)
            got = top_t_truncated_harmonic(p).prob
            assert np.array_equal(got, reference_top_t_truncated_harmonic(p).prob), seed
