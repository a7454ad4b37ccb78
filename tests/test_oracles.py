"""Unit tests for the worst-case distortion oracles."""

import dataclasses
import gc
import math
import sys
import weakref

import numpy as np
import pytest

import distortion_lab as dl
import distortion_lab.lp as lp_mod
import distortion_lab.oracles as oracles_mod
from certificates import assert_certified
from conftest import random_lottery
from cross_checks import _repeated_ballot_cases, _three_route_cases, compare
from distortion_lab.cli import RULES, make_rule
from paper_claims import checked_by
from reference_oracles import (
    reference_candidate_bounds,
    reference_completion_max,
    reference_exhaustive_worst_case,
    reference_metric_candidate_duals,
    reference_metric_dual_cold,
    reference_metric_dual_programs,
    reference_metric_rows,
    reference_utilitarian_dinkelbach,
    reference_utilitarian_per_candidate,
)
from distortion_lab import (
    BudgetExceededError,
    Lottery,
    Profile,
    TopTProfile,
    exhaustive_worst_case,
    metric_distortion,
    rule_distortion,
    utilitarian_distortion,
    utilitarian_distortion_bruteforce,
)

AB = Profile(m=2, rankings=((0, 1),))
AB_BA = Profile(m=2, rankings=((0, 1), (1, 0)))


class TestUtilitarianOracle:
    def test_point_mass_on_top(self):
        rep = utilitarian_distortion(Lottery.point_mass(2, 0), AB)
        assert rep.value == dl.DistortionValue.finite(1.0)
        assert np.allclose(rep.witness.util, [[1.0, 0.0]])

    def test_uniform_lottery(self):
        rep = utilitarian_distortion(Lottery(np.array([0.5, 0.5])), AB)
        assert rep.value.value == pytest.approx(2.0)
        assert np.allclose(rep.witness.util, [[1.0, 0.0]])

    def test_point_mass_on_bottom_unbounded(self):
        rep = utilitarian_distortion(Lottery.point_mass(2, 1), AB)
        assert rep.value.is_unbounded

    def test_unbounded_witness_full_rankings(self):
        # Neither top choice (0, 1) is in the support {2, 3}: agent 0 may be
        # positive on 0 only, agent 1 on 1 and 0, ahead of support alt 3.
        p = Profile(m=4, rankings=((0, 2, 1, 3), (1, 0, 3, 2)))
        lot = Lottery(np.array([0.0, 0.0, 0.25, 0.75]))
        rep = utilitarian_distortion(lot, p)
        assert rep.value.is_unbounded
        assert rep.arg_optimum == 0
        assert np.allclose(rep.witness.util, [[1, 0, 0, 0], [0.5, 0.5, 0, 0]])
        assert_certified(lot, p, rep)

    def test_unbounded_witness_prefix_without_support(self):
        # Agent 0 ranks no support alternative: its prefix and the unranked
        # alternative 3 outside the support may all be positive.
        p = TopTProfile(m=4, t=2, prefixes=((1, 0), (3, 2)))
        lot = Lottery.point_mass(4, 2)
        rep = utilitarian_distortion(lot, p)
        assert rep.value.is_unbounded
        assert rep.arg_optimum == 0
        assert np.allclose(rep.witness.util, [[1 / 3, 1 / 3, 0, 1 / 3], [0, 0, 0, 1]])
        assert_certified(lot, p, rep)

    def test_support_on_a_top_choice_is_bounded(self):
        p = Profile(m=3, rankings=((0, 1, 2), (2, 1, 0)))
        rep = utilitarian_distortion(Lottery(np.array([0.0, 0.999, 0.001])), p)
        assert rep.value.is_finite

    @pytest.mark.parametrize("eps", [1e-6, 1e-13])
    def test_tiny_mass_on_shared_top(self, eps):
        p = Profile(m=3, rankings=((0, 1, 2), (0, 2, 1)))
        rep = utilitarian_distortion(Lottery(np.array([eps, 1.0 - eps, 0.0])), p)
        assert rep.value.value == pytest.approx(1.0 / eps, rel=1e-6)


class TestBruteforceTwin:
    def test_uniform_lottery(self):
        rep = utilitarian_distortion_bruteforce(Lottery(np.array([0.5, 0.5])), AB)
        assert rep.value.value == pytest.approx(2.0)

    def test_agreeing_agents(self):
        p = Profile(m=2, rankings=((0, 1), (0, 1)))
        rep = utilitarian_distortion_bruteforce(Lottery.point_mass(2, 0), p)
        assert rep.value.value == pytest.approx(1.0)

    def test_zero_welfare_support_unbounded(self):
        p = Profile(m=3, rankings=((0, 1, 2),))
        rep = utilitarian_distortion_bruteforce(Lottery.point_mass(3, 2), p)
        assert rep.value.is_unbounded

    def test_budget_enforced(self):
        p = dl.random_profile(4, 4, seed=0)
        with pytest.raises(BudgetExceededError):
            utilitarian_distortion_bruteforce(
                Lottery.point_mass(4, 0), p, budget=100
            )

    def test_budget_error_on_a_huge_profile(self):
        # 3^10000 combinations has more digits than str() converts.
        p = dl.random_profile(10_000, 3, seed=0)
        with pytest.raises(BudgetExceededError, match=r"^at least 10\^4771 vertex combinations"):
            utilitarian_distortion_bruteforce(dl.plurality(p), p)

    def test_rejects_prefix_profiles(self):
        topt = dl.truncate_profile(dl.random_profile(2, 3, seed=1), 2)
        with pytest.raises(ValueError):
            utilitarian_distortion_bruteforce(Lottery.point_mass(3, 0), topt)


class TestMetricOracle:
    def test_single_agent_top(self):
        rep = metric_distortion(Lottery.point_mass(2, 0), AB)
        assert rep.value == dl.DistortionValue.finite(1.0)

    def test_opposed_pair_point_mass(self):
        rep = metric_distortion(Lottery.point_mass(2, 0), AB_BA)
        assert rep.value.value == pytest.approx(3.0)
        grid = rep.witness.agent_alt
        assert grid[0, 0] == pytest.approx(1.0)
        assert grid[0, 1] == pytest.approx(1.0)
        assert grid[1, 1] == pytest.approx(0.0, abs=1e-9)
        assert grid[1, 0] == pytest.approx(2.0)

    def test_mass_below_sole_agent_unbounded(self):
        rep = metric_distortion(Lottery(np.array([0.6, 0.4])), AB)
        assert rep.value.is_unbounded

    def test_unbounded_witness_closes_over_ballots(self):
        # With the cost of 0 at zero, agent 1 (who ranks 2 above 0) must sit
        # on 2 as well; the lottery's mass on 1 is what blows up.
        p = Profile(m=3, rankings=((0, 2, 1), (2, 0, 1)))
        lot = Lottery(np.array([0.5, 0.5, 0.0]))
        rep = metric_distortion(lot, p)
        assert rep.value.is_unbounded
        assert rep.arg_optimum == 0
        assert np.allclose(rep.witness.agent_alt, [[0, 1, 0], [0, 1, 0]])
        assert_certified(lot, p, rep)

    def test_unbounded_witness_on_prefix(self):
        p = TopTProfile(m=3, t=1, prefixes=((0,), (1,)))
        lot = Lottery(np.array([0.0, 0.0, 1.0]))
        rep = metric_distortion(lot, p)
        assert rep.value.is_unbounded
        assert rep.arg_optimum == 0
        assert_certified(lot, p, rep)

    # Two agents who put 2 last; the lottery puts eps on it. n * eps above
    # the 1e-12 lottery tolerance is unbounded, as eval_distortion rules on
    # the witness; below it the value is finite.
    @pytest.mark.parametrize("eps", [3e-8, 1e-8, 1e-9, 1e-11])
    def test_tiny_mass_on_common_last_is_unbounded(self, eps):
        p = Profile(m=3, rankings=((0, 1, 2), (1, 0, 2)))
        lot = Lottery(np.array([0.5, 0.5 - eps, eps]))
        rep = metric_distortion(lot, p)
        assert rep.value.is_unbounded
        assert rep.arg_optimum == 0
        assert_certified(lot, p, rep)

    def test_mass_below_lottery_tolerance_is_finite(self):
        p = Profile(m=3, rankings=((0, 1, 2), (1, 0, 2)))
        lot = Lottery(np.array([0.5, 0.5 - 1e-13, 1e-13]))
        rep = metric_distortion(lot, p)
        assert rep.value.value == pytest.approx(2.0)
        assert_certified(lot, p, rep)
        assert dl.eval_distortion(lot, rep.witness).value == pytest.approx(2.0)

    def test_witness_is_consistent(self):
        lot = Lottery.point_mass(2, 0)
        assert_certified(lot, AB_BA, metric_distortion(lot, AB_BA))


def _dinkelbach_cases(count: int):
    """Seeded rule lotteries: m in 2..10, n in 2..5, every eighth n in
    6..40, n = 200 every 500th case; every other profile is top-t, and t
    cycles through 1..m-1.

    The lotteries are truncated harmonic (top-t truncated harmonic on
    prefixes), plurality and random dictatorship, whose many equal masses
    tie the gains of unranked alternatives.
    """
    for case in range(count):
        rng = np.random.default_rng(61_000 + case)
        m = int(rng.integers(2, 11))
        if case % 500 == 499:
            n = 200
        elif case % 8 == 7:
            n = int(rng.integers(6, 41))
        else:
            n = int(rng.integers(2, 6))
        p = dl.random_profile(n, m, seed=61_000 + case)
        if case % 2:
            p = dl.truncate_profile(p, 1 + (case // 2) % (m - 1))
        if case % 3 == 0 and isinstance(p, Profile):
            lot = dl.truncated_harmonic(p)
        elif case % 3 == 0:
            lot = dl.top_t_truncated_harmonic(p)
        elif case % 3 == 1:
            lot = dl.plurality(p)
        else:
            lot = dl.random_dictatorship(p)
        yield case, lot, p


class TestDinkelbachCrossCheck:
    """The lockstep Dinkelbach iteration against the per-candidate loop it
    replaced and the per-agent loop before that."""

    def test_matches_per_agent_loop_bit_for_bit(self, acceptance_notes):
        count, shapes, mismatches, uneven = 2_000, set(), [], 0
        for case, lot, p in _dinkelbach_cases(count):
            shapes.add((p.m, getattr(p, "t", None)))
            got = utilitarian_distortion(lot, p)
            assert_certified(lot, p, got, case)
            steps: list[int] = []
            for name, want in (
                ("per-candidate", reference_utilitarian_per_candidate(lot, p, steps)),
                ("per-agent", reference_utilitarian_dinkelbach(lot, p)),
            ):
                if not compare("bits", got, want)[0]:
                    mismatches.append((name, case, p.n, p.m, got.value, want.value))
            # Candidates that finish after different numbers of steps leave
            # the lockstep's live set in different rounds.
            uneven += len(set(steps)) > 1
        assert mismatches == []
        assert uneven > 0
        # Full ballots and every t < m at every m in 2..10.
        assert shapes == {
            (m, t) for m in range(2, 11) for t in [None, *range(1, m)]
        }
        acceptance_notes.append(
            f"utilitarian lockstep Dinkelbach vs per-candidate and per-agent loops: "
            f"{count} cases, {len(mismatches)} mismatches (value, arg_optimum and "
            f"witness bytes); {uneven} cases with candidates finishing in different rounds"
        )


def _candidate_of(program) -> int:
    """The candidate X* of a metric dual program: lambda's column is first
    nonzero at row X* (block 0, alternative X*)."""
    return int(np.flatnonzero(program.lhs[:, -1])[0])


def _at_most(value: float, limit: float) -> bool:
    """value <= limit up to the rounding of a dual value, 1e-12 relative: the
    bound B_X is often tight (V_X = B_X), and a solve reads a few ulps off.
    That is a thousandth of ``SKIP_MARGIN``, which must exceed it."""
    return value <= limit + 1e-12 * max(1.0, abs(limit))


def _solved_by_the_bound(lot, p, value) -> list[int]:
    """The candidates the oracle solves, in solve order, when candidate x's
    dual value is ``value(x)``: all of them by descending bound B_X, equal
    bounds by index, the first always and each later one whose B_X is not
    at least ``SKIP_MARGIN`` below the running best under ``_first_max``'s
    rule."""
    bound = oracles_mod._candidate_bounds(lot, p)
    first, *later = sorted(range(p.m), key=lambda x: (-bound[x], x))
    solved, best = [first], value(first)
    for x in later:
        if bound[x] > best - oracles_mod.SKIP_MARGIN * max(1.0, abs(best)):
            solved.append(x)
            if oracles_mod._replaces(value(x), best):
                best = value(x)
    return solved


def assert_skips_follow_the_bound(lot, p, solved, where=None):
    """``solved`` lists (candidate, dual value) in solve order; it must list
    exactly the candidates that ``_solved_by_the_bound`` names."""
    values = dict(solved)
    expected = _solved_by_the_bound(lot, p, lambda x: values.get(x, -math.inf))
    assert [x for x, _ in solved] == expected, where


def _blocks(p):
    """Each distinct ballot's positions and its multiplicity, in order of
    first occurrence, as ``metric_distortion`` builds its blocks."""
    first = {}
    for i, ballot in enumerate(p.ballots):
        first.setdefault(ballot, []).append(i)
    agents = [group[0] for group in first.values()]
    return p.positions[agents], np.array([len(group) for group in first.values()])


def _ranked_below_all(rank, x) -> bool:
    """Whether every other alternative is ranked above x by some ballot."""
    return all(any(r[z] < r[x] for r in rank.tolist()) for z in range(rank.shape[1]) if z != x)


def _warm_chain_cases():
    """``_three_route_cases`` plus seeded top-t profiles at n <= 8, m <= 6."""
    yield from _three_route_cases(300, seed=59_000, n_max=6)
    for case in range(120):
        rng = np.random.default_rng(67_000 + case)
        n, m = int(rng.integers(2, 9)), int(rng.integers(3, 7))
        p = dl.truncate_profile(dl.random_profile(n, m, seed=67_000 + case), int(rng.integers(1, m)))
        lot = dl.top_t_truncated_harmonic(p) if case % 2 else random_lottery(rng, m)
        yield 300 + case, lot, p


TOPT_RULES = ("plurality", "random_dictatorship", "top_t_det", "top_t_th")
WARM_START_CASES = {
    "thm53-108": (lambda: dl.thm53_instance(108, 9, 1, 2.0)[0], TOPT_RULES),
    "thm53-216": (lambda: dl.thm53_instance(216, 9, 1, 2.0)[0], TOPT_RULES),
    "random-49-5-t4": (
        lambda: dl.truncate_profile(dl.random_profile(49, 5, 903), 4), ("plurality",)
    ),
    "random-57-6-t2": (
        lambda: dl.truncate_profile(dl.random_profile(57, 6, 904), 2), ("plurality",)
    ),
}


class TestWarmChainCrossCheck:
    """Each candidate's dual program started from its routing basis where
    one exists (the start that replaced the chain from candidate 0's
    optimal basis), against every candidate solved cold."""

    def test_chain_outcomes_are_freed(self, monkeypatch):
        # No outcome may outlive the call that made it.
        solve, made = lp_mod.solve, []

        def recording(program, **kwargs):
            out = solve(program, **kwargs)
            made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(oracles_mod.lp, "solve", recording)
        profiles = [dl.random_profile(8, 4, seed) for seed in range(8)]
        for _ in range(3):
            for p in profiles:
                metric_distortion(dl.truncated_harmonic(p, 1.0), p)
        gc.collect()
        assert len(made) >= 3 * len(profiles)
        assert [ref for ref in made if ref() is not None] == []

    def test_matches_cold_reference(self, monkeypatch, acceptance_notes):
        solve, log = lp_mod.solve, []

        def recording(program, **kwargs):
            out = solve(program, **kwargs)
            log.append((program, kwargs.get("basis"), out))
            return out

        monkeypatch.setattr(oracles_mod.lp, "solve", recording)
        count, finite, near_tol, worst, moved, skipped, mismatches = 0, 0, 0, 0.0, 0, 0, []
        for case, lot, p in _warm_chain_cases():
            count += 1
            log.clear()
            got = metric_distortion(lot, p)
            chain = log[:]
            log.clear()
            want = reference_metric_dual_cold(lot, p)
            cold = [out.value for _, _, out in log]
            assert_certified(lot, p, got, case)
            if got.value.is_unbounded != want.value.is_unbounded:
                mismatches.append((case, got.value, want.value))
                continue
            if got.value.is_unbounded:
                assert chain == [] and got.arg_optimum == want.arg_optimum, case
                continue
            finite += 1
            # A candidate starts from its routing basis exactly when one
            # exists, with no phase-1 pivot; the solved candidates are those
            # the bound does not rule out.
            rank, _ = _blocks(p)
            for program, start, out in chain:
                x = _candidate_of(program)
                assert (start is not None) == _ranked_below_all(rank, x), (case, x)
                assert start is None or out.pivots[0] == 0, (case, x)
            solved = [(_candidate_of(program), out.value) for program, _, out in chain]
            assert_skips_follow_the_bound(lot, p, solved, case)
            # A skipped candidate's cold value is at most its bound, and at
            # least the margin below the winner.
            bound, win = oracles_mod._candidate_bounds(lot, p), dict(solved)[got.arg_optimum]
            for x in set(range(p.m)) - {x for x, _ in solved}:
                assert _at_most(cold[x], bound[x]), (case, x)
                assert _at_most(cold[x], win - oracles_mod.SKIP_MARGIN * max(1.0, abs(win))), (
                    case, x,
                )
            skipped += p.m - len(chain)
            # A candidate with no routing basis is solved cold, to the bit.
            for program, start, out in chain:
                if start is None:
                    again = solve(program)
                    assert out.value == again.value, case
                    assert out.duals.tobytes() == again.duals.tobytes(), case
            gap = abs(got.value.value - want.value.value) / want.value.value
            # A positive mass within 10 * PIVOT_TOL puts reduced costs of
            # that size in the dual, below which both solves stop, so two
            # optimal bases may then differ by about PIVOT_TOL in value.
            if lot.prob[lot.prob > 0].min() < 10 * lp_mod.PIVOT_TOL:
                near_tol, bound = near_tol + 1, 1e-9
            else:
                worst, bound = max(worst, gap), 1e-12
            # Another optimum may win only if the cold values tie it.
            tied = abs(cold[got.arg_optimum] - cold[want.arg_optimum]) <= 1e-9 * max(cold)
            if gap > bound or not (got.arg_optimum == want.arg_optimum or tied):
                mismatches.append((case, got.value, want.value, got.arg_optimum, want.arg_optimum))
            moved += got.arg_optimum != want.arg_optimum
        assert mismatches == []
        assert finite >= count // 2
        acceptance_notes.append(
            f"metric routing starts vs cold candidates: {count} cases ({finite} finite), "
            f"worst relative gap {worst:.1e} ({near_tol} cases with a mass below "
            f"1e-9 held to 1e-9), {moved} tied arg_optimum changes, {skipped} candidates "
            "skipped by their bound"
        )

    @pytest.mark.parametrize("rule, value", [(dl.plurality, 5.0), (dl.copeland, 3.0)])
    def test_exact_table_values_stay_exact(self, rule, value):
        # Both worst cases are exact, and a start computed through an
        # inverse must still read them to the bit.
        assert exhaustive_worst_case(rule, 3, 3, "metric")[0].value == value

    @pytest.mark.parametrize("case", list(WARM_START_CASES))
    def test_warm_starts_stay_bounded(self, monkeypatch, case):
        # Chained from the previous candidate with pivots down to PIVOT_TOL,
        # the warm tableau grew past 1e18 on each of these and the solve
        # failed; every cold solve succeeds, and so must the routing starts.
        make, rules = WARM_START_CASES[case]
        p = make()
        warm = {rid: metric_distortion(make_rule(rid, {})[0](p), p) for rid in rules}
        solve = lp_mod.solve
        monkeypatch.setattr(oracles_mod.lp, "solve", lambda program, basis=None: solve(program))
        for rid, got in warm.items():
            lot = make_rule(rid, {})[0](p)
            want = metric_distortion(lot, p)
            assert abs(got.value.value - want.value.value) <= dl.RATIO_TOL, rid
            assert got.arg_optimum == want.arg_optimum, rid
            assert_certified(lot, p, got, rid)


def _routing_cases():
    """Seeded full and top-t profiles at n <= 12, m <= 6 with truncated
    harmonic, random dictatorship or random lotteries, then the four top-t
    rules on ``thm51_profile`` (12, 5, 2) and ``thm53_instance(54, 9, 1, 2.0)``."""
    for case in range(90):
        rng = np.random.default_rng(71_000 + case)
        n, m = int(rng.integers(1, 13)), int(rng.integers(2, 7))
        p = dl.random_profile(n, m, seed=71_000 + case)
        if case % 2:
            p = dl.truncate_profile(p, int(rng.integers(1, m)))
        kind = case % 3
        if kind == 0:
            lot = dl.truncated_harmonic(p) if case % 2 == 0 else dl.top_t_truncated_harmonic(p)
        else:
            lot = dl.random_dictatorship(p) if kind == 1 else random_lottery(rng, m)
        yield case, lot, p
    for name, p in (("thm51", dl.thm51_profile(12, 5, 2)), ("thm53", dl.thm53_instance(54, 9, 1, 2.0)[0])):
        for rid in TOPT_RULES:
            yield (name, rid), make_rule(rid, {})[0](p), p


class TestRoutingBasis:
    """Candidate x's routing basis (``oracles._routing_basis``) is a
    feasible start of its dual program exactly when every other
    alternative is ranked above x by some ballot."""

    def test_is_a_feasible_start(self, acceptance_notes):
        bases, none = 0, 0
        for case, lot, p in _routing_cases():
            programs, _, rank, w = reference_metric_dual_programs(lot, p)
            for x, program in enumerate(programs):
                cols = oracles_mod._routing_basis(rank, w, lot.prob, x)
                assert (cols is not None) == _ranked_below_all(rank, x), (case, x)
                if cols is None:
                    none += 1
                    continue
                bases += 1
                # Every row is >= with a surplus column of -1.
                full = np.hstack([program.lhs, -np.eye(program.n_rows)])
                b = full[:, cols]
                assert b.shape == (program.n_rows, program.n_rows), (case, x)
                assert np.linalg.matrix_rank(b) == program.n_rows, (case, x)
                start = np.linalg.solve(b, program.rhs)
                assert start.min() >= -1e-12, (case, x)
                out = lp_mod.solve(program, basis=cols)
                assert out.status == lp_mod.OPTIMAL and out.pivots[0] == 0, (case, x)
                # The start is a feasible point of the minimization, so its
                # lambda bounds the optimum from above.
                lam = start[cols.index(program.n_vars - 1)]
                assert lam >= out.value * (1.0 - 1e-12), (case, x, lam, out.value)
        assert bases >= 300 and none >= 50, (bases, none)
        acceptance_notes.append(
            f"routing bases: {bases} feasible starts, {none} candidates without one"
        )

    def test_swapped_column_is_rejected(self):
        lot, p = dl.truncated_harmonic(dl.random_profile(8, 4, 0)), dl.random_profile(8, 4, 0)
        programs, _, rank, w = reference_metric_dual_programs(lot, p)
        k, m = rank.shape
        for x, program in enumerate(programs):
            cols = oracles_mod._routing_basis(rank, w, lot.prob, x)
            lam = program.n_vars - 1
            # The surplus of the row d(b, x) where lambda binds is the one
            # of those k surpluses left out; without lambda it goes negative.
            (binding,) = {lam + 1 + b * m + x for b in range(k)} - set(cols)
            swapped = [binding if c == lam else c for c in cols]
            with pytest.raises(ValueError, match="infeasible"):
                lp_mod.solve(program, basis=swapped)
            # A surplus named twice is rejected before B is factored.
            twice = [cols[-1] if c == lam else c for c in cols]
            with pytest.raises(ValueError, match="distinct"):
                lp_mod.solve(program, basis=twice)


class TestMetricProgramShape:
    """The oracle solves the dual: one row per primal variable, one program
    for the candidate of highest bound and for each later candidate its
    bound does not rule out.

    The primal has one block per distinct ballot, k of them: k(m-1)
    consistency rows, k*m(m-1)/2 pair rows d(b,X) - d(b,Y) <= e(X,Y) that
    the ballots do not imply, k(m-t)(m-t-1)/2 more for the second direction
    of two unranked alternatives, and k*m(m-1)/2 rows
    e(X,Y) <= d(b,X) + d(b,Y); one more dual column is lambda.
    """

    @staticmethod
    def recorded_programs(monkeypatch, lot, p):
        """The programs solved, after checking that they are the candidates
        the bound does not rule out."""
        seen = []
        solve = dl.lp.solve

        def recording(prog, **kwargs):
            out = solve(prog, **kwargs)
            seen.append((prog, out))
            return out

        monkeypatch.setattr(dl.lp, "solve", recording)
        assert metric_distortion(lot, p).value.is_finite
        assert_skips_follow_the_bound(lot, p, [(_candidate_of(g), out.value) for g, out in seen])
        return [prog for prog, _ in seen]

    def check_full_shape(self, monkeypatch, p, k):
        n, m = p.n, p.m
        assert len(set(p.ballots)) == k < n
        seen = self.recorded_programs(monkeypatch, dl.truncated_harmonic(p), p)
        consistency_rows = k * (m - 1)
        pair_rows = k * m * (m - 1) // 2 + k * m * (m - 1) // 2
        for prog in seen:
            assert prog.n_rows == k * m + m * (m - 1) // 2
            assert prog.n_vars == consistency_rows + pair_rows + 1
            assert set(prog.relations) == {">="} and not prog.maximize

    def test_dual_shape(self, monkeypatch):
        # Agents 1 and 2 cast the same ballot.
        self.check_full_shape(monkeypatch, dl.random_profile(5, 4, seed=3), k=4)

    def test_pooled_dual_shape(self, monkeypatch):
        p = Profile(4, [(0, 1, 2, 3)] * 3 + [(3, 2, 1, 0)] * 2 + [(0, 1, 2, 3)])
        self.check_full_shape(monkeypatch, p, k=2)

    @pytest.mark.parametrize("t, rows", [(1, 90), (2, 80), (3, 75)])
    def test_top_t_dual_shape(self, monkeypatch, t, rows):
        n, m = 5, 4
        p = dl.truncate_profile(dl.random_profile(n, m, seed=3), t)
        # Two of the five top-1 ballots differ, four of the longer ones.
        k = len(set(p.ballots))
        assert k == (2 if t == 1 else 4)
        seen = self.recorded_programs(monkeypatch, dl.random_dictatorship(p), p)
        # rows is the primal row count of n blocks; each block has rows / n.
        per_ballot = (m - 1) + m * (m - 1) + (m - t) * (m - t - 1) // 2
        assert rows == n * per_ballot
        for prog in seen:
            assert prog.n_rows == k * m + m * (m - 1) // 2
            assert prog.n_vars == k * per_ballot + 1


class TestSolveOrder:
    """The metric oracle solves the candidates by descending bound B_X, so
    that the likely winners come first, each from its routing basis where
    one exists."""

    def test_metric_full_counts(self, monkeypatch):
        # perfbench's metric-full inputs at seed 0. Candidate 0 cold first,
        # then the rest warm from its basis by bound, the oracle solved 138
        # LPs and took 4,866 pivots on them (152 and 5,176 in index order).
        counts = {"lps": 0, "cold": 0, "phase 1": 0, "phase 2": 0}
        solve = lp_mod.solve

        def counting_solve(program, **kwargs):
            out = solve(program, **kwargs)
            counts["lps"] += 1
            counts["cold"] += kwargs["basis"] is None
            counts["phase 1"] += out.pivots[0]
            counts["phase 2"] += out.pivots[1]
            return out

        monkeypatch.setattr(oracles_mod.lp, "solve", counting_solve)
        for seed in range(64):
            p = dl.random_profile(8, 4, seed)
            metric_distortion(dl.truncated_harmonic(p, 1.0), p)
        assert counts == {"lps": 98, "cold": 0, "phase 1": 0, "phase 2": 1_573}


BOUND_CASES = {
    "thm53-108": (lambda: dl.thm53_instance(108, 9, 1, 2.0)[0], TOPT_RULES),
    "prop31-200-5": (
        lambda: dl.prop31_profile(200, 5), ("plurality_veto", "ppv", "truncated_harmonic")
    ),
    "thm51-200-5-2": (lambda: dl.thm51_profile(200, 5, 2), ("top_t_det", "top_t_th")),
}


class TestCandidateBound:
    """B_X = sum_Y q_Y r(Y, X), with r(Y, X) = 1 + 2(n - s)/s for the s agents
    who rank Y above X, bounds candidate X's value V_X from above."""

    def test_matches_pairwise_loop(self):
        for case, lot, p in _warm_chain_cases():
            got = oracles_mod._candidate_bounds(lot, p)
            want = reference_candidate_bounds(lot, p)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0), case

    @staticmethod
    def check_cold_values(lot, p, where) -> tuple[int, int]:
        """Assert B_X >= every candidate's cold dual value; return the number
        of candidates and of those the library skips."""
        bound = oracles_mod._candidate_bounds(lot, p)
        duals, _, _ = reference_metric_candidate_duals(lot, p, routing=False)
        for x, dual in enumerate(duals):
            assert _at_most(dual.value, bound[x]), (where, x, dual.value, bound[x])
        solved = _solved_by_the_bound(lot, p, lambda x: duals[x].value)
        return p.m, p.m - len(solved)

    def test_bound_covers_seeded_cold_values(self, acceptance_notes):
        candidates, skipped = 0, 0
        for case, lot, p in _repeated_ballot_cases(300):
            if metric_distortion(lot, p).value.is_finite:
                c, k = self.check_cold_values(lot, p, case)
                candidates, skipped = candidates + c, skipped + k
        assert skipped > 0
        acceptance_notes.append(
            f"candidate bound >= cold value: {candidates} candidates of "
            f"_repeated_ballot_cases(300), {skipped} skipped"
        )

    @pytest.mark.parametrize("case", list(BOUND_CASES))
    def test_bound_covers_cold_values_at_large_n(self, case, acceptance_notes):
        make, rules = BOUND_CASES[case]
        p = make()
        notes = []
        for rid in rules:
            lot = make_rule(rid, {})[0](p)
            assert metric_distortion(lot, p).value.is_finite, rid
            c, k = self.check_cold_values(lot, p, (case, rid))
            notes.append(f"{rid} {k}/{c}")
        acceptance_notes.append(
            f"candidate bound >= cold value on {case}, skipped/candidates: " + ", ".join(notes)
        )


class TestRuleDistortion:
    def test_plurality_veto_p2(self, request):
        (row,) = checked_by(request)
        p2 = Profile(
            m=3, rankings=((0, 1, 2), (1, 0, 2), (2, 1, 0))
        )
        rep = rule_distortion(make_rule(row.rule, row.params)[0], p2, row.world)
        assert rep.value.is_finite and rep.value.value <= row.bound(p2.n, p2.m, None) + dl.RATIO_TOL

    def test_random_dictatorship_two_agents(self):
        rep = rule_distortion(dl.random_dictatorship, AB_BA, "metric")
        assert rep.value.value == pytest.approx(2.0)  # 3 - 2/n at n=2

    def test_harmonic_all_last_unbounded(self):
        p = Profile(
            m=3, rankings=((0, 1, 2), (1, 0, 2))
        )  # 2 is last for everyone
        rep = rule_distortion(dl.harmonic_rule, p, "metric")
        assert rep.value.is_unbounded

    def test_unknown_world(self):
        with pytest.raises(ValueError, match="world"):
            rule_distortion(dl.plurality, AB, "galactic")


class TestTopTOracles:
    def test_matches_completion_max(self):
        # t = 1 of 3 leaves two completions per agent; the oracle must match
        # the maximum over the four completions, each solved by the oracle.
        topt = TopTProfile(m=3, t=1, prefixes=((0,), (2,)))
        lot = Lottery(np.array([0.2, 0.3, 0.5]))
        for oracle in (metric_distortion, utilitarian_distortion):
            direct = oracle(lot, topt)
            best = reference_completion_max(oracle, lot, topt).value
            assert direct.value.is_unbounded == best.is_unbounded
            if direct.value.is_finite:
                assert direct.value.value == pytest.approx(best.value, abs=1e-6)

    def test_prefix_witness_consistent(self):
        topt = dl.truncate_profile(dl.random_profile(3, 4, seed=7), 2)
        lot = dl.top_t_truncated_harmonic(topt)
        assert_certified(lot, topt, metric_distortion(lot, topt))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            metric_distortion(Lottery.point_mass(3, 0), AB)


class TestTypedFailures:
    """The metric oracle's faults raise typed errors, both ``RuntimeError``s."""

    LOT, PROFILE = Lottery.point_mass(2, 0), AB_BA

    def test_non_optimal_dual_is_a_solver_error(self, monkeypatch):
        monkeypatch.setattr(
            oracles_mod.lp, "solve",
            lambda program, basis=None: lp_mod.LPOutcome(status=lp_mod.UNBOUNDED),
        )
        with pytest.raises(dl.SolverError, match="returned unbounded"):
            metric_distortion(self.LOT, self.PROFILE)

    def test_failed_primal_check_is_a_certificate_error(self, monkeypatch):
        solve = lp_mod.solve

        def wrong_duals(program, **kwargs):
            out = solve(program, **kwargs)
            return dataclasses.replace(out, duals=-out.duals)

        monkeypatch.setattr(oracles_mod.lp, "solve", wrong_duals)
        with pytest.raises(dl.CertificateError, match="primal certificate"):
            metric_distortion(self.LOT, self.PROFILE)
        assert issubclass(dl.CertificateError, RuntimeError)


class TestExhaustiveWorstCase:
    def test_single_agent_plurality(self):
        value, profile = exhaustive_worst_case(dl.plurality, 1, 2, "metric")
        assert value.value == pytest.approx(1.0)

    def test_random_dictatorship_two_by_two(self):
        value, profile = exhaustive_worst_case(dl.random_dictatorship, 2, 2, "metric")
        assert value.value == pytest.approx(2.0)
        assert profile.n == 2

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            exhaustive_worst_case(dl.plurality, 6, 6, "metric", budget=1000)

    def test_budget_error_on_a_huge_shape(self):
        # (9!)^2000 profiles has more digits than str() converts.
        with pytest.raises(BudgetExceededError, match=r"^at least 10\^11119 profiles exceed"):
            exhaustive_worst_case(dl.plurality, 2000, 9, "metric")

    def test_count_text_past_the_str_limit(self):
        # The largest e with 10^e <= count, at and around powers of ten; a
        # count of want + 1 digits prints in full up to str()'s limit, here
        # Python's default.
        limit, saved = 4300, sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for e in range(limit - 2, limit + 8):
                for count, want in ((10**e - 1, e - 1), (10**e, e), (10**e + 1, e)):
                    text = oracles_mod._count_text(count)
                    assert text == (f"at least 10^{want}" if want >= limit else str(count)), e
            assert oracles_mod._count_text(6**6) == "46656"
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("t", [0, -1, 4])
    def test_t_out_of_range(self, monkeypatch, t):
        # Refused before any profile is counted.
        monkeypatch.setattr(oracles_mod, "_profile_count", None)
        with pytest.raises(ValueError, match=f"t={t} out of range for m=3"):
            exhaustive_worst_case(dl.plurality, 2, 3, "metric", t=t)

    def test_prefix_enumeration(self):
        value, profile = exhaustive_worst_case(
            dl.top_t_det_rule, 1, 3, "metric", t=1
        )
        assert isinstance(profile, TopTProfile)
        assert value.value == pytest.approx(1.0)


# The rules ``distortion-lab reproduce`` tabulates: full ballots, no
# required parameter.
REPRODUCE_IDS = tuple(
    rid
    for rid, entry in RULES.items()
    if "full" in entry.kinds and all(d is not None for d, _ in entry.params.values())
)


def _middle_dictator(p):
    """Point mass on agent 1's top. At n = 3 no sorted arrangement leaves
    agent 1 alone against the other two, so the worst case is reached only
    on unsorted profiles, whose lotteries differ from the sorted ones'."""
    return Lottery.point_mass(p.m, p.ballots[1][0])


def _first_alternative(p):
    """Point mass on alternative 0 whatever the ballots: renaming the
    alternatives moves the mass in the key's lottery but not in the rule's."""
    return Lottery.point_mass(p.m, 0)


TEST_RULES = {"middle_dictator": _middle_dictator, "first_alternative": _first_alternative}


class TestExhaustiveOrbitCrossCheck:
    """One oracle call per orbit of (ballot multiset, lottery) under renamings
    of the alternatives, against one per profile."""

    CELLS = (
        [(rid, n, m, None) for rid in REPRODUCE_IDS for n, m in ((2, 3), (3, 3), (1, 4))]
        + [(rid, 3, 3, 2) for rid in ("top_t_det", "top_t_th")]
        + [("middle_dictator", 3, m, None) for m in (2, 3)]
        + [("first_alternative", n, m, None) for n, m in ((2, 3), (3, 3), (1, 4))]
        + [("first_alternative", 3, 3, 2)]
    )

    @pytest.mark.parametrize("world", ["metric", "utilitarian"])
    def test_matches_plain_scan(self, world, acceptance_notes):
        assert len(REPRODUCE_IDS) == 7
        for rid, n, m, t in self.CELLS:
            rule = TEST_RULES[rid] if rid in TEST_RULES else make_rule(rid, {})[0]
            got_value, got_witness = exhaustive_worst_case(rule, n, m, world, t)
            want_value, want_witness = reference_exhaustive_worst_case(rule, n, m, world, t)
            cell = (rid, n, m, t)
            assert repr(got_value) == repr(want_value), cell
            assert type(got_witness) is type(want_witness), cell
            assert got_witness.ballots == want_witness.ballots, cell
            report = rule_distortion(rule, got_witness, world)
            assert repr(report.value) == repr(got_value), cell
            assert_certified(rule(got_witness), got_witness, report, cell)
        acceptance_notes.append(
            f"exhaustive orbit reuse vs plain scan ({world}): {len(self.CELLS)} tables, "
            "values and witness ballots identical, each value certified on its witness profile"
        )

    @pytest.fixture
    def metric_calls(self, monkeypatch):
        """The profiles the metric oracle is called on."""
        calls = []
        metric = oracles_mod.metric_distortion

        def counting(lot, p):
            calls.append(p)
            return metric(lot, p)

        monkeypatch.setattr(oracles_mod, "metric_distortion", counting)
        return calls

    def test_solves_each_orbit_once(self, metric_calls):
        rule_calls = []

        def counting_rule(p):
            rule_calls.append(p)
            return dl.plurality(p)

        value, _ = exhaustive_worst_case(counting_rule, 3, 3, "metric")
        # 6^3 profiles; the C(6 + 2, 3) = 56 multisets of three of the 6
        # rankings fall into (56 + 3 * 0 + 2 * 2) / 3! = 10 orbits under the
        # renamings (Burnside: a transposition fixes no multiset of three, a
        # 3-cycle fixes two). Plurality's tie-break by index gives two of
        # them two lotteries each that no renaming maps onto one another.
        assert (len(rule_calls), len(metric_calls)) == (216, 12)
        # Each orbit is solved on a sorted arrangement.
        assert all(list(p.ballots) == sorted(p.ballots) for p in metric_calls)
        assert repr(value) == repr(reference_exhaustive_worst_case(dl.plurality, 3, 3, "metric")[0])

    def test_order_dependent_rule_solves_each_lottery(self, metric_calls):
        exhaustive_worst_case(lambda p: dl.plurality_veto(p)[0], 3, 3, "metric")
        # The 10 orbits, one of them solved twice: there the tie-break by
        # index gives a renamed profile a lottery that is not the renamed one.
        assert len(metric_calls) == 11


def _renamed(p, pi, order):
    """Profile p with alternative x renamed pi[x] and agent order[k] moved to k."""
    ballots = tuple(tuple(pi[x] for x in p.ballots[i]) for i in order)
    return TopTProfile(p.m, p.t, ballots) if isinstance(p, TopTProfile) else Profile(p.m, ballots)


class TestNeutralityLemma:
    """Renaming the alternatives and shuffling the agents leaves the worst
    case unchanged and moves its optimum by the renaming: the lemma behind
    the orbit fill in ``exhaustive_worst_case``."""

    @pytest.fixture
    def candidate_values(self, monkeypatch):
        """Each finite report's per-candidate values, read at its ``_first_max``."""
        seen = []
        first_max = oracles_mod._first_max

        def recording(candidates):
            candidates = list(candidates)
            seen.append(sorted((v for v, _ in candidates), reverse=True))
            return first_max(candidates)

        monkeypatch.setattr(oracles_mod, "_first_max", recording)
        return seen

    @pytest.mark.parametrize("world", ["metric", "utilitarian"])
    def test_renaming_maps_the_worst_case(self, world, candidate_values, acceptance_notes):
        oracle = oracles_mod._oracle(world)
        mapped = 0
        for case in range(150):
            rng = np.random.default_rng(71_000 + case)
            n, m = int(rng.integers(1, 7)), int(rng.integers(2, 6))
            p = dl.random_profile(n, m, seed=71_000 + case)
            if case % 2:
                p = dl.truncate_profile(p, int(rng.integers(1, m)))
            lot = random_lottery(rng, m, sparse=case % 3 == 0)
            pi = tuple(int(x) for x in rng.permutation(m))
            renamed_prob = np.empty(m)
            renamed_prob[list(pi)] = lot.prob
            renamed_lot, renamed = Lottery(renamed_prob), _renamed(p, pi, rng.permutation(n))
            candidate_values.clear()
            want = oracle(lot, p)
            got = oracle(renamed_lot, renamed)
            assert_certified(lot, p, want, case)
            assert_certified(renamed_lot, renamed, got, case)
            assert got.value.is_unbounded == want.value.is_unbounded, case
            if want.value.is_unbounded:
                continue
            values = candidate_values[0]  # want's; got's come second
            a, b = got.value.value, want.value.value
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b)), (case, a, b)
            # The optimum is unique when no other candidate comes within 1e-9.
            if len(values) == 1 or values[0] - values[1] > 1e-9 * max(1.0, values[0]):
                assert got.arg_optimum == pi[want.arg_optimum], case
                mapped += 1
        assert mapped >= 10
        acceptance_notes.append(
            f"neutrality lemma ({world}): 150 renamed and shuffled profiles, "
            f"{mapped} unique optima mapped by the renaming"
        )


class TestMetricRowsCrossCheck:
    def test_positions_rows_match_dict_rows(self):
        for case in range(50):
            rng = np.random.default_rng(67_000 + case)
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            p = dl.random_profile(n, m, seed=67_000 + case)
            if case % 2 and m > 1:
                p = dl.truncate_profile(p, int(rng.integers(1, m)))
            got = oracles_mod._metric_rows(p, range(p.n))
            assert np.array_equal(got, reference_metric_rows(p)), case


def _mirrored_instance(rng: np.random.Generator) -> tuple[Profile, Lottery]:
    """A profile and lottery mapped onto themselves by swapping alternatives
    0 and 1 together with agents 2k and 2k+1; masses range down to 1e-10."""
    m = int(rng.integers(3, 5))
    swap = {0: 1, 1: 0}
    rankings = []
    for _ in range(int(rng.integers(1, 3))):
        order = tuple(int(x) for x in rng.permutation(m))
        rankings += [order, tuple(swap.get(x, x) for x in order)]
    w = rng.random(m)
    w[rng.random(m) < 0.3] = 0.0
    if rng.random() < 0.5:
        w[:2] = 10.0 ** rng.uniform(-10, -1)
    w[1] = w[0]
    if w.sum() == 0.0:
        w[2] = 1.0
    return Profile(m, tuple(rankings)), Lottery(w / w.sum())


class TestTieResolution:
    # Mapped onto itself by 0<->1 with agents 0<->1 and 2<->3; the worst
    # cases for x* = 0 and 1 are equal and about 1.3e8, far above an
    # absolute 1e-12 margin, and differ by rounding.
    EPS = 4.79775993e-9
    MIRRORED = Profile(4, ((0, 3, 1, 2), (1, 3, 0, 2), (1, 2, 0, 3), (0, 2, 1, 3)))

    def test_large_tie_resolves_to_lowest_index(self):
        lot = Lottery(np.array([self.EPS, self.EPS, 0.0, 1.0 - 2 * self.EPS]))
        rep = utilitarian_distortion(lot, self.MIRRORED)
        assert rep.value.value == pytest.approx(1.3e8, rel=0.05)
        assert rep.arg_optimum == 0

    def test_bruteforce_twin_resolves_the_tie_like_the_oracle(self):
        lot = Lottery(np.array([self.EPS, self.EPS, 0.0, 1.0 - 2 * self.EPS]))
        got = utilitarian_distortion(lot, self.MIRRORED)
        twin = utilitarian_distortion_bruteforce(lot, self.MIRRORED)
        assert twin.value.value == pytest.approx(got.value.value, rel=1e-6)
        assert twin.arg_optimum == got.arg_optimum == 0
        # The witness is the combination that attains the value at alternative 0.
        assert dl.is_utility_consistent(twin.witness, self.MIRRORED)
        welfare = twin.witness.util.sum(axis=0)
        assert welfare[0] == welfare.max()
        assert welfare[0] / float(lot.prob @ welfare) == twin.value.value

    @pytest.mark.parametrize("oracle", [metric_distortion, utilitarian_distortion])
    def test_mirrored_instances_never_pick_1(self, oracle):
        # 1 is optimal exactly when 0 is, so the scan must never end on 1.
        rng = np.random.default_rng(20261018)
        for case in range(200):
            p, lot = _mirrored_instance(rng)
            assert oracle(lot, p).arg_optimum != 1, case

    def test_first_max_margin_is_relative(self):
        from distortion_lab.oracles import _first_max

        assert _first_max([(1e8, "a"), (1e8 * (1 + 5e-13), "b")]) == (1e8, "a")
        assert _first_max([(1e8, "a"), (1e8 * (1 + 5e-12), "b")])[1] == "b"
        assert _first_max([(0.5, "a"), (0.5 + 5e-13, "b")]) == (0.5, "a")
        assert _first_max([(1.0, "a"), (math.inf, "b"), (math.inf, "c")]) == (math.inf, "b")


class TestOneAlternative:
    """m = 1: the metric program has no pair variable and no row at all."""

    P = Profile(1, ((0,), (0,)))

    @pytest.mark.parametrize("oracle", [metric_distortion, utilitarian_distortion])
    def test_value_one_with_witness(self, oracle):
        lot = Lottery.point_mass(1, 0)
        rep = oracle(lot, self.P)
        assert rep.value == dl.DistortionValue.finite(1.0)
        assert rep.arg_optimum == 0
        assert rep.witness is not None
        assert dl.eval_distortion(lot, rep.witness).value == pytest.approx(1.0)

    @pytest.mark.parametrize("world", ["metric", "utilitarian"])
    def test_exhaustive(self, world):
        value, profile = exhaustive_worst_case(dl.plurality, 2, 1, world)
        assert value.value == 1.0
        assert profile == self.P


class TestReportSerialization:
    def test_finite_metric_report(self):
        rep = metric_distortion(Lottery.point_mass(2, 0), AB_BA)
        payload = rep.to_json()
        assert payload["value"] == pytest.approx(3.0)
        assert isinstance(payload["arg_optimum"], int)
        assert payload["witness"]["points"] == 4
        assert len(payload["witness"]["dist"]) == 4

    def test_unbounded_report(self):
        rep = metric_distortion(Lottery(np.array([0.6, 0.4])), AB)
        payload = rep.to_json()
        assert payload["value"] == "unbounded"
        assert payload["witness"]["points"] == 3

    def test_utility_witness_payload(self):
        rep = utilitarian_distortion(Lottery(np.array([0.5, 0.5])), AB)
        payload = rep.to_json()
        assert payload["witness"]["util"] == [[1.0, 0.0]]
