"""Registry of property checks, one per documented library invariant.

Each entry runs at least 100 seeded random cases. The registry is
consumed twice: ``test_invariants.py`` parametrizes over it so every
invariant fails independently, and the acceptance suite asserts the
whole registry passes. Outcomes are memoized so the work happens once
per session.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

import distortion_lab as dl
import distortion_lab.oracles as oracles_mod
from distortion_lab import cli
from distortion_lab.core import _consistency_chain

from conftest import (
    consistent_utilities,
    profile_from_metric,
    random_lottery,
    sampled_consistent_pair,
    sampled_metric,
)
from reference_oracles import restrict_profile

REGISTRY: dict[str, callable] = {}
_outcomes: dict[str, BaseException | None] = {}

CASES = 100


def _register(name):
    def deco(fn):
        REGISTRY[name] = fn
        return fn

    return deco


def run_registered(name: str) -> None:
    """Run one registered check, memoizing the outcome across callers."""
    if name not in _outcomes:
        try:
            REGISTRY[name]()
            _outcomes[name] = None
        except BaseException as exc:  # re-raised for every caller
            _outcomes[name] = exc
    err = _outcomes[name]
    if err is not None:
        raise err


def run_all() -> list[str]:
    """Run every check; return the names that failed."""
    failed = []
    for name in sorted(REGISTRY):
        try:
            run_registered(name)
        except BaseException:
            failed.append(name)
    return failed


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------


@_register("core-scaling-leaves-distortion-unchanged")
def _check_core_scaling():
    for case in range(CASES):
        rng = np.random.default_rng(10_000 + case)
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        met, p = sampled_consistent_pair(rng, n, m)
        lot = random_lottery(rng, m)
        scale = float(rng.uniform(0.1, 25.0))
        a = dl.eval_distortion(lot, met)
        b = dl.eval_distortion(lot, dl.MetricSpace(n=n, m=m, dist=met.dist * scale))
        assert a.is_unbounded == b.is_unbounded, (case, a, b)
        if a.is_finite:
            assert abs(a.value - b.value) <= 1e-9 * max(1.0, a.value), (case, a, b)


@_register("core-preferred-alternative-within-half-pair-distance")
def _check_core_half_distance():
    # If an agent prefers Y to X, its distance to X is at least half the
    # distance between X and Y (by the triangle inequality through the agent).
    for case in range(CASES):
        rng = np.random.default_rng(11_000 + case)
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        met, p = sampled_consistent_pair(rng, n, m)
        for i in range(n):
            order = p.rankings[i]
            for a_pos in range(m):
                for b_pos in range(a_pos + 1, m):
                    y, x = order[a_pos], order[b_pos]  # y preferred to x
                    d_ix = met.agent_alt[i, x]
                    d_xy = met.dist[n + x, n + y]
                    assert d_ix >= d_xy / 2 - 1e-9, (case, i, x, y)


@_register("core-restriction-idempotent")
def _check_core_restrict_idempotent():
    for case in range(CASES):
        rng = np.random.default_rng(12_000 + case)
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        p = dl.random_profile(n, m, seed=12_000 + case)
        size = int(rng.integers(1, m + 1))
        keep = sorted(rng.choice(m, size=size, replace=False).tolist())
        q, fwd = restrict_profile(p, keep)
        q2, ident = restrict_profile(q, list(range(q.m)))
        assert q2 == q, case
        assert list(ident) == list(range(q.m)), case
        assert [fwd[j] for j in range(q.m)] == keep, case


@_register("core-truncation-preserves-utility-consistency")
def _check_core_truncation_utilities():
    for case in range(CASES):
        rng = np.random.default_rng(13_000 + case)
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        p = dl.random_profile(n, m, seed=13_000 + case)
        u = consistent_utilities(rng, p)
        assert dl.is_utility_consistent(u, p), case
        for t in range(1, m + 1):
            assert dl.is_utility_consistent(u, dl.truncate_profile(p, t)), (case, t)


# ---------------------------------------------------------------------------
# lp
# ---------------------------------------------------------------------------


def _random_bounded_lp(rng: np.random.Generator):
    """A feasible, bounded max/<= LP: x=0 feasible, all-ones row bounds it."""
    nv = int(rng.integers(2, 6))
    nr = int(rng.integers(1, 5))
    lhs = rng.uniform(-0.5, 1.0, size=(nr, nv)).tolist()
    lhs.append([1.0] * nv)
    rhs = rng.uniform(0.5, 2.0, size=nr).tolist() + [float(rng.uniform(1.0, 5.0))]
    objective = rng.uniform(-1.0, 1.0, size=nv)
    return dl.LinearProgram(
        objective=objective,
        lhs=np.array(lhs),
        relations=("<=",) * (nr + 1),
        rhs=np.array(rhs),
        maximize=True,
    )


@_register("lp-optimal-value-matches-assignment")
def _check_lp_value_recompute():
    for case in range(CASES):
        rng = np.random.default_rng(14_000 + case)
        lp = _random_bounded_lp(rng)
        out = dl.solve(lp)
        assert out.status == "optimal", (case, out.status)
        recomputed = float(np.asarray(lp.objective) @ out.assignment)
        assert abs(out.value - recomputed) <= 1e-9 * max(1.0, abs(out.value)), case
        lhs = np.asarray(lp.lhs)
        slack = lhs @ out.assignment - np.asarray(lp.rhs)
        assert (slack <= 1e-7).all(), (case, slack.max())
        assert (out.assignment >= -1e-7).all(), case


@_register("lp-strong-duality-on-bounded-instances")
def _check_lp_duality():
    # For max{cx : Ax <= b, x >= 0} the mechanical dual is
    # min{by : A^T y >= c, y >= 0}; optimal values coincide.
    for case in range(CASES):
        rng = np.random.default_rng(15_000 + case)
        lp = _random_bounded_lp(rng)
        primal = dl.solve(lp)
        assert primal.status == "optimal", case
        lhs = np.asarray(lp.lhs)
        dual = dl.LinearProgram(
            objective=np.asarray(lp.rhs, dtype=float),
            lhs=lhs.T,
            relations=(">=",) * lhs.shape[1],
            rhs=np.asarray(lp.objective, dtype=float),
            maximize=False,
        )
        dual_out = dl.solve(dual)
        assert dual_out.status == "optimal", (case, dual_out.status)
        assert abs(primal.value - dual_out.value) <= 1e-6 * max(1.0, abs(primal.value)), (
            case,
            primal.value,
            dual_out.value,
        )


@_register("lp-deterministic-given-input")
def _check_lp_deterministic():
    for case in range(CASES):
        out1 = dl.solve(_random_bounded_lp(np.random.default_rng(16_000 + case)))
        out2 = dl.solve(_random_bounded_lp(np.random.default_rng(16_000 + case)))
        assert out1.status == out2.status, case
        assert out1.value == out2.value, case
        assert np.array_equal(out1.assignment, out2.assignment), case


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


@_register("oracle-lp-matches-enumeration")
def _check_oracle_equivalence():
    for case in range(CASES):
        rng = np.random.default_rng(17_000 + case)
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        p = dl.random_profile(n, m, seed=17_000 + case)
        lot = random_lottery(rng, m)
        a = dl.utilitarian_distortion(lot, p)
        b = dl.utilitarian_distortion_bruteforce(lot, p)
        assert a.value.is_unbounded == b.value.is_unbounded, (case, a.value, b.value)
        if a.value.is_finite:
            assert abs(a.value.value - b.value.value) <= 1e-6, (case, a.value, b.value)


@_register("oracle-witness-reproduces-value")
def _check_oracle_witness():
    for case in range(CASES):
        rng = np.random.default_rng(18_000 + case)
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        p = dl.random_profile(n, m, seed=18_000 + case)
        if case % 4 == 0 and m >= 2:
            p = dl.truncate_profile(p, max(1, m - 1))
        lot = random_lottery(rng, m)
        for world, oracle, predicate in (
            ("metric", dl.metric_distortion, dl.is_metric_consistent),
            ("utilitarian", dl.utilitarian_distortion, dl.is_utility_consistent),
        ):
            report = oracle(lot, p)
            assert report.witness is not None, (case, world)
            assert predicate(report.witness, p), (case, world)
            evaluated = dl.eval_distortion(lot, report.witness)
            if report.value.is_finite:
                assert evaluated.is_finite, (case, world)
                assert abs(evaluated.value - report.value.value) <= 1e-5, (
                    case,
                    world,
                    evaluated.value,
                    report.value.value,
                )
            else:
                assert evaluated.is_unbounded, (case, world)


@_register("oracle-prefix-data-never-below-full-data")
def _check_oracle_information_monotone():
    # A prefix-only profile admits every cardinal instance the full profile
    # admits, so the worst case over the larger set is at least as big.
    for case in range(CASES):
        rng = np.random.default_rng(19_000 + case)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(3, 5))
        t = int(rng.integers(m - 2, m))  # m-2 or m-1
        p = dl.random_profile(n, m, seed=19_000 + case)
        topt = dl.truncate_profile(p, t)
        rule = dl.plurality if case % 2 == 0 else dl.random_dictatorship
        lot = rule(topt)
        for world, oracle in (
            ("metric", dl.metric_distortion),
            ("utilitarian", dl.utilitarian_distortion),
        ):
            coarse = oracle(lot, topt).value
            fine = oracle(lot, p).value
            if fine.is_unbounded:
                assert coarse.is_unbounded, (case, world)
            elif coarse.is_finite:
                assert coarse.value >= fine.value - 1e-6, (
                    case,
                    world,
                    coarse.value,
                    fine.value,
                )


@_register("oracle-plurality-shortlist-cost-bound")
def _check_oracle_shortlist_bound():
    # Alternatives with plurality score >= tau*n contain one whose social
    # cost is within a (1 + 2/(1 - tau*m)) factor of optimal.
    for case in range(CASES):
        rng = np.random.default_rng(20_000 + case)
        n, m = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        met, p = sampled_consistent_pair(rng, n, m)
        tau = float(rng.uniform(0.0, 1.0)) / m * 0.99
        scores = dl.plurality_scores(p)
        shortlist = [x for x in range(m) if scores[x] >= tau * n]
        assert shortlist, case  # max plurality >= n/m > tau*n
        costs = np.array([dl.social_cost(met, x) for x in range(m)])
        bound = (1.0 + 2.0 / (1.0 - tau * m)) * costs.min() + 1e-6
        assert costs[shortlist].min() <= bound, (case, costs, shortlist, bound)


@_register("oracle-support-location-controls-unboundedness")
def _check_oracle_support():
    for case in range(CASES):
        rng = np.random.default_rng(21_000 + case)
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 4))
        p = dl.random_profile(n, m, seed=21_000 + case)
        # Mass only on top choices: always a finite metric worst case.
        tops = sorted({r[0] for r in p.rankings})
        w = np.zeros(m)
        w[tops] = rng.random(len(tops)) + 0.1
        lot = dl.Lottery(w / w.sum())
        assert dl.metric_distortion(lot, p).value.is_finite, (case, "tops")
        # Any mass on a universally-last alternative: unbounded.
        last = int(rng.integers(0, m + 1))
        rows = []
        for i in range(n):
            rest = [x for x in range(m + 1) if x != last]
            rng.shuffle(rest)
            rows.append(tuple(rest) + (last,))
        worst = dl.Profile(m=m + 1, rankings=tuple(rows))
        w2 = rng.random(m + 1) + 1e-3
        w2[last] = max(w2[last], 0.25)
        lot2 = dl.Lottery(w2 / w2.sum())
        assert dl.metric_distortion(lot2, worst).value.is_unbounded, (case, "last")


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

_EPS_GRID = (0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 5.9)


@_register("rules-always-return-valid-lotteries")
def _check_rules_valid_lotteries():
    for case in range(CASES):
        rng = np.random.default_rng(22_000 + case)
        n, m = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        p = dl.random_profile(n, m, seed=22_000 + case)
        eps = _EPS_GRID[case % len(_EPS_GRID)]
        lots = [
            dl.plurality(p),
            dl.copeland(p),
            dl.plurality_veto(p)[0],
            dl.pruned_plurality_veto(p, eps),
            dl.random_dictatorship(p),
            dl.harmonic_rule(p),
            dl.truncated_harmonic(p, eps),
        ]
        t = int(rng.integers(1, m + 1))
        topt = dl.truncate_profile(p, t)
        lots += [
            dl.top_t_det_rule(topt),
            dl.top_t_truncated_harmonic(topt),
            dl.mix(lots[0], lots[5], float(rng.random())),
        ]
        for lot in lots:
            assert lot.prob.shape == (m,)
            assert (lot.prob >= 0).all()
            assert abs(lot.prob.sum() - 1.0) <= 1e-12


@_register("rules-veto-winner-first-count-covers-last-count")
def _check_rules_pv_property():
    for case in range(CASES):
        n, m = 1 + case % 7, 2 + case % 4
        p = dl.random_profile(n, m, seed=23_000 + case)
        _, trace = dl.plurality_veto(p)
        w = trace.winner
        firsts = int(dl.plurality_scores(p)[w])
        lasts = sum(1 for r in p.rankings if r[-1] == w)
        assert firsts >= lasts, (case, w, firsts, lasts)


@_register("rules-pruned-veto-winner-clears-threshold")
def _check_rules_ppv_in_shortlist():
    for case in range(CASES):
        rng = np.random.default_rng(24_000 + case)
        n, m = int(rng.integers(1, 8)), int(rng.integers(2, 6))
        p = dl.random_profile(n, m, seed=24_000 + case)
        eps = _EPS_GRID[case % len(_EPS_GRID)]
        lot = dl.pruned_plurality_veto(p, eps)
        winner = int(np.argmax(lot.prob))
        threshold = eps * n / ((6.0 + eps) * m)
        assert dl.plurality_scores(p)[winner] >= threshold - 1e-9, (case, winner)


@_register("rules-anchored-harmonic-concentrates-on-anchor")
def _check_rules_th_anchor_mass():
    for case in range(CASES):
        rng = np.random.default_rng(25_000 + case)
        n, m = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        p = dl.random_profile(n, m, seed=25_000 + case)
        eps = _EPS_GRID[case % len(_EPS_GRID)]
        anchor = dl.plurality_veto(p)[1].winner
        lot = dl.truncated_harmonic(p, eps)
        assert lot.prob[anchor] >= 1.0 - eps / 6.0 - 1e-12, (case, anchor)
        for y in range(m):
            if y == anchor:
                continue
            if all(r.index(anchor) + 1 < r.index(y) + 1 for r in p.rankings):
                assert lot.prob[y] == 0.0, (case, y)


@_register("rules-anchored-harmonic-matches-weight-columns")
def _check_rules_th_weights():
    for case in range(CASES):
        rng = np.random.default_rng(26_000 + case)
        n, m = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        p = dl.random_profile(n, m, seed=26_000 + case)
        eps = _EPS_GRID[case % len(_EPS_GRID)]
        anchor = dl.plurality_veto(p)[1].winner
        weights = dl.truncated_weights(p, anchor)
        lot = dl.truncated_harmonic(p, eps)
        for y in range(m):
            if y == anchor:
                continue
            expect = (eps / 6.0) * weights[:, y].sum() / n
            assert abs(lot.prob[y] - expect) <= 1e-12, (case, y)


@_register("rules-mix-expected-cost-affine-in-weight")
def _check_rules_mix_affine():
    for case in range(CASES):
        rng = np.random.default_rng(27_000 + case)
        n, m = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        met, p = sampled_consistent_pair(rng, n, m)
        lot1 = random_lottery(rng, m)
        lot2 = random_lottery(rng, m)
        beta = float(rng.random())
        mixed = dl.mix(lot1, lot2, beta)
        costs = np.array([dl.social_cost(met, x) for x in range(m)])
        num1 = float(lot1.prob @ costs)
        num2 = float(lot2.prob @ costs)
        num_mix = float(mixed.prob @ costs)
        assert abs(num_mix - (beta * num1 + (1 - beta) * num2)) <= 1e-9 * max(
            1.0, num1, num2
        ), case


@_register("rules-anonymous-up-to-documented-tiebreaks")
def _check_rules_anonymity():
    for case in range(CASES):
        rng = np.random.default_rng(28_000 + case)
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
        p = dl.random_profile(n, m, seed=28_000 + case)
        perm = rng.permutation(n)
        q = dl.Profile(m=m, rankings=tuple(p.rankings[i] for i in perm))
        for rule in (dl.plurality, dl.copeland, dl.random_dictatorship, dl.harmonic_rule):
            assert np.allclose(rule(p).prob, rule(q).prob, atol=1e-12), (case, rule)
        # Veto order is the documented agent-order tie-break: the winner may
        # move, but the first-count >= last-count property must survive.
        _, trace = dl.plurality_veto(q)
        w = trace.winner
        firsts = int(dl.plurality_scores(q)[w])
        lasts = sum(1 for r in q.rankings if r[-1] == w)
        assert firsts >= lasts, case


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@_register("instances-generators-emit-valid-profiles")
def _check_instances_valid():
    for case in range(CASES):
        rng = np.random.default_rng(29_000 + case)
        n, m = int(rng.integers(1, 8)), int(rng.integers(2, 7))
        assert not dl.validate_profile(dl.random_profile(n, m, seed=case))
        mm = 3 + case % 3
        nn = (mm - 1) * (1 + case % 6)
        assert not dl.validate_profile(dl.prop31_profile(nn, mm))
        p36, _ = dl.thm36_instance(4, 4 * (1 + case % 8))
        assert not dl.validate_profile(p36)
        t = 1 + case % 3
        m51 = t + 2
        n51 = (m51 - t + 1) * (1 + case % 5)
        assert not dl.validate_profile(dl.thm51_profile(n51, m51, t))
        if case % 10 == 0:
            p53, _ = dl.thm53_instance(12, 6, 2, 12 * 2**1.5 / (2 * 6**1.5))
            assert not dl.validate_profile(p53)


@_register("instances-prop31-veto-winner-is-target")
def _check_instances_prop31_winner():
    for case in range(CASES):
        m = 3 + case % 3
        n = (m - 1) * (1 + case // 3)
        p = dl.prop31_profile(n, m)
        assert dl.plurality_veto(p)[1].winner == 0, (case, n, m)


@_register("instances-structured-metric-consistent-with-profile")
def _check_instances_thm36_consistent():
    for case in range(CASES):
        if case % 5 == 4:
            m, n = 16, 40 * (1 + case // 5 % 3)
        else:
            m, n = 4, 4 * (1 + case)
        p, met = dl.thm36_instance(m, n)
        assert dl.is_metric_consistent(met, p), (case, m, n)


@_register("instances-generators-deterministic")
def _check_instances_deterministic():
    for case in range(CASES):
        n, m = 1 + case % 6, 2 + case % 5
        assert dl.random_profile(n, m, seed=case) == dl.random_profile(n, m, seed=case)
        mm = 3 + case % 3
        nn = (mm - 1) * (1 + case % 4)
        assert dl.prop31_profile(nn, mm) == dl.prop31_profile(nn, mm)
        p1, d1 = dl.thm36_instance(4, 4 + 4 * (case % 5))
        p2, d2 = dl.thm36_instance(4, 4 + 4 * (case % 5))
        assert p1 == p2 and np.array_equal(d1.dist, d2.dist)
        t = 1 + case % 3
        m51 = t + 2
        n51 = (m51 - t + 1) * (1 + case % 4)
        assert dl.thm51_profile(n51, m51, t) == dl.thm51_profile(n51, m51, t)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@_register("cli-exit-codes-and-stream-purity")
def _check_cli_exit_codes():
    for case in range(CASES):
        rng = np.random.default_rng(31_000 + case)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            inst = tmp / "inst.json"
            p = dl.random_profile(2 + case % 2, 3, seed=31_000 + case)
            dl.save_instance(p, inst)
            scenario = case % 8
            if scenario == 0:
                code, out, err = _cli(["run", "--rule", "plurality", "--instance", str(inst)])
                assert code == 0 and err == "", (case, err)
                payload = json.loads(out)
                assert len(payload["prob"]) == 3
            elif scenario == 1:
                code, out, _ = _cli(["run", "--rule", "nope", "--instance", str(inst)])
                assert code == 2 and out == "", case
            elif scenario == 2:
                code, out, _ = _cli(
                    ["oracle", "--world", "metric", "--rule", "random_dictatorship",
                     "--instance", str(inst)]
                )
                assert code == 0, case
                payload = json.loads(out)
                assert {"value", "arg_optimum", "witness"} <= set(payload)
            elif scenario == 3:
                bad = tmp / "bad.json"
                bad.write_text('{"m": 3, "n": 2' if case % 2 else '{"m": 3}')
                code, out, _ = _cli(["run", "--rule", "plurality", "--instance", str(bad)])
                assert code == 3 and out == "", case
            elif scenario == 4:
                eps = "6.0" if case % 2 else "-1.5"
                code, out, _ = _cli(
                    ["run", "--rule", "truncated_harmonic", "--epsilon", eps,
                     "--instance", str(inst)]
                )
                assert code == 4 and out == "", case
            elif scenario == 5:
                code, out, _ = _cli(
                    ["oracle", "--world", "utilitarian", "--rule", "plurality",
                     "--instance", str(inst), "--check-bruteforce", "--budget", "2"]
                )
                assert code == 6 and out == "", case
            elif scenario == 6:
                real = oracles_mod.utilitarian_distortion_bruteforce

                def _liar(lot, p, *, budget=10**6):
                    report = real(lot, p, budget=budget)
                    wrong = (
                        dl.DistortionValue.finite(1.0)
                        if report.value.is_unbounded
                        else dl.DistortionValue.finite(report.value.value + 0.5)
                    )
                    return dl.DistortionReport(
                        value=wrong, witness=report.witness,
                        arg_optimum=report.arg_optimum,
                    )

                oracles_mod.utilitarian_distortion_bruteforce = _liar
                try:
                    code, out, err = _cli(
                        ["oracle", "--world", "utilitarian", "--rule", "plurality",
                         "--instance", str(inst), "--check-bruteforce"]
                    )
                finally:
                    oracles_mod.utilitarian_distortion_bruteforce = real
                assert code == 5 and out == "", case
                assert "disagreement" in err, case
            else:
                out_path = tmp / "gen.json"
                code, out, _ = _cli(
                    ["generate", "--kind", "prop31", "--n", "5", "--m", "3",
                     "--out", str(out_path)]
                )
                assert code == 4, case  # 2 does not divide 5
                code, out, _ = _cli(
                    ["generate", "--kind", "prop31", "--n", "6", "--m", "3",
                     "--out", str(out_path)]
                )
                assert code == 0 and out == "" and out_path.exists(), case


@_register("cli-sweep-rows-deterministic")
def _check_cli_sweep_deterministic():
    for case in range(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            config = {
                "rules": ["plurality", "random_dictatorship"],
                "grid": [{"n": 2, "m": 2}],
                "seeds": [case, case + 1],
                "worlds": ["metric"],
            }
            cfg = tmp / "cfg.json"
            cfg.write_text(json.dumps(config))
            outs = []
            runs = ["1", "1", "2"] if case % 10 == 0 else ["1", "1"]
            for idx, jobs in enumerate(runs):
                path = tmp / f"out{idx}.csv"
                code, out, _ = _cli(
                    ["sweep", "--config", str(cfg), "--output", str(path),
                     "--jobs", jobs]
                )
                assert code == 0 and out == "", case
                outs.append(path.read_bytes())
            assert all(b == outs[0] for b in outs[1:]), case
