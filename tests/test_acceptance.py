"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Each test pins its tolerance and seed list. The guarantee checks share
one instance set (all 216 three-agent/three-alternative profiles plus
500 seeded random draws) built once per session; everything else runs
on its own seeded family. A one-line PASS/FAIL per criterion is echoed
by the conftest terminal-summary hook.

The paper's bounds that criteria 02-04 and 06-09 assert are rows of
``paper_claims.CLAIMS``; each of those tests reads its rows from there and
writes no bound of its own. Criterion 08's search threshold and criterion
10's composition bounds, which come from measured values, stay here.
"""

from __future__ import annotations

import functools
import itertools
import time

import numpy as np
import pytest

import distortion_lab as dl
import invariant_checks
import paper_claims
from distortion_lab.oracles import _oracle
from paper_claims import check_upper_bounds, checked_by


@functools.lru_cache(maxsize=1)
def guarantee_set() -> tuple:
    """216 exhaustive (n=3, m=3) profiles + 500 random ones (n<=6, m<=4)."""
    all_rankings = list(itertools.permutations(range(3)))
    profiles = [
        dl.Profile(3, combo)
        for combo in itertools.product(all_rankings, repeat=3)
    ]
    assert len(profiles) == 216
    profiles += [
        dl.random_profile(2 + j % 5, 2 + j % 3, seed=6000 + j)
        for j in range(500)
    ]
    return tuple(profiles)


def test_criterion_01_lp_and_bruteforce_utilitarian_oracles_agree():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    checked = 0
    for j in range(200):
        n, m = 2 + j % 3, 2 + (j // 3) % 3
        p = dl.random_profile(n, m, seed=4000 + j)
        for _ in range(5):
            w = rng.random(m) + 1e-3
            lot = dl.Lottery(w / w.sum())
            via_lp = dl.utilitarian_distortion(lot, p).value
            via_enum = dl.utilitarian_distortion_bruteforce(lot, p).value
            assert via_lp.is_unbounded == via_enum.is_unbounded
            if not via_lp.is_unbounded:
                assert via_lp.value == pytest.approx(via_enum.value, abs=dl.RATIO_TOL)
            checked += 1
    assert checked == 1000
    assert time.monotonic() - started < 120.0


def test_criterion_02_plurality_veto_metric_guarantee(request, acceptance_notes):
    check_upper_bounds(checked_by(request), guarantee_set(), acceptance_notes, "criterion 02")


def test_criterion_03_pruned_veto_guarantees_both_worlds(request, acceptance_notes):
    check_upper_bounds(checked_by(request), guarantee_set(), acceptance_notes, "criterion 03")


def test_criterion_04_truncated_harmonic_guarantees_both_worlds(request, acceptance_notes):
    rows = checked_by(request)
    metric = [row for row in rows if row.world == "metric"]
    check_upper_bounds(metric, guarantee_set(), acceptance_notes, "criterion 04")
    profiles = [dl.random_profile(2 + j % 5, 2 + j % 4, seed=2000 + j) for j in range(200)]
    utilitarian = [row for row in rows if row.world == "utilitarian"]
    check_upper_bounds(utilitarian, profiles, acceptance_notes, "criterion 04")


def test_criterion_05_harmonic_unbounded_with_universal_last_place():
    for j in range(10):
        n, m = 2 + j % 4, 3 + j % 3
        base = dl.random_profile(n, m - 1, seed=7000 + j)
        rankings = tuple(
            r + (m - 1,) for r in base.rankings
        )
        p = dl.Profile(m, rankings)
        value = dl.metric_distortion(dl.harmonic_rule(p), p).value
        assert value.is_unbounded


def test_criterion_06_veto_welfare_damage_grows_with_population(request):
    (row,) = checked_by(request)
    rule = paper_claims.make_rule(row)
    values = []
    for n in (6, 12, 24):
        p = dl.prop31_profile(n, 3)
        value = _oracle(row.world)(rule(p), p).value
        assert not value.is_unbounded
        assert value.value >= row.bound(p.n, p.m, None)
        values.append(value.value)
    assert values[0] <= values[1] <= values[2]


def test_criterion_07_structured_line_instance_hits_seven(request):
    # No rule returns this lottery: it is the point mass on alternative 1,
    # one of the block-one alternatives the instance makes costly.
    (row,) = checked_by(request)
    p, met = dl.thm36_instance(m=4, n=4)
    bound = row.bound(p.n, p.m, None)
    costs = [dl.social_cost(met, x) for x in range(p.m)]
    assert costs[1] / costs[0] == bound
    point = dl.Lottery(np.eye(p.m)[1])
    value = _oracle(row.world)(point, p).value
    assert not value.is_unbounded
    assert value.value >= bound - dl.RATIO_TOL


def test_criterion_08_plurality_worst_case_window(request):
    (row,) = checked_by(request)
    rule = paper_claims.make_rule(row)
    worst, _ = dl.exhaustive_worst_case(rule, 3, 3, row.world)
    assert not worst.is_unbounded
    assert worst.value <= row.bound(3, 3, None) + dl.RATIO_TOL

    found = None
    for j in range(150):
        p = dl.random_profile(5 + j % 5, 3, seed=1000 + j)
        value = dl.metric_distortion(rule(p), p).value
        if not value.is_unbounded and value.value >= 3.5:
            found = value.value
            break
    assert found is not None, "no sampled profile reached distortion 3.5"


def test_criterion_09_prefix_truncated_harmonic_stays_bounded(request, acceptance_notes):
    (row,) = checked_by(request)
    rule = paper_claims.make_rule(row)
    met_max = 0.0
    utl_max = 0.0
    for j in range(100):
        p = dl.truncate_profile(
            dl.random_profile(2 + j % 3, 4, seed=3000 + j), 2
        )
        lot = rule(p)
        met = _oracle(row.world)(lot, p).value
        assert not met.is_unbounded
        assert met.value <= row.bound(p.n, p.m, p.t) + dl.RATIO_TOL
        met_max = max(met_max, met.value)
        utl = dl.utilitarian_distortion(lot, p).value
        assert not utl.is_unbounded
        utl_max = max(utl_max, utl.value)
    note = (
        "criterion 09 empirical maxima (m=4, t=2, 100 profiles): "
        f"metric={met_max:.6f} utilitarian={utl_max:.6f}"
    )
    acceptance_notes.append(note)
    print(note)


def test_criterion_10_mixing_respects_composition_bounds():
    checked_metric = checked_util = 0
    for j in range(50):
        p = dl.random_profile(2 + j % 4, 2 + j % 3, seed=5000 + j)
        first, second = dl.random_dictatorship(p), dl.harmonic_rule(p)
        d_m1 = dl.metric_distortion(first, p).value
        d_m2 = dl.metric_distortion(second, p).value
        d_u1 = dl.utilitarian_distortion(first, p).value
        d_u2 = dl.utilitarian_distortion(second, p).value
        for beta in (0.25, 0.5):
            mixed = dl.mix(first, second, beta)
            if not (d_m1.is_unbounded or d_m2.is_unbounded):
                bound = beta * d_m1.value + (1 - beta) * d_m2.value
                got = dl.metric_distortion(mixed, p).value
                assert not got.is_unbounded
                assert got.value <= bound + dl.RATIO_TOL
                checked_metric += 1
            if not (d_u1.is_unbounded or d_u2.is_unbounded):
                bound = (d_u1.value * d_u2.value) / (
                    beta * d_u2.value + (1 - beta) * d_u1.value
                )
                got = dl.utilitarian_distortion(mixed, p).value
                assert not got.is_unbounded
                assert got.value <= bound + dl.RATIO_TOL
                checked_util += 1
    assert checked_metric > 0 and checked_util > 0


EXPECTED_CHECKS = frozenset(
    {
        "core-scaling-leaves-distortion-unchanged",
        "core-preferred-alternative-within-half-pair-distance",
        "core-restriction-idempotent",
        "core-truncation-preserves-utility-consistency",
        "lp-optimal-value-matches-assignment",
        "lp-strong-duality-on-bounded-instances",
        "lp-deterministic-given-input",
        "oracle-lp-matches-enumeration",
        "oracle-witness-reproduces-value",
        "oracle-prefix-data-never-below-full-data",
        "oracle-plurality-shortlist-cost-bound",
        "oracle-support-location-controls-unboundedness",
        "rules-always-return-valid-lotteries",
        "rules-veto-winner-first-count-covers-last-count",
        "rules-pruned-veto-winner-clears-threshold",
        "rules-anchored-harmonic-concentrates-on-anchor",
        "rules-anchored-harmonic-matches-weight-columns",
        "rules-mix-expected-cost-affine-in-weight",
        "rules-anonymous-up-to-documented-tiebreaks",
        "instances-generators-emit-valid-profiles",
        "instances-prop31-veto-winner-is-target",
        "instances-structured-metric-consistent-with-profile",
        "instances-generators-deterministic",
        "cli-exit-codes-and-stream-purity",
        "cli-sweep-rows-deterministic",
    }
)


def test_criterion_11_invariant_registry_complete_and_green():
    assert frozenset(invariant_checks.REGISTRY) == EXPECTED_CHECKS
    assert invariant_checks.run_all() == []


def test_criterion_12_sweep_determinism_on_shipped_config(tmp_path):
    import pathlib

    from distortion_lab import cli

    config = str(
        pathlib.Path(__file__).resolve().parent.parent / "demos" / "sweep_config.json"
    )
    outputs = []
    for name, jobs in (("a.csv", 1), ("b.csv", 1), ("c.csv", 8)):
        out = tmp_path / name
        code = cli.main(
            ["sweep", "--config", config, "--output", str(out), "--jobs", str(jobs)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0]) > 0
