"""The paper's guarantees where n is much larger than m.

Criteria 02-04 check the metric bounds 3 (plurality veto), 10 (pruned
plurality veto) and 4 (truncated harmonic), and criteria 03 and 04 the
utilitarian bounds 7 m^2 and sqrt(72 m) H_m, all at eps = 1, on n <= 9 and
m <= 5. Here the same bounds, at the same tolerance, are checked on larger
profiles. Utilitarian: seeded random profiles at (n, m) = (40, 6) and
(200, 10) and the Proposition 3.1 family at n = 24 and 40. Metric, whose
oracle solves an LP per candidate optimum: seeded random profiles at
(16, 5) and (16, 6), the Proposition 3.1 family at (16, 5), (24, 4) and
(200, 5), and the Theorem 3.6 instances at m = 4, n = 16, 24 and 200. The
metric program has one block per distinct ballot, and these families have
few (2(m-1) and 3), so n = 200 costs about what n = 16 does. The oracle is a
supremum over consistent metrics, so on each Theorem 3.6 instance it is
also checked to be at least the lottery's distortion on the instance's own
metric.
"""

from __future__ import annotations

import math

from test_acceptance import RATIO_TOL

import distortion_lab as dl

RULES = {
    "pruned_plurality_veto": (
        lambda p: dl.pruned_plurality_veto(p, eps=1.0),
        lambda m: 7.0 * m**2,
    ),
    "truncated_harmonic": (
        lambda p: dl.truncated_harmonic(p, eps=1.0),
        lambda m: math.sqrt(72.0 * m) * dl.harmonic_number(m),
    ),
}


def large_n_profiles() -> list[dl.Profile]:
    return (
        [dl.random_profile(40, 6, seed=s) for s in (71_000, 71_001, 71_002)]
        + [dl.random_profile(200, 10, seed=s) for s in (72_000, 72_001, 72_002)]
        + [dl.prop31_profile(n, m) for n in (24, 40) for m in (3, 5, 9)]
    )


def test_utilitarian_bounds_at_large_n(acceptance_notes):
    profiles = large_n_profiles()
    worst = dict.fromkeys(RULES, 0.0)
    for j, p in enumerate(profiles):
        for rule, (lottery, bound) in RULES.items():
            value = dl.utilitarian_distortion(lottery(p), p).value
            assert not value.is_unbounded, (j, rule)
            assert value.value <= bound(p.m) + RATIO_TOL, (j, rule)
            worst[rule] = max(worst[rule], value.value / bound(p.m))
    acceptance_notes.append(
        f"utilitarian guarantees at n >> m ({len(profiles)} profiles), worst value/bound: "
        + ", ".join(f"{rule} {ratio:.3f}" for rule, ratio in worst.items())
    )


METRIC_RULES = {
    "plurality_veto": (lambda p: dl.plurality_veto(p)[0], 3.0),
    "pruned_plurality_veto": (lambda p: dl.pruned_plurality_veto(p, eps=1.0), 10.0),
    "truncated_harmonic": (lambda p: dl.truncated_harmonic(p, eps=1.0), 4.0),
}


def metric_instances() -> list[tuple[dl.Profile, dl.MetricSpace | None]]:
    """Each profile, with the instance's own metric where its family ships one."""
    profiles = [dl.random_profile(16, 5, seed=73_000), dl.random_profile(16, 6, seed=73_001)] + [
        dl.prop31_profile(n, m) for n, m in ((16, 5), (24, 4), (200, 5))
    ]
    return [(p, None) for p in profiles] + [dl.thm36_instance(4, n) for n in (16, 24, 200)]


def test_metric_bounds_at_large_n(acceptance_notes):
    instances = metric_instances()
    worst = dict.fromkeys(METRIC_RULES, 0.0)
    for j, (p, metric) in enumerate(instances):
        for rule, (lottery, bound) in METRIC_RULES.items():
            lot = lottery(p)
            value = dl.metric_distortion(lot, p).value
            assert not value.is_unbounded, (j, rule)
            assert value.value <= bound + RATIO_TOL, (j, rule)
            if metric is not None:
                own = dl.eval_distortion(lot, metric)
                assert not own.is_unbounded, (j, rule)
                assert value.value >= own.value - RATIO_TOL, (j, rule)
            worst[rule] = max(worst[rule], value.value / bound)
    acceptance_notes.append(
        f"metric guarantees at n >> m ({len(instances)} profiles), worst value/bound: "
        + ", ".join(f"{rule} {ratio:.3f}" for rule, ratio in worst.items())
    )
