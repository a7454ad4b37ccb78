"""The paper's guarantees where n is much larger than m.

Criteria 02-04 check the upper bounds of plurality veto, pruned plurality
veto and truncated harmonic (the rows of ``paper_claims.CLAIMS`` that name
the two bound tests here) on n <= 9 and m <= 5. Here the same rows, through
the same checker and at the same tolerance, are checked on larger profiles.
Utilitarian: seeded random profiles at (n, m) = (40, 6) and (200, 10) and
the Proposition 3.1 family at n = 24 and 40. Metric, whose oracle solves an
LP per candidate optimum: seeded random profiles at (16, 5) and (16, 6),
the Proposition 3.1 family at (16, 5), (24, 4) and (200, 5), and the
Theorem 3.6 instances at m = 4, n = 16, 24 and 200. The metric program has
one block per distinct ballot, and these families have few (2(m-1) and 3),
so n = 200 costs about what n = 16 does. The oracle is a supremum over
consistent metrics, so on each Theorem 3.6 instance it is also checked to
be at least the lottery's distortion on the instance's own metric.

The top-t families: on the Theorem 5.3 instances at m = 9, t = 1 and
n = 108 and 216, the metric oracle is checked against each top-t rule's
distortion on the instance's own metric, as above. On the Theorem 5.1
profiles at (n, m, t) = (200, 5, 2) and (300, 7, 3), the top-t rules'
worst cases in both worlds are only reported: no bound is asserted there,
and each report is checked against its own witness.
"""

from __future__ import annotations

from certificates import assert_certified
from paper_claims import check_upper_bounds, checked_by

import distortion_lab as dl


def large_n_profiles() -> list[dl.Profile]:
    return (
        [dl.random_profile(40, 6, seed=s) for s in (71_000, 71_001, 71_002)]
        + [dl.random_profile(200, 10, seed=s) for s in (72_000, 72_001, 72_002)]
        + [dl.prop31_profile(n, m) for n in (24, 40) for m in (3, 5, 9)]
    )


def test_utilitarian_bounds_at_large_n(request, acceptance_notes):
    check_upper_bounds(
        checked_by(request), large_n_profiles(), acceptance_notes,
        "utilitarian guarantees at n >> m",
    )


def metric_instances() -> list[tuple[dl.Profile, dl.MetricSpace | None]]:
    """Each profile, with the instance's own metric where its family ships one."""
    profiles = [dl.random_profile(16, 5, seed=73_000), dl.random_profile(16, 6, seed=73_001)] + [
        dl.prop31_profile(n, m) for n, m in ((16, 5), (24, 4), (200, 5))
    ]
    return [(p, None) for p in profiles] + [dl.thm36_instance(4, n) for n in (16, 24, 200)]


def test_metric_bounds_at_large_n(request, acceptance_notes):
    instances = metric_instances()
    checked = check_upper_bounds(
        checked_by(request), [p for p, _ in instances], acceptance_notes,
        "metric guarantees at n >> m",
    )
    for j, row, lot, value in checked:
        metric = instances[j][1]
        if metric is not None:
            own = dl.eval_distortion(lot, metric)
            assert not own.is_unbounded, (j, row.id)
            assert value.value >= own.value - dl.RATIO_TOL, (j, row.id)


TOPT_RULES = {
    "plurality": dl.plurality,
    "random_dictatorship": dl.random_dictatorship,
    "top_t_det": dl.top_t_det_rule,
    "top_t_th": dl.top_t_truncated_harmonic,
}


def test_thm53_metric_lower_bounds_at_large_n(acceptance_notes):
    notes = []
    for n in (108, 216):
        p, metric = dl.thm53_instance(n, 9, 1, 2.0)
        for rule, lottery in TOPT_RULES.items():
            lot = lottery(p)
            report = dl.metric_distortion(lot, p)
            assert_certified(lot, p, report, (n, rule))
            value = report.value
            own = dl.eval_distortion(lot, metric)
            assert not value.is_unbounded and not own.is_unbounded, (n, rule)
            assert value.value >= own.value - dl.RATIO_TOL, (n, rule)
            notes.append(f"{rule}@{n} {value.value:.4f} >= {own.value:.4f}")
    acceptance_notes.append(
        "thm53 (m=9, t=1, d_m=2) metric worst case >= own metric: " + ", ".join(notes)
    )


def test_thm51_top_t_rules_at_large_n(acceptance_notes):
    notes = []
    for n, m, t in ((200, 5, 2), (300, 7, 3)):
        p = dl.thm51_profile(n, m, t)
        for rule in ("top_t_det", "top_t_th"):
            lot = TOPT_RULES[rule](p)
            for world in ("metric", "utilitarian"):
                oracle = dl.metric_distortion if world == "metric" else dl.utilitarian_distortion
                report = oracle(lot, p)
                assert not report.value.is_unbounded, (n, m, t, rule, world)
                assert_certified(lot, p, report, (n, m, t, rule, world))
                notes.append(f"{rule} {world}@({n},{m},{t}) {report.value.value:.4f}")
    acceptance_notes.append("thm51 top-t worst cases (reported, no bound): " + ", ".join(notes))
