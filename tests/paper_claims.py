"""The paper's bounds that the suite asserts: one table, one row per bound.

Each row names the rule (a ``cli.RULES`` id and its parameters), the world,
whether the bound is an upper bound (every checked profile stays at or
below it) or a lower bound (the checked family reaches it), the bound as a
function of (n, m, t), the formula as printed, and the tests that check
it. A row carries a paper label only where the repo names the result
(Prop. 3.1, Thm. 3.6); the others are labelled by the acceptance criterion
that asserts them.

A checking test finds its rows with ``checked_by(request)``, so a row's
``tests`` is also what selects it. ``check_upper_bounds`` is the one checker
behind criteria 02-04 and the large-n bound tests. The README's "Paper
claims" section lists every row; ``tests/test_paper_claims.py`` keeps the
two in step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import distortion_lab as dl
from certificates import assert_certified
from distortion_lab import cli
from distortion_lab.oracles import _oracle


@dataclass(frozen=True)
class Claim:
    id: str
    label: str
    rule: str | None  # a cli.RULES id; None for the Thm. 3.6 point mass, which no rule returns
    params: dict  # the rule's parameters, as make_rule reads them
    world: str  # "metric" or "utilitarian"
    kind: str  # "upper" or "lower"
    bound: Callable[[int, int, int | None], float]  # (n, m, t); t is None on full rankings
    text: str  # the bound as printed
    tests: tuple[str, ...]  # "module::function" or "module::Class::function" of each checking test


def _criterion(name: str) -> str:
    return f"test_acceptance::test_criterion_{name}"


_LARGE_N_METRIC = "test_guarantees_large_n::test_metric_bounds_at_large_n"
_LARGE_N_UTILITARIAN = "test_guarantees_large_n::test_utilitarian_bounds_at_large_n"

CLAIMS: tuple[Claim, ...] = (
    Claim(
        "pv-metric", "criterion 02", "plurality_veto", {}, "metric", "upper",
        lambda n, m, t: 3.0, "3",
        (
            _criterion("02_plurality_veto_metric_guarantee"),
            _LARGE_N_METRIC,
            "test_cli::TestOracle::test_metric_rule_report",
            "test_cli::TestReproduce::test_sampled_fallback",
            "test_oracles::TestRuleDistortion::test_plurality_veto_p2",
        ),
    ),
    Claim(
        "ppv-metric", "criterion 03", "ppv", {"epsilon": 1.0}, "metric", "upper",
        lambda n, m, t: 10.0, "10",
        (_criterion("03_pruned_veto_guarantees_both_worlds"), _LARGE_N_METRIC),
    ),
    Claim(
        "ppv-utilitarian", "criterion 03", "ppv", {"epsilon": 1.0}, "utilitarian", "upper",
        lambda n, m, t: 7.0 * m**2, "7*m^2",
        (_criterion("03_pruned_veto_guarantees_both_worlds"), _LARGE_N_UTILITARIAN),
    ),
    Claim(
        "th-metric", "criterion 04", "truncated_harmonic", {"epsilon": 1.0}, "metric", "upper",
        lambda n, m, t: 4.0, "4",
        (_criterion("04_truncated_harmonic_guarantees_both_worlds"), _LARGE_N_METRIC),
    ),
    Claim(
        "th-utilitarian", "criterion 04", "truncated_harmonic", {"epsilon": 1.0}, "utilitarian",
        "upper", lambda n, m, t: math.sqrt(72.0 * m) * dl.harmonic_number(m), "sqrt(72*m)*H_m",
        (_criterion("04_truncated_harmonic_guarantees_both_worlds"), _LARGE_N_UTILITARIAN),
    ),
    Claim(
        "pv-utilitarian-prop31", "Prop. 3.1", "plurality_veto", {}, "utilitarian", "lower",
        lambda n, m, t: n / 12.0, "n/12",
        (_criterion("06_veto_welfare_damage_grows_with_population"),),
    ),
    Claim(
        "point-mass-metric-thm36", "Thm. 3.6", None, {}, "metric", "lower",
        lambda n, m, t: (3.0 * math.sqrt(m) + 1.0) / (math.sqrt(m) - 1.0),
        "(3*sqrt(m)+1)/(sqrt(m)-1)",
        (_criterion("07_structured_line_instance_hits_seven"),),
    ),
    Claim(
        "plurality-metric", "criterion 08", "plurality", {}, "metric", "upper",
        lambda n, m, t: 5.0, "5",
        (_criterion("08_plurality_worst_case_window"),),
    ),
    Claim(
        "top-t-th-metric", "criterion 09", "top_t_th", {}, "metric", "upper",
        lambda n, m, t: 21.0 * m / t, "21*m/t",
        (_criterion("09_prefix_truncated_harmonic_stays_bounded"),),
    ),
)

BY_ID = {row.id: row for row in CLAIMS}


def checked_by(request) -> tuple[Claim, ...]:
    """The rows that name the requesting test among their checking tests."""
    owner = [request.module.__name__] + ([request.cls.__name__] if request.cls else [])
    name = "::".join(owner + [request.function.__name__])
    rows = tuple(row for row in CLAIMS if name in row.tests)
    assert rows, f"no claim names {name}"
    return rows


def make_rule(row: Claim) -> dl.oracles.Rule:
    """The row's rule, built from the CLI's rule table as ``run --rule`` builds it."""
    rule, _ = cli.make_rule(row.rule, row.params)
    return rule


def check_upper_bounds(rows, profiles, notes: list[str], scope: str) -> list[tuple]:
    """Assert every row's upper bound on every profile, within ``dl.RATIO_TOL``,
    certify each report, and note the worst value/bound per row id under
    ``scope``.

    Returns (profile index, row, lottery, value) for each check, for the
    caller's own further checks on the same lotteries.
    """
    assert all(row.kind == "upper" for row in rows), rows
    built = [(row, make_rule(row)) for row in rows]
    worst = dict.fromkeys((row.id for row in rows), 0.0)
    checked = []
    for j, p in enumerate(profiles):
        for row, rule in built:
            lot = rule(p)
            report = _oracle(row.world)(lot, p)
            assert_certified(lot, p, report, (scope, j, row.id))
            value = report.value
            bound = row.bound(p.n, p.m, getattr(p, "t", None))
            assert not value.is_unbounded, (scope, j, row.id)
            assert value.value <= bound + dl.RATIO_TOL, (scope, j, row.id, value.value, bound)
            worst[row.id] = max(worst[row.id], value.value / bound)
            checked.append((j, row, lot, value))
    notes.append(
        f"{scope} ({len(profiles)} profiles), worst value/bound: "
        + ", ".join(f"{rid} {ratio:.3f}" for rid, ratio in worst.items())
    )
    return checked
