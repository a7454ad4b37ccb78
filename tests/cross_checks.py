"""Every cross-check of a library oracle (``oracles._oracle(world)``) against
a test-only reference: one row each in ``CROSS_CHECKS``, and one runner,
``run_row``, which certifies every library report before it compares it
with the reference's. ``tests/test_cross_checks.py`` runs the rows and keeps
the README's "Tests" section, which states the rules, in step with them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from certificates import assert_certified
from conftest import random_lottery
from reference_oracles import (
    reference_completion_max,
    reference_metric_all_candidates,
    reference_metric_cold_candidates,
    reference_metric_per_agent,
    reference_metric_primal,
    reference_metric_report,
    reference_utilitarian_lp,
    reference_utilitarian_report,
)

import distortion_lab as dl
from distortion_lab import Lottery, Profile, TopTProfile
from distortion_lab.oracles import _oracle


def _varied_lottery(rng: np.random.Generator, kind: int, p) -> Lottery:
    """A point mass (kind 0), random dictatorship (1) or a random lottery
    with about 30% zero-mass entries (any other kind)."""
    if kind == 0:
        return Lottery.point_mass(p.m, int(rng.integers(p.m)))
    return dl.random_dictatorship(p) if kind == 1 else random_lottery(rng, p.m)


def _reference_cases(count: int):
    """Seeded small cases: n <= 5, m <= 4, a third top-t, varied lotteries."""
    for case in range(count):
        rng = np.random.default_rng(41_000 + case)
        n, m = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        p = dl.random_profile(n, m, seed=41_000 + case)
        if case % 3 == 0:
            p = dl.truncate_profile(p, int(rng.integers(1, m)))
        yield case, _varied_lottery(rng, case % 5, p), p


def _three_route_cases(count: int, seed: int = 47_000, n_max: int = 5):
    """Seeded cases: n <= n_max, m <= 5, a third top-t, cubed weights.

    About 30% of the weights are zero. Every other lottery then gets one
    mass between 1e-10 and 1e-7, half of the time on agent 0's top choice.
    """
    for case in range(count):
        rng = np.random.default_rng(seed + case)
        n, m = int(rng.integers(1, n_max + 1)), int(rng.integers(2, 6))
        p = dl.random_profile(n, m, seed=seed + case)
        top = p.rankings[0][0]
        if case % 3 == 0:
            p = dl.truncate_profile(p, int(rng.integers(1, m)))
        w = rng.random(m) ** 3
        w[rng.random(m) < 0.3] = 0.0
        if case % 2 == 0:
            tiny = top if case % 4 == 0 else int(rng.integers(m))
            w[tiny] = 0.0
            if not w.any():
                w[(tiny + 1) % m] = 1.0
            mass = 10.0 ** rng.uniform(-10.0, -7.0)
            w *= (1.0 - mass) / w.sum()
            w[tiny] = mass
        elif not w.any():
            w[int(rng.integers(m))] = 1.0
        yield case, Lottery(w / w.sum()), p


def _sampled_ballots(rng: np.random.Generator, m: int, t: int, count: int) -> list:
    """``count`` distinct top-t ballots (full rankings at t = m), drawn at random."""
    ballots = list(itertools.permutations(range(m), t))
    return [ballots[j] for j in rng.choice(len(ballots), count, replace=False)]


def _seeded_lottery(rng: np.random.Generator, case: int, p) -> Lottery:
    """The truncated harmonic lottery of the ballot kind, random dictatorship
    or a random lottery with about 30% zero-mass entries, by case."""
    if case % 3 == 0:
        full = isinstance(p, Profile)
        return dl.truncated_harmonic(p) if full else dl.top_t_truncated_harmonic(p)
    return dl.random_dictatorship(p) if case % 3 == 1 else random_lottery(rng, p.m)


def _distinct_ballot_cases(count: int):
    """Seeded profiles whose ballots are all distinct: n <= 6, m in 3..5, a
    third top-t."""
    for case in range(count):
        rng = np.random.default_rng(83_000 + case)
        m = int(rng.integers(3, 6))
        t = int(rng.integers(1, m)) if case % 3 == 2 else m
        n = int(rng.integers(2, min(6, math.perm(m, t)) + 1))
        ballots = _sampled_ballots(rng, m, t, n)
        p = Profile(m, ballots) if t == m else TopTProfile(m, t, ballots)
        yield case, _seeded_lottery(rng, case, p), p


def _pooled_ballot_cases(count: int):
    """Seeded profiles that repeat ballots: k = 1..3 distinct ballots cast by
    n in k+1..9 agents, m <= 4, every other profile top-t."""
    for case in range(count):
        rng = np.random.default_rng(89_000 + case)
        m = int(rng.integers(2, 5))
        t = int(rng.integers(1, m)) if case % 2 else m
        pool = _sampled_ballots(rng, m, t, min(1 + case % 3, math.perm(m, t)))
        n = int(rng.integers(len(pool) + 1, 10))
        ballots = pool + [pool[j] for j in rng.integers(len(pool), size=n - len(pool))]
        ballots = [ballots[j] for j in rng.permutation(n)]
        p = Profile(m, ballots) if t == m else TopTProfile(m, t, ballots)
        yield case, _seeded_lottery(rng, case, p), p


def _repeated_ballot_cases(count: int):
    """Seeded profiles that repeat ballots, every other one top-t: k = 1..4
    distinct ballots cast by n in k+1..12 agents, m in 2..5. Every fourth
    lottery is a point mass, on the first ballot's top choice or on a random
    alternative in turn; the others are as ``_seeded_lottery``."""
    for case in range(count):
        rng = np.random.default_rng(97_000 + case)
        m = int(rng.integers(2, 6))
        t = int(rng.integers(1, m)) if case % 2 else m
        pool = _sampled_ballots(rng, m, t, min(1 + case % 4, math.perm(m, t)))
        n = int(rng.integers(len(pool) + 1, 13))
        ballots = pool + [pool[j] for j in rng.integers(len(pool), size=n - len(pool))]
        ballots = [ballots[j] for j in rng.permutation(n)]
        p = Profile(m, ballots) if t == m else TopTProfile(m, t, ballots)
        if case % 4 == 0:
            winner = ballots[0][0] if case % 8 == 0 else int(rng.integers(m))
            lot = Lottery.point_mass(m, winner)
        else:
            lot = _seeded_lottery(rng, case, p)
        yield case, lot, p


def _routing_cases(count: int):
    """``_reference_cases``, ``_distinct_ballot_cases`` and
    ``_repeated_ballot_cases``, ``count`` of each (full and top-t ballots,
    none with a mass below 1e-7), then the four top-t rules on the paper's
    families at small n: ``thm51_profile`` (12, 5, 2) and (9, 4, 2) and
    ``thm53_instance(54, 9, 1, 2.0)``."""
    yield from _reference_cases(count)
    yield from _distinct_ballot_cases(count)
    yield from _repeated_ballot_cases(count)
    profiles = [dl.thm51_profile(12, 5, 2), dl.thm51_profile(9, 4, 2)]
    profiles.append(dl.thm53_instance(54, 9, 1, 2.0)[0])
    for k, p in enumerate(profiles):
        for rule in (dl.plurality, dl.random_dictatorship, dl.top_t_det_rule, dl.top_t_truncated_harmonic):
            yield f"{k}-{rule.__name__}", rule(p), p


def _completion_cases(count: int, max_completions: int = 16):
    """Seeded top-t cases: n <= 4, m <= 5, 1 <= t < m, varied lotteries.

    t is drawn among the values below m-1 that leave at most
    ``max_completions`` completions, (m-t)!^n; t = m-1, a single completion,
    only when no such value exists.
    """
    for case in range(count):
        rng = np.random.default_rng(43_000 + case)
        n, m = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        ts = [
            t for t in range(1, m - 1) if math.factorial(m - t) ** n <= max_completions
        ] or [m - 1]
        p = dl.truncate_profile(
            dl.random_profile(n, m, seed=43_000 + case), int(rng.choice(ts))
        )
        yield case, _varied_lottery(rng, case % 3, p), p


RULES = ("abs+arg", "rel", "rel+tie", "bits", "abs", "rel12+arg")


@dataclass(frozen=True)
class CrossCheck:
    id: str
    world: str  # "metric" or "utilitarian"
    reference: Callable  # called (lot, p)
    pins: str  # the library step the reference pins, as the README prints it
    cases: partial  # a case family of this module, with its count and seed
    rule: str  # one of RULES
    distinct: bool | None = None  # asserted of each case: are its ballots all distinct?
    full_only: bool = False  # the reference takes full rankings: top-t cases are skipped
    min_finite: float = 0.0  # floor on the share of cases whose value is finite
    max_raised: int = 0  # cases on which the reference may raise a RuntimeError


CROSS_CHECKS: tuple[CrossCheck, ...] = (
    CrossCheck(
        "metric-reference", "metric", reference_metric_report,
        "the compact program and the closure test", partial(_reference_cases, 300), "abs+arg",
    ),
    CrossCheck(
        "utilitarian-reference", "utilitarian", reference_utilitarian_report,
        "the vertex choice and the support test", partial(_reference_cases, 300), "abs+arg",
    ),
    # The LP route raises on some tiny masses; it must cover nine tenths of the cases.
    CrossCheck(
        "utilitarian-lp", "utilitarian", reference_utilitarian_lp,
        "the vertex choice", partial(_three_route_cases, 360), "rel", max_raised=35,
    ),
    CrossCheck(
        "utilitarian-bruteforce", "utilitarian", dl.utilitarian_distortion_bruteforce,
        "the vertex choice", partial(_three_route_cases, 360), "rel", full_only=True,
    ),
    CrossCheck(
        "metric-primal", "metric", reference_metric_primal, "the dual program",
        partial(_three_route_cases, 330, seed=53_000, n_max=6), "rel+tie", min_finite=0.5,
    ),
    CrossCheck(
        "metric-per-agent-distinct", "metric", reference_metric_per_agent,
        "one block per distinct ballot", partial(_distinct_ballot_cases, 240), "bits",
        distinct=True, min_finite=0.5,
    ),
    CrossCheck(
        "metric-per-agent-pooled", "metric", reference_metric_per_agent,
        "one block per distinct ballot", partial(_pooled_ballot_cases, 240), "rel+tie",
        distinct=False, min_finite=0.5,
    ),
    CrossCheck(
        "metric-all-candidates", "metric", reference_metric_all_candidates,
        "the candidates skipped by their pairwise bound", partial(_repeated_ballot_cases, 300),
        "bits", distinct=False, min_finite=0.5,
    ),
    CrossCheck(
        "metric-routing-vs-cold", "metric", reference_metric_cold_candidates,
        "the routing-basis starts", partial(_routing_cases, 200), "rel12+arg", min_finite=0.5,
    ),
    # arg_optimum is not compared: on ties the two routes may report
    # different optimal alternatives.
    CrossCheck(
        "metric-completion", "metric", partial(reference_completion_max, dl.metric_distortion),
        "the single prefix program", partial(_completion_cases, 300), "abs",
    ),
    CrossCheck(
        "utilitarian-completion", "utilitarian",
        partial(reference_completion_max, dl.utilitarian_distortion),
        "the single prefix program", partial(_completion_cases, 300), "abs",
    ),
)


def _witness_bytes(report) -> bytes:
    witness = report.witness
    return (witness.dist if isinstance(witness, dl.MetricSpace) else witness.util).tobytes()


def compare(rule: str, got, want) -> tuple[bool, float]:
    """Whether the library report ``got`` matches the reference's ``want``
    under ``rule``, and the gap between their finite values that it reads:
    absolute for ``abs`` rules, relative for ``rel`` ones, 0 for ``bits``.
    ``rel12+arg`` asks for a relative gap of at most 1e-12 and the same
    ``arg_optimum``."""
    a, b, same_arg = got.value, want.value, got.arg_optimum == want.arg_optimum
    if rule == "bits":
        return a == b and same_arg and _witness_bytes(got) == _witness_bytes(want), 0.0
    if a.is_unbounded or b.is_unbounded:
        return a.is_unbounded == b.is_unbounded and (same_arg or rule in ("abs", "rel")), 0.0
    delta = abs(a.value - b.value)
    if rule in ("abs", "abs+arg"):
        return delta <= 1e-6 and (same_arg or rule == "abs"), delta
    if rule == "rel":  # values reach 1e10 on tiny masses
        return delta <= 1e-6 * max(1.0, b.value), delta / max(1.0, b.value)
    if rule == "rel12+arg":
        return delta <= 1e-12 * b.value and same_arg, delta / b.value
    # rel+tie: another optimum may win only if its value ties the best.
    gap = delta / b.value
    return gap <= 1e-6 and (same_arg or gap <= 1e-9), gap


def run_row(row: CrossCheck) -> str:
    """Certify and compare every case of ``row``; return its acceptance note."""
    oracle = _oracle(row.world)
    count, finite, worst, raised, mismatches = 0, 0, 0.0, [], []
    for case, lot, p in row.cases():
        assert row.distinct is None or (len(set(p.ballots)) == p.n) == row.distinct, (row.id, case)
        if row.full_only and not isinstance(p, Profile):
            continue
        count += 1
        got = oracle(lot, p)
        assert_certified(lot, p, got, (row.id, case))
        finite += got.value.is_finite
        try:
            want = row.reference(lot, p)
        except RuntimeError:
            raised.append(case)
            continue
        same, gap = compare(row.rule, got, want)
        worst = max(worst, gap)
        if not same:
            mismatches.append((case, got.value, want.value, got.arg_optimum, want.arg_optimum))
    assert mismatches == [], row.id
    assert len(raised) <= row.max_raised, (row.id, raised)
    assert finite >= row.min_finite * count, (row.id, finite, count)
    note = (
        f"cross-check {row.id}: {count} cases ({finite} finite) agree by {row.rule}, "
        f"worst gap {worst:.1e}"
    )
    if row.max_raised:
        note += f"; the reference raised on {len(raised)} (cases {raised})"
    return note
