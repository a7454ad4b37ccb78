"""Shared samplers and the acceptance summary hook.

The samplers build *consistent* cardinal instances by construction:
points are drawn in a unit cube, the metric is Euclidean, and the
profile is read off the distances — so every (metric, profile) pair
they return passes the consistency predicate by design.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from paper_claims import BY_ID

from distortion_lab import (
    Lottery,
    MetricSpace,
    Profile,
    UtilityProfile,
)

# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def sampled_metric(rng: np.random.Generator, n: int, m: int) -> MetricSpace:
    """Euclidean metric on n agents + m alternatives drawn in a unit cube."""
    pts = rng.random((n + m, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return MetricSpace(n=n, m=m, dist=dist)


def profile_from_metric(met: MetricSpace) -> Profile:
    """The profile each agent reports when ranking by distance (ties by index)."""
    rows = []
    for i in range(met.n):
        row = met.agent_alt[i]
        order = np.lexsort((np.arange(met.m), row))
        rows.append(tuple(int(x) for x in order))
    return Profile(m=met.m, rankings=tuple(rows))


def sampled_consistent_pair(
    rng: np.random.Generator, n: int, m: int
) -> tuple[MetricSpace, Profile]:
    met = sampled_metric(rng, n, m)
    return met, profile_from_metric(met)


def random_lottery(rng: np.random.Generator, m: int, sparse: bool = True) -> Lottery:
    w = rng.random(m) + 1e-3
    if sparse and m > 1:
        mask = rng.random(m) < 0.3
        if mask.sum() < m:
            w[mask] = 0.0
    return Lottery(w / w.sum())


def consistent_utilities(rng: np.random.Generator, p) -> UtilityProfile:
    """Unit-sum utilities consistent with ``p`` (full or prefix-only)."""
    rows = np.zeros((p.n, p.m))
    for i in range(p.n):
        vals = np.sort(rng.random(p.m))[::-1]
        vals = vals / vals.sum()
        if isinstance(p, Profile):
            ranked = p.rankings[i]
            rows[i, list(ranked)] = vals
        else:
            prefix = p.prefixes[i]
            rows[i, list(prefix)] = vals[: len(prefix)]
            rest = [x for x in range(p.m) if x not in prefix]
            rows[i, rest] = vals[len(prefix) :]
    return UtilityProfile(util=rows)


# ---------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per criterion at the end of the run
# ---------------------------------------------------------------------------


def _text(claim_id: str) -> str:
    return BY_ID[claim_id].text


# The bounds in criteria 02-04 and 06-09 are printed from paper_claims.CLAIMS.
_CRITERIA_TITLES = {
    1: "vertex-choice and enumeration utilitarian oracles agree within 1e-6",
    2: f"plurality-veto metric distortion <= {_text('pv-metric')} + 1e-6",
    3: (
        f"pruned plurality-veto <= {_text('ppv-metric')} metric and "
        f"<= {_text('ppv-utilitarian')} utilitarian (eps=1)"
    ),
    4: (
        f"truncated harmonic <= {_text('th-metric')} metric and "
        f"<= {_text('th-utilitarian')} utilitarian (eps=1)"
    ),
    5: "harmonic lottery unbounded when one alternative is ranked last by all",
    6: (
        f"plurality-veto utilitarian distortion >= {_text('pv-utilitarian-prop31')} "
        "on the Prop. 3.1 family, nondecreasing in n"
    ),
    7: (
        f"structured 4x4 instance: cost ratio exactly {_text('point-mass-metric-thm36')} "
        f"= {BY_ID['point-mass-metric-thm36'].bound(4, 4, None):g} and oracle >= it - 1e-6"
    ),
    8: (
        f"plurality worst case <= {_text('plurality-metric')} at (3,3); "
        "sampled search reaches >= 3.5"
    ),
    9: (
        "prefix-only truncated harmonic (m=4, t=2): metric <= "
        f"{_text('top-t-th-metric')} = {BY_ID['top-t-th-metric'].bound(None, 4, 2):g}, "
        "utilitarian finite"
    ),
    10: "mixed lotteries respect the affine / harmonic-mean composition bounds",
    11: "every documented invariant holds as a >=100-case property suite",
    12: "sweep CSV byte-identical across runs and across --jobs 1 vs 8",
}

_acceptance_results: dict[int, str] = {}

# Free-form measurement lines (e.g. empirical maxima) echoed after the
# criteria table; tests append via the ``acceptance_notes`` fixture.
_acceptance_notes: list[str] = []


@pytest.fixture
def acceptance_notes() -> list[str]:
    return _acceptance_notes


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    match = re.match(r"test_criterion_(\d+)", item.name)
    if match and rep.when == "call":
        _acceptance_results[int(match.group(1))] = rep.outcome.upper()
    elif match and rep.when == "setup" and rep.outcome != "passed":
        _acceptance_results[int(match.group(1))] = rep.outcome.upper()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_CRITERIA_TITLES):
        status = _acceptance_results.get(num, "NOT RUN")
        status = {"PASSED": "PASS", "FAILED": "FAIL"}.get(status, status)
        terminalreporter.write_line(
            f"criterion {num:02d}: {status} - {_CRITERIA_TITLES[num]}"
        )
    for line in _acceptance_notes:
        terminalreporter.write_line(line)
