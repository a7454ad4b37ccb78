"""Certificate checks the benchmark applies to every operation's output.

A finite report must carry a witness that is consistent with the ballots and
on which ``eval_distortion`` reproduces the reported value within 1e-5. An
unbounded report may carry no witness (the library attaches one only when
the worst case is a concrete instance); when it does, the witness must be
consistent and evaluate as unbounded. Values are compared with a reference
within ``RATIO_TOL``.
"""

from __future__ import annotations

import math

from distortion_lab import core

WITNESS_TOL = 1e-5


def certificate_problems(lot, profile, report) -> list[str]:
    """Why ``report`` is not a valid certificate for ``lot`` on ``profile``."""
    value = report.value
    witness = report.witness
    if witness is None:
        return [] if value.is_unbounded else ["finite value without a witness"]
    if isinstance(witness, core.MetricSpace):
        consistent = core.is_metric_consistent(witness, profile)
    else:
        consistent = core.is_utility_consistent(witness, profile)
    if not consistent:
        return ["witness is inconsistent with the ballots"]
    evaluated = core.eval_distortion(lot, witness)
    if value.is_unbounded != evaluated.is_unbounded:
        return [f"witness evaluates to {evaluated}, report says {value}"]
    if value.is_finite and abs(evaluated.value - value.value) > WITNESS_TOL:
        return [f"witness evaluates to {evaluated}, report says {value}"]
    return []


def same_value(got: float, want: float) -> bool:
    """Distortion values agree: both unbounded, or within RATIO_TOL."""
    if math.isinf(got) or math.isinf(want):
        return math.isinf(got) and math.isinf(want)
    return abs(got - want) <= core.RATIO_TOL


def value_to_json(value: float) -> float | str:
    return "inf" if math.isinf(value) else value


def value_from_json(value: float | str) -> float:
    return math.inf if value == "inf" else float(value)
