"""The certificate every oracle report carries, checked in one place."""

import distortion_lab as dl

WITNESS_TOL = 1e-5


def assert_certified(lot: dl.Lottery, p, report: dl.DistortionReport, where=None):
    """Assert that ``report``'s witness is consistent with the ballots ``p``
    and that ``eval_distortion`` on it gives the same verdict and, for a
    finite value, the value within ``WITNESS_TOL``. ``where`` labels a failure."""
    metric = isinstance(report.witness, dl.MetricSpace)
    consistent = dl.is_metric_consistent if metric else dl.is_utility_consistent
    assert consistent(report.witness, p), where
    evaluated = dl.eval_distortion(lot, report.witness)
    assert evaluated.is_unbounded == report.value.is_unbounded, (where, evaluated, report.value)
    if report.value.is_finite:
        gap = abs(evaluated.value - report.value.value)
        assert gap <= WITNESS_TOL, (where, evaluated, report.value)
