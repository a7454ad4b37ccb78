"""The library surface the benchmark harness in ``perfbench/`` relies on.

The harness pins library names it calls or wraps: the traced entry points,
``lp.solve``'s ``dump`` stream (its ``pivot:`` lines and ``--- phase 2
start`` marker), ``LinearProgram.lower_bounds`` and the rule call forms in
its ``REPRODUCE_RULES`` and ``SWEEP_RULES``. Its own tests run separately
(``python -m pytest perfbench/tests``), so this module imports only its
``spans`` and ``workloads`` and checks that a library edit keeps them
working.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

import distortion_lab as dl  # noqa: E402
from distortion_lab import oracles  # noqa: E402


def test_counting_pass_sees_every_layer(tmp_path):
    bench = workloads.WORKLOADS["metric-full"]
    seed = workloads.DEFAULT_SEED
    profiles = bench.make_inputs(seed, tmp_path)[: bench.traced_ops]
    with spans.Tracer(count_pivots=True).installed() as tracer:
        results = [bench.traced_op(p) for p in profiles]
        oracles.exhaustive_worst_case(workloads.REPRODUCE_RULES["plurality_veto"], 2, 3, "metric")
    reference = bench.reference_for(seed)
    for k, (p, result) in enumerate(zip(profiles, results)):
        assert bench.check(k, p, result, reference) == []
    counters = tracer.counters
    for key in ("lp.solves", "lp.pivots.p1", "lp.pivots.p2", "oracles.calls", "rules.calls"):
        assert counters[key] > 0, key
    # Every original is back in place after the pass.
    assert not hasattr(dl.lp.solve, "__wrapped__")
    assert not hasattr(oracles.metric_distortion, "__wrapped__")


@pytest.mark.parametrize("rid", list(workloads.REPRODUCE_RULES))
def test_reproduce_rules_return_lotteries(rid):
    p = dl.random_profile(5, 4, seed=3)
    assert isinstance(workloads.REPRODUCE_RULES[rid](p), dl.Lottery)


@pytest.mark.parametrize("rid", list(workloads.SWEEP_RULES))
def test_sweep_rules_return_lotteries(rid):
    p = dl.truncate_profile(dl.random_profile(4, 5, seed=3), 3)
    assert isinstance(workloads.SWEEP_RULES[rid](p), dl.Lottery)
