"""Self-tests of the benchmark: names, output checks and span arithmetic.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import distortion_lab as dl  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import certificate_problems  # noqa: E402
from distortion_lab.oracles import DistortionReport  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_names_are_well_formed_and_match_the_benchmark_spec():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(run.WORKLOAD_NAMES) + list(run.END_TO_END_UNITS) + list(run.PER_LAYER_UNITS)
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.fixture
def certified():
    p = dl.Profile(m=3, rankings=((0, 1, 2), (1, 0, 2), (2, 1, 0)))
    lot = dl.plurality(p)
    return p, lot, dl.metric_distortion(lot, p)


def test_checker_accepts_a_valid_certificate(certified):
    p, lot, report = certified
    assert certificate_problems(lot, p, report) == []


def test_checker_counts_a_perturbed_value(certified):
    p, lot, report = certified
    bad = DistortionReport(
        value=dl.DistortionValue.finite(report.value.value + 1e-3),
        witness=report.witness,
        arg_optimum=report.arg_optimum,
    )
    assert certificate_problems(lot, p, bad)


def test_checker_counts_a_witness_inconsistent_with_the_ballots():
    # One agent ranks 0 > 1 > 2 but sits closest to alternative 2.
    p = dl.Profile(m=3, rankings=((0, 1, 2),))
    grid = np.array([1.0, 1.0, 0.5])
    dist = np.zeros((4, 4))
    dist[0, 1:] = dist[1:, 0] = grid
    dist[1:, 1:] = grid[:, None] + grid[None, :]
    np.fill_diagonal(dist, 0.0)
    witness = dl.MetricSpace(n=1, m=3, dist=dist)
    lot = dl.Lottery.point_mass(3, 0)
    value = dl.eval_distortion(lot, witness)
    report = DistortionReport(value=value, witness=witness, arg_optimum=2)
    assert certificate_problems(lot, p, report) == ["witness is inconsistent with the ballots"]


def test_sweep_reference_diff_flags_a_changed_value():
    line = "plurality,3,4,2,0,metric,5.0,0"
    assert workloads._reference_diff([line], [line]) == []
    assert workloads._reference_diff(["plurality,3,4,2,0,metric,5.0000000001,0"], [line]) == []
    assert workloads._reference_diff(["plurality,3,4,2,0,metric,5.01,0"], [line])
    assert workloads._reference_diff(["plurality,3,4,2,0,metric,5.0,1"], [line])


def _span(name, start, end, parent):
    s = spans.Span(name, start, parent, op=0)
    s.end = end
    return s


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        _span("bench.op", 0.0, 10.0, -1),
        _span("oracles.metric_distortion", 1.0, 4.0, 0),
        _span("lp.solve", 3.0, 6.0, 0),  # overlaps its sibling by 1
        _span("lp.solve", 2.0, 3.0, 1),
        _span("core.check", 10.0, 12.0, -1),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 3.0, 1.0, 2.0])
    assert spans.layer_self_times(tree) == pytest.approx(
        {"bench": 5.0, "oracles": 2.0, "lp": 4.0, "core": 2.0}
    )


def test_pivot_counter_splits_at_the_phase_two_marker():
    prog = dl.LinearProgram(
        objective=[1.0, 1.0],
        lhs=[[1.0, 2.0], [3.0, 1.0], [1.0, 1.0]],
        relations=("<=", "<=", ">="),
        rhs=[4.0, 6.0, 1.0],
    )
    counter = spans.PivotCounter()
    out = dl.solve(prog, dump=counter)
    assert out.status == "optimal"
    assert counter.pivots[0] >= 1 and counter.pivots[1] >= 1
    assert spans.tableau_bytes(prog) == 8 * (3 + 1) * (2 + 3 + 1 + 1)
