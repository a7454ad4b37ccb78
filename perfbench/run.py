#!/usr/bin/env python3
"""Benchmark for distortion-lab: four closed-loop workloads, checked outputs.

Run every workload and print each end-to-end metric with its unit:

    python3 perfbench/run.py

Run one workload and print one JSON result as the last line of stdout:

    python3 perfbench/run.py --workload metric-full --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` it holds the per-layer metrics of a traced run, and the spans
are written to ``perfbench/out/``. The benchmark imports the library from
``src/`` of the checkout it sits in and changes nothing there. See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("metric-full", "utilitarian-full", "exhaustive-small", "sweep-prefix")
DEFAULT_SECONDS = 20
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "lp.solves": "count",
    "lp.rows.mean": "count",
    "lp.cols.mean": "count",
    "lp.pivots.p1": "count",
    "lp.pivots.p2": "count",
    "lp.self_s": "s",
    "lp.us_per_pivot": "us",
    "lp.us_per_solve": "us",
    "lp.tableau_mb.max": "MiB",
    "oracles.calls": "count",
    "oracles.lps_per_call": "count",
    "oracles.self_s": "s",
    "oracles.unbounded": "count",
    "rules.calls": "count",
    "rules.self_s": "s",
    "core.check_s": "s",
    "instances.gen_s": "s",
    "cli.cells": "count",
    "cli.busy_frac": "frac",
    "trace.overhead_frac": "frac",
}

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def configure_environment():
    """Fix the thread counts and the import path for this process and its children."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("DISTORTION_LAB_BUDGET", None)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path[:0] = [str(SRC), str(BENCH)]


def environment() -> dict:
    """Python, numpy, BLAS, CPU and source identity for the result record."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def set_up(name: str, seed: int, workdir: Path, tracer=None):
    """Import the library, make the inputs and run one untimed warm-up.

    With a tracer, input generation runs under it as a ``bench.setup`` span.
    """
    started = time.perf_counter()
    import workloads  # the first import of distortion_lab in this process

    imported = time.perf_counter()
    if not Path(workloads.core.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"distortion_lab was imported from {workloads.core.__file__}, not {SRC}")
    workload = workloads.WORKLOADS[name]
    if tracer is None:
        inputs = workload.make_inputs(seed, workdir)
    else:
        with tracer.span("bench.setup"), tracer.installed():
            inputs = workload.make_inputs(seed, workdir)
    generated = time.perf_counter()
    workload.warm_up(inputs)
    done = time.perf_counter()
    timing = {
        "setup_s": done - started,
        "import_s": imported - started,
        "gen_s": generated - imported,
        "warmup_s": done - generated,
    }
    return workload, inputs, timing


def setup_samples(name: str, seed: int, own: float) -> list[float]:
    """This process's set-up time plus that of fresh processes doing the same."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-sample"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def tail(times: list[float]) -> tuple[float, float, int] | None:
    """The highest listed percentile with at least ten samples above it."""
    import numpy

    for q in TAIL_PERCENTILES:
        value = float(numpy.percentile(times, q))
        if sum(t > value for t in times) >= 10:
            return q, value, len(times)
    return None


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def run_op(workload, op, k: int, item, reference, tally: Tally) -> float:
    """Time one operation, then check its output outside the timed interval."""
    started = time.perf_counter()
    try:
        result = op(item)
        error = None
    except Exception as exc:  # a raising operation is a failed one
        result, error = None, exc
    elapsed = time.perf_counter() - started
    if error is not None:
        tally.record([f"raised {error!r}"])
    else:
        tally.record(workload.check(k, item, result, reference))
    return elapsed


def measure(workload, inputs: list, seconds: float, reference, tally: Tally) -> list[float]:
    """Run operations back to back until their summed time reaches ``seconds``."""
    times: list[float] = []
    k = 0
    while sum(times) < seconds:
        index = k % len(inputs)
        times.append(run_op(workload, workload.op, index, inputs[index], reference, tally))
        k += 1
    return times


def end_to_end(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, Tally, dict]:
    workload, inputs, timing = set_up(name, seed, workdir)
    setups = setup_samples(name, seed, timing["setup_s"])
    tally = Tally()
    times = measure(workload, inputs, seconds, workload.reference_for(seed), tally)
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_s.p50": statistics.median(times),
        "peak_rss_mb": peak_rss_mib(),
        "setup_s": statistics.median(setups),
    }
    extra = {"setup_samples_s": setups, "setup_parts_s": timing, "op_s.tail": tail(times)}
    return metrics, tally, extra


def traced(name: str, seed: int, workdir: Path) -> tuple[dict, Tally, dict]:
    """Per-layer metrics from a fixed operation list, traced and untraced."""
    import spans

    timing_tracer = spans.Tracer()
    workload, inputs, timing = set_up(name, seed, workdir, timing_tracer)
    items = inputs[: workload.traced_ops]
    reference = workload.reference_for(seed)
    tally = Tally()

    def checked_pass(tracer):
        times = []
        for k, item in enumerate(items):
            tracer.op = k
            with tracer.span("bench.op"):
                started = time.perf_counter()
                with tracer.installed():
                    result = workload.traced_op(item)
                times.append(time.perf_counter() - started)
            with tracer.span("core.check"):
                tally.record(workload.check(k, item, result, reference))
        return times

    untraced = [run_op(workload, workload.traced_op, k, item, reference, tally) for k, item in enumerate(items)]
    traced_times = checked_pass(timing_tracer)
    counting = [spans.Tracer(count_pivots=True) for _ in range(2)]
    for tracer in counting:
        checked_pass(tracer)
    c, again = (t.counters for t in counting)
    if c != again:
        raise AssertionError(f"counters differ between identical traced passes: {c} vs {again}")
    for key in spans.SPAN_COUNTER_KEYS:
        if timing_tracer.counters[key] != c[key]:
            raise AssertionError(f"{key} differs between the timing and counting passes")

    ops = len(items)
    self_s = spans.layer_self_times(timing_tracer.spans)
    lp_s = self_s.get("lp", 0.0)
    solves = max(c["lp.solves"], 1)
    metrics = {
        "lp.solves": c["lp.solves"] / ops,
        "lp.rows.mean": c["lp.rows"] / solves,
        "lp.cols.mean": c["lp.cols"] / solves,
        "lp.pivots.p1": c["lp.pivots.p1"] / ops,
        "lp.pivots.p2": c["lp.pivots.p2"] / ops,
        "lp.self_s": lp_s / ops,
        "lp.us_per_pivot": 1e6 * lp_s / max(c["lp.pivots.p1"] + c["lp.pivots.p2"], 1),
        "lp.us_per_solve": 1e6 * lp_s / solves,
        "lp.tableau_mb.max": c["lp.tableau_bytes.max"] / 2**20,
        "oracles.calls": c["oracles.calls"] / ops,
        "oracles.lps_per_call": c["lp.solves"] / max(c["oracles.calls"], 1),
        "oracles.self_s": self_s.get("oracles", 0.0) / ops,
        "oracles.unbounded": c["oracles.unbounded"] / ops,
        "rules.calls": c["rules.calls"] / ops,
        "rules.self_s": self_s.get("rules", 0.0) / ops,
        "core.check_s": self_s.get("core", 0.0) / ops,
        "instances.gen_s": timing["gen_s"],
        "cli.cells": 0.0,
        "cli.busy_frac": 0.0,
        "trace.overhead_frac": statistics.median(traced_times) / statistics.median(untraced) - 1.0,
    }
    extra = {}
    if hasattr(workload, "jobs"):
        cell_ms, wall = _multi_job_sweep(workload, items[0], reference, tally)
        metrics["cli.cells"] = float(len(cell_ms))
        metrics["cli.busy_frac"] = sum(cell_ms) / 1000.0 / (workload.jobs * wall)
        extra["cli.cell_ms.p50"] = statistics.median(cell_ms)
    extra |= {
        "counters": c,
        "self_s_by_layer": self_s,
        "spans": [s.as_list() for s in timing_tracer.spans],
    }
    return metrics, tally, extra


def _multi_job_sweep(workload, item, reference, tally) -> tuple[list[float], float]:
    """``runtime_ms`` of each cell and the wall time of one untraced sweep."""
    started = time.perf_counter()
    rows = workload.op(item)
    wall = time.perf_counter() - started
    tally.record(workload.check(0, item, rows, reference))
    return [float(r["runtime_ms"]) for r in rows], wall


def run_workload(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_sample:
            _, _, timing = set_up(args.workload, args.seed, workdir)
            print(json.dumps(timing))
            return 0
        if args.trace:
            metrics, tally, extra = traced(args.workload, args.seed, workdir)
            env = environment()
            units = PER_LAYER_UNITS
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            record = {"workload": args.workload, "seed": args.seed, "env": env, "metrics": metrics}
            record.update(extra)
            record["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
            with open(trace_file, "w") as fh:
                json.dump(record, fh)
            print(f"# spans written to {trace_file.relative_to(ROOT)}")
        else:
            metrics, tally, extra = end_to_end(args.workload, args.seed, args.seconds, workdir)
            units = END_TO_END_UNITS
            env = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# env " + json.dumps(env, sort_keys=True))
    _print_human(args.workload, args.seed, metrics, units, tally, extra)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def _print_human(name, seed, metrics, units, tally, extra):
    print(f"# workload {name} seed {seed}")
    for key, unit in units.items():
        print(f"#   {key:<22} {metrics[key]:.6g} {unit}")
    if "setup_samples_s" in extra:
        print(f"#   setup samples {extra['setup_samples_s']} s; this process {extra['setup_parts_s']}")
    if "cli.cell_ms.p50" in extra:
        print(f"#   {'cli.cell_ms.p50':<22} {extra['cli.cell_ms.p50']:.6g} ms")
    if "op_s.tail" in extra:
        t = extra["op_s.tail"]
        text = "omitted: too few operations" if t is None else f"p{t[0]:g} = {t[1]:.6g} s of {t[2]} samples"
        print(f"#   {'op_s.tail':<22} {text}")
    print(f"#   {'fail_frac':<22} {tally.failed}/{tally.attempted} operations attempted")
    for problem in tally.problems[:10]:
        print(f"#   failure: {problem}")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, text=True, capture_output=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            status = 1
    return status


def write_references() -> int:
    """Record each workload's outputs on the default seed (run on the seed commit)."""
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT))
    try:
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        for name in WORKLOAD_NAMES:
            workload = workloads.WORKLOADS[name]
            inputs = workload.make_inputs(workloads.DEFAULT_SEED, workdir)
            record = workload.record_reference(inputs)
            with open(workloads.REFERENCE_DIR / f"{name}.json", "w") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
            print(f"recorded {name}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None, help="default: all, one after the other")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="summed operation time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true", help="record the default-seed reference outputs")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "distortion_lab" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    configure_environment()
    if args.write_reference:
        return write_references()
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
