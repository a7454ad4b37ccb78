"""The four benchmark workloads.

Every workload is closed loop: like a researcher's script, the benchmark
starts the next operation only when the previous one has returned. Inputs
come from the seed alone (profile k is ``random_profile(n, m, seed + k)``)
and every operation in a workload has the same shape, rule and world, so its
latencies form one band.

Each workload gives its input set, the operation, a warm-up, the checks on
an operation's output and the fixed operation list that traced passes use.
"""

from __future__ import annotations

import csv
import inspect
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from distortion_lab import cli, core, instances, oracles, rules

from checks import certificate_problems, same_value, value_from_json, value_to_json

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SWEEP_TIMEOUT_S = 150

# The seven rules `distortion-lab reproduce` tabulates, at its default
# parameters. Lookups go through the module at call time so that a traced
# pass sees the wrapped functions.
REPRODUCE_RULES = {
    "plurality": lambda p: rules.plurality(p),
    "copeland": lambda p: rules.copeland(p),
    "plurality_veto": lambda p: rules.plurality_veto(p)[0],
    "ppv": lambda p: rules.pruned_plurality_veto(p, 1.0),
    "random_dictatorship": lambda p: rules.random_dictatorship(p),
    "harmonic": lambda p: rules.harmonic_rule(p),
    "truncated_harmonic": lambda p: rules.truncated_harmonic(p, 1.0),
}

# The sweep's rules by CLI id. No entry passes a parameter, so the config
# stays valid when undeclared rule parameters become an error.
SWEEP_RULES = {
    "top_t_th": lambda p: rules.top_t_truncated_harmonic(p),
    "top_t_det": lambda p: rules.top_t_det_rule(p),
    "plurality": lambda p: rules.plurality(p),
    "random_dictatorship": lambda p: rules.random_dictatorship(p),
}
SWEEP_GRID = ({"n": 3, "m": 4, "t": 2}, {"n": 4, "m": 4, "t": 2}, {"n": 4, "m": 5, "t": 3})
WORLDS = ("metric", "utilitarian")
SWEEP_JOBS = 2


def _oracle(world: str):
    return oracles.metric_distortion if world == "metric" else oracles.utilitarian_distortion


def _direct_prefix_kwargs() -> dict:
    # The direct prefix LP is exact for top-t ballots; while the library
    # still enumerates completions, a zero budget skips the enumeration.
    params = inspect.signature(oracles.metric_distortion).parameters
    return {"completion_budget": 0} if "completion_budget" in params else {}


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


class SingleProfile:
    """One oracle call on one full random profile per operation."""

    traced_ops = 4
    inputs_per_run = 64

    def __init__(self, name: str, world: str, n: int, m: int):
        self.name = name
        self.world = world
        self.n = n
        self.m = m

    def make_inputs(self, seed: int, workdir: Path) -> list:
        return [instances.random_profile(self.n, self.m, seed + k) for k in range(self.inputs_per_run)]

    def warm_up(self, inputs: list):
        # The same warm-up input for every seed, so set-up time does not
        # depend on which profiles the seed draws.
        self.op(instances.random_profile(self.n, self.m, DEFAULT_SEED))

    def op(self, p):
        lot = rules.truncated_harmonic(p, 1.0)
        return lot, _oracle(self.world)(lot, p)

    traced_op = op

    def check(self, k: int, p, result, reference: dict | None) -> list[str]:
        lot, report = result
        problems = certificate_problems(lot, p, report)
        if reference is not None:
            want = value_from_json(reference["values"][k])
            if not same_value(report.value.value, want):
                problems.append(f"value {report.value} differs from reference {want!r}")
        return problems

    def reference_for(self, seed: int) -> dict | None:
        return load_reference(self.name) if seed == DEFAULT_SEED else None

    def record_reference(self, inputs: list) -> dict:
        values = [value_to_json(self.op(p)[1].value.value) for p in inputs]
        return {"seed": DEFAULT_SEED, "n": self.n, "m": self.m, "values": values}


class ExhaustiveTable:
    """One full worst-case table at (n, m): every reproduce rule x both worlds."""

    name = "exhaustive-small"
    traced_ops = 1
    n = 3
    m = 3

    def make_inputs(self, seed: int, workdir: Path) -> list:
        cells = [(rid, world) for rid in REPRODUCE_RULES for world in WORLDS]
        order = np.random.default_rng(seed).permutation(len(cells))
        return [[cells[i] for i in order]]

    def warm_up(self, inputs: list):
        # One metric cell fills the same per-shape caches as the whole table.
        oracles.exhaustive_worst_case(REPRODUCE_RULES["plurality"], self.n, self.m, "metric")

    def op(self, cells):
        return [
            (rid, world) + tuple(oracles.exhaustive_worst_case(REPRODUCE_RULES[rid], self.n, self.m, world))
            for rid, world in cells
        ]

    traced_op = op

    def check(self, k: int, cells, result, reference: dict | None) -> list[str]:
        problems = []
        for rid, world, value, witness_profile in result:
            rule = REPRODUCE_RULES[rid]
            lot = rule(witness_profile)
            report = _oracle(world)(lot, witness_profile)
            cell = f"{rid}/{world}"
            problems += [f"{cell}: {p}" for p in certificate_problems(lot, witness_profile, report)]
            if not same_value(report.value.value, value.value):
                problems.append(f"{cell}: witness profile gives {report.value}, table says {value}")
            if reference is not None:
                want = value_from_json(reference["values"][cell])
                if not same_value(value.value, want):
                    problems.append(f"{cell}: {value} differs from reference {want!r}")
        return problems

    def reference_for(self, seed: int) -> dict | None:
        # The table enumerates every profile, so it is the same for every seed.
        return load_reference(self.name)

    def record_reference(self, inputs: list) -> dict:
        values = {f"{rid}/{world}": value_to_json(v.value) for rid, world, v, _ in self.op(inputs[0])}
        return {"n": self.n, "m": self.m, "values": values}


def run_sweep(config: Path, output: Path, jobs: int) -> list[dict]:
    """One ``distortion-lab sweep`` invocation in a child process; its CSV rows."""
    cmd = [
        sys.executable, "-m", "distortion_lab.cli", "sweep",
        "--config", str(config), "--output", str(output),
        "--jobs", str(jobs), "--timings",
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        _, err = proc.communicate(timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"sweep exited {proc.returncode}: {err.strip()[-300:]}")
    return _read_rows(output)


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class SweepItem:
    config: Path
    output: Path
    seed: int
    profiles: dict  # (n, m, t) -> the TopTProfile the sweep builds for that cell


class SweepPrefix:
    """One ``distortion-lab sweep --jobs 2`` run on a benchmark-owned top-t config."""

    name = "sweep-prefix"
    traced_ops = 1
    inputs_per_run = 16
    jobs = SWEEP_JOBS

    def _config(self, seed: int) -> dict:
        return {
            "rules": list(SWEEP_RULES),
            "grid": [dict(cell) for cell in SWEEP_GRID],
            "seeds": [seed],
            "worlds": list(WORLDS),
        }

    def make_inputs(self, seed: int, workdir: Path) -> list:
        items = []
        for k in range(self.inputs_per_run):
            config = workdir / f"sweep-{k}.json"
            with open(config, "w") as fh:
                json.dump(self._config(seed + k), fh)
            profiles = {
                (c["n"], c["m"], c["t"]): core.truncate_profile(
                    instances.random_profile(c["n"], c["m"], seed + k), c["t"]
                )
                for c in SWEEP_GRID
            }
            items.append(SweepItem(config, workdir / f"sweep-{k}.csv", seed + k, profiles))
        return items

    def warm_up(self, inputs: list):
        # A one-cell sweep starts the interpreter, the library and the pool.
        workdir = inputs[0].config.parent
        config = workdir / "sweep-warm.json"
        cell = {"rules": ["plurality"], "grid": [SWEEP_GRID[0]], "seeds": [DEFAULT_SEED], "worlds": ["metric"]}
        with open(config, "w") as fh:
            json.dump(cell, fh)
        run_sweep(config, workdir / "sweep-warm.csv", self.jobs)

    def op(self, item: SweepItem) -> list[dict]:
        return run_sweep(item.config, item.output, self.jobs)

    def traced_op(self, item: SweepItem) -> list[dict]:
        """The same sweep in this process with one job, so wrappers see every call."""
        argv = ["sweep", "--config", str(item.config), "--output", str(item.output), "--jobs", "1", "--timings"]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sweep exited {code}")
        return _read_rows(item.output)

    def _expected(self, item: SweepItem) -> tuple[dict, list[str]]:
        """Certificate-checked in-process values for every cell of the config."""
        expected, problems = {}, []
        kwargs = _direct_prefix_kwargs()
        for rid, rule in SWEEP_RULES.items():
            for (n, m, t), p in item.profiles.items():
                lot = rule(p)
                for world in WORLDS:
                    report = _oracle(world)(lot, p, **kwargs)
                    key = (rid, str(n), str(m), str(t), str(item.seed), world)
                    problems += [f"{key}: {x}" for x in certificate_problems(lot, p, report)]
                    expected[key] = report.value.value
        return expected, problems

    def check(self, k: int, item: SweepItem, rows: list[dict], reference: dict | None) -> list[str]:
        expected, problems = self._expected(item)
        got = {
            (r["rule"], r["n"], r["m"], r["t"], r["seed"], r["world"]): r for r in rows
        }
        if set(got) != set(expected) or len(rows) != len(expected):
            return problems + [f"sweep rows {sorted(got)} differ from the expected cells"]
        for key, want in expected.items():
            if not same_value(value_from_json(got[key]["distortion"]), want):
                problems.append(f"{key}: sweep says {got[key]['distortion']}, oracle gives {want!r}")
        if reference is not None:
            problems += _reference_diff(strip_timings(rows), reference["rows"][k])
        return problems

    def reference_for(self, seed: int) -> dict | None:
        return load_reference(self.name) if seed == DEFAULT_SEED else None

    def record_reference(self, inputs: list) -> dict:
        return {"seed": DEFAULT_SEED, "rows": [strip_timings(self.op(item)) for item in inputs]}


def strip_timings(rows: list[dict]) -> list[str]:
    """CSV lines without the wall-clock runtime_ms column."""
    return [",".join(v for k, v in r.items() if k != "runtime_ms") for r in rows]


def _reference_diff(lines: list[str], want: list[str]) -> list[str]:
    """Lines that differ from the reference; distortion within RATIO_TOL."""
    if len(lines) != len(want):
        return [f"{len(lines)} rows, reference has {len(want)}"]
    problems = []
    for got_line, want_line in zip(lines, want):
        # columns: rule, n, m, t, seed, world, distortion, arg_optimum
        got, ref = got_line.split(","), want_line.split(",")
        same = got[:6] == ref[:6] and got[7:] == ref[7:]
        if not same or not same_value(value_from_json(got[6]), value_from_json(ref[6])):
            problems.append(f"row {got_line} differs from reference {want_line}")
    return problems


WORKLOADS = {
    "metric-full": SingleProfile("metric-full", "metric", 8, 4),
    "utilitarian-full": SingleProfile("utilitarian-full", "utilitarian", 40, 6),
    "exhaustive-small": ExhaustiveTable(),
    "sweep-prefix": SweepPrefix(),
}
