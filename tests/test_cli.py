"""Unit tests for the command-line front end.

Commands run in-process through ``cli.main`` with captured streams, so
exit codes and stream purity are asserted without spawning anything
(the sweep ``--jobs`` path still exercises real worker processes).
"""

import argparse
import concurrent.futures
import contextlib
import csv
import io
import json

import numpy as np
import pytest

import distortion_lab as dl
from certificates import assert_certified
from distortion_lab import cli
from paper_claims import checked_by


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def inst(tmp_path):
    p = dl.Profile(
        m=3,
        rankings=(
            (0, 1, 2),
            (1, 0, 2),
            (2, 1, 0),
        ),
    )
    path = tmp_path / "p2.json"
    dl.save_instance(p, path)
    return path


@pytest.fixture
def topt_inst(tmp_path):
    p = dl.truncate_profile(dl.random_profile(3, 4, seed=7), 2)
    path = tmp_path / "topt.json"
    dl.save_instance(p, path)
    return path


class TestRun:
    def test_plurality_veto_payload(self, inst):
        code, out, err = run_cli(["run", "--rule", "plurality_veto", "--instance", str(inst)])
        assert code == 0
        assert json.loads(out)["prob"] == [0.0, 1.0, 0.0]

    def test_truncated_harmonic_payload(self, inst):
        code, out, _ = run_cli(
            ["run", "--rule", "truncated_harmonic", "--epsilon", "1", "--instance", str(inst)]
        )
        assert code == 0
        prob = json.loads(out)["prob"]
        assert prob == pytest.approx([1 / 33, 31 / 33, 1 / 33])

    def test_unknown_rule(self, inst):
        code, out, _ = run_cli(["run", "--rule", "nope", "--instance", str(inst)])
        assert code == 2 and out == ""

    def test_full_only_rule_on_prefix_instance(self, topt_inst):
        code, _, err = run_cli(["run", "--rule", "copeland", "--instance", str(topt_inst)])
        assert code == 4
        assert "does not accept" in err

    def test_mix_requires_components_and_beta(self, inst):
        code, _, _ = run_cli(["run", "--rule", "mix", "--instance", str(inst)])
        assert code == 4
        code, _, _ = run_cli(
            ["run", "--rule", "mix", "--components", "plurality,harmonic",
             "--instance", str(inst)]
        )
        assert code == 4  # beta still missing
        code, out, _ = run_cli(
            ["run", "--rule", "mix", "--components", "plurality,harmonic",
             "--beta", "0.5", "--instance", str(inst)]
        )
        assert code == 0
        assert sum(json.loads(out)["prob"]) == pytest.approx(1.0)

    def test_mix_unknown_component(self, inst):
        code, _, _ = run_cli(
            ["run", "--rule", "mix", "--components", "plurality,zebra",
             "--beta", "0.5", "--instance", str(inst)]
        )
        assert code == 2

    def test_undeclared_parameter(self, inst):
        code, out, err = run_cli(
            ["run", "--rule", "plurality", "--epsilon", "3", "--instance", str(inst)]
        )
        assert code == 4 and out == ""
        assert "'epsilon'" in err
        code, out, _ = run_cli(
            ["run", "--rule", "mix", "--components", "plurality,harmonic",
             "--beta", "0.5", "--epsilon", "5", "--instance", str(inst)]
        )
        assert code == 4 and out == ""

    @pytest.mark.parametrize("eps", ["inf", "nan", "0", "-1"])
    def test_ppv_needs_finite_positive_epsilon(self, inst, eps):
        code, out, err = run_cli(
            ["run", "--rule", "ppv", "--epsilon", eps, "--instance", str(inst)]
        )
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and "finite epsilon > 0" in err

    def test_mix_rejects_mix_component(self, inst):
        code, _, _ = run_cli(
            ["run", "--rule", "mix", "--components", "plurality,mix",
             "--beta", "0.5", "--instance", str(inst)]
        )
        assert code == 4


class TestOracle:
    def test_metric_rule_report(self, inst, request):
        (row,) = checked_by(request)
        code, out, _ = run_cli(
            ["oracle", "--world", "metric", "--rule", row.rule,
             "--instance", str(inst)]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] <= row.bound(3, 3, None) + dl.RATIO_TOL
        assert payload["witness"]["points"] == 6

    def test_lottery_file_input(self, inst, tmp_path):
        lot_path = tmp_path / "lot.json"
        dl.save_lottery(dl.Lottery(np.array([0.0, 1.0, 0.0])), lot_path)
        code, out, _ = run_cli(
            ["oracle", "--world", "metric", "--lottery", str(lot_path),
             "--instance", str(inst)]
        )
        assert code == 0
        assert json.loads(out)["value"] <= 3 + 1e-6

    def test_lottery_and_rule_mutually_exclusive(self, inst, tmp_path):
        lot_path = tmp_path / "lot.json"
        dl.save_lottery(dl.Lottery(np.array([1.0, 0.0, 0.0])), lot_path)
        code, _, _ = run_cli(
            ["oracle", "--world", "metric", "--lottery", str(lot_path),
             "--rule", "plurality", "--instance", str(inst)]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "flag, value",
        [("--epsilon", "3"), ("--beta", "0.5"), ("--components", "plurality,harmonic")],
    )
    def test_lottery_refuses_rule_flags(self, inst, tmp_path, flag, value):
        # A rule parameter flag is refused by name with --lottery, as run
        # refuses a parameter its rule does not declare.
        lot_path = tmp_path / "lot.json"
        dl.save_lottery(dl.Lottery(np.array([1.0, 0.0, 0.0])), lot_path)
        code, out, err = run_cli(
            ["oracle", "--world", "metric", "--lottery", str(lot_path),
             "--instance", str(inst), flag, value]
        )
        assert code == 4 and out == ""
        assert err.count("\n") == 1 and flag in err

    def test_lottery_width_mismatch(self, inst, tmp_path):
        lot_path = tmp_path / "lot.json"
        dl.save_lottery(dl.Lottery(np.array([0.5, 0.5])), lot_path)
        code, _, _ = run_cli(
            ["oracle", "--world", "metric", "--lottery", str(lot_path),
             "--instance", str(inst)]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "prob", [[True, False, False], [1, False, 0], [0.5, 0.5, False]]
    )
    def test_boolean_lottery_rejected(self, inst, tmp_path, prob):
        # Read as numbers, the first would be the point mass on 0.
        lot_path = tmp_path / "lot.json"
        lot_path.write_text(json.dumps({"prob": prob}))
        code, out, err = run_cli(
            ["oracle", "--world", "metric", "--lottery", str(lot_path),
             "--instance", str(inst)]
        )
        assert code == 3 and out == ""
        assert "not true or false" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "data",
        [
            {"m": 3, "n": 0, "rankings": []},
            {"m": 3, "n": 0, "t": 1, "prefixes": []},
        ],
    )
    def test_instance_without_ballots(self, tmp_path, data):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(
            ["oracle", "--world", "metric", "--rule", "plurality", "--instance", str(path)]
        )
        assert code == 3 and out == ""
        assert "at least one ballot" in err

    def test_harmonic_all_last_unbounded(self, tmp_path):
        p = dl.Profile(m=3, rankings=((0, 1, 2), (1, 0, 2)))
        path = tmp_path / "alllast.json"
        dl.save_instance(p, path)
        code, out, _ = run_cli(
            ["oracle", "--world", "metric", "--rule", "harmonic", "--instance", str(path)]
        )
        assert code == 0
        assert json.loads(out)["value"] == "unbounded"

    @pytest.mark.parametrize(
        "world, prob", [("metric", [0.6, 0.4]), ("utilitarian", [0.0, 1.0])]
    )
    def test_unbounded_report_carries_witness(self, tmp_path, world, prob):
        p = dl.Profile(m=2, rankings=((0, 1),))
        inst_path, lot_path = tmp_path / "single.json", tmp_path / "lot.json"
        dl.save_instance(p, inst_path)
        dl.save_lottery(dl.Lottery(np.array(prob)), lot_path)
        code, out, _ = run_cli(
            ["oracle", "--world", world, "--lottery", str(lot_path),
             "--instance", str(inst_path)]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "unbounded"
        assert payload["arg_optimum"] == 0
        assert payload["witness"] is not None

    @pytest.mark.parametrize("world", ["metric", "utilitarian"])
    def test_witness_round_trip(self, inst, tmp_path, world):
        # The printed witness, written to a file, loads back and certifies
        # the printed value.
        code, out, _ = run_cli(
            ["oracle", "--world", world, "--rule", "truncated_harmonic", "--instance", str(inst)]
        )
        assert code == 0
        payload = json.loads(out)
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(payload["witness"]))
        p = dl.load_instance(inst)
        witness = dl.load_metric(path, p.n, p.m) if world == "metric" else dl.load_utilities(path)
        value = dl.DistortionValue.finite(payload["value"])
        report = dl.DistortionReport(value, witness, payload["arg_optimum"])
        assert_certified(dl.truncated_harmonic(p), p, report)

    def test_bruteforce_agreement_path(self, inst):
        code, out, err = run_cli(
            ["oracle", "--world", "utilitarian", "--rule", "harmonic",
             "--instance", str(inst), "--check-bruteforce"]
        )
        assert code == 0
        assert "agreement" in err
        json.loads(out)

    def test_bruteforce_needs_utilitarian(self, inst):
        code, _, _ = run_cli(
            ["oracle", "--world", "metric", "--rule", "harmonic",
             "--instance", str(inst), "--check-bruteforce"]
        )
        assert code == 4

    def test_env_budget_override(self, inst, monkeypatch):
        monkeypatch.setenv("DISTORTION_LAB_BUDGET", "2")
        code, _, _ = run_cli(
            ["oracle", "--world", "utilitarian", "--rule", "plurality",
             "--instance", str(inst), "--check-bruteforce"]
        )
        assert code == 6
        monkeypatch.setenv("DISTORTION_LAB_BUDGET", "1000000")
        code, _, _ = run_cli(
            ["oracle", "--world", "utilitarian", "--rule", "plurality",
             "--instance", str(inst), "--check-bruteforce"]
        )
        assert code == 0

    @pytest.mark.parametrize("value", ["abc", "1e6"])
    def test_env_budget_malformed(self, inst, tmp_path, monkeypatch, value):
        monkeypatch.setenv("DISTORTION_LAB_BUDGET", value)
        code, out, err = run_cli(
            ["reproduce", "--n", "2", "--m", "2", "--rules", "plurality",
             "--output", str(tmp_path / "t.csv")]
        )
        assert code == 4 and out == ""
        assert "DISTORTION_LAB_BUDGET" in err
        assert not (tmp_path / "t.csv").exists()
        # An explicit --budget wins, so the variable is not read.
        code, _, _ = run_cli(
            ["oracle", "--world", "utilitarian", "--rule", "plurality",
             "--instance", str(inst), "--check-bruteforce", "--budget", "100"]
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["run", "oracle", "sweep", "generate"])
    def test_env_budget_malformed_unread(self, inst, tmp_path, monkeypatch, command):
        # Only reproduce and oracle --check-bruteforce read a budget.
        monkeypatch.setenv("DISTORTION_LAB_BUDGET", "abc")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"rules": ["plurality"], "grid": [{"n": 2, "m": 2}], "seeds": [0], "worlds": ["metric"]}
        ))
        argv = {
            "run": ["run", "--rule", "plurality", "--instance", str(inst)],
            "oracle": ["oracle", "--world", "utilitarian", "--rule", "plurality",
                       "--instance", str(inst)],
            "sweep": ["sweep", "--config", str(cfg), "--output", str(tmp_path / "o.csv")],
            "generate": ["generate", "--kind", "random", "--n", "2", "--m", "2",
                         "--out", str(tmp_path / "g.json")],
        }[command]
        code, _, err = run_cli(argv)
        assert code == 0, err


class TestSweep:
    CONFIG = {
        "rules": [
            "plurality",
            {"id": "truncated_harmonic", "epsilon": 2.0, "label": "th_eps2"},
        ],
        "grid": [{"n": 3, "m": 3}, {"n": 2, "m": 3, "t": 1}],
        "seeds": [5],
        "worlds": ["metric", "utilitarian"],
    }

    def test_csv_shape_and_sorting(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out_csv = tmp_path / "out.csv"
        code, out, err = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(out_csv)]
        )
        assert code == 0 and out == ""
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0] == [
            "rule", "n", "m", "t", "seed", "world",
            "distortion", "arg_optimum", "runtime_ms",
        ]
        body = rows[1:]
        # plurality runs on both cells, th only on the full cell: 4 + 2 rows
        assert len(body) == 6
        assert body == sorted(body, key=lambda r: (r[0], int(r[1]), int(r[2]), r[3], int(r[4]), r[5]))
        assert all(r[8] == "0" for r in body)  # timings off by default
        assert {r[0] for r in body} == {"plurality", "th_eps2"}

    def test_no_clock_read_without_timings(self, tmp_path, monkeypatch):
        def clock():
            raise AssertionError("the clock was read without --timings")

        monkeypatch.setattr(cli.time, "perf_counter", clock)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out_csv = tmp_path / "out.csv"
        code, out, _ = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(out_csv), "--jobs", "1"]
        )
        assert code == 0 and out == ""
        body = list(csv.reader(out_csv.read_text().splitlines()))[1:]
        assert len(body) == 6
        assert all(r[8] == "0" for r in body)

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"rules": ["plurality"], "grid": []}, "seeds"),
            (dict(CONFIG, rules="plurality"), "rules"),
            (dict(CONFIG, worlds="metric"), "worlds"),
            (dict(CONFIG, rules=[]), "rules"),
            (dict(CONFIG, grid=[]), "grid"),
            (dict(CONFIG, seeds=[]), "seeds"),
            (dict(CONFIG, worlds=[]), "worlds"),
            (dict(CONFIG, grid={"n": 3, "m": 3}), "grid"),
        ],
        ids=[
            "missing-fields", "rules-string", "worlds-string", "rules-empty",
            "grid-empty", "seeds-empty", "worlds-empty", "grid-object",
        ],
    )
    def test_malformed_config(self, tmp_path, config, named):
        # Each exits 3 naming the field, before any cell runs.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli(["sweep", "--config", str(cfg), "--output", str(out_csv)])
        assert code == 3 and out == ""
        assert f"'{named}'" in err
        assert not out_csv.exists()

    def test_unknown_rule_in_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        bad = dict(self.CONFIG, rules=["plurality", "wat"])
        cfg.write_text(json.dumps(bad))
        code, _, _ = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(tmp_path / "o.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "entry, expected",
        [
            ({"id": "mix", "components": ["plurality", "zebra"], "beta": 0.5}, 2),
            ({"id": "ppv", "epsilon": -4}, 4),
            ({"id": "ppv", "epsilon": "abc"}, 4),
            ({"id": "top_t_th", "epsilon": 1.0}, 4),
            ({"id": "mix", "components": ["plurality", "harmonic"]}, 4),
            ({"id": "ppv", "epsilon": True}, 4),
            ({"id": "mix", "components": ["plurality", "harmonic"], "beta": False}, 4),
            ({"id": "truncated_harmonic", "epsilon": "2"}, 4),
            ({"id": "ppv", "epsilon": 10**400}, 4),
        ],
    )
    def test_rule_entry_faults_match_run(self, tmp_path, entry, expected):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, rules=["plurality", entry])))
        out_csv = tmp_path / "o.csv"
        code, out, _ = run_cli(["sweep", "--config", str(cfg), "--output", str(out_csv)])
        assert code == expected and out == ""
        assert not out_csv.exists()

    def test_unknown_grid_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, grid=[{"n": 3, "m": 4, "T": 2}])))
        code, _, err = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(tmp_path / "o.csv")]
        )
        assert code == 3
        assert "'T'" in err

    def test_grid_cell_not_an_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, grid=[[3, 3]])))
        code, _, _ = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(tmp_path / "o.csv")]
        )
        assert code == 3

    def test_label_not_a_string(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        rules = ["plurality", {"id": "random_dictatorship", "label": 5}]
        cfg.write_text(json.dumps(dict(self.CONFIG, rules=rules)))
        code, out, _ = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(tmp_path / "o.csv")]
        )
        assert code == 3 and out == ""

    def test_unknown_top_level_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, seed=3)))
        code, _, err = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(tmp_path / "o.csv")]
        )
        assert code == 3
        assert "'seed'" in err

    @pytest.mark.parametrize(
        "grid, seeds",
        [
            ([{"n": 0, "m": 3}], [5]),
            ([{"n": 3, "m": 0}], [5]),
            ([{"n": 3, "m": 3, "t": 5}], [5]),
            ([{"n": 3, "m": 3, "t": 0}], [5]),
            ([{"n": 3.7, "m": 3}], [5]),
            ([{"n": True, "m": 3}], [5]),
            ([{"n": 3, "m": 3, "t": 1.0}], [5]),
            ([{"n": 3, "m": 3}], [1.9]),
            ([{"n": 3, "m": 3}], ["7"]),
            ([{"n": 3, "m": 3}], [False]),
            ([{"n": 3, "m": 3}], [-1]),
        ],
        ids=[
            "n-zero", "m-zero", "t-above-m", "t-zero", "n-float", "n-bool",
            "t-float", "seed-float", "seed-string", "seed-bool", "seed-negative",
        ],
    )
    def test_bad_grid_cell_or_seed(self, tmp_path, grid, seeds):
        # A good cell comes first, so a fault found only inside the pool
        # would surface after other cells have run.
        cfg = tmp_path / "cfg.json"
        bad = dict(self.CONFIG, grid=[{"n": 2, "m": 2}] + grid, seeds=[1] + seeds)
        cfg.write_text(json.dumps(bad))
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(out_csv), "--jobs", "2"]
        )
        assert code == 3 and out == ""
        assert str(cfg) in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one(self, tmp_path, jobs):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(out_csv), "--jobs", jobs]
        )
        assert code == 4 and out == ""
        assert "--jobs" in err
        assert not out_csv.exists()

    def test_one_alternative_cell(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(self.CONFIG, grid=[{"n": 2, "m": 1}])))
        out_csv = tmp_path / "o.csv"
        code, out, _ = run_cli(["sweep", "--config", str(cfg), "--output", str(out_csv)])
        assert code == 0 and out == ""
        body = list(csv.reader(out_csv.read_text().splitlines()))[1:]
        assert len(body) == 4
        assert all(r[6] == "1.0" and r[7] == "0" for r in body)

    def test_jobs_do_not_change_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--output", str(a)])[0] == 0
        assert run_cli(
            ["sweep", "--config", str(cfg), "--output", str(b), "--jobs", "4"]
        )[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.fixture
    def pools(self, monkeypatch):
        """Replace the process pool with an in-process stand-in that records
        each pool's ``max_workers``, so no worker process is started."""
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return started

    def test_pool_capped_at_cell_count(self, tmp_path, pools, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        cfg = tmp_path / "cfg.json"
        config = dict(self.CONFIG, rules=["plurality"], grid=[{"n": 3, "m": 3}])
        cfg.write_text(json.dumps(config))  # 2 cells: one per world
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--output", str(a)])[0] == 0
        assert pools == []
        assert run_cli(
            ["sweep", "--config", str(cfg), "--output", str(b), "--jobs", "64"]
        )[0] == 0
        assert pools == [2]
        assert a.read_bytes() == b.read_bytes()

    def test_pool_capped_at_usable_cpus(self, tmp_path, pools, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))  # 6 cells
        out_csv = tmp_path / "o.csv"
        assert run_cli(
            ["sweep", "--config", str(cfg), "--output", str(out_csv), "--jobs", "5000"]
        )[0] == 0
        assert pools == [2]

    @pytest.mark.parametrize(
        "jobs, cells, cpus, workers",
        [(1, 4, 2, 1), (4, 4, 2, 2), (5000, 3, 64, 3), (5000, 10_000, 2, 2), (3, 0, 2, 0)],
    )
    def test_sweep_workers(self, jobs, cells, cpus, workers):
        assert cli._sweep_workers(jobs, cells, cpus) == workers

    def test_no_cells_run_in_process(self, tmp_path, pools):
        # copeland takes full rankings only, so the one top-t cell is skipped.
        cfg = tmp_path / "cfg.json"
        config = dict(self.CONFIG, rules=["copeland"], grid=[{"n": 2, "m": 3, "t": 1}])
        cfg.write_text(json.dumps(config))
        out_csv = tmp_path / "o.csv"
        code, _, err = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(out_csv), "--jobs", "4"]
        )
        assert code == 0, err
        assert pools == []
        assert len(out_csv.read_text().splitlines()) == 1  # the header only

    def test_timings_flag_fills_runtime(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIG))
        out_csv = tmp_path / "timed.csv"
        code, _, _ = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(out_csv), "--timings"]
        )
        assert code == 0
        rows = list(csv.reader(out_csv.read_text().splitlines()))[1:]
        assert all(int(r[8]) >= 0 for r in rows)


class TestSolverFailures:
    """A solver or certificate failure exits 7 with one stderr line."""

    @pytest.fixture(params=["SolverError", "CertificateError"])
    def failing_oracle(self, request, monkeypatch):
        error = dl.SolverError if request.param == "SolverError" else dl.CertificateError

        def fail(lot, p):
            raise error("injected failure")

        monkeypatch.setattr(dl.oracles, "metric_distortion", fail)
        return request.param

    def _assert_one_line(self, code, out, err, name):
        assert code == cli.EXIT_SOLVER == 7
        assert out == ""
        assert err == f"distortion-lab: {name}: injected failure\n"

    def test_oracle(self, inst, failing_oracle):
        code, out, err = run_cli(
            ["oracle", "--world", "metric", "--rule", "plurality", "--instance", str(inst)]
        )
        self._assert_one_line(code, out, err, failing_oracle)

    def test_sweep_in_process(self, tmp_path, failing_oracle):
        cfg = tmp_path / "cfg.json"
        config = dict(TestSweep.CONFIG, rules=["plurality"], worlds=["metric"])
        cfg.write_text(json.dumps(config))
        out_csv = tmp_path / "o.csv"
        code, out, err = run_cli(
            ["sweep", "--config", str(cfg), "--output", str(out_csv), "--jobs", "1"]
        )
        self._assert_one_line(code, out, err, failing_oracle)
        assert not out_csv.exists()

    def test_reproduce(self, tmp_path, failing_oracle):
        # The output, opened before the table runs, is removed again.
        out_csv = tmp_path / "t.csv"
        out_csv.write_text("an earlier table\n")
        code, out, err = run_cli(
            ["reproduce", "--n", "2", "--m", "2", "--rules", "plurality",
             "--output", str(out_csv)]
        )
        self._assert_one_line(code, out, err, failing_oracle)
        assert not out_csv.exists()


class TestReproduce:
    def test_exhaustive_table(self, tmp_path):
        out_csv = tmp_path / "table.csv"
        code, out, _ = run_cli(
            ["reproduce", "--n", "2", "--m", "2", "--output", str(out_csv),
             "--rules", "plurality,random_dictatorship"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["rule", "metric", "utilitarian"]
        rows = {r[0]: r for r in csv.reader(out_csv.read_text().splitlines()[1:])}
        assert float(rows["random_dictatorship"][1]) == pytest.approx(2.0)

    def test_budget_requires_sample(self, tmp_path):
        code, _, err = run_cli(
            ["reproduce", "--n", "6", "--m", "4", "--output", str(tmp_path / "t.csv"),
             "--rules", "plurality", "--budget", "100"]
        )
        assert code == 6
        assert "--sample" in err

    def test_sampled_fallback(self, tmp_path, request):
        (row,) = checked_by(request)
        out_csv = tmp_path / "sampled.csv"
        code, out, _ = run_cli(
            ["reproduce", "--n", "4", "--m", "3", "--output", str(out_csv),
             "--rules", row.rule, "--budget", "100", "--sample", "5",
             "--seed", "3"]
        )
        assert code == 0
        value = float(csv.reader(out_csv.read_text().splitlines()[1:]).__next__()[1])
        assert 1.0 <= value <= row.bound(4, 3, None) + dl.RATIO_TOL

    @pytest.mark.parametrize("sample", ["0", "-3"])
    def test_sample_below_one(self, tmp_path, sample):
        out_csv = tmp_path / "t.csv"
        code, out, err = run_cli(
            ["reproduce", "--n", "5", "--m", "4", "--output", str(out_csv),
             "--rules", "plurality", "--sample", sample]
        )
        assert code == 4 and out == ""
        assert "--sample" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_budget(self, tmp_path, monkeypatch, source):
        out_csv = tmp_path / "t.csv"
        base = ["reproduce", "--n", "2", "--m", "2", "--output", str(out_csv),
                "--rules", "plurality"]
        if source == "flag":
            code, out, err = run_cli(base + ["--budget", "-5"])
        else:
            monkeypatch.setenv("DISTORTION_LAB_BUDGET", "-5")
            code, out, err = run_cli(base)
        assert code == 4 and out == ""
        assert err.count("\n") == 1
        assert ("--budget" if source == "flag" else "DISTORTION_LAB_BUDGET") in err
        assert not out_csv.exists()
        # A budget of 0 is valid: it admits no profile, so --sample is needed.
        monkeypatch.delenv("DISTORTION_LAB_BUDGET", raising=False)
        assert run_cli(base + ["--budget", "0"])[0] == 6
        assert run_cli(base + ["--budget", "0", "--sample", "1"])[0] == 0

    def test_negative_seed(self, tmp_path):
        out_csv = tmp_path / "t.csv"
        code, out, err = run_cli(
            ["reproduce", "--n", "9", "--m", "9", "--output", str(out_csv),
             "--sample", "2", "--seed", "-5"]
        )
        assert code == 4 and out == ""
        assert "--seed" in err
        assert not out_csv.exists()

    def test_rule_filter_naming_no_rule(self, tmp_path):
        out_csv = tmp_path / "t.csv"
        for rules in (",", ""):
            code, out, err = run_cli(
                ["reproduce", "--n", "2", "--m", "2", "--output", str(out_csv), "--rules", rules]
            )
            assert code == 4 and out == "", rules
            assert err.count("\n") == 1 and "--rules" in err, rules
            assert not out_csv.exists(), rules

    def test_unknown_rule_filter(self, tmp_path):
        code, _, _ = run_cli(
            ["reproduce", "--n", "2", "--m", "2", "--output", str(tmp_path / "t.csv"),
             "--rules", "zebra"]
        )
        assert code == 2


class TestGenerate:
    def test_random_instance(self, tmp_path):
        out = tmp_path / "r.json"
        code, stdout, _ = run_cli(
            ["generate", "--kind", "random", "--n", "3", "--m", "3",
             "--seed", "4", "--out", str(out)]
        )
        assert code == 0 and stdout == ""
        assert dl.load_instance(out) == dl.random_profile(3, 3, seed=4)

    def test_structured_with_metric(self, tmp_path):
        out, met_out = tmp_path / "i.json", tmp_path / "d.json"
        code, _, err = run_cli(
            ["generate", "--kind", "thm36", "--n", "4", "--m", "4",
             "--out", str(out), "--metric-out", str(met_out)]
        )
        assert code == 0
        p = dl.load_instance(out)
        met = dl.load_metric(met_out, p.n, p.m)
        assert dl.is_metric_consistent(met, p)

    def test_metric_dropped_with_warning(self, tmp_path):
        out = tmp_path / "i.json"
        code, _, err = run_cli(
            ["generate", "--kind", "thm36", "--n", "4", "--m", "4", "--out", str(out)]
        )
        assert code == 0
        assert "--metric-out" in err

    def test_bad_params(self, tmp_path):
        code, _, _ = run_cli(
            ["generate", "--kind", "prop31", "--n", "7", "--m", "3",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 4

    def test_thm51_requires_t(self, tmp_path):
        code, _, _ = run_cli(
            ["generate", "--kind", "thm51", "--n", "6", "--m", "4",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "5"), ("--t", "2"), ("--dm", "9"), ("--metric-out", "d.json")],
    )
    def test_flag_the_kind_does_not_read(self, tmp_path, flag, value):
        # prop31 reads only --n and --m; each kind-specific flag is refused
        # by name rather than ignored.
        out = tmp_path / "x.json"
        code, stdout, err = run_cli(
            ["generate", "--kind", "prop31", "--n", "6", "--m", "4",
             "--out", str(out), flag, value]
        )
        assert code == 4 and stdout == ""
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize("dm", ["inf", "nan"])
    def test_nonfinite_ratio(self, tmp_path, dm):
        out = tmp_path / "i.json"
        code, stdout, err = run_cli(
            ["generate", "--kind", "thm53", "--n", "108", "--m", "9", "--t", "1",
             "--dm", dm, "--out", str(out)]
        )
        assert code == 4 and stdout == ""
        assert err.count("\n") == 1 and "d_m" in err
        assert not out.exists()

    @pytest.mark.parametrize("dm", [None, "4"])
    def test_kind_specific_flags_reach_their_readers(self, tmp_path, dm):
        # thm53 reads --t, --dm (default 2.0) and --metric-out.
        out, met_out = tmp_path / "i.json", tmp_path / "d.json"
        extra = [] if dm is None else ["--dm", dm]
        code, _, err = run_cli(
            ["generate", "--kind", "thm53", "--n", "108", "--m", "9", "--t", "1",
             "--out", str(out), "--metric-out", str(met_out)] + extra
        )
        assert code == 0, err
        want = dl.thm53_instance(108, 9, 1, 2.0 if dm is None else float(dm))[0]
        assert dl.load_instance(out) == want
        assert met_out.exists()


class TestUnwritableOutput:
    """An output path in a missing directory exits 3 with one error line
    that names the path, and no traceback."""

    @pytest.fixture
    def missing(self, tmp_path):
        return tmp_path / "missing" / "out.json"

    def _assert_refused(self, code, err, path):
        assert code == cli.EXIT_BAD_INSTANCE == 3
        errors = [line for line in err.splitlines() if line.startswith("distortion-lab:")]
        assert len(errors) == 1 and str(path) in errors[0]
        assert "Traceback" not in err

    @pytest.fixture
    def no_work(self, monkeypatch):
        # The output is opened before any table or sweep cell runs.
        def fail(*args, **kwargs):
            raise AssertionError("work ran before the output was opened")

        monkeypatch.setattr(cli.oracles, "exhaustive_worst_case", fail)
        monkeypatch.setattr(cli, "_sweep_worker", fail)

    def test_reproduce_output(self, missing, no_work):
        code, out, err = run_cli(
            ["reproduce", "--n", "2", "--m", "2", "--rules", "plurality",
             "--output", str(missing)]
        )
        assert out == ""
        self._assert_refused(code, err, missing)

    def test_sweep_output(self, tmp_path, missing, no_work):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(TestSweep.CONFIG, rules=["plurality"])))
        code, out, err = run_cli(["sweep", "--config", str(cfg), "--output", str(missing)])
        assert out == ""
        self._assert_refused(code, err, missing)

    def test_generate_out(self, missing):
        code, out, err = run_cli(
            ["generate", "--kind", "random", "--n", "2", "--m", "3", "--out", str(missing)]
        )
        assert out == ""
        self._assert_refused(code, err, missing)

    def test_generate_metric_out(self, tmp_path, missing):
        out = tmp_path / "i.json"
        code, stdout, err = run_cli(
            ["generate", "--kind", "thm36", "--n", "4", "--m", "4",
             "--out", str(out), "--metric-out", str(missing)]
        )
        assert stdout == ""
        self._assert_refused(code, err, missing)
        # The instance is written before the metric is tried.
        assert out.exists()


class TestRuleTable:
    # The library call each rule id stands for, at the library's default
    # parameters; mix needs its two required parameters.
    LIBRARY = {
        "plurality": ([], dl.plurality),
        "copeland": ([], dl.copeland),
        "plurality_veto": ([], lambda p: dl.plurality_veto(p)[0]),
        "ppv": ([], dl.pruned_plurality_veto),
        "random_dictatorship": ([], dl.random_dictatorship),
        "harmonic": ([], dl.harmonic_rule),
        "truncated_harmonic": ([], dl.truncated_harmonic),
        "top_t_det": ([], dl.top_t_det_rule),
        "top_t_th": ([], dl.top_t_truncated_harmonic),
        "mix": (
            ["--components", "plurality,random_dictatorship", "--beta", "0.25"],
            lambda p: dl.mix(dl.plurality(p), dl.random_dictatorship(p), 0.25),
        ),
    }

    # The flags each subcommand reads, and no others.
    FLAGS = {
        "run": {"--rule", "--instance", "--epsilon", "--beta", "--components"},
        "oracle": {"--world", "--instance", "--lottery", "--rule", "--check-bruteforce",
                   "--budget", "--epsilon", "--beta", "--components"},
        "sweep": {"--config", "--output", "--timings", "--jobs"},
        "reproduce": {"--n", "--m", "--output", "--sample", "--rules", "--budget", "--seed"},
        "generate": {"--kind", "--out", "--metric-out", "--n", "--m", "--t", "--dm", "--seed"},
    }

    def test_every_rule_is_covered(self):
        assert set(self.LIBRARY) == set(cli.RULES)

    @pytest.mark.parametrize("rule_id", sorted(cli.RULES))
    @pytest.mark.parametrize("kind", ["full", "topt"])
    def test_run_matches_library(self, inst, topt_inst, rule_id, kind):
        path = inst if kind == "full" else topt_inst
        extra, library = self.LIBRARY[rule_id]
        code, out, err = run_cli(["run", "--rule", rule_id, "--instance", str(path)] + extra)
        if kind in cli.RULES[rule_id].kinds:
            assert code == 0, err
            expected = library(dl.load_instance(path)).prob.tolist()
            assert json.loads(out)["prob"] == expected
        else:
            assert code == 4 and out == ""
            assert "does not accept" in err

    def test_reproduce_default_rules(self, tmp_path):
        out_csv = tmp_path / "table.csv"
        code, _, err = run_cli(["reproduce", "--n", "1", "--m", "2", "--output", str(out_csv)])
        assert code == 0, err
        rows = list(csv.reader(out_csv.read_text().splitlines()))[1:]
        assert [r[0] for r in rows] == [
            "plurality", "copeland", "plurality_veto", "ppv",
            "random_dictatorship", "harmonic", "truncated_harmonic",
        ]

    def test_each_command_declares_only_the_flags_it_reads(self):
        parser = cli.build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(subs.choices) == set(self.FLAGS)
        for name, sub in subs.choices.items():
            flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            assert flags == self.FLAGS[name], name
        assert sum(len(f) for f in self.FLAGS.values()) == 33

    def test_unread_flag_is_a_usage_error(self, inst):
        code, out, _ = run_cli(
            ["oracle", "--world", "metric", "--rule", "plurality",
             "--instance", str(inst), "--jobs", "8"]
        )
        assert code == 2 and out == ""
