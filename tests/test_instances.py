"""Unit tests for instance generators and JSON file handling."""

import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import distortion_lab as dl
from distortion_lab import cli
from distortion_lab import (
    InstanceFormatError,
    Profile,
    TopTProfile,
)


class TestRandomProfile:
    def test_deterministic(self):
        assert dl.random_profile(2, 2, seed=7) == dl.random_profile(2, 2, seed=7)

    def test_valid_permutations(self):
        for seed in range(10):
            p = dl.random_profile(4, 5, seed=seed)
            assert dl.validate_profile(p) == []

    def test_rankings_near_uniform(self):
        p = dl.random_profile(6000, 3, seed=0)
        counts = Counter(r for r in p.rankings)
        assert len(counts) == 6
        expected = 6000 / 6
        for c in counts.values():
            assert abs(c - expected) <= 0.05 * expected


class TestProp31Profile:
    def test_reference_layout_n6_m3(self):
        p = dl.prop31_profile(6, 3)
        orders = [r for r in p.rankings]
        assert orders == [
            (1, 0, 2),
            (1, 0, 2),
            (0, 2, 1),
            (2, 0, 1),
            (2, 0, 1),
            (0, 1, 2),
        ]

    def test_first_and_last_counts(self):
        for n, m in ((6, 3), (12, 4), (12, 3)):
            p = dl.prop31_profile(n, m)
            per_block = n // (m - 1)
            firsts = dl.plurality_scores(p)
            lasts = Counter(r[-1] for r in p.rankings)
            assert firsts[0] == m - 1
            for x in range(1, m):
                assert firsts[x] == per_block - 1
                assert lasts[x] == per_block

    def test_divisibility_error_names_nearest(self):
        with pytest.raises(ValueError, match="divisible"):
            dl.prop31_profile(7, 3)

    def test_m_floor(self):
        with pytest.raises(ValueError):
            dl.prop31_profile(4, 2)


class TestThm36Instance:
    def test_cost_ratio_seven_at_4x4(self):
        p, met = dl.thm36_instance(4, 4)
        costs = [dl.social_cost(met, x) for x in range(4)]
        assert costs[1] / min(costs) == 7.0
        assert min(costs) == costs[0]

    def test_consistency(self):
        for n in (4, 8, 16):
            p, met = dl.thm36_instance(4, n)
            assert dl.is_metric_consistent(met, p)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            dl.thm36_instance(4, 6)  # band sizes not integral
        with pytest.raises(ValueError):
            dl.thm36_instance(5, 4)  # 3 does not divide m-1
        with pytest.raises(ValueError):
            dl.thm36_instance(6, 4)  # sqrt(m) not integral


class TestThm51Profile:
    def test_shape_and_leaders(self):
        p = dl.thm51_profile(6, 4, 2)
        assert isinstance(p, TopTProfile)
        assert p.t == 2 and p.n == 6 and p.m == 4
        scores = dl.plurality_scores(p)
        assert scores.tolist() == [2, 2, 2, 0]

    def test_fillers_fill_tail_positions(self):
        p = dl.thm51_profile(6, 5, 3)
        for pre in p.prefixes:
            assert pre[1] == 3 and pre[2] == 4  # fillers in ascending order

    def test_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            dl.thm51_profile(5, 4, 2)


class TestThm53Instance:
    DM = 12 * 2**1.5 / (2 * 6**1.5)  # cohort count g = 2 at (n=12, m=6, t=2)

    def test_valid_and_consistent(self):
        p, met = dl.thm53_instance(12, 6, 2, self.DM)
        assert isinstance(p, TopTProfile)
        assert dl.validate_profile(p) == []
        assert dl.is_metric_consistent(met, p)

    def test_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            dl.thm53_instance(12, 6, 2, 1.0)

    @pytest.mark.parametrize("dm", [float("inf"), float("nan"), 1e308])
    def test_ratio_must_be_finite(self, dm):
        # inf, or a d_m whose d_m*m^1.5 overflows, makes every cohort size 0.
        with pytest.raises(ValueError, match="finite d_m"):
            dl.thm53_instance(108, 9, 1, dm)

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError, match="divisible"):
            dl.thm53_instance(1, 0, 1, 2.0)

    def test_nearest_n_hint(self):
        with pytest.raises(ValueError, match="nearest"):
            dl.thm53_instance(13, 6, 2, self.DM)

    def test_group_structure(self):
        p, _ = dl.thm53_instance(12, 6, 2, self.DM)
        assert p.t == 2
        # shortlist block occupies indices below m/3
        cohort = [pre for pre in p.prefixes if pre[0] >= 2]
        rest = [pre for pre in p.prefixes if pre[0] < 2]
        assert len(cohort) == 2 and len(rest) == 10


class TestInstanceFiles:
    def test_full_profile_round_trip(self, tmp_path):
        p = dl.random_profile(3, 4, seed=11)
        path = tmp_path / "inst.json"
        dl.save_instance(p, path)
        assert dl.load_instance(path) == p
        payload = json.loads(path.read_text())
        assert set(payload) == {"m", "n", "rankings"}

    def test_prefix_profile_round_trip(self, tmp_path):
        p = dl.truncate_profile(dl.random_profile(3, 4, seed=11), 2)
        path = tmp_path / "topt.json"
        dl.save_instance(p, path)
        loaded = dl.load_instance(path)
        assert isinstance(loaded, TopTProfile)
        assert loaded == p
        payload = json.loads(path.read_text())
        assert set(payload) == {"m", "n", "t", "prefixes"}

    def test_metric_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.random((5, 2))
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
        met = dl.MetricSpace(n=2, m=3, dist=dist)
        path = tmp_path / "met.json"
        dl.save_metric(met, path)
        loaded = dl.load_metric(path, 2, 3)
        assert np.allclose(loaded.dist, met.dist)

    def test_metric_points_mismatch(self, tmp_path):
        path = tmp_path / "met.json"
        path.write_text(json.dumps({"points": 3, "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
        with pytest.raises(InstanceFormatError):
            dl.load_metric(path, 2, 3)

    @pytest.mark.parametrize(
        "loader, data, match",
        [
            (dl.load_lottery, {"prob": [True, False, False]}, "not true or false"),
            (dl.load_utilities, {"util": [[0.5, 0.5], [True, 0.0]]}, "not true or false"),
            (
                lambda path: dl.load_metric(path, 1, 1),
                {"points": 2, "dist": [[0, True], [True, 0]]},
                "not true or false",
            ),
            (lambda path: dl.load_metric(path, 1, 1), {"points": 2.0, "dist": [[0, 1], [1, 0]]}, "integer"),
            (lambda path: dl.load_metric(path, 1, 0), {"points": True, "dist": [[0]]}, "integer"),
        ],
        ids=["lottery-bool", "utilities-bool", "metric-bool", "metric-float-points", "metric-bool-points"],
    )
    def test_booleans_and_float_points_rejected(self, tmp_path, loader, data, match):
        # np.asarray reads true as 1.0, and 2.0 == 2 would pass the points check.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceFormatError, match=match):
            loader(path)

    def test_utilities_round_trip(self, tmp_path):
        u = dl.UtilityProfile(util=np.array([[0.5, 0.5], [1.0, 0.0]]))
        path = tmp_path / "u.json"
        dl.save_utilities(u, path)
        assert np.allclose(dl.load_utilities(path).util, u.util)

    def test_lottery_round_trip(self, tmp_path):
        lot = dl.Lottery(np.array([0.25, 0.75]))
        path = tmp_path / "lot.json"
        dl.save_lottery(lot, path)
        assert np.allclose(dl.load_lottery(path).prob, lot.prob)

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"m": 3,\n  "n": }')
        with pytest.raises(InstanceFormatError, match="line"):
            dl.load_instance(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"m": 3, "rankings": [[0, 1, 2]]}))
        with pytest.raises(InstanceFormatError, match="n"):
            dl.load_instance(path)

    def test_unknown_field(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            json.dumps({"m": 2, "n": 1, "rankings": [[0, 1]], "color": "red"})
        )
        with pytest.raises(InstanceFormatError, match="color"):
            dl.load_instance(path)

    def test_agent_count_mismatch(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"m": 2, "n": 3, "rankings": [[0, 1]]}))
        with pytest.raises(InstanceFormatError):
            dl.load_instance(path)

    @pytest.mark.parametrize(
        "data",
        [
            {"m": 3.7, "n": 1, "rankings": [[0, 1.2, 2]]},
            {"m": True, "n": 1, "rankings": [[0]]},
            {"m": 3, "n": 1, "t": 2.5, "prefixes": [[0, 1]]},
            {"m": 3, "n": 1, "rankings": [[0, 1.0, 2]]},
            {"m": 2, "n": 1, "t": 1, "prefixes": [[False]]},
        ],
        ids=["float-m", "bool-m", "float-t", "float-entry", "bool-entry"],
    )
    def test_non_integer_fields_rejected(self, tmp_path, data):
        # int() would turn each into another instance (m = 3.7 into 3, true into 1).
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InstanceFormatError, match="integer"):
            dl.load_instance(path)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["run", "--rule", "plurality", "--instance", str(path)])
        assert code == 3 and out.getvalue() == ""
        assert err.getvalue().startswith("distortion-lab: ") and err.getvalue().count("\n") == 1

    def test_invalid_rankings_rejected(self, tmp_path):
        path = tmp_path / "dupes.json"
        path.write_text(json.dumps({"m": 2, "n": 1, "rankings": [[0, 0]]}))
        with pytest.raises(InstanceFormatError, match="duplicate"):
            dl.load_instance(path)
