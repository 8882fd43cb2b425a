import argparse
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from rrmatch import matching
from rrmatch.cli import _exact_cap, _spec_from_args, build_parser, main
from rrmatch.core import PointCloud, load_point_cloud, plan_squared_cost, save_point_cloud
from rrmatch.diagnostics import UniformPopulation, convergence_experiment
from rrmatch.generators import GeneratorSpec
from rrmatch.matching import exact_w2, hungarian
from rrmatch.srrm import SrrmConfig, srrm_match


def run(*argv):
    return main([str(a) for a in argv])


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def strip_volatile(record):
    return {k: v for k, v in record.items() if k != "timing"}


@pytest.fixture()
def pair_files(tmp_path):
    rng = np.random.default_rng(0)
    x = tmp_path / "x.pcf"
    y = tmp_path / "y.pcf"
    save_point_cloud(PointCloud(rng.random((48, 2))), x)
    save_point_cloud(PointCloud(rng.random((48, 2))), y)
    return x, y


class TestGen:
    def test_single_cloud(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        assert run("gen", "--family", "uniform-box", "--n", 32, "--d", 3, "--out", out) == 0
        cloud = load_point_cloud(out)
        assert cloud.n == 32 and cloud.d == 3

    def test_pair_family_requires_out2(self, tmp_path, capsys):
        code = run("gen", "--family", "gaussian-pair", "--n", 8, "--out", tmp_path / "a.pcf")
        assert code == 2
        assert "out2" in capsys.readouterr().err

    def test_single_cloud_family_rejects_out2(self, tmp_path, capsys):
        code = run("gen", "--family", "uniform-box", "--n", 8, "--out", tmp_path / "a.pcf",
                   "--out2", tmp_path / "b.pcf")
        assert code == 2
        assert "--out2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_pair_round_trip(self, tmp_path):
        a, b = tmp_path / "a.pcf", tmp_path / "b.pcf"
        assert run("gen", "--family", "perturbed-copy", "--n", 16, "--alpha", 0.0,
                   "--out", a, "--out2", b) == 0
        assert load_point_cloud(a).coords.tobytes() == load_point_cloud(b).coords.tobytes()


class TestDistance:
    def test_same_file_twice_is_zero(self, pair_files, capsys):
        x, _ = pair_files
        for method in ("rrm", "merged", "srrm", "exact"):
            assert run("distance", x, x, "--method", method, "--seed", 4, "--R", 2) == 0
            record = json.loads(capsys.readouterr().out)
            assert record["value"] == 0.0

    def test_method_ordering(self, pair_files, capsys):
        x, y = pair_files
        values = {}
        for method in ("exact", "srrm", "merged", "rrm"):
            assert run("distance", x, y, "--method", method, "--seed", 9, "--K", 8, "--R", 3,
                       "--anchors", 2) == 0
            values[method] = json.loads(capsys.readouterr().out)["value"]
        assert values["exact"] <= values["srrm"] + 1e-9
        assert values["srrm"] <= values["merged"] + 1e-9
        assert values["merged"] <= values["rrm"] + 1e-9

    def test_exact_record_is_exact_w2(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        X = PointCloud(rng.random((40, 2)))
        Y = PointCloud(rng.random((40, 2)) + 250.0)  # far apart: centring changes the matrix
        x, y = tmp_path / "x.pcf", tmp_path / "y.pcf"
        save_point_cloud(X, x)
        save_point_cloud(Y, y)
        assert run("distance", x, y, "--method", "exact", "--normalize", "none") == 0
        assert json.loads(capsys.readouterr().out)["value"] == exact_w2(X, Y)

    def test_overflowing_spread_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        x, y = tmp_path / "x.pcf", tmp_path / "y.pcf"
        save_point_cloud(PointCloud(1e160 * rng.random((16, 2))), x)
        save_point_cloud(PointCloud(1e160 * rng.random((16, 2))), y)
        assert run("distance", x, y, "--method", "exact", "--normalize", "none") == 3
        assert "squared distances between the points overflow float64" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run("distance", tmp_path / "nope.pcf", tmp_path / "nah.pcf")
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_size_mismatch_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a, b = tmp_path / "a.pcf", tmp_path / "b.pcf"
        save_point_cloud(PointCloud(rng.random((5, 2))), a)
        save_point_cloud(PointCloud(rng.random((6, 2))), b)
        assert run("distance", a, b) == 3

    def test_exact_over_cap_exits_4(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        a, b = tmp_path / "a.pcf", tmp_path / "b.pcf"
        save_point_cloud(PointCloud(rng.random((32, 2))), a)
        save_point_cloud(PointCloud(rng.random((32, 2))), b)
        assert run("distance", a, b, "--method", "exact", "--cap", 16) == 4

    def test_srrm_residual_over_cap_exits_4_naming_the_setting(self, pair_files, capsys):
        x, y = pair_files
        assert run("distance", x, y, "--method", "srrm", "--R", 1, "--cap", 2) == 4
        err = capsys.readouterr().err
        assert "float64 buffer" in err and "hungarian_cap (CLI --cap)" in err

    def test_byte_deterministic_modulo_timing(self, pair_files, capsys):
        x, y = pair_files
        records = []
        for _ in range(2):
            assert run("distance", x, y, "--method", "srrm", "--seed", 11, "--R", 2,
                       "--anchors", 1) == 0
            record = json.loads(capsys.readouterr().out)
            assert set(record["timing"]) == {"wall_ms", "timestamp"}
            records.append(strip_volatile(record))
        assert json.dumps(records[0], sort_keys=True) == json.dumps(records[1], sort_keys=True)


@pytest.fixture()
def anisotropic_files(tmp_path):
    """A 64-point pair whose x range is 10 and y range 1, and its two clouds."""
    rng = np.random.default_rng(12)
    X = PointCloud(rng.random((64, 2)) * [10.0, 1.0])
    Y = PointCloud(rng.random((64, 2)) * [10.0, 1.0] + [0.5, 0.0])
    x, y = tmp_path / "ax.pcf", tmp_path / "ay.pcf"
    save_point_cloud(X, x)
    save_point_cloud(Y, y)
    return x, y, X, Y


class TestStoredFrame:
    """Every reported cost is the plan's cost on the stored clouds."""

    @pytest.mark.parametrize("normalize", ["joint", "per-cloud", "none"])
    def test_distance_is_match_rms(self, anisotropic_files, tmp_path, capsys, normalize):
        x, y, _, _ = anisotropic_files
        out = tmp_path / "plan.csv"
        for method in ("rrm", "merged", "srrm", "exact"):
            flags = ("--method", method, "--seed", 3, "--R", 2, "--normalize", normalize)
            assert run("distance", x, y, *flags) == 0
            value = json.loads(capsys.readouterr().out)["value"]
            assert run("match", x, y, *flags, "--out", out) == 0
            sidecar = json.loads((tmp_path / "plan.csv.json").read_text())
            assert value == sidecar["rms"], (method, value, sidecar["rms"])

    def test_joint_exact_is_exact_w2_of_stored_clouds(self, anisotropic_files, capsys):
        x, y, X, Y = anisotropic_files
        assert run("distance", x, y, "--method", "exact") == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(exact_w2(X, Y),
                                                                            rel=1e-12)


class TestUsageErrors:
    @pytest.mark.parametrize("argv, flag", [
        (("plateau", "--family", "line-mixture", "--grid", "a,b"), "--grid"),
        (("distance", "{x}", "{y}", "--method", "merged", "--K", 0), "--K"),
        (("distance", "{x}", "{y}", "--method", "srrm", "--R", -1), "--R"),
        (("distance", "{x}", "{y}", "--anchors", -1), "--anchors"),
        (("flow", "{x}", "{y}", "--step", 0, "--outdir", "o"), "--step"),
        (("flow", "{x}", "{y}", "--snapshot-every", 0, "--outdir", "o"), "--snapshot-every"),
        (("converge", "--n-list", "64,0"), "--n-list"),
        (("plateau", "--family", "line-mixture", "--grid", "0", "--reps", 0), "--reps"),
        (("gen", "--n", 0, "--out", "o.pcf"), "--n"),
        (("plateau", "--family", "line-mixture", "--grid", "0", "--d", 0), "--d"),
        (("distance", "{x}", "{y}", "--method", "exact", "--cap", -1), "--cap"),
        (("plateau", "--family", "line-mixture", "--grid", "0", "--diag-depth", 64), "--diag-depth"),
        (("converge", "--kind", "thresholds", "--H", 0), "--H"),
        (("converge", "--depth", 41), "--depth"),
        (("converge", "--d", 0), "--d"),
        (("gen", "--seed", -1, "--out", "o.pcf"), "--seed"),
        (("converge", "--seed", -2), "--seed"),
        (("distance", "{x}", "{y}", "--seed", -1), "--seed"),
        (("plateau", "--family", "line-mixture", "--grid", "0", "--methods", "rrm,foo"),
         "--methods"),
        (("plateau", "--family", "line-mixture", "--grid", "0", "--methods", "foo"), "--methods"),
        (("distance", "{x}", "{y}", "--method", "srrm", "--R", 0), "--R"),
    ])
    def test_bad_flag_value_exits_2_naming_the_flag(self, pair_files, capsys, argv, flag):
        x, y = pair_files
        with pytest.raises(SystemExit) as exc:
            run(*(str(a).format(x=x, y=y) for a in argv))
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("converge", "--n", 256),
        ("flow", "{x}", "{y}", "--iter", 2, "--outdir", "{o}"),
    ])
    def test_abbreviated_flag_exits_2(self, pair_files, tmp_path, capsys, argv):
        x, y = pair_files
        with pytest.raises(SystemExit) as exc:
            run(*(str(a).format(x=x, y=y, o=tmp_path / "o") for a in argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, field", [
        (("gen", "--family", "gaussian-pair", "--t", 2, "--out", "a.pcf", "--out2", "b.pcf"), "t"),
        (("gen", "--sigma", 0, "--out", "a.pcf"), "sigma"),
        (("gen", "--family", "perturbed-copy", "--alpha", -1, "--out", "a.pcf", "--out2", "b.pcf"),
         "alpha"),
        (("gen", "--family", "line-mixture", "--frac-bads", 1.5, "--out", "a.pcf", "--out2", "b.pcf"),
         "frac_bads"),
        (("plateau", "--family", "line-mixture", "--grid", "0,2"), "frac_bads"),
        (("plateau", "--family", "opening-angle", "--grid", "0.1,-1"), "delta"),
    ])
    def test_bad_generator_parameter_exits_2(self, tmp_path, capsys, argv, field):
        with pytest.raises(SystemExit) as exc:
            run(*(tmp_path / a if str(a).endswith(".pcf") else a for a in argv))
        assert exc.value.code == 2
        assert f"{field} must be" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestMatch:
    def test_identity_instance(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        x = tmp_path / "x.pcf"
        save_point_cloud(PointCloud(rng.random((20, 2))), x)
        out = tmp_path / "plan.csv"
        assert run("match", x, x, "--method", "rrm", "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert all(int(a) == int(b) for a, b in rows)

    def test_sidecar_cost_recomputable(self, pair_files, tmp_path):
        x, y = pair_files
        out = tmp_path / "plan.csv"
        assert run("match", x, y, "--method", "merged", "--seed", 5, "--K", 4, "--out", out) == 0
        sidecar = json.loads((tmp_path / "plan.csv.json").read_text())
        pi = np.array([int(line.split(",")[1]) for line in out.read_text().splitlines()])
        assert np.unique(pi).size == pi.size  # bijection on reload
        recomputed = plan_squared_cost(load_point_cloud(x), load_point_cloud(y), pi)
        assert abs(recomputed - sidecar["squared_cost_sum"]) <= 1e-12 * max(1.0, recomputed)

    def test_ring_instance_matches_exact_assignment(self, tmp_path):
        from test_srrm import straddling_rings

        X, Y = straddling_rings()
        x, y = tmp_path / "x.pcf", tmp_path / "y.pcf"
        save_point_cloud(X, x)
        save_point_cloud(Y, y)
        out = tmp_path / "plan.csv"
        assert run("match", x, y, "--method", "srrm", "--seed", 0, "--K", 10, "--out", out) == 0
        pi = np.array([int(line.split(",")[1]) for line in out.read_text().splitlines()])
        optimal = hungarian(X.coords, Y.coords)
        assert plan_squared_cost(X, Y, pi) == pytest.approx(optimal.squared_cost_sum, abs=1e-12)

    def test_srrm_sidecar_records_screening_and_guard(self, pair_files, tmp_path):
        x, y = pair_files
        out = tmp_path / "plan.csv"
        assert run("match", x, y, "--method", "srrm", "--seed", 3, "--K", 4, "--R", 3,
                   "--anchors", 2, "--normalize", "none", "--out", out) == 0
        sidecar = json.loads((tmp_path / "plan.csv.json").read_text())
        result = srrm_match(load_point_cloud(x), load_point_cloud(y),
                            SrrmConfig(rounds=3, anchors_per_point=2, merge_runs=4, seed=3))
        assert sidecar["params"] == {"K": 4, "R": 3, "anchors": 2, "cap": SrrmConfig.hungarian_cap,
                                     "history": list(result.history),
                                     "guard_applied": result.guard_applied}

    def test_match_requires_out(self, pair_files, capsys):
        x, y = pair_files
        with pytest.raises(SystemExit) as exc:
            run("match", x, y)
        assert exc.value.code == 2


class TestFlow:
    def test_identical_clouds_stay_put(self, tmp_path):
        rng = np.random.default_rng(4)
        x = tmp_path / "x.pcf"
        save_point_cloud(PointCloud(rng.random((24, 2))), x)
        outdir = tmp_path / "flow"
        assert run("flow", x, x, "--method", "rrm", "--iterations", 5, "--snapshot-every", 2,
                   "--outdir", outdir) == 0
        records = read_jsonl(outdir / "metrics.jsonl")
        assert records[0]["value"] == 0.0
        for record in records:  # later iterations only carry convex-step ulp drift
            assert record["value"] <= 1e-12
        final = load_point_cloud(outdir / "final.pcf")
        np.testing.assert_allclose(final.coords, load_point_cloud(x).coords, atol=1e-12)

    def test_full_step_with_exact_matcher_lands_on_permutation(self, tmp_path):
        rng = np.random.default_rng(5)
        x, y = tmp_path / "x.pcf", tmp_path / "y.pcf"
        Y = PointCloud(rng.random((12, 2)))
        save_point_cloud(PointCloud(rng.random((12, 2))), x)
        save_point_cloud(Y, y)
        outdir = tmp_path / "flow"
        assert run("flow", x, y, "--method", "exact", "--step", 1.0, "--iterations", 1,
                   "--outdir", outdir) == 0
        final = load_point_cloud(outdir / "final.pcf")
        assert sorted(map(tuple, final.coords)) == sorted(map(tuple, Y.coords))

    def test_flow_converges(self, tmp_path):
        assert run("gen", "--family", "gaussian-pair", "--n", 128, "--t", 0.0, "--seed", 5,
                   "--out", tmp_path / "fx.pcf", "--out2", tmp_path / "fy.pcf") == 0
        outdir = tmp_path / "flow"
        assert run("flow", tmp_path / "fx.pcf", tmp_path / "fy.pcf", "--method", "srrm",
                   "--R", 3, "--anchors", 2, "--K", 4, "--seed", 2, "--step", 0.15,
                   "--iterations", 120, "--snapshot-every", 50, "--outdir", outdir) == 0
        records = read_jsonl(outdir / "metrics.jsonl")
        assert records[-1]["exact_w2"] < 0.05 * records[0]["exact_w2"]
        assert all(np.isfinite(r["value"]) and r["value"] >= 0 for r in records)

    def test_exact_reference_on_snapshots_and_last(self, pair_files, tmp_path, monkeypatch):
        solves = []

        def counting(cost):
            solves.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(matching, "linear_sum_assignment", counting)
        x, y = pair_files
        outdir = tmp_path / "flow"
        assert run("flow", x, y, "--method", "rrm", "--iterations", 5, "--snapshot-every", 2,
                   "--outdir", outdir) == 0
        assert len(solves) == 3
        records = read_jsonl(outdir / "metrics.jsonl")
        assert [r["iter"] for r in records if "exact_w2" in r] == [0, 2, 4]


class TestPlateauCommand:
    def test_emits_reports_per_grid_point(self, tmp_path):
        out = tmp_path / "plateau.jsonl"
        assert run("plateau", "--family", "line-mixture", "--grid", "0,1", "--n", 256,
                   "--methods", "rrm,srrm", "--reps", 1, "--seed", 3, "--R", 2, "--anchors", 1,
                   "--out", out) == 0
        records = read_jsonl(out)
        assert len(records) == 4  # 2 grid points x 2 methods
        for r in records:
            assert r["rrm_sq"] >= r["lower_bound"] - 1e-12
            assert r["exact_w2"] is not None  # n=256 under the default cap

    def test_exact_solved_once_per_cell(self, tmp_path, monkeypatch):
        solves = []

        def counting(cost):
            solves.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(matching, "linear_sum_assignment", counting)
        out = tmp_path / "plateau.jsonl"
        assert run("plateau", "--family", "line-mixture", "--grid", "0,1", "--n", 64,
                   "--methods", "rrm,exact", "--reps", 1, "--seed", 3, "--out", out) == 0
        assert solves == [(64, 64)] * 2  # one per grid point
        exact = [r for r in read_jsonl(out) if r["method"] == "exact"]
        assert len(exact) == 2
        for r in exact:
            assert r["value"] == r["exact_w2"]
            assert r["params"] == {"cap": 1024}
            assert r["timing"]["wall_ms"] > 0.0

    def test_exact_column_elided_above_cap(self, tmp_path):
        out = tmp_path / "plateau.jsonl"
        assert run("plateau", "--family", "opening-angle", "--grid", "0.01", "--n", 64,
                   "--methods", "rrm", "--cap", 32, "--out", out) == 0
        assert read_jsonl(out)[0]["exact_w2"] is None

    def test_rejects_other_families(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("plateau", "--family", "uniform-box", "--grid", "0", "--n", 16)
        assert exc.value.code == 2
        assert "argument --family" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--method", "exact"), ("--normalize", "none")])
    def test_rejects_flags_it_never_read(self, tmp_path, capsys, flag, value):
        out = tmp_path / "plateau.jsonl"
        with pytest.raises(SystemExit) as exc:
            run("plateau", "--family", "line-mixture", "--grid", "0", "--n", 16, flag, value,
                "--out", out)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()


class TestConvergeCommand:
    def test_anchored_summary(self, tmp_path):
        out = tmp_path / "conv.jsonl"
        assert run("converge", "--kind", "anchored", "--d", 4, "--n-list", "64,128",
                   "--reps", 2, "--seed", 1, "--out", out) == 0
        records = read_jsonl(out)
        assert records[-1]["kind"] == "anchored-summary"
        assert records[-1]["theory_exponent"] == -0.125

    def test_one_size_writes_null_slope(self, capsys):
        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        assert run("converge", "--kind", "anchored", "--n-list", "256", "--reps", 2) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert records[-1]["kind"] == "anchored-summary"
        assert records[-1]["slope"] is None

    def test_repeated_size_writes_null_slope(self, capsys):
        # Two rows at one size: no slope exists, so none is fitted through them.
        assert run("converge", "--kind", "anchored", "--n-list", "256,256", "--reps", 2) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["n"] for r in records[:-1]] == [256, 256]
        assert records[-1]["slope"] is None

    def test_thresholds_deterministic(self, tmp_path, capsys):
        outputs = []
        for _ in range(2):
            assert run("converge", "--kind", "thresholds", "--d", 1, "--H", 1,
                       "--n-list", "101,201", "--reps", 3, "--seed", 2) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_thresholds_at_the_depth_bound(self, capsys):
        # Only the cells the samples split are looked up, never all 2^H.
        assert run("converge", "--kind", "thresholds", "--d", 2, "--H", 40,
                   "--n-list", "256", "--reps", 2) == 0
        [record] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert record["H"] == 40 and 0.0 <= record["median_max_dev"] < 0.5


class TestCsvTables:
    def test_converge_csv(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert run("converge", "--kind", "thresholds", "--d", 1, "--H", 1,
                   "--n-list", "64,128", "--reps", 2, "--seed", 2, "--format", "csv",
                   "--out", out) == 0
        import csv

        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {"n", "median_max_dev"} <= set(rows[0])

    def test_plateau_csv(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run("plateau", "--family", "opening-angle", "--grid", "0", "--n", 32,
                   "--methods", "rrm", "--format", "csv", "--out", out) == 0
        header = out.read_text().splitlines()[0]
        assert "rrm_sq" in header and "alpha_H" in header


def test_parsed_defaults_are_the_library_defaults():
    parser = build_parser()
    cfg = SrrmConfig()
    for argv in (["distance", "x", "y"], ["match", "x", "y", "--out", "p"],
                 ["flow", "x", "y", "--outdir", "o"],
                 ["plateau", "--family", "line-mixture", "--grid", "0"]):
        args = parser.parse_args(argv)
        assert (args.K, args.R, args.anchors, args.seed) == (
            cfg.merge_runs, cfg.rounds, cfg.anchors_per_point, cfg.seed)
        assert args.cap is None
        assert _exact_cap(args) == inspect.signature(exact_w2).parameters["cap"].default
    for argv in (["gen", "--out", "o"], ["plateau", "--family", "opening-angle", "--grid", "0"]):
        args = parser.parse_args(argv)
        assert _spec_from_args(args) == GeneratorSpec(args.family)
    args = parser.parse_args(["converge"])
    assert args.depth == UniformPopulation(d=args.d).depth
    assert args.depth == inspect.signature(convergence_experiment).parameters["depth"].default
    with pytest.raises(SystemExit):
        parser.parse_args(["converge", "--H", str(args.depth + 1)])


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.findall(r"^\| `([a-z]+)` +\|", readme, flags=re.MULTILINE)
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(sub.choices)


def test_console_entry_point(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "u.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "rrmatch.cli", "gen", "--family", "uniform-box", "--n", "8",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
