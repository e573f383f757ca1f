"""End-to-end checks of the config-driven experiment runner."""

import copy
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import entroproj
from entroproj import __version__, tritree
from entroproj.cli import main, run, validate_config
from entroproj.iproj import (
    Box,
    MomentProblem,
    ScheduleParams,
    schedule_from_solution,
    solve_dual,
)
from entroproj.gibbs import conditional_tv_curve
from entroproj.measures import FiniteMeasure, MetricSpacePoints

# multiplier log(7/3) and value log(5/3) of the two-point tilt hitting
# mean 0.7 from the fair reference
LAMBDA_BERN = 0.8472978603872036
LOG_Z_BERN = math.log(5.0 / 3.0)
KL_07_05 = 0.08228287850505185


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_table(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def field_map(rows):
    return {row[0]: float(row[1]) for row in rows}


def iproj_config(out="solution.csv", **extra):
    doc = {
        "experiment": "iproj",
        "seed": 7,
        "params": {
            "alpha_weights": [0.5, 0.5],
            "F": [[0.0], [1.0]],
            "target": {"kind": "point", "x0": [0.7]},
        },
        "output": {"path": out},
    }
    doc.update(extra)
    return doc


def gibbs_config(mode="exact", **params):
    base = {
        "alpha_weights": [0.5, 0.5],
        "F": [[0.0], [1.0]],
        "x0": [0.7],
        "n_list": [4, 8],
        "k": 1,
        "mode": mode,
        "schedule": {"kind": "sqrt_n", "c": 0.5},
    }
    base.update(params)
    return {
        "experiment": "gibbs",
        "seed": 11,
        "params": base,
        "output": {"path": "curve.csv"},
    }


class TestValidate:
    def test_clean_config_passes(self, runner, tmp_path):
        cfg = write_config(tmp_path, iproj_config())
        result = runner.invoke(main, ["validate", "--config", cfg])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"diagnostics": []}

    def test_string_seed_parses(self, runner, tmp_path):
        cfg = write_config(tmp_path, iproj_config(seed="17"))
        result = runner.invoke(main, ["validate", "--config", cfg])
        assert result.exit_code == 0

    @pytest.mark.parametrize("mutate, needle", [
        ({"experiment": "frobnicate"}, "unknown experiment"),
        ({"seed": None}, "does not parse"),
        ({"seed": -1}, "unsigned 64-bit"),
        ({"seed": True}, "unsigned 64-bit"),
        ({"output": {"path": "x.csv", "format": "xml"}}, "not csv or json"),
        ({"output": {}}, "output.path is required"),
        ({"params": None}, "params must be an object"),
    ])
    def test_envelope_diagnostics(self, runner, tmp_path, mutate, needle):
        doc = iproj_config()
        doc.update(mutate)
        if mutate == {"seed": None}:
            del doc["seed"]
            needle = "seed is required"
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(main, ["validate", "--config", cfg])
        assert result.exit_code == 2
        diags = json.loads(result.output)["diagnostics"]
        assert any(needle in d for d in diags)

    def test_lattice_level_diagnostic_names_the_minimum(self):
        doc = {
            "experiment": "calibrate",
            "seed": 1,
            "params": {
                "n": 36, "alpha_tick": 2.0, "sigma_min": 0.5, "sigma_max": 1.5,
                "b0": 0.5, "s": 0.25, "sigma0": 1.0, "epsilon": 0.01,
            },
            "output": {"path": "report.csv"},
        }
        diags = validate_config(doc)
        assert any("below the minimal level 37" in d for d in diags)

    def test_band_wider_than_the_drift_halfwidth(self):
        doc = {
            "experiment": "calibrate",
            "seed": 1,
            "params": {
                "n": 100, "alpha_tick": 2.0, "sigma_min": 0.5, "sigma_max": 1.5,
                "b0": 0.5, "s": 0.25, "sigma0": 1.0, "epsilon": 0.3,
            },
            "output": {"path": "report.csv"},
        }
        diags = validate_config(doc)
        assert any("exceeds the drift band half-width" in d for d in diags)

    def test_experiment_specific_diagnostics(self):
        gibbs_bad = gibbs_config(mode="antithetic")
        assert any("not exact or mc" in d for d in validate_config(gibbs_bad))
        bridge_bad = {
            "experiment": "bridge", "seed": 1,
            "params": {"grid": {"start": -1, "stop": 1, "num": 5}, "t": 0.0},
            "output": {"path": "b.csv"},
        }
        assert any("must be positive" in d for d in validate_config(bridge_bad))
        covering_bad = {
            "experiment": "covering", "seed": 1,
            "params": {"points": [0.0, 1.0], "epsilon_list": [0.5, -0.1]},
            "output": {"path": "c.csv"},
        }
        assert any("positive" in d for d in validate_config(covering_bad))

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("doc", [
        {"experiment": "bridge",
         "params": {"grid": {"start": -1, "stop": 1, "num": 5}, "t": "abc"}},
        {"experiment": "covering",
         "params": {"points": [0.0, 1.0], "epsilon_list": ["x"]}},
        {"experiment": "calibrate",
         "params": {"n": 100, "alpha_tick": 2.0, "sigma_min": 0.5, "sigma_max": 1.5,
                    "b0": 0.5, "s": 0.25, "sigma0": 1.0, "epsilon": "0.1"}},
        {"experiment": "gibbs",
         "params": {**gibbs_config()["params"], "n_list": "abc"}},
    ], ids=["bridge_t", "covering_epsilon", "calibrate_epsilon", "gibbs_n_list"])
    def test_mistyped_values_exit_config(self, runner, tmp_path, command, doc):
        cfg = write_config(tmp_path, {**doc, "seed": 1, "output": {"path": "x.csv"}})
        out = ["--out", str(tmp_path)] if command == "run" else []
        result = runner.invoke(main, [command, "--config", cfg, *out])
        assert result.exit_code == 2, result.output
        assert json.loads(result.output)["diagnostics"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("doc, key", [
        (gibbs_config(mode="mc", trials=0), "params.trials"),
        (iproj_config(params={**iproj_config()["params"], "alpha_weights": [0.6, 0.5]}),
         "params.alpha_weights"),
        (iproj_config(params={**iproj_config()["params"], "F": 0.7}), "params.F"),
        (gibbs_config(k="x"), "params.k"),
        (iproj_config(params={**iproj_config()["params"],
                              "target": {"kind": "ball", "x0": [0.7]}}), "params.target.kind"),
        ({"experiment": "bridge", "params": {"grid": {"start": -1, "stop": 1}, "t": 0.5}},
         "params.grid.num"),
        ({"experiment": "covering",
          "params": {"grid": {"start": 0, "stop": 1}, "epsilon_list": [0.5]}}, "params.grid.num"),
        ({"experiment": "schedules",
          "params": {**gibbs_config()["params"], "kinds": ["cubic"]}}, "params.kinds"),
    ], ids=["mc_trials", "weights_sum", "scalar_F", "k_string", "target_kind",
            "bridge_grid_num", "covering_grid_num", "schedule_kind"])
    def test_configs_that_used_to_fail_in_run_exit_config(self, runner, tmp_path, command,
                                                          doc, key):
        cfg = write_config(tmp_path, {"seed": 1, "output": {"path": "x.csv"}, **doc})
        out = ["--out", str(tmp_path)] if command == "run" else []
        result = runner.invoke(main, [command, "--config", cfg, *out])
        assert result.exit_code == 2, result.output
        assert any(key in d for d in json.loads(result.output)["diagnostics"])

    def test_bridge_grid_builds_no_distance_table(self):
        # a 3000 x 3000 Euclidean table and its temporaries would take about 360 MB
        doc = {
            "experiment": "bridge",
            "seed": 1,
            "params": {"grid": {"start": -2.0, "stop": 2.0, "num": 3000}, "t": 0.05,
                       "mu0": {"kind": "gaussian", "mean": 0.0, "std": 1.0}},
            "output": {"path": "bridge"},
        }
        tracemalloc.start()
        try:
            assert validate_config(doc) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("grid", [
        {"start": 2.5, "stop": 1.0, "num": 5},
        {"start": -1.0, "stop": 1.0, "num": 1},
        [0.0, 0.5, 0.5, 1.0],
        [[0.0], [1.0]],
    ], ids=["decreasing", "one_point", "repeated", "two_dimensional"])
    def test_bridge_grid_must_increase(self, runner, tmp_path, command, grid):
        doc = {"experiment": "bridge", "seed": 1, "params": {"grid": grid, "t": 0.5},
               "output": {"path": "x.csv"}}
        cfg = write_config(tmp_path, doc)
        out = ["--out", str(tmp_path)] if command == "run" else []
        result = runner.invoke(main, [command, "--config", cfg, *out])
        assert result.exit_code == 2, result.output
        assert any(d.startswith("params.grid") and "strictly increasing" in d
                   for d in json.loads(result.output)["diagnostics"])

    def test_malformed_json_reported(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["validate", "--config", str(path)])
        assert result.exit_code == 2
        diags = json.loads(result.output)["diagnostics"]
        assert any("not valid JSON" in d for d in diags)


class TestRunIproj:
    def test_solution_table_and_manifest(self, runner, tmp_path):
        cfg = write_config(tmp_path, iproj_config())
        result = runner.invoke(
            main, ["run", "--config", cfg, "--workers", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        header, rows = read_table(tmp_path / "solution.csv")
        assert header == ["field", "value"]
        values = field_map(rows)
        assert values["lambda_0"] == pytest.approx(LAMBDA_BERN, abs=1e-8)
        assert values["entropy"] == pytest.approx(KL_07_05, abs=1e-9)
        assert values["log_Z"] == pytest.approx(LOG_Z_BERN, abs=1e-9)
        assert values["moment_0"] == pytest.approx(0.7, abs=1e-9)
        assert values["alpha_star_0"] == pytest.approx(0.3, abs=1e-8)
        assert values["alpha_star_1"] == pytest.approx(0.7, abs=1e-8)

        manifest = json.loads(result.output)
        assert manifest["artifact_version"] == __version__
        assert manifest["config"]["experiment"] == "iproj"
        assert manifest["row_counts"] == {"solution": len(rows)}
        assert manifest["worker_count"] == 1
        on_disk = json.loads((tmp_path / "solution.manifest.json").read_text())
        assert on_disk["outputs"]["solution"].endswith("solution.csv")

    def test_infeasible_target_exits_numeric(self, runner, tmp_path):
        doc = iproj_config()
        doc["params"]["target"]["x0"] = [2.0]
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(
            main, ["run", "--config", cfg, "--workers", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 3
        payload = json.loads(result.output)
        assert payload["error"] == "numeric"
        assert "InfeasibleTargetError" in payload["message"]

    def test_zero_width_box_solves_as_its_point(self, runner, tmp_path):
        doc = iproj_config()
        doc["params"]["target"] = {"kind": "box", "lo": [0.3], "hi": [0.3]}
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(
            main, ["run", "--config", cfg, "--workers", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        values = field_map(read_table(tmp_path / "solution.csv")[1])
        assert values["lambda_0"] == pytest.approx(-LAMBDA_BERN, abs=1e-8)
        assert values["entropy"] == pytest.approx(KL_07_05, abs=1e-9)
        assert values["moment_0"] == pytest.approx(0.3, abs=1e-9)

    def test_unreadable_config_exits_config(self, runner, tmp_path):
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "nope.json")])
        assert result.exit_code == 2
        assert json.loads(result.output)["error"] == "config"

    def test_invalid_config_exits_config(self, runner, tmp_path):
        cfg = write_config(tmp_path, iproj_config(experiment="frobnicate"))
        result = runner.invoke(main, ["run", "--config", cfg])
        assert result.exit_code == 2
        payload = json.loads(result.output)
        assert payload["error"] == "config"
        assert payload["diagnostics"]


class TestRunGibbs:
    def test_exact_curve_matches_the_library(self, runner, tmp_path):
        cfg = write_config(tmp_path, gibbs_config())
        result = runner.invoke(
            main, ["run", "--config", cfg, "--workers", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        header, rows = read_table(tmp_path / "curve.csv")
        assert header == ["n", "epsilon", "p_event", "log_p_over_n", "tv_k",
                          "acceptance_rate"]

        space = MetricSpacePoints.from_coordinates(np.arange(2, dtype=float))
        measure = FiniteMeasure(space, np.array([0.5, 0.5]))
        sol = solve_dual(MomentProblem(measure, np.array([[0.0], [1.0]]),
                                       Box.point(np.array([0.7]))))
        schedule = ScheduleParams(kind="sqrt_n", c=0.5)
        want = conditional_tv_curve(measure, sol, schedule, [4, 8], 1)
        assert len(rows) == len(want)
        for row, ref in zip(rows, want):
            assert int(row[0]) == ref["n"]
            # repr round trip makes the written floats bit-exact
            assert float(row[1]) == ref["epsilon"]
            assert float(row[2]) == ref["p_event"]
            assert float(row[3]) == ref["log_p_over_n"]
            assert float(row[4]) == ref["tv_k"]
            assert float(row[5]) == ref["p_event"]

    def test_mc_runs_are_byte_identical(self, runner, tmp_path):
        doc = gibbs_config(mode="mc", trials=3000, n_list=[4, 6],
                           schedule={"kind": "sqrt_n", "c": 1.0})
        outputs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            out_dir.mkdir()
            cfg = write_config(tmp_path, doc, name=f"cfg_{sub}.json")
            result = runner.invoke(
                main,
                ["run", "--config", cfg, "--workers", "2", "--out", str(out_dir)],
            )
            assert result.exit_code == 0, result.output
            outputs.append((out_dir / "curve.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_mc_tables_do_not_depend_on_the_worker_flag(self, runner, tmp_path):
        doc = gibbs_config(mode="mc", trials=3000, n_list=[4, 6],
                           schedule={"kind": "sqrt_n", "c": 1.0})
        cfg = write_config(tmp_path, doc)
        outputs = []
        for name, flag in (("one", ["--workers", "1"]), ("three", ["--workers", "3"]),
                           ("default", [])):
            out_dir = tmp_path / name
            out_dir.mkdir()
            result = runner.invoke(main, ["run", "--config", cfg, *flag, "--out", str(out_dir)])
            assert result.exit_code == 0, result.output
            outputs.append((out_dir / "curve.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_zero_acceptance_exits_with_the_bound(self, runner, tmp_path):
        doc = gibbs_config(mode="mc", trials=300, n_list=[7],
                           schedule={"kind": "sqrt_n", "c": 1e-9})
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(
            main, ["run", "--config", cfg, "--workers", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 4
        payload = json.loads(result.output)
        assert payload["error"] == "zero_acceptance"
        assert payload["upper_bound"] == pytest.approx(3.0 / 300)


class TestRunBridge:
    def test_tables_summary_and_consistency(self, runner, tmp_path):
        doc = {
            "experiment": "bridge",
            "seed": 3,
            "params": {
                "grid": {"start": -2.0, "stop": 2.0, "num": 25},
                "t": 0.5,
                "mu0": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
                "nu0": {"kind": "gaussian", "mean": 0.3, "std": 0.6},
                "nu1": {"kind": "gaussian", "mean": -0.2, "std": 0.7},
                "tol": 1e-12,
                "max_iter": 500,
            },
            "output": {"path": "bridge.csv"},
        }
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(
            main, ["run", "--config", cfg, "--workers", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        for name in ("history", "potentials", "summary"):
            assert (tmp_path / f"bridge.{name}.csv").exists()
        _, pot_rows = read_table(tmp_path / "bridge.potentials.csv")
        assert len(pot_rows) == 50
        _, summary_rows = read_table(tmp_path / "bridge.summary.csv")
        summary = field_map(summary_rows)
        assert summary["residual"] < 1e-12
        assert abs(summary["H_direct"] - summary["H_potentials"]) <= (
            10.0 * summary["residual"] + 1e-15
        )
        manifest = json.loads(result.output)
        assert manifest["row_counts"]["potentials"] == 50
        assert manifest["row_counts"]["history"] == summary["iterations"]


class TestRunCovering:
    def test_json_counts_on_the_unit_grid(self, runner, tmp_path):
        doc = {
            "experiment": "covering",
            "seed": 5,
            "params": {
                "points": [float(v) for v in np.linspace(0.0, 1.0, 11)],
                "epsilon_list": [0.3, 0.15, 0.05],
            },
            "output": {"path": "covering", "format": "json"},
        }
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(
            main, ["run", "--config", cfg, "--workers", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        table = json.loads((tmp_path / "covering.json").read_text())
        assert table["columns"] == ["epsilon", "count", "method"]
        by_eps = {row[0]: row for row in table["rows"]}
        # balls of radius 0.3 around 0.3 and 0.8 cover the grid, radius
        # 0.15 needs four centers, radius 0.05 isolates every point
        assert by_eps[0.3][1] == 2
        assert by_eps[0.15][1] == 4
        assert by_eps[0.05][1] == 11
        assert all(row[2] == "exact" for row in table["rows"])


class TestRunCalibrate:
    def test_report_fields(self, runner, tmp_path):
        doc = {
            "experiment": "calibrate",
            "seed": 9,
            "params": {
                "n": 16, "alpha_tick": 2.0, "sigma_min": 0.6, "sigma_max": 1.4,
                "b0": 0.15, "s": 0.03,
                "sigma0": 1.2,
                "payoff": {"kind": "square", "sigma_target": 1.1},
                "epsilon": 0.01,
            },
            "output": {"path": "report.csv"},
        }
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(
            main, ["run", "--config", cfg, "--workers", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        _, rows = read_table(tmp_path / "report.csv")
        report = field_map(rows)
        assert 1.09 < report["theta_0"] < 1.13
        assert report["slack"] <= 0.01 + 1e-9
        assert report["entropy"] > 0
        assert report["target_value"] > 1.0
        assert report["epsilon0"] == pytest.approx(
            min(report["slack"] + 1.0 / 16.0, 0.03), abs=1e-12
        )


    # the calibrate reports of the benchmark's lattice configs, pinned far
    # tighter than the benchmark's own 1e-5 output check
    @pytest.mark.parametrize("pieces, expected", [
        (1, {"theta_0": 1.1055855349089916, "entropy": 0.2637532619604322,
             "moment": 1.009999999999999, "slack": 0.009999999999998899}),
        (2, {"theta_0": 1.1055855349089925, "theta_1": 1.1055855349089945,
             "entropy": 0.2637532619604239, "moment": 1.0099999999999998,
             "slack": 0.009999999999999787}),
    ])
    def test_benchmark_reports_are_pinned(self, tmp_path, pieces, expected):
        run({"experiment": "calibrate", "seed": 31, "output": {"path": "report.csv"},
             "params": {"alpha_tick": 2.0, "sigma_min": 0.6, "sigma_max": 1.4, "b0": 0.15,
                        "s": 0.03, "n": 40, "sigma0": 1.2, "epsilon": 0.01, "n_pieces": pieces,
                        "payoff": {"kind": "square", "sigma_target": 1.1}}},
            out_dir=str(tmp_path))
        _, rows = read_table(tmp_path / "report.csv")
        expected.update(target_value=1.2319375000000026, epsilon0=0.03)
        assert field_map(rows) == pytest.approx(expected, rel=1e-12)

    def test_builds_no_tree_and_only_the_result_surface(self, monkeypatch, tmp_path):
        # the sigma_target normalisation walks the constant chain as scalars,
        # and epsilon0 reads the slack calibrate returns
        built = []
        monkeypatch.setattr(tritree, "build_tree", lambda *args: built.append(args))
        for cls in (tritree.TrinomialTree, tritree.VolSurface):
            real = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, real=real: built.append(type(self)) or real(self))
        run({"experiment": "calibrate", "seed": 31, "output": {"path": "report.csv"},
             "params": {"alpha_tick": 2.0, "sigma_min": 0.6, "sigma_max": 1.4, "b0": 0.15,
                        "s": 0.03, "n": 16, "sigma0": 1.2, "epsilon": 0.01,
                        "payoff": {"kind": "square", "sigma_target": 1.1}}},
            out_dir=str(tmp_path))
        assert built == [tritree.VolSurface]


class TestRunGamma:
    def test_sweep_internal_consistency(self, runner, tmp_path):
        doc = {
            "experiment": "gamma",
            "seed": 2,
            "params": {
                "alpha_tick": 2.0, "sigma_min": 0.6, "sigma_max": 1.4,
                "b0": 0.15, "s": 0.03,
                "sigma": 1.1, "sigma0": 1.3,
                "n_list": [8, 16],
            },
            "output": {"path": "sweep.csv"},
        }
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(
            main, ["run", "--config", cfg, "--workers", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        header, rows = read_table(tmp_path / "sweep.csv")
        assert header == ["n", "H_over_n", "I_rate", "gap", "n_times_gap"]
        for row in rows:
            n, h_over_n, rate, gap, n_gap = (float(v) for v in row)
            # the mean nodewise gap cannot exceed the worst nodewise gap
            assert abs(h_over_n - rate) <= gap + 1e-15
            assert n_gap == pytest.approx(n * gap, rel=1e-12)

    def test_walks_once_per_n_and_builds_no_tree(self, monkeypatch, tmp_path):
        sizes, built, real_walk = [], [], tritree._chain_walk
        monkeypatch.setattr(tritree, "_chain_walk",
                            lambda *args: sizes.append(args[-1].n) or real_walk(*args))
        monkeypatch.setattr(tritree, "build_tree", lambda *args: built.append(args))
        for cls in (tritree.TrinomialTree, tritree.VolSurface):
            monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
        lattice = {"alpha_tick": 2.0, "sigma_min": 0.6, "sigma_max": 1.4, "b0": 0.15, "s": 0.03}
        run({"experiment": "gamma", "seed": 2, "output": {"path": "sweep.csv"},
             "params": {**lattice, "sigma": 1.1, "sigma0": 1.3, "n_list": [8, 16]}},
            out_dir=str(tmp_path))
        assert sizes == [8, 16]
        assert built == []


class TestRunSchedules:
    def test_values_match_the_solution_derived_schedules(self, runner, tmp_path):
        doc = {
            "experiment": "schedules",
            "seed": 4,
            "params": {
                "alpha_weights": [0.5, 0.5],
                "F": [[0.0], [1.0]],
                "x0": [0.7],
                "n_list": [4, 16, 64],
                "kinds": ["sqrt_n", "inv_n"],
            },
            "output": {"path": "schedules.csv"},
        }
        cfg = write_config(tmp_path, doc)
        result = runner.invoke(
            main, ["run", "--config", cfg, "--workers", "1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        _, rows = read_table(tmp_path / "schedules.csv")

        space = MetricSpacePoints.from_coordinates(np.arange(2, dtype=float))
        measure = FiniteMeasure(space, np.array([0.5, 0.5]))
        sol = solve_dual(MomentProblem(measure, np.array([[0.0], [1.0]]),
                                       Box.point(np.array([0.7]))))
        schedules = {
            kind: schedule_from_solution(sol, kind, a=1.0, margin=1.1)
            for kind in ("sqrt_n", "inv_n")
        }
        assert len(rows) == 6
        for kind, n_str, eps_str in rows:
            assert float(eps_str) == schedules[kind].epsilon(int(n_str))


def test_json_path_without_format_writes_json(runner, tmp_path):
    doc = {
        "experiment": "schedules",
        "seed": 4,
        "params": {"alpha_weights": [0.5, 0.5], "F": [[0.0], [1.0]], "x0": [0.7],
                   "n_list": [4, 16]},
        "output": {"path": "sched.json"},
    }
    result = runner.invoke(main, ["run", "--config", write_config(tmp_path, doc),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    table = json.loads((tmp_path / "sched.json").read_text())
    assert table["columns"] == ["kind", "n", "epsilon"]
    assert [row[:2] for row in table["rows"]] == [["sqrt_n", 4], ["sqrt_n", 16]]


_LATTICE = {"alpha_tick": 2.0, "sigma_min": 0.6, "sigma_max": 1.4, "b0": 0.15, "s": 0.03}

# one small valid params object per experiment; each runs in milliseconds
SMALL_PARAMS = {
    "iproj": {"alpha_weights": [0.5, 0.5], "F": [[0.0], [1.0]],
              "target": {"kind": "point", "x0": [0.7]}},
    "gibbs": {"alpha_weights": [0.5, 0.5], "F": [[0.0], [1.0]], "x0": [0.7], "n_list": [4],
              "k": 1, "mode": "exact", "trials": 50, "schedule": {"kind": "sqrt_n", "c": 0.5}},
    "bridge": {"grid": {"start": -1.0, "stop": 1.0, "num": 5}, "t": 0.5,
               "mu0": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
               "nu1": {"kind": "explicit", "weights": [1, 2, 3, 2, 1]},
               "tol": 1e-10, "max_iter": 50},
    "calibrate": {"n": 4, **_LATTICE, "sigma0": 1.2, "n_pieces": 1, "epsilon": 0.01,
                  "payoff": {"kind": "square", "sigma_target": 1.1}},
    "gamma": {**_LATTICE, "sigma": 1.1, "sigma0": 1.3, "n_list": [2, 4]},
    "covering": {"grid": {"start": 0.0, "stop": 1.0, "num": 5}, "epsilon_list": [0.3, 0.1]},
    "schedules": {"alpha_weights": [0.5, 0.5], "F": [[0.0], [1.0]], "x0": [0.7],
                  "n_list": [4, 16], "kinds": ["sqrt_n", "inv_n"], "a": 1.0, "margin": 1.1},
}
REPLACEMENTS = [None, True, "x", -1, 0, 2.5, [], {}]


def _nodes(obj, path=()):
    """(path, parent is an object) of every key and list entry below obj."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), isinstance(obj, dict)
        yield from _nodes(value, path + (key,))


MUTATIONS = [
    (experiment, path, action)
    for experiment, params in SMALL_PARAMS.items()
    for path, in_object in _nodes(params)
    for action in (["delete"] if in_object else []) + [("set", v) for v in REPLACEMENTS]
]


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.sampled_from(MUTATIONS))
def test_every_mutated_config_runs_or_fails_typed(tmp_path_factory, mutation):
    experiment, path, action = mutation
    params = copy.deepcopy(SMALL_PARAMS[experiment])
    parent = params
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = action[1]
    doc = {"experiment": experiment, "seed": 3, "params": params, "output": {"path": "t.csv"}}
    diags = validate_config(doc)
    assert isinstance(diags, list)
    out = tmp_path_factory.mktemp("mutated")
    cfg = write_config(out, doc)
    runner = CliRunner()
    validated = runner.invoke(main, ["validate", "--config", cfg])
    assert validated.exit_code in (0, 2)
    assert (validated.exit_code == 2) == bool(diags)
    ran = runner.invoke(main, ["run", "--config", cfg, "--out", str(out)])
    if validated.exit_code == 2:
        assert ran.exit_code == 2, ran.output
    else:
        assert ran.exit_code in (0, 3, 4), (ran.output, ran.exception)
    if ran.exit_code == 3:
        error = json.loads(ran.output)["message"].split(":")[0]
        assert error not in ("TypeError", "KeyError", "IndexError", "AttributeError")



# validates and runs each config in this fresh interpreter, printing after
# each whether any scipy module is loaded; then conditions on a
# Fortet-Mourier ball and prints whether scipy.optimize is loaded
_SCIPY_PROBE = """
import sys
import entroproj as ep
from entroproj.cli import main
def loaded(name):
    return any(m == name or m.startswith(name + ".") for m in sys.modules)
for cfg in sys.argv[2:]:
    main(["validate", "--config", cfg], standalone_mode=False)
    main(["run", "--config", cfg, "--out", sys.argv[1]], standalone_mode=False)
    print("scipy", loaded("scipy"))
alpha = ep.FiniteMeasure.uniform(ep.MetricSpacePoints.from_coordinates([0.0, 1.0]))
ep.exact_conditional(alpha, 4, ep.metric_ball(alpha, "fm", 0.5), 1)
print("scipy.optimize", loaded("scipy.optimize"))
"""


def test_experiment_runs_load_no_scipy(tmp_path):
    box = {**SMALL_PARAMS["iproj"], "target": {"kind": "box", "lo": [0.6], "hi": [0.8]}}
    mc = {**SMALL_PARAMS["gibbs"], "mode": "mc"}
    runs = [(name, SMALL_PARAMS[name]) for name in ["calibrate", "gamma", "bridge", "covering",
                                                    "iproj", "schedules", "gibbs"]]
    runs += [("iproj", box), ("gibbs", mc)]
    cfgs = [write_config(tmp_path, {"experiment": name, "seed": 3, "params": params,
                                    "output": {"path": f"{name}{i}.csv"}}, name=f"{name}{i}.json")
            for i, (name, params) in enumerate(runs)]
    src = os.path.dirname(os.path.dirname(entroproj.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), *cfgs],
                           env=env, capture_output=True, text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert all(any(tmp_path.glob(f"{name}{i}*.csv")) for i, (name, _) in enumerate(runs))
    # no run loads any scipy module; the Fortet-Mourier LP of a metric-ball
    # event, run last, does load scipy.optimize, so the probe sees imports
    loaded = [line for line in probe.stdout.splitlines() if line.endswith(("True", "False"))]
    assert loaded == ["scipy False"] * len(runs) + ["scipy.optimize True"]


def test_benchmark_trace_names_resolve():
    # the benchmark's layer trace wraps these names; a rename that misses
    # its table would silently break `perfbench/run.py --trace 1`
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for layer, module_name, attr, _ in layertrace.LAYERS:
        target = getattr(entroproj, module_name)
        for name in attr.split("."):
            assert hasattr(target, name), layer
            target = getattr(target, name)
        assert callable(target), layer
