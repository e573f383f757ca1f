"""End-to-end checks of the config-driven experiment runner."""

import copy
import csv
import importlib.util
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import entroproj
from entroproj import __version__, cli, tritree
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

from conftest import fresh_python

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
        for seed, value in [("17", 17), ("007", 7), ("18446744073709551615", 2 ** 64 - 1),
                            ("0" * 30 + "5", 5)]:
            cfg = write_config(tmp_path, iproj_config(seed=seed))
            result = runner.invoke(main, ["validate", "--config", cfg])
            assert result.exit_code == 0
            assert cli._seed({"seed": seed}) == value

    @pytest.mark.parametrize("mutate, needle", [
        ({"experiment": "frobnicate"}, "unknown experiment"),
        ({"seed": None}, "does not parse"),
        ({"seed": -1}, "unsigned 64-bit"),
        ({"seed": True}, "unsigned 64-bit"),
        ({"output": {"path": "x.csv", "format": "xml"}}, "not csv or json"),
        ({"output": {}}, "output.path is required"),
        ({"params": None}, "params must be an object"),
        # int() would read these four as 10, 7, 7 and 7
        ({"seed": "1_0"}, "unsigned 64-bit"),
        ({"seed": " 7 "}, "unsigned 64-bit"),
        ({"seed": "+7"}, "unsigned 64-bit"),
        ({"seed": "\u0667"}, "unsigned 64-bit"),
        ({"seed": "18446744073709551616"}, "unsigned 64-bit"),
        ({"seed": "9" * 5000}, "unsigned 64-bit"),
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

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_lattice_out_of_range_names_its_values(self, runner, tmp_path, command):
        # the minimal level's square overflows a float
        doc = {
            "experiment": "calibrate",
            "seed": 1,
            "params": {
                "n": 40, "alpha_tick": 1e300, "sigma_min": 0.6, "sigma_max": 1.4,
                "b0": 0.15, "s": 0.03, "sigma0": 1.2, "epsilon": 0.01,
            },
            "output": {"path": "report.csv"},
        }
        cfg = write_config(tmp_path, doc)
        out = ["--out", str(tmp_path)] if command == "run" else []
        result = runner.invoke(main, [command, "--config", cfg, *out])
        assert result.exit_code == 2, result.output
        assert json.loads(result.output)["diagnostics"] == [
            "params: the minimal level (alpha_tick (b0 + s) / sigma_min^2)^2 is out of range "
            "for alpha_tick=1e+300, sigma_min=0.6, sigma_max=1.4, b0=0.15, s=0.03"]

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
        # a piece beyond the n levels would own none and report the scan's end
        ({"experiment": "calibrate",
          "params": {"n": 16, "alpha_tick": 2.0, "sigma_min": 0.6, "sigma_max": 1.4, "b0": 0.15,
                     "s": 0.03, "sigma0": 1.2, "epsilon": 0.01, "n_pieces": 20}},
         "params.n_pieces 20 exceeds params.n=16"),
    ], ids=["mc_trials", "weights_sum", "scalar_F", "k_string", "target_kind",
            "bridge_grid_num", "covering_grid_num", "schedule_kind", "calibrate_n_pieces"])
    def test_configs_that_used_to_fail_in_run_exit_config(self, runner, tmp_path, command,
                                                          doc, key):
        cfg = write_config(tmp_path, {"seed": 1, "output": {"path": "x.csv"}, **doc})
        out = ["--out", str(tmp_path)] if command == "run" else []
        result = runner.invoke(main, [command, "--config", cfg, *out])
        assert result.exit_code == 2, result.output
        assert any(key in d for d in json.loads(result.output)["diagnostics"])

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("value", [0, -1.2])
    @pytest.mark.parametrize("experiment, path", [
        ("calibrate", ("sigma0",)),
        ("calibrate", ("payoff", "sigma_target")),
        ("gamma", ("sigma",)),
        ("gamma", ("sigma0",)),
    ], ids=["calibrate_sigma0", "calibrate_sigma_target", "gamma_sigma", "gamma_sigma0"])
    def test_volatilities_must_be_positive(self, runner, tmp_path, command, experiment, path,
                                           value):
        # the walk squares a volatility, so a negative one would run as its
        # absolute value and exit 0
        params = copy.deepcopy(SMALL_PARAMS[experiment])
        parent = params
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        doc = {"experiment": experiment, "seed": 1, "params": params,
               "output": {"path": "x.csv"}}
        out = ["--out", str(tmp_path)] if command == "run" else []
        result = runner.invoke(main, [command, "--config", write_config(tmp_path, doc), *out])
        assert result.exit_code == 2, result.output
        key = "params." + ".".join(path)
        assert f"{key} must be positive" in json.loads(result.output)["diagnostics"]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("experiment, params, key", [
        ("calibrate", {"n": 10, "sigma0": 0.5, "epsilon": 0.01,
                       "payoff": {"sigma_target": 0.2}}, "params.payoff.sigma_target"),
        ("calibrate", {"n": 10, "sigma0": 1.9, "epsilon": 0.01}, "params.sigma0"),
        ("gamma", {"n_list": [10], "sigma0": 0.5, "sigma": 1.9}, "params.sigma"),
        ("gamma", {"n_list": [40, 10], "sigma0": 0.2, "sigma": 0.5}, "params.sigma0"),
    ], ids=["calibrate_sigma_target", "calibrate_sigma0", "gamma_sigma", "gamma_sigma0"])
    def test_coefficients_the_walk_rejects_exit_config(self, runner, tmp_path, command,
                                                       experiment, params, key):
        # within the lattice's ranges but off [sigma_min, sigma_max], where
        # the kernel at (sigma, b0) has a negative weight: run exited 3 here
        # after validate passed
        lattice = {"alpha_tick": 1.5, "sigma_min": 0.3, "sigma_max": 1.2, "b0": 0.15, "s": 0.03}
        doc = {"experiment": experiment, "seed": 1, "params": {**lattice, **params},
               "output": {"path": "x.csv"}}
        out = ["--out", str(tmp_path)] if command == "run" else []
        result = runner.invoke(main, [command, "--config", write_config(tmp_path, doc), *out])
        assert result.exit_code == 2, result.output
        diags = json.loads(result.output)["diagnostics"]
        assert len(diags) == 1 and diags[0].startswith(f"{key}: kernel not strictly positive")
        assert not list(tmp_path.glob("x*.csv"))

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

    @staticmethod
    def _doc(**params):
        return {
            "experiment": "bridge",
            "seed": 3,
            "params": {
                "grid": {"start": -2.0, "stop": 2.0, "num": 200},
                "mu0": {"kind": "gaussian", "mean": 0.0, "std": 1.0},
                "nu0": {"kind": "gaussian", "mean": 0.3, "std": 0.6},
                "nu1": {"kind": "gaussian", "mean": -0.2, "std": 0.7},
                **params,
            },
            "output": {"path": "bridge.csv"},
        }

    @pytest.mark.parametrize("max_iter, relaxed", [(500, True), (8, False)])
    def test_summary_reports_omega(self, runner, tmp_path, max_iter, relaxed):
        cfg = write_config(tmp_path, self._doc(t=0.05, max_iter=max_iter))
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        _, summary_rows = read_table(tmp_path / "bridge.summary.csv")
        summary = field_map(summary_rows)
        assert (1.0 < summary["omega"] < 2.0) if relaxed else summary["omega"] == 1.0
        assert summary["iterations"] == (49 if relaxed else 8)

    def test_uncharged_reference_column_runs_without_warnings(self, runner, tmp_path):
        # the heat kernel underflows between the two points, so mu1 has no
        # mass at 50; p's column there was 0/0 and 1/0, four RuntimeWarnings
        # (errors under this suite) and then an exit 3
        doc = {"experiment": "bridge", "seed": 1,
               "params": {"grid": [-2.0, 50.0], "t": 0.05,
                          "mu0": {"kind": "explicit", "weights": [1.0, 0.0]}},
               "output": {"path": "bridge.csv"}}
        result = runner.invoke(main, ["run", "--config", write_config(tmp_path, doc),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        summary = field_map(read_table(tmp_path / "bridge.summary.csv")[1])
        assert summary["H_direct"] == summary["H_potentials"] == summary["residual"] == 0.0

    def test_kernel_underflow_exits_numeric(self, runner, tmp_path):
        # unrelaxed sweeps ended here with NaN in the coupling and H_direct 0.0
        cfg = write_config(tmp_path, self._doc(t=2e-3))
        result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path)])
        assert result.exit_code == 3
        payload = json.loads(result.output)
        assert payload["error"] == "numeric"
        assert "kernel underflows" in payload["message"]
        assert not (tmp_path / "bridge.summary.csv").exists()


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
        # constant coefficients give level sums: no law, no table, no tree
        walks, built, real_walk = [], [], tritree._chain_walk
        monkeypatch.setattr(tritree, "_chain_walk", lambda *args:
                            walks.append(args[-1].n) or real_walk(*args))
        for name in ("_runs_law", "_push_walk"):
            monkeypatch.setattr(tritree, name, lambda *args: built.append(args))
        monkeypatch.setattr(tritree, "build_tree", lambda *args: built.append(args))
        for cls in (tritree.TrinomialTree, tritree.VolSurface):
            monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
        lattice = {"alpha_tick": 2.0, "sigma_min": 0.6, "sigma_max": 1.4, "b0": 0.15, "s": 0.03}
        run({"experiment": "gamma", "seed": 2, "output": {"path": "sweep.csv"},
             "params": {**lattice, "sigma": 1.1, "sigma0": 1.3, "n_list": [8, 16]}},
            out_dir=str(tmp_path))
        assert walks == [8, 16]
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


UNREAD = "is not read: unknown, or unused with the other keys"


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("experiment", sorted(SMALL_PARAMS))
def test_a_key_no_parser_reads_exits_config(runner, tmp_path, command, experiment):
    doc = {"experiment": experiment, "seed": 1, "output": {"path": "x.csv", "fmt": "csv"},
           "params": {**SMALL_PARAMS[experiment], "bogus_key": 1}}
    out = ["--out", str(tmp_path)] if command == "run" else []
    result = runner.invoke(main, [command, "--config", write_config(tmp_path, doc), *out])
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["diagnostics"] == [f"output.fmt {UNREAD}",
                                                       f"params.bogus_key {UNREAD}"]
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("experiment, params, keys", [
    # a typo that ran with the default of one piece
    ("calibrate", {"n_piece": 2}, ["params.n_piece"]),
    ("covering", {"points": [0.0, 0.5, 1.0]}, ["params.grid"]),
    ("gibbs", {"schedule": {"kind": "sqrt_n", "c": 0.5, "a": 2.0, "margin": 1.5}},
     ["params.schedule.a", "params.schedule.margin"]),
    ("bridge", {"grid": {"start": -1.0, "stop": 1.0, "num": 5, "step": 0.5}},
     ["params.grid.step"]),
    ("bridge", {"nu0": {"kind": "uniform", "std": 2.0}}, ["params.nu0.std"]),
    ("iproj", {"target": {"kind": "point", "x0": [0.7], "hi": [0.8]}}, ["params.target.hi"]),
    # the target value used to be dropped for the one sigma_target gives
    ("calibrate", {"payoff": {"kind": "square", "sigma_target": 1.1, "target_value": 5.0}},
     ["params.payoff.target_value"]),
], ids=["typo", "covering_points_and_grid", "schedule_c_with_a_and_margin", "grid", "weights",
        "target", "payoff_sigma_target_and_target_value"])
def test_keys_the_other_keys_leave_unread_exit_config(runner, tmp_path, command, experiment,
                                                      params, keys):
    doc = {"experiment": experiment, "seed": 1, "output": {"path": "x.csv"},
           "params": {**SMALL_PARAMS[experiment], **params}}
    out = ["--out", str(tmp_path)] if command == "run" else []
    result = runner.invoke(main, [command, "--config", write_config(tmp_path, doc), *out])
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["diagnostics"] == [f"{key} {UNREAD}" for key in keys]


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
# each whether any scipy module is loaded; then does the same after
# conditioning on a Fortet-Mourier ball and calling fm_distance and
# luxemburg_norm; then imports scipy.optimize and prints that it is loaded
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
ep.fm_distance(alpha, ep.FiniteMeasure.point_mass(alpha.space, 0))
ep.luxemburg_norm([1.0, -2.0], alpha)
print("scipy", loaded("scipy"))
import scipy.optimize
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
    probe = fresh_python("-c", _SCIPY_PROBE, str(tmp_path), *cfgs)
    assert probe.returncode == 0, probe.stderr
    assert all(any(tmp_path.glob(f"{name}{i}*.csv")) for i, (name, _) in enumerate(runs))
    # no run loads any scipy module, nor do the Fortet-Mourier LP and the
    # Luxemburg norm; the explicit import, run last, shows the probe sees imports
    loaded = [line for line in probe.stdout.splitlines() if line.endswith(("True", "False"))]
    assert loaded == ["scipy False"] * (len(runs) + 1) + ["scipy.optimize True"]


# prints, in this fresh interpreter, the entroproj submodules loaded by a
# bare import, then after validating and after running one config
_MODULE_PROBE = """
import sys
def loaded():
    print("modules:", *sorted(m for m in sys.modules if m.startswith("entroproj.")))
import entroproj
loaded()
from entroproj.cli import main
main(["validate", "--config", sys.argv[2]], standalone_mode=False)
loaded()
main(["run", "--config", sys.argv[2], "--out", sys.argv[1]], standalone_mode=False)
loaded()
"""

EXPERIMENT_MODULES = {
    "covering": ["measures"],
    "iproj": ["iproj", "measures"],
    "schedules": ["iproj", "measures"],
    "gibbs": ["gibbs", "iproj", "measures"],
    "bridge": ["bridge", "measures"],
    "calibrate": ["tritree"],
    "gamma": ["tritree"],
}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENT_MODULES))
def test_experiment_loads_only_its_modules(tmp_path, experiment):
    cfg = write_config(tmp_path, {"experiment": experiment, "seed": 3,
                                  "params": SMALL_PARAMS[experiment],
                                  "output": {"path": f"{experiment}.csv"}})
    probe = fresh_python("-c", _MODULE_PROBE, str(tmp_path), cfg)
    assert probe.returncode == 0, probe.stderr
    assert any(tmp_path.glob(f"{experiment}*.csv"))
    # the parser imports the modules, so validate loads what run computes with
    modules = " ".join(["modules:", *(f"entroproj.{m}" for m in
                                      sorted(["cli", *EXPERIMENT_MODULES[experiment]]))])
    loaded = [line for line in probe.stdout.splitlines() if line.startswith("modules:")]
    assert loaded == ["modules:", modules, modules]


@pytest.mark.parametrize("experiment, params, code, error", [
    ("gibbs", {**SMALL_PARAMS["gibbs"], "mode": "mc", "trials": 300, "n_list": [7],
               "schedule": {"kind": "sqrt_n", "c": 1e-9}}, 4, "zero_acceptance"),
    ("calibrate", {**SMALL_PARAMS["calibrate"], "payoff": {"kind": "square",
                                                           "target_value": 50.0}},
     3, "numeric"),
    ("bridge", {"grid": {"start": -2.0, "stop": 2.0, "num": 200}, "t": 2e-3,
                "nu1": {"kind": "gaussian", "mean": -0.2, "std": 0.7}}, 3, "numeric"),
    ("covering", {**SMALL_PARAMS["covering"], "epsilon_list": []}, 2, "config"),
], ids=["gibbs_zero_acceptance", "calibrate_infeasible", "bridge_underflow", "covering_config"])
def test_failure_exit_codes_in_a_fresh_interpreter(tmp_path, experiment, params, code, error):
    # in process, other tests have loaded gibbs already, which would hide a
    # handler that needs it; -v lists every module the run imports
    cfg = write_config(tmp_path, {"experiment": experiment, "seed": 3, "params": params,
                                  "output": {"path": "t.csv"}})
    ran = fresh_python("-v", "-m", "entroproj.cli", "run", "--config", cfg,
                       "--out", str(tmp_path))
    assert ran.returncode == code, ran.stdout
    assert json.loads(ran.stdout)["error"] == error
    assert ("import 'entroproj.gibbs'" in ran.stderr) == (experiment == "gibbs")


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


@pytest.mark.parametrize("experiment", sorted(SMALL_PARAMS))
def test_module_run_matches_the_in_process_run(tmp_path, experiment):
    cfg = write_config(tmp_path, {"experiment": experiment, "seed": 3,
                                  "params": SMALL_PARAMS[experiment],
                                  "output": {"path": "t.csv"}})
    ran = fresh_python("-m", "entroproj.cli", "run", "--config", cfg,
                       "--out", str(tmp_path / "module"))
    assert ran.returncode == 0, ran.stderr
    in_process = CliRunner().invoke(main, ["run", "--config", cfg, "--out", str(tmp_path / "cli")])
    assert in_process.exit_code == 0, in_process.output
    tables = sorted(p.name for p in (tmp_path / "cli").glob("t*.csv"))
    assert tables and tables == sorted(p.name for p in (tmp_path / "module").glob("t*.csv"))
    for name in tables:
        assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


def test_module_run_exits_output_before_the_compute(tmp_path):
    # --out names a directory below a regular file, so it cannot be made
    (tmp_path / "blocker").write_text("")
    cfg = write_config(tmp_path, {"experiment": "iproj", "seed": 3,
                                  "params": SMALL_PARAMS["iproj"], "output": {"path": "t.csv"}})
    out = tmp_path / "blocker" / "sub"
    ran = fresh_python("-v", "-m", "entroproj.cli", "run", "--config", cfg, "--out", str(out))
    assert ran.returncode == 5, ran.stdout
    failure = json.loads(ran.stdout)
    assert failure["error"] == "output" and failure["path"] == str(out)
    assert "NotADirectoryError" in failure["message"]
    # the parser ran (it imports the solver), but nothing was written
    assert "import 'entroproj.iproj'" in ran.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]


def test_unwritable_table_exits_output(runner, tmp_path):
    # the table's path is a directory, so the rename onto it fails after the
    # compute; no temp file is left behind
    (tmp_path / "t.csv").mkdir()
    cfg = write_config(tmp_path, {"experiment": "iproj", "seed": 3,
                                  "params": SMALL_PARAMS["iproj"], "output": {"path": "t.csv"}})
    result = runner.invoke(main, ["run", "--config", cfg, "--out", str(tmp_path)])
    assert result.exit_code == 5, result.output
    failure = json.loads(result.output)
    assert failure["error"] == "output" and failure["path"] == str(tmp_path / "t.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "t.csv"]
    with pytest.raises(cli.OutputError) as exc:
        run(json.loads((tmp_path / "config.json").read_text()), out_dir=str(tmp_path))
    assert exc.value.path == str(tmp_path / "t.csv")


def test_importing_the_cli_leaves_the_collector_alone():
    probe = fresh_python("-c", "import gc, entroproj.cli; "
                               "print(gc.isenabled(), gc.get_freeze_count())")
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["True", "0"]


_ENTRY_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("at exit", gc.isenabled(), gc.get_freeze_count() > 0))
from entroproj.cli import entry
sys.argv = ["entroproj", "validate", "--config", sys.argv[1]]
entry()
"""


def test_entry_runs_main_and_freezes_the_heap(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "covering", "seed": 3,
                                  "params": SMALL_PARAMS["covering"], "output": {"path": "t.csv"}})
    probe = fresh_python("-c", _ENTRY_PROBE, cfg)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.splitlines() == ['{"diagnostics": []}', "at exit True True"]
