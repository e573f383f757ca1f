"""Config-driven experiment runner.

Each run is described by a JSON document naming an experiment, a mandatory
seed, experiment parameters, and an output target. Tables are written
atomically (temp file + rename) with repr-exact floats, so re-running an
identical config reproduces the output bytes on any host.
A manifest with the config echo, row counts, and wall time lands next to
the tables.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 zero-acceptance
conditioning.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import tempfile
import time

import click
import numpy as np

from . import __version__
from .measures import FiniteMeasure, MetricSpacePoints, covering_number, tv_distance
from .iproj import (
    Box,
    MomentProblem,
    Point,
    ScheduleParams,
    schedule_from_solution,
    solve_dual,
)
from .gibbs import (
    ZeroAcceptanceError,
    conditional_tv_curve,
    moment_band,
    product_law,
    run_conditional_mc,
)
from .bridge import gaussian_reference, bridge_entropy, sinkhorn, with_targets
from .tritree import (
    CalibProblem,
    LatticeSpec,
    VolSurface,
    I_rate,
    build_tree,
    calibrate,
    dl_gap,
    epsilon0,
    expectation,
    tree_entropy_chain,
)

EXPERIMENTS = ("iproj", "gibbs", "bridge", "calibrate", "gamma", "covering", "schedules")
_SEED_MAX = 2 ** 64


def _fmt_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _native(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


def _render_csv(columns, rows) -> str:
    sio = io.StringIO()
    writer = csv.writer(sio, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    return sio.getvalue()


def _render_json(columns, rows) -> str:
    doc = {"columns": list(columns), "rows": [[_native(v) for v in row] for row in rows]}
    return json.dumps(doc, indent=2) + "\n"


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _measure_and_map(params):
    weights = np.asarray(params["alpha_weights"], dtype=float)
    if "points" in params:
        space = MetricSpacePoints.from_coordinates(np.asarray(params["points"], dtype=float))
    else:
        space = MetricSpacePoints.from_coordinates(np.arange(len(weights), dtype=float))
    measure = FiniteMeasure(space, weights)
    F = np.asarray(params["F"], dtype=float)
    return measure, F


def _target_from(doc):
    kind = doc.get("kind")
    if kind == "point":
        return Point(np.atleast_1d(np.asarray(doc["x0"], dtype=float)))
    if kind == "box":
        return Box(
            np.atleast_1d(np.asarray(doc["lo"], dtype=float)),
            np.atleast_1d(np.asarray(doc["hi"], dtype=float)),
        )
    raise ValueError(f"unknown target kind {kind!r}")


def _schedule_from(sol, doc):
    kind = doc.get("kind", "sqrt_n")
    if "c" in doc:
        return ScheduleParams(kind=kind, c=float(doc["c"]))
    return schedule_from_solution(
        sol, kind, a=float(doc.get("a", 1.0)), margin=float(doc.get("margin", 1.1))
    )


def _run_iproj(params, seed):
    measure, F = _measure_and_map(params)
    problem = MomentProblem(measure, F, _target_from(params["target"]))
    sol = solve_dual(problem)
    rows = []
    for i, v in enumerate(np.atleast_1d(sol.lambda_star)):
        rows.append([f"lambda_{i}", float(v)])
    rows.append(["entropy", sol.entropy])
    rows.append(["log_Z", sol.log_Z])
    for i, v in enumerate(np.atleast_1d(sol.moment)):
        rows.append([f"moment_{i}", float(v)])
    rows.append(["variance", sol.variance])
    for i, v in enumerate(sol.alpha_star.weights):
        rows.append([f"alpha_star_{i}", float(v)])
    return {"solution": (["field", "value"], rows)}


def _run_gibbs(params, seed):
    measure, F = _measure_and_map(params)
    x0 = np.atleast_1d(np.asarray(params["x0"], dtype=float))
    problem = MomentProblem(measure, F, Point(x0))
    sol = solve_dual(problem)
    schedule = _schedule_from(sol, params.get("schedule", {"kind": "sqrt_n"}))
    n_list = [int(n) for n in params["n_list"]]
    k = int(params.get("k", 1))
    mode = params.get("mode", "exact")
    columns = ["n", "epsilon", "p_event", "log_p_over_n", "tv_k", "acceptance_rate"]
    rows = []
    if mode == "exact":
        for r in conditional_tv_curve(measure, sol, schedule, n_list, k):
            rows.append([r["n"], r["epsilon"], r["p_event"], r["log_p_over_n"],
                         r["tv_k"], r["p_event"]])
    else:
        trials = int(params.get("trials", 20000))
        ref = product_law(sol.alpha_star, k)
        for n in n_list:
            eps = schedule.epsilon(n)
            event = moment_band(problem.F, x0, eps, norm="euclidean")
            est = run_conditional_mc(measure, n, event, k, trials, seed)
            p = est.acceptance_rate
            rows.append([n, eps, p, math.log(p) / n, tv_distance(est.law, ref), p])
    return {"curve": (columns, rows)}


def _grid_weights(space, x, doc):
    kind = doc.get("kind", "uniform")
    if kind == "uniform":
        return FiniteMeasure.uniform(space)
    if kind == "gaussian":
        mean = float(doc.get("mean", 0.0))
        std = float(doc.get("std", 1.0))
        w = np.exp(-((x - mean) ** 2) / (2.0 * std * std))
        return FiniteMeasure(space, w / w.sum())
    if kind == "explicit":
        w = np.asarray(doc["weights"], dtype=float)
        return FiniteMeasure(space, w / w.sum())
    raise ValueError(f"unknown weight kind {kind!r}")


def _run_bridge(params, seed):
    gdoc = params["grid"]
    if isinstance(gdoc, dict):
        x = np.linspace(float(gdoc["start"]), float(gdoc["stop"]), int(gdoc["num"]))
    else:
        x = np.asarray(gdoc, dtype=float)
    space = MetricSpacePoints.from_coordinates(x)
    mu0 = _grid_weights(space, x, params.get("mu0", {"kind": "uniform"}))
    base = gaussian_reference(x, float(params["t"]), mu0=mu0)
    nu0 = _grid_weights(space, x, params["nu0"]) if "nu0" in params else base.nu0
    nu1 = _grid_weights(space, x, params["nu1"]) if "nu1" in params else base.nu1
    problem = with_targets(base, nu0, nu1)
    pots = sinkhorn(problem, tol=float(params.get("tol", 1e-12)),
                    max_iter=int(params.get("max_iter", 500)))
    h_direct, h_pot = bridge_entropy(problem, pots)
    history_rows = [[i + 1, r] for i, r in enumerate(pots.history)]
    pot_rows = [["f", i, float(x[i]), float(v)] for i, v in enumerate(pots.f)]
    pot_rows += [["g", i, float(x[i]), float(v)] for i, v in enumerate(pots.g)]
    summary_rows = [
        ["H_direct", h_direct],
        ["H_potentials", h_pot],
        ["residual", pots.residual],
        ["iterations", len(pots.history)],
    ]
    return {
        "history": (["iteration", "residual"], history_rows),
        "potentials": (["side", "index", "point", "value"], pot_rows),
        "summary": (["field", "value"], summary_rows),
    }


def _lattice_from(params) -> LatticeSpec:
    return LatticeSpec(
        n=int(params["n"]),
        alpha_tick=float(params["alpha_tick"]),
        sigma_min=float(params["sigma_min"]),
        sigma_max=float(params["sigma_max"]),
        b0=float(params["b0"]),
        s=float(params["s"]),
    )


def _normalized_payoff(params, spec):
    doc = params.get("payoff", {"kind": "square"})
    if doc.get("kind", "square") != "square":
        raise ValueError(f"unknown payoff kind {doc.get('kind')!r}")
    if "sigma_target" in doc:
        surf = VolSurface.constant(spec, float(doc["sigma_target"]), spec.b0)
        target_value = expectation(build_tree(surf, spec), lambda x: x * x, spec.n)
    else:
        target_value = float(doc.get("target_value", 1.0))
    if target_value <= 0:
        raise ValueError("payoff normalization must be positive")
    return (lambda x: x * x / target_value), target_value


def _run_calibrate(params, seed):
    spec = _lattice_from(params)
    payoff, target_value = _normalized_payoff(params, spec)
    problem = CalibProblem(
        sigma0=float(params["sigma0"]),
        payoff=payoff,
        n_pieces=int(params.get("n_pieces", 1)),
    )
    res = calibrate(problem, spec, float(params["epsilon"]))
    rows = [[f"theta_{i}", float(v)] for i, v in enumerate(res.theta_star)]
    rows += [
        ["entropy", res.entropy],
        ["moment", res.moment],
        ["slack", res.slack],
        ["target_value", target_value],
        ["epsilon0", epsilon0(res.sigma_star, spec, payoff)],
    ]
    return {"report": (["field", "value"], rows)}


def _run_gamma(params, seed):
    sigma = float(params["sigma"])
    sigma0 = float(params["sigma0"])
    rows = []
    for n in params["n_list"]:
        spec = _lattice_from({**params, "n": int(n)})
        surf = VolSurface.constant(spec, sigma, spec.b0)
        surf0 = VolSurface.constant(spec, sigma0, spec.b0)
        h = tree_entropy_chain(surf, surf0, spec)
        rate = I_rate(surf, surf0, spec)
        gap, n_gap = dl_gap(surf, surf0, spec)
        rows.append([int(n), h / n, rate, gap, n_gap])
    return {"sweep": (["n", "H_over_n", "I_rate", "gap", "n_times_gap"], rows)}


def _run_covering(params, seed):
    if "points" in params:
        space = MetricSpacePoints.from_coordinates(np.asarray(params["points"], dtype=float))
    else:
        gdoc = params["grid"]
        x = np.linspace(float(gdoc["start"]), float(gdoc["stop"]), int(gdoc["num"]))
        space = MetricSpacePoints.from_coordinates(x)
    rows = []
    for eps in params["epsilon_list"]:
        report = covering_number(space, float(eps))
        rows.append([float(eps), report.count, report.method])
    return {"covering": (["epsilon", "count", "method"], rows)}


def _run_schedules(params, seed):
    measure, F = _measure_and_map(params)
    x0 = np.atleast_1d(np.asarray(params["x0"], dtype=float))
    sol = solve_dual(MomentProblem(measure, F, Point(x0)))
    rows = []
    for kind in params.get("kinds", ["sqrt_n"]):
        schedule = _schedule_from(sol, {
            "kind": kind,
            "a": params.get("a", 1.0),
            "margin": params.get("margin", 1.1),
        })
        for n in params["n_list"]:
            rows.append([kind, int(n), schedule.epsilon(int(n))])
    return {"schedules": (["kind", "n", "epsilon"], rows)}


_DISPATCH = {
    "iproj": _run_iproj,
    "gibbs": _run_gibbs,
    "bridge": _run_bridge,
    "calibrate": _run_calibrate,
    "gamma": _run_gamma,
    "covering": _run_covering,
    "schedules": _run_schedules,
}


def _positive(value, kind=(int, float)):
    """Whether a parsed JSON value is a positive number of the given kind."""
    return isinstance(value, kind) and not isinstance(value, bool) and value > 0


def _n_list_ok(params):
    n_list = params.get("n_list")
    return isinstance(n_list, list) and len(n_list) > 0 and all(_positive(n, int) for n in n_list)


def validate_config(doc) -> list:
    """Schema and range diagnostics; an empty list means runnable."""
    diags = []
    if not isinstance(doc, dict):
        return ["config must be a JSON object"]
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        diags.append(f"unknown experiment {experiment!r}; expected one of {', '.join(EXPERIMENTS)}")
    if "seed" not in doc:
        diags.append("seed is required; runs never draw entropy from the clock")
    else:
        seed = doc["seed"]
        try:
            if isinstance(seed, bool):
                raise ValueError
            seed_val = int(str(seed), 10)
            if not 0 <= seed_val < _SEED_MAX:
                raise ValueError
        except (TypeError, ValueError):
            diags.append(f"seed {seed!r} does not parse as an unsigned 64-bit integer")
    output = doc.get("output")
    if not isinstance(output, dict) or "path" not in output:
        diags.append("output.path is required")
    elif output.get("format", "csv") not in ("csv", "json"):
        diags.append(f"output.format {output.get('format')!r} is not csv or json")
    params = doc.get("params")
    if not isinstance(params, dict):
        diags.append("params must be an object")
        return diags
    if experiment in ("gibbs", "schedules", "gamma") and not _n_list_ok(params):
        diags.append("params.n_list must be a nonempty list of positive integers")

    if experiment in ("iproj", "gibbs", "schedules"):
        if "alpha_weights" not in params or "F" not in params:
            diags.append("params.alpha_weights and params.F are required")
        if experiment == "iproj" and "target" not in params:
            diags.append("params.target is required")
        if experiment in ("gibbs", "schedules"):
            if "x0" not in params:
                diags.append("params.x0 is required")
        if experiment == "gibbs" and params.get("mode", "exact") not in ("exact", "mc"):
            diags.append(f"params.mode {params.get('mode')!r} is not exact or mc")
    elif experiment in ("calibrate", "gamma"):
        probe = dict(params)
        n_list = params["n_list"] if experiment == "gamma" and _n_list_ok(params) else []
        if experiment == "gamma":
            probe["n"] = n_list[0] if n_list else 1
        try:
            spec = _lattice_from(probe)
            for n in n_list:
                _lattice_from({**params, "n": n})
        except (KeyError, TypeError) as exc:
            diags.append(f"lattice parameters incomplete: {exc}")
            spec = None
        except ValueError as exc:
            diags.append(str(exc))
            spec = None
        if experiment == "calibrate":
            eps = params.get("epsilon")
            if not _positive(eps):
                diags.append("params.epsilon must be positive, as a JSON number")
            elif spec is not None and eps > spec.s:
                diags.append(
                    f"epsilon {eps} exceeds the drift band half-width s={spec.s}"
                )
            if "sigma0" not in params:
                diags.append("params.sigma0 is required")
    elif experiment == "bridge":
        if "grid" not in params or "t" not in params:
            diags.append("params.grid and params.t are required")
        elif not _positive(params["t"]):
            diags.append("params.t must be positive, as a JSON number")
    elif experiment == "covering":
        if "points" not in params and "grid" not in params:
            diags.append("params.points or params.grid is required")
        eps_list = params.get("epsilon_list")
        if not isinstance(eps_list, list) or not eps_list:
            diags.append("params.epsilon_list must be a nonempty list")
        elif not all(_positive(e) for e in eps_list):
            diags.append("epsilon values must be positive numbers")
    return diags


def run(doc, workers=1, out_dir=None):
    """Execute a validated config; returns the manifest dictionary.

    ``workers`` is only recorded there: no table depends on it."""
    start = time.monotonic()
    tables = _DISPATCH[doc["experiment"]](doc.get("params", {}), int(str(doc["seed"]), 10))
    wall = time.monotonic() - start

    output = doc["output"]
    path = output["path"]
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    fmt = output.get("format", "csv")
    render = _render_csv if fmt == "csv" else _render_json
    stem, ext = os.path.splitext(path)
    if not ext:
        ext = "." + fmt
    outputs = {}
    if len(tables) == 1:
        name = next(iter(tables))
        targets = {name: stem + ext}
    else:
        targets = {name: f"{stem}.{name}{ext}" for name in tables}
    for name, (columns, rows) in tables.items():
        _write_atomic(targets[name], render(columns, rows))
        outputs[name] = targets[name]

    manifest = {
        "artifact_version": __version__,
        "config": doc,
        "outputs": outputs,
        "row_counts": {name: len(rows) for name, (_, rows) in tables.items()},
        "wall_time_s": wall,
        "worker_count": workers,
    }
    _write_atomic(stem + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _fail(code, kind, message, extra=None):
    doc = {"error": kind, "message": message}
    if extra:
        doc.update(extra)
    click.echo(json.dumps(doc, sort_keys=True))
    sys.exit(code)


def _load_config(path):
    try:
        with open(path, "r") as handle:
            return json.load(handle), None
    except OSError as exc:
        return None, f"cannot read config: {exc}"
    except json.JSONDecodeError as exc:
        return None, f"config is not valid JSON: {exc}"


@click.group()
def main():
    """Reproducible entropy-numerics experiments from JSON configs."""


@main.command(name="run")
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config file")
@click.option("--workers", type=int, default=1, help="recorded in the manifest; no table depends on it")
@click.option("--out", "out_dir", type=click.Path(), default=None, help="directory for relative output paths")
def run_cmd(config_path, workers, out_dir):
    """Run the experiment described by a config file."""
    doc, err = _load_config(config_path)
    if err:
        _fail(2, "config", err)
    diags = validate_config(doc)
    if diags:
        _fail(2, "config", "; ".join(diags), extra={"diagnostics": diags})
    try:
        manifest = run(doc, workers=workers, out_dir=out_dir)
    except ZeroAcceptanceError as exc:
        _fail(4, "zero_acceptance", str(exc), extra={"upper_bound": exc.upper_bound})
    except Exception as exc:
        _fail(3, "numeric", f"{type(exc).__name__}: {exc}")
    click.echo(json.dumps(manifest, sort_keys=True))


@main.command(name="validate")
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config file")
def validate_cmd(config_path):
    """Print diagnostics for a config; exit 0 only when it is runnable."""
    doc, err = _load_config(config_path)
    if err:
        click.echo(json.dumps({"diagnostics": [err]}))
        sys.exit(2)
    diags = validate_config(doc)
    click.echo(json.dumps({"diagnostics": diags}))
    if diags:
        sys.exit(2)


if __name__ == "__main__":
    main()
