"""Config-driven experiment runner.

Each run is described by a JSON document naming an experiment, a mandatory
seed, experiment parameters, and an output target. Tables are written
atomically (temp file + rename) with repr-exact floats, so re-running an
identical config reproduces the output bytes with the same numpy and libm.
A manifest with the config echo, row counts, and wall time lands next to
the tables.

Each experiment has a parser, which checks every parameter key and returns
the experiment's compute step: a function of the seed that reads only the
parsed values. A key that no parser reads is a config error, so a typo
never runs with a default. `validate` runs the same parsers as `run`. A
parser imports the library modules its experiment computes with, and no
others, so a process loads only those, and before the timed compute step
starts.

A process started as `python -m entroproj.cli` or `entroproj` freezes its
start-up heap for the cyclic collector, and again before it exits (see
`entry`); importing this module changes no collector state.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 zero-acceptance
conditioning, 5 an output that cannot be written.
"""
from __future__ import annotations

import gc

if __name__ == "__main__":
    # no collections while click, numpy and this module load; entry() freezes
    # what they leave and turns the collector back on
    gc.disable()

import csv
import functools
import io
import json
import os
import sys
import tempfile
import time

import click
import numpy as np

from . import __version__

_REQUIRED = object()


def _render(fmt, columns, rows) -> str:
    """The table as csv (floats written as repr) or json text."""
    rows = [[v.item() if isinstance(v, np.generic) else v for v in row] for row in rows]
    if fmt == "json":
        return json.dumps({"columns": list(columns), "rows": rows}, indent=2) + "\n"
    sio = io.StringIO()
    csv.writer(sio, lineterminator="\n").writerows([columns, *rows])
    return sio.getvalue()


def _write_atomic(path: str, text: str):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class ConfigError(ValueError):
    """A config that cannot run; each argument is a diagnostic naming a key."""


class OutputError(RuntimeError):
    """An output file or its directory that cannot be written; ``path``
    names it."""

    def __init__(self, path, exc):
        super().__init__(f"cannot write {path}: {type(exc).__name__}: {exc}")
        self.path = path


class _Doc:
    """One JSON object of a config, read key by key; ``path`` names it. As
    a context manager it records the keys read, and a block that ends with
    a key never read fails, naming each such key."""

    def __init__(self, value, path):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object")
        self.value, self.path, self.used = value, path, set()

    def __enter__(self):
        return self

    def __exit__(self, failed, *_):
        unread = [f"{self.path}.{key} is not read: unknown, or unused with the other keys"
                  for key in self.value if key not in self.used]
        if unread and failed is None:
            raise ConfigError(*unread)

    def get(self, key, read, default=_REQUIRED):
        """read(value, key path) of the key, or of the default when the key
        is absent; a None default is returned unread."""
        path = f"{self.path}.{key}"
        if key in self.value:
            self.used.add(key)
            return read(self.value[key], path)
        if default is _REQUIRED:
            raise ConfigError(f"{path} is required")
        return None if default is None else read(default, path)


def _number(value, path, kind=(int, float), positive=False):
    """A finite JSON number of the given kind (a bool is none), above zero
    with positive=True; integers stay ints."""
    if isinstance(value, bool) or not isinstance(value, kind) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite JSON {'integer' if kind is int else 'number'}")
    if positive and value <= 0:
        raise ConfigError(f"{path} must be positive")
    return value if kind is int else float(value)


_positive = functools.partial(_number, positive=True)
_integer = functools.partial(_number, kind=int, positive=True)


def _text(value, path):
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string")
    return value


def _kind(*kinds):
    """Reader of one of the given names."""
    def read(value, path):
        if value not in kinds:
            raise ConfigError(f"{path} {value!r} is not {' or '.join(kinds)}")
        return value
    return read


def _items(read):
    """Reader of a nonempty JSON list whose entries ``read`` accepts."""
    def items(value, path):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a nonempty list")
        return [read(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return items


def _numbers(value, path):
    """A JSON number or a nonempty list of numbers, as a 1-D float array, or
    a nonempty list of equal-length such lists, as a 2-D one."""
    if not isinstance(value, list):
        return np.array([_number(value, path)])
    if not (value and all(isinstance(row, list) for row in value)):
        return np.array(_items(_number)(value, path))
    rows = _items(_items(_number))(value, path)
    if len({len(row) for row in rows}) > 1:
        raise ConfigError(f"{path} rows must have equal lengths")
    return np.array(rows)


def _grid(value, path):
    """Grid coordinates: {start, stop, num} evenly spaced, or a list."""
    if not isinstance(value, dict):
        return _numbers(value, path)
    with _Doc(value, path) as doc:
        return np.linspace(doc.get("start", _number), doc.get("stop", _number),
                           doc.get("num", _integer))


def _build(path, make, *args):
    """make(*args), reporting the invariant its constructor checks against
    the config key the arguments came from."""
    try:
        return make(*args)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _problem(p, target):
    """Moment problem of alpha_weights (on points), F and the target."""
    from . import iproj, measures
    weights = p.get("alpha_weights", _numbers)
    coords = p.get("points", _numbers, list(range(len(weights))))
    space = _build("params.points", measures.MetricSpacePoints.from_coordinates, coords)
    measure = _build("params.alpha_weights", measures.FiniteMeasure, space, weights)
    return _build("params.F", iproj.MomentProblem, measure, p.get("F", _numbers), target)


def _target(value, path):
    from . import iproj
    with _Doc(value, path) as doc:
        if doc.get("kind", _kind("point", "box")) == "point":
            return iproj.Box.point(doc.get("x0", _numbers))
        return _build(path, iproj.Box, doc.get("lo", _numbers), doc.get("hi", _numbers))


def _constants(doc, kinds, paths, problem):
    """schedule_from_solution's constants: ``a`` only for sqrt_n, and
    ``margin`` only for inv_n, which needs one column of F."""
    if "inv_n" in kinds and problem.dim > 1:
        raise ConfigError(f"{paths[kinds.index('inv_n')]} inv_n: the 1/n schedule needs a "
                          f"one-dimensional moment map, and params.F has {problem.dim} columns")
    return {key: doc.get(key, _positive, default) for key, kind, default
            in (("a", "sqrt_n", 1.0), ("margin", "inv_n", 1.1)) if kind in kinds}


def _schedule(value, path, problem):
    """The enlargement schedule, as a function of the solved projection."""
    from . import iproj
    with _Doc(value, path) as doc:
        kind = doc.get("kind", _kind("sqrt_n", "inv_n"), "sqrt_n")
        c = doc.get("c", _positive, None)
        if c is not None:
            fixed = iproj.ScheduleParams(kind=kind, c=c)
            return lambda sol: fixed
        return functools.partial(iproj.schedule_from_solution, kind=kind,
                                 **_constants(doc, [kind], [f"{path}.kind"], problem))


def _iproj(p):
    from . import iproj
    problem = _problem(p, p.get("target", _target))

    def compute(seed):
        sol = iproj.solve_dual(problem)
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
    return compute


def _gibbs(p):
    from . import gibbs, iproj
    problem = _problem(p, iproj.Box.point(p.get("x0", _numbers)))
    schedule_of = p.get("schedule", functools.partial(_schedule, problem=problem), {})
    n_list = p.get("n_list", _items(_integer))
    k = p.get("k", _integer, 1)
    if k > min(n_list):
        raise ConfigError(f"params.k {k} exceeds the smallest params.n_list entry "
                          f"{min(n_list)}: window k cannot exceed the block length n")
    mode = p.get("mode", _kind("exact", "mc"), "exact")
    trials = p.get("trials", _integer, 20000)

    def compute(seed):
        sol = iproj.solve_dual(problem)
        estimate = gibbs.exact_conditional if mode == "exact" else functools.partial(
            gibbs.run_conditional_mc, trials=trials, seed=seed)
        curve = gibbs.conditional_tv_curve(problem.alpha, sol, schedule_of(sol), n_list, k,
                                           estimate)
        columns = ["n", "epsilon", "p_event", "log_p_over_n", "tv_k", "acceptance_rate"]
        rows = [[r["n"], r["epsilon"], r["p_event"], r["log_p_over_n"], r["tv_k"], r["p_event"]]
                for r in curve]
        return {"curve": (columns, rows)}
    return compute


def _grid_weights(value, path, space, x):
    from . import measures
    with _Doc(value, path) as doc:
        kind = doc.get("kind", _kind("uniform", "gaussian", "explicit"), "uniform")
        if kind == "uniform":
            return measures.FiniteMeasure.uniform(space)
        if kind == "gaussian":
            mean, std = doc.get("mean", _number, 0.0), doc.get("std", _positive, 1.0)
            w = np.exp(-((x - mean) ** 2) / (2.0 * std * std))
        else:
            w = doc.get("weights", _numbers)
    if not w.sum() > 0:
        raise ConfigError(f"{path} weights must have a positive sum")
    return _build(path, measures.FiniteMeasure, space, w / w.sum())


def _bridge(p):
    from . import bridge, measures
    x = _build("params.grid", bridge.increasing_grid, p.get("grid", _grid))
    space = _build("params.grid", measures.MetricSpacePoints.from_coordinates, x)
    weights = functools.partial(_grid_weights, space=space, x=x)
    t = p.get("t", _positive)
    mu0 = p.get("mu0", weights, {})
    nu0, nu1 = p.get("nu0", weights, None), p.get("nu1", weights, None)
    tol = p.get("tol", _positive, 1e-12)
    max_iter = p.get("max_iter", _integer, 500)

    def compute(seed):
        problem = bridge.gaussian_reference(x, t, mu0=mu0, nu0=nu0, nu1=nu1)
        pots = bridge.sinkhorn(problem, tol=tol, max_iter=max_iter)
        h_direct, h_pot = bridge.bridge_entropy(problem, pots)
        history_rows = [[i + 1, r] for i, r in enumerate(pots.history)]
        pot_rows = [["f", i, float(x[i]), float(v)] for i, v in enumerate(pots.f)]
        pot_rows += [["g", i, float(x[i]), float(v)] for i, v in enumerate(pots.g)]
        summary_rows = [
            ["H_direct", h_direct],
            ["H_potentials", h_pot],
            ["residual", pots.residual],
            ["iterations", len(pots.history)],
            ["omega", pots.omega],
        ]
        return {
            "history": (["iteration", "residual"], history_rows),
            "potentials": (["side", "index", "point", "value"], pot_rows),
            "summary": (["field", "value"], summary_rows),
        }
    return compute


def _lattice(p, n):
    """The LatticeSpec of a calibrate or gamma config at n levels."""
    from . import tritree
    ranges = [p.get(key, _number) for key in ("alpha_tick", "sigma_min", "sigma_max", "b0", "s")]
    return _build("params", tritree.LatticeSpec, n, *ranges)


def _calibrate(p):
    from . import tritree
    spec = _lattice(p, p.get("n", _integer))
    with p.get("payoff", _Doc, {}) as payoff:
        payoff.get("kind", _kind("square"), "square")
        sigma_target = payoff.get("sigma_target", _positive, None)
        # read only without sigma_target, so the pair is an unread-key error
        target_value = payoff.get("target_value", _positive, 1.0) if sigma_target is None else None
    sigma0, n_pieces = p.get("sigma0", _positive), p.get("n_pieces", _integer, 1)
    # the lattice ranges make the kernel positive for sigma in [sigma_min, sigma_max] only
    for key, sigma in (("payoff.sigma_target", sigma_target), ("sigma0", sigma0)):
        if sigma is not None:
            _build(f"params.{key}", tritree.kernel, sigma, spec.b0, spec)
    epsilon = p.get("epsilon", _positive)
    if epsilon > spec.s:
        raise ConfigError(f"params.epsilon {epsilon} exceeds the drift band half-width s={spec.s}")
    if n_pieces > spec.n:
        raise ConfigError(f"params.n_pieces {n_pieces} exceeds params.n={spec.n}; "
                          "a piece would own no level")

    def compute(seed):
        value = target_value
        if sigma_target is not None:
            # E[X^2] at the terminal level of the constant chain, walked as scalars
            law = tritree._terminal_law([sigma_target] * spec.n, [spec.b0] * spec.n, spec)
            value = float(law @ np.square(spec.positions(spec.n)))

        def payoff(x):
            return x * x / value

        problem = tritree.CalibProblem(sigma0=sigma0, payoff=payoff, n_pieces=n_pieces)
        res = tritree.calibrate(problem, spec, epsilon)
        rows = [[f"theta_{i}", float(v)] for i, v in enumerate(res.theta_star)]
        rows += [
            ["entropy", res.entropy],
            ["moment", res.moment],
            ["slack", res.slack],
            ["target_value", value],
            ["epsilon0", tritree.epsilon0(res, spec)],
        ]
        return {"report": (["field", "value"], rows)}
    return compute


def _gamma(p):
    from . import tritree
    specs = [_lattice(p, n) for n in p.get("n_list", _items(_integer))]
    sigma, sigma0 = p.get("sigma", _positive), p.get("sigma0", _positive)
    for spec in specs:
        _build("params.sigma", tritree.kernel, sigma, spec.b0, spec)
        _build("params.sigma0", tritree.kernel, sigma0, spec.b0, spec)

    def compute(seed):
        rows = []
        for spec in specs:
            # constant coefficients walk as scalars: level sums, no law, no tree
            h, rate, gap = tritree._chain_walk(
                *([v] * spec.n for v in (sigma, spec.b0, sigma0, spec.b0)), spec)
            rows.append([spec.n, h / spec.n, rate, gap, spec.n * gap])
        return {"sweep": (["n", "H_over_n", "I_rate", "gap", "n_times_gap"], rows)}
    return compute


def _covering(p):
    from . import measures
    coords = p.get("points", _numbers, None)
    if coords is None:
        coords = p.get("grid", _grid)
    space = _build("params", measures.MetricSpacePoints.from_coordinates, coords)
    epsilon_list = p.get("epsilon_list", _items(_positive))

    def compute(seed):
        rows = []
        for eps in epsilon_list:
            report = measures.covering_number(space, eps)
            rows.append([eps, report.count, report.method])
        return {"covering": (["epsilon", "count", "method"], rows)}
    return compute


def _schedules(p):
    from . import iproj
    problem = _problem(p, iproj.Box.point(p.get("x0", _numbers)))
    n_list = p.get("n_list", _items(_integer))
    kinds = p.get("kinds", _items(_kind("sqrt_n", "inv_n")), ["sqrt_n"])
    constants = _constants(p, kinds, [f"params.kinds[{i}]" for i in range(len(kinds))], problem)

    def compute(seed):
        sol = iproj.solve_dual(problem)
        rows = []
        for kind in kinds:
            schedule = iproj.schedule_from_solution(sol, kind, **constants)
            for n in n_list:
                rows.append([kind, n, schedule.epsilon(n)])
        return {"schedules": (["kind", "n", "epsilon"], rows)}
    return compute


_PARSERS = {
    "iproj": _iproj,
    "gibbs": _gibbs,
    "bridge": _bridge,
    "calibrate": _calibrate,
    "gamma": _gamma,
    "covering": _covering,
    "schedules": _schedules,
}
EXPERIMENTS = tuple(_PARSERS)


def _seed(doc):
    if "seed" not in doc:
        raise ConfigError("seed is required; runs never draw entropy from the clock")
    seed = value = doc["seed"]
    # int() alone would also read "1_0", " 7 ", "+7" and non-ASCII digits, and
    # raises past about 4300 digits; past 20 significant ones it is out of range
    if isinstance(seed, str) and seed.isascii() and seed.isdigit() \
            and len(seed.lstrip("0")) <= 20:
        value = int(seed)
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2 ** 64:
        raise ConfigError(f"seed {seed!r} does not parse as an unsigned 64-bit integer")
    return value


def _output(doc):
    """(path, format); the format defaults to json for a .json path, else csv."""
    with _Doc(doc.get("output"), "output") as output:
        path = output.get("path", _text)
        default = "json" if os.path.splitext(path)[1] == ".json" else "csv"
        return path, output.get("format", _kind("csv", "json"), default)


def _compute_step(doc):
    params = _Doc(doc.get("params"), "params")
    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        return None
    with params:
        return _PARSERS[experiment](params)


def _parse(doc):
    """Diagnostics of a config, each naming a key, and, when there are none,
    its (seed, (path, format), compute step)."""
    if not isinstance(doc, dict):
        return ["config must be a JSON object"], None
    experiment = doc.get("experiment")
    diags = [] if experiment in EXPERIMENTS else [
        f"unknown experiment {experiment!r}; expected one of {', '.join(EXPERIMENTS)}"]
    parts = []
    for read in (_seed, _output, _compute_step):
        try:
            parts.append(read(doc))
        except ConfigError as exc:
            diags.extend(exc.args)
    return diags, None if diags else parts


def validate_config(doc) -> list:
    """Diagnostics of parsing the config as `run` does; empty means runnable."""
    return _parse(doc)[0]


def run(doc, workers=1, out_dir=None):
    """Parse and execute a config; returns the manifest dictionary.

    Raises ConfigError, before any work, on a config `validate` rejects, and
    OutputError on an output that cannot be written: before the compute
    step when its directory cannot be made. ``workers`` is only recorded in
    the manifest: no table depends on it."""
    diags, parsed = _parse(doc)
    if diags:
        raise ConfigError(*diags)
    seed, (path, fmt), compute = parsed
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise OutputError(directory, exc) from None

    start = time.monotonic()
    tables = compute(seed)
    wall = time.monotonic() - start

    stem, ext = os.path.splitext(path)
    if not ext:
        ext = "." + fmt
    if len(tables) == 1:
        name = next(iter(tables))
        outputs = {name: stem + ext}
    else:
        outputs = {name: f"{stem}.{name}{ext}" for name in tables}
    manifest = {
        "artifact_version": __version__,
        "config": doc,
        "outputs": outputs,
        "row_counts": {name: len(rows) for name, (_, rows) in tables.items()},
        "wall_time_s": wall,
        "worker_count": workers,
    }
    texts = {outputs[name]: _render(fmt, columns, rows) for name, (columns, rows) in tables.items()}
    texts[stem + ".manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    for target, text in texts.items():
        try:
            _write_atomic(target, text)
        except OSError as exc:
            raise OutputError(target, exc) from None
    return manifest


def _fail(code, **doc):
    click.echo(json.dumps(doc, sort_keys=True))
    sys.exit(code)


def _load_config(path):
    try:
        with open(path, "r") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


@click.group()
def main():
    """Reproducible entropy-numerics experiments from JSON configs."""


@main.command(name="run")
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config file")
@click.option("--workers", type=int, default=1, help="recorded in the manifest; no table depends on it")
@click.option("--out", "out_dir", type=click.Path(), default=None, help="directory for relative output paths")
def run_cmd(config_path, workers, out_dir):
    """Run the experiment described by a config file."""
    try:
        manifest = run(_load_config(config_path), workers=workers, out_dir=out_dir)
    except ConfigError as exc:
        _fail(2, error="config", message="; ".join(exc.args), diagnostics=list(exc.args))
    except OutputError as exc:
        _fail(5, error="output", message=str(exc), path=exc.path)
    except Exception as exc:
        # only a loaded gibbs module can have raised its error
        gibbs = sys.modules.get(f"{__package__}.gibbs")
        if gibbs is None or not isinstance(exc, gibbs.ZeroAcceptanceError):
            _fail(3, error="numeric", message=f"{type(exc).__name__}: {exc}")
        _fail(4, error="zero_acceptance", message=str(exc), upper_bound=exc.upper_bound)
    click.echo(json.dumps(manifest, sort_keys=True))


@main.command(name="validate")
@click.option("--config", "config_path", required=True, type=click.Path(), help="JSON config file")
def validate_cmd(config_path):
    """Print diagnostics for a config; exit 0 only when it is runnable."""
    try:
        diags = validate_config(_load_config(config_path))
    except ConfigError as exc:
        diags = list(exc.args)
    click.echo(json.dumps({"diagnostics": diags}))
    if diags:
        sys.exit(2)


def entry():
    """Run `main` as a whole process: the console script's entry point, and
    what `python -m entroproj.cli` runs.

    Every object alive at the call, mostly the modules of click, numpy and
    this package, which live until exit, is frozen out of the cyclic
    collector, which is then enabled; whatever is still alive when `main`
    returns or exits is frozen too, so the interpreter's exit collections
    skip it. Refcounting, `atexit` handlers and the stdio flushes all run;
    only the `__del__` of objects caught in reference cycles at exit is
    skipped, which Python never promises. Under `python -m` the collector is
    also off while this module's imports run; the console script imports
    them before calling here, with the collector on.
    """
    gc.freeze()
    gc.enable()
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
