"""entroproj benchmark: `entroproj run` wall time per workload, and a layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload types --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the workload's config list through the CLI, one
fresh process per op, as many times as fit in ``--seconds``, and reports
the end-to-end metrics (medians over those passes, in seconds at the
reference speed; see SpeedClock). With ``--trace 1`` it
runs the list once through the CLI and then in this process under the
layer tracer, and reports per-layer calls, self time and work counts.
Every op's tables are checked; see oracles.py. The last line of stdout is
the result as one JSON object; the line before it carries quartiles,
sample counts, the failed-op ratio and the machine facts.
"""
import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layertrace
import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
BLAS_THREADS = 1
BLAS_ENV = {name: str(BLAS_THREADS)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_PASSES = 4
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 120.0
REFERENCE_LOOP_N = 1_000_000
# reference_loop() time on the shared 2-core Intel Xeon VM (Python 3.11) the
# bounds in BENCHMARK.json were set on, in its fastest phase
REFERENCE_LOOP_S = 0.060


def child_env():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": path}


def _read(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return ""


def machine_facts():
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "blas_threads": BLAS_THREADS,
        "workers": workloads.WORKERS,
        "python": platform.python_version(),
    }
    for package in ("numpy", "scipy", "click"):
        try:
            facts[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            facts[package] = None
    return facts


def spawn(argv, env, stdout_path, stderr_path=None):
    """Run one child to completion: (exit code, wall s, cpu s, max RSS MB)."""
    with open(stdout_path, "w") as out, open(stderr_path or os.devnull, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def cli_argv(*args):
    return [sys.executable, "-m", "entroproj.cli", *args]


class Workload:
    """The ops of one workload with their config files and output directories."""

    def __init__(self, name, seed):
        self.ops = workloads.build(name, seed)
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "configs").mkdir(parents=True)
        for op in self.ops:
            op["config_path"] = str(self.dir / "configs" / f"{op['name']}.json")
            with open(op["config_path"], "w") as handle:
                json.dump(op["config"], handle, indent=2)
        self.reference = oracles.load_reference()
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.env = child_env()

    def out_dir(self, label, op):
        path = self.dir / label / op["name"]
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def record(self, op, code, stdout_text):
        """Count and check one op; a failure other than a known one is a wrong answer."""
        self.attempted += 1
        status, detail = oracles.outcome(op, code, stdout_text, self.reference)
        if status != "ok":
            self.failed += 1
        if status == "failed":
            self.wrong.append(detail)
            print(f"perfbench: {detail}", file=sys.stderr)

    def run_cli(self, label, op):
        out = self.out_dir(label, op)
        stdout_path = out / "stdout.txt"
        code, wall, cpu, rss = spawn(
            cli_argv("run", "--config", op["config_path"],
                     "--workers", str(workloads.WORKERS), "--out", str(out)),
            self.env, stdout_path)
        self.record(op, code, _read(stdout_path))
        return wall, cpu, rss

    def setup_seconds(self, clock):
        """Summed wall time of `entroproj validate` over the workload's configs,
        speed-adjusted and raw."""
        stdout_path = self.dir / "validate.txt"
        adjusted = raw = 0.0
        for op in self.ops:
            code, wall, _, _ = spawn(cli_argv("validate", "--config", op["config_path"]),
                                     self.env, stdout_path)
            if code != 0:
                self.wrong.append(f"{op['name']}: validate exit {code}: {_read(stdout_path)}")
            adjusted += wall * clock.factor()
            raw += wall
        return adjusted, raw


def reference_loop():
    """Seconds taken by a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP_N):
        total += i * i
    return time.perf_counter() - start


class SpeedClock:
    """Converts child timings to seconds at the reference speed.

    Shared machines change speed by tens of percent over seconds, and CPU
    time inflates with wall time, so raw pass times of one program drift
    more than the changes worth detecting. The reference loop is timed in
    this process before and after every child; a child's time is scaled by
    REFERENCE_LOOP_S over the mean of the two loop times around it.
    """

    def __init__(self):
        self.loops = [reference_loop()]

    def factor(self):
        """Scale for the child that just ended."""
        self.loops.append(reference_loop())
        return 2.0 * REFERENCE_LOOP_S / (self.loops[-2] + self.loops[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(samples, units, reported=None):
    """Median as the metric value, quartiles and sample count as the stats.

    Only the ``reported`` samples (all when None) become metrics.
    """
    metrics, stats = {}, {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        stats[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": units[name]}
        if reported is None or name in reported:
            metrics[name] = {"value": median, "unit": units[name]}
    return metrics, stats


E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RAW_UNITS = {"wall_raw_s": "s", "cpu_raw_s": "s", "setup_raw_s": "s", "reference_loop_s": "s"}


def timed(work, seconds):
    # compile bytecode and warm the file cache before anything is timed
    spawn(cli_argv("validate", "--config", work.ops[0]["config_path"]), work.env, os.devnull)
    units = {**E2E_UNITS, **RAW_UNITS}
    samples = {name: [] for name in units}
    clock = SpeedClock()
    for _ in range(SETUP_REPEATS):
        adjusted, raw = work.setup_seconds(clock)
        samples["setup_s"].append(adjusted)
        samples["setup_raw_s"].append(raw)
    start = time.perf_counter()
    while True:
        sums = dict.fromkeys(("wall_s", "cpu_s", "wall_raw_s", "cpu_raw_s"), 0.0)
        rss = 0.0
        for op in work.ops:
            wall, cpu, op_rss = work.run_cli("cli", op)
            factor = clock.factor()
            sums["wall_s"] += wall * factor
            sums["cpu_s"] += cpu * factor
            sums["wall_raw_s"] += wall
            sums["cpu_raw_s"] += cpu
            rss = max(rss, op_rss)
        for name, value in sums.items():
            samples[name].append(value)
        samples["peak_rss_mb"].append(rss)
        elapsed = time.perf_counter() - start
        passes = len(samples["wall_s"])
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    samples["reference_loop_s"] = clock.loops
    return summarize(samples, units, reported=E2E_UNITS)


def import_breakdown(work):
    """Cumulative import seconds per module, from `python -X importtime`."""
    wanted = {"numpy": "numpy", "scipy.optimize": "scipy_optimize", "click": "click"}
    samples = {f"import.{key}_s": [] for key in ["entroproj", *wanted.values()]}
    stderr_path = work.dir / "importtime.txt"
    for _ in range(IMPORT_REPEATS):
        argv = [sys.executable, "-X", "importtime", "-c", "import entroproj.cli"]
        code, _, _, _ = spawn(argv, work.env, os.devnull, stderr_path)
        if code != 0:
            work.wrong.append(f"import entroproj.cli exited {code}")
            return {}
        found = {}
        for line in _read(stderr_path).splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = line.split("|")
            module = module.strip()
            try:
                seconds = int(cumulative) / 1e6
            except ValueError:
                continue  # the header line
            key = "entroproj" if module.split(".")[0] == "entroproj" else wanted.get(module)
            if key:
                found[key] = max(found.get(key, 0.0), seconds)
        for key in ["entroproj", *wanted.values()]:
            samples[f"import.{key}_s"].append(found.get(key, 0.0))
    return samples


def run_in_process(cli, op, out):
    argv = ["run", "--config", op["config_path"],
            "--workers", str(workloads.WORKERS), "--out", str(out)]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            cli.main.main(args=argv, prog_name="entroproj", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, captured.getvalue()


def _tables(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.suffix == ".csv"}


def _manifest_wall(out):
    walls = [json.loads(p.read_text())["wall_time_s"] for p in out.glob("*.manifest.json")]
    return sum(walls)


def traced(work, seconds):
    sys.path.insert(0, str(SRC))
    import entroproj
    import entroproj.cli as cli

    if Path(entroproj.__file__).resolve().parent != SRC / "entroproj":
        raise SystemExit(f"perfbench: imported entroproj from {entroproj.__file__}, not {SRC}")
    start = time.perf_counter()
    plain_tables, plain_wall = {}, 0.0
    for op in work.ops:
        work.run_cli("cli", op)
        out = work.dir / "cli" / op["name"]
        plain_tables[op["name"]] = _tables(out)
        plain_wall += _manifest_wall(out)
    samples = import_breakdown(work)

    tracer = layertrace.Tracer(entroproj)
    snapshot = tracer.snapshot()
    passes = []
    traced_start = time.perf_counter()
    while True:
        tracer.reset()
        bytes_written, traced_wall = 0, 0.0
        with tracer:
            for op in work.ops:
                out = work.out_dir(f"trace{len(passes)}", op)
                code, stdout_text = run_in_process(cli, op, out)
                work.record(op, code, stdout_text)
                tables = _tables(out)
                if tables != plain_tables[op["name"]]:
                    work.wrong.append(f"{op['name']}: traced tables differ from the CLI run")
                # tables only: the manifest's size varies with its wall-time digits
                bytes_written += sum(len(data) for data in tables.values())
                traced_wall += _manifest_wall(out)
        if not tracer.restored(snapshot):
            work.wrong.append("the tracer left a wrapped binding behind")
        passes.append({
            "calls": dict(tracer.calls),
            "total_s": dict(tracer.total_s),
            "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts),
            "bytes_written": bytes_written,
            "overhead": traced_wall / plain_wall if plain_wall > 0 else 0.0,
        })
        elapsed = time.perf_counter() - start
        per_pass = (time.perf_counter() - traced_start) / len(passes)
        if len(passes) >= MIN_TRACED_PASSES and elapsed + per_pass > seconds:
            break

    first = passes[0]
    for later in passes[1:]:
        if (later["calls"], later["counts"], later["bytes_written"]) != (
                first["calls"], first["counts"], first["bytes_written"]):
            work.wrong.append("traced counts differ between passes")
    units = {name: "s" for name in samples}
    for layer, *_ in layertrace.LAYERS:
        samples[f"{layer}.calls"] = [p["calls"].get(layer, 0) for p in passes]
        samples[f"{layer}.self_s"] = [p["self_s"].get(layer, 0.0) for p in passes]
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"

    def count(p, key):
        return p["counts"].get(key, 0)

    def rate(numerator, denominator):
        return numerator / denominator if denominator > 0 else 0.0

    derived = {
        "cli.bytes_written": ("bytes", lambda p: p["bytes_written"]),
        "gibbs.exact_conditional.classes": (
            "count", lambda p: count(p, "gibbs.exact_conditional.classes")),
        "gibbs.exact_conditional.classes_per_s": ("1/s", lambda p: rate(
            count(p, "gibbs.exact_conditional.classes"),
            p["total_s"].get("gibbs.exact_conditional", 0.0))),
        "gibbs.exact_conditional.failed": (
            "count", lambda p: count(p, "gibbs.exact_conditional.failed")),
        "gibbs.run_conditional_mc.trials": (
            "count", lambda p: count(p, "gibbs.run_conditional_mc.trials")),
        "gibbs.run_conditional_mc.accept_ratio": ("ratio", lambda p: rate(
            count(p, "gibbs.run_conditional_mc.accepted"),
            count(p, "gibbs.run_conditional_mc.trials"))),
        "gibbs.run_conditional_mc.draws_per_s": ("1/s", lambda p: rate(
            count(p, "gibbs.run_conditional_mc.draws"),
            p["total_s"].get("gibbs.run_conditional_mc", 0.0))),
        "bridge.sinkhorn.iterations": ("count", lambda p: count(p, "bridge.sinkhorn.iterations")),
        "bridge.sinkhorn.s_per_iter": ("s", lambda p: rate(
            p["self_s"].get("bridge.sinkhorn", 0.0), count(p, "bridge.sinkhorn.iterations"))),
        "tritree.build_tree.nodes": ("count", lambda p: count(p, "tritree.build_tree.nodes")),
        "trace.overhead_ratio": ("ratio", lambda p: p["overhead"]),
    }
    for name, (unit, fn) in derived.items():
        samples[name] = [fn(p) for p in passes]
        units[name] = unit
    return summarize(samples, units)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entroproj" / "cli.py").is_file():
        print(f"perfbench: no entroproj sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # the traced run imports numpy in this process

    work = Workload(args.workload, args.seed)
    measure = traced if args.trace else timed
    metrics, stats = measure(work, args.seconds)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_ratio": work.failed / work.attempted if work.attempted else 0.0,
        "wrong": work.wrong,
        "stats": stats,
        "machine": machine_facts(),
    }, sort_keys=True))
    print(json.dumps({
        "correct": not work.wrong,
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
