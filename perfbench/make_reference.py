"""Write reference.json, the values the benchmark's oracles compare against.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

Deterministic tables are taken from one CLI run of the current library.
The skewed op's log P / n and the Monte Carlo op's exact event
probabilities come from the benchmark's own exact-integer enumeration
(oracles.exact_log_p), not from the library; the latter are cross-checked
against the library's exact mode, which does not underflow there.
"""
import json
import math
import sys
import tempfile
from pathlib import Path

import oracles
import run
import workloads

SEED = 1


def cli_tables(config, out):
    config_path = Path(out) / "config.json"
    config_path.write_text(json.dumps(config))
    stdout_path = Path(out) / "stdout.txt"
    code, *_ = run.spawn(run.cli_argv("run", "--config", str(config_path), "--workers",
                                      str(workloads.WORKERS), "--out", out),
                         run.child_env(), stdout_path)
    if code != 0:
        raise SystemExit(f"reference run failed: {stdout_path.read_text()}")
    return oracles.read_tables(json.loads(stdout_path.read_text().splitlines()[-1]))


def event_log_p(params):
    values = [int(row[0]) for row in params["F"]]
    return [oracles.exact_log_p(params["alpha_weights"], values, params["x0"][0],
                                oracles.radius(params["schedule"], n), n)
            for n in params["n_list"]]


def main():
    reference = {"tables": {}, "log_p_over_n": {}, "twin_p_event": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name in sorted(workloads.WORKLOADS):
            for op in workloads.build(name, SEED):
                params = op["params"]
                if op["check"] == "log_p":
                    reference["log_p_over_n"][op["name"]] = [
                        log_p / n for log_p, n in zip(event_log_p(params), params["n_list"])]
                    continue
                if op["check"] == "mc":
                    twin_p = [math.exp(log_p) for log_p in event_log_p(params)]
                    exact_config = dict(op["config"], params=dict(params, mode="exact"))
                    library_p = [row[2] for row in
                                 cli_tables(exact_config, tmp)["curve"]["rows"]]
                    for ours, theirs in zip(twin_p, library_p):
                        if abs(ours - theirs) > 1e-9 * ours:
                            raise SystemExit(f"enumeration {ours!r} != library {theirs!r}")
                    reference["twin_p_event"][op["name"]] = twin_p
                    continue
                tables = cli_tables(op["config"], tmp)
                if op["check"] == "bridge":
                    tables = {"summary": tables["summary"]}
                reference["tables"][op["name"]] = tables
    with open(oracles.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(reference["log_p_over_n"]), json.dumps(reference["twin_p_event"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
