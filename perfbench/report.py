"""Print every benchmark metric for every workload in one table.

Run from the root of a checkout:

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--workload types ...]

For each workload it runs perfbench/run.py once untraced and once traced
and prints each metric with its unit, median, quartiles and sample count,
plus the failed-op ratio. It exits 1 if any run reports a wrong answer.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    all_correct = True
    machine = None
    for workload in args.workload:
        for trace in (0, 1):
            detail, result = run_once(workload, args.seed, args.seconds, trace)
            machine = detail["machine"]
            all_correct &= result["correct"]
            kind = "traced" if trace else "end to end"
            print(f"\n== {workload} ({kind}): correct={result['correct']} "
                  f"failed_ratio={detail['failed_ratio']:.4f} "
                  f"({result['failed']}/{result['attempted']} ops)")
            for problem in detail["wrong"]:
                print(f"   wrong: {problem}")
            print(f"   {'metric':<42} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
            for name, s in detail["stats"].items():
                print(f"   {name:<42} {s['unit']:>6} {s['median']:>14.6g} "
                      f"{s['q1']:>14.6g} {s['q3']:>14.6g} {s['n']:>3}")
    print("\nmachine:", json.dumps(machine, sort_keys=True))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
