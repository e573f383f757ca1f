"""Output checks for every op, and the benchmark's own exact enumeration.

An op passes when the CLI exits 0 and its tables pass the op's check. The
stored reference values (reference.json, written by make_reference.py)
are compared within a tolerance, never bytewise, so a rewrite that
reorders floating-point sums still passes.
"""
import csv
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# (rtol, atol) per op for the tables compared cell by cell.
TABLE_TOLERANCE = {
    "curve": (1e-9, 1e-15),
    "box": (1e-8, 1e-10),
    "cover": (0.0, 0.0),
    "gamma": (1e-9, 1e-14),
}
# Calibration stops its golden-section search at 1e-6 of the variance span,
# so theta and the entropy may move by that much under a new search order.
CALIBRATE_ATOL = 1e-5
# Monte Carlo p_event must lie within this many standard errors of the
# exact probability of the same event.
MC_STANDARD_ERRORS = 5.0
LOG_P_RTOL = 1e-9
BRIDGE_ENTROPY_RTOL = 1e-8


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def _cell(text):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def read_table(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return {"columns": rows[0], "rows": [[_cell(c) for c in row] for row in rows[1:]]}


def read_tables(manifest):
    """Every table the run wrote, keyed by table name, parsed from CSV."""
    return {name: read_table(path) for name, path in manifest["outputs"].items()}


def _close(actual, expected, rtol, atol):
    if isinstance(expected, str) or isinstance(actual, str):
        return actual == expected
    return abs(actual - expected) <= atol + rtol * abs(expected)


def compare_table(label, actual, expected, rtol, atol):
    if actual["columns"] != expected["columns"]:
        return [f"{label}: columns {actual['columns']} != {expected['columns']}"]
    if len(actual["rows"]) != len(expected["rows"]):
        return [f"{label}: {len(actual['rows'])} rows, expected {len(expected['rows'])}"]
    problems = []
    for i, (row, ref) in enumerate(zip(actual["rows"], expected["rows"])):
        for column, a, e in zip(expected["columns"], row, ref):
            if not _close(a, e, rtol, atol):
                problems.append(f"{label} row {i} {column}: {a!r} != {e!r}")
    return problems


def _fields(table):
    return {row[0]: row[1] for row in table["rows"]}


def radius(schedule, n):
    """The sqrt_n enlargement radius the library uses at block length n."""
    return (1.0 + 1e-6) * schedule["c"] / math.sqrt(n)


def exact_log_p(weights, values, x0, eps, n):
    """log P(|mean of an i.i.d. n-block - x0| <= eps) on a three-letter alphabet.

    ``values`` are the integer moment values of the letters. Sums the
    multinomial masses of the accepted type classes in exact integer
    arithmetic, taking the weights as the exact binary values of their
    floats, so nothing underflows however small the event is.
    """
    ratios = [Fraction(w) for w in weights]
    shift = max(r.denominator for r in ratios).bit_length() - 1
    # every weight is num / 2**e with e <= shift; scale all to 2**shift
    nums = [r.numerator * (2 ** shift // r.denominator) for r in ratios]
    lo, hi = Fraction(x0) - Fraction(eps), Fraction(x0) + Fraction(eps)
    total = 0
    for c1 in range(n + 1):
        for c2 in range(n - c1 + 1):
            c0 = n - c1 - c2
            mean = Fraction(c0 * values[0] + c1 * values[1] + c2 * values[2], n)
            if lo <= mean <= hi:
                total += (math.comb(n, c1) * math.comb(n - c1, c2)
                          * nums[0] ** c0 * nums[1] ** c1 * nums[2] ** c2)
    if total == 0:
        return -math.inf
    return math.log(total) - n * shift * math.log(2.0)


def check(op, tables, reference):
    """Problems with the tables of an op that exited 0; empty when it passed."""
    name = op["name"]
    kind = op["check"]
    if kind == "table":
        rtol, atol = TABLE_TOLERANCE[name]
        problems = []
        for table, expected in reference["tables"][name].items():
            if table not in tables:
                problems.append(f"{name}: table {table} missing")
                continue
            problems += compare_table(f"{name}.{table}", tables[table], expected, rtol, atol)
        return problems
    if kind == "calibrate":
        report = tables["report"]
        expected = reference["tables"][name]["report"]
        problems = compare_table(f"{name}.report", report, expected, 0.0, CALIBRATE_ATOL)
        slack = _fields(report).get("slack", math.inf)
        if not slack <= op["params"]["epsilon"]:
            problems.append(f"{name}: slack {slack!r} exceeds epsilon")
        return problems
    if kind == "log_p":
        rows, refs = tables["curve"]["rows"], reference["log_p_over_n"][name]
        problems = [] if len(rows) == len(refs) else [f"{name}: wrong number of rows"]
        for row, ref in zip(rows, refs):
            log_p_over_n = row[3]
            if not _close(log_p_over_n, ref, LOG_P_RTOL, 0.0):
                problems.append(f"{name} n={row[0]}: log_p_over_n {log_p_over_n!r} != {ref!r}")
        return problems
    if kind == "mc":
        rows, refs = tables["curve"]["rows"], reference["twin_p_event"][name]
        problems = [] if len(rows) == len(refs) else [f"{name}: wrong number of rows"]
        trials = op["params"]["trials"]
        for row, p in zip(rows, refs):
            n, p_hat = row[0], row[2]
            se = math.sqrt(p * (1.0 - p) / trials)
            if abs(p_hat - p) > MC_STANDARD_ERRORS * se:
                problems.append(f"{name} n={n}: p_event {p_hat!r} is not within "
                                f"{MC_STANDARD_ERRORS} standard errors of {p!r}")
            if row[5] != p_hat:
                problems.append(f"{name} n={n}: acceptance_rate differs from p_event")
        return problems
    if kind == "bridge":
        summary = _fields(tables["summary"])
        problems = []
        residual = summary["residual"]
        if not residual <= op["params"]["tol"]:
            problems.append(f"{name}: residual {residual!r} above tol")
        if not abs(summary["H_direct"] - summary["H_potentials"]) <= 10.0 * residual:
            problems.append(f"{name}: entropy routes differ by more than 10 residuals")
        ref = _fields(reference["tables"][name]["summary"])["H_direct"]
        if not _close(summary["H_direct"], ref, BRIDGE_ENTROPY_RTOL, 0.0):
            problems.append(f"{name}: H_direct {summary['H_direct']!r} != {ref!r}")
        if len(tables["history"]["rows"]) != summary["iterations"]:
            problems.append(f"{name}: history length differs from iterations")
        if len(tables["potentials"]["rows"]) != 2 * op["params"]["grid"]["num"]:
            problems.append(f"{name}: wrong number of potential rows")
        return problems
    raise ValueError(f"unknown check {kind!r}")


def outcome(op, code, stdout_text, reference):
    """Classify one CLI run as ("ok" | "known" | "failed", detail).

    "known" is the documented failure of an op that fails at this commit:
    it still counts as a failed op, but not as a wrong answer.
    """
    try:
        payload = json.loads(stdout_text.strip().splitlines()[-1])
    except (IndexError, ValueError):
        payload = {}
    if code != 0:
        known = op["known_failure"]
        if known and code == known["exit"] and payload.get("error") == known["error"]:
            return "known", payload.get("message", "")
        return "failed", f"{op['name']}: exit {code}: {stdout_text.strip()[-300:]}"
    try:
        problems = check(op, read_tables(payload), reference)
    except (KeyError, OSError, IndexError, TypeError, ValueError) as exc:
        problems = [f"{op['name']}: unreadable output: {type(exc).__name__}: {exc}"]
    if problems:
        return "failed", "; ".join(problems[:5])
    return "ok", ""
