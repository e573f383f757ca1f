"""The package's public names, which load their submodules on first use."""

import ast
import importlib
from pathlib import Path

import pytest

import entroproj

from conftest import fresh_python

PUBLIC_NAMES = [
    "Box", "BridgePotentials", "BridgeProblem", "CalibProblem", "CalibrationInfeasible",
    "CalibrationResult", "ConditionalEstimate", "CoveringReport", "FiniteMeasure", "I_rate",
    "InfeasibleTargetError", "LatticeSpec", "MetricBall", "MetricSpacePoints", "MomentBand",
    "MomentProblem", "ScheduleParams", "SolverError", "SupportMismatchError", "TiltedSolution",
    "TrinomialTree", "VolSurface", "ZeroAcceptanceError", "bridge_entropy", "bridge_measure",
    "brute_force_projection", "build_tree", "calibrate", "centering_lower_bound",
    "conditional_tv_curve", "covering_bound_measures", "covering_number",
    "csiszar_bound_check", "dl_gap", "dst_lower_bound", "entropy_decomposition_check",
    "epsilon0", "epsilon_schedule_metric", "exact_conditional", "exact_event_log_probability",
    "expectation", "fm_distance", "gaussian_reference", "kernel", "local_entropy",
    "log_laplace", "luxemburg_norm", "marginal_schedule_check", "min_level_n0",
    "path_marginal", "product_law", "product_space", "prohorov_distance", "q_rate",
    "relative_entropy", "run_conditional_mc", "sanov_sandwich", "schedule_from_solution",
    "sinkhorn", "solve_dual", "tilt", "tree_entropy_chain", "tree_entropy_paths",
    "tv_distance", "variational_entropy_lower", "weighted_tv_ratio", "yurinskii_tail",
]
SUBMODULES = ["bounds", "bridge", "gibbs", "iproj", "measures", "tritree"]


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 67
    assert sorted(entroproj.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) | set(SUBMODULES) <= set(dir(entroproj))


def test_each_name_is_its_submodule_object():
    for name in PUBLIC_NAMES:
        value = getattr(entroproj, name)
        assert value.__module__ in {f"entroproj.{m}" for m in SUBMODULES}, name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert entroproj.__dict__[name] is value, name  # bound on first read
    for name in SUBMODULES:
        assert getattr(entroproj, name) is importlib.import_module(f"entroproj.{name}")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from entroproj import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        entroproj.no_such_name
    with pytest.raises(ImportError):
        from entroproj import no_such_name  # noqa: F401
    assert not hasattr(entroproj, "_MISSING")


@pytest.mark.parametrize("module", ["bridge", "gibbs", "iproj", "measures"])
def test_experiment_modules_load_neither_bounds_nor_distances(module):
    # no CLI run executes the bounds or the distance toolbox, so no module an
    # experiment imports may load them at its top level: every CLI process
    # would compile them again
    probe = fresh_python("-c", f"import sys, entroproj.{module}; print(*sorted("
                               "m for m in sys.modules if m.startswith('entroproj.')))")
    assert probe.returncode == 0, probe.stderr
    loaded = probe.stdout.split()
    assert f"entroproj.{module}" in loaded
    assert "entroproj.bounds" not in loaded


def _imports_the_package(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or node.module.split(".")[0] == "entroproj"
    return isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "entroproj" for alias in node.names)


def test_no_library_module_imports_a_sibling_inside_a_function():
    # a module's siblings are imported at its top, so its import edges are
    # all in one place; only cli's parsers import theirs when they run, so
    # that a process loads just the modules its experiment computes with
    local = set()
    for path in sorted(Path(entroproj.__file__).parent.glob("*.py")):
        if path.stem == "cli":
            continue
        for scope in ast.walk(ast.parse(path.read_text())):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local.update(f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                             if _imports_the_package(node))
    assert not local
