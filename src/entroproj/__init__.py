"""Non-asymptotic entropy numerics on finite supports.

Entropy projections under moment constraints, conditional laws of i.i.d.
blocks given empirical-measure events, discrete entropic bridges, and
trinomial-lattice entropy calibration, with the metric toolbox (total
variation, bounded-Lipschitz, Prohorov, coverings) they lean on and the
paper's non-asymptotic bounds on them.

The submodules load on first use (PEP 562), so a CLI run compiles only
the modules its experiment needs; ``entroproj.solve_dual`` and
``entroproj.iproj`` import ``iproj`` the first time either is read.
"""
__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "measures": (
        "CoveringReport", "FiniteMeasure", "MetricSpacePoints", "SupportMismatchError",
        "covering_number", "tv_distance",
    ),
    "iproj": (
        "Box", "InfeasibleTargetError", "MomentProblem", "ScheduleParams", "SolverError",
        "TiltedSolution", "log_laplace", "schedule_from_solution", "solve_dual", "tilt",
    ),
    "gibbs": (
        "ConditionalEstimate", "MomentBand", "ZeroAcceptanceError", "conditional_tv_curve",
        "exact_conditional", "exact_event_log_probability", "product_law", "product_space",
        "run_conditional_mc",
    ),
    "bridge": (
        "BridgePotentials", "BridgeProblem", "bridge_entropy", "bridge_measure",
        "gaussian_reference", "sinkhorn",
    ),
    "bounds": (
        "MetricBall", "brute_force_projection", "centering_lower_bound",
        "covering_bound_measures", "csiszar_bound_check", "dst_lower_bound",
        "epsilon_schedule_metric", "fm_distance", "luxemburg_norm", "marginal_schedule_check",
        "prohorov_distance", "relative_entropy", "sanov_sandwich", "variational_entropy_lower",
        "weighted_tv_ratio", "yurinskii_tail",
    ),
    "tritree": (
        "CalibProblem", "CalibrationInfeasible", "CalibrationResult", "LatticeSpec",
        "TrinomialTree", "VolSurface", "I_rate", "build_tree", "calibrate", "dl_gap",
        "entropy_decomposition_check", "epsilon0", "expectation", "kernel",
        "local_entropy", "min_level_n0", "path_marginal", "q_rate", "tree_entropy_chain",
        "tree_entropy_paths",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the submodule ``name``, or the one defining the public
    ``name``, and bind the result here so the next read is a plain lookup."""
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is what `python -X
    # importtime` reports, so the submodule's load time stays visible there
    value = __import__(f"{__name__}.{module}", fromlist=[name])
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})


def _frozen(a, ndmin=0):
    """The one way a record takes an array: ``a`` itself when it is a
    read-only float64 array that owns its data, else a read-only float64
    copy with at least ``ndmin`` dimensions. So no write through a caller's
    array can reach a record; code that builds a fresh array freezes it
    before handing it over, and it is adopted, not copied.

    An array handed over read-only must stay read-only: numpy lets its
    owner set ``write=True`` again, and the record would change with it."""
    import numpy as np  # here, so that importing the package loads no numpy

    if not (type(a) is np.ndarray and a.dtype == np.float64 and a.flags.owndata
            and not a.flags.writeable and a.ndim >= ndmin):
        a = np.array(a, dtype=np.float64, ndmin=ndmin)
        a = a if a.flags.owndata else a.copy()  # axes ndmin adds make a view
        a.setflags(write=False)
    return a
