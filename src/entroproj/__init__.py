"""Non-asymptotic entropy numerics on finite supports.

Entropy projections under moment constraints, conditional laws of i.i.d.
blocks given empirical-measure events, discrete entropic bridges, and
trinomial-lattice entropy calibration, with the metric toolbox (total
variation, bounded-Lipschitz, Prohorov, coverings) they lean on.
"""
from .measures import (
    CoveringReport,
    FiniteMeasure,
    MetricSpacePoints,
    SupportMismatchError,
    covering_bound_measures,
    covering_number,
    epsilon_schedule_metric,
    fm_distance,
    luxemburg_norm,
    prohorov_distance,
    relative_entropy,
    tv_distance,
    variational_entropy_lower,
    weighted_tv_ratio,
)
from .iproj import (
    Box,
    InfeasibleTargetError,
    MomentProblem,
    ScheduleParams,
    SolverError,
    TiltedSolution,
    brute_force_projection,
    centering_lower_bound,
    dst_lower_bound,
    enlargement_berry_esseen,
    enlargement_sqrt,
    log_laplace,
    schedule_from_solution,
    solve_dual,
    tilt,
    yurinskii_tail,
)
from .gibbs import (
    ConditionalEstimate,
    MetricBall,
    MomentBand,
    ZeroAcceptanceError,
    csiszar_bound_check,
    conditional_tv_curve,
    exact_conditional,
    exact_event_log_probability,
    exact_event_probability,
    metric_ball,
    moment_band,
    product_law,
    product_space,
    run_conditional_mc,
    sanov_sandwich,
)
from .bridge import (
    BridgePotentials,
    BridgeProblem,
    bridge_entropy,
    bridge_measure,
    gaussian_reference,
    marginal_schedule_check,
    sinkhorn,
    with_targets,
)
from .tritree import (
    CalibProblem,
    CalibrationInfeasible,
    CalibrationResult,
    LatticeSpec,
    TrinomialTree,
    VolSurface,
    I_rate,
    build_tree,
    calibrate,
    dl_gap,
    entropy_decomposition_check,
    epsilon0,
    expectation,
    gibbs_tree_mc,
    kernel,
    local_entropy,
    min_level_n0,
    path_marginal,
    q_rate,
    recover_coefficients,
    tilde_t_membership,
    tree_entropy_chain,
    tree_entropy_paths,
    tree_two_time_marginals,
    trinomial_weak_convergence_probe,
)

__version__ = "0.1.0"
