"""The paper's non-asymptotic bounds, their checks and a brute-force oracle.

Tail and certified lower bounds for the I-projection's event, the covering
bound and epsilon schedule on the measure level, the Sanov sandwich and the
Csiszar information inequality for conditioned blocks, the empirical
marginal-schedule check behind conditioned bridges, and a simplex-grid
projection that the tests use as an oracle for the dual solver. The
criteria and the tests call them; no experiment does, so no CLI run loads
this module.
"""
from __future__ import annotations

import math
import numbers
import warnings

import numpy as np

from . import gibbs, iproj
from .distances import relative_entropy
from .measures import FiniteMeasure

_GRID_RATIO = 0.95
_GRID_DEPTH = 400


def yurinskii_tail(b: float, M: float, n: int, t: float) -> float:
    """Bernstein-type tail exp(-(1/8) n t^2 / (b^2 + t M))."""
    if not (b > 0 and M > 0 and t > 0):
        raise ValueError("b, M and t must be positive")
    if not n >= 1:
        raise ValueError("n must be a positive integer")
    return math.exp(-0.125 * n * t * t / (b * b + t * M))


def centering_lower_bound(solution: iproj.TiltedSolution, epsilon: float,
                          p_ball: float, n: int) -> float:
    """Certified lower bound (1/n) log p_ball - |lambda*| epsilon for
    (1/n) log(P(L_n in C_eps) e^{n H}).

    p_ball is the caller-estimated probability, under the tilted measure,
    that the empirical F-mean lands within epsilon of its target. The
    original recipe leaves n implicit in the normalization; it is an
    explicit argument here.
    """
    if not 0 < p_ball <= 1:
        raise ValueError("p_ball must lie in (0, 1]")
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    if not n >= 1:
        raise ValueError("n must be a positive integer")
    lam_norm = float(np.linalg.norm(solution.lambda_star))
    return math.log(p_ball) / n - lam_norm * epsilon


def dst_lower_bound(entropy: float, p_in: float, n: int) -> float:
    """Lower bound -H (1-p)/p + (1/n) log p - 1/(n e (1-p)) on the
    normalized log-probability complement term, with p = P(L_n in A).

    p must lie strictly inside (0, 1): at the endpoints the formula
    degenerates (division by zero on one side, log 0 on the other)."""
    if not entropy >= 0:
        raise ValueError("entropy must be nonnegative")
    if not 0 < p_in < 1:
        raise ValueError("p_in must lie strictly between 0 and 1")
    if not n >= 1:
        raise ValueError("n must be a positive integer")
    return (-entropy * (1.0 - p_in) / p_in
            + math.log(p_in) / n
            - 1.0 / (n * math.e * (1.0 - p_in)))


def brute_force_projection(problem: iproj.MomentProblem, grid_step: float):
    """Exhaustive entropy minimization over the probability simplex grid.

    The oracle for the dual solver: scans every grid measure (resolution
    grid_step) on supports of at most 4 points, in blocks from the
    composition enumerator gibbs walks type classes with, and returns the
    feasible one with minimal relative entropy. A thin coordinate
    (lo == hi) accepts a moment within grid_step times the spread of its
    column of F, the distance in it between neighbouring grid measures (an
    exact hit is generally impossible on a grid). Cost grows like
    (1/grid_step)^(support-1).
    """
    n = len(problem.alpha.space)
    if n > 4:
        raise ValueError("brute-force projection is limited to 4 support points")
    if not grid_step >= 1e-3:
        raise ValueError("grid_step below 1e-3 is not supported")
    M = max(1, round(1.0 / grid_step))
    alpha_w = problem.alpha.weights
    lo, hi = problem.target.lo, problem.target.hi
    tol = np.where(lo == hi, grid_step * np.ptp(problem.F, axis=0), 0.0) + 1e-12

    log_alpha = np.where(alpha_w > 0, np.log(np.where(alpha_w > 0, alpha_w, 1.0)), 0.0)
    best_entropy, best_weights = math.inf, None
    for block in iproj.composition_blocks(M, n):
        W = block / M
        moments = W @ problem.F
        feasible = np.all(moments >= lo - tol, axis=1) & np.all(moments <= hi + tol, axis=1)
        if problem.alpha.weights.min() <= 0:
            feasible &= ~np.any((W > 0) & (alpha_w == 0), axis=1)
        if not np.any(feasible):
            continue
        Wf = W[feasible]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(Wf > 0, Wf * (np.log(np.where(Wf > 0, Wf, 1.0)) - log_alpha), 0.0)
        ent = terms.sum(axis=1)
        i = int(np.argmin(ent))
        if ent[i] < best_entropy:
            best_entropy = float(ent[i])
            best_weights = Wf[i]
    if best_weights is None:
        raise ValueError("no feasible grid point at this resolution")
    return FiniteMeasure(problem.alpha.space, best_weights), max(best_entropy, 0.0)


def covering_bound_measures(n_cover: int, epsilon: float, metric_kind: str) -> float:
    """Covering bound on the measure level: (2e/eps)^N for the Prohorov
    metric and (4e/eps)^N for Fortet-Mourier; the caller supplies the
    covering count N appropriate for the chosen metric. A bound beyond the
    float range is returned as inf, which still bounds.
    """
    if isinstance(n_cover, bool) or not isinstance(n_cover, numbers.Integral) or n_cover < 0:
        raise ValueError("n_cover must be a nonnegative integer")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if metric_kind == "prohorov":
        base = 2.0 * math.e / epsilon
    elif metric_kind == "fortet_mourier":
        base = 4.0 * math.e / epsilon
    else:
        raise ValueError(f"unknown metric kind {metric_kind!r}")
    try:
        return base ** int(n_cover)
    except OverflowError:
        return math.inf


def epsilon_schedule_metric(covering_fn, n: int) -> float:
    """Smallest epsilon on the geometric grid 0.95^k (from 1 down) with

        n eps^2 / 8 + log(eps) * covering_fn(eps/8) >= sqrt(n).

    covering_fn maps a radius to a covering count and should be
    nonincreasing. When no grid point satisfies the criterion the grid
    floor is returned with a warning.
    """
    if not n >= 1:
        raise ValueError("n must be a positive integer")
    root_n = math.sqrt(n)
    satisfying = []
    for k in range(_GRID_DEPTH + 1):
        eps = _GRID_RATIO ** k
        crit = n * eps * eps / 8.0 + math.log(eps) * covering_fn(eps / 8.0)
        if crit >= root_n:
            satisfying.append(eps)
    if not satisfying:
        warnings.warn("epsilon_schedule_metric: no grid point satisfies the criterion; "
                      "returning the grid floor", stacklevel=2)
        return _GRID_RATIO ** _GRID_DEPTH
    return min(satisfying)


def sanov_sandwich(alpha: FiniteMeasure, solution, event_fn, n_list,
                   lower_bound_fn=None):
    """Table of (1/n) log P(L_n in event) against the entropy level.

    ``event_fn`` maps n to the conditioning event (the enlargement family),
    ``solution`` supplies H = H(C | alpha) for the limiting constraint set.
    Each row records the normalized log-probability, -H, the slack
    (1/n) log P + H, and, when ``lower_bound_fn`` is given, the certified
    lower bound together with whether it is respected.
    """
    rows = []
    H = solution.entropy
    for n in n_list:
        log_p = gibbs.exact_event_log_probability(alpha, n, event_fn(n))
        log_p_over_n = log_p / n
        row = {
            "n": n,
            "p_event": math.exp(log_p),
            "log_p_over_n": log_p_over_n,
            "neg_entropy": -H,
            "slack": log_p_over_n + H,
        }
        if lower_bound_fn is not None:
            lb = lower_bound_fn(n)
            row["lower_bound"] = lb
            row["ok_lower"] = bool(log_p_over_n >= lb - 1e-12)
        rows.append(row)
    return rows


def csiszar_bound_check(alpha: FiniteMeasure, n: int, event, k: int,
                        alpha_star: FiniteMeasure, H_event: float):
    """Information inequality for the conditioned block law.

    lhs is the relative entropy of the exact conditional k-law with respect
    to the k-fold product of the projection alpha_star; rhs is
    -(1/floor(n/k)) log(P(event) e^{n H_event}). Returns (lhs, rhs, ok)
    with ok = lhs <= rhs + 1e-9. The integer bracket is read as floor.
    """
    if not (isinstance(k, numbers.Integral) and k >= 1):
        raise ValueError("window k must be a positive integer")
    est = gibbs.exact_conditional(alpha, n, event, k)
    lhs = relative_entropy(est.law, gibbs.product_law(alpha_star, k))
    rhs = -(est.log_acceptance + n * H_event) / math.floor(n / k)
    return lhs, rhs, bool(lhs <= rhs + 1e-9)


def marginal_schedule_check(nu: FiniteMeasure, metric: str, epsilon_fn, n_list,
                            trials: int, seed: int):
    """Empirical P(d(L_n, nu) <= epsilon_n) for i.i.d.(nu) samples.

    Rows (n, epsilon, prob). The schedule condition behind total-variation
    convergence of conditioned bridges asks for this probability to reach 1
    along the sequence; a too-fast schedule shows up as a stalled column.
    """
    gen = gibbs.mc_stream(seed)
    rows = []
    for n in n_list:
        ball = gibbs.metric_ball(nu, metric, float(epsilon_fn(n)))
        hits = int(gibbs._accepted_patterns(gen, nu, n, ball, 0, trials)[0])
        rows.append({"n": n, "epsilon": ball.radius, "prob": hits / trials})
    return rows
