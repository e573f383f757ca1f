"""I-projection under moment constraints via exponential tilting.

The minimizer of relative entropy over {nu : int F dnu in K} is an
exponential tilt of the base measure. This module computes it through the
convex dual: Newton iterations on the log partition function for point
targets, subgradient descent plus a Newton polish on the active face for box
targets. It also provides the quantitative enlargement schedules (sqrt(n)
and 1/n radii), two tail lower bounds, and a simplex-grid brute-force
projection used as an oracle in tests, driven by the same blocked
enumerator of integer compositions that gibbs uses for type classes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import linprog
from scipy.special import logsumexp

from .measures import FiniteMeasure, relative_entropy

_NEWTON_TOL = 1e-10
_NEWTON_CAP = 200
_SUBGRAD_ITERS = 400
_ACTIVE_TOL = 1e-7
# Rows per block of type-class (composition) enumeration: bounds the memory
# of the vectorized engines while keeping the Python loop over blocks short.
COMPOSITION_BLOCK_ROWS = 8192


class InfeasibleTargetError(ValueError):
    """The target set misses the convex hull of the moment map values.

    ``direction`` is a certificate: a vector u with <u, y> > max_i <u, F_i>
    for every y in the target set.
    """

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class SolverError(RuntimeError):
    """Dual iteration failed to converge within the iteration cap."""


@dataclass(frozen=True)
class Point:
    """Point target: the moment must equal x0 exactly."""

    x0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))

    @property
    def lo(self):
        return self.x0

    @property
    def hi(self):
        return self.x0


@dataclass(frozen=True)
class Box:
    """Box target: the moment must land in [lo, hi] componentwise."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same shape")
        if np.any(lo > hi):
            raise ValueError("box target needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class MomentProblem:
    """Base measure, moment map (one d-vector per support point), target set."""

    alpha: FiniteMeasure
    F: np.ndarray
    target: object

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        if F.ndim == 1:
            F = F[:, None]
        if not np.all(np.isfinite(F)):
            raise ValueError("moment map must be finite")
        if F.shape[0] != len(self.alpha.space):
            raise ValueError("moment map rows must match the support size")
        F = F.copy()
        F.setflags(write=False)
        object.__setattr__(self, "F", F)
        if not isinstance(self.target, (Point, Box)):
            raise TypeError("target must be a Point or a Box")
        if self.target.lo.shape != (F.shape[1],):
            raise ValueError("target dimension does not match the moment map")

    @property
    def dim(self):
        return self.F.shape[1]


@dataclass(frozen=True)
class TiltedSolution:
    """Solved dual: multiplier, tilted measure and its moment statistics.

    ``variance`` is the largest eigenvalue of the F-covariance under the
    tilted measure (the norm-variance proxy used by the sqrt(n) schedule);
    ``third_abs_moment`` is the centered absolute third moment, only defined
    for one-dimensional moment maps.
    """

    lambda_star: np.ndarray
    log_Z: float
    alpha_star: FiniteMeasure
    entropy: float
    moment: np.ndarray
    variance: float
    third_abs_moment: Optional[float]
    problem: MomentProblem = field(repr=False, compare=False)


@dataclass(frozen=True)
class ScheduleParams:
    """Enlargement radius schedule: kind 'sqrt_n' gives (1+1e-6) c/sqrt(n),
    kind 'inv_n' gives c/n. The constant c comes from the tilted solution
    (see schedule_from_solution)."""

    kind: str
    c: float
    a: Optional[float] = None
    margin: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("sqrt_n", "inv_n"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.c > 0:
            raise ValueError("schedule constant must be positive")

    def epsilon(self, n: int) -> float:
        if n < 1:
            raise ValueError("n must be a positive integer")
        if self.kind == "sqrt_n":
            return (1.0 + 1e-6) * self.c / math.sqrt(n)
        return self.c / n


def log_laplace(problem: MomentProblem, lam):
    """Log partition value, gradient and hessian at the multiplier lam.

    value = log sum alpha_i e^{<lam, F_i>}; the gradient is the tilted mean
    of F and the hessian the tilted covariance (positive semidefinite).
    Shifted exponentials guard against overflow.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    scores = problem.F @ lam
    value = float(logsumexp(scores, b=problem.alpha.weights))
    logs = np.where(problem.alpha.weights > 0,
                    np.log(np.where(problem.alpha.weights > 0,
                                    problem.alpha.weights, 1.0)) + scores - value,
                    -np.inf)
    p = np.exp(logs)
    grad = p @ problem.F
    centered = problem.F - grad
    hess = centered.T @ (p[:, None] * centered)
    hess = 0.5 * (hess + hess.T)
    return value, grad, hess


def tilt(alpha: FiniteMeasure, F, lam) -> FiniteMeasure:
    """Exponential tilt: weights proportional to alpha_i e^{<lam, F_i>}."""
    F = np.asarray(F, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    scores = F @ lam
    shift = float(np.max(scores))
    w = alpha.weights * np.exp(scores - shift)
    return FiniteMeasure(alpha.space, w / w.sum())


def _hull_certificate(problem: MomentProblem, lo, hi, tol=1e-11):
    """None when some simplex measure puts its moment inside [lo, hi];
    otherwise a separating direction (the infeasibility certificate).

    Solves max t s.t. min_{y in box} <u, y> - <u, F_i> >= t for all i,
    with  |u|_inf <= 1. Strict positivity of t certifies separation.
    """
    F = problem.F
    npts, d = F.shape
    # variables: u (d), m (d), t (1); minimize -t
    c = np.zeros(2 * d + 1)
    c[-1] = -1.0
    rows = []
    rhs = []
    for j in range(d):  # m_j <= u_j lo_j and m_j <= u_j hi_j
        row = np.zeros(2 * d + 1)
        row[d + j] = 1.0
        row[j] = -lo[j]
        rows.append(row)
        rhs.append(0.0)
        row = np.zeros(2 * d + 1)
        row[d + j] = 1.0
        row[j] = -hi[j]
        rows.append(row)
        rhs.append(0.0)
    for i in range(npts):  # t - sum m + <u, F_i> <= 0
        row = np.zeros(2 * d + 1)
        row[-1] = 1.0
        row[d:2 * d] = -1.0
        row[:d] = F[i]
        rows.append(row)
        rhs.append(0.0)
    bounds = [(-1.0, 1.0)] * d + [(None, None)] * d + [(None, None)]
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"feasibility LP failed: {res.message}")
    t_star = -float(res.fun)
    if t_star > tol:
        return res.x[:problem.dim]
    return None


def _finalize(problem: MomentProblem, lam) -> TiltedSolution:
    value, grad, hess = log_laplace(problem, lam)
    alpha_star = tilt(problem.alpha, problem.F, lam)
    if isinstance(problem.target, Point):
        entropy = float(np.dot(lam, problem.target.x0)) - value
    else:
        pinned = np.where(lam > 0, problem.target.lo, problem.target.hi)
        entropy = float(np.dot(lam, pinned)) - value
    entropy = max(entropy, 0.0)
    eigs = np.linalg.eigvalsh(hess)
    variance = max(float(eigs[-1]), 0.0)
    kappa = None
    if problem.dim == 1:
        centered = problem.F[:, 0] - grad[0]
        kappa = float(np.dot(alpha_star.weights, np.abs(centered) ** 3))
    return TiltedSolution(
        lambda_star=lam.copy(),
        log_Z=value,
        alpha_star=alpha_star,
        entropy=entropy,
        moment=grad,
        variance=variance,
        third_abs_moment=kappa,
        problem=problem,
    )


def _newton_point(problem, x0, lam0=None, active=None):
    """Newton with backtracking on Lambda(lam) - <lam, x0>.

    ``active`` restricts the iteration to a coordinate subspace (used by the
    box polish); the remaining coordinates stay at their lam0 values.
    """
    d = problem.dim
    lam = np.zeros(d) if lam0 is None else np.array(lam0, dtype=float)
    act = np.arange(d) if active is None else np.asarray(active, dtype=int)

    def objective(l):
        v, _, _ = log_laplace(problem, l)
        return v - float(np.dot(l, x0))

    obj = objective(lam)
    for _ in range(_NEWTON_CAP):
        _, grad, hess = log_laplace(problem, lam)
        r = (grad - x0)[act]
        if np.linalg.norm(r) <= _NEWTON_TOL:
            return lam, True
        H = hess[np.ix_(act, act)]
        try:
            step = np.linalg.solve(H, r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(H, r, rcond=None)
        slope = float(np.dot(r, step))
        if slope <= 0:
            step = r
            slope = float(np.dot(r, r))
        if slope <= 1e-12:
            # inside the quadratic basin the Armijo decrease is below the
            # rounding noise of the objective, so backtracking would reject
            # perfectly good steps; take the raw Newton step instead
            cand = lam.copy()
            cand[act] = lam[act] - step
            cand_obj = objective(cand)
        else:
            t = 1.0
            for _ in range(60):
                cand = lam.copy()
                cand[act] = lam[act] - t * step
                cand_obj = objective(cand)
                if cand_obj <= obj - 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                return lam, False
        lam = cand
        obj = cand_obj
    _, grad, _ = log_laplace(problem, lam)
    converged = np.linalg.norm((grad - x0)[act]) <= _NEWTON_TOL
    return lam, converged


def _solve_point(problem: MomentProblem) -> TiltedSolution:
    x0 = problem.target.x0
    cert = _hull_certificate(problem, x0, x0)
    if cert is not None:
        raise InfeasibleTargetError(
            "point target lies outside the convex hull of the moment map",
            direction=cert,
        )
    lam, ok = _newton_point(problem, x0)
    if not ok:
        raise SolverError(
            "Newton iteration did not reach the gradient tolerance; the "
            "target may sit on the boundary of the moment range"
        )
    return _finalize(problem, lam)


def _box_value_and_subgrad(problem, lo, hi, lam):
    value, grad, _ = log_laplace(problem, lam)
    inf_term = float(np.sum(np.where(lam > 0, lam * lo, lam * hi)))
    h = value - inf_term
    # minimal-norm subgradient: free coordinates may pick any y in [lo, hi]
    y = np.where(lam > 0, lo, np.where(lam < 0, hi, np.clip(grad, lo, hi)))
    return h, grad - y


def _solve_box(problem: MomentProblem) -> TiltedSolution:
    lo = problem.target.lo
    hi = problem.target.hi
    cert = _hull_certificate(problem, lo, hi)
    if cert is not None:
        raise InfeasibleTargetError(
            "box target does not meet the convex hull of the moment map",
            direction=cert,
        )
    _, base_moment, _ = log_laplace(problem, np.zeros(problem.dim))
    if np.all(base_moment >= lo - 1e-12) and np.all(base_moment <= hi + 1e-12):
        return _finalize(problem, np.zeros(problem.dim))

    # phase 1: Polyak subgradient descent on H(lam) = Lambda - inf_K <lam, y>
    lam = np.zeros(problem.dim)
    best_lam = lam.copy()
    best_h = _box_value_and_subgrad(problem, lo, hi, lam)[0]
    for k in range(_SUBGRAD_ITERS):
        h, g = _box_value_and_subgrad(problem, lo, hi, lam)
        if h < best_h:
            best_h = h
            best_lam = lam.copy()
        gn = float(np.dot(g, g))
        if gn <= 1e-24:
            break
        step = (h - best_h + 1.0 / (k + 10.0)) / gn
        lam = lam - step * g

    # phase 2: Newton polish on the face picked out by the multiplier signs
    lam = best_lam
    for _ in range(3 * problem.dim + 3):
        active = np.nonzero(np.abs(lam) > _ACTIVE_TOL)[0]
        if active.size == 0:
            lam = np.zeros(problem.dim)
            _, grad, _ = log_laplace(problem, lam)
            if np.all(grad >= lo - 1e-9) and np.all(grad <= hi + 1e-9):
                return _finalize(problem, lam)
            # pin the most violated coordinate and try again
            viol_lo = lo - grad
            viol_hi = grad - hi
            j = int(np.argmax(np.maximum(viol_lo, viol_hi)))
            lam = lam.copy()
            lam[j] = _ACTIVE_TOL * 2 * (1.0 if viol_lo[j] > viol_hi[j] else -1.0)
            continue
        pins = np.where(lam > 0, lo, hi)
        off = np.setdiff1d(np.arange(problem.dim), active)
        start = lam.copy()
        start[off] = 0.0
        polished, ok = _newton_point(problem, pins, lam0=start, active=active)
        # sign flips mean the face guess was wrong; an unattainable face
        # target makes the polish diverge and the divergence direction
        # crosses zero, so a failed run with a flip is also a face update
        flipped = [j for j in active
                   if polished[j] * (1.0 if pins[j] == lo[j] else -1.0) < 0]
        if not ok:
            if not flipped:
                raise SolverError("box dual polish did not converge")
            # drop the diverged iterate; release the flipped coordinates
            # and restart from the sane entry point of this round
            lam = start.copy()
            for j in flipped:
                lam[j] = 0.0
            continue
        _, grad, _ = log_laplace(problem, polished)
        outside = [j for j in off
                   if grad[j] < lo[j] - 1e-9 or grad[j] > hi[j] + 1e-9]
        if not flipped and not outside:
            return _finalize(problem, polished)
        lam = polished.copy()
        for j in flipped:
            lam[j] = 0.0
        for j in outside:
            lam[j] = _ACTIVE_TOL * 2 * (1.0 if grad[j] < lo[j] else -1.0)
    raise SolverError("box dual active-face iteration did not settle")


def solve_dual(problem: MomentProblem) -> TiltedSolution:
    """I-projection of the base measure onto {nu : int F dnu in target}.

    Point targets run damped Newton until the tilted moment matches x0 to
    1e-10. Box targets minimize the piecewise-smooth dual by subgradient
    descent with Polyak steps, then polish with Newton on the active face.
    Raises InfeasibleTargetError (with a separating direction) when the
    target misses the convex hull of the moment values, and SolverError on
    non-convergence.
    """
    if isinstance(problem.target, Point):
        return _solve_point(problem)
    return _solve_box(problem)


def composition_blocks(total, parts):
    """Yield every vector of ``parts`` nonnegative integers summing to
    ``total``, in lexicographic order, as int64 arrays of at most
    COMPOSITION_BLOCK_ROWS rows."""
    def extend(prefix):
        # each prefix followed by every entry that fits, in increasing order
        reps = total - prefix.sum(axis=1) + 1
        heads = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        return np.column_stack([np.repeat(prefix, reps, axis=0), heads])

    def walk(prefix):
        free = parts - prefix.shape[1]
        size = sum(math.comb(int(r) + free - 1, free - 1) for r in total - prefix.sum(axis=1))
        if size <= COMPOSITION_BLOCK_ROWS:
            while prefix.shape[1] < parts - 1:
                prefix = extend(prefix)
            yield np.column_stack([prefix, total - prefix.sum(axis=1)])
        elif len(prefix) == 1:
            yield from walk(extend(prefix))
        else:
            yield from walk(prefix[:len(prefix) // 2])
            yield from walk(prefix[len(prefix) // 2:])

    yield from walk(np.zeros((1, 0), dtype=np.int64))


def brute_force_projection(problem: MomentProblem, grid_step: float):
    """Exhaustive entropy minimization over the probability simplex grid.

    The oracle for the dual solver: scans every grid measure (resolution
    grid_step) on supports of at most 4 points and returns the feasible one
    with minimal relative entropy. Point targets accept a moment within
    grid_step in the sup norm (an exact hit is generally impossible on a
    grid). Cost grows like (1/grid_step)^(support-1).
    """
    n = len(problem.alpha.space)
    if n > 4:
        raise ValueError("brute-force projection is limited to 4 support points")
    if grid_step < 1e-3:
        raise ValueError("grid_step below 1e-3 is not supported")
    M = max(1, round(1.0 / grid_step))
    alpha_w = problem.alpha.weights
    lo = problem.target.lo
    hi = problem.target.hi
    tol = grid_step if isinstance(problem.target, Point) else 1e-12

    log_alpha = np.where(alpha_w > 0, np.log(np.where(alpha_w > 0, alpha_w, 1.0)), 0.0)
    best_entropy = math.inf
    best_weights = None
    for block in composition_blocks(M, n):
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


def schedule_from_solution(solution: TiltedSolution, kind: str,
                           a: float = 1.0, margin: float = 1.1) -> ScheduleParams:
    """Build the enlargement schedule whose constant matches the solution."""
    if kind == "sqrt_n":
        c = math.sqrt(a * solution.variance)
        return ScheduleParams(kind="sqrt_n", c=c, a=a)
    if kind == "inv_n":
        c = enlargement_berry_esseen(solution, 1, margin=margin)
        return ScheduleParams(kind="inv_n", c=c, margin=margin)
    raise ValueError(f"unknown schedule kind {kind!r}")


def enlargement_sqrt(solution: TiltedSolution, a: float = 1.0, n: int = 1) -> float:
    """Radius (1+1e-6) sqrt(a Var) / sqrt(n), strictly above the critical
    constant as the sqrt(n) regime requires. ``a`` is the type-2 constant of
    the ambient norm (1 for Euclidean)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if a <= 0:
        raise ValueError("type-2 constant must be positive")
    return (1.0 + 1e-6) * math.sqrt(a * solution.variance) / math.sqrt(n)


def enlargement_berry_esseen(solution: TiltedSolution, n: int, margin: float = 1.1) -> float:
    """Radius c/n with c = margin * 10 sqrt(2 pi) kappa / sigma^3.

    Only defined for one-dimensional moment maps with positive variance;
    margin > 1 keeps the constant strictly above the critical value.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if solution.third_abs_moment is None:
        raise ValueError("the 1/n schedule needs a one-dimensional moment map")
    sigma = math.sqrt(solution.variance)
    if sigma <= 0:
        raise ValueError("the 1/n schedule needs positive variance")
    c = margin * 10.0 * math.sqrt(2.0 * math.pi) * solution.third_abs_moment / sigma ** 3
    return c / n


def yurinskii_tail(b: float, M: float, n: int, t: float) -> float:
    """Bernstein-type tail exp(-(1/8) n t^2 / (b^2 + t M))."""
    if b <= 0 or M <= 0 or t <= 0:
        raise ValueError("b, M and t must be positive")
    return math.exp(-0.125 * n * t * t / (b * b + t * M))


def centering_lower_bound(solution: TiltedSolution, epsilon: float,
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
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if n < 1:
        raise ValueError("n must be a positive integer")
    lam_norm = float(np.linalg.norm(solution.lambda_star))
    return math.log(p_ball) / n - lam_norm * epsilon


def dst_lower_bound(entropy: float, p_in: float, n: int) -> float:
    """Lower bound -H (1-p)/p + (1/n) log p - 1/(n e (1-p)) on the
    normalized log-probability complement term, with p = P(L_n in A).

    p must lie strictly inside (0, 1): at the endpoints the formula
    degenerates (division by zero on one side, log 0 on the other)."""
    if not 0 < p_in < 1:
        raise ValueError("p_in must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return (-entropy * (1.0 - p_in) / p_in
            + math.log(p_in) / n
            - 1.0 / (n * math.e * (1.0 - p_in)))
