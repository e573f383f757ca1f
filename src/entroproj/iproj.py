"""I-projection under moment constraints via exponential tilting.

The minimizer of relative entropy over {nu : int F dnu in K} is an
exponential tilt of the base measure. This module computes it through the
convex dual: one proximal-Newton loop on the log partition function plus
a weighted l1 term of the box half-widths. A point target is a zero-width
box, so its l1 term vanishes. It also provides the
quantitative enlargement schedules (sqrt(n) and 1/n radii), the simplex LP
behind the hull test, and the blocked enumerator of integer compositions
that gibbs walks type classes with.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _frozen
from .measures import FiniteMeasure, _table, logsumexp

_NEWTON_TOL = 1e-10
_NEWTON_CAP = 200
# Rows per block of type-class (composition) enumeration: bounds the memory
# of the vectorized engines while keeping the Python loop over blocks short.
COMPOSITION_BLOCK_ROWS = 8192
# Pivot cap of the simplex per column: a run this long means rounding broke
# the anti-cycling guarantee.
_PIVOTS_PER_COLUMN = 50


class InfeasibleTargetError(ValueError):
    """The target set misses the convex hull of the moment map values F_i
    over the support of alpha (the rows with alpha_i > 0).

    ``direction`` is a certificate: a vector u with |u|_inf <= 1 and
    <u, y> > max_i <u, F_i> over the support, for every y in the target set.
    """

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class SolverError(RuntimeError):
    """Dual iteration failed to converge within the iteration cap."""


@dataclass(frozen=True)
class Box:
    """Box target: the moment must land in [lo, hi] componentwise. A
    coordinate with lo == hi is thin: the moment must equal it exactly."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = _frozen(self.lo, 1), _frozen(self.hi, 1)
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same shape")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("target must be finite")
        if np.any(lo > hi):
            raise ValueError("box target needs lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, x0) -> "Box":
        """The thin target {x0}: the zero-width box [x0, x0], one array."""
        x0 = _frozen(x0, 1)
        return cls(x0, x0)


@dataclass(frozen=True)
class MomentProblem:
    """Base measure, moment map (one d-vector per support point), target set."""

    alpha: FiniteMeasure
    F: np.ndarray
    target: object

    def __post_init__(self):
        F = _table(self.F)
        if not np.all(np.isfinite(F)):
            raise ValueError("moment map must be finite")
        if F.shape[0] != len(self.alpha.space):
            raise ValueError("moment map rows must match the support size")
        object.__setattr__(self, "F", F)
        if not isinstance(self.target, Box):
            raise TypeError("target must be a Box")
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

    def __post_init__(self):
        for name in ("lambda_star", "moment"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True)
class ScheduleParams:
    """Enlargement radius schedule: kind 'sqrt_n' gives (1+1e-6) c/sqrt(n),
    kind 'inv_n' gives c/n. The constant c comes from the tilted solution
    (see schedule_from_solution)."""

    kind: str
    c: float

    def __post_init__(self):
        if self.kind not in ("sqrt_n", "inv_n"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.c > 0:
            raise ValueError("schedule constant must be positive")

    def epsilon(self, n: int) -> float:
        if not n >= 1:
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
    F = _table(F)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    # massless atoms stay out of the exponent: a far heavier one would
    # underflow every weight to zero, or overflow to inf times zero
    mass = alpha.weights > 0
    scores = (F @ lam)[mass]
    w = np.zeros(len(alpha.weights))
    w[mass] = alpha.weights[mass] * np.exp(scores - float(np.max(scores)))
    w /= w.sum()
    w.setflags(write=False)
    return FiniteMeasure(alpha.space, w)


def linprog(c, A, b, basis):
    """Minimize c.x subject to A x = b, x >= 0, from the feasible basis
    ``basis`` (one column index per row of A), by the revised simplex method.

    The most negative reduced cost enters, except after a zero-length step
    (within the tie tolerance), where the lowest-index improving column
    enters; the lowest-index tied column leaves. Every step of a cycle has
    zero length, so a cycle would take Bland's pivots only, which cannot
    cycle (Math. Oper. Res. 2, 1977). Returns the optimal value and the row
    duals y, with A^T y <= c and b.y = value. Callers use this module
    binding, which the benchmark's layer trace wraps.
    """
    basis = list(basis)
    tol = 1e-12 * (1.0 + float(np.abs(A).max()))
    step = math.inf  # the length of the last step
    for _ in range(_PIVOTS_PER_COLUMN * A.shape[1]):
        B = A[:, basis]
        x = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, c[basis])
        reduced = c - A.T @ y
        improving = np.flatnonzero(reduced < -tol)
        if improving.size == 0:
            return float(c[basis] @ x), y
        entering = improving[0] if step <= tol else np.argmin(reduced)
        column = np.linalg.solve(B, A[:, entering])
        rows = np.flatnonzero(column > 1e-11)
        if rows.size == 0:
            raise RuntimeError("revised simplex LP failed: the objective is unbounded below")
        ratios = np.maximum(x[rows], 0.0) / column[rows]
        step = ratios.min()
        tied = rows[ratios <= step + tol]
        basis[min(tied, key=basis.__getitem__)] = entering
    raise RuntimeError("revised simplex LP failed: no optimal basis within the pivot cap")


def _hull_certificate(problem: MomentProblem, lo, hi, tol=1e-11):
    """None when some measure on the support of alpha puts its moment inside
    [lo, hi]; otherwise a separating direction (the infeasibility
    certificate).

    The LP finds t*, the l1 distance between the box and the convex hull of
    the rows F_i with alpha_i > 0: minimize sum(p + q) subject to
    F^T w - z + p - q = lo, sum w = 1, z + r = hi - lo, all variables >= 0,
    starting from w at the support row nearest lo in l1. By duality t* is
    also max min_{y in box} <u, y> - max_i <u, F_i> over |u|_inf <= 1, and
    the moment-row duals are a maximizing u. t* > tol certifies separation.
    """
    F = problem.F[problem.alpha.weights > 0]
    m, d = F.shape
    eye, zero = np.eye(d), np.zeros((d, d))
    A = np.block([[F.T, -eye, eye, -eye, zero],
                  [np.ones((1, m)), np.zeros((1, 4 * d))],
                  [np.zeros((d, m)), eye, zero, zero, eye]])
    b = np.concatenate([lo, [1.0], hi - lo])
    c = np.concatenate([np.zeros(m + d), np.ones(2 * d), np.zeros(d)])
    # w = e_k with p or q absorbing lo - F_k and r = hi - lo is feasible
    k = int(np.argmin(np.abs(F - lo).sum(axis=1)))
    gap_columns = np.where(lo >= F[k], m + d, m + 2 * d) + np.arange(d)
    basis = [k, *gap_columns, *(m + 3 * d + np.arange(d))]
    t_star, duals = linprog(c, A, b, basis)
    if t_star > tol:
        return np.clip(duals[:d], -1.0, 1.0)
    return None


def _finalize(problem: MomentProblem, lam) -> TiltedSolution:
    value, grad, hess = log_laplace(problem, lam)
    alpha_star = tilt(problem.alpha, problem.F, lam)
    # the dual value inf_{y in target} <lam, y> - Lambda(lam)
    pinned = np.where(lam > 0, problem.target.lo, problem.target.hi)
    entropy = max(float(np.dot(lam, pinned)) - value, 0.0)
    eigs = np.linalg.eigvalsh(hess)
    variance = max(float(eigs[-1]), 0.0)
    kappa = None
    if problem.dim == 1:
        centered = problem.F[:, 0] - grad[0]
        kappa = float(np.dot(alpha_star.weights, np.abs(centered) ** 3))
    grad.setflags(write=False)  # fresh from log_laplace: adopted, not copied
    return TiltedSolution(lambda_star=_frozen(lam), log_Z=value, alpha_star=alpha_star,
                          entropy=entropy, moment=grad, variance=variance,
                          third_abs_moment=kappa, problem=problem)


def _descend(evaluate, lam, obj, step, decrease):
    """lam + t step and its evaluation for the first t = 1, 1/2, ... (at most
    60 halvings) that passes the Armijo test on the first-order decrease,
    or None. Inside the quadratic basin the decrease is below the rounding
    noise of the objective, so the full step is taken untested."""
    if decrease >= -1e-12:
        cand = lam + step
        return cand, evaluate(cand)
    t = 1.0
    for _ in range(60):
        cand = lam + t * step
        value = evaluate(cand)
        if value[0] <= obj + 1e-4 * t * decrease:
            return cand, value
        t *= 0.5
    return None


def _model_minimizer(hess, g, lam, w, frozen):
    """Minimizer over mu of <g, mu - lam> + (mu - lam).hess.(mu - lam)/2
    + sum_j w_j |mu_j|, the frozen coordinates held at lam, by a primal
    active-set method: a linear solve minimizes the model on the free
    coordinates with their signs fixed; the walk toward it stops where a
    weighted coordinate reaches zero, which then leaves the free set; at a
    free minimizer the zero coordinate that most violates optimality enters.
    """
    mu, sign = lam.copy(), np.sign(lam)
    free = ~frozen & ((w == 0) | (lam != 0))
    for _ in range(_NEWTON_CAP):
        S = np.flatnonzero(free)
        delta = np.zeros_like(mu)
        rhs = -(g + hess @ (mu - lam) + w * sign)[S]
        delta[S] = np.linalg.solve(hess[np.ix_(S, S)], rhs)
        crossing = free & (w > 0) & (sign * delta < 0)
        reach = np.full(len(mu), np.inf)
        reach[crossing] = -mu[crossing] / delta[crossing]
        j = int(np.argmin(reach))
        if reach[j] < 1.0:
            mu = mu + reach[j] * delta
            mu[j], free[j] = 0.0, False
            continue
        mu = mu + delta
        r = g + hess @ (mu - lam)
        excess = np.where(free | frozen, -np.inf, np.abs(r) - w)
        j = int(np.argmax(excess))
        if excess[j] <= 1e-2 * _NEWTON_TOL:  # solved well past the outer tolerance
            break
        free[j], sign[j] = True, -np.sign(r[j])
    return mu


def solve_dual(problem: MomentProblem) -> TiltedSolution:
    """I-projection of the base measure onto {nu : int F dnu in target}.

    One proximal-Newton loop (Lee, Sun & Saunders, SIAM J. Optim. 24, 2014)
    serves both kinds of target; a point x0 is the zero-width box [x0, x0].
    The box dual uses min_{y in [lo, hi]} <lam, y> = <lam, c> - sum_j w_j
    |lam_j| with c = (lo + hi)/2 and w = (hi - lo)/2, so it is the point
    dual at c plus a weighted l1 term, which vanishes for a point. The loop
    runs until the minimum-norm subgradient is 1e-10: the moment is then in
    [lo, hi], at lo where lambda_j > 0 and at hi where lambda_j < 0. It also
    needs the Newton decrement sqrt(g' H^-1 g) on the free coordinates to
    reach 1e-10 (Boyd & Vandenberghe 2004, 9.5.1), or to stop falling. Raises
    InfeasibleTargetError (with a separating direction) when the target
    misses the convex hull of the moment values, and SolverError on
    non-convergence.
    """
    lo, hi = problem.target.lo, problem.target.hi
    cert = _hull_certificate(problem, lo, hi)
    if cert is not None:
        raise InfeasibleTargetError("target does not meet the convex hull of the moment map",
                                    direction=cert)
    c, w = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # the rounding noise of each Hessian diagonal entry. The model moves no
    # coordinate whose curvature is below it and whose subgradient is within
    # tolerance (a constant column); elsewhere it floors the curvature there,
    # so a direction the dual is flat along (two collinear columns, or a law
    # collapsed onto a face after an overlong step) takes a long but finite
    # step that the line search damps, or that stops at a kink of the l1 term
    noise = len(problem.F) * np.finfo(float).eps * np.abs(problem.F).max(axis=0) ** 2

    def evaluate(lam):
        value, grad, hess = log_laplace(problem, lam)
        return value - float(np.dot(lam, c)) + float(np.dot(w, np.abs(lam))), grad - c, hess

    lam = np.zeros(problem.dim)
    obj, g, hess = evaluate(lam)
    last = math.inf
    for _ in range(_NEWTON_CAP):
        # the minimum-norm subgradient; at lam_j = 0 it soft-thresholds g_j
        shrunk = np.sign(g) * np.maximum(np.abs(g) - w, 0.0)
        subgradient = np.where(lam != 0, g + w * np.sign(lam), shrunk)
        frozen = (np.diag(hess) <= noise) & (np.abs(subgradient) <= _NEWTON_TOL)
        curvature = hess + np.diag(noise)
        if np.linalg.norm(subgradient) > _NEWTON_TOL:
            last = math.inf
        else:
            # the squared Newton decrement on the free coordinates. Near a
            # vertex the variance is tiny, and a small subgradient can still
            # leave lambda far off; once the decrement stops falling, the
            # moment's rounding sets its floor
            S = np.flatnonzero(~frozen & ((w == 0) | (lam != 0)))
            decrement = float(subgradient[S] @ np.linalg.solve(curvature[np.ix_(S, S)],
                                                               subgradient[S]))
            if decrement <= _NEWTON_TOL ** 2 or decrement >= last:
                return _finalize(problem, lam)
            last = decrement
        step = _model_minimizer(curvature, g, lam, w, frozen) - lam
        decrease = float(np.dot(g, step) + np.dot(w, np.abs(lam + step) - np.abs(lam)))
        accepted = _descend(evaluate, lam, obj, step, decrease)
        if accepted is None:
            raise SolverError("dual line search failed")
        lam, (obj, g, hess) = accepted
    raise SolverError("dual did not reach the subgradient tolerance")


def composition_blocks(total, parts, F=None, lo=-math.inf, hi=math.inf, budget=math.inf):
    """Yield vectors c of ``parts`` nonnegative integers summing to
    ``total``, in lexicographic order, as int64 arrays of at most
    COMPOSITION_BLOCK_ROWS rows: every vector whose sum c @ F may lie in the
    box [lo, hi] of the (parts, d) array F, or every vector when F is None.

    The walk places one count at a time. After c_0..c_j, each column of
    c @ F ends within the sum so far plus `rest` times that column's min..max
    over the atoms after j, where `rest` counts what is left to place; so
    c_j runs only over the integer interval that keeps the box within
    reach. The box is widened by 1e-9 of each column's scale, so every
    vector whose sum lies in it or within rounding of it is yielded; some
    outside may be too. A column whose scale overflows bounds nothing.

    ValueError is raised once more than ``budget`` vectors and dead ends
    (prefixes with no next count in reach) are visited; every other prefix
    leads to one of these, so at most about parts * budget rows are made.
    """
    F = np.zeros((parts, 0)) if F is None else np.asarray(F, dtype=float)
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), F.shape[1:]) for b in (lo, hi))
    bounds = np.abs(np.where(np.isfinite([lo, hi]), [lo, hi], 0.0)).max(axis=0)
    with np.errstate(over="ignore"):
        slack = 1e-9 * (1.0 + total * np.abs(F).max(axis=0, initial=0.0) + bounds)
    keep = np.isfinite(slack)
    F, lo, hi = F[:, keep], lo[keep] - slack[keep], hi[keep] + slack[keep]
    # the min and max of each column over the atoms after atom j
    after_min = np.minimum.accumulate(F[::-1], axis=0)[::-1][1:]
    after_max = np.maximum.accumulate(F[::-1], axis=0)[::-1][1:]

    def reach(prefix, sums):
        # the interval [first, last] of the next count, per prefix
        j, left = prefix.shape[1], total - prefix.sum(axis=1)
        first, last = np.zeros_like(left), left.copy()
        for d in range(F.shape[1]):
            # base + c_j * slope <= bound, for the upper and the lower bound
            for base, slope, bound in (
                    (sums[:, d] + left * after_min[j, d], F[j, d] - after_min[j, d], hi[d]),
                    (-sums[:, d] - left * after_max[j, d], after_max[j, d] - F[j, d], -lo[d])):
                if slope == 0:
                    last = np.where(base <= bound, last, -1)
                    continue
                with np.errstate(over="ignore"):
                    edge = np.clip((bound - base) / slope, -1.0, left + 1.0)
                if slope > 0:
                    last = np.minimum(last, np.floor(edge).astype(np.int64))
                else:
                    first = np.maximum(first, np.ceil(edge).astype(np.int64))
        return first, np.maximum(last - first + 1, 0)

    visited = 0

    def visit(count):
        nonlocal visited
        visited += count
        if visited > budget:
            raise ValueError(f"the walk visits more classes and dead ends than the "
                             f"enumeration budget {budget}")

    def walk(prefix, sums):
        # prefix holds the first j counts of each vector, sums their part of c @ F
        j, rows = prefix.shape[1], COMPOSITION_BLOCK_ROWS
        if j == parts - 1:
            visit(len(prefix))
            done = np.column_stack([prefix, total - prefix.sum(axis=1)])
            for i in range(0, len(done), rows):
                yield done[i:i + rows]
            return
        first, reps = reach(prefix, sums)
        visit(np.count_nonzero(reps == 0))
        ends = np.cumsum(reps)
        start = 0
        while start < len(prefix):
            # the next prefixes whose extensions fit in one block, one at least
            base = int(ends[start] - reps[start])
            stop = max(start + 1, int(np.searchsorted(ends, base + rows, side="right")))
            if ends[stop - 1] > base:
                # each prefix followed by every count of its interval, in increasing order
                run = slice(start, stop)
                heads = np.arange(base, ends[stop - 1]) \
                    + np.repeat(first[run] + reps[run] - ends[run], reps[run])
                yield from walk(np.column_stack([np.repeat(prefix[run], reps[run], axis=0), heads]),
                                np.repeat(sums[run], reps[run], axis=0) + heads[:, None] * F[j])
            start = stop

    yield from walk(np.zeros((1, 0), dtype=np.int64), np.zeros((1, F.shape[1])))


def schedule_from_solution(solution: TiltedSolution, kind: str,
                           a: float = 1.0, margin: float = 1.1) -> ScheduleParams:
    """The enlargement schedule whose constant matches the solution.

    'sqrt_n': c = sqrt(a Var), where ``a`` is the type-2 constant of the
    ambient norm (1 for Euclidean); the radius (1+1e-6) c/sqrt(n) stays
    strictly above the critical constant, as the sqrt(n) regime requires.
    'inv_n': c = margin * 10 sqrt(2 pi) kappa / sigma^3, only defined for
    one-dimensional moment maps; margin > 1 keeps it strictly above the
    critical value. Both need positive variance.
    """
    if kind == "sqrt_n":
        if not a > 0:
            raise ValueError("type-2 constant must be positive")
        if not solution.variance > 0:
            raise ValueError("the sqrt(n) schedule needs positive variance")
        return ScheduleParams(kind="sqrt_n", c=math.sqrt(a * solution.variance))
    if kind == "inv_n":
        if not margin > 0:
            raise ValueError("margin must be positive")
        if solution.third_abs_moment is None:
            raise ValueError("the 1/n schedule needs a one-dimensional moment map")
        if not solution.variance > 0:
            raise ValueError("the 1/n schedule needs positive variance")
        sigma = math.sqrt(solution.variance)
        c = margin * 10.0 * math.sqrt(2.0 * math.pi) * solution.third_abs_moment / sigma ** 3
        return ScheduleParams(kind="inv_n", c=c)
    raise ValueError(f"unknown schedule kind {kind!r}")


def enlargement_sqrt(solution: TiltedSolution, a: float = 1.0, n: int = 1) -> float:
    """Radius (1+1e-6) sqrt(a Var) / sqrt(n) of the 'sqrt_n' schedule."""
    return schedule_from_solution(solution, "sqrt_n", a=a).epsilon(n)


def enlargement_berry_esseen(solution: TiltedSolution, n: int, margin: float = 1.1) -> float:
    """Radius c/n of the 'inv_n' schedule, c = margin * 10 sqrt(2 pi) kappa / sigma^3."""
    return schedule_from_solution(solution, "inv_n", margin=margin).epsilon(n)
