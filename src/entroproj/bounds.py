"""The paper's distances beyond total variation and its non-asymptotic bounds.

Relative entropy and its variational lower bound, the Fortet-Mourier and
Prohorov distances with the metric-ball event built on them, a weighted
Pinsker diagnostic and Luxemburg norms for the exponential Orlicz function;
tail and certified lower bounds for the I-projection's event, the covering
bound and epsilon schedule on the measure level, the Sanov sandwich and the
Csiszar information inequality for conditioned blocks, the empirical
marginal-schedule check behind conditioned bridges, and a simplex-grid
projection that the tests use as an oracle for the dual solver. The
criteria and the tests call them; no experiment does, so no CLI run loads
this module.

Everything here is exact finite-dimensional computation: the Fortet-Mourier
distance is a flow LP (the dual of its LP over function values) solved by
the simplex of iproj, and the Prohorov distance takes its worst-set
deficiencies from maximum flows over couplings.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import gibbs, iproj
from .measures import FiniteMeasure, _require_same_support, logsumexp

_GRID_RATIO = 0.95
_GRID_DEPTH = 400


def relative_entropy(beta: FiniteMeasure, gamma: FiniteMeasure) -> float:
    """KL divergence sum beta_i log(beta_i/gamma_i) in nats.

    Uses the 0*log 0 = 0 convention and returns +inf when beta puts mass
    where gamma has none.
    """
    _require_same_support(beta, gamma)
    b, g = beta.weights, gamma.weights
    pos = b > 0
    if np.any(g[pos] == 0):
        return math.inf
    val = float(np.sum(b[pos] * (np.log(b[pos]) - np.log(g[pos]))))
    return max(val, 0.0)


def variational_entropy_lower(beta: FiniteMeasure, gamma: FiniteMeasure, phis) -> float:
    """Best lower bound max_phi (int phi dbeta - log int e^phi dgamma).

    ``phis`` is a nonempty list of test functions given by their values on
    the support. The result never exceeds relative_entropy(beta, gamma).
    """
    _require_same_support(beta, gamma)
    phis = list(phis)
    if not phis:
        raise ValueError("need at least one test function")
    best = -math.inf
    for phi in phis:
        phi = np.asarray(phi, dtype=float)
        mean_beta = float(np.dot(beta.weights, phi))
        log_mgf = float(logsumexp(phi, b=gamma.weights))
        best = max(best, mean_beta - log_mgf)
    return best


def fm_distance(nu1: FiniteMeasure, nu2: FiniteMeasure) -> float:
    """Fortet-Mourier (bounded Lipschitz) distance, max sum f_i (nu1 - nu2)_i
    over f with ||f||_inf + Lip(f) <= 1, as an exact LP. ``iproj.linprog``
    solves its dual (Dudley, Real Analysis and Probability, 2002, ch. 11):
    the least s such that nu1 - nu2 = u + out-flow - in-flow of a flow
    pi >= 0 on ordered pairs, sum |u| <= s and sum pi_ij d_ij <= s. With
    u = p - q it has N + 2 rows; u = nu1 - nu2, pi = 0, s = sum |u| starts it.
    """
    _require_same_support(nu1, nu2)
    n, delta = len(nu1.space), nu1.weights - nu2.weights
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    eye = np.eye(n)
    # columns: p, q, pi, s and the slacks of sum(p + q) <= s and sum pi d <= s
    A = np.block([[eye, -eye, eye[:, i] - eye[:, j], np.zeros((n, 3))],
                  [np.ones(2 * n), np.zeros(len(i)), -1.0, 1.0, 0.0],
                  [np.zeros(2 * n), nu1.space.dist[i, j], -1.0, 0.0, 1.0]])
    c = np.append(np.zeros(2 * n + len(i)), [1.0, 0.0, 0.0])  # minimize s
    basis = [*(np.where(delta >= 0, 0, n) + np.arange(n)), len(c) - 3, len(c) - 1]
    value, _ = iproj.linprog(c, A, np.append(delta, [0.0, 0.0]), basis)
    return max(0.0, value)  # a tie keeps +0.0, never -0.0


def prohorov_distance(nu1: FiniteMeasure, nu2: FiniteMeasure) -> float:
    """Prohorov distance: inf over a > 0 of the a-fattening domination test.

    Uses A^a = {x : d(x, A) <= a} and requires nu1(A) <= nu2(A^a) + a and
    the same with the measures swapped, for every subset A. Exact for every
    support size: by Strassen's theorem (Ann. Math. Statist. 36, 1965) the
    worst-set deficiency max_A nu1(A) - nu2(A^t), on either side, is the
    mass that no coupling can put on pairs at distance at most t, which a
    maximum flow finds (``_unmatched_mass``).

    The search exploits two monotonicities: within an interval between
    consecutive distinct distances the fattening operator is constant, and
    the worst-set deficiency is nonincreasing as the fattening grows. The
    first interval whose deficiency fits below its upper edge yields the
    infimum max(deficiency, interval left edge).
    """
    _require_same_support(nu1, nu2)
    d = nu1.space.dist
    thresholds = np.unique(d)  # starts at 0
    upper = np.append(thresholds[1:], math.inf)
    cache = {}

    def defic(k):
        if k not in cache:
            cache[k] = _unmatched_mass(nu1.weights, nu2.weights, d <= thresholds[k])
        return cache[k]

    # binary search for the first interval k with deficiency(k) <= upper edge
    lo, hi = 0, len(thresholds) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if defic(mid) <= upper[mid]:
            hi = mid
        else:
            lo = mid + 1
    return max(defic(lo), float(thresholds[lo]))


def _unmatched_mass(w1, w2, allowed):
    """The worst-set deficiency, on either side, at the fattening whose
    pairs (i, j) within reach are those with allowed[i, j]: the mass of w1
    that a maximum flow from w1 to w2 along allowed pairs leaves unsent, or
    the room it leaves free in w2 where that is larger (the two differ only
    as the weight sums do).

    Shortest augmenting paths (Edmonds and Karp, J. ACM 19, 1972): each
    round grows a breadth-first frontier from the points of w1 with mass
    left, alternating forward along allowed pairs and back along pairs that
    carry flow, until it reaches a point of w2 with room left, and pushes
    the path's bottleneck. The bottleneck capacity drops to exactly zero,
    so the rounds are bounded as in exact arithmetic.
    """
    # every point is at distance 0 from itself: start from the diagonal
    # coupling, with the mass still to send and the room still free
    flow = np.diag(np.minimum(w1, w2))
    left, right = w1 - flow.diagonal(), w2 - flow.diagonal()
    while True:
        # via_pair[j] is the point of w1 whose pair reached point j of w2;
        # via_flow[i] the point of w2 whose flow reached point i of w1, or
        # len(w2) where i starts a path with mass left
        via_pair = np.full(len(right), -1)
        via_flow = np.where(left > 0, len(right), -1)
        frontier = np.flatnonzero(left > 0)
        while frontier.size:
            reach = allowed[frontier]
            new = np.flatnonzero(reach.any(axis=0) & (via_pair < 0))
            via_pair[new] = frontier[np.argmax(reach[:, new], axis=0)]
            free = new[right[new] > 0]
            if free.size:
                break
            back = flow[:, new] > 0
            frontier = np.flatnonzero(back.any(axis=1) & (via_flow < 0))
            if frontier.size:
                via_flow[frontier] = new[np.argmax(back[frontier], axis=1)]
        else:
            return max(float(left.sum()), float(right.sum()))
        end = free[0]
        # walk the path back from its end: pairs pushed forward, pairs undone
        forward, undone, j = [], [], end
        while True:
            i = via_pair[j]
            forward.append((i, j))
            if via_flow[i] == len(right):
                break
            j = via_flow[i]
            undone.append((i, j))
        push = min(left[i], right[end], *(flow[p] for p in undone))
        left[i] -= push
        right[end] -= push
        for p in forward:
            flow[p] += push
        for p in undone:
            flow[p] -= push


@dataclass(frozen=True)
class MetricBall:
    """Event {nu : d(nu, target) <= radius} for d in {fm, prohorov}."""

    target: FiniteMeasure
    metric: str
    radius: float

    def __post_init__(self):
        if self.metric not in ("fm", "prohorov"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if not self.radius >= 0:  # NaN fails this too
            raise ValueError("radius must be nonnegative")

    def contains(self, nu: FiniteMeasure) -> bool:
        # looked up when called, so a rebinding of the module names is seen
        distance = fm_distance if self.metric == "fm" else prohorov_distance
        return distance(nu, self.target) <= self.radius


def weighted_tv_ratio(f, nu1: FiniteMeasure, nu2: FiniteMeasure, delta: float):
    """Weighted total-variation diagnostic (lhs, factor, ratio).

    lhs = sum |f_i| |nu1_i - nu2_i|; factor combines the exponential moment
    of |f| under nu2 with H + sqrt(H) where H = H(nu1|nu2). The ratio is the
    empirical constant of the weighted Pinsker comparison; by convention it
    is 0 when the entropy vanishes.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    H = relative_entropy(nu1, nu2)  # checks the supports
    if math.isinf(H):
        raise ValueError("relative entropy is infinite")
    fa = np.abs(np.asarray(f, dtype=float))
    lhs = float(np.dot(fa, np.abs(nu1.weights - nu2.weights)))
    log_moment = float(logsumexp(delta * fa, b=nu2.weights))
    factor = (1.0 + log_moment) * (H + math.sqrt(H)) / delta
    ratio = 0.0 if H == 0.0 else lhs / factor
    return lhs, factor, ratio


def _tau(u):
    u = np.abs(u)
    # expm1 keeps precision for small arguments
    return np.expm1(u) - u


def luxemburg_norm(g, alpha: FiniteMeasure) -> float:
    """Luxemburg gauge inf{s > 0 : sum alpha_i tau(g_i/s) <= 1}.

    tau(u) = e^|u| - |u| - 1. The map s -> integral is strictly decreasing
    for nonzero g, so the gauge is the root of (integral - 1). Halvings of
    s = max |g| bracket it in [lo, 2 lo], and bisection halves the bracket
    until its midpoint rounds to an end. The upper end, where the integral
    is at most 1, is returned. Returns 0 for the zero function and inf for
    a function with an infinite value on the support of alpha, whose
    integral is infinite at every finite s.
    """
    support = alpha.weights > 0  # never empty: the weights sum to 1
    gs, ws = np.asarray(g, dtype=float)[support], alpha.weights[support]
    scale = float(np.max(np.abs(gs)))
    if math.isnan(scale):
        raise ValueError("g must hold numbers on the support of alpha, not NaN")
    if scale == 0.0 or scale == math.inf:
        return scale

    def excess(s):
        return float(np.dot(ws, _tau(gs / s))) - 1.0

    # tau(1) = e - 2 < 1, so the integral at s = scale is below 1
    lo, hi = scale / 2.0, scale
    while excess(lo) <= 0.0:
        lo, hi = lo / 2.0, lo
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    return hi


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
        ball = MetricBall(nu, metric, float(epsilon_fn(n)))
        hits = int(gibbs._accepted_patterns(gen, nu, n, ball, 0, trials)[0])
        rows.append({"n": n, "epsilon": ball.radius, "prob": hits / trials})
    return rows
