"""Divergences and distances between finite measures beyond total variation.

Relative entropy and its variational lower bound, the Fortet-Mourier and
Prohorov distances, a weighted Pinsker diagnostic and Luxemburg norms for
the exponential Orlicz function. The criteria, the tests and metric-ball
events call them; no experiment does, so no CLI run loads this module.

Everything here is exact finite-dimensional computation: the Fortet-Mourier
distance is a flow LP (the dual of its LP over function values) solved by
the simplex of iproj, and the Prohorov distance takes its worst-set
deficiencies from maximum flows over couplings.
"""
from __future__ import annotations

import math

import numpy as np

from .measures import FiniteMeasure, _require_same_support, logsumexp


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
    from . import iproj

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
