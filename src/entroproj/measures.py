"""Finite measures on finite metric spaces.

Relative entropy and its variational lower bound, three classical distances
(total variation, Fortet-Mourier, Prohorov), a weighted Pinsker diagnostic,
Luxemburg norms for the exponential Orlicz function, and covering-number
machinery with the epsilon schedule built from it.

Everything here is exact finite-dimensional computation: the Fortet-Mourier
distance is a flow LP (the dual of its LP over function values) solved by
the simplex of iproj, the Prohorov distance takes its worst-set deficiencies
from maximum flows over couplings, and covering numbers are minimal set
covers (up to 20 support points). All types are immutable and all
operations are pure.
"""
from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

EXACT_SCAN_LIMIT = 20
_GRID_RATIO = 0.95
_GRID_DEPTH = 400
# cephes lgam: log sqrt(2 pi) and the coefficients, highest power first, of
# its Stirling correction polynomials in 1/x^2, for 13 <= x < 1000 and for
# 1000 <= x <= 1e8
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)
_STIRLING_SHORT = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                   0.0833333333333333333333)


class SupportMismatchError(ValueError):
    """Raised when two measures do not live on the same support."""


def _as_readonly(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def logsumexp(a, axis=None, b=None):
    """log sum b e^a over axis (all entries for None), for weights b >= 0.

    The algorithm of scipy 1.17's logsumexp, whose results it reproduces
    bit for bit: entries of zero weight drop out, the maximum is taken out,
    the (weighted) count m of entries tied at it is kept apart from the sum
    s of the others, and the result is log1p(s/m) + log m + max, or
    log sum b e^a where that is not finite. Empty input gives -inf, and so
    does a slice whose weights are all zero, where scipy gives NaN if an
    entry's exponential overflows.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if b is not None:
        a, b = np.broadcast_arrays(a, np.asarray(b, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    if a.size == 0:
        out = np.full(np.sum(a, axis=axis, keepdims=True).shape, -np.inf)
    else:
        with np.errstate(all="ignore"):
            if b is not None:
                a = np.where(b == 0, -np.inf, a)
            top = np.max(a, axis=axis, keepdims=True)
            at_top = a == top
            m = np.sum(at_top if b is None else np.where(at_top, b, 0.0), axis=axis,
                       keepdims=True, dtype=float)
            rest = np.exp(np.where(at_top, -np.inf, a) - top)
            s = np.sum(rest if b is None else b * rest, axis=axis, keepdims=True)
            out = np.log1p(s / m) + np.log(m) + top
            bad = ~np.isfinite(out)
            if bad.any():
                terms = np.exp(a) if b is None else b * np.exp(a)
                out = np.where(bad, np.log(np.sum(terms, axis=axis, keepdims=True)), out)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, equal bit for bit to scipy's gammaln(k + 1).

    A port of the integer path of cephes lgam (Moshier, Methods and Programs
    for Mathematical Functions, 1989): the log of the exact factorial below
    x = k + 1 = 13, above it Stirling's series with cephes' polynomial in
    1/x^2 (its shorter series from x = 1000, none past 1e8). Every logarithm
    is the C library's, through math.log, as cephes' is; numpy's own log
    differs from it in the last bit on some integers.
    """
    out = np.empty(n + 1)
    out[:12] = [math.log(math.factorial(k)) for k in range(min(n + 1, 12))]
    # q, the entries for k >= 12, is a view of out, updated in place
    x, q = np.arange(13.0, n + 2.0), out[12:]
    q[:] = np.fromiter(map(math.log, range(13, n + 2)), float, len(x))
    q *= x - 0.5
    q -= x
    q += _LOG_SQRT_2PI
    mid, far = np.searchsorted(x, 1000.0), np.searchsorted(x, 1e8, side="right")
    p = x[:far] * x[:far]
    np.divide(1.0, p, out=p)
    for part, coef in ((slice(0, mid), _STIRLING), (slice(mid, far), _STIRLING_SHORT)):
        poly = np.full_like(p[part], coef[0])
        for c in coef[1:]:
            poly *= p[part]
            poly += c
        poly /= x[part]
        q[part] += poly
    return out


class MetricSpacePoints:
    """A finite metric space: opaque point identifiers plus a distance source.

    A caller's table, ``MetricSpacePoints(points, dist)``, is checked in full,
    the O(N^3) triangle scan included. ``from_coordinates`` (Euclidean) and
    ``product`` (max over the factors) are metrics by construction: they keep
    their coordinates or factors and build the table when ``dist`` is first
    read. A product also builds its ``points`` on first read; its length and
    equality come from the factors. Spaces are equal when identical, or with
    the same distance source (equal tables, coordinates or factors) and, for
    a table or coordinates, equal points; no table is built to decide it.
    """

    def __init__(self, points, dist):
        self.points = tuple(points)
        self._kind = "table"
        self._source = self.dist = d = _as_readonly(dist)
        n = len(self.points)
        if d.shape != (n, n):
            raise ValueError(f"distance table shape {d.shape} does not match {n} points")
        if not np.all(np.isfinite(d)):
            raise ValueError("distances must be finite")
        if np.any(d < 0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.abs(np.diag(d)) > 0):
            raise ValueError("self-distances must be zero")
        if np.max(np.abs(d - d.T)) > 1e-12:
            raise ValueError("distance table must be symmetric")
        # min over k of d(i,k)+d(k,j), compared against d(i,j); one k at a
        # time, so the scan needs N x N memory, not N x N x N
        through = np.full((n, n), np.inf)
        for k in range(n):
            np.minimum(through, d[:, k, None] + d[k], out=through)
        if np.any(d > through + 1e-12):
            raise ValueError("triangle inequality violated")

    @classmethod
    def _by_formula(cls, kind, source, points=None):
        space = cls.__new__(cls)
        space._kind = kind
        space._source = source
        if points is not None:
            space.points = points
        return space

    @cached_property
    def points(self) -> tuple:
        """A product's point tuples, built on first read, in the order of
        np.indices over the factor sizes (itertools.product order); the
        other spaces store their points on construction."""
        return tuple(itertools.product(*(f.points for f in self._source)))

    @cached_property
    def dist(self) -> np.ndarray:
        """The N x N distance table, built on first read and kept."""
        if self._kind == "euclidean":
            diff = self._source[:, None, :] - self._source[None, :, :]
            return _as_readonly(np.sqrt((diff ** 2).sum(axis=2)))
        # gather each factor's distances between the product's points; keep the largest
        idx = np.indices([len(f) for f in self._source]).reshape(len(self._source), len(self))
        d = np.zeros((len(self), len(self)))
        for f, i in zip(self._source, idx):
            np.maximum(d, f.dist[i[:, None], i], out=d)
        return _as_readonly(d)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MetricSpacePoints) or self._kind != other._kind:
            return False
        if self._kind == "product":
            return self._source == other._source
        return self.points == other.points and np.array_equal(self._source, other._source)

    def __len__(self):
        if self._kind == "product":
            return math.prod(len(f) for f in self._source)
        return len(self.points)

    def index_of(self, point):
        """The position of point in points; a product reads it from its
        factors' positions, without building its points."""
        if self._kind != "product":
            return self.points.index(point)
        if not isinstance(point, tuple) or len(point) != len(self._source):
            raise ValueError(f"{point!r} is not a point of this product space")
        return int(np.ravel_multi_index([f.index_of(p) for f, p in zip(self._source, point)],
                                        [len(f) for f in self._source]))

    @classmethod
    def from_coordinates(cls, coords):
        """Euclidean space on finite coordinates (1-D or d-dimensional)."""
        arr = np.asarray(coords, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        # the diagonal of the bounding box bounds every distance
        with np.errstate(over="ignore", invalid="ignore"):
            if arr.ndim != 2 or arr.size == 0 or not np.isfinite(np.linalg.norm(np.ptp(arr, axis=0))):
                raise ValueError("coordinates must be a nonempty 1-D or 2-D array at finite distances")
        points = tuple(float(x) for x in arr[:, 0]) if arr.shape[1] == 1 else tuple(map(tuple, arr))
        return cls._by_formula("euclidean", _as_readonly(arr), points)

    @classmethod
    def product(cls, factors):
        """Product of the factor spaces with the max metric, in itertools.product order."""
        return cls._by_formula("product", tuple(factors))


@dataclass(frozen=True)
class FiniteMeasure:
    """A probability measure with explicit weights on a MetricSpacePoints."""

    space: MetricSpacePoints
    weights: np.ndarray

    def __post_init__(self):
        w = _as_readonly(self.weights)
        object.__setattr__(self, "weights", w)
        if w.shape != (len(self.space),):
            raise ValueError("weights length does not match the space")
        if not np.all(w >= 0):  # NaN fails this too
            raise ValueError("weights must be nonnegative numbers")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within 1e-12")

    @classmethod
    def point_mass(cls, space, index):
        w = np.zeros(len(space))
        w[index] = 1.0
        return cls(space, w)

    @classmethod
    def uniform(cls, space):
        n = len(space)
        return cls(space, np.full(n, 1.0 / n))

    def integrate(self, values):
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


@dataclass(frozen=True)
class CoveringReport:
    """Result of a covering-number computation.

    ``method`` is "exact" when produced by the branch-and-bound minimal set
    cover and "greedy" when produced by the farthest-point heuristic (an
    upper bound). Centers are point identifiers, one per ball; every point
    lies strictly within epsilon of some center (open balls). With method
    "exact", the centers are one of possibly several minimal sets.
    """

    epsilon: float
    count: int
    method: str
    centers: tuple


def _require_same_support(a: FiniteMeasure, b: FiniteMeasure):
    if a.space != b.space:
        raise SupportMismatchError("measures live on different supports")


def relative_entropy(beta: FiniteMeasure, gamma: FiniteMeasure) -> float:
    """KL divergence sum beta_i log(beta_i/gamma_i) in nats.

    Uses the 0*log 0 = 0 convention and returns +inf when beta puts mass
    where gamma has none.
    """
    _require_same_support(beta, gamma)
    b = beta.weights
    g = gamma.weights
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


def tv_distance(nu1: FiniteMeasure, nu2: FiniteMeasure) -> float:
    """Total variation with the full-mass convention: sum |nu1 - nu2| in [0, 2]."""
    _require_same_support(nu1, nu2)
    return float(np.abs(nu1.weights - nu2.weights).sum())


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
    is at most 1, is returned. Returns 0 for the zero function.
    """
    support = alpha.weights > 0  # never empty: the weights sum to 1
    gs, ws = np.asarray(g, dtype=float)[support], alpha.weights[support]
    scale = float(np.max(np.abs(gs)))
    if scale == 0.0:
        return 0.0

    def excess(s):
        return float(np.dot(ws, _tau(gs / s))) - 1.0

    # tau(1) = e - 2 < 1, so the integral at s = scale is below 1
    lo, hi = scale / 2.0, scale
    while excess(lo) <= 0.0:
        lo, hi = lo / 2.0, lo
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    return hi


def covering_number(space: MetricSpacePoints, epsilon: float) -> CoveringReport:
    """Minimal number of open epsilon-balls (centered at support points)
    covering the space.

    Exact for at most 20 points: a branch-and-bound minimal set cover that
    branches on the lowest uncovered point (see ``_min_cover``). Beyond
    that, a greedy farthest-point cover (an upper bound, flagged).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    n = len(space)
    d = space.dist
    balls = d < epsilon  # open balls; balls[x] covers point y iff d(x,y) < eps
    if n <= EXACT_SCAN_LIMIT:
        masks = {}
        for x in range(n):
            m = int(np.sum(1 << np.nonzero(balls[x])[0].astype(np.int64)))
            if m not in masks:
                masks[m] = x
        # drop masks strictly contained in another; a minimal cover never
        # needs a dominated ball
        keep = {}
        for m, x in masks.items():
            if not any(other != m and (m | other) == other for other in masks):
                keep[m] = x
        centers = _min_cover(keep, n)
        return CoveringReport(epsilon=epsilon, count=len(centers), method="exact",
                              centers=tuple(space.points[x] for x in centers))

    # farthest-point greedy
    centers_idx = [0]
    mind = d[0].copy()
    while True:
        far = int(np.argmax(mind))
        if mind[far] < epsilon:
            break
        centers_idx.append(far)
        mind = np.minimum(mind, d[far])
    return CoveringReport(
        epsilon=epsilon,
        count=len(centers_idx),
        method="greedy",
        centers=tuple(space.points[i] for i in centers_idx),
    )


def _min_cover(balls, n):
    """Centers of a smallest cover of points 0..n-1 by ``balls``, a dict
    from ball bitmask to center index, with every point in some ball.

    Iterative deepening on the depth r = 1, 2, ...: every cover contains a
    ball through the lowest uncovered point, so branch over those balls,
    widest first, and prune a branch once its uncovered points outnumber
    the depth left times the widest ball. The first depth that succeeds is
    the minimum. The branching rule is that of Knuth's Algorithm X
    ("Dancing links", 2000).
    """
    widest_first = sorted(balls.items(), key=lambda mx: -mx[0].bit_count())
    widest = widest_first[0][0].bit_count()
    through = [[(m, x) for m, x in widest_first if m >> p & 1] for p in range(n)]
    full = (1 << n) - 1
    chosen = []

    def search(covered, depth):
        uncovered = full & ~covered
        if not uncovered:
            return True
        if uncovered.bit_count() > depth * widest:
            return False
        for m, x in through[(uncovered & -uncovered).bit_length() - 1]:
            chosen.append(x)
            if search(covered | m, depth - 1):
                return True
            chosen.pop()
        return False

    depth = 1
    while not search(0, depth):
        depth += 1
    return chosen


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
        warnings.warn(
            "epsilon_schedule_metric: no grid point satisfies the criterion; "
            "returning the grid floor",
            stacklevel=2,
        )
        return _GRID_RATIO ** _GRID_DEPTH
    return min(satisfying)
