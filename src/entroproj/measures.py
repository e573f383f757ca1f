"""Finite measures on finite metric spaces.

Relative entropy and its variational lower bound, three classical distances
(total variation, Fortet-Mourier, Prohorov), a weighted Pinsker diagnostic,
Luxemburg norms for the exponential Orlicz function, and covering-number
machinery with the epsilon schedule built from it.

Everything here is exact finite-dimensional computation: the Fortet-Mourier
distance is a linear program over function values, the Prohorov distance is
an exhaustive subset scan (up to 20 support points), covering numbers are
minimal set covers. All types are immutable and all operations are pure.
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
    """Fortet-Mourier (bounded Lipschitz) distance, solved as an exact LP.

    Maximizes sum f_i (nu1 - nu2)_i over f with ||f||_inf + Lip(f) <= 1.
    Variables are (f_1..f_N, a, L) with |f_i| <= a, |f_i - f_j| <= L d_ij
    and a + L <= 1.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    _require_same_support(nu1, nu2)
    n = len(nu1.space)
    d = nu1.space.dist
    c_obj = np.concatenate([-(nu1.weights - nu2.weights), [0.0, 0.0]])

    i, j = np.triu_indices(n, 1)
    # rows in order: f_i - a <= 0 and -f_i - a <= 0 for each point, then
    # f_i - f_j - L d_ij <= 0 and its mirror for each pair i < j, then a + L <= 1
    point_cols = np.column_stack([np.arange(n), np.full(n, n)]).repeat(2, axis=0)
    pair_cols = np.column_stack([i, j, np.full(len(i), n + 1)]).repeat(2, axis=0)
    sign = np.tile([1.0, -1.0], len(i))[:, None]
    pair_vals = np.column_stack([sign, -sign, -d[i, j].repeat(2)])
    r = 2 * n + 2 * len(i) + 1
    rows = np.concatenate([np.arange(2 * n).repeat(2), np.arange(2 * n, r - 1).repeat(3), [r - 1] * 2])
    cols = np.concatenate([point_cols.ravel(), pair_cols.ravel(), [n, n + 1]])
    vals = np.concatenate([np.tile([1.0, -1.0, -1.0, -1.0], n), pair_vals.ravel(), [1.0, 1.0]])
    rhs = np.append(np.zeros(r - 1), 1.0)

    A = csr_matrix((vals, (rows, cols)), shape=(r, n + 2))
    bounds = [(-1.0, 1.0)] * n + [(0.0, 1.0), (0.0, 1.0)]
    res = linprog(c_obj, A_ub=A, b_ub=rhs, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"Fortet-Mourier LP failed: {res.message}")
    return max(0.0, -float(res.fun))  # a tie keeps +0.0, never -0.0


def _subset_weights(weights):
    """Measure of every subset of an N-point support, indexed by bitmask."""
    n = len(weights)
    out = np.zeros(1 << n)
    idx = np.arange(1 << n)
    for b in range(n):
        out += weights[b] * ((idx >> b) & 1)
    return out


def _fattened_masks(ball_masks):
    """For every subset A (bitmask), the bitmask of the union of balls over A.

    Processes masks grouped by lowest set bit so each batch is a vectorized
    copy of already-computed values.
    """
    n = len(ball_masks)
    out = np.zeros(1 << n, dtype=np.int64)
    for b in range(n - 1, -1, -1):
        high = np.arange(1 << (n - 1 - b), dtype=np.int64) << (b + 1)
        out[high | (1 << b)] = out[high] | int(ball_masks[b])
    return out


def prohorov_distance(nu1: FiniteMeasure, nu2: FiniteMeasure) -> float:
    """Prohorov distance: inf over a > 0 of the a-fattening domination test.

    Uses A^a = {x : d(x, A) <= a} and requires nu1(A) <= nu2(A^a) + a and
    the same with the measures swapped, for every subset A. Exact via an
    exhaustive subset scan when the support has at most 20 points; larger
    supports get a greedy worst-set estimate and a warning.

    The scan exploits two monotonicities: within an interval between
    consecutive distinct distances the fattening operator is constant, and
    the worst-set deficiency is nonincreasing as the fattening grows. The
    first interval whose deficiency fits below its upper edge yields the
    infimum max(deficiency, interval left edge).
    """
    _require_same_support(nu1, nu2)
    n = len(nu1.space)
    d = nu1.space.dist
    if n <= EXACT_SCAN_LIMIT:
        deficiency = _exact_deficiency(nu1.weights, nu2.weights, d)
    else:
        warnings.warn(
            f"prohorov_distance: {n} support points exceeds the exact scan limit "
            f"({EXACT_SCAN_LIMIT}); returning a greedy worst-set estimate",
            stacklevel=2,
        )
        deficiency = _greedy_deficiency(nu1.weights, nu2.weights, d)
    thresholds = np.unique(d)  # starts at 0
    upper = np.append(thresholds[1:], math.inf)
    cache = {}

    def defic(k):
        if k not in cache:
            cache[k] = deficiency(thresholds[k])
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


def _exact_deficiency(w1, w2, d):
    """The worst-set deficiency as a function of the fattening t, by a scan
    over every subset."""
    n = len(w1)
    sub1 = _subset_weights(w1)
    sub2 = _subset_weights(w2)

    def deficiency(t):
        ball_masks = [int(np.sum(1 << np.nonzero(d[x] <= t)[0].astype(np.int64)))
                      for x in range(n)]
        fat = _fattened_masks(np.array(ball_masks, dtype=np.int64))
        s12 = float(np.max(sub1 - sub2[fat]))
        s21 = float(np.max(sub2 - sub1[fat]))
        return max(s12, s21, 0.0)
    return deficiency


def _greedy_deficiency(w1, w2, d):
    """A greedy lower estimate of the worst-set deficiency, as a function of
    the fattening t."""
    n = len(w1)

    def one_side(t, wa, wb):
        fat_rows = d <= t  # fat_rows[x] = ball of x
        chosen = np.zeros(n, dtype=bool)
        covered = np.zeros(n, dtype=bool)
        total = 0.0
        while True:
            # marginal gain of adding x: its own wa mass minus the wb mass
            # newly swallowed by the fattening
            best_x, best_gain = -1, 0.0
            for x in np.nonzero(~chosen)[0]:
                new_cover = fat_rows[x] & ~covered
                g = wa[x] - float(wb[new_cover].sum())
                if g > best_gain + 1e-15:
                    best_gain, best_x = g, x
            if best_x < 0:
                break
            chosen[best_x] = True
            covered |= fat_rows[best_x]
            total += best_gain
        return total

    def deficiency(t):
        return max(one_side(t, w1, w2), one_side(t, w2, w1), 0.0)
    return deficiency


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
    for nonzero g, so the gauge is the root of (integral - 1), bracketed and
    solved to 1e-12. Returns 0 for the zero function.
    """
    from scipy.optimize import brentq

    g = np.asarray(g, dtype=float)
    support = alpha.weights > 0
    gs = g[support]
    ws = alpha.weights[support]
    scale = float(np.max(np.abs(gs))) if gs.size else 0.0
    if scale == 0.0:
        return 0.0

    def excess(s):
        return float(np.dot(ws, _tau(gs / s))) - 1.0

    hi = scale  # tau(1) = e - 2 < 1, so the integral at s=scale is below 1
    lo = hi / 2.0
    while excess(lo) <= 0.0:
        hi = lo
        lo /= 2.0
    return float(brentq(excess, lo, hi, xtol=1e-15, rtol=1e-12))


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
