"""Finite measures on finite metric spaces.

Metric spaces and the measures on them, total variation, covering numbers,
and the log-space sums (logsumexp, log factorials) the engines share. The
other distances and divergences live in ``distances``.

Everything here is exact finite-dimensional computation: covering numbers
are minimal set covers (up to 20 support points). All types are immutable
and all operations are pure.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _frozen

EXACT_SCAN_LIMIT = 20
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


def _table(a):
    """``a`` read-only and owned as ``entroproj._frozen`` makes it, with one
    row per point or atom; a vector is one column."""
    a = _frozen(a)
    return _frozen(a[:, None]) if a.ndim == 1 else a


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
        self._source = self.dist = d = _frozen(dist)
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
            d = np.sqrt((diff ** 2).sum(axis=2))
        else:
            # gather each factor's distances between the product's points; keep the largest
            idx = np.indices([len(f) for f in self._source]).reshape(len(self._source), len(self))
            d = np.zeros((len(self), len(self)))
            for f, i in zip(self._source, idx):
                np.maximum(d, f.dist[i[:, None], i], out=d)
        d.setflags(write=False)
        return d

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
        arr = _table(coords)
        # the diagonal of the bounding box bounds every distance
        with np.errstate(over="ignore", invalid="ignore"):
            if arr.ndim != 2 or arr.size == 0 or not np.isfinite(np.linalg.norm(np.ptp(arr, axis=0))):
                raise ValueError("coordinates must be a nonempty 1-D or 2-D array at finite distances")
        points = tuple(float(x) for x in arr[:, 0]) if arr.shape[1] == 1 else tuple(map(tuple, arr))
        return cls._by_formula("euclidean", arr, points)

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
        w = _frozen(self.weights)
        object.__setattr__(self, "weights", w)
        if w.shape != (len(self.space),):
            raise ValueError("weights length does not match the space")
        # a reduction, not an N-sized mask; a NaN fails the comparison too
        if not w.min(initial=0.0) >= 0:
            raise ValueError("weights must be nonnegative numbers")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1 within 1e-12")

    @classmethod
    def point_mass(cls, space, index):
        w = np.zeros(len(space))
        w[index] = 1.0
        w.setflags(write=False)
        return cls(space, w)

    @classmethod
    def uniform(cls, space):
        n = len(space)
        return cls(space, _frozen([1.0 / n] * n))

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


def tv_distance(nu1: FiniteMeasure, nu2: FiniteMeasure) -> float:
    """Total variation with the full-mass convention: sum |nu1 - nu2| in [0, 2]."""
    _require_same_support(nu1, nu2)
    return float(np.abs(nu1.weights - nu2.weights).sum())


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
            masks.setdefault(int(np.sum(1 << np.nonzero(balls[x])[0].astype(np.int64))), x)
        # drop masks strictly contained in another; a minimal cover never
        # needs a dominated ball
        keep = {m: x for m, x in masks.items()
                if not any(other != m and (m | other) == other for other in masks)}
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
    return CoveringReport(epsilon=epsilon, count=len(centers_idx), method="greedy",
                          centers=tuple(space.points[i] for i in centers_idx))


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
