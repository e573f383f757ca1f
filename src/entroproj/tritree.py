"""Trinomial lattice chains and entropy calibration against them.

A lattice chain moves by +1, 0, -1 ticks of size alpha/sqrt(n) per step,
with transition weights determined by a local variance y = sigma(t, x) and
drift z = b(t, x). The module builds such chains, evaluates relative
entropy between them by the chain rule (with a brute-force path oracle for
cross-checking), exposes the pointwise rate q and its O(1/n) gap bound,
and calibrates a variance parameter to a normalized terminal moment
constraint by entropy minimization.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _frozen

_THETA_SCAN = 400
# Steps of calibrate's line searches scored per walk: a bisection round scores
# the 2**4 - 1 dyadic points its next four steps can test (4 divides the
# 60-step cap), a golden-section round the at most 7 points of its next three.
_BISECT_AHEAD = 4
_GOLDEN_AHEAD = 3
_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-6
_COND_TOL = 1e-9
# Elements of one block of a lattice walk's work. Scalars and (B, 1) columns
# walk in blocks of columns of all n levels (163 columns at n = 400), and
# their closed-form laws in blocks of trinomial cells.
_WALK_CELLS = 1 << 16
# exp underflows to exactly 0 below about -745.13
_EXP_FLOOR = -746.0


class CalibrationInfeasible(ValueError):
    """No parameter in the family satisfies the moment band at this (n, epsilon)."""


def _integer(name, value):
    """value, if an int or a numpy integer but not a bool; else a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


@dataclass(frozen=True)
class LatticeSpec:
    """Lattice geometry and coefficient ranges.

    n time steps on [0, 1], space tick alpha_tick/sqrt(n). Variance values
    live in [sigma_min, sigma_max], drifts in [b0-s, b0+s]. n must be at
    least the minimal level at which every kernel in that rectangle is
    strictly positive.
    """

    n: int
    alpha_tick: float
    sigma_min: float
    sigma_max: float
    b0: float
    s: float

    def __post_init__(self):
        _integer("n", self.n)
        ranges = dict(alpha_tick=self.alpha_tick, sigma_min=self.sigma_min,
                      sigma_max=self.sigma_max, b0=self.b0, s=self.s)
        named = ", ".join(f"{key}={value!r}" for key, value in ranges.items())
        if not all(math.isfinite(value) for value in ranges.values()):
            raise ValueError(f"ranges must be finite: {named}")
        if not (0 < self.sigma_min <= self.sigma_max < self.alpha_tick):
            raise ValueError("need 0 < sigma_min <= sigma_max < alpha_tick")
        if not (0 <= self.s < self.b0):
            raise ValueError("need 0 <= s < b0")
        try:
            n0 = min_level_n0(self)
        except (OverflowError, ZeroDivisionError):
            raise ValueError(f"the minimal level (alpha_tick (b0 + s) / sigma_min^2)^2 "
                             f"is out of range for {named}") from None
        if self.n < n0:
            raise ValueError(f"n={self.n} is below the minimal level {n0} for these ranges")

    @property
    def dx(self) -> float:
        return self.alpha_tick / math.sqrt(self.n)

    def positions(self, level: int) -> np.ndarray:
        return np.arange(-_integer("level", level), level + 1) * self.dx


def min_level_n0(spec: LatticeSpec) -> int:
    """Smallest n making every kernel on the coefficient rectangle positive.

    The binding entry is the down weight at (sigma_min, b0+s); the middle
    weight is positive for any n because sigma_max < alpha_tick.
    """
    return math.floor((spec.alpha_tick * (spec.b0 + spec.s) / spec.sigma_min ** 2) ** 2) + 1


@dataclass(frozen=True)
class VolSurface:
    """Variance and drift tables indexed by lattice node.

    sigma[k][j + k] and b[k][j + k] give the coefficients at level k,
    offset j, for 0 <= k < n. The holder itself does not police range
    membership; kernel positivity is enforced where trees are built.
    """

    sigma: tuple
    b: tuple

    def __post_init__(self):
        sig, drift = tuple(map(_frozen, self.sigma)), tuple(map(_frozen, self.b))
        if len(sig) != len(drift):
            raise ValueError("sigma and b must have the same number of levels")
        for k, (a, c) in enumerate(zip(sig, drift)):
            if a.shape != (2 * k + 1,) or c.shape != (2 * k + 1,):
                raise ValueError(f"level {k} tables must have length {2 * k + 1}")
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(c))):
                raise ValueError("surface tables must be finite")
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "b", drift)

    @property
    def levels(self) -> int:
        return len(self.sigma)

    @classmethod
    def constant(cls, spec: LatticeSpec, sigma_value: float, b_value: float) -> "VolSurface":
        return cls(sigma=_level_tables([sigma_value] * spec.n), b=_level_tables([b_value] * spec.n))

    @classmethod
    def from_function(cls, spec: LatticeSpec, sigma_fn, b_fn) -> "VolSurface":
        """Evaluate callables (t, x) -> value on every lattice node."""
        sig, drift = [], []
        for k in range(spec.n):
            t = k / spec.n
            xs = spec.positions(k)
            sig.append(_frozen([sigma_fn(t, x) for x in xs]))
            drift.append(_frozen([b_fn(t, x) for x in xs]))
        return cls(sigma=tuple(sig), b=tuple(drift))

    def truncated(self, levels: int) -> "VolSurface":
        if _integer("levels", levels) < 0:
            raise ValueError("level out of range")
        if levels > self.levels:
            raise ValueError("cannot extend a surface by truncation")
        return VolSurface(sigma=self.sigma[:levels], b=self.b[:levels])


def _level_tables(values):
    """Read-only node tables, level k holding values[k] at its 2k + 1 nodes."""
    return tuple(_frozen([float(v)] * (2 * k + 1)) for k, v in enumerate(values))


def _kernel_arrays(y, z, spec):
    """Vectorized (m, r, d) for arrays of variance and drift values,
    unchecked; _positive_kernels checks them."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    half_var = y ** 2 / (2.0 * spec.alpha_tick ** 2)
    tilt = z / (2.0 * spec.alpha_tick * math.sqrt(spec.n))
    m = half_var + tilt
    d = half_var - tilt
    r = 1.0 - (m + d)
    return m, r, d


def _positive_kernels(spec, *coefficients):
    """The kernels (m, r, d) of (y, z) pairs with levels on axis 0: a block
    of _column_blocks' columns, or one level with an axis of length 1.

    One check covers them all. A weight that fails strict positivity, the
    signature of n below the minimal level for these (y, z), raises naming
    the worst node of the first level that holds one, the earlier pair first
    within a level: the node a level-by-level check would name.
    """
    kernels = [_kernel_arrays(y, z, spec) for y, z in coefficients]
    lows = [np.minimum(np.minimum(m, r), d) for m, r, d in kernels]
    bad = [np.flatnonzero(~np.all(low > 0.0, axis=tuple(range(1, low.ndim)))) for low in lows]
    if any(levels.size for levels in bad):
        k, j = min((levels[0], j) for j, levels in enumerate(bad) if levels.size)
        low = lows[j][k]
        i = np.argmin(low)
        at = [float(np.broadcast_to(a[k], low.shape).flat[i])
              for a in (*kernels[j], *coefficients[j])]
        raise ValueError(
            "kernel not strictly positive at n={}: weights ({:.6g}, {:.6g}, {:.6g}) "
            "at (y, z)=({!r}, {!r})".format(spec.n, *at)
        )
    return kernels


def kernel(y: float, z: float, spec: LatticeSpec):
    """One-step transition weights (up, stay, down) at variance y, drift z.

    m = y^2/(2 alpha^2) + z/(2 alpha sqrt(n)) and d is its mirror, so the
    three weights sum to 1 exactly. Raises when any weight fails strict
    positivity.
    """
    (m, r, d), = _positive_kernels(spec, ([y], [z]))
    return float(m[0]), float(r[0]), float(d[0])


@dataclass(frozen=True)
class TrinomialTree:
    """Forward law of a lattice chain started at the origin.

    transitions[k] has rows (m, r, d) per level-k node and is the tree's
    only input. Construction checks that every row is stochastic and
    pushes the unit mass at the origin forward through them, so that
    node_prob[k][j + k] is P(X_{k/n} = j dx).
    """

    spec: LatticeSpec
    transitions: tuple
    node_prob: tuple = field(init=False)

    def __post_init__(self):
        trans = tuple(map(_frozen, self.transitions))
        if len(trans) != self.spec.n:
            raise ValueError(f"need transitions for levels 0..{self.spec.n - 1}")
        probs = [np.ones(1)]
        for k, t in enumerate(trans):
            if t.shape != (2 * k + 1, 3):
                raise ValueError(f"level {k} transitions must be ({2 * k + 1}, 3)")
            if np.any(t < 0) or np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError(f"level {k} transition rows are not stochastic")
            probs.append(_push(probs[k], *t.T))
        for a in probs:
            a.setflags(write=False)
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "node_prob", tuple(probs))


def _push(prob, m, r, d):
    """The node law one level on: the mass at each node moves up, stays and
    moves down with weights m, r, d, which broadcast against prob."""
    up = prob * m
    out = np.zeros(up.shape[:-1] + (up.shape[-1] + 2,))
    out[..., 2:] += up
    out[..., 1:-1] += prob * r
    out[..., :-2] += prob * d
    return out


def build_tree(surface: VolSurface, spec: LatticeSpec) -> TrinomialTree:
    """The tree whose level-k transitions are the kernels of the surface's
    level-k coefficients; raises where a kernel is not strictly positive."""
    if surface.levels < spec.n:
        raise ValueError(f"surface has {surface.levels} levels, spec needs {spec.n}")
    return TrinomialTree(spec, tuple(
        np.stack(_positive_kernels(spec, ([surface.sigma[k]], [surface.b[k]]))[0], axis=-1)[0]
        for k in range(spec.n)
    ))


def expectation(tree: TrinomialTree, payoff, level: int) -> float:
    """Mean of payoff(X) at the given level; payoff maps a real to a real."""
    if not 0 <= _integer("level", level) <= tree.spec.n:
        raise ValueError("level out of range")
    xs = tree.spec.positions(level)
    values = np.array([float(payoff(x)) for x in xs])
    return float(tree.node_prob[level] @ values)


def _kl(p, p0):
    """KL divergence between kernel triples (m, r, d), elementwise."""
    return sum(a * np.log(a / a0) for a, a0 in zip(p, p0))


def local_entropy(sigma_val: float, b_val: float, sigma0_val: float, b0_val: float,
                  spec: LatticeSpec) -> float:
    """KL divergence of the (sigma, b) kernel from the (sigma0, b0) kernel."""
    step, ref = _positive_kernels(spec, ([sigma_val], [b_val]), ([sigma0_val], [b0_val]))
    return float(_kl(step, ref)[0])


def tree_entropy_chain(surface: VolSurface, surface0: VolSurface, spec: LatticeSpec) -> float:
    """Relative entropy of the two path laws via the Markov chain rule.

    Sums, over levels, the (sigma, b)-chain expectation of the nodewise
    kernel KL. Linear work per node, usable to n in the thousands.
    """
    return float(_chain_walk(surface.sigma, surface.b, surface0.sigma, surface0.b, spec)[0])


def _paths(level: int, transitions=None):
    """Terminal offset j of every move sequence of the given length, as an
    array of shape (3,)*level indexed by the moves (0 up, 1 stay, 2 down),
    and, given a tree's transitions, each sequence's log-probability in the
    same shape (else 0.0)."""
    j = np.zeros((), dtype=int)
    lp = np.zeros(())
    for k in range(level):
        if transitions is not None:
            lp = lp[..., None] + np.log(transitions[k])[j + k]
        j = j[..., None] + np.array([1, 0, -1])
    return j, lp


def tree_entropy_paths(surface: VolSurface, surface0: VolSurface, spec: LatticeSpec) -> float:
    """Brute-force path-enumeration oracle for tree_entropy_chain; n <= 10."""
    if spec.n > 10:
        raise ValueError("path enumeration is limited to n <= 10")
    _, lp1 = _paths(spec.n, build_tree(surface, spec).transitions)
    _, lp0 = _paths(spec.n, build_tree(surface0, spec).transitions)
    return float(np.sum(np.exp(lp1) * (lp1 - lp0)))


def path_marginal(Q: np.ndarray, level: int) -> np.ndarray:
    """Level marginal of a path-indexed law; entry j+level is P(X_level = j dx)."""
    if not 0 <= level <= Q.ndim:
        raise ValueError("level out of range")
    head = Q.reshape((3,) * level + (-1,)).sum(axis=-1)
    j, _ = _paths(level)
    return np.bincount((j + level).ravel(), weights=head.ravel(), minlength=2 * level + 1)


def entropy_decomposition_check(Q: np.ndarray, surface: VolSurface,
                                surface0: VolSurface, spec: LatticeSpec):
    """Both sides of the entropy decomposition for a conditional-respecting law.

    Q is a path-indexed probability array on move sequences. Provided Q
    shares the (sigma, b) one-step conditionals in aggregate at every node,
    H(Q | reference tree) splits as H(Q | (sigma, b) tree) plus the entropy
    of the (sigma, b) tree itself. Returns (lhs, rhs); the caller asserts
    their agreement. Raises when Q breaks the conditional structure beyond
    1e-9.
    """
    n = spec.n
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (3,) * n:
        raise ValueError("Q must be a path-indexed array of shape (3,)*n")
    if Q.min() < 0 or abs(Q.sum() - 1.0) > 1e-9:
        raise ValueError("Q must be a probability law on paths")
    tree = build_tree(surface, spec)
    tree0 = build_tree(surface0, spec)

    for k in range(n):
        # joint law of (X_k, move k): the level-k marginal of each move's slice
        agg = np.stack([path_marginal(np.take(Q, mv, axis=k), k) for mv in range(3)], axis=1)
        mass = agg.sum(axis=1, keepdims=True)
        # nodes Q never visits keep the tree's own conditional
        cond = np.divide(agg, mass, out=np.array(tree.transitions[k]), where=mass > 0)
        bad = np.flatnonzero(np.abs(cond - tree.transitions[k]).max(axis=1) > _COND_TOL)
        if bad.size:
            raise ValueError(f"Q violates the one-step conditional at level {k}, "
                             f"offset {bad[0] - k}")

    _, lt = _paths(n, tree.transitions)
    _, lt0 = _paths(n, tree0.transitions)
    mask = Q > 0
    lhs = float(np.sum(Q[mask] * (np.log(Q[mask]) - lt0[mask])))
    middle = float(np.sum(Q[mask] * (np.log(Q[mask]) - lt[mask])))
    third = float(np.sum(np.exp(lt) * (lt - lt0)))
    return lhs, middle + third


def _q(x, y, a2):
    """Two-point KL on {move, stay} with move probability x/a2 against
    y/a2, elementwise over arrays of variances."""
    return np.log(x / y) * x / a2 + np.log((a2 - x) / (a2 - y)) * (1.0 - x / a2)


def q_rate(x: float, y: float, spec: LatticeSpec) -> float:
    """Pointwise entropy rate between variance levels x and y.

    Two-point KL on {move, stay} with move probability x/alpha^2 against
    y/alpha^2. Arguments are variances (squared sigmas) in (0, alpha^2).
    """
    a2 = spec.alpha_tick ** 2
    if not (0 < x < a2 and 0 < y < a2):
        raise ValueError(f"arguments must lie in (0, {a2})")
    return float(_q(x, y, a2))


def dl_gap(surface: VolSurface, surface0: VolSurface, spec: LatticeSpec):
    """Worst nodewise gap between the local entropy and the rate q.

    Returns (max_gap, n * max_gap) over nodes carrying positive mass under
    the (sigma, b) chain; the scaled value staying bounded across an
    n-sweep is the O(1/n) certificate.
    """
    worst = float(_chain_walk(surface.sigma, surface.b, surface0.sigma, surface0.b, spec)[2])
    return worst, spec.n * worst


def _chain_walk(sigma, b, sigma0, b0, spec: LatticeSpec):
    """The chain-rule entropy of the (sigma, b) chain against the (sigma0,
    b0) kernels, the mean of the rate q over the levels (I_rate at N = n)
    and the worst gap between the two over visited nodes, per chain.

    Each argument is a per-level sequence whose level-k value broadcasts
    against the 2k+1 level-k nodes: a scalar is constant in space, a node
    table gives one value per node, and a (B, 1) column walks B chains at
    once. When the last level of some value has a node axis, each level's
    kernels are evaluated and its node law pushed one level at a time
    (_push_walk). When none has, every node of a level shares its kernel,
    KL h_k and rate q_k, so the three numbers are level sums over each
    column's own contiguous row of levels, whatever the batch width, in
    blocks of columns (_column_blocks) and with no law (_terminal_law gives
    it); a kernel not strictly positive is named from the first block with one.
    """
    n = spec.n
    columns = _column_blocks(spec, sigma=sigma, b=b, sigma0=sigma0, b0=b0)
    if columns is None:
        return _push_walk(spec, sigma, b, sigma0, b0)[1:]
    batch, blocks = columns
    sums = np.empty((3, math.prod(batch)))
    for cols, (sigma, b, sigma0, b0) in blocks:
        step, ref = _positive_kernels(spec, (sigma, b), (sigma0, b0))
        shape = (n, cols.stop - cols.start)
        h, q = (np.ascontiguousarray(np.broadcast_to(a, shape).T) for a in (
            _kl(step, ref), _q(np.square(sigma), np.square(sigma0), spec.alpha_tick ** 2)))
        sums[:, cols] = h.sum(axis=-1), q.sum(axis=-1) / n, np.abs(h - q).max(axis=-1)
    return tuple(a.reshape(batch)[()] for a in sums)


def _terminal_law(sigma, b, spec: LatticeSpec):
    """The terminal law of chains of scalar or (B, 1) column coefficients,
    which no reference changes: trinomial on each run of equal kernels
    (_runs_law), in _chain_walk's blocks of columns."""
    columns = _column_blocks(spec, sigma=sigma, b=b)
    if columns is None:
        raise ValueError("a law walk takes scalars or (B, 1) columns, not node tables")
    batch, blocks = columns
    laws = [_runs_law(*_positive_kernels(spec, levels)[0]) for _, levels in blocks]
    return np.concatenate(laws).reshape(batch + (2 * spec.n + 1,))


def _column_blocks(spec, **levels):
    """(batch shape, blocks) of named per-level sequences of scalars or
    (B, 1) columns, each block about _WALK_CELLS level values: (a slice of
    columns, each sequence as an (n, columns) array, or (n, 1) where it is
    the same for every chain). None when the last level of one has a node
    axis; raises naming a sequence shorter than n."""
    n = spec.n
    for name, seq in levels.items():
        if len(seq) < n:
            raise ValueError(f"{name} has {len(seq)} levels, spec needs {n}")
    if any(np.shape(seq[n - 1])[-1:] not in ((), (1,)) for seq in levels.values()):
        return None
    stacks = [np.array(seq[:n], dtype=float) for seq in levels.values()]
    # a column's node axis has length 1
    batch = np.broadcast_shapes(*(s.shape[1:-1] for s in stacks if s.ndim > 1))
    stacks, width = [s.reshape(n, -1) for s in stacks], math.prod(batch)
    step = max(1, _WALK_CELLS // n)
    return batch, [(cols, [s[:, cols] if s.shape[1] > 1 else s for s in stacks])
                   for cols in (slice(c, min(c + step, width)) for c in range(0, width, step))]


def _runs_law(m, r, d):
    """Terminal laws of chains given by (levels, B) stacks of their kernels.

    Each column's levels split into runs of equal kernels; the law of a run
    is trinomial (_trinomial_law), and the runs' laws are convolved in
    level order. Columns are grouped by where their runs start, so that
    each column's law is the one it would have alone.
    """
    n, width = m.shape
    starts = ((m[1:] != m[:-1]) | (r[1:] != r[:-1]) | (d[1:] != d[:-1])).T
    if np.all(starts == starts[:1]):
        # one pattern, the usual case, needs no sort
        patterns, group = starts[:1], np.zeros(width, dtype=int)
    else:
        patterns, group = np.unique(starts, axis=0, return_inverse=True)
    law = np.empty((width, 2 * n + 1)) if len(patterns) > 1 else None
    for g, pattern in enumerate(patterns):
        cols = np.flatnonzero(group == g)
        firsts = np.flatnonzero(np.concatenate([[True], pattern]))
        out = None
        for first, s in zip(firsts, np.diff(np.append(firsts, n))):
            kernels = [a[first, cols] for a in (m, r, d)]
            if all(np.all(a == a[0]) for a in kernels):
                # one kernel for every column: one law, broadcast
                part = np.broadcast_to(_trinomial_law(int(s), *(a[:1] for a in kernels)),
                                       (len(cols), 2 * s + 1))
            else:
                part = _trinomial_law(int(s), *kernels)
            out = part if out is None else _convolve(out, part)
        if law is None:
            return out
        law[cols] = out
    return law


def _convolve(a, b):
    """Full convolution of two batches of laws, row by row, each entry
    adding its terms in the order of the shorter laws' entries i: as stacks
    of layers i, the longer laws shifted right by i times the others'
    entries i, summed along the leading axis, in blocks of rows whose stack
    fits in _WALK_CELLS; by one slice per i where one row's does not."""
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    (rows, la), lb = a.shape, b.shape[-1]
    size = la + lb - 1
    if lb * size > _WALK_CELLS:
        out = np.zeros((rows, size))
        for i in range(lb):
            out[:, i:i + la] += a * b[:, i:i + 1]
        return out
    out = np.empty((rows, size))
    block = _WALK_CELLS // (lb * size)
    for r0 in range(0, rows, block):
        a_r, b_r = a[r0:r0 + block], b[r0:r0 + block]
        k = len(a_r)
        flat = np.zeros(lb * (k * size + 1))
        # in layers one entry longer than the stack's, layer i starts i later
        flat.reshape(lb, -1)[:, :k * size].reshape(lb, k, size)[..., :la] = b_r.T[..., None] * a_r
        out[r0:r0 + block] = flat[:lb * k * size].reshape(lb, k, size).sum(axis=0)
    return out


def _compensated_cumsum(x):
    """Running sums of x along axis 0, to within about one rounding each:
    the rounding error of every addition of np.cumsum, exact by Knuth's
    two-sum, is summed separately and added back."""
    sums = np.cumsum(x, axis=0)
    before, step, after = sums[:-1], x[1:], sums[1:]
    taken = after - before
    after += np.cumsum((before - (after - taken)) + (step - taken), axis=0)
    return sums


@functools.lru_cache(maxsize=4)
def _trinomial_cells(s, first, stop):
    """_trinomial_law's tables that depend on s alone, for offset indices
    first..stop-1 (j + s), read-only: max(j, 0), max(-j, 0) and the log
    multinomials, -inf where w < 0. The last 4 blocks, at most
    4 * _WALK_CELLS cells, are kept."""
    i = np.arange(s)
    binom = _compensated_cumsum(np.concatenate([[0.0], np.log((s - i) / (i + 1.0))]))
    j = np.arange(first, stop) - s
    # the block's offset nearest 0 has the most cells
    t = np.arange((s - np.abs(j).min()) // 2 + 1)[:, None]
    u, v, w = t + np.maximum(j, 0), t + np.maximum(-j, 0), s - np.abs(j) - 2 * t
    # the step out of an offset's last cell (w < 2) is a finite placeholder
    ratios = np.log(np.maximum(w * (w - 1.0), 1.0) / ((u + 1.0) * (v + 1.0)))
    coef = _compensated_cumsum(np.concatenate([binom[np.abs(j)][None], ratios[:-1]]))
    coef[w < 0] = -np.inf
    cells = np.maximum(j, 0), np.maximum(-j, 0), coef
    for a in cells:
        a.setflags(write=False)
    return cells


def _trinomial_law(s, m, r, d):
    """Law of the offset after s steps of the kernel (m, r, d), for arrays
    of kernels: shape (len(m), 2s + 1), offsets -s..s.

    Offset j sums, over the move counts u - v = j, u + v + w = s, the terms
    exp(log s!/(u! v! w!) + u log m + v log d + w log r). A cell (t, j) has
    u = t + max(j, 0), v = t + max(-j, 0) and w = s - |j| - 2t; its exponent
    is the column-free log multinomial plus
    s log r + max(j, 0) log(m/r) + max(-j, 0) log(d/r) + t log(md/r^2).
    The log multinomials (_trinomial_cells) are compensated running sums of
    the logs of the ratios of neighbouring cells, along t from log C(s, |j|),
    itself such a sum from log C(s, 0) = 0: log k! is about 6e3 at s = 1000,
    and its rounding alone would move the law by 3e-14. Work goes in blocks
    of about _WALK_CELLS cells, first of offsets, then of columns; each
    offset's terms are summed in the order of t, whatever the block. Only
    exponents above _EXP_FLOOR are exponentiated and summed: any other
    cell's term, w < 0 included, is exactly 0, so every sum keeps its bits.
    """
    stay, up, down = s * np.log(r), np.log(m / r), np.log(d / r)
    slope = up + down
    law = np.empty((len(m), 2 * s + 1))
    # two offsets at least: numpy sums a lone offset's terms pairwise, not in order
    rows = max(2, _WALK_CELLS // (s // 2 + 1))
    for j0 in range(0, 2 * s + 1, rows):
        jp, jm, coef = _trinomial_cells(s, j0, min(j0 + rows, 2 * s + 1))
        t = np.arange(len(coef))[:, None]
        cols = max(1, _WALK_CELLS // coef.size)
        block = np.empty((min(cols, len(m)),) + coef.shape)
        for c0 in range(0, len(m), cols):
            c = slice(c0, c0 + cols)
            row = stay[c, None] + jp * up[c, None] + jm * down[c, None]
            terms = np.add(coef, row[:, None, :], out=block[:len(row)])
            terms += t * slope[c, None, None]
            live = terms > _EXP_FLOOR
            np.exp(terms, out=terms, where=live)
            law[c, j0:j0 + len(jp)] = np.sum(terms, axis=1, where=live)
    return law


def _push_walk(spec, sigma, b, sigma0, b0):
    """The terminal law and _chain_walk's sums for any coefficients: push
    the node law forward level by level. Each level's four values, a scalar,
    a (B, 1) column or a 2k+1 node table, gain a level axis of length 1 for
    _positive_kernels and broadcast against each other and the law."""
    prob = np.ones(1)
    entropy = rate = worst = 0.0
    for k in range(spec.n):
        y, z, y0, z0 = (np.asarray(seq[k], dtype=float)[None] for seq in (sigma, b, sigma0, b0))
        step, ref = _positive_kernels(spec, (y, z), (y0, z0))
        h = _kl(step, ref)[0]
        q = _q(np.square(y), np.square(y0), spec.alpha_tick ** 2)[0]
        prob, h, q = np.broadcast_arrays(prob, h, q)
        # materialized, since np.vecdot sums stride-0 views in another order
        h, q = h.copy(), q.copy()
        entropy = entropy + np.vecdot(prob, h)
        rate = rate + np.vecdot(prob, q)
        worst = np.maximum(worst, np.where(prob > 0, np.abs(h - q), 0.0).max(axis=-1))
        prob = _push(prob, *(a[0] for a in step))
    return prob, entropy, rate / spec.n, worst


def I_rate(surface: VolSurface, surface0: VolSurface, spec: LatticeSpec,
           N: int | None = None) -> float:
    """Discretized entropy rate: mean of q along the (sigma, b) tree.

    The rate of the walk of the first N levels (N defaults to spec.n): it
    averages q(sigma^2, sigma0^2) over time and lattice position. q does not
    read the reference drift, so the reference walks driftless, where its
    kernel is positive wherever q is defined (sigma0 < alpha_tick).
    """
    if N is None:
        N = spec.n
    if not min_level_n0(spec) <= N <= spec.n:
        raise ValueError("N must lie between the minimal level and spec.n")
    # the spec rejects a non-integer N; the walk reads no surface level from N on
    short = replace(spec, n=N)
    return float(_chain_walk(surface.sigma, surface.b, surface0.sigma, [0.0] * N, short)[1])


@dataclass(frozen=True)
class CalibProblem:
    """Entropy-calibration instance with a normalized terminal constraint.

    sigma0 is the reference variance (a constant or a full surface), drift
    is pinned at the lattice's b0 throughout, payoff maps the terminal value
    to a real, and the constraint is |E[payoff(X_1)] - target| <= epsilon
    with target normalized to 1. The family is piecewise constant in time
    with n_pieces equal blocks; n_pieces=1 is the constant family.
    """

    sigma0: object
    payoff: object
    target: float = 1.0
    n_pieces: int = 1

    def __post_init__(self):
        if self.n_pieces < 1:
            raise ValueError("n_pieces must be at least 1")
        if not callable(self.payoff):
            raise ValueError("payoff must be callable")


@dataclass(frozen=True)
class CalibrationResult:
    theta_star: np.ndarray
    sigma_star: VolSurface
    entropy: float
    moment: float
    slack: float

    def __post_init__(self):
        object.__setattr__(self, "theta_star", _frozen(self.theta_star))


def _keys(points):
    """Each point's bit pattern, so that a table tells -0.0 from 0.0."""
    return np.ascontiguousarray(points, dtype=float).view(np.int64).tolist()


def _looked_up(fn, table, points, ahead):
    """fn's values at points, read from table, a dict keyed by _keys. When
    one is missing, fn first scores, in one call, every new point among them
    and ahead(), the points that the next steps of a search can ask for, so
    that those steps read the table. fn must score each point as it would
    alone."""
    keys = _keys(points)
    if not all(key in table for key in keys):
        batch = np.concatenate([points, ahead()])
        new = {key: t for key, t in zip(_keys(batch), batch.tolist()) if key not in table}
        table.update(zip(new, fn(np.array(list(new.values()))).tolist()))
    return np.array([table[key] for key in keys])


def _golden_step(geometry, live, left):
    """One golden-section step of the intervals where ``live``: each keeps
    [lo, d] where ``left`` and gets a new c, else keeps [c, hi] and gets a
    new d. Returns the new (lo, hi, c, d) and the live intervals' new points."""
    lo, hi, c, d = geometry
    lo_new, hi_new = np.where(left, lo, c), np.where(left, d, hi)
    c_new = np.where(left, hi_new - _GOLDEN_RATIO * (hi_new - lo_new), d)
    d_new = np.where(left, c, lo_new + _GOLDEN_RATIO * (hi_new - lo_new))
    moved = (lo_new, hi_new, c_new, d_new)
    return ([np.where(live, new, old) for new, old in zip(moved, geometry)],
            np.where(left, c_new, d_new)[live])


def _golden_paths(geometry, tol):
    """The points of every decision path of the next _GOLDEN_AHEAD - 1
    golden-section steps from ``geometry``, each path taking both sides, by
    the step loop's own step and liveness test."""
    scored = []
    for _ in range(_GOLDEN_AHEAD - 1):
        geometry = [np.concatenate([g, g]) for g in geometry]
        lo, hi = geometry[:2]
        geometry, points = _golden_step(geometry, hi - lo > tol, np.arange(lo.size) < lo.size // 2)
        scored.append(points)
    return np.concatenate(scored)


def _golden_min(fn, lo, hi, tol):
    """Golden-section minima of fn on the intervals [lo[i], hi[i]] in
    lockstep. fn maps an array of points to their values. The first call
    scores the two inner points and both ends of every interval. Each step
    takes one new point per interval still wider than tol, from a table; a
    step that misses scores, in one call, every point that any decision
    path of it and the next _GOLDEN_AHEAD - 1 steps can take (at most 7 per
    interval), so the table makes the same decisions as one call per step.
    Returns the minimizers and their values, an end where it is lower than
    the golden-section point."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    geometry = [lo, hi, hi - _GOLDEN_RATIO * (hi - lo), lo + _GOLDEN_RATIO * (hi - lo)]
    fc, fd, f_lo, f_hi = np.split(fn(np.concatenate(geometry[2:] + [lo, hi])), 4)
    table = {}
    while np.any(live := geometry[1] - geometry[0] > tol):
        left, right = live & (fc < fd), live & ~(fc < fd)
        fd[left], fc[right] = fc[left], fd[right]
        geometry, points = _golden_step(geometry, live, left)
        f = _looked_up(fn, table, points, lambda: _golden_paths(geometry, tol))
        fc[left], fd[right] = f[left[live]], f[right[live]]
    c, d = geometry[2:]
    # the golden-section point first, so that it wins a tie with an end
    points = np.stack([np.where(fc <= fd, c, d), lo, hi])
    values = np.stack([np.where(fc <= fd, fc, fd), f_lo, f_hi])
    best = np.argmin(values, axis=0)
    return np.choose(best, points), np.choose(best, values)


def _dyadic_points(t_feas, t_infeas):
    """The 2**_BISECT_AHEAD - 1 points between each end pair that its next
    _BISECT_AHEAD bisection steps can test, by the loop's own halving: each
    level halves every adjacent pair of the last, and 0.5 * (a + b) does not
    depend on which of a, b is feasible."""
    level = np.stack([t_feas, t_infeas])
    for _ in range(_BISECT_AHEAD):
        finer = np.empty((2 * len(level) - 1, level.shape[1]))
        finer[::2], finer[1::2] = level, 0.5 * (level[:-1] + level[1:])
        level = finer
    # the inner rows, ends excluded
    return level[1:-1].ravel()


def _feasible_segments(gap_fn, lo, hi, epsilon, n_scan):
    """Maximal subintervals of [lo, hi] where |gap| <= epsilon, endpoints
    refined by at most 60 bisection steps, fewer once every end has stalled;
    gap_fn maps an array of points to their gaps. The steps read the gaps
    from a table; a step that misses scores, in one call, the dyadic points
    of its and the next _BISECT_AHEAD - 1 steps between every end pair, so
    the ends move as with one call per step."""
    grid = np.linspace(lo, hi, n_scan)
    gaps = np.abs(gap_fn(grid))
    feasible = gaps <= epsilon
    if not np.any(feasible):
        return [], float(gaps.min())
    # a run of feasible points starts where the zero-padded indicator steps
    # up and ends just before it steps down
    steps = np.diff(np.concatenate([[0], feasible.astype(int), [0]]))
    first, last = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1) - 1
    # every run end bisects against its infeasible neighbour, all ends at
    # once; an end on the grid's edge bisects against itself
    t_feas = grid[np.concatenate([first, last])]
    t_infeas = grid[np.concatenate([np.maximum(first - 1, 0),
                                    np.minimum(last + 1, n_scan - 1)])]
    # with the scan's gaps in it, the table holds every end, so a stalled
    # end's midpoint, which is one of its ends, is never walked again
    table = dict(zip(_keys(grid), gaps.tolist()))
    for _ in range(60):
        mid = 0.5 * (t_feas + t_infeas)
        # once every midpoint is one of its own ends, no later step can
        # move an end: each would only re-test a point already classified
        if np.all((mid == t_feas) | (mid == t_infeas)):
            break
        ok = _looked_up(lambda t: np.abs(gap_fn(t)), table, mid,
                        lambda: _dyadic_points(t_feas, t_infeas)) <= epsilon
        t_feas, t_infeas = np.where(ok, mid, t_feas), np.where(ok, t_infeas, mid)
    return list(zip(*np.split(t_feas, 2))), float(gaps.min())


def calibrate(problem: CalibProblem, spec: LatticeSpec, epsilon: float) -> CalibrationResult:
    """Entropy-minimal family member subject to the terminal moment band.

    One search serves every line through parameter space: scan it, refine
    the feasible segments where |E[payoff] - target| <= epsilon by
    bisection, and golden-section the chain entropy inside each, the
    segment ends included. Several parameters add coordinate descent,
    seeded at the best feasible constant. The scan walks all its points in
    one batch. The bisection and the golden section each walk one batch per
    few steps: every point their next _BISECT_AHEAD or _GOLDEN_AHEAD steps
    can ask for. Each column of a batch walks as it would alone, so every
    decision is the one a walk per step would make. The scan and the
    bisection read terminal laws alone, which walk no reference
    (_terminal_law); the golden section reads entropies only, which a
    constant sigma0 gives as level sums with no law. The result's entropy
    is the one the search found; one last law walk of theta gives its
    moment. At n = 40 that is 21 walks for one piece, 13 of them law walks,
    and 65 for two, 39 of them law walks.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n, p = spec.n, problem.n_pieces
    if p > n:
        raise ValueError(f"n_pieces={p} exceeds n={n}: a piece would own no level")
    if isinstance(problem.sigma0, VolSurface):
        sigma0, b0 = problem.sigma0.sigma, problem.sigma0.b
    else:
        sigma0, b0 = [float(problem.sigma0)] * n, [spec.b0] * n
    if len(sigma0) < n:
        raise ValueError(f"sigma0 has {len(sigma0)} levels, spec needs {n}")
    # the law walks take no reference, so its kernels are checked here
    for k in range(n):
        _positive_kernels(spec, ([sigma0[k]], [b0[k]]))
    block = [min(k * p // n, p - 1) for k in range(n)]
    payoff = np.array([float(problem.payoff(x)) for x in spec.positions(n)])
    span = spec.sigma_max - spec.sigma_min
    lo = spec.sigma_min + 1e-9 * span
    hi = spec.sigma_max - 1e-9 * span
    tol = _GOLDEN_TOL * span

    def chains(thetas):
        """The walk's coefficients for each row of parameters."""
        pieces = [thetas[:, [i]] for i in range(p)]
        return [pieces[i] for i in block], [spec.b0] * n, sigma0, b0

    def moments(thetas):
        return np.vecdot(_terminal_law(*chains(thetas)[:2], spec), payoff)

    def search(axis, n_scan):
        """The entropy-minimal feasible point t of the line that sets the
        parameters on the axis mask to t and keeps the others at theta, and
        its entropy (None, None when no scan point is feasible), and the
        smallest |gap| on the scan."""
        def line(t):
            return np.where(axis, t[:, None], theta)

        segments, best_gap = _feasible_segments(
            lambda t: moments(line(t)) - problem.target, lo, hi, epsilon, n_scan)
        if not segments:
            return None, None, best_gap
        points, values = _golden_min(
            lambda t: _chain_walk(*chains(line(t)), spec)[0],
            *np.array(segments).T, tol)
        best = np.argmin(values)
        return points[best], float(values[best]), best_gap

    # the constant line first, then coordinate descent along each axis
    theta = np.zeros(p)
    t, entropy, best_gap = search(np.ones(p, dtype=bool), _THETA_SCAN)
    if t is None:
        raise CalibrationInfeasible(f"no constant parameter meets the band; smallest |gap| is "
                                    f"{best_gap:.3e}")
    theta[:] = t
    for _ in range(30 if p > 1 else 0):
        moved = 0.0
        for i in range(p):
            t, value, _ = search(np.arange(p) == i, 100)
            if t is not None:
                moved = max(moved, abs(t - theta[i]))
                theta[i], entropy = t, value
        if moved < tol:
            break

    moment = float(moments(theta[None, :])[0])
    if abs(moment - problem.target) > epsilon + 1e-9:
        raise CalibrationInfeasible(f"search ended outside the band "
                                    f"(|gap| = {abs(moment - problem.target):.3e})")
    sigma_star = VolSurface(sigma=_level_tables(theta[block]), b=_level_tables([spec.b0] * n))
    theta.setflags(write=False)
    return CalibrationResult(
        theta_star=theta,
        sigma_star=sigma_star,
        entropy=entropy,
        moment=moment,
        slack=abs(moment - problem.target),
    )


def epsilon0(result: CalibrationResult, spec: LatticeSpec) -> float:
    """Attainable band radius at this level: the calibrated constraint
    slack plus the 1/n resolution term, clipped at s."""
    return min(result.slack + 1.0 / spec.n, spec.s)


def trinomial_weak_convergence_probe(sigma_sequence, spec_sequence,
                                     reference_sde_moments):
    """Terminal mean and variance gaps against the constant-coefficient limit.

    Rows (n, mean_gap, variance_gap, max_increment) for each (sigma, spec)
    pair, compared to the reference (mean, variance) pair of the limiting
    diffusion at time 1.
    """
    ref_mean, ref_var = reference_sde_moments
    rows = []
    for sigma_value, spec in zip(sigma_sequence, spec_sequence):
        law = _terminal_law([float(sigma_value)] * spec.n, [spec.b0] * spec.n, spec)
        xs = spec.positions(spec.n)
        mean, second = float(law @ xs), float(law @ (xs * xs))
        rows.append({
            "n": spec.n,
            "mean_gap": abs(mean - ref_mean),
            "variance_gap": abs(second - mean ** 2 - ref_var),
            "max_increment": spec.dx,
        })
    return rows
