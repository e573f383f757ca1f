"""Trinomial lattice chains and entropy calibration against them.

A lattice chain moves by +1, 0, -1 ticks of size alpha/sqrt(n) per step,
with transition weights determined by a local variance y = sigma(t, x) and
drift z = b(t, x). The module builds such chains, evaluates relative
entropy between them by the chain rule (with a brute-force path oracle for
cross-checking), exposes the pointwise rate q and its O(1/n) gap bound,
recovers coefficients from two-time marginals, and calibrates a variance
parameter to a normalized terminal moment constraint by entropy
minimization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gibbs import mc_stream
from .measures import FiniteMeasure, MetricSpacePoints, fm_distance

_THETA_SCAN = 400
_AUDIT_POINTS = 200
_GOLDEN_TOL = 1e-6
_COND_TOL = 1e-9
# Broadcast elements of one block of level stacks in a lattice walk. A
# scalar walk is one block to n = 65536 and a (B, 1) walk to n = 65536 / B
# (163 levels for calibrate's 400-point scan); node tables at n = 1000 walk
# 32 levels per block.
_WALK_CELLS = 1 << 16


class CalibrationInfeasible(ValueError):
    """No parameter in the family satisfies the moment band at this (n, epsilon)."""


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
        if not (0 < self.sigma_min <= self.sigma_max < self.alpha_tick):
            raise ValueError("need 0 < sigma_min <= sigma_max < alpha_tick")
        if not (0 <= self.s < self.b0):
            raise ValueError("need 0 <= s < b0")
        n0 = min_level_n0(self)
        if self.n < n0:
            raise ValueError(
                f"n={self.n} is below the minimal level {n0} for these ranges"
            )

    @property
    def dx(self) -> float:
        return self.alpha_tick / math.sqrt(self.n)

    def positions(self, level: int) -> np.ndarray:
        return np.arange(-level, level + 1) * self.dx


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
    membership; kernel positivity is enforced where trees are built and
    band membership by the dedicated membership checks.
    """

    sigma: tuple
    b: tuple

    def __post_init__(self):
        sig = tuple(np.asarray(a, dtype=float).copy() for a in self.sigma)
        drift = tuple(np.asarray(a, dtype=float).copy() for a in self.b)
        if len(sig) != len(drift):
            raise ValueError("sigma and b must have the same number of levels")
        for k, (a, c) in enumerate(zip(sig, drift)):
            if a.shape != (2 * k + 1,) or c.shape != (2 * k + 1,):
                raise ValueError(f"level {k} tables must have length {2 * k + 1}")
            if not (np.all(np.isfinite(a)) and np.all(np.isfinite(c))):
                raise ValueError("surface tables must be finite")
            a.setflags(write=False)
            c.setflags(write=False)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "b", drift)

    @property
    def levels(self) -> int:
        return len(self.sigma)

    @classmethod
    def constant(cls, spec: LatticeSpec, sigma_value: float, b_value: float) -> "VolSurface":
        return cls(
            sigma=tuple(np.full(2 * k + 1, float(sigma_value)) for k in range(spec.n)),
            b=tuple(np.full(2 * k + 1, float(b_value)) for k in range(spec.n)),
        )

    @classmethod
    def from_function(cls, spec: LatticeSpec, sigma_fn, b_fn) -> "VolSurface":
        """Evaluate callables (t, x) -> value on every lattice node."""
        sig, drift = [], []
        for k in range(spec.n):
            t = k / spec.n
            xs = spec.positions(k)
            sig.append(np.array([sigma_fn(t, x) for x in xs]))
            drift.append(np.array([b_fn(t, x) for x in xs]))
        return cls(sigma=tuple(sig), b=tuple(drift))

    def truncated(self, levels: int) -> "VolSurface":
        if levels > self.levels:
            raise ValueError("cannot extend a surface by truncation")
        return VolSurface(sigma=self.sigma[:levels], b=self.b[:levels])


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
    """The kernels (m, r, d) of (y, z) level stacks, level on axis 0.

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


def _level_stacks(spec, rows, **levels):
    """Levels ``rows`` (a range) of each named per-level sequence as one
    array, level on axis 0 and lattice node on the last, all of one rank so
    that they broadcast level by level.

    A scalar or a (B, 1) column stacks as it is. A node table (length 2k+1
    at level k) is edge-padded to the 2n-1 nodes of the widest level, and
    _window reads level k back out of it.
    """
    n = spec.n
    nodes = np.arange(1 - n, n)
    stacks = []
    for seq in levels.values():
        values = (np.asarray(seq[k], dtype=float) for k in rows)
        stack = np.array([v[np.clip(nodes + k, 0, 2 * k)] if v.ndim == 1 else v
                          for k, v in zip(rows, values)])
        stacks.append(stack if stack.ndim > 1 else stack[:, None])
    rank = max(s.ndim for s in stacks)
    return [s.reshape(s.shape[:1] + (1,) * (rank - s.ndim) + s.shape[1:]) for s in stacks]


def _level_blocks(spec, **levels):
    """The level stacks of consecutive blocks of levels, as (first level,
    stacks), each block about _WALK_CELLS broadcast elements long as the
    widest (last) level counts them."""
    n = spec.n
    for name, seq in levels.items():
        if len(seq) < n:
            raise ValueError(f"{name} has {len(seq)} levels, spec needs {n}")
    widest = np.broadcast_shapes(*(np.shape(seq[n - 1]) for seq in levels.values()))
    rows = max(1, _WALK_CELLS // math.prod(widest))
    for first in range(0, n, rows):
        yield first, _level_stacks(spec, range(first, min(first + rows, n)), **levels)


def _window(stack, k, first=0):
    """Level k of a level stack whose axis 0 starts at level ``first``: its
    2k+1 nodes of a padded node axis, or the whole node axis when that has
    length 1."""
    centre = stack.shape[-1] // 2
    half = min(k, centre)
    return stack[k - first, ..., centre - half:centre + half + 1]


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
        # copied, so that no later write through the caller's arrays can
        # change the transitions behind node_prob's back
        trans = tuple(np.array(a, dtype=float) for a in self.transitions)
        if len(trans) != self.spec.n:
            raise ValueError(f"need transitions for levels 0..{self.spec.n - 1}")
        probs = [np.ones(1)]
        for k, t in enumerate(trans):
            if t.shape != (2 * k + 1, 3):
                raise ValueError(f"level {k} transitions must be ({2 * k + 1}, 3)")
            if np.any(t < 0) or np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError(f"level {k} transition rows are not stochastic")
            probs.append(_push(probs[k], *t.T))
        for a in trans + tuple(probs):
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
    (m, r, d), = _positive_kernels(
        spec, _level_stacks(spec, range(spec.n), sigma=surface.sigma, b=surface.b))
    return TrinomialTree(spec, tuple(
        np.column_stack([_window(a, k) for a in (m, r, d)]) for k in range(spec.n)
    ))


def expectation(tree: TrinomialTree, payoff, level: int) -> float:
    """Mean of payoff(X) at the given level; payoff maps a real to a real."""
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
    return float(_chain_walk(surface.sigma, surface.b, surface0.sigma, surface0.b, spec)[1])


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
            raise ValueError(
                f"Q violates the one-step conditional at level {k}, offset {bad[0] - k}"
            )

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
    worst = float(_chain_walk(surface.sigma, surface.b, surface0.sigma, surface0.b, spec)[3])
    return worst, spec.n * worst


def _chain_walk(sigma, b, sigma0, b0, spec: LatticeSpec):
    """Push the (sigma, b) chain's node law forward from the origin, level
    by level, against the (sigma0, b0) kernels.

    Each argument is a per-level sequence whose level-k value broadcasts
    against the 2k+1 level-k nodes: a scalar is constant in space, a node
    table gives one value per node, and a (B, 1) column walks B chains at
    once. The kernels, their KL and q are evaluated on level stacks, one
    block of levels at a time (_level_blocks), so the level loop only sums
    and pushes. Returns, per chain, the terminal law, the chain-rule
    entropy, the mean of the rate q over the levels (I_rate at N = n) and
    the worst gap between the two over visited nodes.
    """
    prob = np.ones(1)
    entropy = rate = worst = 0.0
    blocks = _level_blocks(spec, sigma=sigma, b=b, sigma0=sigma0, b0=b0)
    for first, (sigma, b, sigma0, b0) in blocks:
        step, ref = _positive_kernels(spec, (sigma, b), (sigma0, b0))
        h = _kl(step, ref)
        q = _q(np.square(sigma), np.square(sigma0), spec.alpha_tick ** 2)
        # the level loop reads only the step kernel, h and q
        del sigma, b, sigma0, b0, ref
        for k in range(first, first + len(h)):
            hk, qk = _window(h, k, first), _window(q, k, first)
            shape = np.broadcast_shapes(prob.shape, hk.shape, qk.shape)
            prob = np.broadcast_to(prob, shape)
            # materialized, since np.vecdot sums stride-0 views in another order
            hk, qk = np.full(shape, hk), np.full(shape, qk)
            entropy = entropy + np.vecdot(prob, hk)
            rate = rate + np.vecdot(prob, qk)
            worst = np.maximum(worst, np.where(prob > 0, np.abs(hk - qk), 0.0).max(axis=-1))
            prob = _push(prob, *(_window(a, k, first) for a in step))
    return prob, entropy, rate / spec.n, worst


def I_rate(surface: VolSurface, surface0: VolSurface, spec: LatticeSpec,
           N: int | None = None) -> float:
    """Discretized entropy rate: mean of q along the (sigma, b) tree.

    Builds the level-N tree (N defaults to spec.n) and averages
    q(sigma^2, sigma0^2) over time and lattice position.
    """
    if N is None:
        N = spec.n
    if not min_level_n0(spec) <= N <= spec.n:
        raise ValueError("N must lie between the minimal level and spec.n")
    if surface0.levels < N:
        raise ValueError(f"surface0 has {surface0.levels} levels, N needs {N}")
    # build_tree reads only the levels below N, so neither surface is truncated
    tree = build_tree(surface, replace(spec, n=N))
    a2 = spec.alpha_tick ** 2
    total = 0.0
    for k in range(N):
        total += float(tree.node_prob[k] @ _q(surface.sigma[k] ** 2, surface0.sigma[k] ** 2, a2))
    return total / N


def tree_two_time_marginals(tree: TrinomialTree):
    """Joint laws P(X_k = j dx, move) per level, as (2k+1, 3) tables."""
    return [
        tree.node_prob[k][:, None] * tree.transitions[k]
        for k in range(tree.spec.n)
    ]


def recover_coefficients(two_time_marginals, spec: LatticeSpec, strict: bool = True):
    """Invert two-time marginals to the implied drift and variance tables.

    F = alpha sqrt(n) (up - down) / mass and G = alpha^2 (up + down) / mass
    per node. With strict=True a zero-mass node raises; otherwise it
    yields NaN so membership scans can skip unvisited nodes.
    """
    scale_f = spec.alpha_tick * math.sqrt(spec.n)
    scale_g = spec.alpha_tick ** 2
    F_tables, G_tables = [], []
    for k, joint in enumerate(two_time_marginals):
        joint = np.asarray(joint, dtype=float)
        if joint.shape != (2 * k + 1, 3):
            raise ValueError(f"level {k} joint must be ({2 * k + 1}, 3)")
        mass = joint.sum(axis=1)
        if strict and np.any(mass <= 0):
            i = int(np.argmin(mass))
            raise ValueError(f"zero node mass at level {k}, offset {i - k}")
        with np.errstate(invalid="ignore", divide="ignore"):
            F = scale_f * (joint[:, 0] - joint[:, 2]) / mass
            G = scale_g * (joint[:, 0] + joint[:, 2]) / mass
        F_tables.append(np.where(mass > 0, F, np.nan))
        G_tables.append(np.where(mass > 0, G, np.nan))
    return F_tables, G_tables


def tilde_t_membership(two_time_marginals, spec: LatticeSpec, epsilon: float,
                       modulus=None, slack: float = 0.0):
    """Range and modulus checks on the coefficients implied by a path law.

    Verifies, at every visited node, that the implied variance lies in
    [sigma_min^2, sigma_max^2] and the implied drift within epsilon of b0,
    and, when a modulus callable is supplied, that sqrt(G) satisfies
    |sqrt(G)(k,j) - sqrt(G)(p,q)| <= 2 modulus(|k-p|/n + alpha |j-q|/sqrt(n))
    across visited node pairs. Every inequality is relaxed additively by
    slack. Returns (ok, violations).
    """
    F_tables, G_tables = recover_coefficients(two_time_marginals, spec, strict=False)
    violations = []
    lo = spec.sigma_min ** 2 - slack
    hi = spec.sigma_max ** 2 + slack
    nodes = []
    for k, (F, G) in enumerate(zip(F_tables, G_tables)):
        for i in range(len(G)):
            if not np.isfinite(G[i]):
                continue
            j = i - k
            nodes.append((k, j, G[i]))
            if not lo <= G[i] <= hi:
                violations.append(f"variance {G[i]:.6g} out of range at ({k}, {j})")
            if abs(F[i] - spec.b0) > epsilon + slack:
                violations.append(f"drift {F[i]:.6g} outside the band at ({k}, {j})")
    if modulus is not None:
        root_n = math.sqrt(spec.n)
        for a in range(len(nodes)):
            k, j, Ga = nodes[a]
            for b in range(a + 1, len(nodes)):
                p, q, Gb = nodes[b]
                dist = abs(k - p) / spec.n + spec.alpha_tick * abs(j - q) / root_n
                bound = 2.0 * float(modulus(dist)) + slack
                if abs(math.sqrt(max(Ga, 0.0)) - math.sqrt(max(Gb, 0.0))) > bound:
                    violations.append(
                        f"modulus violated between ({k}, {j}) and ({p}, {q})"
                    )
    return len(violations) == 0, violations


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


def _golden_min(fn, lo, hi, tol):
    """Golden-section minima of fn on the intervals [lo[i], hi[i]] in
    lockstep. fn maps an array of points to their values; each step
    evaluates, in one call, one new point per interval still wider than
    tol. Returns the minimizers and their values."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc, fd = np.split(fn(np.concatenate([c, d])), 2)
    while np.any(live := hi - lo > tol):
        left, right = live & (fc < fd), live & ~(fc < fd)
        hi[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = hi[left] - gr * (hi[left] - lo[left])
        lo[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = lo[right] + gr * (hi[right] - lo[right])
        f = fn(np.where(left, c, d)[live])
        fc[left], fd[right] = f[left[live]], f[right[live]]
    return np.where(fc <= fd, c, d), np.where(fc <= fd, fc, fd)


def _feasible_segments(gap_fn, lo, hi, epsilon, n_scan):
    """Maximal subintervals of [lo, hi] where |gap| <= epsilon, endpoints
    refined by at most 60 bisection steps, fewer once every end has stalled;
    gap_fn maps an array of points to their gaps."""
    grid = np.linspace(lo, hi, n_scan)
    gaps = np.abs(gap_fn(grid))
    feasible = gaps <= epsilon
    if not np.any(feasible):
        return [], float(gaps.min())
    # a run of feasible points starts where the zero-padded indicator steps
    # up and ends just before it steps down
    steps = np.diff(np.concatenate([[0], feasible.astype(int), [0]]))
    first, last = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1) - 1
    # every run end bisects against its infeasible neighbour, all ends in
    # one call per step; an end on the grid's edge bisects against itself
    t_feas = grid[np.concatenate([first, last])]
    t_infeas = grid[np.concatenate([np.maximum(first - 1, 0),
                                    np.minimum(last + 1, n_scan - 1)])]
    for _ in range(60):
        mid = 0.5 * (t_feas + t_infeas)
        # once every midpoint is one of its own ends, no later step can
        # move an end: each would only re-test a point already classified
        if np.all((mid == t_feas) | (mid == t_infeas)):
            break
        ok = np.abs(gap_fn(mid)) <= epsilon
        t_feas, t_infeas = np.where(ok, mid, t_feas), np.where(ok, t_infeas, mid)
    return list(zip(*np.split(t_feas, 2))), float(gaps.min())


def calibrate(problem: CalibProblem, spec: LatticeSpec, epsilon: float) -> CalibrationResult:
    """Entropy-minimal family member subject to the terminal moment band.

    One search serves every line through parameter space: scan it, refine
    the feasible segments where |E[payoff] - target| <= epsilon by
    bisection, and golden-section the chain entropy inside each. Several
    parameters add coordinate descent, seeded at the best feasible
    constant. Each step walks all its candidates in one batch.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n, p = spec.n, problem.n_pieces
    if isinstance(problem.sigma0, VolSurface):
        sigma0, b0 = problem.sigma0.sigma, problem.sigma0.b
    else:
        sigma0, b0 = [float(problem.sigma0)] * n, [spec.b0] * n
    block = [min(k * p // n, p - 1) for k in range(n)]
    payoff = np.array([float(problem.payoff(x)) for x in spec.positions(n)])
    span = spec.sigma_max - spec.sigma_min
    lo = spec.sigma_min + 1e-9 * span
    hi = spec.sigma_max - 1e-9 * span
    tol = _GOLDEN_TOL * span

    def walk(thetas):
        """Terminal moment and chain entropy of each row of parameters."""
        law, entropy, _, _ = _chain_walk(
            [thetas[:, [i]] for i in block], [spec.b0] * n, sigma0, b0, spec)
        return np.vecdot(law, payoff), entropy

    def search(axis, n_scan):
        """The entropy-minimal feasible point t of the line that sets the
        parameters on the axis mask to t and keeps the others at theta (None
        when no scan point is feasible), and the smallest |gap| on the scan."""
        def line(t):
            return np.where(axis, t[:, None], theta)

        segments, best_gap = _feasible_segments(
            lambda t: walk(line(t))[0] - problem.target, lo, hi, epsilon, n_scan)
        if not segments:
            return None, best_gap
        a, b = np.array(segments).T
        points, values = _golden_min(lambda t: walk(line(t))[1], a, b, tol)
        points = np.concatenate([points, a, b])
        values = np.concatenate([values, walk(line(np.concatenate([a, b])))[1]])
        return points[np.argmin(values)], best_gap

    # the constant line first, then coordinate descent along each axis
    theta = np.zeros(p)
    t, best_gap = search(np.ones(p, dtype=bool), _THETA_SCAN)
    if t is None:
        raise CalibrationInfeasible(
            f"no constant parameter meets the band; smallest |gap| is {best_gap:.3e}"
        )
    theta[:] = t
    for _ in range(30 if p > 1 else 0):
        moved = 0.0
        for i in range(p):
            t, _ = search(np.arange(p) == i, 100)
            if t is not None:
                moved = max(moved, abs(t - theta[i]))
                theta[i] = t
        if moved < tol:
            break

    moment, entropy = (float(v[0]) for v in walk(theta[None, :]))
    if abs(moment - problem.target) > epsilon + 1e-9:
        raise CalibrationInfeasible(
            f"search ended outside the band (|gap| = {abs(moment - problem.target):.3e})"
        )
    sigma_star = VolSurface(
        sigma=tuple(np.full(2 * k + 1, theta[i]) for k, i in enumerate(block)),
        b=tuple(np.full(2 * k + 1, spec.b0) for k in range(n)),
    )
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


def _sample_paths(tree: TrinomialTree, m: int, gen):
    """Draw m paths; returns (two-time count tables, terminal offsets)."""
    n = tree.spec.n
    counts = [np.zeros((2 * k + 1, 3)) for k in range(n)]
    j = np.zeros(m, dtype=int)
    for k in range(n):
        rows = tree.transitions[k][j + k]
        u = gen.random(m)
        move = (u > rows[:, 0]).astype(int) + (u > rows[:, 0] + rows[:, 1]).astype(int)
        np.add.at(counts[k], (j + k, move), 1.0)
        j += 1 - move
    return counts, j


def gibbs_tree_mc(spec: LatticeSpec, sigma0: float, payoff, n: int, epsilon: float,
                  m: int, trials: int, seed: int,
                  delta_rel: float = 0.05, modulus=None) -> dict:
    """Conditioned-ensemble experiment on the lattice at fixed small n.

    Each trial draws m paths from the (sigma0, b0) tree, forms the
    empirical path statistics, and accepts the trial when the implied
    coefficients pass the membership check (inequalities relaxed by
    delta_rel, since an m-path empirical law meets the exact conditional
    structure only in the limit) and the empirical terminal moment lies in
    the band. Accepted terminal distributions are averaged and compared,
    in the bounded-Lipschitz distance, against the terminal law of the
    entropy-calibrated tree. Zero acceptances are reported with the
    rule-of-three bound rather than raised.
    """
    spec_n = replace(spec, n=n)
    surf0 = VolSurface.constant(spec_n, float(sigma0), spec_n.b0)
    tree0 = build_tree(surf0, spec_n)
    calib = calibrate(CalibProblem(sigma0=sigma0, payoff=payoff), spec_n, epsilon)
    star_terminal = build_tree(calib.sigma_star, spec_n).node_prob[n]

    accepted = 0
    terminal_sum = np.zeros(2 * n + 1)
    gen = mc_stream(seed)
    for _ in range(trials):
        counts, j_final = _sample_paths(tree0, m, gen)
        marg = [c / m for c in counts]
        ok, _ = tilde_t_membership(marg, spec_n, epsilon, modulus=modulus,
                                   slack=delta_rel)
        xs = j_final * spec_n.dx
        emp_moment = float(np.mean([payoff(x) for x in xs]))
        if ok and abs(emp_moment - 1.0) <= epsilon + delta_rel:
            accepted += 1
            terminal_sum += np.bincount(j_final + n, minlength=2 * n + 1) / m

    report = {
        "n": n,
        "m": m,
        "trials": trials,
        "accepted": accepted,
        "acceptance_rate": accepted / trials,
        "theta_star": float(calib.theta_star[0]),
        "calibration_entropy": calib.entropy,
        "d_fm": None,
        "p_upper_rule_of_three": None,
    }
    if accepted == 0:
        report["p_upper_rule_of_three"] = 3.0 / trials
        return report
    space = MetricSpacePoints.from_coordinates(spec_n.positions(n)[:, None])
    r_weights = terminal_sum / accepted
    r_weights = r_weights / r_weights.sum()
    report["d_fm"] = fm_distance(
        FiniteMeasure(space, r_weights), FiniteMeasure(space, star_terminal)
    )
    return report


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
        surf = VolSurface.constant(spec, float(sigma_value), spec.b0)
        tree = build_tree(surf, spec)
        mean = expectation(tree, lambda x: x, spec.n)
        second = expectation(tree, lambda x: x * x, spec.n)
        rows.append({
            "n": spec.n,
            "mean_gap": abs(mean - ref_mean),
            "variance_gap": abs(second - mean ** 2 - ref_var),
            "max_increment": spec.dx,
        })
    return rows
