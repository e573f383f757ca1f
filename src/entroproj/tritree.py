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
from dataclasses import dataclass, replace
from itertools import product as iter_product

import numpy as np

from .gibbs import mc_stream
from .measures import FiniteMeasure, MetricSpacePoints, fm_distance

_THETA_SCAN = 400
_AUDIT_POINTS = 200
_GOLDEN_TOL = 1e-6
_COND_TOL = 1e-9


class CalibrationInfeasible(ValueError):
    """No parameter in the family satisfies the moment band at this (n, epsilon)."""


def _min_level(alpha_tick, sigma_min, b0, s):
    return math.floor((alpha_tick * (b0 + s) / sigma_min ** 2) ** 2) + 1


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
        n0 = _min_level(self.alpha_tick, self.sigma_min, self.b0, self.s)
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
    return _min_level(spec.alpha_tick, spec.sigma_min, spec.b0, spec.s)


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

    def to_document(self) -> dict:
        return {
            "sigma": [[repr(float(v)) for v in a] for a in self.sigma],
            "b": [[repr(float(v)) for v in a] for a in self.b],
        }

    @classmethod
    def from_document(cls, doc: dict) -> "VolSurface":
        return cls(
            sigma=tuple(np.array([float(v) for v in a]) for a in doc["sigma"]),
            b=tuple(np.array([float(v) for v in a]) for a in doc["b"]),
        )


def _kernel_arrays(y, z, spec):
    """Vectorized (m, r, d) for arrays of variance and drift values."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    half_var = y ** 2 / (2.0 * spec.alpha_tick ** 2)
    tilt = z / (2.0 * spec.alpha_tick * math.sqrt(spec.n))
    m = half_var + tilt
    d = half_var - tilt
    r = 1.0 - (m + d)
    return m, r, d


def kernel(y: float, z: float, spec: LatticeSpec):
    """One-step transition weights (up, stay, down) at variance y, drift z.

    m = y^2/(2 alpha^2) + z/(2 alpha sqrt(n)) and d is its mirror, so the
    three weights sum to 1 exactly. Raises when any weight fails strict
    positivity, which is the signature of n below the minimal level for
    this (y, z).
    """
    m, r, d = _kernel_arrays(y, z, spec)
    m, r, d = float(m), float(r), float(d)
    if min(m, r, d) <= 0.0:
        raise ValueError(
            f"kernel weights ({m:.6g}, {r:.6g}, {d:.6g}) are not strictly "
            f"positive at n={spec.n} for (y, z)=({y}, {z})"
        )
    return m, r, d


@dataclass(frozen=True)
class TrinomialTree:
    """Forward law of a lattice chain started at the origin.

    node_prob[k][j + k] is P(X_{k/n} = j dx); transitions[k] has rows
    (m, r, d) per level-k node. Construction checks the stochasticity of
    every row, unit mass per level, and forward consistency of node_prob
    with the transitions.
    """

    spec: LatticeSpec
    node_prob: tuple
    transitions: tuple

    def __post_init__(self):
        n = self.spec.n
        probs = tuple(np.asarray(a, dtype=float) for a in self.node_prob)
        trans = tuple(np.asarray(a, dtype=float) for a in self.transitions)
        if len(probs) != n + 1 or len(trans) != n:
            raise ValueError("need node_prob for levels 0..n and transitions for 0..n-1")
        for k, a in enumerate(probs):
            if a.shape != (2 * k + 1,):
                raise ValueError(f"level {k} node_prob must have length {2 * k + 1}")
            if abs(a.sum() - 1.0) > 1e-12:
                raise ValueError(f"level {k} probabilities sum to {a.sum()!r}")
            a.setflags(write=False)
        for k, t in enumerate(trans):
            if t.shape != (2 * k + 1, 3):
                raise ValueError(f"level {k} transitions must be ({2 * k + 1}, 3)")
            if np.any(t < 0) or np.max(np.abs(t.sum(axis=1) - 1.0)) > 1e-12:
                raise ValueError(f"level {k} transition rows are not stochastic")
            t.setflags(write=False)
            pushed = _push_level(probs[k], t)
            if np.max(np.abs(pushed - probs[k + 1])) > 1e-12:
                raise ValueError(f"node_prob at level {k + 1} is not the push of level {k}")
        object.__setattr__(self, "node_prob", probs)
        object.__setattr__(self, "transitions", trans)


def _push_level(prob, trans):
    out = np.zeros(len(prob) + 2)
    out[2:] += prob * trans[:, 0]
    out[1:-1] += prob * trans[:, 1]
    out[:-2] += prob * trans[:, 2]
    return out


def build_tree(surface: VolSurface, spec: LatticeSpec) -> TrinomialTree:
    """Forward induction from a unit mass at the origin."""
    if surface.levels < spec.n:
        raise ValueError(f"surface has {surface.levels} levels, spec needs {spec.n}")
    probs = [np.array([1.0])]
    trans = []
    for k in range(spec.n):
        m, r, d = _kernel_arrays(surface.sigma[k], surface.b[k], spec)
        if min(m.min(), r.min(), d.min()) <= 0.0:
            raise ValueError(
                f"kernel not strictly positive at level {k}; n={spec.n} is too "
                "small for these coefficient values"
            )
        t = np.column_stack([m, r, d])
        trans.append(t)
        probs.append(_push_level(probs[k], t))
    return TrinomialTree(spec=spec, node_prob=tuple(probs), transitions=tuple(trans))


def expectation(tree: TrinomialTree, payoff, level: int) -> float:
    """Mean of payoff(X) at the given level; payoff maps a real to a real."""
    xs = tree.spec.positions(level)
    values = np.array([float(payoff(x)) for x in xs])
    return float(tree.node_prob[level] @ values)


def _level_local_entropy(sig, b, sig0, b0, spec):
    m1, r1, d1 = _kernel_arrays(sig, b, spec)
    m0, r0, d0 = _kernel_arrays(sig0, b0, spec)
    if min(m1.min(), r1.min(), d1.min(), m0.min(), r0.min(), d0.min()) <= 0.0:
        raise ValueError("local entropy needs strictly positive kernels on both sides")
    out = np.zeros_like(m1)
    for p1, p0 in ((m1, m0), (r1, r0), (d1, d0)):
        out += p1 * np.log(p1 / p0)
    return out


def local_entropy(sigma_val: float, b_val: float, sigma0_val: float, b0_val: float,
                  spec: LatticeSpec) -> float:
    """KL divergence of the (sigma, b) kernel from the (sigma0, b0) kernel."""
    return float(_level_local_entropy(
        np.atleast_1d(float(sigma_val)), np.atleast_1d(float(b_val)),
        np.atleast_1d(float(sigma0_val)), np.atleast_1d(float(b0_val)), spec,
    )[0])


def tree_entropy_chain(surface: VolSurface, surface0: VolSurface, spec: LatticeSpec) -> float:
    """Relative entropy of the two path laws via the Markov chain rule.

    Sums, over levels, the (sigma, b)-tree expectation of the nodewise
    kernel KL. Linear work per node, usable to n in the hundreds.
    """
    tree = build_tree(surface, spec)
    total = 0.0
    for k in range(spec.n):
        h = _level_local_entropy(
            surface.sigma[k], surface.b[k], surface0.sigma[k], surface0.b[k], spec
        )
        total += float(tree.node_prob[k] @ h)
    return total


def tree_entropy_paths(surface: VolSurface, surface0: VolSurface, spec: LatticeSpec) -> float:
    """Brute-force path-enumeration oracle for tree_entropy_chain; n <= 10."""
    if spec.n > 10:
        raise ValueError("path enumeration is limited to n <= 10")
    t1 = build_tree(surface, spec).transitions
    t0 = build_tree(surface0, spec).transitions
    total = 0.0
    for moves in iter_product(range(3), repeat=spec.n):
        j = 0
        lp1 = 0.0
        lp0 = 0.0
        for k, mv in enumerate(moves):
            i = j + k
            lp1 += math.log(t1[k][i, mv])
            lp0 += math.log(t0[k][i, mv])
            j += 1 - mv
        total += math.exp(lp1) * (lp1 - lp0)
    return total


def _path_log_probs(tree: TrinomialTree) -> np.ndarray:
    """log P(path) for every move sequence, shape (3,)*n; n <= 10."""
    n = tree.spec.n
    out = np.empty((3,) * n)
    for moves in iter_product(range(3), repeat=n):
        j = 0
        lp = 0.0
        for k, mv in enumerate(moves):
            lp += math.log(tree.transitions[k][j + k, mv])
            j += 1 - mv
        out[moves] = lp
    return out


def path_marginal(Q: np.ndarray, level: int) -> np.ndarray:
    """Level marginal of a path-indexed law; entry j+level is P(X_level = j dx)."""
    n = Q.ndim
    if not 0 <= level <= n:
        raise ValueError("level out of range")
    out = np.zeros(2 * level + 1)
    if level == 0:
        out[0] = Q.sum()
        return out
    head = Q.reshape((3,) * level + (-1,)).sum(axis=-1)
    for moves in iter_product(range(3), repeat=level):
        j = sum(1 - mv for mv in moves)
        out[j + level] += head[moves]
    return out


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
        agg = np.zeros((2 * k + 1, 3))
        head = Q.reshape((3,) * (k + 1) + (-1,)).sum(axis=-1)
        for moves in iter_product(range(3), repeat=k):
            j = sum(1 - mv for mv in moves)
            agg[j + k] += head[moves] if k else head
        mass = agg.sum(axis=1)
        for i in range(2 * k + 1):
            if mass[i] <= 0:
                continue
            cond = agg[i] / mass[i]
            if np.max(np.abs(cond - tree.transitions[k][i])) > _COND_TOL:
                raise ValueError(
                    f"Q violates the one-step conditional at level {k}, offset {i - k}"
                )

    lt = _path_log_probs(tree)
    lt0 = _path_log_probs(tree0)
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
    the (sigma, b) tree; the scaled value staying bounded across an
    n-sweep is the O(1/n) certificate.
    """
    tree = build_tree(surface, spec)
    a2 = spec.alpha_tick ** 2
    worst = 0.0
    for k in range(spec.n):
        h = _level_local_entropy(
            surface.sigma[k], surface.b[k], surface0.sigma[k], surface0.b[k], spec
        )
        gap = np.abs(h - _q(surface.sigma[k] ** 2, surface0.sigma[k] ** 2, a2))
        visited = tree.node_prob[k] > 0
        if np.any(visited):
            worst = max(worst, float(gap[visited].max()))
    return worst, spec.n * worst


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
    spec_N = replace(spec, n=N)
    surf = surface.truncated(N)
    surf0 = surface0.truncated(N)
    tree = build_tree(surf, spec_N)
    a2 = spec.alpha_tick ** 2
    total = 0.0
    for k in range(N):
        total += float(tree.node_prob[k] @ _q(surf.sigma[k] ** 2, surf0.sigma[k] ** 2, a2))
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


def _reference_surface(problem: CalibProblem, spec: LatticeSpec) -> VolSurface:
    if isinstance(problem.sigma0, VolSurface):
        return problem.sigma0.truncated(spec.n)
    return VolSurface.constant(spec, float(problem.sigma0), spec.b0)


def _theta_surface(theta, spec: LatticeSpec) -> VolSurface:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    p = len(theta)
    sig = []
    for k in range(spec.n):
        block = min(k * p // spec.n, p - 1)
        sig.append(np.full(2 * k + 1, theta[block]))
    return VolSurface(
        sigma=tuple(sig),
        b=tuple(np.full(2 * k + 1, spec.b0) for k in range(spec.n)),
    )


def _golden_min(fn, lo, hi, tol):
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = fn(d)
    return (c, fc) if fc <= fd else (d, fd)


def _feasible_segments(gap_fn, lo, hi, epsilon, n_scan):
    """Maximal subintervals of [lo, hi] where |gap| <= epsilon, endpoints refined."""
    grid = np.linspace(lo, hi, n_scan)
    gaps = np.array([abs(gap_fn(t)) for t in grid])
    feasible = gaps <= epsilon
    if not np.any(feasible):
        return [], float(gaps.min())

    def refine(t_feas, t_infeas):
        for _ in range(60):
            mid = 0.5 * (t_feas + t_infeas)
            if abs(gap_fn(mid)) <= epsilon:
                t_feas = mid
            else:
                t_infeas = mid
        return t_feas

    segments = []
    i = 0
    while i < n_scan:
        if not feasible[i]:
            i += 1
            continue
        j = i
        while j + 1 < n_scan and feasible[j + 1]:
            j += 1
        left = grid[i] if i == 0 else refine(grid[i], grid[i - 1])
        right = grid[j] if j == n_scan - 1 else refine(grid[j], grid[j + 1])
        segments.append((left, right))
        i = j + 1
    return segments, float(gaps.min())


def calibrate(problem: CalibProblem, spec: LatticeSpec, epsilon: float) -> CalibrationResult:
    """Entropy-minimal family member subject to the terminal moment band.

    One parameter: scan the variance range, refine the feasible segments
    where |E[payoff] - target| <= epsilon by bisection, and golden-section
    the tree entropy inside each. Several parameters: coordinate descent
    with the same one-dimensional machinery per coordinate, seeded at the
    best feasible constant.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    surf0 = _reference_surface(problem, spec)
    span = spec.sigma_max - spec.sigma_min
    lo = spec.sigma_min + 1e-9 * span
    hi = spec.sigma_max - 1e-9 * span

    def moment_of(theta):
        tree = build_tree(_theta_surface(theta, spec), spec)
        return expectation(tree, problem.payoff, spec.n)

    def entropy_of(theta):
        return tree_entropy_chain(_theta_surface(theta, spec), surf0, spec)

    def constant_gap(t):
        return moment_of(np.full(problem.n_pieces, t)) - problem.target

    segments, best_gap = _feasible_segments(constant_gap, lo, hi, epsilon, _THETA_SCAN)
    if not segments:
        raise CalibrationInfeasible(
            f"no constant parameter meets the band; smallest |gap| is {best_gap:.3e}"
        )

    def best_on_segments(fn, segs):
        winners = [_golden_min(fn, a, b, _GOLDEN_TOL * span) for (a, b) in segs]
        winners.extend((a, fn(a)) for a, _ in segs)
        winners.extend((b, fn(b)) for _, b in segs)
        return min(winners, key=lambda w: w[1])

    t0, _ = best_on_segments(
        lambda t: entropy_of(np.full(problem.n_pieces, t)), segments
    )
    theta = np.full(problem.n_pieces, t0)

    if problem.n_pieces > 1:
        for _ in range(30):
            moved = 0.0
            for i in range(problem.n_pieces):
                def line_gap(t, i=i):
                    cand = theta.copy()
                    cand[i] = t
                    return moment_of(cand) - problem.target

                segs, _ = _feasible_segments(line_gap, lo, hi, epsilon, 100)
                if not segs:
                    continue

                def line_entropy(t, i=i):
                    cand = theta.copy()
                    cand[i] = t
                    return entropy_of(cand)

                t_new, _ = best_on_segments(line_entropy, segs)
                moved = max(moved, abs(t_new - theta[i]))
                theta[i] = t_new
            if moved < _GOLDEN_TOL * span:
                break

    moment = moment_of(theta)
    if abs(moment - problem.target) > epsilon + 1e-9:
        raise CalibrationInfeasible(
            f"search ended outside the band (|gap| = {abs(moment - problem.target):.3e})"
        )
    surface = _theta_surface(theta, spec)
    return CalibrationResult(
        theta_star=theta.copy(),
        sigma_star=surface,
        entropy=entropy_of(theta),
        moment=moment,
        slack=abs(moment - problem.target),
    )


def epsilon0(sigma_star_surface: VolSurface, spec: LatticeSpec, payoff) -> float:
    """Attainable band radius at this level: the constraint slack of the
    calibrated surface plus the 1/n resolution term, clipped at s."""
    tree = build_tree(sigma_star_surface, spec)
    slack = abs(expectation(tree, payoff, spec.n) - 1.0)
    return min(slack + 1.0 / spec.n, spec.s)


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
