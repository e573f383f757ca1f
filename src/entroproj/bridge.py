"""Discrete entropic bridges between prescribed marginals.

A reference joint law on a product grid is stored through its density p
against the product of its own marginals. Alternating marginal fitting
(iterative proportional fitting) produces the potential pair (f, g) whose
product tilts the reference to the target marginals; the tilted law is the
entropy-minimal coupling. Entropy comes out two independent ways, directly
and through the potentials, which is the consistency check the tests lean
on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .gibbs import _sample_types, mc_stream
from .measures import (
    FiniteMeasure,
    MetricSpacePoints,
    fm_distance,
    prohorov_distance,
)

_MARGINAL_TOL = 1e-10


def _density_ratio(target: FiniteMeasure, reference: FiniteMeasure) -> np.ndarray:
    """Pointwise d(target)/d(reference), zero off the reference support."""
    t, r = target.weights, reference.weights
    if np.any((t > 0) & (r == 0)):
        raise ValueError("target is not absolutely continuous with respect to the reference")
    return np.divide(t, r, out=np.zeros_like(t), where=r > 0)


@dataclass(frozen=True)
class BridgeProblem:
    """Reference pair (mu0, mu1, p) plus target marginals (nu0, nu1).

    p is the density of the reference joint law against mu0 x mu1, so
    sum_v p(u, v) mu1(v) = 1 for every charged u and symmetrically. Both
    identities are checked on construction.
    """

    mu0: FiniteMeasure
    mu1: FiniteMeasure
    p: np.ndarray
    nu0: FiniteMeasure
    nu1: FiniteMeasure
    _joint_space: MetricSpacePoints | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).copy()
        if p.shape != (len(self.mu0.space), len(self.mu1.space)):
            raise ValueError("p must be a (|grid_u|, |grid_v|) table")
        if np.any(p < 0):
            raise ValueError("p must be nonnegative")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        w0, w1 = self.mu0.weights, self.mu1.weights
        rows = p @ w1
        cols = p.T @ w0
        bad_row = np.max(np.abs(rows[w0 > 0] - 1.0)) if np.any(w0 > 0) else 0.0
        bad_col = np.max(np.abs(cols[w1 > 0] - 1.0)) if np.any(w1 > 0) else 0.0
        if max(bad_row, bad_col) > _MARGINAL_TOL:
            raise ValueError(
                f"p is not a conditional density pair (marginal defect {max(bad_row, bad_col):.3e})"
            )
        _density_ratio(self.nu0, self.mu0)
        _density_ratio(self.nu1, self.mu1)

    @property
    def grid_u(self):
        return self.mu0.space.points

    @property
    def grid_v(self):
        return self.mu1.space.points

    def reference_joint(self) -> np.ndarray:
        """Weights of the reference joint law, a probability table."""
        return self.p * np.outer(self.mu0.weights, self.mu1.weights)

    def joint_space(self) -> MetricSpacePoints:
        """Product support with the max metric, built once on demand."""
        if self._joint_space is None:
            s0, s1 = self.mu0.space, self.mu1.space
            points = tuple((a, b) for a in s0.points for b in s1.points)
            d = np.maximum(
                np.kron(s0.dist, np.ones_like(s1.dist)),
                np.kron(np.ones_like(s0.dist), s1.dist),
            )
            space = MetricSpacePoints(points=points, dist=d, validate=False)
            object.__setattr__(self, "_joint_space", space)
        return self._joint_space


@dataclass(frozen=True)
class BridgePotentials:
    """Potential pair with the final marginal residual and its history.

    The pair is gauge-fixed so that the nu0-mean of log f equals the
    nu1-mean of log g; the product f(u)g(v) is what matters.
    """

    f: np.ndarray
    g: np.ndarray
    residual: float
    history: tuple


def _marginal_residual(problem, f, g):
    w0, w1 = problem.mu0.weights, problem.mu1.weights
    row = f * w0 * (problem.p @ (g * w1))
    col = g * w1 * (problem.p.T @ (f * w0))
    return float(max(
        np.sum(np.abs(row - problem.nu0.weights)),
        np.sum(np.abs(col - problem.nu1.weights)),
    ))


def sinkhorn(problem: BridgeProblem, tol: float = 1e-12, max_iter: int = 500) -> BridgePotentials:
    """Alternating marginal fitting for the potential system.

    Starts from g identically 1 and updates f first. The residual recorded
    after each sweep is the larger of the two total-variation deviations of
    the coupled marginals from their targets; iteration stops at residual
    <= tol or max_iter, and the last iterate is returned either way with the
    full residual history, so a non-converged run is visible rather than
    fatal.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a0 = _density_ratio(problem.nu0, problem.mu0)
    a1 = _density_ratio(problem.nu1, problem.mu1)
    w0, w1 = problem.mu0.weights, problem.mu1.weights
    p = problem.p
    g = np.ones(len(w1))
    f = np.zeros(len(w0))
    history = []
    for _ in range(max_iter):
        den_f = p @ (g * w1)
        if np.any((den_f <= 0) & (a0 > 0)):
            raise ValueError("reference density vanishes where the first target is charged")
        f = np.divide(a0, den_f, out=np.zeros_like(a0), where=den_f > 0)
        den_g = p.T @ (f * w0)
        if np.any((den_g <= 0) & (a1 > 0)):
            raise ValueError("reference density vanishes where the second target is charged")
        g = np.divide(a1, den_g, out=np.zeros_like(a1), where=den_g > 0)
        residual = _marginal_residual(problem, f, g)
        history.append(residual)
        if residual <= tol:
            break
    s0 = problem.nu0.weights > 0
    s1 = problem.nu1.weights > 0
    balance = 0.5 * (
        float(problem.nu0.weights[s0] @ np.log(f[s0]))
        - float(problem.nu1.weights[s1] @ np.log(g[s1]))
    )
    f = f * math.exp(-balance)
    g = g * math.exp(balance)
    return BridgePotentials(f=f, g=g, residual=history[-1], history=tuple(history))


def bridge_measure(problem: BridgeProblem, potentials: BridgePotentials) -> FiniteMeasure:
    """The tilted joint law f(u)g(v) dmu01 as a measure on the product grid."""
    w = potentials.f[:, None] * potentials.g[None, :] * problem.reference_joint()
    total = w.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("potentials produce a degenerate joint law")
    return FiniteMeasure(problem.joint_space(), (w / total).ravel())


def bridge_entropy(problem: BridgeProblem, potentials: BridgePotentials):
    """Entropy of the bridge relative to the reference joint, twice.

    H_direct sums pi log(pi / reference) over the table; H_potentials is
    the marginal form, nu0-mean of log f plus nu1-mean of log g. At a
    converged fixed point the two agree within a few residuals.
    """
    ref = problem.reference_joint()
    pi = potentials.f[:, None] * potentials.g[None, :] * ref
    pi = pi / pi.sum()
    mask = pi > 0
    h_direct = float(np.sum(pi[mask] * np.log(pi[mask] / ref[mask])))
    s0 = problem.nu0.weights > 0
    s1 = problem.nu1.weights > 0
    h_pot = float(problem.nu0.weights[s0] @ np.log(potentials.f[s0])) + float(
        problem.nu1.weights[s1] @ np.log(potentials.g[s1])
    )
    return h_direct, h_pot


def gaussian_reference(grid, t: float, mu0: FiniteMeasure | None = None,
                       nu0: FiniteMeasure | None = None,
                       nu1: FiniteMeasure | None = None) -> BridgeProblem:
    """Bridge problem skeleton with heat-kernel transitions on a 1-D grid.

    The transition table T(u, v) is proportional to exp(-(v-u)^2 / 2t) and
    row-normalized; mu1 is the push of mu0 through T and p = T / mu1, which
    satisfies both conditional-density identities by construction. Targets
    default to the reference marginals themselves, giving the trivial
    bridge; callers swap in their own nu0, nu1.
    """
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or len(x) < 2 or np.any(np.diff(x) <= 0):
        raise ValueError("grid must be strictly increasing with at least two points")
    if t <= 0:
        raise ValueError("kernel variance t must be positive")
    if mu0 is None:
        space = MetricSpacePoints.from_coordinates(x[:, None])
        mu0 = FiniteMeasure.uniform(space)
    else:
        space = mu0.space
        pts = np.asarray(space.points, dtype=float).reshape(-1)
        if len(pts) != len(x) or np.max(np.abs(pts - x)) > 0:
            raise ValueError("mu0 must live on the supplied grid")
    k = np.exp(-((x[None, :] - x[:, None]) ** 2) / (2.0 * t))
    T = k / k.sum(axis=1, keepdims=True)
    w1 = T.T @ mu0.weights
    mu1 = FiniteMeasure(space, w1 / w1.sum())
    p = T / mu1.weights[None, :]
    if nu0 is None:
        nu0 = mu0
    if nu1 is None:
        nu1 = mu1
    return BridgeProblem(mu0=mu0, mu1=mu1, p=p, nu0=nu0, nu1=nu1)


def with_targets(problem: BridgeProblem, nu0: FiniteMeasure, nu1: FiniteMeasure) -> BridgeProblem:
    """Same reference, new target marginals."""
    return replace(problem, nu0=nu0, nu1=nu1)


def marginal_schedule_check(nu: FiniteMeasure, metric: str, epsilon_fn, n_list,
                            trials: int, seed: int):
    """Empirical P(d(L_n, nu) <= epsilon_n) for i.i.d.(nu) samples.

    Rows (n, epsilon, prob). The schedule condition behind total-variation
    convergence of conditioned bridges asks for this probability to reach 1
    along the sequence; a too-fast schedule shows up as a stalled column.
    """
    if metric not in ("fm", "prohorov"):
        raise ValueError(f"unknown metric {metric!r}")
    dist = fm_distance if metric == "fm" else prohorov_distance
    gen = mc_stream(seed)
    rows = []
    for n in n_list:
        eps = float(epsilon_fn(n))
        counts, _ = _sample_types(gen, nu.weights, n, trials, 0)
        # one distance per distinct type, however many trials share it
        types, inverse = np.unique(counts, axis=0, return_inverse=True)
        ok = np.array([dist(FiniteMeasure(nu.space, row / n), nu) <= eps for row in types])
        hits = int(np.count_nonzero(ok[inverse.reshape(-1)]))
        rows.append({"n": n, "epsilon": eps, "prob": hits / trials})
    return rows
