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
from dataclasses import dataclass, replace

import numpy as np

from .measures import FiniteMeasure, MetricSpacePoints

_MARGINAL_TOL = 1e-10
# sinkhorn's over-relaxation schedule, described in its docstring
_RELAX_AFTER = 8
_RATE_AGREEMENT = 0.01
_RELAX_PATIENCE = 50
# cells of the reference joint summed at a time by bridge_entropy
_ENTROPY_CELLS = 1 << 16


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

    def __post_init__(self):
        p = self.p
        # a p frozen by an earlier problem is shared, not copied again
        if not (isinstance(p, np.ndarray) and p.dtype == np.float64
                and p.flags.owndata and not p.flags.writeable):
            p = np.array(p, dtype=float)
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
        """Product support with the max metric; it holds only its two factors."""
        return MetricSpacePoints.product([self.mu0.space, self.mu1.space])


@dataclass(frozen=True)
class BridgePotentials:
    """Potential pair with the final marginal residual and its history.

    The pair is gauge-fixed so that the nu0-mean of log f equals the
    nu1-mean of log g; the product f(u)g(v) is what matters. omega is the
    relaxation factor of the last sweep and relaxed_at the first relaxed
    sweep (None when every sweep was plain); relaxed_at with omega 1.0
    means the relaxed sweeps stalled or lagged the plain rate, and plain
    ones finished the run.
    """

    f: np.ndarray
    g: np.ndarray
    residual: float
    history: tuple
    omega: float = 1.0
    relaxed_at: int | None = None


def sinkhorn(problem: BridgeProblem, tol: float = 1e-12, max_iter: int = 500) -> BridgePotentials:
    """Over-relaxed alternating marginal fitting for the potential system.

    Starts from g identically 1 and updates f first. Each update replaces
    a potential by old^(1 - omega) fit^omega, where fit is the plain
    marginal fit, and keeps it 0 off the target support. The first sweeps
    are plain (omega = 1). Once at least _RELAX_AFTER sweeps have run and
    three successive residual ratios agree within _RATE_AGREEMENT, the last
    ratio eta < 1 is read as the plain iteration's linear rate and omega
    becomes 2 / (1 + sqrt(1 - eta)), the optimal factor of Lehmann, von
    Renesse, Sambale and Uschmajew, "A note on overrelaxation in the
    Sinkhorn algorithm", Optim. Lett. 16 (2022); the relaxed iteration is
    that of Thibault, Chizat, Dossal and Papadakis, "Overrelaxed
    Sinkhorn-Knopp algorithm for regularized optimal transport" (2017).
    After the switch the residual can rise for a few sweeps before it
    falls. From _RELAX_PATIENCE relaxed sweeps on, the run goes on with
    plain sweeps if the relaxed ones set no new least residual in the last
    _RELAX_PATIENCE sweeps, or if their least residual is above r rho^k,
    where plain sweeps would be: r and rho are the residual and the residual
    ratio of the last plain sweep, read from the history, and k counts the
    relaxed sweeps.

    The residual recorded after each sweep is the larger of the two
    total-variation deviations of the current pair's coupled marginals from
    their targets; iteration stops at residual <= tol or max_iter, and the
    last iterate is returned either way with the full residual history, so
    a non-converged run is visible rather than fatal. Potentials that stop
    being finite raise ValueError: the reference kernel has underflowed
    too far for the scalings to compensate in floating point.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be a positive integer")
    a0 = _density_ratio(problem.nu0, problem.mu0)
    a1 = _density_ratio(problem.nu1, problem.mu1)
    w0, w1 = problem.mu0.weights, problem.mu1.weights
    p = problem.p
    g = np.ones(len(w1))
    f = np.zeros(len(w0))
    history = []
    omega, relaxed_at, best_at = 1.0, None, 0
    den_f = p @ (g * w1)
    # overflow and 0 ** negative surface below as non-finite potentials
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for sweep in range(1, max_iter + 1):
            # history[k - 1] is the residual after sweep k
            if relaxed_at is None:
                eta = _steady_rate(history)
                if eta is not None:
                    omega, relaxed_at = 2.0 / (1.0 + math.sqrt(1.0 - eta)), sweep
                    best_at = sweep - 1
                    rho = history[-1] / history[-2]
            elif omega != 1.0:
                if history[-1] < history[best_at - 1]:
                    best_at = sweep - 1
                relaxed = sweep - relaxed_at
                if relaxed >= _RELAX_PATIENCE and (
                        sweep - 1 - best_at >= _RELAX_PATIENCE
                        or history[best_at - 1] > history[relaxed_at - 2] * rho ** relaxed):
                    omega = 1.0
            if np.any((den_f <= 0) & (a0 > 0)):
                raise ValueError("reference density vanishes where the first target is charged")
            f = _fit(f, a0, den_f, omega)
            den_g = p.T @ (f * w0)
            if np.any((den_g <= 0) & (a1 > 0)):
                raise ValueError("reference density vanishes where the second target is charged")
            g = _fit(g, a1, den_g, omega)
            if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
                raise ValueError(
                    f"potentials stopped being finite at sweep {sweep}: the reference "
                    "kernel underflows too far for the scalings to compensate"
                )
            # the next sweep's den_f; with den_g it gives both coupled marginals
            den_f = p @ (g * w1)
            residual = float(max(
                np.sum(np.abs(f * w0 * den_f - problem.nu0.weights)),
                np.sum(np.abs(g * w1 * den_g - problem.nu1.weights)),
            ))
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
    return BridgePotentials(f=f, g=g, residual=history[-1], history=tuple(history),
                            omega=omega, relaxed_at=relaxed_at)


def _fit(old: np.ndarray, a: np.ndarray, den: np.ndarray, omega: float) -> np.ndarray:
    """The marginal fit a / den, 0 off the support of a, relaxed to
    old^(1 - omega) fit^omega on it."""
    fit = np.divide(a, den, out=np.zeros_like(a), where=den > 0)
    if omega != 1.0:
        on = a > 0
        fit[on] = old[on] ** (1.0 - omega) * fit[on] ** omega
    return fit


def _steady_rate(history) -> float | None:
    """The last residual ratio once the plain sweeps contract steadily:
    after _RELAX_AFTER sweeps, when three successive ratios agree within
    _RATE_AGREEMENT of it and it is below 1; else None."""
    if len(history) < _RELAX_AFTER:
        return None
    last = history[-4:]
    ratios = [b / a for a, b in zip(last, last[1:])]
    eta = ratios[-1]
    if eta < 1.0 and all(abs(r - eta) <= _RATE_AGREEMENT * eta for r in ratios):
        return eta
    return None


def _finite_potentials(potentials: BridgePotentials):
    """(f, g), or ValueError when either holds a NaN or an infinity."""
    f, g = potentials.f, potentials.g
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
        raise ValueError("potentials are not finite")
    return f, g


def bridge_measure(problem: BridgeProblem, potentials: BridgePotentials) -> FiniteMeasure:
    """The tilted joint law f(u)g(v) dmu01 as a measure on the product grid."""
    f, g = _finite_potentials(potentials)
    w = f[:, None] * g[None, :] * problem.reference_joint()
    total = w.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("potentials produce a degenerate joint law")
    return FiniteMeasure(problem.joint_space(), (w / total).ravel())


def bridge_entropy(problem: BridgeProblem, potentials: BridgePotentials):
    """Entropy of the bridge relative to the reference joint, twice.

    H_direct sums pi log(pi / reference) over the table; H_potentials is
    the marginal form, nu0-mean of log f plus nu1-mean of log g. At a
    converged fixed point the two agree within a few residuals. The table
    is summed in blocks of rows of about _ENTROPY_CELLS cells, unnormalized:
    with Z the total of pi, the sum of (pi/Z) log(pi/(Z ref)) is
    (sum of pi log(pi/ref)) / Z - log Z.
    """
    f, g = _finite_potentials(potentials)
    w0, w1 = problem.mu0.weights, problem.mu1.weights
    rows = max(1, _ENTROPY_CELLS // len(w1))
    total = weighted_log = 0.0
    for i in range(0, len(w0), rows):
        block = slice(i, i + rows)
        ref = problem.p[block] * np.outer(w0[block], w1)
        pi = f[block, None] * g[None, :] * ref
        mask = pi > 0
        total += float(pi.sum())
        weighted_log += float(np.sum(pi[mask] * np.log(pi[mask] / ref[mask])))
    if not np.isfinite(total) or total <= 0:
        raise ValueError("potentials produce a degenerate joint law")
    h_direct = weighted_log / total - math.log(total)
    s0 = problem.nu0.weights > 0
    s1 = problem.nu1.weights > 0
    h_pot = float(problem.nu0.weights[s0] @ np.log(f[s0])) + float(
        problem.nu1.weights[s1] @ np.log(g[s1])
    )
    return h_direct, h_pot


def increasing_grid(grid) -> np.ndarray:
    """The grid as a float array; raises unless it is one-dimensional and
    strictly increasing with at least two points."""
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or len(x) < 2 or np.any(np.diff(x) <= 0):
        raise ValueError("grid must be strictly increasing with at least two points")
    return x


def gaussian_reference(grid, t: float, mu0: FiniteMeasure | None = None,
                       nu0: FiniteMeasure | None = None,
                       nu1: FiniteMeasure | None = None) -> BridgeProblem:
    """Bridge problem skeleton with heat-kernel transitions on a 1-D grid.

    The transition table T(u, v) is proportional to exp(-(v-u)^2 / 2t) and
    row-normalized; mu1 is the push of mu0 through T and p = T / mu1 (0
    where mu1 is), which satisfies both conditional-density identities by
    construction. Targets default to the reference marginals themselves,
    giving the trivial bridge; callers swap in their own nu0, nu1.
    """
    x = increasing_grid(grid)
    if t <= 0:
        raise ValueError("kernel variance t must be positive")
    space = MetricSpacePoints.from_coordinates(x)
    if mu0 is None:
        mu0 = FiniteMeasure.uniform(space)
    elif mu0.space != space:
        raise ValueError("mu0 must live on the supplied grid")
    # one table, turned in place from squared distances into k, T and p
    p = x[None, :] - x[:, None]
    np.square(p, out=p)
    p /= -2.0 * t
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    w1 = p.T @ mu0.weights
    mu1 = FiniteMeasure(mu0.space, w1 / w1.sum())
    p /= np.where(mu1.weights > 0, mu1.weights, np.inf)
    p.setflags(write=False)
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
    from .gibbs import _accepted_patterns, mc_stream, metric_ball

    gen = mc_stream(seed)
    rows = []
    for n in n_list:
        ball = metric_ball(nu, metric, float(epsilon_fn(n)))
        hits = int(_accepted_patterns(gen, nu, n, ball, 0, trials)[0])
        rows.append({"n": n, "epsilon": ball.radius, "prob": hits / trials})
    return rows
