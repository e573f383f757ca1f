"""Conditional laws of i.i.d. blocks given an empirical-measure event.

Two engines drive everything: exact enumeration over type classes
(multinomial count vectors), vectorized over blocks of classes and summed in
log space so that events far below the double range keep a finite log
probability, and Monte Carlo rejection on one counter-based stream per call.
On top of them sit the quantitative checks: the Csiszar information
inequality for conditional block laws, the Sanov sandwich for event
probabilities, and total-variation curves along enlargement schedules.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from math import comb

import numpy as np

from .iproj import composition_blocks
from .measures import (
    FiniteMeasure,
    MetricSpacePoints,
    fm_distance,
    log_factorials,
    logsumexp,
    prohorov_distance,
    relative_entropy,
    tv_distance,
)

ENUMERATION_BUDGET = 2_000_000
_PATTERN_BUDGET = 1_000_000
# Cells of one slab of the (classes, pattern count vectors, letters) array
# of falling factorials, so that wide windows stay within a few megabytes.
_LAW_CELLS = 1 << 18
# Uniforms in one block of Monte Carlo draws. A block holds its (rows, n)
# float64 uniforms (eight megabytes), one reused (rows, n) boolean mask and
# its (rows, m) counts, whatever the trial count.
_MC_CELLS = 1 << 20


class ZeroAcceptanceError(RuntimeError):
    """No sample block satisfied the conditioning event.

    For Monte Carlo runs ``upper_bound`` carries the rule-of-three estimate
    3/trials for the event probability; for exact enumeration it is 0.
    """

    def __init__(self, message, upper_bound):
        super().__init__(message)
        self.upper_bound = upper_bound


@dataclass(frozen=True)
class MomentBand:
    """Event {nu : |int F dnu - center| <= radius} in the sup or euclidean norm."""

    F: np.ndarray
    center: np.ndarray
    radius: float
    norm: str = "sup"

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        if F.ndim == 1:
            F = F[:, None]
        F = F.copy()
        F.setflags(write=False)
        object.__setattr__(self, "F", F)
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", c)
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.norm not in ("sup", "euclidean"):
            raise ValueError(f"unknown norm {self.norm!r}")

    def contains_weights(self, weights):
        """Membership of each row of ``weights`` (one answer for a vector)."""
        gap = weights @ self.F - self.center
        if self.norm == "sup":
            dev = np.abs(gap).max(axis=-1)
        else:
            dev = np.linalg.norm(gap, axis=-1)
        return dev <= self.radius

    def contains(self, nu: FiniteMeasure) -> bool:
        return bool(self.contains_weights(nu.weights))


@dataclass(frozen=True)
class MetricBall:
    """Event {nu : d(nu, target) <= radius} for d in {fm, prohorov}."""

    target: FiniteMeasure
    metric: str
    radius: float

    def __post_init__(self):
        if self.metric not in ("fm", "prohorov"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    def contains(self, nu: FiniteMeasure) -> bool:
        if self.metric == "fm":
            return fm_distance(nu, self.target) <= self.radius
        return prohorov_distance(nu, self.target) <= self.radius


def moment_band(F, center, radius, norm="sup") -> MomentBand:
    return MomentBand(F=F, center=center, radius=radius, norm=norm)


def metric_ball(target, metric, radius) -> MetricBall:
    return MetricBall(target=target, metric=metric, radius=radius)


@dataclass(frozen=True)
class ConditionalEstimate:
    """Law of the first k coordinates of a conditioned i.i.d. block.

    For exact enumeration ``acceptance_rate`` is the exact event probability
    and ``n_trials`` counts the enumerated type classes; for Monte Carlo it
    is the accepted fraction over ``n_trials`` sampled blocks.
    ``log_acceptance`` is its logarithm, finite even where the probability
    underflows to 0.0.
    """

    k: int
    law: FiniteMeasure
    acceptance_rate: float
    log_acceptance: float
    n_trials: int
    exact: bool


def _patterns(m, k):
    """The m**k letter patterns of length k as the rows of an (m**k, k) array,
    in itertools.product order; k=0 gives the one empty pattern."""
    return np.indices((m,) * k).reshape(k, m ** k).T.copy()


def product_space(space: MetricSpacePoints, k: int) -> MetricSpacePoints:
    """k-fold product support with the max metric; k=1 returns the space."""
    if k == 1:
        return space
    if len(space) ** k > _PATTERN_BUDGET:
        raise ValueError("product support too large")
    return MetricSpacePoints.product([space] * k)


def product_law(nu: FiniteMeasure, k: int) -> FiniteMeasure:
    """The k-fold product measure nu^(x)k on product_space(nu.space, k)."""
    if k == 1:
        return nu
    space_k = product_space(nu.space, k)
    w = nu.weights[_patterns(len(nu.space), k)].prod(axis=1)
    return FiniteMeasure(space_k, w / w.sum())


def _check_budget(n, m):
    """Bound the type classes and the n + 1 entries of the log-factorial
    table; for m >= 2 the first bound implies the second."""
    classes = comb(n + m - 1, m - 1)
    if classes > ENUMERATION_BUDGET:
        raise ValueError(
            f"{classes} type classes exceed the enumeration budget {ENUMERATION_BUDGET}"
        )
    if n + 1 > ENUMERATION_BUDGET:
        raise ValueError(
            f"{n + 1} log factorials for block length {n} exceed the enumeration "
            f"budget {ENUMERATION_BUDGET}"
        )


def _check_window(n, k, m):
    """Require a positive integer block length n, an integer window k with
    0 <= k <= n, and at most _PATTERN_BUDGET patterns of length k on m
    letters."""
    if not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError("block length n must be a positive integer")
    if not (isinstance(k, numbers.Integral) and k >= 0):
        raise ValueError("window k must be a nonnegative integer")
    if k > n:
        raise ValueError("window k cannot exceed the block length n")
    if m ** k > _PATTERN_BUDGET:
        raise ValueError("pattern alphabet too large for the window size")


def _accepts(event, counts, n, space):
    """Event membership of the empirical measure of each row of counts.

    Metric balls cost one distance per distinct row, however many rows
    repeat it.
    """
    if isinstance(event, MomentBand):
        return event.contains_weights(counts / n)
    types, inverse = np.unique(counts, axis=0, return_inverse=True)
    ok = np.array([event.contains(FiniteMeasure(space, row / n)) for row in types], dtype=bool)
    return ok[inverse.reshape(-1)]


def _pattern_types(m, k):
    """Distinct count vectors of the m**k patterns of length k, and the row
    of each pattern (in itertools.product order) among them."""
    counts = (_patterns(m, k)[:, :, None] == np.arange(m)).sum(axis=1)
    types, inverse = np.unique(counts, axis=0, return_inverse=True)
    return types, inverse.reshape(-1)


def _type_class_sums(alpha: FiniteMeasure, n: int, event, k: int):
    """Sums over the positive-mass type classes of an i.i.d.(alpha) n-block
    whose empirical measure satisfies the event, all in log space.

    Returns (log P(event), log-weights proportional to the law of the first
    k coordinates given the event, number of positive-mass classes). Within
    a class of counts c the first k coordinates are drawn without
    replacement, so a pattern with letter counts r has probability
    prod_s (c_s)_(r_s) / (n)_k in falling factorials; it is computed once
    per distinct r. Classes are visited in blocks, so memory stays bounded.
    The window and the enumeration budget are checked first.
    """
    w = alpha.weights
    m = len(w)
    _check_window(n, k, m)
    _check_budget(n, m)
    zero = w == 0
    log_w = np.log(np.where(zero, 1.0, w))
    log_fact = log_factorials(n)
    r_types, pattern_type = _pattern_types(m, k)
    slab = max(1, _LAW_CELLS // r_types.size)
    log_p_event = -math.inf
    log_law = np.full(len(r_types), -math.inf)
    n_classes = 0
    for counts in composition_blocks(n, m):
        counts = counts[~np.any(counts[:, zero] > 0, axis=1)]
        n_classes += len(counts)
        counts = counts[_accepts(event, counts, n, alpha.space)]
        log_c = log_fact[counts]
        log_p = log_fact[n] - log_c.sum(axis=1) + counts @ log_w
        log_p_event = np.logaddexp(log_p_event, logsumexp(log_p))
        for lo in range(0, len(counts), slab):
            rest = counts[lo:lo + slab, None, :] - r_types
            falling = np.where(rest >= 0, log_c[lo:lo + slab, None, :]
                               - log_fact[np.maximum(rest, 0)], -math.inf).sum(axis=2)
            log_law = np.logaddexp(
                log_law, logsumexp(log_p[lo:lo + slab, None] + falling, axis=0))
    return float(log_p_event), log_law[pattern_type], n_classes


def exact_conditional(alpha: FiniteMeasure, n: int, event, k: int) -> ConditionalEstimate:
    """Exact law of (X_1..X_k) given that the empirical measure of an
    i.i.d.(alpha) n-block satisfies the event.

    Enumerates all type classes (budget-checked), keeps the accepted ones,
    and averages each class's exact within-class pattern law weighted by the
    class probability. Raises ZeroAcceptanceError when the event has
    probability zero, which is the thin-set situation.
    """
    log_p, log_law, n_classes = _type_class_sums(alpha, n, event, k)
    if log_p == -math.inf:
        raise ZeroAcceptanceError(
            "the event has probability zero under every type class",
            upper_bound=0.0,
        )
    weights = np.exp(log_law - logsumexp(log_law))
    return ConditionalEstimate(
        k=k,
        law=FiniteMeasure(product_space(alpha.space, k), weights),
        acceptance_rate=math.exp(log_p),
        log_acceptance=log_p,
        n_trials=n_classes,
        exact=True,
    )


def exact_event_log_probability(alpha: FiniteMeasure, n: int, event) -> float:
    """Exact log P(empirical measure of an n-block satisfies the event),
    -inf for an empty event and never above 0."""
    return min(_type_class_sums(alpha, n, event, 0)[0], 0.0)


def exact_event_probability(alpha: FiniteMeasure, n: int, event) -> float:
    """Exact P(empirical measure of an n-block satisfies the event), capped
    at 1.0; it underflows to 0.0 where exact_event_log_probability does not."""
    return math.exp(exact_event_log_probability(alpha, n, event))


def mc_stream(seed):
    """The counter-based stream of one Monte Carlo call, keyed by (seed, 0)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _sample_types(gen, weights, n, trials, k):
    """Letter counts of ``trials`` i.i.d.(weights) n-blocks, as a (trials, m)
    matrix, and the first k letters of every block, as (trials, k).

    A uniform u is letter j when cumw[j-1] <= u < cumw[j]. The stream is read
    in blocks of about _MC_CELLS uniforms, and each block is counted in
    m - 1 comparison passes: the number of draws per row below cumw[j] is
    the number of draws of letters 0..j, and the differences of these are
    the counts. A block holds its uniforms, one boolean mask and its counts;
    only the first k columns are mapped to letters. The passes grow linearly
    in m, so from about 12 letters on rows of 10 draws, and about 32 on rows
    of 200, they cost more than a binary search per draw would. Philox fills
    draws in order, so the result equals that of one (trials, n) draw.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    m = len(weights)
    cumw = np.cumsum(weights)
    cumw[-1] = 1.0
    rows = max(1, _MC_CELLS // n)
    mask = np.empty((min(rows, trials), n), dtype=bool)
    counts, heads = [], []
    for lo in range(0, trials, rows):
        t = min(rows, trials - lo)
        u = gen.random((t, n))
        c = np.empty((t, m), dtype=np.intp)
        below = 0
        for j in range(m - 1):
            np.less(u, cumw[j], out=mask[:t])
            # with an integer dtype einsum counts the mask instead of or-ing it
            upto = np.einsum("ij->i", mask[:t], dtype=np.intp)
            c[:, j] = upto - below
            below = upto
        c[:, m - 1] = n - below
        counts.append(c)
        heads.append(np.searchsorted(cumw, u[:, :k], side="right"))
    return np.concatenate(counts), np.concatenate(heads)


def run_conditional_mc(alpha: FiniteMeasure, n: int, event, k: int,
                       trials: int, seed: int) -> ConditionalEstimate:
    """Monte Carlo rejection estimate of the conditional k-coordinate law.

    All trials read one counter-based stream keyed by (seed, 0), so results
    are bit-identical for a fixed seed on any host. Zero acceptances raise
    ZeroAcceptanceError carrying the rule-of-three bound 3/trials.
    """
    m = len(alpha.space)
    _check_window(n, k, m)
    counts, heads = _sample_types(mc_stream(seed), alpha.weights, n, trials, k)
    ok = _accepts(event, counts, n, alpha.space)
    accepted = int(ok.sum())
    if accepted == 0:
        raise ZeroAcceptanceError(
            f"no acceptances in {trials} trials; event probability is below "
            f"3/trials = {3.0 / trials:.3g} with 95% confidence",
            upper_bound=3.0 / trials,
        )
    pids = heads[ok] @ (m ** np.arange(k - 1, -1, -1))
    law = FiniteMeasure(product_space(alpha.space, k),
                        np.bincount(pids, minlength=m ** k) / accepted)
    return ConditionalEstimate(
        k=k,
        law=law,
        acceptance_rate=accepted / trials,
        log_acceptance=math.log(accepted / trials),
        n_trials=trials,
        exact=False,
    )


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
        log_p = exact_event_log_probability(alpha, n, event_fn(n))
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
    est = exact_conditional(alpha, n, event, k)
    lhs = relative_entropy(est.law, product_law(alpha_star, k))
    rhs = -(est.log_acceptance + n * H_event) / math.floor(n / k)
    return lhs, rhs, bool(lhs <= rhs + 1e-9)


def conditional_tv_curve(alpha: FiniteMeasure, solution, schedule, n_list, k: int,
                         estimate=None):
    """Rows (n, epsilon_n, p_event, tv to the tilted product law).

    The event at size n is the moment band of radius schedule.epsilon(n)
    around the solved moment, pinned to the target on its thin coordinates
    (lo == hi); ``estimate(alpha, n, event, k)`` gives the conditional law,
    by default ``exact_conditional`` (looked up when called, so a rebinding
    of the module name is seen).
    """
    estimate = estimate or exact_conditional
    problem = solution.problem
    lo, hi = problem.target.lo, problem.target.hi
    center = np.where(lo == hi, lo, solution.moment)
    ref = product_law(solution.alpha_star, k)
    rows = []
    for n in n_list:
        eps = schedule.epsilon(n)
        event = moment_band(problem.F, center, eps, norm="euclidean")
        est = estimate(alpha, n, event, k)
        rows.append({
            "n": n,
            "epsilon": eps,
            "p_event": est.acceptance_rate,
            "log_p_over_n": est.log_acceptance / n,
            "tv_k": tv_distance(est.law, ref),
        })
    return rows
