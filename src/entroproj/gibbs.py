"""Conditional laws of i.i.d. blocks given an empirical-measure event.

Two engines drive everything: exact enumeration over type classes
(multinomial count vectors), vectorized over blocks of classes and summed in
log space so that events far below the double range keep a finite log
probability, and Monte Carlo rejection on one counter-based stream per call,
in blocks of trials. On top of them sit the quantitative checks: the Csiszar
information inequality for conditional block laws, the Sanov sandwich for
event probabilities, and total-variation curves along enlargement schedules.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from math import comb

import numpy as np

from . import iproj
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
        if c.shape != F.shape[1:]:
            raise ValueError(f"center has {c.size} entries for {F.shape[1]} columns of F")
        if not (np.all(np.isfinite(F)) and np.all(np.isfinite(c))):
            raise ValueError("F and center must be finite")
        if not self.radius >= 0:  # NaN fails this too
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
        if not self.radius >= 0:  # NaN fails this too
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
    and ``n_trials`` counts the positive-mass type classes the walk visited,
    which hold every accepted one; for Monte Carlo it is the accepted
    fraction over ``n_trials`` sampled blocks.
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


def _check_budget(n, m, event):
    """Bound the type classes of a walk that visits them all (any event but
    a moment band), and the n + 1 entries of the log-factorial table; a
    moment band's walk counts what it visits against the same budget."""
    classes = comb(n + m - 1, m - 1)
    if not isinstance(event, MomentBand) and classes > ENUMERATION_BUDGET:
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


def _check_event(event, m):
    """Require a moment band's F to have one row per letter."""
    if isinstance(event, MomentBand) and len(event.F) != m:
        raise ValueError(f"F has {len(event.F)} rows for an alphabet of {m} letters")


def _accepts(event, counts, n, space, memo):
    """Event membership of the empirical measure of each row of counts.

    Metric balls cost one distance per distinct row not yet answered in
    ``memo``, a dict keyed by the row's bytes that collects the answers.
    """
    if isinstance(event, MomentBand):
        return event.contains_weights(counts / n)
    types, inverse = np.unique(counts, axis=0, return_inverse=True)
    for row in types:
        if row.tobytes() not in memo:
            memo[row.tobytes()] = event.contains(FiniteMeasure(space, row / n))
    return np.array([memo[row.tobytes()] for row in types], dtype=bool)[inverse.reshape(-1)]


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
    k coordinates given the event, number of positive-mass classes visited).
    Within a class of counts c the first k coordinates are drawn without
    replacement, so a pattern with letter counts r has probability
    prod_s (c_s)_(r_s) / (n)_k in falling factorials; it is computed once
    per distinct r. A moment band's walk visits only the classes whose
    moment can still reach the box that encloses the band (see
    iproj.composition_blocks); a metric ball's visits every class. Classes
    come in blocks, so memory stays bounded, and the walk stops with the
    enumeration budget's ValueError once it has visited more classes and
    dead-end prefixes than the budget. The window, the event's F, the n + 1
    log factorials and a metric ball's count of classes are checked first.
    """
    w = alpha.weights
    m = len(w)
    _check_window(n, k, m)
    _check_event(event, m)
    _check_budget(n, m, event)
    box = ()
    if isinstance(event, MomentBand):
        with np.errstate(over="ignore"):  # an infinite bound is no bound
            box = event.F, n * (event.center - event.radius), n * (event.center + event.radius)
    zero = w == 0
    log_w = np.log(np.where(zero, 1.0, w))
    log_fact = log_factorials(n)
    r_types, pattern_type = _pattern_types(m, k)
    slab = max(1, _LAW_CELLS // r_types.size)
    log_p_event = -math.inf
    log_law = np.full(len(r_types), -math.inf)
    n_classes = 0
    for counts in iproj.composition_blocks(n, m, *box, budget=ENUMERATION_BUDGET):
        counts = counts[~np.any(counts[:, zero] > 0, axis=1)]
        n_classes += len(counts)
        counts = counts[_accepts(event, counts, n, alpha.space, {})]
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

    Walks the type classes that can reach the event (all of them for a
    metric ball), at most ENUMERATION_BUDGET of them, keeps the accepted
    ones, and averages each class's exact within-class pattern law weighted
    by the class probability. Raises ZeroAcceptanceError when the event has
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
    """Yield, per block of at most iproj.COMPOSITION_BLOCK_ROWS trials, the
    (rows, m) letter counts of i.i.d.(weights) n-blocks and the id of each
    one's first k letters (their pattern's row in itertools.product order).

    Only what the estimators read is drawn. The head letters of all trials
    come first, from uniforms: u is letter j when cumw[j-1] <= u < cumw[j],
    on partial sums clipped at 1, so weights whose sum overshoots 1 by
    rounding draw as their thresholds do. They are kept as one pattern id
    per trial, of the smallest unsigned type that holds m**k - 1. Then one
    multinomial draw per trial gives the counts of its other n - k letters,
    and the heads are added. numpy fills both draws trial by trial, so the
    blocks read the stream as one call over all trials does. A trial costs
    O(k + m) time, whatever n. The uniforms are exact on any host, but the
    binomial draws call libm's log and exp, which another libm may round
    differently.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    m, rows = len(weights), iproj.COMPOSITION_BLOCK_ROWS
    cumw = np.append(np.minimum(np.cumsum(weights[:-1]), 1.0), 1.0)
    place = m ** np.arange(k - 1, -1, -1)
    pids = np.empty(trials, dtype=np.min_scalar_type(m ** k - 1))
    blocks = [pids[lo:lo + rows] for lo in range(0, trials, rows)]
    for block in blocks:
        block[:] = np.searchsorted(cumw, gen.random((len(block), k)), side="right") @ place
    for block in blocks:
        counts = gen.multinomial(n - k, np.diff(cumw, prepend=0.0), size=len(block))
        for j in range(k):
            counts[np.arange(len(block)), block // place[j] % m] += 1
        yield counts, block


def _accepted_patterns(gen, alpha: FiniteMeasure, n: int, event, k: int, trials: int):
    """Monte Carlo rejection over the blocks of _sample_types, each tested
    and dropped, once the window is checked: the accepted trials per pattern
    of the first k letters, as an m**k vector. A metric ball's answers carry
    over from block to block, so the call costs one distance per distinct
    sampled type."""
    _check_window(n, k, len(alpha.space))
    _check_event(event, len(alpha.space))
    hits, memo = np.zeros(len(alpha.space) ** k, dtype=np.int64), {}
    for counts, pids in _sample_types(gen, alpha.weights, n, trials, k):
        np.add.at(hits, pids[_accepts(event, counts, n, alpha.space, memo)], 1)
    return hits


def run_conditional_mc(alpha: FiniteMeasure, n: int, event, k: int,
                       trials: int, seed: int) -> ConditionalEstimate:
    """Monte Carlo rejection estimate of the conditional k-coordinate law.

    All trials read one counter-based stream keyed by (seed, 0); each draws
    only its head letters and letter counts, in blocks that leave one small
    integer per trial in memory. Results are bit-identical for a fixed seed
    and numpy version. Across hosts they also rest on libm's log and exp,
    which the binomial draws call; the pinned benchmark table in the tests
    flags a host where they round differently. Zero acceptances raise
    ZeroAcceptanceError carrying the rule-of-three bound 3/trials.
    """
    hits = _accepted_patterns(mc_stream(seed), alpha, n, event, k, trials)
    accepted = int(hits.sum())
    if accepted == 0:
        raise ZeroAcceptanceError(
            f"no acceptances in {trials} trials; event probability is below "
            f"3/trials = {3.0 / trials:.3g} with 95% confidence",
            upper_bound=3.0 / trials,
        )
    return ConditionalEstimate(
        k=k,
        law=FiniteMeasure(product_space(alpha.space, k), hits / accepted),
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
