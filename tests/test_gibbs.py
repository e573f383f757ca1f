"""Tests for conditional block laws under empirical-measure events."""

import math
import tracemalloc
from fractions import Fraction
from itertools import product as iter_product
from math import lgamma, perm
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroproj as ep
from entroproj import bounds, gibbs, iproj
from entroproj.gibbs import ENUMERATION_BUDGET

from conftest import bernoulli, line_space, per_trial_types, two_point_space

KL_07_05 = 0.08228287850505185


def stacked(blocks):
    """The (counts, pattern ids) blocks of gibbs._sample_types, each stacked
    over all trials."""
    counts, pids = zip(*blocks)
    return np.concatenate(counts), np.concatenate(pids)


# Reference engine: one type class at a time, in linear space. The
# vectorized log-space engine must reproduce it wherever it does not
# underflow.

def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _type_classes(alpha, n):
    """Yield (counts, probability) for every type class with positive mass."""
    w = alpha.weights
    m = len(w)
    log_w = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -math.inf)
    base = lgamma(n + 1)
    for counts in _compositions(n, m):
        c = np.array(counts)
        mask = c > 0
        if np.any(mask & (w == 0)):
            continue
        log_p = base - sum(lgamma(ci + 1) for ci in counts) + float(c[mask] @ log_w[mask])
        yield c, math.exp(log_p)


def _pattern_law_of_class(counts, n, k, m):
    """P(pattern) = prod_s perm(c_s, r_s) / perm(n, k) within one class."""
    denom = perm(n, k)
    out = np.zeros(m ** k)
    for pid, pattern in enumerate(iter_product(range(m), repeat=k)):
        num = 1
        for s in set(pattern):
            num *= perm(int(counts[s]), pattern.count(s))
            if num == 0:
                break
        out[pid] = num / denom
    return out


def reference_conditional(alpha, n, event, k):
    """(normalized law or None, event probability, positive-mass classes,
    accepted positive-mass classes)."""
    m = len(alpha.space)
    law = np.zeros(m ** k)
    accepted_p = 0.0
    n_classes = n_accepted = 0
    for counts, p in _type_classes(alpha, n):
        n_classes += 1
        if not event.contains(ep.FiniteMeasure(alpha.space, counts / n)):
            continue
        n_accepted += 1
        accepted_p += p
        law += p * _pattern_law_of_class(counts, n, k, m)
    if accepted_p <= 0.0:
        return None, accepted_p, n_classes, n_accepted
    return law / law.sum(), accepted_p, n_classes, n_accepted


def mean_band(center, radius):
    """Band on the empirical mean of the coordinate for a {0, 1} alphabet."""
    return ep.MomentBand(np.array([0.0, 1.0]), np.array([center]), radius)


def whole_simplex_band():
    return ep.MomentBand(np.array([0.0, 1.0]), np.array([0.5]), 10.0)


class TestEvents:
    def test_moment_band_contains(self):
        band = mean_band(0.75, 0.01)
        assert band.contains(bernoulli(0.75))
        assert not band.contains(bernoulli(0.5))

    def test_moment_band_rejects_negative_radius(self):
        for radius in (-0.1, math.nan):
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                mean_band(0.5, radius)

    @pytest.mark.parametrize("center", [[0.5], [0.5, 0.5, 0.5]])
    def test_moment_band_needs_one_center_entry_per_column(self, center):
        with pytest.raises(ValueError, match=f"center has {len(center)} entries for 2 columns"):
            ep.MomentBand(np.eye(2), np.array(center), 0.1)

    @pytest.mark.parametrize("F, center", [
        ([0.0, math.nan], [0.5]),
        ([0.0, math.inf], [0.5]),
        ([0.0, 1.0], [math.nan]),
        ([0.0, 1.0], [-math.inf]),
    ])
    def test_moment_band_needs_finite_numbers(self, F, center):
        with pytest.raises(ValueError, match="F and center must be finite"):
            ep.MomentBand(np.array(F), np.array(center), 0.1)

    def test_band_answer_does_not_depend_on_the_block(self):
        # the class (1, 1, 0, 1, 3) has exactly the centre as its moment; a
        # BLAS product over the 210 classes of the simplex rounded it off
        # the centre, so it was accepted alone and rejected in the walk
        F = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 3.0], [2.0, 0.0]])
        band = ep.MomentBand(F, np.array([1.1666666666666667, 0.33333333333333337]), 0.0)
        full = np.concatenate(list(iproj.composition_blocks(6, 5)))
        row = np.flatnonzero((full == [1, 1, 0, 1, 3]).all(axis=1))[0]
        assert len(full) == 210
        assert band.contains_weights(full[row] / 6)
        assert band.contains_weights(full[row:row + 1] / 6)[0]
        assert band.contains_weights(full / 6)[row]

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_each_class_gets_the_same_answer_alone_as_in_the_walk(self, data):
        m, d, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3)), data.draw(
            st.integers(1, 10))
        value = st.one_of(st.integers(-3, 3).map(float), st.floats(-2.0, 2.0))
        F = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                        min_size=m, max_size=m)))
        full = np.concatenate(list(iproj.composition_blocks(n, m)))
        # centred on a class's moment, with radius 0 or a 1/10 grid step
        center = full[data.draw(st.integers(0, len(full) - 1))] / n @ F
        radius = data.draw(st.sampled_from([0.0, 0.1, 0.2, 0.5]))
        band = ep.MomentBand(F, center, radius, norm=data.draw(st.sampled_from(
            ["sup", "euclidean"])))
        in_walk = band.contains_weights(full / n)
        alone = [bool(band.contains_weights(c / n)) for c in full]
        assert in_walk.tolist() == alone

    def test_metric_ball_contains(self):
        # fm between Bernoulli(p) and Bernoulli(q) on unit-separated atoms
        # is |p - q| * 2/3
        ball = ep.MetricBall(bernoulli(0.5), "fm", 0.2)
        assert ball.contains(bernoulli(0.55))
        assert not ball.contains(bernoulli(0.9))

    def test_metric_ball_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            ep.MetricBall(bernoulli(0.5), "hellinger", 0.2)


class TestProductConstructions:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_patterns_enumerate_in_product_order(self, m, k):
        patterns = gibbs._patterns(m, k)
        assert patterns.shape == (m ** k, k)
        assert [tuple(row) for row in patterns.tolist()] == list(iter_product(range(m), repeat=k))

    def test_product_space_points_follow_the_patterns(self):
        space = line_space(3, hi=2.0)
        prod = ep.product_space(space, 3)
        assert prod.points == tuple(iter_product(space.points, repeat=3))

    def test_product_space_max_metric(self):
        space = two_point_space()
        prod = ep.product_space(space, 2)
        assert len(prod) == 4
        i = prod.index_of((0.0, 1.0))
        j = prod.index_of((1.0, 0.0))
        assert prod.dist[i, j] == pytest.approx(1.0)

    def test_product_space_identity_at_k1(self):
        space = two_point_space()
        prod = ep.product_space(space, 1)
        np.testing.assert_array_equal(prod.dist, space.dist)

    def test_product_law_outer_product_order(self):
        nu = bernoulli(0.7)
        law = ep.product_law(nu, 2)
        # rows iterate the first coordinate, matching itertools.product
        expect = np.outer(nu.weights, nu.weights).ravel()
        np.testing.assert_allclose(law.weights, expect, atol=1e-15)


class TestExactConditional:
    def test_unconstrained_event_gives_product_law(self):
        alpha = bernoulli(0.3)
        est = ep.exact_conditional(alpha, 6, whole_simplex_band(), 2)
        assert est.exact
        assert est.acceptance_rate == pytest.approx(1.0)
        np.testing.assert_allclose(
            est.law.weights, ep.product_law(alpha, 2).weights, atol=1e-12
        )

    def test_four_coin_flips_conditioned_on_three_heads(self):
        # P(X1 = 1 | sum = 3) = 3/4 and P(sum = 3) = 4/16
        alpha = bernoulli(0.5)
        est = ep.exact_conditional(alpha, 4, mean_band(0.75, 0.01), 1)
        np.testing.assert_allclose(est.law.weights, [0.25, 0.75], atol=1e-14)
        assert est.acceptance_rate == pytest.approx(0.25)

    def test_exchangeable_marginals(self):
        # both coordinates of the k=2 conditional law agree with the k=1 law
        alpha = bernoulli(0.6)
        event = mean_band(0.7, 0.05)
        law1 = ep.exact_conditional(alpha, 10, event, 1).law.weights
        law2 = ep.exact_conditional(alpha, 10, event, 2).law.weights.reshape(2, 2)
        np.testing.assert_allclose(law2.sum(axis=1), law1, atol=1e-12)
        np.testing.assert_allclose(law2.sum(axis=0), law1, atol=1e-12)

    def test_three_letter_alphabet(self):
        # uniform alpha on 3 letters, n = 3, event pins the exact type
        # (1, 1, 1); the conditional law of one coordinate is uniform
        space = line_space(3)
        alpha = ep.FiniteMeasure.uniform(space)
        F = np.eye(3)
        event = ep.MomentBand(F, np.full(3, 1.0 / 3.0), 1e-9)
        est = ep.exact_conditional(alpha, 3, event, 1)
        np.testing.assert_allclose(est.law.weights, 1.0 / 3.0, atol=1e-14)
        # 3! orderings out of 27 strings
        assert est.acceptance_rate == pytest.approx(6.0 / 27.0)

    def test_empty_event_raises_zero_acceptance(self):
        alpha = bernoulli(0.5)
        with pytest.raises(ep.ZeroAcceptanceError) as exc:
            ep.exact_conditional(alpha, 4, mean_band(0.6, 0.01), 1)
        assert exc.value.upper_bound == 0.0

    def test_budget_guard(self):
        # a band that holds the whole simplex of 8 letters at n = 600, about
        # 5e14 classes: the walk stops once it has visited the budget
        space = line_space(8)
        alpha = ep.FiniteMeasure.uniform(space)
        band = ep.MomentBand(np.linspace(0.0, 1.0, 8), np.array([0.5]), 10.0)
        with pytest.raises(ValueError, match="enumeration budget"):
            ep.exact_conditional(alpha, 600, band, 1)
        assert ENUMERATION_BUDGET == 2_000_000

    def test_point_mass_budget_bounds_block_length(self, monkeypatch):
        # One letter gives one type class at every n; the log-factorial
        # table of n + 1 entries is what the budget must bound.
        delta = ep.FiniteMeasure(line_space(1), np.array([1.0]))
        band = ep.MomentBand(np.array([0.0]), np.array([0.0]), 0.1)
        monkeypatch.setattr(gibbs, "log_factorials", lambda n: pytest.fail("table built"))
        with pytest.raises(ValueError, match="enumeration budget"):
            ep.exact_event_log_probability(delta, ENUMERATION_BUDGET, band)
        with pytest.raises(ValueError, match="enumeration budget"):
            ep.exact_conditional(delta, ENUMERATION_BUDGET, band, 1)
        monkeypatch.undo()
        monkeypatch.setattr(gibbs, "ENUMERATION_BUDGET", 10)
        assert ep.exact_event_log_probability(delta, 9, band) == 0.0
        with pytest.raises(ValueError, match="enumeration budget"):
            ep.exact_event_log_probability(delta, 10, band)


@pytest.mark.parametrize("estimate", [
    ep.exact_conditional,
    lambda alpha, n, event, k: ep.run_conditional_mc(alpha, n, event, k, trials=100, seed=0),
], ids=["exact", "mc"])
@pytest.mark.parametrize("n, k, message", [
    (0, 0, "block length n must be a positive integer"),
    (4.0, 1, "block length n must be a positive integer"),
    (4, -1, "window k must be a nonnegative integer"),
    (4, 1.5, "window k must be a nonnegative integer"),
    (4, 5, "window k cannot exceed the block length n"),
    (10, 7, "pattern alphabet too large for the window size"),
])
def test_estimators_check_the_window(estimate, n, k, message):
    # 8 letters, so a window of 7 asks for 8**7 > 10**6 patterns
    alpha = ep.FiniteMeasure.uniform(line_space(8))
    band = ep.MomentBand(np.arange(8.0), np.array([3.5]), 1.0)
    with pytest.raises(ValueError, match=message):
        estimate(alpha, n, band, k)


@pytest.mark.parametrize("estimate", [
    ep.exact_conditional,
    lambda alpha, n, event, k: ep.exact_event_log_probability(alpha, n, event),
    lambda alpha, n, event, k: ep.run_conditional_mc(alpha, n, event, k, trials=100, seed=0),
], ids=["exact", "log_p", "mc"])
def test_estimators_need_a_row_of_F_per_letter(estimate):
    alpha = ep.FiniteMeasure.uniform(line_space(3))
    with pytest.raises(ValueError, match="F has 2 rows for an alphabet of 3 letters"):
        estimate(alpha, 4, whole_simplex_band(), 1)


@pytest.mark.parametrize("call, message", [
    (lambda alpha, band: ep.csiszar_bound_check(alpha, 4, band, 0, alpha, 0.0),
     "window k must be a positive integer"),
    (lambda alpha, band: ep.product_space(alpha.space, -1),
     "window k must be a nonnegative integer"),
    (lambda alpha, band: ep.run_conditional_mc(alpha, 4, band, 1, trials=2.5, seed=0),
     "trials must be a positive integer"),
    (lambda alpha, band: ep.run_conditional_mc(alpha, 4, band, 1, trials=10, seed=-1),
     r"seed must be an integer in \[0, 2\*\*64\)"),
], ids=["csiszar_k0", "product_space_negative", "mc_fractional_trials", "mc_negative_seed"])
def test_invalid_scalars_raise_typed_errors(call, message):
    # each leaked a ZeroDivisionError, TypeError or OverflowError, or (the
    # product space) returned the one-point space
    alpha = ep.FiniteMeasure.uniform(line_space(3))
    band = ep.MomentBand(np.arange(3.0), np.array([1.0]), 0.5)
    with pytest.raises(ValueError, match=message):
        call(alpha, band)


def test_event_probability_needs_a_positive_block_length():
    # the empirical measure of an empty block is undefined, not a miss
    with pytest.raises(ValueError, match="block length n must be a positive integer"):
        ep.exact_event_log_probability(bernoulli(0.5), 0, whole_simplex_band())


class TestEngineAgainstReference:
    @given(
        st.integers(1, 4).flatmap(lambda m: st.tuples(
            st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any),
            st.integers(1, 2).flatmap(lambda d: st.tuples(
                st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                         min_size=m, max_size=m),
                st.lists(st.integers(-24, 24), min_size=d, max_size=d))))),
        st.integers(1, 12),
        st.integers(1, 3),
        st.integers(0, 30),
        st.sampled_from(["sup", "euclidean"]),
        st.sampled_from([(2, 1), (8, 40), (8192, 1 << 18)]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_engine(self, shape, n, k, r, norm, sizes):
        raw_w, (F, center) = shape
        k = min(k, n)
        m = len(raw_w)
        alpha = ep.FiniteMeasure(line_space(m), np.array(raw_w) / sum(raw_w))
        # center on a 1/12 grid and radius 1e-7 off a 1/12 grid: no count
        # vector of n <= 12 sits within rounding of the band's edge
        event = ep.MomentBand(np.array(F, dtype=float), np.array(center) / 12.0,
                              r / 12.0 + 1e-7, norm=norm)
        law, p, n_classes, n_accepted = reference_conditional(alpha, n, event, k)
        # small sizes split the classes into many blocks and slabs
        rows, cells = sizes
        with patch.object(iproj, "COMPOSITION_BLOCK_ROWS", rows), \
                patch.object(gibbs, "_LAW_CELLS", cells):
            assert math.exp(ep.exact_event_log_probability(alpha, n, event)) == pytest.approx(
                min(p, 1.0), rel=1e-12, abs=0.0)
            if law is None:
                with pytest.raises(ep.ZeroAcceptanceError):
                    ep.exact_conditional(alpha, n, event, k)
                return
            est = ep.exact_conditional(alpha, n, event, k)
        # the walk visits every accepted class and no class twice
        assert n_accepted <= est.n_trials <= n_classes
        assert est.acceptance_rate == pytest.approx(p, rel=1e-12, abs=0.0)
        assert est.log_acceptance == pytest.approx(math.log(p), rel=1e-12, abs=1e-13)
        np.testing.assert_allclose(est.law.weights, law, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("metric", ["fm", "prohorov"])
    def test_metric_ball_matches_loop_engine(self, metric):
        space = line_space(3)
        alpha = ep.FiniteMeasure(space, np.array([0.5, 0.3, 0.2]))
        event = ep.MetricBall(ep.FiniteMeasure.uniform(space), metric, 0.12)
        law, p, n_classes, _ = reference_conditional(alpha, 9, event, 2)
        est = ep.exact_conditional(alpha, 9, event, 2)
        assert est.n_trials == n_classes
        assert est.acceptance_rate == pytest.approx(p, rel=1e-12)
        np.testing.assert_allclose(est.law.weights, law, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 64])
    def test_block_enumerator_is_the_recursive_order(self, monkeypatch, rows):
        monkeypatch.setattr(iproj, "COMPOSITION_BLOCK_ROWS", rows)
        for n, m in [(0, 1), (0, 3), (5, 1), (5, 2), (6, 3), (7, 4), (4, 5)]:
            blocks = list(iproj.composition_blocks(n, m))
            assert all(1 <= len(b) <= rows for b in blocks)
            np.testing.assert_array_equal(
                np.concatenate(blocks), np.array(list(_compositions(n, m))))


def walked_classes(alpha, n, event, rows):
    """The blocks of the walk of gibbs._type_class_sums at k = 0, with
    COMPOSITION_BLOCK_ROWS = rows, and its class count."""
    blocks, walk = [], iproj.composition_blocks

    def record(*args, **kwargs):
        for block in walk(*args, **kwargs):
            blocks.append(block.copy())
            yield block

    with patch.object(iproj, "composition_blocks", record), \
            patch.object(iproj, "COMPOSITION_BLOCK_ROWS", rows):
        n_classes = gibbs._type_class_sums(alpha, n, event, 0)[2]
    return blocks, n_classes


def assert_walk_keeps_the_accepted_classes(alpha, n, event, rows):
    """The band's walk is a lexicographic subsequence of the full walk, in
    blocks of at most `rows`, that holds every class _accepts accepts.

    Acceptance is read once, on the full walk: a matrix product rounds a
    row by the shape of its block, so a class on the band's edge may be
    answered differently in a block of another size."""
    m = len(alpha.space)
    blocks, n_classes = walked_classes(alpha, n, event, rows)
    assert all(1 <= len(block) <= rows for block in blocks)
    walked = np.concatenate(blocks) if blocks else np.zeros((0, m), dtype=np.int64)
    full = np.concatenate(list(iproj.composition_blocks(n, m)))
    rank = {row: i for i, row in enumerate(map(tuple, full.tolist()))}
    order = [rank[row] for row in map(tuple, walked.tolist())]
    assert order == sorted(set(order))
    accepted = np.flatnonzero(gibbs._accepts(event, full, n, alpha.space, {}))
    assert np.isin(accepted, order).all()
    # n_trials counts the walked classes with no letter of weight 0
    assert n_classes == np.sum(~np.any(walked[:, alpha.weights == 0] > 0, axis=1))


CURVE_F = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestReachableWalk:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_walk_keeps_exactly_the_accepted_classes(self, data):
        m, d, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3)), data.draw(
            st.integers(1, 12))
        raw_w = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
        alpha = ep.FiniteMeasure(line_space(m), np.array(raw_w) / sum(raw_w))
        # integer, float, negative and tied values
        value = st.one_of(st.integers(-3, 3).map(float), st.floats(-2.0, 2.0))
        F = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                        min_size=m, max_size=m)))
        # centred on a class's moment, or near it; radius 0, a 1/12 grid
        # step (on a lattice edge for integer F) or any
        full = np.concatenate(list(iproj.composition_blocks(n, m)))
        c0 = full[data.draw(st.integers(0, len(full) - 1))]
        center = c0 / n @ F + data.draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)))
        radius = data.draw(st.one_of(st.just(0.0), st.integers(1, 12).map(lambda i: i / 12),
                                     st.floats(0.0, 2.0)))
        event = ep.MomentBand(F, center, radius, norm=data.draw(st.sampled_from(
            ["sup", "euclidean"])))
        assert_walk_keeps_the_accepted_classes(alpha, n, event, data.draw(
            st.sampled_from([1, 3, 8192])))

    @pytest.mark.parametrize("norm", ["sup", "euclidean"])
    @pytest.mark.parametrize("rows", [64, 8192])
    def test_walk_keeps_the_classes_on_a_lattice_edge(self, norm, rows):
        # the skewed band at n = 400 and radius 0.4 / sqrt(n) = 0.02: the
        # classes with c_1 + 2 c_2 = 728 sit on its upper edge and are
        # accepted; those with 712 sit on its lower edge, and rounding
        # rejects them
        alpha = ep.FiniteMeasure(line_space(3, 0.0, 2.0), np.array([0.98, 0.01, 0.01]))
        band = ep.MomentBand(np.array([0.0, 1.0, 2.0]), np.array([1.8]),
                             0.4 / math.sqrt(400), norm=norm)
        assert_walk_keeps_the_accepted_classes(alpha, 400, band, rows)

    def test_walk_keeps_the_classes_of_a_moment_map_near_overflow(self):
        # n |F| overflows a double, so the walk cannot bound this column's
        # moment and walks every class
        alpha = ep.FiniteMeasure.uniform(line_space(3))
        band = ep.MomentBand(np.array([0.0, 1e308, -1e308]), np.array([0.0]), 1e307)
        assert_walk_keeps_the_accepted_classes(alpha, 20, band, 64)
        assert len(np.concatenate(walked_classes(alpha, 20, band, 64)[0])) == math.comb(22, 2)

    def test_curve_beyond_the_simplex_budget_runs(self):
        # at n = 1999 the simplex holds C(2001, 2) = 2,001,000 classes, more
        # than the budget; the band reaches about 2,000 of them
        n = 1999
        assert math.comb(n + 2, 2) > ENUMERATION_BUDGET
        alpha = ep.FiniteMeasure.uniform(line_space(3))
        band = ep.MomentBand(CURVE_F, np.array([0.35, 0.25]),
                             ep.ScheduleParams("sqrt_n", 0.5).epsilon(n), norm="euclidean")
        est = ep.exact_conditional(alpha, n, band, 2)
        assert 0 < est.n_trials <= 2500
        assert 0.0 < est.acceptance_rate < 1.0
        assert est.law.weights.sum() == pytest.approx(1.0, rel=1e-12)

    def test_dead_ends_spend_the_budget(self):
        # c @ F is an integer and the band a half-integer point, so every
        # prefix of two counts, about n^2 / 2 of them, has no third count
        # in reach; the walk stops at the budget, not after 5e9 prefixes
        alpha = ep.FiniteMeasure.uniform(line_space(4))
        n = 10 ** 5
        band = ep.MomentBand(np.array([1.0, -1.0, 1.0, 2.0]), np.array([0.5 / n]), 0.0)
        with pytest.raises(ValueError, match="classes and dead ends than the enumeration budget"):
            ep.exact_conditional(alpha, n, band, 1)

    def test_metric_ball_beyond_the_budget_fails_before_any_distance(self, monkeypatch):
        # a metric ball walks every class, so its count is known up front
        space = line_space(3)
        ball = ep.MetricBall(ep.FiniteMeasure.uniform(space), "fm", 0.1)
        monkeypatch.setattr(gibbs, "_accepts", lambda *args: pytest.fail("distance computed"))
        with pytest.raises(ValueError, match="2001000 type classes exceed the enumeration budget"):
            ep.exact_conditional(ep.FiniteMeasure.uniform(space), 1999, ball, 1)

    def test_benchmark_bands_visit_few_classes(self):
        # the benchmark's curve (n = 100, 200, 400) and skewed (n = 400)
        # ops; a walk of the whole simplex visits 186,654 classes
        visited = []

        def estimate(alpha, n, event, k):
            est = ep.exact_conditional(alpha, n, event, k)
            visited.append(est.n_trials)
            return est

        for weights, F, x0, c, n_list, k in [
                ([1 / 3] * 3, CURVE_F, [0.35, 0.25], 0.5, [100, 200, 400], 2),
                ([0.98, 0.01, 0.01], [0.0, 1.0, 2.0], [1.8], 0.4, [400], 1)]:
            alpha = ep.FiniteMeasure(line_space(3), np.array(weights))
            problem = ep.MomentProblem(alpha, np.array(F), ep.Box.point(x0))
            ep.conditional_tv_curve(alpha, ep.solve_dual(problem), ep.ScheduleParams("sqrt_n", c),
                                    n_list, k, estimate)
        assert len(visited) == 4
        assert sum(visited) <= 2000


class TestLogProbabilityBelowDoubleRange:
    def test_skewed_band_at_n400(self):
        # nH is about 1500 here, so P(event) underflows a double while
        # log P stays well within range
        n = 400
        weights = [0.98, 0.01, 0.01]
        alpha = ep.FiniteMeasure(line_space(3, 0.0, 2.0), np.array(weights))
        F = np.array([0.0, 1.0, 2.0])
        band = ep.MomentBand(F, np.array([1.8]), 0.02)

        est = ep.exact_conditional(alpha, n, band, 1)
        assert est.acceptance_rate == 0.0
        assert math.exp(ep.exact_event_log_probability(alpha, n, band)) == 0.0

        # exact integer sum over the classes the band accepts, with every
        # float weight scaled to a common power-of-two denominator
        c1, c2 = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        counts = np.stack([n - c1 - c2, c1, c2], axis=-1)[c1 + c2 <= n]
        accepted = counts[band.contains_weights(counts / n)]
        scale = max(Fraction(w).denominator for w in weights)
        nums = [int(Fraction(w) * scale) for w in weights]
        total = sum(
            math.comb(n, int(c[0])) * math.comb(n - int(c[0]), int(c[1]))
            * nums[0] ** int(c[0]) * nums[1] ** int(c[1]) * nums[2] ** int(c[2])
            for c in accepted)
        log_p_over_n = (math.log(total) - n * math.log(scale)) / n

        assert est.log_acceptance / n == pytest.approx(log_p_over_n, rel=1e-9)
        assert ep.exact_event_log_probability(alpha, n, band) / n == pytest.approx(
            log_p_over_n, rel=1e-9)
        np.testing.assert_allclose(est.law.weights.sum(), 1.0, atol=1e-12)

        sol = ep.solve_dual(ep.MomentProblem(alpha, F[:, None], ep.Box.point(np.array([1.8]))))
        (row,) = ep.sanov_sandwich(alpha, sol, lambda _: band, [n])
        assert math.isfinite(row["log_p_over_n"]) and math.isfinite(row["slack"])
        assert row["log_p_over_n"] == pytest.approx(log_p_over_n, rel=1e-9)


def test_permuting_the_atoms_permutes_the_conditional_law():
    # relabelling the letters (weights and rows of F together) relabels the
    # law of the window; 200 seeded cases on up to 4 letters, k = 1 and 2
    rng = np.random.default_rng(20261020)
    for case in range(200):
        m, n, k, d = rng.integers(2, 5), rng.integers(2, 9), rng.integers(1, 3), rng.integers(1, 3)
        weights = rng.dirichlet(np.ones(m))
        F = rng.integers(-3, 4, size=(m, d)).astype(float)
        # a band around the moment of one class holds that class
        counts, radius = rng.multinomial(n, np.ones(m) / m), rng.uniform(0.05, 1.5)
        band = ep.MomentBand(F, counts @ F / n + rng.uniform(-0.9, 0.9, d) * radius, radius)
        perm = rng.permutation(m)
        space = line_space(m)
        law = ep.exact_conditional(ep.FiniteMeasure(space, weights), n, band, k).law
        permuted = ep.exact_conditional(ep.FiniteMeasure(space, weights[perm]), n,
                                        ep.MomentBand(F[perm], band.center, band.radius), k)
        want = law.weights.reshape((m,) * k)[np.ix_(*[perm] * k)].ravel()
        np.testing.assert_allclose(permuted.law.weights, want, rtol=0, atol=1e-12,
                                   err_msg=f"case {case}")


class TestExactEventProbability:
    def test_unconstrained_is_one(self):
        assert math.exp(ep.exact_event_log_probability(
            bernoulli(0.3), 7, whole_simplex_band()
        )) == pytest.approx(1.0)

    def test_four_flips_three_heads(self):
        assert math.exp(ep.exact_event_log_probability(
            bernoulli(0.5), 4, mean_band(0.75, 0.01)
        )) == pytest.approx(0.25)

    def test_empty_event_is_zero(self):
        assert math.exp(ep.exact_event_log_probability(
            bernoulli(0.5), 4, mean_band(0.6, 0.01)
        )) == 0.0

    def test_metric_ball_event(self):
        # fm ball of radius 0.25 around Bernoulli(0.5) on 4 flips accepts
        # types 1/4, 2/4, 3/4 (fm values 1/6, 0, 1/6) and rejects 0/4 and
        # 4/4 (fm value 1/3): P = (4 + 6 + 4) / 16
        p = math.exp(ep.exact_event_log_probability(
            bernoulli(0.5), 4, ep.MetricBall(bernoulli(0.5), "fm", 0.25)
        ))
        assert p == pytest.approx(14.0 / 16.0)


class TestMonteCarlo:
    def test_unconstrained_acceptance_is_one(self):
        alpha = bernoulli(0.3)
        est = ep.run_conditional_mc(alpha, 6, whole_simplex_band(), 1,
                                    trials=4000, seed=7)
        assert not est.exact
        assert est.acceptance_rate == 1.0
        assert est.n_trials == 4000

    def test_matches_exact_within_three_sigma(self):
        alpha = bernoulli(0.5)
        event = mean_band(0.75, 0.01)
        exact = ep.exact_conditional(alpha, 4, event, 1)
        trials = 20000
        mc = ep.run_conditional_mc(alpha, 4, event, 1, trials=trials, seed=11)
        accepted = mc.acceptance_rate * trials
        for w_mc, w_ex in zip(mc.law.weights, exact.law.weights):
            se = math.sqrt(w_ex * (1.0 - w_ex) / accepted)
            assert abs(w_mc - w_ex) <= 3.0 * se

    def test_acceptance_rate_matches_exact_probability(self):
        alpha = bernoulli(0.5)
        event = mean_band(0.75, 0.01)
        p = math.exp(ep.exact_event_log_probability(alpha, 4, event))
        trials = 20000
        mc = ep.run_conditional_mc(alpha, 4, event, 1, trials=trials, seed=3)
        se = math.sqrt(p * (1.0 - p) / trials)
        assert abs(mc.acceptance_rate - p) <= 3.0 * se

    def test_deterministic_at_fixed_seed(self):
        alpha = bernoulli(0.6)
        event = mean_band(0.7, 0.1)
        a = ep.run_conditional_mc(alpha, 8, event, 2, trials=5000, seed=42)
        b = ep.run_conditional_mc(alpha, 8, event, 2, trials=5000, seed=42)
        np.testing.assert_array_equal(a.law.weights, b.law.weights)
        assert a.acceptance_rate == b.acceptance_rate

    def test_seed_changes_output(self):
        alpha = bernoulli(0.6)
        event = mean_band(0.7, 0.1)
        a = ep.run_conditional_mc(alpha, 8, event, 1, trials=2000, seed=1)
        b = ep.run_conditional_mc(alpha, 8, event, 1, trials=2000, seed=2)
        assert not np.array_equal(a.law.weights, b.law.weights)

    @pytest.mark.parametrize("n, accepted, heads", [
        (50, 25184, [10045, 8390, 6749]),
        (100, 11553, [4615, 3783, 3155]),
        (200, 2545, [1016, 848, 681]),
    ], ids=["n50", "n100", "n200"])
    def test_benchmark_table_is_pinned(self, n, accepted, heads):
        # The Monte Carlo op of the benchmark's arrays workload at seed 7.
        # The binomial draws call libm's log and exp, so this is the test
        # that fails on a host whose libm rounds them differently.
        alpha = ep.FiniteMeasure.uniform(line_space(3, 0.0, 2.0))
        eps = iproj.ScheduleParams(kind="sqrt_n", c=0.5).epsilon(n)
        band = ep.MomentBand(np.array([0.0, 1.0, 2.0]), np.array([0.85]), eps, norm="euclidean")
        est = ep.run_conditional_mc(alpha, n, band, 1, trials=100_000, seed=7)
        assert est.acceptance_rate == accepted / 100_000
        np.testing.assert_array_equal(est.law.weights, np.array(heads) / accepted)

    @given(st.data(), st.integers(1, 24), st.integers(1, 40), st.integers(0, 3),
           st.integers(0, 2 ** 32), st.booleans(), st.sampled_from([1, 3, 7, 8192]))
    @settings(max_examples=200, deadline=None)
    def test_sampler_matches_per_trial_multinomial(self, data, n, trials, k, seed, overshoot,
                                                   rows):
        # m = 1, small and large alphabets, zero weights (tied thresholds),
        # partial sums that round to 1.0 or above before the last letter,
        # k = 0 up to k = n, and blocks from one trial to all of them
        m = data.draw(st.sampled_from([1, 2, 3, 8, 16, 40]))
        raw = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)
                                 .filter(any)), dtype=float)
        w = raw / raw.sum()
        if overshoot:
            w = np.append(w * (1.0 + 8 * np.finfo(float).eps), 0.0)
            assert np.cumsum(w)[-2] >= 1.0
        k = min(k, n)
        with patch.object(iproj, "COMPOSITION_BLOCK_ROWS", rows):
            blocks = list(gibbs._sample_types(gibbs.mc_stream(seed), w, n, trials, k))
        assert [len(c) for c, _ in blocks] == [len(p) for _, p in blocks]
        assert all(1 <= len(c) <= rows for c, _ in blocks)
        counts, pids = stacked(blocks)
        want, want_heads = per_trial_types(gibbs.mc_stream(seed), w, n, trials, k)
        assert counts.dtype == want.dtype
        assert counts.tobytes() == want.tobytes() and counts.shape == (trials, len(w))
        # one unsigned integer per trial, as small as the m**k patterns allow
        assert pids.dtype == np.min_scalar_type(len(w) ** k - 1)
        np.testing.assert_array_equal(pids, want_heads @ len(w) ** np.arange(k - 1, -1, -1))

    @pytest.mark.parametrize("k", [0, 1])
    def test_sampler_draws_the_exact_law(self, k):
        # every cell of (first letter, counts) within 4 standard errors of
        # w_a Mult(n - 1; c - e_a), and of Mult(n; c) for the counts alone
        w = np.array([0.5, 0.3, 0.2])
        n, trials = 5, 200_000
        counts, pids = stacked(gibbs._sample_types(gibbs.mc_stream(3), w, n, trials, k))
        assert np.all(counts.sum(axis=1) == n)
        keys = counts @ (n + 1) ** np.arange(3) + pids.astype(np.int64) * (n + 1) ** 3
        seen = dict(zip(*np.unique(keys, return_counts=True)))

        def multinomial_pmf(c):
            return math.exp(lgamma(c.sum() + 1) - sum(lgamma(x + 1) for x in c)
                            + float(c @ np.log(w)))

        expected = {}
        for c in map(np.array, _compositions(n, 3)):
            key = int(c @ (n + 1) ** np.arange(3))
            if k == 0:
                expected[key] = multinomial_pmf(c)
                continue
            for a in range(3):
                rest = c - np.eye(3, dtype=int)[a]
                p = w[a] * multinomial_pmf(rest) if rest.min() >= 0 else 0.0
                expected[key + a * (n + 1) ** 3] = p
        assert set(seen) <= set(expected)
        assert sum(expected.values()) == pytest.approx(1.0)
        for key, p in expected.items():
            p_hat = seen.get(key, 0) / trials
            assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / trials)

    def test_sampler_takes_weights_that_overshoot_one(self):
        # FiniteMeasure accepts a sum within 1e-12 of 1, but numpy's
        # multinomial rejects sum(pvals[:-1]) > 1 + 1e-12 after its own
        # compensated sum: these weights pass the first and fail the second
        top = np.nextafter(1.0 + 1e-12, 0.0)
        tiny = 1e-16
        w = np.array([0.3, top - 0.3, tiny, tiny, tiny, tiny, 0.0])
        alpha = ep.FiniteMeasure(line_space(7), w)
        with pytest.raises(ValueError):
            np.random.default_rng(0).multinomial(5, alpha.weights)
        counts, _ = stacked(gibbs._sample_types(gibbs.mc_stream(1), alpha.weights, 9, 50, 2))
        assert np.all(counts.sum(axis=1) == 9) and np.all(counts[:, 6] == 0)
        band = ep.MomentBand(np.arange(7.0), np.array([3.0]), 100.0)
        est = ep.run_conditional_mc(alpha, 9, band, 1, trials=50, seed=1)
        assert est.acceptance_rate == 1.0

    def test_sampler_memory_does_not_grow_with_n(self):
        tracemalloc.start()
        try:
            counts, _ = stacked(gibbs._sample_types(gibbs.mc_stream(0), np.full(3, 1 / 3),
                                                    10 ** 7, 4, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(counts.sum(axis=1) == 10 ** 7)
        assert peak < 1 << 20

    def test_estimator_memory_does_not_grow_with_trials(self):
        # a million trials hold one byte of pattern id each plus one block
        # of draws; their (trials, 3) int64 counts alone would take 24 MB
        alpha = ep.FiniteMeasure.uniform(line_space(3, 0.0, 2.0))
        band = ep.MomentBand(np.array([0.0, 1.0, 2.0]), np.array([0.85]), 0.05,
                             norm="euclidean")
        tracemalloc.start()
        try:
            est = ep.run_conditional_mc(alpha, 200, band, 1, trials=10 ** 6, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < est.acceptance_rate < 1
        assert peak < 16 << 20

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("event", ["band", "ball"])
    def test_blocked_estimator_matches_per_trial_loop(self, monkeypatch, k, event):
        # blocks of 7 rows split 50 trials into 8 blocks, the last one short
        space = line_space(3)
        alpha = ep.FiniteMeasure(space, np.array([0.5, 0.3, 0.2]))
        if event == "band":
            event = ep.MomentBand(np.array([0.0, 0.5, 1.0]), np.array([0.4]), 0.1)
        else:
            event = ep.MetricBall(ep.FiniteMeasure.uniform(space), "fm", 0.2)
        n, trials, seed = 6, 50, 5
        counts, heads = per_trial_types(gibbs.mc_stream(seed), alpha.weights, n, trials, k)
        ok = np.array([event.contains(ep.FiniteMeasure(space, c / n)) for c in counts])
        want = np.bincount(heads[ok] @ 3 ** np.arange(k - 1, -1, -1), minlength=3 ** k)
        monkeypatch.setattr(iproj, "COMPOSITION_BLOCK_ROWS", 7)
        calls = []
        real = bounds.fm_distance
        monkeypatch.setattr(bounds, "fm_distance", lambda *a: calls.append(1) or real(*a))
        est = ep.run_conditional_mc(alpha, n, event, k, trials=trials, seed=seed)
        # a ball's answers carry over from block to block
        assert len(calls) == (0 if isinstance(event, ep.MomentBand)
                              else len(np.unique(counts, axis=0)))
        assert 0 < ok.sum() < trials
        assert est.acceptance_rate == ok.sum() / trials
        assert est.law.weights.tobytes() == (want / ok.sum()).tobytes()

    def test_zero_acceptance_reports_rule_of_three(self):
        alpha = bernoulli(0.5)
        trials = 500
        with pytest.raises(ep.ZeroAcceptanceError) as exc:
            ep.run_conditional_mc(alpha, 4, mean_band(0.6, 0.001), 1,
                                  trials=trials, seed=9)
        assert exc.value.upper_bound == pytest.approx(3.0 / trials)

    def test_metric_ball_costs_one_distance_per_type(self, monkeypatch):
        space = line_space(3)
        alpha = ep.FiniteMeasure(space, np.array([0.5, 0.3, 0.2]))
        ball = ep.MetricBall(alpha, "fm", 0.15)
        n, k, trials, seed = 6, 2, 400, 21
        # per-trial loop over the same stream
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        counts, heads = per_trial_types(gen, alpha.weights, n, trials, k)
        ok = np.array([ball.contains(ep.FiniteMeasure(space, c / n)) for c in counts])
        want = np.bincount(heads[ok] @ np.array([3, 1]), minlength=9) / ok.sum()

        calls = []
        real = bounds.fm_distance
        monkeypatch.setattr(bounds, "fm_distance",
                            lambda *a: calls.append(1) or real(*a))
        est = ep.run_conditional_mc(alpha, n, ball, k, trials=trials, seed=seed)
        assert 0 < len(calls) <= len(np.unique(counts, axis=0))
        assert est.acceptance_rate == ok.sum() / trials
        np.testing.assert_array_equal(est.law.weights, want)

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            ep.run_conditional_mc(bernoulli(0.5), 4, whole_simplex_band(), 1,
                                  trials=0, seed=1)


class TestSanovSandwich:
    def test_trivial_event_has_zero_slack(self):
        alpha = bernoulli(0.5)
        prob = ep.MomentProblem(alpha, np.array([[0.0], [1.0]]),
                                ep.Box.point(np.array([0.5])))
        sol = ep.solve_dual(prob)
        rows = ep.sanov_sandwich(alpha, sol, lambda n: whole_simplex_band(),
                                 [4, 8])
        for row in rows:
            assert row["p_event"] == pytest.approx(1.0)
            assert row["log_p_over_n"] == pytest.approx(0.0, abs=1e-14)
            assert row["slack"] == pytest.approx(0.0, abs=1e-12)

    def test_slack_shrinks_along_sqrt_schedule(self):
        alpha = bernoulli(0.5)
        prob = ep.MomentProblem(alpha, np.array([[0.0], [1.0]]),
                                ep.Box.point(np.array([0.7])))
        sol = ep.solve_dual(prob)
        sched = ep.schedule_from_solution(sol, "sqrt_n", a=2.0)
        event_fn = lambda n: mean_band(0.7, sched.epsilon(n))
        rows = ep.sanov_sandwich(alpha, sol, event_fn, [16, 64, 256])
        assert all(row["neg_entropy"] == pytest.approx(-KL_07_05, abs=1e-9)
                   for row in rows)
        slacks = [abs(row["slack"]) for row in rows]
        assert slacks[-1] < slacks[0]

    def test_lower_bound_column(self):
        alpha = bernoulli(0.5)
        prob = ep.MomentProblem(alpha, np.array([[0.0], [1.0]]),
                                ep.Box.point(np.array([0.7])))
        sol = ep.solve_dual(prob)
        sched = ep.schedule_from_solution(sol, "sqrt_n", a=2.0)
        event_fn = lambda n: mean_band(0.7, sched.epsilon(n))
        lb_fn = lambda n: -sol.entropy + ep.centering_lower_bound(
            sol, sched.epsilon(n), 0.5, n)
        rows = ep.sanov_sandwich(alpha, sol, event_fn, [64, 256],
                                 lower_bound_fn=lb_fn)
        for row in rows:
            assert "lower_bound" in row
            assert isinstance(row["ok_lower"], bool)


class TestCsiszarBound:
    def test_holds_across_sizes_and_blocks(self):
        alpha = bernoulli(0.5)
        prob = ep.MomentProblem(alpha, np.array([[0.0], [1.0]]),
                                ep.Box.point(np.array([0.7])))
        sol = ep.solve_dual(prob)
        for n in (8, 12, 16):
            for k in (1, 2):
                event = mean_band(0.7, 0.1)
                lhs, rhs, ok = ep.csiszar_bound_check(
                    alpha, n, event, k, sol.alpha_star, sol.entropy)
                assert ok, (n, k, lhs, rhs)
                assert lhs >= 0.0

    def test_trivial_event_collapses_to_zero(self):
        alpha = bernoulli(0.5)
        prob = ep.MomentProblem(alpha, np.array([[0.0], [1.0]]),
                                ep.Box.point(np.array([0.5])))
        sol = ep.solve_dual(prob)
        lhs, rhs, ok = ep.csiszar_bound_check(
            alpha, 8, whole_simplex_band(), 2, sol.alpha_star, sol.entropy)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert ok


class TestConditionalTvCurve:
    def test_criterion_02_documented_values(self):
        # the values acceptance criterion 02 fails with by design; they pin
        # the enumeration engine and the solved tilt
        alpha = bernoulli(0.5)
        sol = ep.solve_dual(ep.MomentProblem(alpha, np.array([[0.0], [1.0]]),
                                             ep.Box.point(np.array([0.7]))))
        sched = ep.schedule_from_solution(sol, "sqrt_n", a=1.0)
        rows = ep.conditional_tv_curve(alpha, sol, sched, [8, 32], k=1)
        assert [round(row["tv_k"], 4) for row in rows] == [0.0667, 0.0975]

    def test_estimator_is_an_argument(self, monkeypatch):
        alpha = bernoulli(0.5)
        sol = ep.solve_dual(ep.MomentProblem(alpha, np.array([[0.0], [1.0]]),
                                             ep.Box.point(np.array([0.7]))))
        sched = ep.ScheduleParams(kind="sqrt_n", c=1.0)
        calls, real = [], gibbs.exact_conditional
        # the default is read from the module when called
        monkeypatch.setattr(gibbs, "exact_conditional",
                            lambda *a: calls.append(a[1]) or real(*a))
        exact = ep.conditional_tv_curve(alpha, sol, sched, [8, 16], k=1)
        assert calls == [8, 16]
        mc = ep.conditional_tv_curve(
            alpha, sol, sched, [8, 16], k=1,
            estimate=lambda *a: ep.run_conditional_mc(*a, trials=4000, seed=3))
        assert calls == [8, 16]
        for row_mc, row_exact, n in zip(mc, exact, (8, 16)):
            est = ep.run_conditional_mc(alpha, n, mean_band(0.7, sched.epsilon(n)), 1, 4000, 3)
            assert row_mc["p_event"] == est.acceptance_rate
            assert row_mc["tv_k"] == pytest.approx(row_exact["tv_k"], abs=0.05)

    def test_symmetric_target_gives_zero_tv(self):
        # conditioning a fair coin on a symmetric mean band leaves the
        # one-coordinate law unchanged
        alpha = bernoulli(0.5)
        prob = ep.MomentProblem(alpha, np.array([[0.0], [1.0]]),
                                ep.Box.point(np.array([0.5])))
        sol = ep.solve_dual(prob)
        sched = ep.ScheduleParams(kind="sqrt_n", c=1.0)
        rows = ep.conditional_tv_curve(alpha, sol, sched, [8, 16], k=1)
        for row in rows:
            assert row["tv_k"] == pytest.approx(0.0, abs=1e-12)

    def test_row_fields_and_probability_consistency(self):
        alpha = bernoulli(0.5)
        prob = ep.MomentProblem(alpha, np.array([[0.0], [1.0]]),
                                ep.Box.point(np.array([0.7])))
        sol = ep.solve_dual(prob)
        sched = ep.schedule_from_solution(sol, "sqrt_n", a=2.0)
        rows = ep.conditional_tv_curve(alpha, sol, sched, [8, 16], k=1)
        for row, n in zip(rows, (8, 16)):
            assert row["n"] == n
            assert row["epsilon"] == pytest.approx(sched.epsilon(n))
            band = mean_band(0.7, row["epsilon"])
            assert row["p_event"] == pytest.approx(
                math.exp(ep.exact_event_log_probability(alpha, n, band)))
            assert 0.0 <= row["tv_k"] <= 2.0
