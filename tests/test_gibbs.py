"""Tests for conditional block laws under empirical-measure events."""

import math
from fractions import Fraction
from itertools import product as iter_product
from math import lgamma, perm
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entroproj as ep
from entroproj import gibbs, iproj
from entroproj.gibbs import ENUMERATION_BUDGET

from conftest import bernoulli, line_space, two_point_space

KL_07_05 = 0.08228287850505185


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
    """(normalized law or None, event probability, positive-mass classes)."""
    m = len(alpha.space)
    law = np.zeros(m ** k)
    accepted_p = 0.0
    n_classes = 0
    for counts, p in _type_classes(alpha, n):
        n_classes += 1
        if not event.contains(ep.FiniteMeasure(alpha.space, counts / n)):
            continue
        accepted_p += p
        law += p * _pattern_law_of_class(counts, n, k, m)
    if accepted_p <= 0.0:
        return None, accepted_p, n_classes
    return law / law.sum(), accepted_p, n_classes


def mean_band(center, radius):
    """Band on the empirical mean of the coordinate for a {0, 1} alphabet."""
    return ep.moment_band(np.array([0.0, 1.0]), np.array([center]), radius)


def whole_simplex_band():
    return ep.moment_band(np.array([0.0, 1.0]), np.array([0.5]), 10.0)


class TestEvents:
    def test_moment_band_contains(self):
        band = mean_band(0.75, 0.01)
        assert band.contains(bernoulli(0.75))
        assert not band.contains(bernoulli(0.5))

    def test_moment_band_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            mean_band(0.5, -0.1)

    def test_metric_ball_contains(self):
        # fm between Bernoulli(p) and Bernoulli(q) on unit-separated atoms
        # is |p - q| * 2/3
        ball = ep.metric_ball(bernoulli(0.5), "fm", 0.2)
        assert ball.contains(bernoulli(0.55))
        assert not ball.contains(bernoulli(0.9))

    def test_metric_ball_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            ep.metric_ball(bernoulli(0.5), "hellinger", 0.2)


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
        event = ep.moment_band(F, np.full(3, 1.0 / 3.0), 1e-9)
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
        space = line_space(8)
        alpha = ep.FiniteMeasure.uniform(space)
        with pytest.raises(ValueError):
            ep.exact_conditional(alpha, 600, whole_simplex_band(), 1)
        assert ENUMERATION_BUDGET == 2_000_000

    def test_point_mass_budget_bounds_block_length(self, monkeypatch):
        # One letter gives one type class at every n; the log-factorial
        # table of n + 1 entries is what the budget must bound.
        delta = ep.FiniteMeasure(line_space(1), np.array([1.0]))
        band = ep.moment_band(np.array([0.0]), np.array([0.0]), 0.1)
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
    band = ep.moment_band(np.arange(8.0), np.array([3.5]), 1.0)
    with pytest.raises(ValueError, match=message):
        estimate(alpha, n, band, k)


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
        event = ep.moment_band(np.array(F, dtype=float), np.array(center) / 12.0,
                               r / 12.0 + 1e-7, norm=norm)
        law, p, n_classes = reference_conditional(alpha, n, event, k)
        # small sizes split the classes into many blocks and slabs
        rows, cells = sizes
        with patch.object(iproj, "COMPOSITION_BLOCK_ROWS", rows), \
                patch.object(gibbs, "_LAW_CELLS", cells):
            assert ep.exact_event_probability(alpha, n, event) == pytest.approx(
                min(p, 1.0), rel=1e-12, abs=0.0)
            if law is None:
                with pytest.raises(ep.ZeroAcceptanceError):
                    ep.exact_conditional(alpha, n, event, k)
                return
            est = ep.exact_conditional(alpha, n, event, k)
        assert est.n_trials == n_classes
        assert est.acceptance_rate == pytest.approx(p, rel=1e-12, abs=0.0)
        assert est.log_acceptance == pytest.approx(math.log(p), rel=1e-12, abs=1e-13)
        np.testing.assert_allclose(est.law.weights, law, rtol=1e-12, atol=0.0)

    def test_metric_ball_matches_loop_engine(self):
        space = line_space(3)
        alpha = ep.FiniteMeasure(space, np.array([0.5, 0.3, 0.2]))
        event = ep.metric_ball(ep.FiniteMeasure.uniform(space), "fm", 0.12)
        law, p, n_classes = reference_conditional(alpha, 9, event, 2)
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


class TestLogProbabilityBelowDoubleRange:
    def test_skewed_band_at_n400(self):
        # nH is about 1500 here, so P(event) underflows a double while
        # log P stays well within range
        n = 400
        weights = [0.98, 0.01, 0.01]
        alpha = ep.FiniteMeasure(line_space(3, 0.0, 2.0), np.array(weights))
        F = np.array([0.0, 1.0, 2.0])
        band = ep.moment_band(F, np.array([1.8]), 0.02)

        est = ep.exact_conditional(alpha, n, band, 1)
        assert est.acceptance_rate == 0.0
        assert ep.exact_event_probability(alpha, n, band) == 0.0

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


class TestExactEventProbability:
    def test_unconstrained_is_one(self):
        assert ep.exact_event_probability(
            bernoulli(0.3), 7, whole_simplex_band()
        ) == pytest.approx(1.0)

    def test_four_flips_three_heads(self):
        assert ep.exact_event_probability(
            bernoulli(0.5), 4, mean_band(0.75, 0.01)
        ) == pytest.approx(0.25)

    def test_empty_event_is_zero(self):
        assert ep.exact_event_probability(
            bernoulli(0.5), 4, mean_band(0.6, 0.01)
        ) == 0.0

    def test_metric_ball_event(self):
        # fm ball of radius 0.25 around Bernoulli(0.5) on 4 flips accepts
        # types 1/4, 2/4, 3/4 (fm values 1/6, 0, 1/6) and rejects 0/4 and
        # 4/4 (fm value 1/3): P = (4 + 6 + 4) / 16
        p = ep.exact_event_probability(
            bernoulli(0.5), 4, ep.metric_ball(bernoulli(0.5), "fm", 0.25)
        )
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
        p = ep.exact_event_probability(alpha, 4, event)
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

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("event", [mean_band(0.7, 0.1), whole_simplex_band()],
                             ids=["band", "whole"])
    def test_block_split_matches_one_block(self, monkeypatch, rows, event):
        alpha = bernoulli(0.6)
        n, trials = 8, 1003
        one = ep.run_conditional_mc(alpha, n, event, 2, trials=trials, seed=5)
        # 1003 trials in blocks of 7 rows end in a ragged block of 2
        monkeypatch.setattr(gibbs, "_MC_CELLS", rows * n)
        split = ep.run_conditional_mc(alpha, n, event, 2, trials=trials, seed=5)
        np.testing.assert_array_equal(split.law.weights, one.law.weights)
        assert split.acceptance_rate == one.acceptance_rate
        assert split.n_trials == one.n_trials == trials

    @pytest.mark.parametrize("n, accepted, heads", [
        (50, 24866, [9963, 8282, 6621]),
        (100, 11628, [4670, 3827, 3131]),
        (200, 2505, [966, 846, 693]),
    ])
    def test_benchmark_table_is_pinned(self, n, accepted, heads):
        # The Monte Carlo op of the benchmark's arrays workload at seed 7
        alpha = ep.FiniteMeasure.uniform(line_space(3, 0.0, 2.0))
        eps = iproj.ScheduleParams(kind="sqrt_n", c=0.5).epsilon(n)
        band = ep.moment_band(np.array([0.0, 1.0, 2.0]), np.array([0.85]), eps, norm="euclidean")
        est = ep.run_conditional_mc(alpha, n, band, 1, trials=100_000, seed=7)
        assert est.acceptance_rate == accepted / 100_000
        np.testing.assert_array_equal(est.law.weights, np.array(heads) / accepted)

    @given(st.data(), st.integers(1, 24), st.integers(1, 40), st.integers(0, 3),
           st.integers(0, 2 ** 32), st.sampled_from([None, 1, 3, 8]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_sampler_matches_searchsorted_bincount(self, data, n, trials, k, seed,
                                                   rows, overshoot):
        # m = 1, small and large alphabets, zero weights (tied thresholds),
        # and partial sums that round to 1.0 or above before the last letter
        m = data.draw(st.sampled_from([1, 2, 3, 8, 16, 40]))
        raw = np.array(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)
                                 .filter(any)), dtype=float)
        w = raw / raw.sum()
        if overshoot:
            w = np.append(w * (1.0 + 8 * np.finfo(float).eps), 0.0)
            assert np.cumsum(w)[-2] >= 1.0
        k = min(k, n)
        with patch.object(gibbs, "_MC_CELLS", rows * n if rows else gibbs._MC_CELLS):
            counts, heads = gibbs._sample_types(gibbs.mc_stream(seed), w, n, trials, k)
        cumw = np.cumsum(w)
        cumw[-1] = 1.0
        idx = np.searchsorted(cumw, gibbs.mc_stream(seed).random((trials, n)), side="right")
        want = np.array([np.bincount(row, minlength=len(w)) for row in idx])
        assert counts.dtype == want.dtype and heads.dtype == idx.dtype
        assert counts.tobytes() == want.tobytes() and counts.shape == want.shape
        assert heads.tobytes() == idx[:, :k].tobytes() and heads.shape == (trials, k)

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
        ball = ep.metric_ball(alpha, "fm", 0.15)
        n, k, trials, seed = 6, 2, 400, 21
        # per-trial loop over the single worker's stream
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        cumw = np.cumsum(alpha.weights)
        cumw[-1] = 1.0
        idx = np.searchsorted(cumw, gen.random((trials, n)), side="right")
        counts = np.array([np.bincount(row, minlength=3) for row in idx])
        ok = np.array([ball.contains(ep.FiniteMeasure(space, c / n)) for c in counts])
        want = np.bincount(idx[ok, :k] @ np.array([3, 1]), minlength=9) / ok.sum()

        calls = []
        real = gibbs.fm_distance
        monkeypatch.setattr(gibbs, "fm_distance",
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
                ep.exact_event_probability(alpha, n, band))
            assert 0.0 <= row["tv_k"] <= 2.0
