"""Tests for metric supports, finite measures, divergences, and coverings."""

import bisect
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

import entroproj as ep
from entroproj.measures import EXACT_SCAN_LIMIT, log_factorials, logsumexp

from conftest import bernoulli, line_space, random_measure, random_space, two_point_space

# 0.7*log(0.7/0.5) + 0.3*log(0.3/0.5), evaluated with mpmath at 50 digits.
KL_07_05 = 0.08228287850505185
# Positive root of exp(u) - u - 1 = 1, bisected to machine precision.
ORLICZ_UNIT_ROOT = 1.1461932206205826


class TestMetricSpacePoints:
    def test_from_coordinates_line(self):
        space = line_space(3)
        assert space.points == (0.0, 0.5, 1.0)
        np.testing.assert_allclose(space.dist[0, 2], 1.0)
        np.testing.assert_allclose(space.dist[1, 2], 0.5)

    def test_from_coordinates_plane_euclidean(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        space = ep.MetricSpacePoints.from_coordinates(coords)
        assert space.points == ((0.0, 0.0), (3.0, 4.0))
        np.testing.assert_allclose(space.dist[0, 1], 5.0)

    def test_rejects_asymmetric_matrix(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            ep.MetricSpacePoints(points=(0, 1), dist=d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            ep.MetricSpacePoints(points=(0, 1), dist=d)

    def test_rejects_triangle_violation(self):
        d = np.array([
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 1.0],
            [5.0, 1.0, 0.0],
        ])
        with pytest.raises(ValueError):
            ep.MetricSpacePoints(points=(0, 1, 2), dist=d)

    def test_triangle_scan_needs_no_cubic_temporary(self, rng):
        # one N x N x N array of sums would take 61 MiB at N = 200
        table = random_space(rng, 200).dist
        tracemalloc.start()
        try:
            ep.MetricSpacePoints(range(200), table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_index_of(self):
        space = line_space(4)
        assert space.index_of(space.points[2]) == 2

    def test_product_index_of_reads_the_factors(self, rng):
        a, b = line_space(3), random_space(rng, 4)
        points = tuple(itertools.product(a.points, b.points))
        prod = ep.MetricSpacePoints.product([a, b])
        assert [prod.index_of(p) for p in points] == list(range(12))
        assert "points" not in vars(prod)
        assert [prod.index_of(p) for p in points] == [prod.points.index(p) for p in points]
        with pytest.raises(ValueError, match="not a point of this product space"):
            prod.index_of(points[0][:1])

    def test_equal_coordinates_give_equal_spaces(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        a = ep.MetricSpacePoints.from_coordinates(coords)
        b = ep.MetricSpacePoints.from_coordinates(coords.copy())
        assert a == b
        assert ep.tv_distance(ep.FiniteMeasure.uniform(a), ep.FiniteMeasure.uniform(b)) == 0.0

    def test_different_coordinates_are_different_supports(self):
        a = ep.FiniteMeasure.uniform(line_space(3))
        b = ep.FiniteMeasure.uniform(line_space(3, hi=2.0))
        assert a.space != b.space
        with pytest.raises(ep.SupportMismatchError):
            ep.tv_distance(a, b)

    def test_comparing_supports_builds_no_table(self, monkeypatch):
        space = line_space(3)
        first = ep.product_law(ep.FiniteMeasure.uniform(space), 2)
        second = ep.product_law(ep.FiniteMeasure(space, np.array([0.5, 0.25, 0.25])), 2)

        def refuse(_):
            raise AssertionError("a distance table was read")
        monkeypatch.setattr(ep.MetricSpacePoints, "dist", property(refuse))
        assert first.space is not second.space
        assert ep.relative_entropy(first, second) > 0.0

    def test_rejects_nonfinite_coordinates(self):
        for coords in ([0.0, math.nan, 1.0], [[0.0, 1.0], [math.inf, 0.0]], [-1e300, 1e300]):
            with pytest.raises(ValueError):
                ep.MetricSpacePoints.from_coordinates(coords)

    def test_product_of_unequal_factors_takes_the_max_metric(self, rng):
        a = line_space(3)
        b = random_space(rng, 4)
        prod = ep.MetricSpacePoints.product([a, b])
        assert prod.points == tuple(itertools.product(a.points, b.points))
        expected = np.maximum(np.kron(a.dist, np.ones((4, 4))), np.kron(np.ones((3, 3)), b.dist))
        np.testing.assert_array_equal(prod.dist, expected)
        assert prod == ep.MetricSpacePoints.product([a, b])
        assert prod != ep.MetricSpacePoints.product([a, random_space(rng, 4)])

    def test_table_is_built_once(self):
        space = line_space(5)
        assert space.dist is space.dist
        assert not space.dist.flags.writeable


class TestFiniteMeasure:
    def test_rejects_negative_weights(self):
        space = two_point_space()
        for weights in ([1.2, -0.2], [math.nan, 1.0]):
            with pytest.raises(ValueError):
                ep.FiniteMeasure(space, np.array(weights))

    def test_rejects_unnormalized(self):
        space = two_point_space()
        with pytest.raises(ValueError):
            ep.FiniteMeasure(space, np.array([0.5, 0.4]))

    def test_point_mass_and_uniform(self):
        space = line_space(4)
        delta = ep.FiniteMeasure.point_mass(space, 2)
        np.testing.assert_array_equal(delta.weights, [0.0, 0.0, 1.0, 0.0])
        unif = ep.FiniteMeasure.uniform(space)
        np.testing.assert_allclose(unif.weights, 0.25)

    def test_integrate(self):
        nu = bernoulli(0.7)
        assert nu.integrate(np.array([0.0, 1.0])) == pytest.approx(0.7)
        assert nu.integrate(np.array([1.0, 5.0])) == pytest.approx(0.3 + 3.5)


class TestRelativeEntropy:
    def test_zero_at_equality(self):
        nu = bernoulli(0.42)
        assert ep.relative_entropy(nu, nu) == 0.0

    def test_bernoulli_oracle(self):
        assert ep.relative_entropy(bernoulli(0.7), bernoulli(0.5)) == pytest.approx(
            KL_07_05, abs=1e-14
        )

    def test_infinite_off_support(self):
        space = two_point_space()
        delta0 = ep.FiniteMeasure.point_mass(space, 0)
        delta1 = ep.FiniteMeasure.point_mass(space, 1)
        assert ep.relative_entropy(delta0, delta1) == math.inf

    def test_zero_times_log_zero_is_zero(self):
        # beta vanishing where gamma charges costs nothing
        space = two_point_space()
        delta0 = ep.FiniteMeasure.point_mass(space, 0)
        assert ep.relative_entropy(delta0, bernoulli(0.5)) == pytest.approx(
            math.log(2.0)
        )

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
           st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, raw_b, raw_g):
        m = min(len(raw_b), len(raw_g))
        space = line_space(m)
        b = np.array(raw_b[:m]) / np.sum(raw_b[:m])
        g = np.array(raw_g[:m]) / np.sum(raw_g[:m])
        h = ep.relative_entropy(ep.FiniteMeasure(space, b), ep.FiniteMeasure(space, g))
        assert h >= -1e-12

    def test_mismatched_supports_raise(self):
        nu1 = bernoulli(0.5)
        nu2 = ep.FiniteMeasure.uniform(line_space(3))
        with pytest.raises(ep.SupportMismatchError):
            ep.relative_entropy(nu1, nu2)


class TestVariationalLower:
    def test_constant_witness_gives_zero(self):
        beta, gamma = bernoulli(0.7), bernoulli(0.5)
        assert ep.variational_entropy_lower(beta, gamma, [np.full(2, 3.0)]) == pytest.approx(0.0, abs=1e-12)

    def test_log_ratio_witness_attains_entropy(self):
        beta, gamma = bernoulli(0.7), bernoulli(0.5)
        phi = np.log(beta.weights / gamma.weights)
        got = ep.variational_entropy_lower(beta, gamma, [phi])
        assert got == pytest.approx(KL_07_05, abs=1e-9)

    def test_never_exceeds_entropy(self, rng):
        space = line_space(5)
        beta = random_measure(rng, space, floor=1e-3)
        gamma = random_measure(rng, space, floor=1e-3)
        h = ep.relative_entropy(beta, gamma)
        phis = [rng.normal(size=5) for _ in range(200)]
        assert ep.variational_entropy_lower(beta, gamma, phis) <= h + 1e-12

    def test_empty_family_raises(self):
        with pytest.raises(ValueError):
            ep.variational_entropy_lower(bernoulli(0.5), bernoulli(0.5), [])


class TestTotalVariation:
    def test_disjoint_points_have_full_mass_two(self):
        space = two_point_space()
        d0 = ep.FiniteMeasure.point_mass(space, 0)
        d1 = ep.FiniteMeasure.point_mass(space, 1)
        assert ep.tv_distance(d0, d1) == pytest.approx(2.0)

    def test_zero_at_equality(self):
        nu = bernoulli(0.3)
        assert ep.tv_distance(nu, nu) == 0.0

    def test_pinsker(self, rng):
        space = line_space(4)
        for _ in range(50):
            nu1 = random_measure(rng, space, floor=1e-4)
            nu2 = random_measure(rng, space, floor=1e-4)
            tv = ep.tv_distance(nu1, nu2)
            kl = ep.relative_entropy(nu1, nu2)
            assert tv <= math.sqrt(2.0 * kl) + 1e-12


def highs_fm_distance(nu1, nu2):
    """Reference for fm_distance: the primal LP, max sum f_i (nu1 - nu2)_i
    over (f, a, L) with |f_i| <= a, f_i - f_j <= L d_ij for i != j and
    a + L <= 1, from scipy's HiGHS."""
    n, d = len(nu1.space), nu1.space.dist
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    eye, ones, zeros = np.eye(n), np.ones((n, 1)), np.zeros((n, 1))
    A = np.block([[eye, -ones, zeros], [-eye, -ones, zeros],
                  [eye[i] - eye[j], np.zeros((len(i), 1)), -d[i, j][:, None]],
                  [np.zeros((1, n)), np.ones((1, 2))]])
    b = np.append(np.zeros(len(A) - 1), 1.0)
    res = linprog(np.append(nu2.weights - nu1.weights, [0.0, 0.0]), A_ub=A, b_ub=b,
                  bounds=[(None, None)] * n + [(0.0, None)] * 2, method="highs")
    assert res.status == 0, res.message
    return max(0.0, -float(res.fun))


def fm_sweep_cases(rng, count):
    """Pairs of measures on at most 20 points: random 1-D and 2-D points,
    and integer grids on a line and in the plane, whose distances tie; some
    weights are zero, and one pair in ten is two equal measures."""
    for case in range(count):
        n = int(rng.integers(1, 21))
        kind = case % 4
        if kind == 0:
            coords = rng.uniform(-2.0, 2.0, size=n)
        elif kind == 1:
            coords = rng.uniform(-2.0, 2.0, size=(n, 2))
        elif kind == 2:
            coords = np.arange(n, dtype=float)
        else:
            coords = np.unique(rng.integers(0, 5, size=(n, 2)), axis=0).astype(float)
        space = ep.MetricSpacePoints.from_coordinates(coords)
        nu1 = sparse_measure(rng, space, 0.2)
        yield nu1, nu1 if rng.random() < 0.1 else sparse_measure(rng, space, 0.2)


class TestFortetMourier:
    def test_matches_highs_on_a_seeded_sweep(self, rng):
        for nu1, nu2 in fm_sweep_cases(rng, 240):
            assert ep.fm_distance(nu1, nu2) == pytest.approx(highs_fm_distance(nu1, nu2),
                                                             rel=0, abs=1e-12)

    def test_unit_separated_point_masses(self):
        # Witness f needs |f| <= a and Lip(f) <= L with a + L <= 1. The
        # integral gap f(1) - f(0) is capped by both 2a and L * d(0, 1) = L,
        # so the best split at distance 1 is a = 1/3, L = 2/3, giving 2/3.
        space = two_point_space()
        d0 = ep.FiniteMeasure.point_mass(space, 0)
        d1 = ep.FiniteMeasure.point_mass(space, 1)
        assert ep.fm_distance(d0, d1) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_symmetry(self, rng):
        space = random_space(rng, 5)
        nu1 = random_measure(rng, space)
        nu2 = random_measure(rng, space)
        assert ep.fm_distance(nu1, nu2) == pytest.approx(
            ep.fm_distance(nu2, nu1), abs=1e-10
        )

    def test_dominated_by_tv(self, rng):
        for trial in range(20):
            space = random_space(rng, 4 + trial % 3)
            nu1 = random_measure(rng, space)
            nu2 = random_measure(rng, space)
            assert ep.fm_distance(nu1, nu2) <= ep.tv_distance(nu1, nu2) + 1e-9

    def test_zero_at_equality(self, rng):
        space = random_space(rng, 4)
        nu = random_measure(rng, space)
        assert ep.fm_distance(nu, nu) == pytest.approx(0.0, abs=1e-10)

    def test_equal_measures_give_positive_zero(self):
        for space in (line_space(3), ep.MetricSpacePoints.from_coordinates([0.0])):
            nu = ep.FiniteMeasure.uniform(space)
            assert repr(ep.fm_distance(nu, nu)) == "0.0"


def sparse_measure(rng, space, p_zero):
    """A random measure whose weights are zero, each with probability
    p_zero, except for at least one."""
    w = rng.dirichlet(np.ones(len(space)))
    w[rng.random(len(w)) < p_zero] = 0.0
    if not w.any():
        w[rng.integers(len(w))] = 1.0
    return ep.FiniteMeasure(space, w / w.sum())


def subset_scan_prohorov(nu1, nu2):
    """Reference for prohorov_distance by brute force: the worst-set
    deficiency max_A nu(A) - nu'(A^t), both ways, over all 2^N subsets A
    at every distinct distance t, and then min over t of max(deficiency, t),
    with no bisection."""
    n, d = len(nu1.space), nu1.space.dist
    # row A of `members` is the indicator of the subset with bitmask A
    members = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    m1, m2 = members @ nu1.weights, members @ nu2.weights
    best = math.inf
    for t in np.unique(d):
        fattened = ((members @ (d <= t)) > 0) @ (1 << np.arange(n))
        deficiency = max(np.max(m1 - m2[fattened]), np.max(m2 - m1[fattened]), 0.0)
        best = min(best, max(deficiency, t))
    return best


def transport_lp_prohorov(nu1, nu2):
    """Reference for prohorov_distance by linear programming: at a distance
    t, 1 minus the largest mass a coupling puts on pairs within t, from
    scipy's HiGHS on the transport polytope; bisected for the first
    distance whose deficiency is at most itself."""
    d, w = nu1.space.dist, np.concatenate([nu1.weights, nu2.weights])
    thresholds, n = np.unique(d), len(d)

    def deficiency(k):
        i, j = np.nonzero(d <= thresholds[k])
        rows = np.concatenate([i, n + j])
        a = csr_matrix((np.ones(len(rows)), (rows, np.tile(np.arange(len(i)), 2))),
                       shape=(2 * n, len(i)))
        res = linprog(-np.ones(len(i)), A_ub=a, b_ub=w, method="highs")
        assert res.status == 0
        return max(1.0 + res.fun, 0.0)

    # deficiency falls and t grows: below k the infimum is a deficiency,
    # from k on it is t itself
    k = bisect.bisect_left(range(len(thresholds)), True,
                           key=lambda k: deficiency(k) <= thresholds[k])
    return thresholds[k] if k == 0 else min(thresholds[k], deficiency(k - 1))


class TestProhorov:
    def test_unit_separated_point_masses(self):
        space = two_point_space()
        d0 = ep.FiniteMeasure.point_mass(space, 0)
        d1 = ep.FiniteMeasure.point_mass(space, 1)
        assert ep.prohorov_distance(d0, d1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_at_equality(self, rng):
        space = random_space(rng, 5)
        nu = random_measure(rng, space)
        assert ep.prohorov_distance(nu, nu) == pytest.approx(0.0, abs=1e-12)

    def test_half_tv_upper_bound(self, rng):
        for _ in range(30):
            space = random_space(rng, 6)
            nu1 = random_measure(rng, space)
            nu2 = random_measure(rng, space)
            dp = ep.prohorov_distance(nu1, nu2)
            assert dp <= 0.5 * ep.tv_distance(nu1, nu2) + 1e-9

    def test_fm_two_sided_comparison(self, rng):
        # phi(d_P) <= d_FM <= 2 d_P with phi(u) = 2u^2 / (2 + u)
        for _ in range(30):
            space = random_space(rng, 5)
            nu1 = random_measure(rng, space)
            nu2 = random_measure(rng, space)
            dp = ep.prohorov_distance(nu1, nu2)
            fm = ep.fm_distance(nu1, nu2)
            phi = 2.0 * dp * dp / (2.0 + dp)
            assert phi <= fm + 1e-9
            assert fm <= 2.0 * dp + 1e-9

    def test_matches_subset_scan_with_ties_and_zero_weights(self, rng):
        for trial in range(300):
            n = int(rng.integers(1, 13))
            # points on a 3 x 3 grid tie many distances and may coincide
            coords = rng.integers(0, 3, (n, 2)) if trial % 2 else rng.uniform(-1, 1, (n, 2))
            space = ep.MetricSpacePoints.from_coordinates(coords)
            nu1, nu2 = (sparse_measure(rng, space, 0.4 if trial % 3 else 0.0) for _ in range(2))
            assert ep.prohorov_distance(nu1, nu2) == pytest.approx(
                subset_scan_prohorov(nu1, nu2), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [25, 60])
    def test_large_support_matches_transport_lp(self, rng, n):
        space = random_space(rng, n)
        for _ in range(3):
            nu1, nu2 = random_measure(rng, space), random_measure(rng, space)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                dp = ep.prohorov_distance(nu1, nu2)
            assert dp == pytest.approx(transport_lp_prohorov(nu1, nu2), rel=0.0, abs=1e-9)


class TestWeightedTvRatio:
    def test_identical_measures_give_zero_ratio(self):
        nu = bernoulli(0.4)
        lhs, factor, ratio = ep.weighted_tv_ratio(np.array([1.0, 2.0]), nu, nu, delta=0.5)
        assert lhs == 0.0
        assert ratio == 0.0
        # the entropy budget H + sqrt(H) vanishes with H
        assert factor == 0.0

    def test_unit_weight_reduces_to_tv(self):
        nu1, nu2 = bernoulli(0.7), bernoulli(0.5)
        lhs, _, _ = ep.weighted_tv_ratio(np.ones(2), nu1, nu2, delta=1.0)
        assert lhs == pytest.approx(ep.tv_distance(nu1, nu2))

    def test_ratio_is_lhs_over_factor(self, rng):
        space = line_space(5)
        nu1 = random_measure(rng, space, floor=1e-3)
        nu2 = random_measure(rng, space, floor=1e-3)
        f = rng.normal(size=5) * 3.0
        lhs, factor, ratio = ep.weighted_tv_ratio(f, nu1, nu2, delta=0.7)
        assert ratio == pytest.approx(lhs / factor)

    def test_bounded_by_one_in_practice(self, rng):
        # the weighted distance never exceeds its entropy budget
        space = line_space(6)
        for _ in range(25):
            nu1 = random_measure(rng, space, floor=1e-3)
            nu2 = random_measure(rng, space, floor=1e-3)
            f = rng.normal(size=6) * rng.uniform(0.5, 4.0)
            for delta in (0.25, 1.0, 3.0):
                _, _, ratio = ep.weighted_tv_ratio(f, nu1, nu2, delta)
                assert ratio <= 1.0 + 1e-9

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            ep.weighted_tv_ratio(np.ones(2), bernoulli(0.5), bernoulli(0.6), delta=0.0)

    def test_rejects_infinite_entropy(self):
        space = two_point_space()
        d0 = ep.FiniteMeasure.point_mass(space, 0)
        d1 = ep.FiniteMeasure.point_mass(space, 1)
        with pytest.raises(ValueError):
            ep.weighted_tv_ratio(np.ones(2), d0, d1, delta=1.0)


class TestLuxemburgNorm:
    def test_zero_function(self):
        assert ep.luxemburg_norm(np.zeros(2), bernoulli(0.5)) == 0.0

    def test_constant_one(self):
        got = ep.luxemburg_norm(np.ones(2), bernoulli(0.5))
        assert got == pytest.approx(1.0 / ORLICZ_UNIT_ROOT, abs=1e-10)

    def test_positive_homogeneity(self, rng):
        space = line_space(5)
        alpha = random_measure(rng, space, floor=1e-3)
        g = rng.normal(size=5)
        base = ep.luxemburg_norm(g, alpha)
        assert ep.luxemburg_norm(2.5 * g, alpha) == pytest.approx(2.5 * base, rel=1e-8)

    def test_unit_ball_saturation(self, rng):
        # at s = norm the modular integral equals 1
        space = line_space(4)
        alpha = random_measure(rng, space, floor=1e-2)
        g = rng.normal(size=4) + 0.5
        s = ep.luxemburg_norm(g, alpha)
        u = np.abs(g) / s
        modular = alpha.integrate(np.exp(u) - u - 1.0)
        assert modular == pytest.approx(1.0, abs=1e-9)

    def test_matches_brentq(self, rng):
        from scipy.optimize import brentq

        for _ in range(200):
            m = int(rng.integers(1, 12))
            alpha = sparse_measure(rng, line_space(m), 0.2)
            g = rng.normal(size=m) * 10.0 ** rng.integers(-6, 7)
            ws, gs = alpha.weights[alpha.weights > 0], g[alpha.weights > 0]
            excess = lambda s: float(np.dot(ws, np.expm1(np.abs(gs / s)) - np.abs(gs / s))) - 1.0
            # the root lies in (0, max |g|]; halve to bracket it, and ask
            # brentq for a tolerance relative to the bracket
            hi = float(np.abs(gs).max())
            while excess(hi / 2.0) <= 0.0:
                hi /= 2.0
            want = brentq(excess, hi / 2.0, hi, xtol=1e-15 * hi, rtol=1e-12)
            assert ep.luxemburg_norm(g, alpha) == pytest.approx(want, rel=1e-9)

    def test_ignores_nullsets(self):
        # mass zero at a point makes its value irrelevant
        space = line_space(3)
        alpha = ep.FiniteMeasure(space, np.array([0.5, 0.5, 0.0]))
        g_small = np.array([1.0, 1.0, 0.0])
        g_huge = np.array([1.0, 1.0, 1e6])
        assert ep.luxemburg_norm(g_huge, alpha) == pytest.approx(
            ep.luxemburg_norm(g_small, alpha)
        )


def subset_scan_covering(space, epsilon):
    """Reference for the exact covering path: the same kept ball masks,
    then every subset of them by size until one covers."""
    n = len(space)
    balls = space.dist < epsilon
    masks = {}
    for x in range(n):
        m = int(np.sum(1 << np.nonzero(balls[x])[0].astype(np.int64)))
        if m not in masks:
            masks[m] = x
    keep = {m: x for m, x in masks.items()
            if not any(other != m and (m | other) == other for other in masks)}
    full = (1 << n) - 1
    mask_items = sorted(keep.items(), key=lambda kv: -bin(kv[0]).count("1"))
    for r in range(1, len(mask_items) + 1):
        for combo in itertools.combinations(mask_items, r):
            acc = 0
            for m, _ in combo:
                acc |= m
            if acc == full:
                return ep.CoveringReport(epsilon=epsilon, count=r, method="exact",
                                         centers=tuple(space.points[x] for _, x in combo))
    raise AssertionError("no subset covers")


def assert_open_cover(space, report):
    """The report's centers are distinct, as many as its count, and every
    point lies strictly within epsilon of one of them."""
    centers_idx = [space.index_of(c) for c in report.centers]
    assert len(centers_idx) == report.count == len(set(centers_idx))
    assert np.all(space.dist[:, centers_idx].min(axis=1) < report.epsilon)


class TestCoveringNumber:
    def grid11(self):
        return line_space(11)  # 0.0, 0.1, ..., 1.0

    def test_known_counts_on_grid(self):
        space = self.grid11()
        assert ep.covering_number(space, 0.30).count == 2
        assert ep.covering_number(space, 0.15).count == 4
        assert ep.covering_number(space, 0.05).count == 11

    def test_exact_method_on_small_support(self):
        report = ep.covering_number(self.grid11(), 0.3)
        assert report.method == "exact"

    def test_centers_cover(self, rng):
        space = random_space(rng, 15)
        eps = 0.8
        assert_open_cover(space, ep.covering_number(space, eps))

    def test_greedy_beyond_scan_limit(self, rng):
        space = random_space(rng, EXACT_SCAN_LIMIT + 10)
        report = ep.covering_number(space, 0.9)
        assert report.method == "greedy"
        assert_open_cover(space, report)

    def test_matches_subset_scan_on_random_spaces(self, rng):
        for _ in range(60):
            space = random_space(rng, int(rng.integers(1, 17)), dim=int(rng.integers(1, 4)))
            for eps in (0.05, 0.3, 0.6, 1.0, 2.0):
                report = ep.covering_number(space, eps)
                scan = subset_scan_covering(space, eps)
                assert (report.count, report.method) == (scan.count, scan.method)
                assert_open_cover(space, report)

    @pytest.mark.parametrize("eps, count", [(0.3, 2), (0.15, 4), (0.1, 6), (0.05, 18)])
    def test_matches_subset_scan_on_benchmark_grid(self, eps, count):
        space = line_space(18)
        report = ep.covering_number(space, eps)
        scan = subset_scan_covering(space, eps)
        assert (report.count, report.method) == (scan.count, scan.method) == (count, "exact")
        assert_open_cover(space, report)

    def test_rejects_nonpositive_epsilon(self):
        for epsilon in (0.0, math.nan):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                ep.covering_number(self.grid11(), epsilon)


class TestCoveringBoundMeasures:
    def test_fortet_mourier_at_unit_radius(self):
        # (4e)^2, evaluated with mpmath
        assert ep.covering_bound_measures(2, 1.0, "fortet_mourier") == pytest.approx(
            118.2248975828904, rel=1e-12
        )

    def test_prohorov_at_unit_radius(self):
        assert ep.covering_bound_measures(2, 1.0, "prohorov") == pytest.approx(
            (2.0 * math.e) ** 2, rel=1e-12
        )

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            ep.covering_bound_measures(-1, 0.5, "prohorov")
        with pytest.raises(ValueError):
            ep.covering_bound_measures(2, 0.0, "prohorov")
        with pytest.raises(ValueError):
            ep.covering_bound_measures(2, 1.5, "prohorov")
        with pytest.raises(ValueError):
            ep.covering_bound_measures(2, 0.5, "wasserstein")

    @pytest.mark.parametrize("n_cover", [2.5, 2.0, True, False, "2"])
    def test_rejects_counts_that_are_not_integers(self, n_cover):
        with pytest.raises(ValueError, match="nonnegative integer"):
            ep.covering_bound_measures(n_cover, 0.5, "prohorov")

    def test_takes_numpy_integers(self):
        assert ep.covering_bound_measures(np.int64(2), 1.0, "prohorov") == (
            ep.covering_bound_measures(2, 1.0, "prohorov"))

    def test_bound_beyond_float_range_is_inf(self):
        assert ep.covering_bound_measures(200, 0.01, "prohorov") == math.inf
        assert ep.covering_bound_measures(200, 0.01, "fortet_mourier") == math.inf


class TestEpsilonScheduleMetric:
    def test_zero_covering_large_n(self):
        # with no covering term the criterion is n eps^2 / 8 >= sqrt(n),
        # i.e. eps >= sqrt(8) n^{-1/4}; for n = 6400 that is 0.3162...,
        # and the smallest admissible grid point is 0.95^22.
        got = ep.epsilon_schedule_metric(lambda r: 0.0, 6400)
        assert got == pytest.approx(0.95 ** 22, rel=1e-12)

    def test_decreases_with_n(self):
        fn = lambda r: 3.0
        eps_small = ep.epsilon_schedule_metric(fn, 400)
        eps_large = ep.epsilon_schedule_metric(fn, 40000)
        assert eps_large < eps_small

    def test_floor_with_warning_when_unsatisfiable(self):
        with pytest.warns(UserWarning, match="grid floor"):
            got = ep.epsilon_schedule_metric(lambda r: 1e9, 10)
        assert got == pytest.approx(0.95 ** 400)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            ep.epsilon_schedule_metric(lambda r: 0.0, 0)


@st.composite
def _logsumexp_cases(draw):
    """(a, b, axis) with -inf entries, tied maxima, zero weights and entries
    up to 700 in size; b is None in some cases."""
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    scale = draw(st.sampled_from([1e-2, 1.0, 30.0, 700.0]))
    entry = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 0.0, 1.0]),
                      st.just(-math.inf))
    a = draw(hnp.arrays(float, shape, elements=entry)) * scale
    weight = st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 0.5, 1.0]))
    b = draw(st.none() | hnp.arrays(float, shape, elements=weight))
    axis = draw(st.sampled_from([None, *range(len(shape))]))
    return a, b, axis


class TestLogSpaceKernels:
    @given(_logsumexp_cases())
    @settings(max_examples=400, deadline=None)
    def test_logsumexp_is_scipy_bit_for_bit(self, case):
        from scipy.special import logsumexp as scipy_logsumexp

        a, b, axis = case
        got = np.asarray(logsumexp(a, axis=axis, b=b))
        with np.errstate(all="ignore"):
            want = np.asarray(scipy_logsumexp(a, axis=axis, b=b))
        assert got.shape == want.shape
        # a slice with every weight zero is -inf here; scipy may give NaN
        massless = np.asarray(False if b is None else np.all(b == 0, axis=axis))
        massless = np.broadcast_to(massless, got.shape)
        assert np.all(got[massless] == -np.inf)
        assert got[~massless].tobytes() == want[~massless].tobytes()

    def test_logsumexp_of_empty_input_is_minus_inf(self):
        assert logsumexp(np.array([])) == -math.inf
        np.testing.assert_array_equal(logsumexp(np.zeros((0, 3)), axis=0), [-math.inf] * 3)

    def test_logsumexp_with_all_zero_weights_is_minus_inf(self):
        assert logsumexp(np.array([1.0, 800.0]), b=np.zeros(2)) == -math.inf
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        got = logsumexp(np.array([[1.0, 2.0], [3.0, 4.0]]), axis=1, b=b)
        np.testing.assert_array_equal(got, [-math.inf, 3.0])

    def test_log_factorials_are_scipy_gammaln_bit_for_bit(self):
        from scipy.special import gammaln

        got = log_factorials(200_000)
        assert got.tobytes() == gammaln(np.arange(200_001) + 1.0).tobytes()
        for n in (0, 1, 11, 12, 13):
            assert log_factorials(n).tobytes() == got[:n + 1].tobytes()

    def test_log_factorials_at_the_series_switch_and_the_budget(self):
        from scipy.special import gammaln

        got = log_factorials(2_000_000)
        for k in (999, 1000, 1001, 2_000_000):
            assert got[k] == gammaln(k + 1.0)
