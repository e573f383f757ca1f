"""Lattice chain construction, entropy evaluation, and calibration checks."""

import math
from dataclasses import replace
from itertools import product as iter_product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entroproj.tritree import (
    CalibProblem,
    CalibrationInfeasible,
    LatticeSpec,
    VolSurface,
    build_tree,
    calibrate,
    dl_gap,
    entropy_decomposition_check,
    epsilon0,
    expectation,
    gibbs_tree_mc,
    I_rate,
    kernel,
    local_entropy,
    min_level_n0,
    path_marginal,
    q_rate,
    recover_coefficients,
    tilde_t_membership,
    tree_entropy_chain,
    tree_entropy_paths,
    tree_two_time_marginals,
    trinomial_weak_convergence_probe,
)

# q(1, 1.44) on the alpha_tick = 2 lattice:
# log(1/1.44)/4 + log(3/2.56) * 3/4, evaluated with mpmath at 40 digits
Q_RATE_1_144 = 0.027792994235501627


def wide_spec(n):
    """Ranges whose minimal level is 2, so very small trees are legal."""
    return LatticeSpec(n=n, alpha_tick=2.0, sigma_min=0.6, sigma_max=1.4,
                       b0=0.15, s=0.03)


def tick_spec(n=100):
    """Ranges whose minimal level is 37: floor((2 * 0.75 / 0.25) ** 2) + 1."""
    return LatticeSpec(n=n, alpha_tick=2.0, sigma_min=0.5, sigma_max=1.5,
                       b0=0.5, s=0.25)


def random_surface(rng, spec, sig_lo=0.6, sig_hi=1.4, b_lo=0.12, b_hi=0.18):
    return VolSurface(
        sigma=tuple(rng.uniform(sig_lo, sig_hi, 2 * k + 1) for k in range(spec.n)),
        b=tuple(rng.uniform(b_lo, b_hi, 2 * k + 1) for k in range(spec.n)),
    )


def enumerate_path_law(tree):
    """Path probabilities by direct multiplication over move sequences."""
    n = tree.spec.n
    law = np.zeros((3,) * n)
    for moves in iter_product(range(3), repeat=n):
        j = 0
        p = 1.0
        for k, mv in enumerate(moves):
            p *= tree.transitions[k][j + k, mv]
            j += 1 - mv
        law[moves] = p
    return law


class TestLatticeSpec:
    def test_minimal_level_value(self):
        assert min_level_n0(tick_spec(37)) == 37

    def test_below_minimal_level_rejected(self):
        with pytest.raises(ValueError, match="below the minimal level 37"):
            tick_spec(36)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="sigma_min"):
            LatticeSpec(n=100, alpha_tick=2.0, sigma_min=0.0, sigma_max=1.0,
                        b0=0.5, s=0.25)
        with pytest.raises(ValueError, match="alpha_tick"):
            LatticeSpec(n=100, alpha_tick=2.0, sigma_min=0.5, sigma_max=2.0,
                        b0=0.5, s=0.25)
        with pytest.raises(ValueError, match="b0"):
            LatticeSpec(n=100, alpha_tick=2.0, sigma_min=0.5, sigma_max=1.5,
                        b0=0.5, s=0.5)
        with pytest.raises(ValueError, match="b0"):
            LatticeSpec(n=100, alpha_tick=2.0, sigma_min=0.5, sigma_max=1.5,
                        b0=0.5, s=-0.1)

    def test_tick_and_positions(self):
        spec = tick_spec(100)
        assert spec.dx == pytest.approx(0.2, abs=1e-15)
        pos = spec.positions(3)
        assert pos.shape == (7,)
        assert_allclose(pos, np.arange(-3, 4) * spec.dx, atol=1e-15)


class TestKernel:
    def test_known_triple(self):
        # y = 1, z = 0.1 at alpha_tick = 2, n = 100:
        # up = 1/8 + 0.1/40, stay = 3/4, down = 1/8 - 0.1/40
        m, r, d = kernel(1.0, 0.1, tick_spec(100))
        assert m == pytest.approx(0.1275, abs=1e-15)
        assert r == pytest.approx(0.75, abs=1e-15)
        assert d == pytest.approx(0.1225, abs=1e-15)

    def test_zero_drift_is_symmetric(self):
        m, r, d = kernel(1.3, 0.0, tick_spec(100))
        assert m == d

    def test_weights_sum_to_one(self, rng):
        spec = tick_spec(100)
        for _ in range(50):
            y = rng.uniform(0.5, 1.5)
            z = rng.uniform(0.25, 0.75)
            m, r, d = kernel(y, z, spec)
            assert min(m, r, d) > 0
            assert m + r + d == pytest.approx(1.0, abs=1e-15)

    def test_nonpositive_weight_rejected(self):
        # down weight 0.5^2/8 - 2/40 = -0.01875 at these arguments
        with pytest.raises(ValueError, match="not strictly positive"):
            kernel(0.5, 2.0, tick_spec(100))


class TestVolSurface:
    def test_constant_tables(self):
        spec = wide_spec(4)
        surf = VolSurface.constant(spec, 1.1, 0.15)
        assert surf.levels == 4
        for k in range(4):
            assert surf.sigma[k].shape == (2 * k + 1,)
            assert_allclose(surf.sigma[k], 1.1)
            assert_allclose(surf.b[k], 0.15)

    def test_from_function_samples_nodes(self):
        spec = wide_spec(5)
        surf = VolSurface.from_function(
            spec,
            lambda t, x: 0.8 + 0.1 * t + 0.05 * x,
            lambda t, x: 0.15 + 0.01 * t,
        )
        for k in range(5):
            t = k / spec.n
            xs = spec.positions(k)
            assert_allclose(surf.sigma[k], 0.8 + 0.1 * t + 0.05 * xs, atol=1e-15)
            assert_allclose(surf.b[k], 0.15 + 0.01 * t, atol=1e-15)

    def test_truncated(self):
        spec = wide_spec(6)
        surf = VolSurface.constant(spec, 1.0, 0.15)
        short = surf.truncated(3)
        assert short.levels == 3
        with pytest.raises(ValueError, match="cannot extend"):
            short.truncated(4)

    def test_document_round_trip(self):
        rng = np.random.default_rng(7)
        surf = random_surface(rng, wide_spec(4))
        back = VolSurface.from_document(surf.to_document())
        for k in range(4):
            assert np.array_equal(back.sigma[k], surf.sigma[k])
            assert np.array_equal(back.b[k], surf.b[k])

    def test_level_length_validation(self):
        with pytest.raises(ValueError, match="must have length"):
            VolSurface(sigma=(np.array([1.0, 1.0]),), b=(np.array([0.15, 0.15]),))

    def test_mismatched_levels_rejected(self):
        with pytest.raises(ValueError, match="same number of levels"):
            VolSurface(sigma=(np.array([1.0]),), b=())

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            VolSurface(sigma=(np.array([np.nan]),), b=(np.array([0.15]),))


class TestBuildTree:
    def test_levels_carry_unit_mass(self):
        spec = wide_spec(512)
        tree = build_tree(VolSurface.constant(spec, 1.0, 0.15), spec)
        assert len(tree.node_prob) == 513
        for k in (0, 1, 64, 511, 512):
            assert tree.node_prob[k].shape == (2 * k + 1,)
            assert tree.node_prob[k].sum() == pytest.approx(1.0, abs=1e-12)
        for k in (0, 255):
            assert_allclose(tree.transitions[k].sum(axis=1), 1.0, atol=1e-12)

    def test_forward_push_matches_convolution(self, rng):
        spec = wide_spec(5)
        tree = build_tree(random_surface(rng, spec), spec)
        for k in range(5):
            manual = np.zeros(2 * k + 3)
            prob, trans = tree.node_prob[k], tree.transitions[k]
            for i in range(2 * k + 1):
                manual[i + 2] += prob[i] * trans[i, 0]
                manual[i + 1] += prob[i] * trans[i, 1]
                manual[i] += prob[i] * trans[i, 2]
            assert_allclose(tree.node_prob[k + 1], manual, atol=1e-15)

    def test_short_surface_rejected(self):
        spec = wide_spec(6)
        surf = VolSurface.constant(spec, 1.0, 0.15).truncated(3)
        with pytest.raises(ValueError, match="levels"):
            build_tree(surf, spec)

    def test_kernel_positivity_enforced(self):
        spec = wide_spec(2)
        surf = VolSurface.constant(spec, 0.3, 0.18)
        with pytest.raises(ValueError, match="kernel not strictly positive"):
            build_tree(surf, spec)


class TestExpectation:
    def test_constant_payoff(self):
        spec = wide_spec(30)
        tree = build_tree(VolSurface.constant(spec, 1.0, 0.15), spec)
        assert expectation(tree, lambda x: 1.0, 30) == pytest.approx(1.0, abs=1e-12)

    def test_mean_accumulates_drift(self):
        spec = wide_spec(30)
        tree = build_tree(VolSurface.constant(spec, 1.0, 0.15), spec)
        for k in (1, 15, 30):
            # each step adds b0/n to the mean
            assert expectation(tree, lambda x: x, k) == pytest.approx(
                k * 0.15 / 30, abs=1e-13
            )

    def test_second_moment_closed_form(self):
        spec = wide_spec(30)
        y, z = 1.2, 0.15
        tree = build_tree(VolSurface.constant(spec, y, z), spec)
        n = 30
        for k in (1, 15, 30):
            # sum of k independent increments with E[step] = z/n and
            # E[step^2] = y^2/n, so E[X^2] = k y^2/n + k(k-1) z^2/n^2
            want = k * y ** 2 / n + k * (k - 1) * z ** 2 / n ** 2
            assert expectation(tree, lambda x: x * x, k) == pytest.approx(
                want, rel=1e-12
            )


class TestLocalEntropy:
    def test_zero_at_equal_arguments(self):
        spec = wide_spec(50)
        assert local_entropy(1.1, 0.15, 1.1, 0.15, spec) == 0.0

    def test_positive_otherwise(self):
        spec = wide_spec(50)
        assert local_entropy(1.1, 0.15, 1.3, 0.15, spec) > 0
        assert local_entropy(1.1, 0.12, 1.1, 0.18, spec) > 0

    def test_matches_kernel_kl(self, rng):
        spec = wide_spec(50)
        for _ in range(20):
            y1, y0 = rng.uniform(0.6, 1.4, 2)
            z1, z0 = rng.uniform(0.12, 0.18, 2)
            p1 = kernel(y1, z1, spec)
            p0 = kernel(y0, z0, spec)
            direct = sum(a * math.log(a / b) for a, b in zip(p1, p0))
            assert local_entropy(y1, z1, y0, z0, spec) == pytest.approx(
                direct, rel=1e-12, abs=1e-15
            )


class TestTreeEntropy:
    def test_zero_for_equal_surfaces(self):
        spec = wide_spec(20)
        surf = VolSurface.constant(spec, 1.1, 0.15)
        assert tree_entropy_chain(surf, surf, spec) == 0.0

    def test_nonnegative(self, rng):
        spec = wide_spec(12)
        for _ in range(5):
            h = tree_entropy_chain(
                random_surface(rng, spec), random_surface(rng, spec), spec
            )
            assert h >= 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_chain_agrees_with_path_enumeration(self, rng, n):
        spec = wide_spec(n)
        surf = random_surface(rng, spec)
        surf0 = random_surface(rng, spec)
        hc = tree_entropy_chain(surf, surf0, spec)
        hp = tree_entropy_paths(surf, surf0, spec)
        assert hc == pytest.approx(hp, abs=1e-12)

    def test_path_enumeration_size_limit(self):
        spec = wide_spec(11)
        surf = VolSurface.constant(spec, 1.0, 0.15)
        with pytest.raises(ValueError, match="n <= 10"):
            tree_entropy_paths(surf, surf, spec)


class TestPathMarginal:
    def test_matches_node_probabilities(self, rng):
        spec = wide_spec(4)
        tree = build_tree(random_surface(rng, spec), spec)
        law = enumerate_path_law(tree)
        for k in range(5):
            assert_allclose(path_marginal(law, k), tree.node_prob[k], atol=1e-12)

    def test_level_zero_is_total_mass(self):
        law = np.full((3, 3), 1.0 / 9.0)
        assert_allclose(path_marginal(law, 0), [1.0], atol=1e-15)

    def test_level_out_of_range(self):
        law = np.full((3, 3), 1.0 / 9.0)
        with pytest.raises(ValueError, match="level out of range"):
            path_marginal(law, 3)


class TestEntropyDecomposition:
    @staticmethod
    def _setup(rng):
        spec = wide_spec(3)
        surf = random_surface(rng, spec, 0.7, 1.3, 0.13, 0.17)
        surf0 = VolSurface.constant(spec, 1.0, 0.15)
        tree = build_tree(surf, spec)
        return spec, surf, surf0, tree

    def test_tree_law_splits_exactly(self, rng):
        spec, surf, surf0, tree = self._setup(rng)
        law = enumerate_path_law(tree)
        lhs, rhs = entropy_decomposition_check(law, surf, surf0, spec)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(tree_entropy_chain(surf, surf0, spec), abs=1e-12)

    def test_history_dependent_law_splits_exactly(self, rng):
        # move mass between the two up-down orderings that meet at the same
        # level-2 node; nodewise conditionals are preserved while the path
        # law stops being Markov
        spec, surf, surf0, tree = self._setup(rng)
        law = enumerate_path_law(tree)
        delta = 0.25 * min(law[0, 2].min(), law[2, 0].min())
        shift = delta * np.array([1.0, -1.0, 0.0])
        bent = law.copy()
        bent[0, 2] += shift
        bent[2, 0] -= shift
        assert np.abs(bent - law).max() > 0
        lhs, rhs = entropy_decomposition_check(bent, surf, surf0, spec)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_conditional_violation_rejected(self, rng):
        spec, surf, surf0, tree = self._setup(rng)
        other = build_tree(VolSurface.constant(spec, 0.8, 0.16), spec)
        law = enumerate_path_law(other)
        with pytest.raises(ValueError, match="violates the one-step conditional"):
            entropy_decomposition_check(law, surf, surf0, spec)

    def test_input_validation(self, rng):
        spec, surf, surf0, tree = self._setup(rng)
        law = enumerate_path_law(tree)
        with pytest.raises(ValueError, match="path-indexed"):
            entropy_decomposition_check(law[0], surf, surf0, spec)
        with pytest.raises(ValueError, match="probability law"):
            entropy_decomposition_check(2.0 * law, surf, surf0, spec)


class TestQRate:
    def test_zero_at_equal_variances(self):
        assert q_rate(1.0, 1.0, wide_spec(4)) == 0.0

    def test_known_value(self):
        assert q_rate(1.0, 1.44, wide_spec(4)) == pytest.approx(
            Q_RATE_1_144, rel=1e-12
        )

    def test_positive_off_diagonal(self):
        spec = wide_spec(4)
        assert q_rate(0.5, 1.2, spec) > 0
        assert q_rate(1.2, 0.5, spec) > 0

    def test_domain_validation(self):
        spec = wide_spec(4)
        for x, y in ((0.0, 1.0), (4.0, 1.0), (1.0, 0.0), (1.0, 4.5)):
            with pytest.raises(ValueError, match="must lie in"):
                q_rate(x, y, spec)


class TestDlGap:
    def test_zero_for_identical_surfaces(self):
        spec = wide_spec(16)
        surf = VolSurface.constant(spec, 1.1, 0.15)
        assert dl_gap(surf, surf, spec) == (0.0, 0.0)

    def test_scaled_gap_is_stable_in_n(self):
        scaled = []
        raw = []
        for n in (32, 64, 128, 256):
            spec = wide_spec(n)
            surf = VolSurface.constant(spec, 1.1, spec.b0)
            surf0 = VolSurface.constant(spec, 1.3, spec.b0)
            g, ng = dl_gap(surf, surf0, spec)
            assert ng == pytest.approx(n * g, rel=1e-12)
            raw.append(g)
            scaled.append(ng)
        assert max(scaled) / min(scaled) < 1.5
        assert raw[-1] < raw[0] / 4


class TestIRate:
    def test_zero_for_equal_surfaces(self):
        spec = wide_spec(24)
        surf = VolSurface.constant(spec, 1.1, 0.15)
        assert I_rate(surf, surf, spec) == 0.0

    def test_constant_surfaces_give_the_rate_at_every_level(self):
        spec = wide_spec(40)
        surf = VolSurface.constant(spec, 1.1, spec.b0)
        surf0 = VolSurface.constant(spec, 1.3, spec.b0)
        q = q_rate(1.1 ** 2, 1.3 ** 2, spec)
        for N in (2, 17, 40):
            assert I_rate(surf, surf0, spec, N) == pytest.approx(q, rel=1e-12)

    def test_level_bounds_enforced(self):
        spec = tick_spec(100)
        surf = VolSurface.constant(spec, 1.0, spec.b0)
        with pytest.raises(ValueError, match="between the minimal level"):
            I_rate(surf, surf, spec, N=36)
        with pytest.raises(ValueError, match="between the minimal level"):
            I_rate(surf, surf, spec, N=101)


class TestTwoTimeAndRecovery:
    def test_tables_carry_unit_mass(self, rng):
        spec = wide_spec(6)
        tree = build_tree(random_surface(rng, spec), spec)
        joints = tree_two_time_marginals(tree)
        assert len(joints) == 6
        for k, joint in enumerate(joints):
            assert joint.shape == (2 * k + 1, 3)
            assert joint.sum() == pytest.approx(1.0, abs=1e-12)
            assert_allclose(joint.sum(axis=1), tree.node_prob[k], atol=1e-15)

    def test_recovery_inverts_construction(self, rng):
        spec = wide_spec(6)
        surf = random_surface(rng, spec)
        tree = build_tree(surf, spec)
        F_tables, G_tables = recover_coefficients(
            tree_two_time_marginals(tree), spec
        )
        for k in range(6):
            assert_allclose(F_tables[k], surf.b[k], rtol=1e-9, atol=1e-12)
            assert_allclose(G_tables[k], surf.sigma[k] ** 2, rtol=1e-9)

    def test_zero_mass_handling(self):
        spec = wide_spec(2)
        joint0 = np.array([[0.2, 0.5, 0.3]])
        joint1 = np.array([[0.0, 0.0, 0.0], [0.2, 0.5, 0.3], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="zero node mass"):
            recover_coefficients([joint0, joint1], spec)
        F_tables, G_tables = recover_coefficients([joint0, joint1], spec,
                                                  strict=False)
        assert np.isfinite(F_tables[1][1])
        assert np.isnan(G_tables[1][0]) and np.isnan(G_tables[1][2])

    def test_shape_validation(self):
        spec = wide_spec(2)
        with pytest.raises(ValueError, match="must be"):
            recover_coefficients([np.ones((2, 3))], spec)


class TestMembership:
    def test_in_range_tree_passes(self):
        spec = wide_spec(6)
        tree = build_tree(VolSurface.constant(spec, 1.0, spec.b0), spec)
        ok, violations = tilde_t_membership(tree_two_time_marginals(tree),
                                            spec, 0.01)
        assert ok and violations == []

    def test_variance_out_of_range_reported(self):
        spec = wide_spec(6)
        tree = build_tree(VolSurface.constant(spec, 1.6, spec.b0), spec)
        ok, violations = tilde_t_membership(tree_two_time_marginals(tree),
                                            spec, 0.01)
        assert not ok
        assert any("variance" in v and "out of range" in v for v in violations)

    def test_slack_relaxes_the_range(self):
        # implied variance 2.56 against the ceiling 1.96 + 0.7
        spec = wide_spec(6)
        tree = build_tree(VolSurface.constant(spec, 1.6, spec.b0), spec)
        ok, violations = tilde_t_membership(tree_two_time_marginals(tree),
                                            spec, 0.01, slack=0.7)
        assert ok and violations == []

    def test_drift_band_reported(self):
        spec = wide_spec(6)
        tree = build_tree(VolSurface.constant(spec, 1.0, 0.18), spec)
        ok, violations = tilde_t_membership(tree_two_time_marginals(tree),
                                            spec, 0.01)
        assert not ok
        assert any("drift" in v and "outside the band" in v for v in violations)

    def test_modulus_clause(self):
        spec = wide_spec(6)
        surf = VolSurface(
            sigma=tuple(np.full(2 * k + 1, 0.7 if k == 0 else 1.3)
                        for k in range(6)),
            b=tuple(np.full(2 * k + 1, spec.b0) for k in range(6)),
        )
        joints = tree_two_time_marginals(build_tree(surf, spec))
        ok, violations = tilde_t_membership(joints, spec, 0.01,
                                            modulus=lambda d: 0.0)
        assert not ok
        assert any("modulus violated" in v for v in violations)
        ok2, violations2 = tilde_t_membership(joints, spec, 0.01,
                                              modulus=lambda d: 10.0)
        assert ok2 and violations2 == []


def normalized_square_payoff(spec, sigma_value):
    """x -> x^2 scaled so its mean is 1 under the constant sigma_value tree."""
    tree = build_tree(VolSurface.constant(spec, sigma_value, spec.b0), spec)
    c = expectation(tree, lambda x: x * x, spec.n)
    return lambda x: x * x / c


class TestCalibrate:
    def test_self_target_recovers_the_reference(self):
        spec = wide_spec(50)
        payoff = normalized_square_payoff(spec, 1.2)
        result = calibrate(CalibProblem(sigma0=1.2, payoff=payoff), spec, 0.01)
        assert result.theta_star.shape == (1,)
        assert result.theta_star[0] == pytest.approx(1.2, abs=1e-3)
        assert result.entropy <= 1e-9
        assert result.slack <= 1e-6

    def test_band_round_trip(self):
        # the band is centered at the sigma = 1.1 moment, so the minimizer
        # sits at the band edge nearest the sigma0 = 1.2 reference
        spec = wide_spec(100)
        payoff = normalized_square_payoff(spec, 1.1)
        result = calibrate(CalibProblem(sigma0=1.2, payoff=payoff), spec, 0.01)
        theta = result.theta_star[0]
        assert abs(theta - 1.1) < 0.05
        assert theta > 1.1
        assert result.slack <= 0.01 + 1e-9
        assert result.moment == pytest.approx(1.0, abs=0.01 + 1e-9)
        at_center = tree_entropy_chain(
            VolSurface.constant(spec, 1.1, spec.b0),
            VolSurface.constant(spec, 1.2, spec.b0),
            spec,
        )
        assert result.entropy < at_center

    def test_two_block_family_improves_on_the_constant_fit(self):
        spec = wide_spec(16)
        payoff = normalized_square_payoff(spec, 1.1)
        one = calibrate(CalibProblem(sigma0=1.2, payoff=payoff), spec, 0.01)
        two = calibrate(CalibProblem(sigma0=1.2, payoff=payoff, n_pieces=2),
                        spec, 0.01)
        assert two.theta_star.shape == (2,)
        assert two.slack <= 0.01 + 1e-9
        assert two.entropy <= one.entropy + 1e-12

    def test_unreachable_band_rejected(self):
        spec = wide_spec(20)
        result = pytest.raises(
            CalibrationInfeasible,
            calibrate,
            CalibProblem(sigma0=1.0, payoff=lambda x: x * x / 10.0),
            spec,
            0.01,
        )
        assert "no constant parameter" in str(result.value)

    def test_parameter_validation(self):
        spec = wide_spec(20)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            calibrate(CalibProblem(sigma0=1.0, payoff=lambda x: x), spec, 0.0)
        with pytest.raises(ValueError, match="n_pieces"):
            CalibProblem(sigma0=1.0, payoff=lambda x: x, n_pieces=0)
        with pytest.raises(ValueError, match="payoff must be callable"):
            CalibProblem(sigma0=1.0, payoff=3.0)


class TestEpsilonZero:
    def test_slack_plus_resolution(self):
        # constant payoff 1.02 has slack 0.02 exactly, and 1/n adds 0.01
        spec = wide_spec(100)
        surf = VolSurface.constant(spec, 1.0, spec.b0)
        assert epsilon0(surf, spec, lambda x: 1.02) == pytest.approx(
            0.03, abs=1e-10
        )

    def test_clipped_at_the_drift_halfwidth(self):
        spec = replace(wide_spec(100), s=0.01)
        surf = VolSurface.constant(spec, 1.0, spec.b0)
        assert epsilon0(surf, spec, lambda x: 1.02) == 0.01


class TestGibbsTreeMc:
    @staticmethod
    def _run(**overrides):
        spec = wide_spec(8)
        payoff = normalized_square_payoff(wide_spec(2), 1.0)
        args = dict(spec=spec, sigma0=1.0, payoff=payoff, n=2, epsilon=0.3,
                    m=400, trials=40, seed=77, delta_rel=0.4)
        args.update(overrides)
        return gibbs_tree_mc(**args)

    def test_generous_bands_accept_everything(self):
        report = self._run()
        assert report["n"] == 2 and report["m"] == 400
        assert report["accepted"] == report["trials"] == 40
        assert report["acceptance_rate"] == 1.0
        assert report["theta_star"] == pytest.approx(1.0, abs=1e-3)
        assert report["calibration_entropy"] <= 1e-9
        assert report["p_upper_rule_of_three"] is None
        assert 0.0 <= report["d_fm"] < 0.05

    def test_tighter_band_accepts_no_more_trials(self):
        wide = self._run()
        narrow = self._run(epsilon=0.05)
        assert narrow["accepted"] <= wide["accepted"]

    def test_more_paths_tighten_the_distance(self):
        coarse = self._run(m=100)
        fine = self._run(m=1600)
        assert fine["d_fm"] < coarse["d_fm"]

    def test_zero_acceptance_is_reported_not_raised(self):
        report = self._run(epsilon=0.002, m=50, trials=30, delta_rel=0.0)
        assert report["accepted"] == 0
        assert report["acceptance_rate"] == 0.0
        assert report["d_fm"] is None
        assert report["p_upper_rule_of_three"] == pytest.approx(0.1)

    def test_deterministic_per_configuration(self):
        first = self._run()
        second = self._run()
        assert first == second
        assert second["accepted"] == 40

    def test_seed_changes_the_draws(self):
        assert self._run()["d_fm"] != self._run(seed=78)["d_fm"]


class TestWeakConvergenceProbe:
    def test_gaps_track_the_limit_moments(self):
        specs = [wide_spec(n) for n in (16, 32, 64)]
        rows = trinomial_weak_convergence_probe(
            [1.0, 1.0, 1.0], specs, (0.15, 1.0)
        )
        assert [r["n"] for r in rows] == [16, 32, 64]
        for row, spec in zip(rows, specs):
            assert row["mean_gap"] < 1e-12
            # iid increments leave exactly b0^2/n of the variance unexplained
            assert row["variance_gap"] == pytest.approx(
                0.15 ** 2 / row["n"], rel=1e-9
            )
            assert row["max_increment"] == spec.dx
        assert rows[0]["variance_gap"] == pytest.approx(
            2.0 * rows[1]["variance_gap"], rel=1e-9
        )
