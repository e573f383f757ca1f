"""Lattice chain construction, entropy evaluation, and calibration checks."""

import math
import tracemalloc
from dataclasses import replace
from itertools import product as iter_product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entroproj import tritree
from entroproj.tritree import (
    CalibProblem,
    CalibrationInfeasible,
    LatticeSpec,
    TrinomialTree,
    VolSurface,
    _chain_walk,
    _feasible_segments,
    _golden_min,
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


class TestTrinomialTree:
    def test_node_prob_is_the_push_of_the_transitions(self, rng):
        spec = wide_spec(5)
        built = build_tree(random_surface(rng, spec), spec)
        tree = TrinomialTree(spec, [np.array(t) for t in built.transitions])
        for k in range(6):
            assert np.array_equal(tree.node_prob[k], built.node_prob[k])
        with pytest.raises(TypeError):
            TrinomialTree(spec, built.transitions, node_prob=built.node_prob)

    @pytest.mark.parametrize("edit, message", [
        (lambda ts: ts[:-1], "need transitions"),
        (lambda ts: ts[:1] + [np.full((2, 3), 1 / 3)] + ts[2:], "must be"),
        (lambda ts: ts[:1] + [ts[1] + [[0.5, 0, -0.5], [0, 0, 0], [0, 0, 0]]] + ts[2:],
         "not stochastic"),
        (lambda ts: ts[:1] + [ts[1] * 1.01] + ts[2:], "not stochastic"),
    ], ids=["levels", "shape", "negative", "row_sum"])
    def test_caller_built_transitions_are_checked(self, edit, message):
        spec = wide_spec(3)
        trans = [np.array([[0.25, 0.5, 0.25]] * (2 * k + 1)) for k in range(3)]
        TrinomialTree(spec, trans)
        with pytest.raises(ValueError, match=message):
            TrinomialTree(spec, edit(trans))

    def test_later_writes_to_the_caller_tables_change_nothing(self):
        # both levels are views of one table; the tree keeps its own copy
        table = np.array([[0.25, 0.5, 0.25]] * 4)
        tree = TrinomialTree(wide_spec(2), [table[:1], table[1:]])
        table[:] = [0.5, 0.0, 0.5]
        assert np.array_equal(tree.transitions[1], np.full((3, 3), [0.25, 0.5, 0.25]))
        assert np.array_equal(tree.node_prob[2], [0.0625, 0.25, 0.375, 0.25, 0.0625])
        with pytest.raises(ValueError, match="read-only"):
            tree.transitions[0][0, 0] = 1.0


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


def walk(surface, surface0, spec):
    return _chain_walk(surface.sigma, surface.b, surface0.sigma, surface0.b, spec)


class TestChainWalk:
    def test_gives_chain_rate_and_gap(self, rng):
        spec = wide_spec(9)
        surf, surf0 = random_surface(rng, spec), random_surface(rng, spec)
        assert walk(surf, surf0, spec)[1:] == (
            tree_entropy_chain(surf, surf0, spec), I_rate(surf, surf0, spec),
            dl_gap(surf, surf0, spec)[0],
        )

    def test_terminal_law_is_the_tree_push(self, rng):
        spec = wide_spec(12)
        surf, surf0 = random_surface(rng, spec), random_surface(rng, spec)
        assert np.array_equal(walk(surf, surf0, spec)[0], build_tree(surf, spec).node_prob[12])

    def test_batched_chains_match_their_own_walks_bit_for_bit(self, rng):
        # B chains as (B, 1) columns against each chain as full node tables
        spec = wide_spec(30)
        thetas = rng.uniform(0.7, 1.3, (5, spec.n))
        drifts = rng.uniform(0.13, 0.17, spec.n)
        surf0 = random_surface(rng, spec)
        law, entropy, rate, gap = _chain_walk(
            [thetas[:, [k]] for k in range(spec.n)], drifts, surf0.sigma, surf0.b, spec)
        assert law.shape == (5, 2 * spec.n + 1) and entropy.shape == (5,)
        for row, theta in enumerate(thetas):
            alone = VolSurface(sigma=tuple(np.full(2 * k + 1, theta[k]) for k in range(spec.n)),
                               b=tuple(np.full(2 * k + 1, drifts[k]) for k in range(spec.n)))
            one = walk(alone, surf0, spec)
            assert np.array_equal(law[row], one[0])
            assert (entropy[row], rate[row], gap[row]) == one[1:]

    @pytest.mark.parametrize("n", [8, 64, 300])
    def test_scalar_levels_match_constant_surfaces_bit_for_bit(self, n):
        spec = wide_spec(n)
        surf = VolSurface.constant(spec, 1.1, spec.b0)
        surf0 = VolSurface.constant(spec, 1.3, spec.b0)
        law, *numbers = _chain_walk(*([v] * n for v in (1.1, spec.b0, 1.3, spec.b0)), spec)
        full_law, *full_numbers = walk(surf, surf0, spec)
        assert np.array_equal(law, full_law)
        assert numbers == full_numbers
        assert numbers[1] == I_rate(surf, surf0, spec)

    @pytest.mark.parametrize("short", ["sigma", "b", "sigma0", "b0"])
    def test_every_sequence_needs_n_levels(self, short):
        spec = wide_spec(40)
        levels = {name: [1.1] * spec.n for name in ("sigma", "sigma0")}
        levels.update(b=[spec.b0] * spec.n, b0=[spec.b0] * spec.n)
        levels[short] = levels[short][:10]
        with pytest.raises(ValueError, match=f"^{short} has 10 levels, spec needs 40$"):
            _chain_walk(levels["sigma"], levels["b"], levels["sigma0"], levels["b0"], spec)

    def test_short_reference_surface_is_a_typed_error(self):
        spec = wide_spec(40)
        surf = VolSurface.constant(spec, 1.1, spec.b0)
        short = VolSurface.constant(spec, 1.3, spec.b0).truncated(10)
        for fn in (tree_entropy_chain, dl_gap):
            with pytest.raises(ValueError, match="sigma0 has 10 levels, spec needs 40"):
                fn(surf, short, spec)
        problem = CalibProblem(sigma0=short, payoff=lambda x: x * x)
        with pytest.raises(ValueError, match="sigma0 has 10 levels, spec needs 40"):
            calibrate(problem, spec, 0.01)

    @pytest.mark.parametrize("case", ["tables", "columns", "scalars"])
    def test_matches_the_level_by_level_walk_bit_for_bit(self, rng, case):
        def reference(sigma, b, sigma0, b0, spec):
            # kernels, KL and q evaluated one level at a time
            prob = np.ones(1)
            entropy = rate = worst = 0.0
            for k in range(spec.n):
                step = tritree._kernel_arrays(sigma[k], b[k], spec)
                h = tritree._kl(step, tritree._kernel_arrays(sigma0[k], b0[k], spec))
                q = tritree._q(np.square(sigma[k]), np.square(sigma0[k]), spec.alpha_tick ** 2)
                shape = np.broadcast_shapes(prob.shape, np.shape(h), np.shape(q))
                prob = np.broadcast_to(prob, shape)
                h, q = np.full(shape, h), np.full(shape, q)
                entropy = entropy + np.vecdot(prob, h)
                rate = rate + np.vecdot(prob, q)
                worst = np.maximum(worst, np.where(prob > 0, np.abs(h - q), 0.0).max(axis=-1))
                prob = tritree._push(prob, *step)
            return prob, entropy, rate / spec.n, worst

        spec = wide_spec(23)
        surf, surf0 = random_surface(rng, spec), random_surface(rng, spec)
        args = {
            "tables": (surf.sigma, surf.b, surf0.sigma, surf0.b),
            "columns": ([rng.uniform(0.7, 1.3, (6, 1)) for _ in range(23)], [spec.b0] * 23,
                        surf0.sigma, surf0.b),
            "scalars": (list(rng.uniform(0.7, 1.3, 23)), [spec.b0] * 23, [1.2] * 23,
                        list(rng.uniform(0.13, 0.17, 23))),
        }[case]
        for got, want in zip(_chain_walk(*args, spec), reference(*args, spec)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [8, 40, 300])
    def test_evaluates_each_kernel_once_per_walk(self, monkeypatch, rng, n):
        calls = []
        real = tritree._kernel_arrays
        monkeypatch.setattr(tritree, "_kernel_arrays",
                            lambda *args: calls.append(args) or real(*args))
        spec = wide_spec(n)
        surf, surf0 = random_surface(rng, spec), random_surface(rng, spec)
        columns = [rng.uniform(0.7, 1.3, (4, 1)) for _ in range(n)]
        for args in (([1.1] * n, [spec.b0] * n, [1.3] * n, [spec.b0] * n),
                     (columns, [spec.b0] * n, [1.2] * n, [spec.b0] * n),
                     (surf.sigma, surf.b, surf0.sigma, surf0.b)):
            calls.clear()
            _chain_walk(*args, spec)
            # both kernels of every level once; scalars and columns in one
            # block, node tables in blocks of _WALK_CELLS elements
            assert sum(len(y) for y, _, _ in calls) == 2 * n
            rows = n if args[0] is not surf.sigma else tritree._WALK_CELLS // (2 * n - 1)
            assert len(calls) == 2 * math.ceil(n / rows)

    @pytest.mark.parametrize("cells", [1, 45 * 4, 45 * 7])
    def test_level_blocks_match_one_block_bit_for_bit(self, monkeypatch, rng, cells):
        # 23 levels of 45 padded nodes in blocks of 1, 4 and 7 levels (the
        # last one ragged), against the whole walk as one block
        spec = wide_spec(23)
        surf, surf0 = random_surface(rng, spec), random_surface(rng, spec)
        columns = [rng.uniform(0.7, 1.3, (3, 1)) for _ in range(23)]
        cases = [(surf.sigma, surf.b, surf0.sigma, surf0.b),
                 (columns, [spec.b0] * 23, surf0.sigma, surf0.b)]
        whole = [_chain_walk(*args, spec) for args in cases]
        monkeypatch.setattr(tritree, "_WALK_CELLS", cells)
        for args, want in zip(cases, whole):
            for got, ref in zip(_chain_walk(*args, spec), want):
                assert got.shape == ref.shape and np.array_equal(got, ref)

    def test_node_table_walk_memory_is_bounded(self, rng):
        # the padded level stacks of all 1000 levels would take about 15 MiB
        # each; a block of levels keeps the walk far below that
        spec = wide_spec(1000)
        surf, surf0 = random_surface(rng, spec), random_surface(rng, spec)
        tracemalloc.start()
        try:
            tree_entropy_chain(surf, surf0, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 << 20

    def test_positivity_names_the_first_failing_level(self):
        # the reference fails at level 2, worst at 0.3; the step kernel fails
        # at level 5 with the smaller 0.29, which a level-by-level walk never
        # reaches. Within one level the step kernel is checked first.
        spec = wide_spec(8)
        sig = [np.full(2 * k + 1, 1.1) for k in range(8)]
        sig0 = [np.full(2 * k + 1, 1.2) for k in range(8)]
        sig0[2] = np.array([1.2, 0.32, 1.2, 0.3, 1.2])
        sig[5] = np.full(11, 0.29)
        drift = tuple(np.full(2 * k + 1, spec.b0) for k in range(8))
        with pytest.raises(ValueError) as failed:
            walk(VolSurface(sigma=tuple(sig), b=drift), VolSurface(sigma=tuple(sig0), b=drift),
                 spec)
        assert str(failed.value) == ("kernel not strictly positive at n=8: weights "
                                     "(0.0245083, 0.9775, -0.00200825) at (y, z)=(0.3, 0.15)")
        sig[2] = np.array([1.1, 1.1, 1.1, 0.31, 1.1])
        with pytest.raises(ValueError) as failed:
            walk(VolSurface(sigma=tuple(sig), b=drift), VolSurface(sigma=tuple(sig0), b=drift),
                 spec)
        assert str(failed.value) == ("kernel not strictly positive at n=8: weights "
                                     "(0.0252708, 0.975975, -0.00124575) at (y, z)=(0.31, 0.15)")


class TestIRate:
    def test_needs_no_positive_reference_kernel(self):
        # the (0.3, 0.15) kernel has a negative down weight at n=8, so the
        # chain rule fails while the rate q(1.1^2, 0.3^2) is defined
        spec = wide_spec(8)
        surf = VolSurface.constant(spec, 1.1, 0.15)
        surf0 = VolSurface.constant(spec, 0.3, 0.15)
        assert I_rate(surf, surf0, spec) == pytest.approx(0.550662900129418, rel=1e-14)
        with pytest.raises(ValueError, match="kernel not strictly positive at n=8"):
            tree_entropy_chain(surf, surf0, spec)

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

    def test_reference_surface_needs_n_levels(self):
        spec = wide_spec(12)
        surf = VolSurface.constant(spec, 1.1, spec.b0)
        short = VolSurface.constant(wide_spec(8), 1.3, spec.b0)
        with pytest.raises(ValueError):
            I_rate(surf, short, spec)
        assert I_rate(surf, short, spec, N=8) == I_rate(surf.truncated(8), short, wide_spec(8))


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


class TestFeasibleSegments:
    def test_runs_at_both_ends_and_inside(self):
        def gap(t):
            return np.where((t <= 0.25) | ((0.45 <= t) & (t <= 0.65)) | (t >= 0.85), 0.0, 1.0)

        segments, best = _feasible_segments(gap, 0.0, 1.0, 0.5, 11)
        assert best == 0.0
        assert [a for a, _ in segments] == pytest.approx([0.0, 0.45, 0.85], abs=1e-15)
        assert [b for _, b in segments] == pytest.approx([0.25, 0.65, 1.0], abs=1e-15)

    def test_no_feasible_point(self):
        assert _feasible_segments(lambda t: t + 1.0, 0.0, 1.0, 0.5, 5) == ([], 1.0)

    def test_stalled_bisection_stops_with_the_full_loops_ends(self):
        # a reference that always takes 60 steps, as the loop did before it
        # stopped at the first step that leaves every end where it was
        def reference(gap_fn, lo, hi, epsilon, n_scan):
            grid = np.linspace(lo, hi, n_scan)
            feasible = np.abs(gap_fn(grid)) <= epsilon
            steps = np.diff(np.concatenate([[0], feasible.astype(int), [0]]))
            first, last = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1) - 1
            t_feas = grid[np.concatenate([first, last])]
            t_infeas = grid[np.concatenate([np.maximum(first - 1, 0),
                                            np.minimum(last + 1, n_scan - 1)])]
            for _ in range(60):
                mid = 0.5 * (t_feas + t_infeas)
                ok = np.abs(gap_fn(mid)) <= epsilon
                t_feas, t_infeas = np.where(ok, mid, t_feas), np.where(ok, t_infeas, mid)
            return list(zip(*np.split(t_feas, 2)))

        calls = []

        def gap(t):
            calls.append(len(t))
            return np.cos(7.0 * t) + 0.2 * t

        segments, _ = _feasible_segments(gap, -1.0, 2.0, 0.3, 50)
        assert len(calls) < 61
        assert len(segments) == 6
        assert segments == reference(gap, -1.0, 2.0, 0.3, 50)


class TestGoldenMin:
    def test_intervals_of_different_widths_in_lockstep(self):
        # the minimum of (t - 0.3)^2 lies inside, at the left end and at the
        # right end of the three intervals, which need different step counts
        calls = []

        def fn(t):
            calls.append(len(t))
            return (t - 0.3) ** 2

        points, values = _golden_min(fn, np.array([0.0, 0.5, -1.0]),
                                     np.array([1.0, 0.9, 0.1]), 1e-8)
        assert points == pytest.approx([0.3, 0.5, 0.1], abs=1e-7)
        assert np.array_equal(values, (points - 0.3) ** 2)
        assert calls[0] == 6 and max(calls[1:]) == 3 and min(calls[1:]) < 3


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

    def test_builds_no_tree_and_only_the_result_surface(self, monkeypatch):
        built = []
        for cls in (TrinomialTree, VolSurface):
            real = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, real=real: built.append(type(self)) or real(self))
        spec = wide_spec(40)
        payoff = normalized_square_payoff(spec, 1.1)
        built.clear()
        result = calibrate(CalibProblem(sigma0=1.2, payoff=payoff, n_pieces=2), spec, 0.01)
        assert built == [VolSurface]
        assert result.sigma_star.levels == 40

    @pytest.mark.parametrize("pieces, walks", [(1, 67), (2, 207)])
    def test_walk_count_at_the_benchmark_size(self, monkeypatch, pieces, walks):
        calls = []
        real = tritree._chain_walk
        monkeypatch.setattr(tritree, "_chain_walk",
                            lambda *args: calls.append(args) or real(*args))
        spec = wide_spec(40)
        payoff = normalized_square_payoff(spec, 1.1)
        calibrate(CalibProblem(sigma0=1.2, payoff=payoff, n_pieces=pieces), spec, 0.01)
        assert len(calls) == walks

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
        # the calibrated slack is the tree's |E[payoff] - 1| bit for bit,
        # so epsilon0 needs no tree of its own
        for n, pieces in [(16, 1), (40, 2), (57, 3)]:
            spec = replace(wide_spec(n), s=0.1)
            payoff = normalized_square_payoff(spec, 1.1)
            result = calibrate(CalibProblem(sigma0=1.2, payoff=payoff, n_pieces=pieces),
                               spec, 0.01)
            tree = build_tree(result.sigma_star, spec)
            assert result.slack == abs(expectation(tree, payoff, n) - 1.0)
            assert epsilon0(result, spec) == result.slack + 1.0 / n

    def test_clipped_at_the_drift_halfwidth(self):
        spec = replace(wide_spec(40), s=0.01)
        result = calibrate(CalibProblem(sigma0=1.2, payoff=normalized_square_payoff(spec, 1.1)),
                           spec, 0.01)
        assert result.slack + 1.0 / 40 > 0.01
        assert epsilon0(result, spec) == 0.01


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
