"""Lattice chain construction, entropy evaluation, and calibration checks."""

import math
import tracemalloc
import weakref
from dataclasses import replace
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    I_rate,
    kernel,
    local_entropy,
    min_level_n0,
    path_marginal,
    q_rate,
    tree_entropy_chain,
    tree_entropy_paths,
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

    @pytest.mark.parametrize("key, value", [
        ("alpha_tick", math.inf), ("sigma_max", math.nan), ("b0", math.inf), ("s", math.nan),
    ])
    def test_nonfinite_ranges_rejected(self, key, value):
        ranges = dict(alpha_tick=2.0, sigma_min=0.5, sigma_max=1.5, b0=0.5, s=0.25)
        ranges[key] = value
        with pytest.raises(ValueError, match=f"^ranges must be finite: .*{key}={value!r}"):
            LatticeSpec(n=100, **ranges)

    @pytest.mark.parametrize("ranges", [
        # (alpha_tick (b0 + s) / sigma_min^2)^2 overflows a float
        dict(alpha_tick=1e300, sigma_min=0.6, sigma_max=1.4, b0=0.15, s=0.03),
        # sigma_min^2 underflows to 0
        dict(alpha_tick=2.0, sigma_min=1e-200, sigma_max=1.4, b0=0.15, s=0.03),
        # the ratio itself is infinite
        dict(alpha_tick=1e308, sigma_min=0.6, sigma_max=1.4, b0=10.0, s=0.03),
    ], ids=["squared_ratio", "sigma_min_squared", "ratio"])
    def test_minimal_level_out_of_range_rejected(self, ranges):
        named = ", ".join(f"{key}={value!r}" for key, value in ranges.items())
        with pytest.raises(ValueError) as failed:
            LatticeSpec(n=40, **ranges)
        assert str(failed.value) == ("the minimal level (alpha_tick (b0 + s) / sigma_min^2)^2 "
                                     f"is out of range for {named}")

    @pytest.mark.parametrize("n", [40.5, 40.0, np.float64(40.0), True],
                             ids=["fraction", "float", "numpy_float", "bool"])
    def test_n_must_be_an_integer(self, n):
        # minimal level 1, so that n = True would pass the level check
        with pytest.raises(ValueError, match="^n must be an integer, not "):
            LatticeSpec(n, 2.0, 1.0, 1.4, 0.15, 0.03)
        assert LatticeSpec(np.int64(40), 2.0, 1.0, 1.4, 0.15, 0.03).n == 40

    @pytest.mark.parametrize("level", [2.5, 3.0, np.float64(3.0), True, "3"],
                             ids=["fraction", "float", "numpy_float", "bool", "str"])
    def test_positions_need_an_integer_level(self, level):
        spec = tick_spec(100)
        with pytest.raises(ValueError, match="^level must be an integer, not "):
            spec.positions(level)
        assert np.array_equal(spec.positions(np.int64(3)), spec.positions(3))

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
            # the two moment identities: drift from the tilt, variance from the spread
            assert spec.alpha_tick * math.sqrt(spec.n) * (m - d) == pytest.approx(z, rel=1e-9)
            assert spec.alpha_tick ** 2 * (m + d) == pytest.approx(y ** 2, rel=1e-9)

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
        with pytest.raises(ValueError, match="level out of range"):
            short.truncated(-1)

    @pytest.mark.parametrize("levels", [2.5, 3.0, True, "3"],
                             ids=["fraction", "float", "bool", "str"])
    def test_truncation_needs_an_integer_level(self, levels):
        surf = VolSurface.constant(wide_spec(6), 1.0, 0.15)
        with pytest.raises(ValueError, match="^levels must be an integer, not "):
            surf.truncated(levels)
        assert surf.truncated(np.int64(3)).levels == 3

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
    @pytest.mark.parametrize("level", [2.5, 3.0, True, "3"],
                             ids=["fraction", "float", "bool", "str"])
    def test_level_must_be_an_integer(self, level):
        spec = wide_spec(30)
        tree = build_tree(VolSurface.constant(spec, 1.0, 0.15), spec)
        with pytest.raises(ValueError, match="^level must be an integer, not "):
            expectation(tree, lambda x: x, level)
        assert expectation(tree, lambda x: x, np.int64(3)) == expectation(tree, lambda x: x, 3)

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

    @pytest.mark.parametrize("level", [-1, 31])
    def test_level_out_of_range(self, level):
        spec = wide_spec(30)
        tree = build_tree(VolSurface.constant(spec, 1.0, 0.15), spec)
        with pytest.raises(ValueError, match="level out of range"):
            expectation(tree, lambda x: x, level)


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


def law_and_sums(sigma, b, sigma0, b0, spec):
    """The terminal law by _chain_walk's route, _push_walk's where some
    last level has a node axis and _terminal_law's where none has, then
    _chain_walk's entropy, rate and worst gap."""
    levels = (sigma, b, sigma0, b0)
    if any(np.shape(seq[spec.n - 1])[-1:] not in ((), (1,)) for seq in levels):
        law = tritree._push_walk(spec, *levels)[0]
    else:
        law = tritree._terminal_law(sigma, b, spec)
    return (law, *_chain_walk(*levels, spec))


def walk(surface, surface0, spec):
    return law_and_sums(surface.sigma, surface.b, surface0.sigma, surface0.b, spec)


def assert_walks_agree(got, want):
    """The closed-form route against the push: laws within 2e-14, entropy,
    rate and worst gap within 1e-13 relative, shapes equal."""
    for x, y in zip(got, want):
        assert np.shape(x) == np.shape(y)
    assert np.max(np.abs(got[0] - want[0])) <= 2e-14
    for x, y in zip(got[1:], want[1:]):
        assert_allclose(x, y, rtol=1e-13, atol=0)


# float.hex of node_table_walks(n). A walk's ops are elementwise over nodes,
# so no change in how its levels are grouped may move a bit.
NODE_TABLE_BITS = {
    23: {
        "tree": [
            "0x1.6a489d8fcc55cp-33", "0x1.f7a2c3be582e2p-11", "0x1.3ad46c891741fp-3",
            "0x1.5052ccda6d111p-9", "0x1.39ed62fc49f56p-28",
        ],
        "surfaces": [
            "0x1.6a489d8fcc55cp-33", "0x1.f7a2c3be582e2p-11", "0x1.3ad46c891741fp-3",
            "0x1.5052ccda6d111p-9", "0x1.39ed62fc49f56p-28", "0x1.631903383b9adp+0",
            "0x1.eb4c6f1873ecfp-5", "0x1.1a9cfba023a80p-8",
        ],
        "columns": [
            "0x1.5984125550c90p-37", "0x1.40253a52a04b4p-12", "0x1.5b2cb5d8d87efp-3",
            "0x1.9e9a40d6caa3cp-9", "0x1.74815b799c5f4p-30", "0x1.0799e686f3801p-33",
            "0x1.575691d1344f6p-11", "0x1.41d4d3f98a7e8p-3", "0x1.462a4a57ce8c8p-8",
            "0x1.39c1721036c31p-27", "0x1.06ad514c6b792p+0", "0x1.43cd1c11593f4p+0",
            "0x1.6b8cb36bd8baep-5", "0x1.c02b33eee4623p-5", "0x1.27dfc8f760080p-8",
            "0x1.af3e84b2a5080p-9",
        ],
    },
    300: {
        "tree": [
            "0x1.2dd6e75ae196ep-367", "0x1.11a793cecead8p-98", "0x1.bb8446c136dfcp-5",
            "0x1.55ca24f127b6ap-93", "0x1.feb4c262a89ecp-353",
        ],
        "surfaces": [
            "0x1.2dd6e75ae196ep-367", "0x1.11a793cecead8p-98", "0x1.bb8446c136dfcp-5",
            "0x1.55ca24f127b6ap-93", "0x1.feb4c262a89ecp-353", "0x1.62d235085ebcfp+4",
            "0x1.2eab78cbf71f0p-4", "0x1.1ceedd8711800p-11",
        ],
        "columns": [
            "0x1.462c71dcc9e8ep-373", "0x1.7c5ea9cadec4ap-99", "0x1.6ea68ee218e3ap-5",
            "0x1.6757a932fca80p-94", "0x1.92130bdf02572p-363", "0x1.412afd64729b6p-379",
            "0x1.9180332bad3dap-101", "0x1.72c32ac71e5d9p-5", "0x1.9bc959975f8f1p-96",
            "0x1.da22356a95477p-369", "0x1.15278d89cb4f8p+4", "0x1.0f94e221af00fp+4",
            "0x1.d8d5b7f20c8aep-5", "0x1.cf5495908f7bfp-5", "0x1.be745838d0400p-12",
            "0x1.d42d7b4c74c00p-12",
        ],
    },
}


def node_table_walks(n):
    """build_tree's terminal node law, and _push_walk's law at the same five
    nodes and its sums, on two random surfaces and on (2, 1) columns of
    variances against a surface."""
    spec = wide_spec(n)
    rng = np.random.default_rng(n)
    surf, surf0 = random_surface(rng, spec), random_surface(rng, spec)
    columns = [rng.uniform(0.7, 1.3, (2, 1)) for _ in range(n)]
    nodes = np.linspace(0, 2 * n, 7).astype(int)[1:-1]
    law, *sums = tritree._push_walk(spec, surf.sigma, surf.b, surf0.sigma, surf0.b)
    col_law, *col_sums = tritree._push_walk(spec, columns, [spec.b0] * n, surf0.sigma, surf0.b)
    return {"tree": build_tree(surf, spec).node_prob[n][nodes],
            "surfaces": np.hstack([law[nodes], *sums]),
            "columns": np.hstack([col_law[:, nodes].ravel(), *col_sums])}


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
        law, entropy, rate, gap = law_and_sums(
            [thetas[:, [k]] for k in range(spec.n)], drifts, surf0.sigma, surf0.b, spec)
        assert law.shape == (5, 2 * spec.n + 1) and entropy.shape == (5,)
        for row, theta in enumerate(thetas):
            alone = VolSurface(sigma=tuple(np.full(2 * k + 1, theta[k]) for k in range(spec.n)),
                               b=tuple(np.full(2 * k + 1, drifts[k]) for k in range(spec.n)))
            one = walk(alone, surf0, spec)
            assert np.array_equal(law[row], one[0])
            assert (entropy[row], rate[row], gap[row]) == one[1:]

    @pytest.mark.parametrize("reference", ["scalar", "surface"])
    @pytest.mark.parametrize("width", [1, 2, 7, 30, 64])
    def test_every_column_walks_as_it_would_alone(self, rng, width, reference):
        # calibrate's line searches score points in batches of any width and
        # reuse each value wherever the search asks for that point again
        spec = wide_spec(40)
        columns = [rng.uniform(0.7, 1.3, (width, 1)) for _ in range(spec.n)]
        if reference == "scalar":
            sigma0, b0 = [1.2] * spec.n, [spec.b0] * spec.n
        else:
            surf0 = random_surface(rng, spec, b_lo=spec.b0, b_hi=spec.b0)
            sigma0, b0 = surf0.sigma, surf0.b
        law, entropy, rate, gap = law_and_sums(columns, [spec.b0] * spec.n, sigma0, b0, spec)
        assert law.shape == (width, 2 * spec.n + 1)
        for row in range(width):
            one = law_and_sums([c[row:row + 1] for c in columns], [spec.b0] * spec.n,
                               sigma0, b0, spec)
            assert np.array_equal(law[row], one[0][0])
            assert (entropy[row], rate[row], gap[row]) == (one[1][0], one[2][0], one[3][0])

    @pytest.mark.parametrize("n", [8, 64, 300])
    def test_scalar_levels_match_constant_surfaces_bit_for_bit(self, n):
        # scalars take the closed form and constant surfaces the push, so
        # they agree to the closed form's tolerances; the worst gap, a max
        # of the same level values, is still equal bit for bit
        spec = wide_spec(n)
        surf = VolSurface.constant(spec, 1.1, spec.b0)
        surf0 = VolSurface.constant(spec, 1.3, spec.b0)
        got = law_and_sums(*([v] * n for v in (1.1, spec.b0, 1.3, spec.b0)), spec)
        want = walk(surf, surf0, spec)
        assert_walks_agree(got, want)
        assert got[3] == want[3]
        assert got[2] == pytest.approx(I_rate(surf, surf0, spec), rel=1e-13)

    @pytest.mark.parametrize("shape", ["scalars", "columns"])
    @pytest.mark.parametrize("runs", [1, 2, 3])
    @pytest.mark.parametrize("n", [16, 40, 57, 100, 1000])
    def test_closed_form_matches_the_push(self, rng, n, runs, shape):
        # runs of equal kernels in the step chain and, offset by a third,
        # in the reference
        spec = wide_spec(n)
        width = 3 if n == 1000 else 8
        piece = [min(k * runs // n, runs - 1) for k in range(n)]
        shifted = [min((k + n // 3) % n * runs // n, runs - 1) for k in range(n)]
        sig = rng.uniform(0.7, 1.3, (width, runs))
        if shape == "scalars":
            sig = sig[0]
            sigma = [sig[i] for i in piece]
        else:
            sigma = [sig[:, [i]] for i in piece]
        drift, drift0 = rng.uniform(0.13, 0.17, (2, runs))
        sig0 = rng.uniform(0.9, 1.3, runs)
        args = (sigma, [drift[i] for i in piece], [sig0[i] for i in shifted],
                [drift0[i] for i in shifted])
        # the push walks any input, so it is the closed form's oracle
        assert_walks_agree(law_and_sums(*args, spec), tritree._push_walk(spec, *args))

    @pytest.mark.parametrize("width", [1, 2, 9])
    def test_columns_of_different_runs_walk_as_they_would_alone(self, rng, width):
        # some columns repeat a value across the pieces (one run), others
        # do not: each takes its own runs, whatever its neighbours take
        spec = wide_spec(57)
        pieces = rng.uniform(0.7, 1.3, (width, 3))
        pieces[::2, 1] = pieces[::2, 0]
        pieces[::3, 2] = pieces[::3, 1]
        piece = [min(k * 3 // 57, 2) for k in range(57)]
        rest = ([spec.b0] * 57, [1.2] * 57, [spec.b0] * 57)
        law, *numbers = law_and_sums([pieces[:, [i]] for i in piece], *rest, spec)
        for row in range(width):
            one = law_and_sums([pieces[row:row + 1, [i]] for i in piece], *rest, spec)
            assert np.array_equal(law[row], one[0][0])
            assert [x[row] for x in numbers] == [x[0] for x in one[1:]]

    def test_sums_compute_no_law_without_a_node_axis(self, monkeypatch, rng):
        spec = wide_spec(40)
        columns = [rng.uniform(0.7, 1.3, (5, 1)) for _ in range(40)]
        args = (columns, [spec.b0] * 40, [1.2] * 40, [spec.b0] * 40)
        want = law_and_sums(*args, spec)[1:]
        for name in ("_runs_law", "_push_walk"):
            monkeypatch.setattr(tritree, name, lambda *a: pytest.fail("a law was computed"))
        sums = _chain_walk(*args, spec)
        assert len(sums) == 3
        for got, ref in zip(sums, want):
            assert np.array_equal(got, ref)

    def test_closed_form_law_memory_is_bounded(self, rng):
        # 400 columns of one run of 1000 levels: 4e8 trinomial cells and a
        # 6 MiB law. Blocks of _WALK_CELLS cells, and of columns for the
        # kernels, keep the walk to a few times the law.
        spec = wide_spec(1000)
        columns = [rng.uniform(0.7, 1.3, (400, 1))] * 1000
        tracemalloc.start()
        try:
            law = tritree._terminal_law(columns, [spec.b0] * 1000, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert law.shape == (400, 2001)
        assert peak < 32 << 20

    def test_two_run_law_memory_is_bounded(self, rng):
        # two runs of 500 levels: one row's stack of layers for their
        # convolution would take 16 MB, so it adds slice by slice instead
        spec = wide_spec(1000)
        columns = [rng.uniform(0.7, 1.3, (60, 1))] * 500 + [rng.uniform(0.7, 1.3, (60, 1))] * 500
        tracemalloc.start()
        try:
            law = tritree._terminal_law(columns, [spec.b0] * 1000, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert law.shape == (60, 2001)
        assert peak < 16 << 20

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
        got, want = law_and_sums(*args, spec), reference(*args, spec)
        if case == "scalars":
            # no node axis: level sums and the closed-form law
            assert_walks_agree(got, want)
        else:
            for x, y in zip(got, want):
                assert x.shape == y.shape and np.array_equal(x, y)

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
            # both kernels of every level once: scalars and columns in one
            # block, node tables one level per call
            assert sum(len(y) for y, _, _ in calls) == 2 * n
            assert len(calls) == (2 if args[0] is not surf.sigma else 2 * n)

    @pytest.mark.parametrize("n", [23, 300])
    def test_node_table_walks_keep_their_bits(self, n):
        for name, got in node_table_walks(n).items():
            want = [float.fromhex(x) for x in NODE_TABLE_BITS[n][name]]
            assert np.array_equal(got, want), name

    def test_node_table_walk_memory_is_bounded(self, rng):
        # one level of 2n + 1 nodes at a time: about 0.3 MiB at n = 1000
        spec = wide_spec(1000)
        surf, surf0 = random_surface(rng, spec), random_surface(rng, spec)
        tracemalloc.start()
        try:
            tree_entropy_chain(surf, surf0, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

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


def dense_trinomial_law(s, m, r, d):
    """_trinomial_law as one dense block: every cell (t, j) of every offset
    exponentiated, those with w < 0 at -inf, and summed over t in order."""
    i = np.arange(s)
    binom = tritree._compensated_cumsum(np.concatenate([[0.0], np.log((s - i) / (i + 1.0))]))
    j = np.arange(-s, s + 1)
    t = np.arange(s // 2 + 1)[:, None]
    u, v, w = t + np.maximum(j, 0), t + np.maximum(-j, 0), s - np.abs(j) - 2 * t
    ratios = np.log(np.maximum(w * (w - 1.0), 1.0) / ((u + 1.0) * (v + 1.0)))
    coef = tritree._compensated_cumsum(np.concatenate([binom[np.abs(j)][None], ratios[:-1]]))
    coef[w < 0] = -np.inf
    stay, up, down = s * np.log(r), np.log(m / r), np.log(d / r)
    terms = coef + (stay[:, None] + np.maximum(j, 0) * up[:, None]
                    + np.maximum(-j, 0) * down[:, None])[:, None, :]
    terms += t * (up + down)[:, None, None]
    return np.exp(terms).sum(axis=1)


def looped_convolve(a, b):
    """_convolve as one slice update per entry of the shorter law."""
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + b.shape[-1] - 1,))
    for i in range(b.shape[-1]):
        out[..., i:i + a.shape[-1]] += a * b[..., i:i + 1]
    return out


def kernels_of(sigmas, spec, b=0.15):
    return tritree._kernel_arrays(np.asarray(sigmas, dtype=float), np.full(len(sigmas), b), spec)


class TestLawKernels:
    """The closed-form law's kernels against their dense and looped forms,
    bit for bit."""

    @pytest.mark.parametrize("s", [1, 2, 5, 20, 40, 41, 400])
    def test_trinomial_law_matches_every_cell_summed_in_order(self, rng, s):
        # at s = 400 the 0.7 kernel's far offsets underflow to exactly 0,
        # and the law runs in three blocks of offsets and in blocks of one column
        spec = wide_spec(400)
        m, r, d = kernels_of([0.7, 1.39] + list(rng.uniform(0.6, 1.4, 3 if s >= 400 else 30)),
                             spec)
        law = tritree._trinomial_law(s, m, r, d)
        assert np.array_equal(law, dense_trinomial_law(s, m, r, d))
        assert np.any(law[0] == 0.0) == (s >= 400)

    @pytest.mark.parametrize("cells", [1, 60, 700])
    def test_trinomial_law_blocks_keep_the_bits(self, monkeypatch, rng, cells):
        spec = wide_spec(41)
        m, r, d = kernels_of(rng.uniform(0.6, 1.4, 9), spec)
        monkeypatch.setattr(tritree, "_WALK_CELLS", cells)
        assert np.array_equal(tritree._trinomial_law(41, m, r, d),
                              dense_trinomial_law(41, m, r, d))

    @pytest.mark.parametrize("width", [1, 2, 30])
    def test_shared_runs_keep_the_bits_of_the_per_column_law(self, monkeypatch, rng, width):
        # three runs of 20 levels; the middle one differs between columns,
        # so only it needs a law per column, as every run did before
        spec = wide_spec(60)
        sigma = np.repeat(np.stack([np.full(width, 1.1), rng.uniform(0.7, 1.3, width),
                                    np.full(width, 0.9)]), 20, axis=0)
        m, r, d = tritree._kernel_arrays(sigma, np.full(sigma.shape, spec.b0), spec)
        want = None
        for run in (slice(0, 20), slice(20, 40), slice(40, 60)):
            part = tritree._trinomial_law(20, m[run.start], r[run.start], d[run.start])
            want = part if want is None else tritree._convolve(want, part)
        widths, law_of = [], tritree._trinomial_law
        monkeypatch.setattr(tritree, "_trinomial_law",
                            lambda s, m, r, d: widths.append(len(m)) or law_of(s, m, r, d))
        law = tritree._runs_law(m, r, d)
        assert widths == [1, width, 1]
        assert law.shape == (width, 121)
        assert law.tobytes() == want.tobytes()

    def test_cell_tables_are_read_only_and_few(self):
        cells = tritree._trinomial_cells(40, 0, 81)
        assert not any(a.flags.writeable for a in cells)
        table = weakref.ref(cells[2])
        del cells
        # 16 blocks of offsets at s = 1000 go through a cache of 4
        tritree._trinomial_law(1000, *kernels_of([1.1], wide_spec(1000)))
        assert tritree._trinomial_cells.cache_info().currsize <= 4
        assert table() is None

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 60),
           st.lists(st.tuples(st.floats(0.01, 0.45), st.floats(0.01, 0.45)),
                    min_size=1, max_size=4))
    def test_any_kernel_triples_match_the_dense_law(self, s, pairs):
        m, d = (np.array(x) for x in zip(*pairs))
        r = 1.0 - (m + d)
        law = tritree._trinomial_law(s, m, r, d)
        assert np.array_equal(law, dense_trinomial_law(s, m, r, d))
        half = law[:, :s + 1]
        assert np.array_equal(tritree._convolve(law, half), looped_convolve(law, half))

    @pytest.mark.parametrize("sizes", [(41, 41, 30), (81, 3, 5), (1, 7, 2), (201, 101, 4),
                                       (1, 1, 3)])
    @pytest.mark.parametrize("cells", [1, 101 * 301, 1 << 16])
    def test_convolve_matches_the_slice_loop(self, monkeypatch, rng, sizes, cells):
        la, lb, rows = sizes
        a, b = rng.random((rows, la)), rng.random((rows, lb))
        monkeypatch.setattr(tritree, "_WALK_CELLS", cells)
        for x, y in ((a, b), (b, a)):
            assert np.array_equal(tritree._convolve(x, y), looped_convolve(x, y))

    @pytest.mark.parametrize("shape", ["scalars", "columns"])
    @pytest.mark.parametrize("runs", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 40, 57, 300])
    def test_law_walk_is_the_runs_law_of_its_kernels(self, rng, n, runs, shape):
        # the blocked walk against _runs_law of every chain's kernels in one
        # (levels, chains) stack, bit for bit; a surface reference pushes
        # the same chain's law, equal within the closed form's tolerance
        spec = wide_spec(n)
        piece = [min(k * runs // n, runs - 1) for k in range(n)]
        sig = rng.uniform(0.7, 1.3, (6, runs))
        sig[::2, -1] = sig[::2, 0]
        sigma = [sig[0, i] for i in piece] if shape == "scalars" else [sig[:, [i]] for i in piece]
        b = list(rng.uniform(0.13, 0.17, n))
        law = tritree._terminal_law(sigma, b, spec)
        step = tritree._kernel_arrays(np.array(sigma).reshape(n, -1), np.array(b)[:, None], spec)
        want = tritree._runs_law(*np.broadcast_arrays(*step))
        assert np.array_equal(law, want if shape == "columns" else want[0])
        surf0 = random_surface(rng, spec)
        assert_walks_agree((law,), (tritree._push_walk(spec, sigma, b, surf0.sigma, surf0.b)[0],))

    def test_law_walk_takes_no_node_tables(self, rng):
        spec = wide_spec(8)
        surf = random_surface(rng, spec)
        with pytest.raises(ValueError, match="not node tables"):
            tritree._terminal_law(surf.sigma, surf.b, spec)


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

    @pytest.mark.parametrize("N", [30.5, 40.0, np.float64(40.0), True],
                             ids=["fraction", "float", "numpy_float", "bool"])
    def test_N_must_be_an_integer(self, N):
        # minimal level 1, so that N = True would pass the range check
        spec = LatticeSpec(100, 2.0, 1.0, 1.4, 0.15, 0.03)
        surf = VolSurface.constant(spec, 1.1, spec.b0)
        with pytest.raises(ValueError, match="must be an integer"):
            I_rate(surf, surf, spec, N=N)

    def test_reference_surface_needs_n_levels(self):
        spec = wide_spec(12)
        surf = VolSurface.constant(spec, 1.1, spec.b0)
        short = VolSurface.constant(wide_spec(8), 1.3, spec.b0)
        with pytest.raises(ValueError):
            I_rate(surf, short, spec)
        assert I_rate(surf, short, spec, N=8) == I_rate(surf.truncated(8), short, wide_spec(8))


def normalized_square_payoff(spec, sigma_value):
    """x -> x^2 scaled so its mean is 1 under the constant sigma_value tree."""
    tree = build_tree(VolSurface.constant(spec, sigma_value, spec.b0), spec)
    c = expectation(tree, lambda x: x * x, spec.n)
    return lambda x: x * x / c


# theta* and the moment that calibrate found when every walk pushed the node
# law level by level, as (n, pieces, theta, moment); payoff as in
# normalized_square_payoff(spec, 1.1), sigma0 = 1.2, epsilon = 0.01
PUSH_WALK_PINS = [
    (16, 1, [1.1055817190511064], 1.0099999999999978),
    (16, 2, [1.1055817190511084, 1.105581719051106], 1.0099999999999991),
    (16, 3, [1.105581719051109, 1.1055817190511055, 1.105581719051106], 1.0099999999999993),
    (40, 1, [1.1055855349089916], 1.009999999999999),
    (40, 2, [1.1055855349089925, 1.1055855349089945], 1.0099999999999998),
    (40, 3, [1.105585534908994, 1.1055855349089925, 1.1055855349089925], 1.0099999999999993),
    (57, 1, [1.10558629361601], 1.0099999999999993),
    (57, 2, [1.10558629361601, 1.10558629361601], 1.0099999999999993),
    (57, 3, [1.10558629361601, 1.10558629361601, 1.10558629361601], 1.0099999999999993),
    (100, 1, [1.1055870612484604], 1.0099999999999945),
    (100, 2, [1.1055870612484648, 1.1055870612484604], 1.0099999999999985),
    (100, 3, [1.105587061248466, 1.1055870612484604, 1.1055870612484604], 1.0099999999999998),
]


def sequential_segments(gap_fn, lo, hi, epsilon, n_scan):
    """_feasible_segments as one gap_fn call per bisection step, for all 60
    steps, as the loop ran before it stopped at the first step that leaves
    every end where it was and before it scored steps ahead; and the number
    of steps before that first step."""
    grid = np.linspace(lo, hi, n_scan)
    feasible = np.abs(gap_fn(grid)) <= epsilon
    steps = np.diff(np.concatenate([[0], feasible.astype(int), [0]]))
    first, last = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1) - 1
    t_feas = grid[np.concatenate([first, last])]
    t_infeas = grid[np.concatenate([np.maximum(first - 1, 0),
                                    np.minimum(last + 1, n_scan - 1)])]
    moving = 60
    for step in range(60):
        mid = 0.5 * (t_feas + t_infeas)
        if np.all((mid == t_feas) | (mid == t_infeas)):
            moving = min(moving, step)
        ok = np.abs(gap_fn(mid)) <= epsilon
        t_feas, t_infeas = np.where(ok, mid, t_feas), np.where(ok, t_infeas, mid)
    return list(zip(*np.split(t_feas, 2))), moving


def sequential_golden_min(fn, lo, hi, tol):
    """_golden_min as one fn call per golden-section step: the first call
    scores the inner points and the ends, and an end lower than the
    golden-section point is the minimizer."""
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    ends = np.concatenate([lo, hi])
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc, fd, f_ends = np.split(fn(np.concatenate([c, d, ends])), [len(lo), 2 * len(lo)])
    while np.any(live := hi - lo > tol):
        left, right = live & (fc < fd), live & ~(fc < fd)
        hi[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = hi[left] - gr * (hi[left] - lo[left])
        lo[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = lo[right] + gr * (hi[right] - lo[right])
        f = fn(np.where(left, c, d)[live])
        fc[left], fd[right] = f[left[live]], f[right[live]]
    points, values = np.where(fc <= fd, c, d), np.where(fc <= fd, fc, fd)
    for end, f_end in zip(np.split(ends, 2), np.split(f_ends, 2)):
        lower = f_end < values
        points, values = np.where(lower, end, points), np.where(lower, f_end, values)
    return points, values


def counted(fn):
    """fn, recording the number of points of every call in .calls."""
    def wrapped(t):
        wrapped.calls.append(len(t))
        return fn(t)
    wrapped.calls = []
    return wrapped


def seeded_gap(seed):
    """A gap on [-1, 2] with several feasible runs; at even seeds a whole
    number of half-periods spans the interval, so runs touch both edges."""
    g = np.random.default_rng(seed)
    freq = math.pi * int(g.integers(3, 9)) / 3.0
    phase = 0.0 if seed % 2 == 0 else g.uniform(0.0, math.pi)
    wobble, shift = g.uniform(1.0, 9.0), g.uniform(0.0, math.pi)
    return (lambda t: np.sin(freq * (t + 1.0) + phase) * (1.0 + 0.5 * np.cos(wobble * t + shift)),
            float(g.uniform(0.05, 0.5)), int(g.integers(20, 80)))


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
        def fn(t):
            return np.cos(7.0 * t) + 0.2 * t

        gap = counted(fn)
        segments, _ = _feasible_segments(gap, -1.0, 2.0, 0.3, 50)
        want, steps = sequential_segments(fn, -1.0, 2.0, 0.3, 50)
        assert len(segments) == 6
        assert segments == want
        # every end stalls before the cap, and no call follows
        assert steps < 60 and len(gap.calls) == 1 + math.ceil(steps / 4)

    @pytest.mark.parametrize("seed", range(8))
    def test_look_ahead_moves_the_ends_as_one_call_per_step(self, seed):
        fn, epsilon, n_scan = seeded_gap(seed)
        gap = counted(fn)
        segments, _ = _feasible_segments(gap, -1.0, 2.0, epsilon, n_scan)
        want, steps = sequential_segments(fn, -1.0, 2.0, epsilon, n_scan)
        assert len(segments) >= 2
        if seed % 2 == 0:
            assert segments[0][0] == -1.0 and segments[-1][1] == 2.0
        assert segments == want
        # the scan, then one call per four steps, each of at most 15 dyadic
        # points per end
        assert len(gap.calls) == 1 + math.ceil(steps / 4)
        assert max(gap.calls[1:]) <= 15 * 2 * len(segments)

    @pytest.mark.parametrize("fn, segment", [
        (lambda t: t, (0.0, 0.0)),
        # the feasible end moves at every step, down to 2**-60
        (lambda t: np.minimum(t - 2e-200, 0.0), (2.0 ** -60, 1.0)),
    ], ids=["still_feasible_end", "moving_feasible_end"])
    def test_the_60_step_cap_binds(self, fn, segment):
        # with epsilon = 1e-200 no end stalls within 60 halvings of [-1, 1]
        gap = counted(fn)
        segments, _ = _feasible_segments(gap, -1.0, 1.0, 1e-200, 3)
        assert segments == [segment]
        assert sequential_segments(fn, -1.0, 1.0, 1e-200, 3) == (segments, 60)
        assert len(gap.calls) == 1 + 60 // 4


class TestGoldenMin:
    def test_intervals_of_different_widths_in_lockstep(self):
        # the minimum of (t - 0.3)^2 lies inside, at the left end and at the
        # right end of the three intervals, which need different step counts
        fn = counted(lambda t: (t - 0.3) ** 2)
        lo, hi = np.array([0.0, 0.5, -1.0]), np.array([1.0, 0.9, 0.1])
        points, values = _golden_min(fn, lo, hi, 1e-8)
        assert points == pytest.approx([0.3, 0.5, 0.1], abs=1e-7)
        assert np.array_equal(values, (points - 0.3) ** 2)
        reference = counted(lambda t: (t - 0.3) ** 2)
        for got, want in zip((points, values), sequential_golden_min(reference, lo, hi, 1e-8)):
            assert np.array_equal(got, want)
        # the inner points and the ends, then one call per three steps of
        # at most 7 points per interval
        steps = len(reference.calls) - 1
        assert fn.calls[0] == 4 * 3
        assert len(fn.calls) == 1 + math.ceil(steps / 3)
        assert max(fn.calls[1:]) <= 7 * 3

    @pytest.mark.parametrize("seed", range(6))
    def test_multimodal_functions_decide_as_one_call_per_step(self, seed):
        # several local minima, so decision paths go both ways; one interval
        # is a single point, which takes no step
        g = np.random.default_rng(seed)
        a, b, c = g.uniform(3.0, 12.0), g.uniform(0.0, 3.0), g.uniform(0.0, 0.5)

        def f(t):
            return np.sin(a * t + b) + c * t * t

        lo = np.sort(g.uniform(-2.0, 2.0, (5, 2)), axis=1)
        lo[0, 1] = lo[0, 0]
        fn, reference = counted(f), counted(f)
        got = _golden_min(fn, lo[:, 0], lo[:, 1], 1e-9)
        want = sequential_golden_min(reference, lo[:, 0], lo[:, 1], 1e-9)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
        assert len(fn.calls) == 1 + math.ceil((len(reference.calls) - 1) / 3)
        assert max(fn.calls[1:]) <= 7 * 4


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

    @pytest.mark.parametrize("pieces, walks, laws", [(1, 21, 13), (2, 65, 39)])
    def test_walk_count_at_the_benchmark_size(self, monkeypatch, pieces, walks, laws):
        # the golden section reads level sums only; the scan, the bisection
        # and the last walk of theta read laws alone, and evaluate no KL or
        # rate q against the reference
        calls = {name: [] for name in ("_chain_walk", "_terminal_law", "_runs_law", "_kl", "_q")}
        for name, seen in calls.items():
            real = getattr(tritree, name)
            monkeypatch.setattr(tritree, name, lambda *args, real=real, seen=seen, **kwargs:
                                seen.append(kwargs) or real(*args, **kwargs))
        spec = wide_spec(40)
        payoff = normalized_square_payoff(spec, 1.1)
        calibrate(CalibProblem(sigma0=1.2, payoff=payoff, n_pieces=pieces), spec, 0.01)
        assert calls["_chain_walk"] == [{}] * (walks - laws)
        assert len(calls["_terminal_law"]) == len(calls["_runs_law"]) == laws
        assert len(calls["_kl"]) == len(calls["_q"]) == walks - laws

    @pytest.mark.parametrize("n, pieces, theta, moment", PUSH_WALK_PINS,
                             ids=[f"{n}-{pieces}" for n, pieces, *_ in PUSH_WALK_PINS])
    def test_matches_the_push_walks_pins(self, n, pieces, theta, moment):
        spec = wide_spec(n)
        payoff = normalized_square_payoff(spec, 1.1)
        result = calibrate(CalibProblem(sigma0=1.2, payoff=payoff, n_pieces=pieces), spec, 0.01)
        assert_allclose(result.theta_star, theta, rtol=0, atol=1e-12)
        assert result.moment == pytest.approx(moment, rel=0, abs=1e-12)
        # the entropy the search found is the level sums of theta* itself
        columns = [result.theta_star[None, [i]] for i in range(pieces)]
        block = [min(k * pieces // n, pieces - 1) for k in range(n)]
        walked = _chain_walk([columns[i] for i in block], [spec.b0] * n,
                             [1.2] * n, [spec.b0] * n, spec)
        assert result.entropy == walked[0][0]

    @pytest.mark.parametrize("sigma0, message", [
        ("short", "sigma0 has 10 levels, spec needs 40"),
        (0.1, "kernel not strictly positive"),
    ], ids=["short", "not_positive"])
    def test_checks_the_reference_before_the_search(self, sigma0, message):
        # the scan walks no reference, and no scan point is feasible here
        spec = wide_spec(40)
        if sigma0 == "short":
            sigma0 = VolSurface.constant(spec, 1.3, spec.b0).truncated(10)
        problem = CalibProblem(sigma0=sigma0, payoff=lambda x: x * x / 10.0)
        with pytest.raises(ValueError, match=message):
            calibrate(problem, spec, 0.01)

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
        # a piece beyond the n levels would own none and report the scan's end
        with pytest.raises(ValueError, match="n_pieces=21 exceeds n=20"):
            calibrate(CalibProblem(sigma0=1.0, payoff=lambda x: x, n_pieces=21), spec, 0.01)
        with pytest.raises(ValueError, match="payoff must be callable"):
            CalibProblem(sigma0=1.0, payoff=3.0)


class TestEpsilonZero:
    def test_slack_plus_resolution(self):
        # the calibrated slack is the tree's |E[payoff] - 1|, so epsilon0
        # needs no tree of its own
        for n, pieces in [(16, 1), (40, 2), (57, 3)]:
            spec = replace(wide_spec(n), s=0.1)
            payoff = normalized_square_payoff(spec, 1.1)
            result = calibrate(CalibProblem(sigma0=1.2, payoff=payoff, n_pieces=pieces),
                               spec, 0.01)
            tree = build_tree(result.sigma_star, spec)
            # the closed-form law against the tree's push
            assert result.slack == pytest.approx(abs(expectation(tree, payoff, n) - 1.0),
                                                 rel=0, abs=1e-12)
            assert epsilon0(result, spec) == result.slack + 1.0 / n

    def test_clipped_at_the_drift_halfwidth(self):
        spec = replace(wide_spec(40), s=0.01)
        result = calibrate(CalibProblem(sigma0=1.2, payoff=normalized_square_payoff(spec, 1.1)),
                           spec, 0.01)
        assert result.slack + 1.0 / 40 > 0.01
        assert epsilon0(result, spec) == 0.01


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
