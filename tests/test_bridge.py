"""Tests for two-marginal entropic fitting on discrete grids."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import entroproj as ep
from entroproj import bounds, bridge

from conftest import line_space, per_trial_types


def gaussian_weights(x, center, var):
    w = np.exp(-((x - center) ** 2) / (2.0 * var))
    return w / w.sum()


def criterion_problem(n=50):
    """Heat-kernel reference on [-2, 2] with offset Gaussian targets."""
    x = np.linspace(-2.0, 2.0, n)
    space = ep.MetricSpacePoints.from_coordinates(x)
    mu0 = ep.FiniteMeasure(space, gaussian_weights(x, 0.0, 1.0))
    base = ep.gaussian_reference(x, 0.5, mu0=mu0)
    nu0 = ep.FiniteMeasure(space, gaussian_weights(x, 0.3, 0.36))
    nu1 = ep.FiniteMeasure(space, gaussian_weights(x, -0.2, 0.49))
    return replace(base, nu0=nu0, nu1=nu1)


def benchmark_problem(t, n=200):
    """The benchmark bridge's reference and targets on an n-point grid."""
    x = np.linspace(-2.0, 2.0, n)
    space = ep.MetricSpacePoints.from_coordinates(x)
    mu0 = ep.FiniteMeasure(space, gaussian_weights(x, 0.0, 1.0))
    base = ep.gaussian_reference(x, t, mu0=mu0)
    nu0 = ep.FiniteMeasure(space, gaussian_weights(x, 0.3, 0.36))
    nu1 = ep.FiniteMeasure(space, gaussian_weights(x, -0.2, 0.49))
    return replace(base, nu0=nu0, nu1=nu1)


def plain_sinkhorn(problem, tol, max_iter):
    """Unrelaxed alternating marginal fitting, gauge-fixed as sinkhorn is:
    (f, g, history)."""
    w0, w1 = problem.mu0.weights, problem.mu1.weights
    a0 = np.divide(problem.nu0.weights, w0, out=np.zeros_like(w0), where=w0 > 0)
    a1 = np.divide(problem.nu1.weights, w1, out=np.zeros_like(w1), where=w1 > 0)
    g = np.ones(len(w1))
    history = []
    den_f = problem.p @ (g * w1)
    for _ in range(max_iter):
        f = np.divide(a0, den_f, out=np.zeros_like(a0), where=den_f > 0)
        den_g = problem.p.T @ (f * w0)
        g = np.divide(a1, den_g, out=np.zeros_like(a1), where=den_g > 0)
        den_f = problem.p @ (g * w1)
        history.append(float(max(
            np.sum(np.abs(f * w0 * den_f - problem.nu0.weights)),
            np.sum(np.abs(g * w1 * den_g - problem.nu1.weights)),
        )))
        if history[-1] <= tol:
            break
    s0, s1 = problem.nu0.weights > 0, problem.nu1.weights > 0
    balance = 0.5 * (float(problem.nu0.weights[s0] @ np.log(f[s0]))
                     - float(problem.nu1.weights[s1] @ np.log(g[s1])))
    return f * math.exp(-balance), g * math.exp(balance), history


# H_direct of benchmark_problem(t) from unrelaxed sweeps run to tol 1e-12
# (222 sweeps at t = 0.05, 1106 at t = 0.01)
PLAIN_H_DIRECT = {
    0.1: 1.3904500018141175,
    0.05: 2.6114340356161794,
    0.02: 6.305862188967087,
    0.01: 12.474293986593398,
}


def reference_entropy_loop(problem, potentials):
    """bridge_entropy's H_direct from fresh tables per block, each block
    compacted by its mask: the oracle the in-place blocks must match bit
    for bit."""
    f, g = potentials.f, potentials.g
    w0, w1 = problem.mu0.weights, problem.mu1.weights
    rows = max(1, bridge._ENTROPY_CELLS // len(w1))
    total = weighted_log = 0.0
    for i in range(0, len(w0), rows):
        block = slice(i, i + rows)
        ref = problem.p[block] * np.outer(w0[block], w1)
        pi = f[block, None] * g[None, :] * ref
        mask = pi > 0
        total += float(pi.sum())
        weighted_log += float(np.sum(pi[mask] * np.log(pi[mask] / ref[mask])))
    return weighted_log / total - math.log(total)


def reference_measure_table(problem, potentials):
    """bridge_measure's weights as one expression over fresh tables."""
    f, g = potentials.f, potentials.g
    w = f[:, None] * g[None, :] * (problem.p * np.outer(problem.mu0.weights, problem.mu1.weights))
    return (w / w.sum()).ravel()


def truncated_problem(n=1000):
    """benchmark_problem(0.05, n) with a first target that vanishes on the
    left third of the grid, so f is 0 there and the blocks of those rows
    hold zero cells, while the others hold none."""
    prob = benchmark_problem(0.05, n)
    nu0 = np.where(np.linspace(-2.0, 2.0, n) > -2.0 / 3.0, prob.nu0.weights, 0.0)
    return replace(prob, nu0=ep.FiniteMeasure(prob.mu0.space, nu0 / nu0.sum()))


@pytest.fixture(scope="module")
def solved_at_1000():
    """(problem, potentials) on 1000 points: the benchmark bridge, its
    truncated twin, and a wide kernel whose H_direct also moves when the
    cells are multiplied in another order (the benchmark's does not)."""
    problems = {"benchmark": benchmark_problem(0.05, 1000), "truncated": truncated_problem(),
                "wide": benchmark_problem(0.5, 1000)}
    return {name: (prob, ep.sinkhorn(prob)) for name, prob in problems.items()}


def two_by_two_problem(nu0_w, nu1_w):
    """Independence reference (p identically 1) with explicit targets."""
    space = ep.MetricSpacePoints.from_coordinates(np.array([0.0, 1.0]))
    mu0 = ep.FiniteMeasure(space, np.array([0.5, 0.5]))
    mu1 = ep.FiniteMeasure(space, np.array([0.4, 0.6]))
    p = np.ones((2, 2))
    nu0 = ep.FiniteMeasure(space, np.asarray(nu0_w, dtype=float))
    nu1 = ep.FiniteMeasure(space, np.asarray(nu1_w, dtype=float))
    return ep.BridgeProblem(mu0=mu0, mu1=mu1, p=p, nu0=nu0, nu1=nu1)


class TestBridgeProblem:
    def test_rejects_broken_conditional_identity(self):
        space = ep.MetricSpacePoints.from_coordinates(np.array([0.0, 1.0]))
        mu = ep.FiniteMeasure(space, np.array([0.5, 0.5]))
        p = np.array([[1.2, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            ep.BridgeProblem(mu0=mu, mu1=mu, p=p, nu0=mu, nu1=mu)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-300])
    def test_rejects_a_nonfinite_or_negative_entry(self, bad):
        # row 1 and column 1 carry no mass, so the marginal identities
        # never read the bad entry; the cell check alone must catch it
        space = ep.MetricSpacePoints.from_coordinates(np.array([0.0, 1.0]))
        mu = ep.FiniteMeasure(space, np.array([1.0, 0.0]))
        p = np.array([[1.0, 1.0], [1.0, bad]])
        with pytest.raises(ValueError, match="finite nonnegative"):
            ep.BridgeProblem(mu0=mu, mu1=mu, p=p, nu0=mu, nu1=mu)

    def test_nan_marginal_defect_is_refused(self):
        # FiniteMeasure refuses NaN weights; one smuggled past it makes the
        # marginal defect NaN, which must fail the tolerance, not pass it
        space = ep.MetricSpacePoints.from_coordinates(np.array([0.0, 1.0]))
        mu = ep.FiniteMeasure(space, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            ep.FiniteMeasure(space, np.array([np.nan, 1.0]))
        smuggled = ep.FiniteMeasure(space, np.array([0.5, 0.5]))
        weights = np.array([np.nan, 0.5])
        weights.setflags(write=False)
        object.__setattr__(smuggled, "weights", weights)
        with pytest.raises(ValueError, match="marginal defect nan"):
            ep.BridgeProblem(mu0=mu, mu1=smuggled, p=np.ones((2, 2)), nu0=mu, nu1=mu)

    def test_rejects_target_outside_reference_support(self):
        space = ep.MetricSpacePoints.from_coordinates(np.array([0.0, 1.0]))
        mu0 = ep.FiniteMeasure(space, np.array([1.0, 0.0]))
        mu1 = ep.FiniteMeasure(space, np.array([0.5, 0.5]))
        p = np.array([[1.0, 1.0], [1.0, 1.0]])
        nu0 = ep.FiniteMeasure(space, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            ep.BridgeProblem(mu0=mu0, mu1=mu1, p=p, nu0=nu0, nu1=mu1)

    def test_reference_joint_is_probability(self):
        prob = criterion_problem(12)
        ref = prob.reference_joint()
        assert ref.sum() == pytest.approx(1.0, abs=1e-12)
        assert ref.min() > 0.0

    def test_joint_space_max_metric(self):
        prob = two_by_two_problem([0.5, 0.5], [0.5, 0.5])
        js = prob.joint_space()
        i = js.index_of((0.0, 1.0))
        j = js.index_of((1.0, 0.0))
        assert js.dist[i, j] == pytest.approx(1.0)

    def test_joint_space_holds_only_its_factors(self):
        # 10**6 point pairs of the 1000-point grid would take about 60 MiB
        x = np.linspace(-2.0, 2.0, 1000)
        prob = ep.gaussian_reference(x, 0.5)
        tracemalloc.start()
        try:
            first, second = prob.joint_space(), prob.joint_space()
            assert len(first) == 10 ** 6
            assert first == second
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_bridge_measure_builds_no_joint_table(self):
        # two Kronecker tables of 3600^2 entries would take about 415 MB
        prob = criterion_problem(60)
        pots = ep.sinkhorn(prob)
        tracemalloc.start()
        try:
            pi = ep.bridge_measure(prob, pots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pi.space) == 3600
        assert peak < 16 * 2 ** 20

    def test_bridge_entropy_builds_no_joint_table(self):
        # one 1000^2 table is 7.6 MiB; the unblocked sum held seven, and
        # fresh temporaries per block 2.5 MiB; two blocks take 0.99 MiB
        prob = benchmark_problem(0.5, n=1000)
        pots = ep.sinkhorn(prob)
        tracemalloc.start()
        try:
            h_direct, h_pot = ep.bridge_entropy(prob, pots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(h_direct - h_pot) <= 10.0 * pots.residual
        assert peak < 1.25 * 2 ** 20

    def test_bridge_measure_holds_one_table(self, solved_at_1000):
        # the tilted joint, 7.6 MiB, which the measure adopts, and a block
        # buffer (8.25 MiB in all); a copy for the measure and a sign mask
        # held 16.7 MiB, a fresh table per product and the quotient 23.8 MiB
        prob, pots = solved_at_1000["benchmark"]
        tracemalloc.start()
        try:
            measure = ep.bridge_measure(prob, pots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2 ** 20
        assert measure.weights.flags.owndata and not measure.weights.flags.writeable

    def test_new_targets_check_p_without_a_table(self):
        # a boolean mask of the 1000^2 table alone would be 0.95 MiB
        prob = benchmark_problem(0.05, n=1000)
        tracemalloc.start()
        try:
            replace(prob, nu0=prob.nu1, nu1=prob.nu0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 2 ** 20

    def test_new_targets_share_the_frozen_reference(self):
        base = ep.gaussian_reference(np.linspace(-1.0, 1.0, 30), 0.3)
        assert not base.p.flags.writeable
        swapped = replace(base, nu0=base.nu1, nu1=base.nu0)
        assert swapped.p is base.p

    def test_caller_table_is_copied(self):
        prob = two_by_two_problem([0.3, 0.7], [0.6, 0.4])
        p = np.ones((2, 2))
        copy = ep.BridgeProblem(mu0=prob.mu0, mu1=prob.mu1, p=p, nu0=prob.nu0, nu1=prob.nu1)
        p[0, 0] = 5.0
        assert copy.p[0, 0] == 1.0
        assert p.flags.writeable


class TestSinkhorn:
    def test_trivial_targets_converge_immediately(self):
        prob = ep.gaussian_reference(np.linspace(-1, 1, 9), 0.7)
        pots = ep.sinkhorn(prob, tol=1e-14)
        assert len(pots.history) == 1
        assert pots.residual < 1e-14
        np.testing.assert_allclose(pots.f, 1.0, atol=1e-12)
        np.testing.assert_allclose(pots.g, 1.0, atol=1e-12)

    def test_decoupled_reference_recovers_density_ratios(self):
        prob = two_by_two_problem([0.3, 0.7], [0.6, 0.4])
        pots = ep.sinkhorn(prob, tol=1e-13)
        # individual potentials are only fixed up to a gauge constant, so
        # compare the products f(u) g(v)
        expect = np.outer(prob.nu0.weights / prob.mu0.weights,
                          prob.nu1.weights / prob.mu1.weights)
        got = np.outer(pots.f, pots.g)
        np.testing.assert_allclose(got, expect, rtol=1e-10)

    def test_gauge_balances_log_means(self):
        prob = criterion_problem(30)
        pots = ep.sinkhorn(prob, tol=1e-12)
        lhs = float(prob.nu0.weights @ np.log(pots.f))
        rhs = float(prob.nu1.weights @ np.log(pots.g))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_criterion_instance_converges_quickly(self):
        prob = criterion_problem(50)
        pots = ep.sinkhorn(prob, tol=1e-11, max_iter=500)
        assert pots.residual < 1e-10
        assert len(pots.history) < 500

    def test_history_nonincreasing(self):
        prob = criterion_problem(40)
        pots = ep.sinkhorn(prob, tol=1e-13)
        h = np.array(pots.history)
        assert np.all(np.diff(h) <= 1e-15)

    def test_nonconverged_run_returns_last_iterate(self):
        prob = criterion_problem(50)
        pots = ep.sinkhorn(prob, tol=1e-15, max_iter=3)
        assert len(pots.history) == 3
        assert pots.residual == pots.history[-1]

    def test_rejects_no_sweeps(self):
        with pytest.raises(ValueError, match="max_iter"):
            ep.sinkhorn(criterion_problem(5), max_iter=0)

    @pytest.mark.parametrize("max_iter", [2.5, math.nan])
    def test_rejects_a_sweep_count_that_is_not_an_integer(self, max_iter):
        # range() used to raise TypeError
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            ep.sinkhorn(criterion_problem(5), max_iter=max_iter)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_rejects_a_tolerance_that_is_not_positive(self, tol):
        # a NaN tol ran every sweep and then divided by zero
        with pytest.raises(ValueError, match="tol must be positive"):
            ep.sinkhorn(criterion_problem(5), tol=tol)

    @pytest.mark.parametrize("t", sorted(PLAIN_H_DIRECT, reverse=True))
    def test_relaxed_sweeps_converge_on_the_benchmark_grid(self, t):
        # unrelaxed, t = 0.01 needs 1106 sweeps and stops at max_iter = 500
        prob = benchmark_problem(t)
        pots = ep.sinkhorn(prob, tol=1e-12, max_iter=500)
        assert pots.residual <= 1e-12
        assert len(pots.history) < 500
        assert pots.relaxed_at == 9
        assert 1.0 < pots.omega < 2.0
        h_direct, h_pot = ep.bridge_entropy(prob, pots)
        assert abs(h_direct - h_pot) <= 10.0 * pots.residual
        assert h_direct == pytest.approx(PLAIN_H_DIRECT[t], rel=1e-10, abs=0.0)

    def test_unrelaxed_run_is_the_plain_iteration(self, monkeypatch):
        prob = benchmark_problem(0.05)
        monkeypatch.setattr(bridge, "_steady_rate", lambda history: None)
        pots = ep.sinkhorn(prob, tol=1e-12, max_iter=500)
        f, g, history = plain_sinkhorn(prob, tol=1e-12, max_iter=500)
        assert pots.history == tuple(history)
        assert len(history) == 222
        np.testing.assert_array_equal(pots.f, f)
        np.testing.assert_array_equal(pots.g, g)
        assert pots.omega == 1.0 and pots.relaxed_at is None

    def test_sweeps_before_the_switch_are_plain(self):
        prob = benchmark_problem(0.05)
        pots = ep.sinkhorn(prob, tol=1e-12, max_iter=8)
        f, g, history = plain_sinkhorn(prob, tol=1e-12, max_iter=8)
        assert pots.history == tuple(history)
        np.testing.assert_array_equal(pots.f, f)
        assert pots.omega == 1.0 and pots.relaxed_at is None

    def test_stalled_relaxation_falls_back_to_plain_sweeps(self, monkeypatch):
        # a rate just below 1 gives omega near 2, where the sweeps oscillate
        prob = benchmark_problem(0.05)
        expect = ep.sinkhorn(prob, tol=1e-12)
        monkeypatch.setattr(bridge, "_steady_rate",
                            lambda history: 1.0 - 1e-12 if len(history) >= 8 else None)
        pots = ep.sinkhorn(prob, tol=1e-12, max_iter=500)
        assert pots.relaxed_at == 9
        assert pots.omega == 1.0
        assert pots.residual <= 1e-12
        assert len(pots.history) < 500
        np.testing.assert_allclose(np.outer(pots.f, pots.g), np.outer(expect.f, expect.g),
                                   rtol=1e-9)

    def test_lagging_relaxation_falls_back_to_plain_sweeps(self, monkeypatch):
        # omega = 1.98 keeps setting new least residuals, but more slowly
        # than the plain rate; without the fallback this run took 899 sweeps
        prob = criterion_problem(50)
        plain = ep.sinkhorn(prob, tol=1e-12)
        monkeypatch.setattr(bridge, "_steady_rate",
                            lambda history: 0.9999 if len(history) >= 8 else None)
        pots = ep.sinkhorn(prob, tol=1e-12, max_iter=1000)
        assert pots.relaxed_at == 9
        assert pots.omega == 1.0
        assert pots.residual <= 1e-12
        assert len(pots.history) < 100
        np.testing.assert_allclose(np.outer(pots.f, pots.g), np.outer(plain.f, plain.g),
                                   rtol=1e-9)

    def test_kernel_underflow_raises_typed(self):
        # at t = 2e-3 the far kernel entries are 0 and the scalings overflow
        with pytest.raises(ValueError, match="kernel underflows"):
            ep.sinkhorn(benchmark_problem(2e-3), max_iter=500)


class TestBridgeMeasure:
    def test_marginals_match_targets_within_residual(self):
        prob = criterion_problem(50)
        pots = ep.sinkhorn(prob, tol=1e-12)
        pi = ep.bridge_measure(prob, pots)
        n = len(prob.mu0.space.points)
        table = pi.weights.reshape(n, n)
        row_tv = np.abs(table.sum(axis=1) - prob.nu0.weights).sum()
        col_tv = np.abs(table.sum(axis=0) - prob.nu1.weights).sum()
        # normalization may add at most another residual of tv error
        assert row_tv <= 3.0 * pots.residual + 1e-15
        assert col_tv <= 3.0 * pots.residual + 1e-15

    def test_decoupled_bridge_is_product_of_targets(self):
        prob = two_by_two_problem([0.3, 0.7], [0.6, 0.4])
        pots = ep.sinkhorn(prob, tol=1e-13)
        pi = ep.bridge_measure(prob, pots)
        expect = np.outer(prob.nu0.weights, prob.nu1.weights).ravel()
        np.testing.assert_allclose(pi.weights, expect, atol=1e-12)


@pytest.mark.parametrize("n, t", [(4, 0.5), (6, 0.2), (10, 0.1)])
def test_bridge_is_the_i_projection_onto_its_marginals(n, t):
    # the static bridge is the I-projection of the reference joint onto the
    # couplings of (nu0, nu1): solve_dual on the n^2 pair atoms, with the
    # row and column indicators (the last of each dropped, as the total mass
    # fixes it) as F and the targets' weights as the point, must give the
    # same coupling and entropy as the potentials
    x = np.linspace(-1.0, 1.0, n)
    space = ep.MetricSpacePoints.from_coordinates(x)
    base = ep.gaussian_reference(x, t, mu0=ep.FiniteMeasure(space, gaussian_weights(x, 0.0, 1.0)))
    prob = replace(base, nu0=ep.FiniteMeasure(space, gaussian_weights(x, 0.3, 0.36)),
                   nu1=ep.FiniteMeasure(space, gaussian_weights(x, -0.2, 0.49)))
    pots = ep.sinkhorn(prob)
    joint = prob.reference_joint().ravel()
    alpha = ep.FiniteMeasure(prob.joint_space(), joint / joint.sum())
    F = np.hstack([np.repeat(np.eye(n), n, axis=0)[:, :-1], np.tile(np.eye(n), (n, 1))[:, :-1]])
    target = ep.Box.point(np.concatenate([prob.nu0.weights[:-1], prob.nu1.weights[:-1]]))
    sol = ep.solve_dual(ep.MomentProblem(alpha, F, target))
    np.testing.assert_allclose(sol.alpha_star.weights, ep.bridge_measure(prob, pots).weights,
                               rtol=0, atol=1e-10)
    assert abs(sol.entropy - ep.bridge_entropy(prob, pots)[1]) <= 1e-12


class TestBridgeEntropy:
    def test_direct_and_potential_forms_agree(self):
        prob = criterion_problem(50)
        pots = ep.sinkhorn(prob, tol=1e-12)
        h_direct, h_pot = ep.bridge_entropy(prob, pots)
        assert h_direct >= 0.0
        assert abs(h_direct - h_pot) <= 10.0 * pots.residual

    @pytest.mark.parametrize("side", ["f", "g"])
    def test_nonfinite_potentials_refused(self, side):
        prob = criterion_problem(10)
        pots = ep.sinkhorn(prob)
        bad = pots.f.copy() if side == "f" else pots.g.copy()
        bad[3] = np.nan
        broken = replace(pots, **{side: bad})
        with pytest.raises(ValueError, match="not finite"):
            ep.bridge_entropy(prob, broken)
        with pytest.raises(ValueError, match="not finite"):
            ep.bridge_measure(prob, broken)

    def test_decoupled_entropy_is_additive(self):
        prob = two_by_two_problem([0.3, 0.7], [0.6, 0.4])
        pots = ep.sinkhorn(prob, tol=1e-13)
        h_direct, _ = ep.bridge_entropy(prob, pots)
        expect = (ep.relative_entropy(prob.nu0, prob.mu0)
                  + ep.relative_entropy(prob.nu1, prob.mu1))
        assert h_direct == pytest.approx(expect, abs=1e-10)

    def test_trivial_targets_have_zero_entropy(self):
        prob = ep.gaussian_reference(np.linspace(-1, 1, 15), 0.4)
        pots = ep.sinkhorn(prob)
        h_direct, h_pot = ep.bridge_entropy(prob, pots)
        assert h_direct == pytest.approx(0.0, abs=1e-12)
        assert h_pot == pytest.approx(0.0, abs=1e-12)

    def test_projection_identity_against_feasible_couplings(self, rng):
        # for any coupling with the same marginals,
        # H(pi | ref) = H(bridge | ref) + H(pi | bridge)
        prob = criterion_problem(8)
        pots = ep.sinkhorn(prob, tol=1e-13)
        pi_star = ep.bridge_measure(prob, pots)
        ref = prob.reference_joint()
        ref_measure = ep.FiniteMeasure(prob.joint_space(), ref.ravel())
        n = len(prob.mu0.space.points)
        base = np.outer(prob.nu0.weights, prob.nu1.weights)
        checked = 0
        while checked < 100:
            # zero row and column sums keep the marginals intact
            z = rng.normal(size=(n, n))
            z -= z.mean(axis=1, keepdims=True)
            z -= z.mean(axis=0, keepdims=True)
            w = base + 0.02 * base.min() * z
            if w.min() <= 0:
                continue
            w /= w.sum()
            pi = ep.FiniteMeasure(prob.joint_space(), w.ravel())
            lhs = ep.relative_entropy(pi, ref_measure)
            rhs = (ep.relative_entropy(pi_star, ref_measure)
                   + ep.relative_entropy(pi, pi_star))
            assert lhs == pytest.approx(rhs, abs=1e-9)
            checked += 1

    def test_entropy_invariant_under_grid_relabeling(self):
        # permuting the u-grid consistently leaves both entropies unchanged
        prob = criterion_problem(7)
        pots = ep.sinkhorn(prob, tol=1e-13)
        h_direct, h_pot = ep.bridge_entropy(prob, pots)

        perm = np.array([3, 0, 6, 1, 5, 2, 4])
        x = np.asarray(prob.mu0.space.points)[perm]
        space_p = ep.MetricSpacePoints.from_coordinates(x)
        mu0_p = ep.FiniteMeasure(space_p, prob.mu0.weights[perm])
        nu0_p = ep.FiniteMeasure(space_p, prob.nu0.weights[perm])
        prob_p = ep.BridgeProblem(mu0=mu0_p, mu1=prob.mu1, p=prob.p[perm],
                                  nu0=nu0_p, nu1=prob.nu1)
        pots_p = ep.sinkhorn(prob_p, tol=1e-13)
        h_direct_p, h_pot_p = ep.bridge_entropy(prob_p, pots_p)
        assert h_direct_p == pytest.approx(h_direct, abs=1e-10)
        assert h_pot_p == pytest.approx(h_pot, abs=1e-10)


class TestInPlaceTables:
    """The in-place tables against fresh-table references, bit for bit."""

    @pytest.mark.parametrize("name", ["benchmark", "truncated", "wide"])
    def test_entropy_matches_the_reference_loop(self, solved_at_1000, name):
        prob, pots = solved_at_1000[name]
        h_direct, h_pot = ep.bridge_entropy(prob, pots)
        assert h_direct == reference_entropy_loop(prob, pots)
        assert abs(h_direct - h_pot) <= 10.0 * pots.residual

    @pytest.mark.parametrize("name", ["benchmark", "truncated"])
    def test_measure_matches_the_reference_table(self, solved_at_1000, name):
        prob, pots = solved_at_1000[name]
        assert np.array_equal(ep.bridge_measure(prob, pots).weights,
                              reference_measure_table(prob, pots))

    def test_truncated_targets_leave_zero_cells(self, solved_at_1000):
        # the compacted path runs: some blocks hold zero cells, some none
        prob, pots = solved_at_1000["truncated"]
        pi = pots.f[:, None] * pots.g[None, :]
        rows = bridge._ENTROPY_CELLS // len(pots.g)
        has_zero = [bool(np.any(pi[i:i + rows] == 0)) for i in range(0, len(pots.f), rows)]
        assert any(has_zero) and not all(has_zero)


class TestGaussianReference:
    def test_conditional_identities_hold_by_construction(self):
        prob = ep.gaussian_reference(np.linspace(-2, 2, 21), 0.5)
        w0, w1 = prob.mu0.weights, prob.mu1.weights
        np.testing.assert_allclose(prob.p @ w1, 1.0, atol=1e-12)
        np.testing.assert_allclose(prob.p.T @ w0, 1.0, atol=1e-12)

    def test_uncharged_second_marginal_leaves_a_zero_column(self):
        # the kernel underflows between the points, so mu1 puts no mass at
        # 50; dividing by it raised RuntimeWarnings and left NaN and inf in p
        x = np.array([-2.0, 50.0])
        mu0 = ep.FiniteMeasure(ep.MetricSpacePoints.from_coordinates(x), np.array([1.0, 0.0]))
        prob = ep.gaussian_reference(x, 0.05, mu0=mu0)
        np.testing.assert_array_equal(prob.mu1.weights, [1.0, 0.0])
        np.testing.assert_array_equal(prob.p, [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="absolutely continuous"):
            replace(prob, nu1=ep.FiniteMeasure(prob.mu1.space, [0.5, 0.5]))
        pots = ep.sinkhorn(prob)
        assert pots.residual == 0.0
        assert ep.bridge_entropy(prob, pots) == (0.0, 0.0)

    def test_symmetric_grid_gives_symmetric_density(self):
        prob = ep.gaussian_reference(np.linspace(-1, 1, 11), 0.3)
        np.testing.assert_allclose(prob.p, prob.p[::-1, ::-1], atol=1e-10)

    def test_long_time_kernel_decouples(self):
        prob = ep.gaussian_reference(np.linspace(-2, 2, 15), 2000.0)
        np.testing.assert_allclose(prob.p, 1.0, atol=1e-2)

    def test_reuses_caller_space(self):
        x = np.linspace(-1, 1, 9)
        space = ep.MetricSpacePoints.from_coordinates(x)
        mu0 = ep.FiniteMeasure(space, gaussian_weights(x, 0.0, 1.0))
        prob = ep.gaussian_reference(x, 0.5, mu0=mu0)
        assert prob.mu0.space is space
        assert prob.mu1.space is space

    def test_rejects_mismatched_mu0(self):
        x = np.linspace(-1, 1, 9)
        other = ep.FiniteMeasure.uniform(line_space(9))
        with pytest.raises(ValueError):
            ep.gaussian_reference(x, 0.5, mu0=other)

    def test_rejects_bad_grid_and_time(self):
        with pytest.raises(ValueError):
            ep.gaussian_reference(np.array([0.0, 0.0, 1.0]), 0.5)
        with pytest.raises(ValueError):
            ep.gaussian_reference(np.linspace(0, 1, 5), 0.0)

    @pytest.mark.parametrize("t", [math.nan, -0.5])
    def test_names_a_kernel_variance_that_is_not_positive(self, t):
        # a NaN t used to fail later, as "weights must be nonnegative numbers"
        with pytest.raises(ValueError, match="kernel variance t must be positive"):
            ep.gaussian_reference(np.linspace(0, 1, 5), t)


class TestMarginalScheduleCheck:
    def test_point_mass_always_inside(self):
        space = line_space(3)
        delta = ep.FiniteMeasure.point_mass(space, 1)
        rows = ep.marginal_schedule_check(delta, "fm", lambda n: 1e-9,
                                          [5, 20], trials=50, seed=1)
        assert all(row["prob"] == 1.0 for row in rows)

    def test_slow_schedule_reaches_one(self):
        nu = ep.FiniteMeasure.uniform(line_space(5))
        rows = ep.marginal_schedule_check(nu, "fm", lambda n: 2.0 / n ** 0.2,
                                          [16, 256, 1024], trials=60, seed=2)
        probs = [row["prob"] for row in rows]
        assert probs[-1] >= probs[0]
        assert probs[-1] >= 0.9

    def test_fast_schedule_stalls(self):
        nu = ep.FiniteMeasure.uniform(line_space(5))
        rows = ep.marginal_schedule_check(nu, "fm", lambda n: 0.2 / n,
                                          [16, 256], trials=60, seed=3)
        probs = [row["prob"] for row in rows]
        assert probs[-1] <= 0.2

    def test_rows_carry_schedule_values(self):
        nu = ep.FiniteMeasure.uniform(line_space(4))
        rows = ep.marginal_schedule_check(nu, "prohorov", lambda n: 1.0 / n,
                                          [8, 32], trials=10, seed=4)
        assert [row["n"] for row in rows] == [8, 32]
        assert rows[0]["epsilon"] == pytest.approx(1.0 / 8.0)

    def test_deterministic_at_fixed_seed(self):
        nu = ep.FiniteMeasure.uniform(line_space(4))
        kw = dict(trials=40, seed=77)
        a = ep.marginal_schedule_check(nu, "fm", lambda n: 0.3, [10, 40], **kw)
        b = ep.marginal_schedule_check(nu, "fm", lambda n: 0.3, [10, 40], **kw)
        assert a == b

    @pytest.mark.parametrize("metric, weights, c, trials", [
        ("fm", [5, 3, 2], 0.6, 300),
        ("prohorov", [5, 3, 2], 0.6, 300),
        ("fm", [0, 1, 2, 3, 4] * 4, 0.25, 100),  # twenty letters, four of them null
    ], ids=["fm", "prohorov", "fm-20"])
    def test_one_distance_per_type_matches_per_trial_loop(self, monkeypatch, metric, weights,
                                                          c, trials):
        w = np.array(weights, dtype=float)
        m = len(w)
        nu = ep.FiniteMeasure(line_space(m), w / w.sum())
        n_list, seed = [4, 9], 8
        eps = lambda n: c / n ** 0.5
        real = getattr(bounds, f"{metric}_distance")
        # per-trial loop over the same stream
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        want, n_types = [], 0
        for n in n_list:
            counts, _ = per_trial_types(gen, nu.weights, n, trials, 0)
            n_types += len(np.unique(counts, axis=0))
            hits = sum(real(ep.FiniteMeasure(nu.space, row / n), nu) <= eps(n)
                       for row in counts)
            want.append({"n": n, "epsilon": eps(n), "prob": hits / trials})

        calls = []
        monkeypatch.setattr(bounds, f"{metric}_distance",
                            lambda *a: calls.append(1) or real(*a))
        rows = ep.marginal_schedule_check(nu, metric, eps, n_list, trials=trials, seed=seed)
        assert 0 < len(calls) <= n_types
        assert rows == want

    @pytest.mark.parametrize("n", [0, 2.5, -1])
    def test_rejects_a_block_length_that_is_not_a_positive_integer(self, n):
        # n = 0 divided 0/0, and n = 2.5 failed on weights summing to 0.8
        nu = ep.FiniteMeasure.uniform(line_space(3))
        with pytest.raises(ValueError, match="block length n must be a positive integer"):
            ep.marginal_schedule_check(nu, "fm", lambda n: 0.3, [4, n], trials=5, seed=0)

    def test_rejects_unknown_metric(self):
        nu = ep.FiniteMeasure.uniform(line_space(4))
        with pytest.raises(ValueError):
            ep.marginal_schedule_check(nu, "tv", lambda n: 0.5, [8],
                                       trials=5, seed=0)

    def test_rejects_negative_epsilon(self):
        nu = ep.FiniteMeasure.uniform(line_space(4))
        for epsilon in (-0.1, math.nan):
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                ep.marginal_schedule_check(nu, "fm", lambda n: epsilon, [8],
                                           trials=5, seed=0)

    def test_rejects_nonpositive_trials(self):
        nu = ep.FiniteMeasure.uniform(line_space(4))
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            ep.marginal_schedule_check(nu, "fm", lambda n: 0.5, [8],
                                       trials=0, seed=0)
