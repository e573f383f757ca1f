"""Tests for the moment-constrained projection solver and tail schedules."""

import math

import numpy as np
import pytest
from scipy.linalg import null_space

import entroproj as ep
from entroproj import iproj

from conftest import bernoulli, line_space, random_measure

# log(7/3): the tilt moving Bernoulli(0.5) onto mean 0.7.
LAMBDA_BERN = 0.8472978603872036
# 0.7*log(0.7/0.5) + 0.3*log(0.3/0.5)
KL_07_05 = 0.08228287850505185


def bern_problem(x0=0.7):
    alpha = bernoulli(0.5)
    F = np.array([[0.0], [1.0]])
    return ep.MomentProblem(alpha, F, ep.Box.point(np.array([x0])))


def random_problem(rng, n_points=5, d=1, target="point"):
    space = line_space(n_points, -1.0, 1.0)
    alpha = random_measure(rng, space, floor=5e-3)
    F = rng.normal(size=(n_points, d))
    mean = alpha.weights @ F
    # a convex combination of moment values pulled toward the mean stays
    # strictly inside the attainable hull
    vertex_mix = rng.dirichlet(np.ones(n_points)) @ F
    x0 = 0.4 * mean + 0.6 * vertex_mix
    if target == "point":
        return ep.MomentProblem(alpha, F, ep.Box.point(x0))
    half = rng.uniform(0.01, 0.2, size=d)
    return ep.MomentProblem(alpha, F, ep.Box(x0 - half, x0 + half))


class TestTargets:
    def test_point_exposes_degenerate_box(self):
        pt = ep.Box.point(np.array([0.3]))
        np.testing.assert_array_equal(pt.lo, pt.hi)

    def test_box_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            ep.Box(np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("make", [lambda: ep.Box.point([math.nan]),
                                      lambda: ep.Box([math.nan], [1.0]),
                                      lambda: ep.Box([0.5], [math.inf])])
    def test_targets_reject_non_finite_entries(self, make):
        with pytest.raises(ValueError, match="target must be finite"):
            make()


class TestLogLaplace:
    def test_zero_at_origin(self, rng):
        prob = random_problem(rng)
        val, grad, hess = ep.log_laplace(prob, np.zeros(1))
        assert val == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(grad, prob.alpha.weights @ prob.F, atol=1e-12)

    def test_gradient_matches_central_differences(self, rng):
        for _ in range(10):
            prob = random_problem(rng, d=2)
            lam = rng.normal(size=2)
            _, grad, _ = ep.log_laplace(prob, lam)
            h = 1e-5
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                vp, _, _ = ep.log_laplace(prob, lam + e)
                vm, _, _ = ep.log_laplace(prob, lam - e)
                fd = (vp - vm) / (2.0 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_hessian_is_tilted_covariance(self, rng):
        prob = random_problem(rng, d=2)
        lam = rng.normal(size=2) * 0.5
        _, _, hess = ep.log_laplace(prob, lam)
        tilted = ep.tilt(prob.alpha, prob.F, lam)
        c = prob.F - tilted.weights @ prob.F
        cov = (c * tilted.weights[:, None]).T @ c
        np.testing.assert_allclose(hess, cov, atol=1e-12)
        eigs = np.linalg.eigvalsh(hess)
        assert eigs.min() >= -1e-12


class TestTilt:
    def test_bernoulli_closed_form(self):
        alpha = bernoulli(0.5)
        F = np.array([[0.0], [1.0]])
        tilted = ep.tilt(alpha, F, np.array([LAMBDA_BERN]))
        np.testing.assert_allclose(tilted.weights, [0.3, 0.7], atol=1e-12)

    def test_zero_tilt_is_identity(self, rng):
        prob = random_problem(rng)
        tilted = ep.tilt(prob.alpha, prob.F, np.zeros(1))
        np.testing.assert_allclose(tilted.weights, prob.alpha.weights, atol=1e-15)

    def test_massless_atom_does_not_set_the_scale(self):
        # the massless atom scores 999 above the others, past exp's range
        alpha = ep.FiniteMeasure(line_space(3), np.array([0.5, 0.5, 0.0]))
        tilted = ep.tilt(alpha, np.array([0.0, 1.0, 1000.0]), np.array([1.0]))
        np.testing.assert_allclose(tilted.weights, [1 / (1 + math.e), 1 / (1 + 1 / math.e), 0.0])


class TestSolveDualPoint:
    def test_bernoulli_multiplier_and_entropy(self):
        sol = ep.solve_dual(bern_problem())
        assert sol.lambda_star[0] == pytest.approx(LAMBDA_BERN, abs=1e-10)
        assert sol.entropy == pytest.approx(KL_07_05, abs=1e-10)
        assert sol.moment[0] == pytest.approx(0.7, abs=1e-8)
        np.testing.assert_allclose(sol.alpha_star.weights, [0.3, 0.7], atol=1e-8)

    def test_bernoulli_tilted_statistics(self):
        sol = ep.solve_dual(bern_problem())
        # Var(X) and E|X - 0.7|^3 under Bernoulli(0.7)
        assert sol.variance == pytest.approx(0.21, abs=1e-8)
        assert sol.third_abs_moment == pytest.approx(
            0.7 * 0.3 ** 3 + 0.3 * 0.7 ** 3, abs=1e-8
        )

    @pytest.mark.parametrize("target, rel", [
        (ep.Box.point([1 - 1e-9]), 1e-6), (ep.Box.point([1e-9]), 1e-6),
        (ep.Box([1 - 1e-9], [1.0]), 1e-6),
        # the gradient's rounding (about 2e-15 here) over the variance 1e-12
        # bounds what any stopping rule can reach; the decrement stalls there
        (ep.Box.point([1 - 1e-12]), 1e-3)])
    def test_near_vertex_multiplier(self, target, rel):
        # at 1e-9 from a vertex the variance is about 1e-9, so a subgradient
        # of 1e-10 alone leaves lambda three digits short of log(x0 / (1 - x0))
        x0 = target.lo[0]
        sol = ep.solve_dual(ep.MomentProblem(bernoulli(0.5), np.array([0.0, 1.0]), target))
        assert sol.lambda_star[0] == pytest.approx(math.log(x0 / (1 - x0)), rel=rel)

    def test_entropy_equals_primal_divergence(self, rng):
        for _ in range(10):
            prob = random_problem(rng)
            sol = ep.solve_dual(prob)
            assert sol.entropy == pytest.approx(
                ep.relative_entropy(sol.alpha_star, prob.alpha), abs=1e-9
            )

    def test_moment_constraint_met(self, rng):
        for _ in range(10):
            prob = random_problem(rng, d=2)
            sol = ep.solve_dual(prob)
            np.testing.assert_allclose(sol.moment, prob.target.lo, atol=1e-7)

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            prob = random_problem(rng, n_points=3)
            sol = ep.solve_dual(prob)
            bf_measure, bf_entropy = ep.brute_force_projection(prob, grid_step=1e-3)
            # the scan accepts moments within grid_step * spread(F) of the
            # target, so it may undercut the exact optimum by about
            # |lambda| * grid_step * spread(F)
            slack = (1.0 + np.abs(sol.lambda_star) @ np.ptp(prob.F, axis=0)) * 1e-3
            assert sol.entropy == pytest.approx(bf_entropy, abs=slack)
            np.testing.assert_allclose(
                sol.alpha_star.weights, bf_measure.weights, atol=5e-2
            )

    def test_infeasible_target_raises_with_direction(self):
        alpha = bernoulli(0.5)
        F = np.array([[0.0], [1.0]])
        prob = ep.MomentProblem(alpha, F, ep.Box.point(np.array([1.5])))
        with pytest.raises(ep.InfeasibleTargetError) as exc:
            ep.solve_dual(prob)
        direction = np.asarray(exc.value.direction, dtype=float)
        # the certificate separates the target from the attainable moments
        vals = F @ direction
        assert direction @ np.array([1.5]) > vals.max() - 1e-9

    def test_collinear_columns_are_solved(self):
        # the second column is the first plus 1, so the dual is flat along
        # (1, -1) and its Hessian singular; the target sits near the top face
        col = np.array([1.2, 1.5, -1.5])
        alpha = ep.FiniteMeasure(line_space(3), np.array([0.4, 0.25, 0.35]))
        sol = ep.solve_dual(ep.MomentProblem(alpha, np.column_stack([col, col + 1.0]),
                                             ep.Box.point([1.49, 2.49])))
        np.testing.assert_allclose(sol.moment, [1.49, 2.49], rtol=0, atol=1e-8)
        # the redundant column changes nothing: the one-column projection
        single = ep.solve_dual(ep.MomentProblem(alpha, col, ep.Box.point([1.49])))
        assert sol.entropy == pytest.approx(single.entropy, abs=1e-10)
        np.testing.assert_allclose(sol.alpha_star.weights, single.alpha_star.weights, atol=1e-10)

    def test_seeded_sweep_solves_every_feasible_point(self, rng):
        solved = collinear = 0
        for problem in _point_cases(rng, 200):
            x0 = problem.target.lo
            if iproj._hull_certificate(problem, x0, x0) is not None:
                continue
            sol = ep.solve_dual(problem)
            np.testing.assert_allclose(sol.moment, x0, rtol=0, atol=1e-8)
            solved += 1
            if problem.dim > 1 and np.array_equal(problem.F[:, 1], problem.F[:, 0] + 1.0):
                collinear += 1
        # 136 feasible, 70 of them collinear
        assert solved >= 120 and collinear >= 50


@pytest.mark.parametrize("target", [ep.Box.point([1.5]), ep.Box([1.5], [1.8])])
def test_zero_weight_atoms_do_not_widen_the_hull(target):
    # the atom at F = 2 has no mass, so no measure reaches a moment above 1
    alpha = ep.FiniteMeasure(line_space(3), np.array([0.5, 0.5, 0.0]))
    F = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ep.InfeasibleTargetError) as exc:
        ep.solve_dual(ep.MomentProblem(alpha, F, target))
    direction = exc.value.direction
    assert direction @ target.lo > (F[:2] @ direction).max()


def _point_cases(rng, count):
    """Point problems with d <= 4 and 3 to 8 atoms, some without mass; in
    every other one the second column is the first plus 1. Targets are
    F^T Dirichlet(0.5) over all atoms, often near a face, or a normal draw,
    so some miss the hull."""
    for i in range(count):
        collinear = i % 2 == 1
        d = int(rng.integers(2 if collinear else 1, 5))
        m = int(rng.integers(3, 9))
        F = rng.normal(size=(m, d))
        if collinear:
            F[:, 1] = F[:, 0] + 1.0
        weights = rng.dirichlet(np.ones(m))
        weights[rng.random(m) < 0.15] = 0.0
        if weights.sum() == 0.0:
            weights[0] = 1.0
        alpha = ep.FiniteMeasure(line_space(m), weights / weights.sum())
        if rng.random() < 0.8:
            x0 = rng.dirichlet(np.full(m, 0.5)) @ F
        else:
            x0 = rng.normal(size=d)
        yield ep.MomentProblem(alpha, F, ep.Box.point(x0))


class TestSolveDualBox:
    def test_slack_box_needs_no_tilt(self):
        alpha = bernoulli(0.5)
        F = np.array([[0.0], [1.0]])
        prob = ep.MomentProblem(alpha, F, ep.Box(np.array([0.4]), np.array([0.6])))
        sol = ep.solve_dual(prob)
        np.testing.assert_allclose(sol.lambda_star, 0.0, atol=1e-12)
        assert sol.entropy == 0.0

    def test_active_face_matches_point_solution(self):
        alpha = bernoulli(0.5)
        F = np.array([[0.0], [1.0]])
        box = ep.MomentProblem(alpha, F, ep.Box(np.array([0.7]), np.array([0.9])))
        sol_box = ep.solve_dual(box)
        sol_pt = ep.solve_dual(bern_problem(0.7))
        assert sol_box.entropy == pytest.approx(sol_pt.entropy, abs=1e-8)
        assert sol_box.lambda_star[0] == pytest.approx(sol_pt.lambda_star[0], abs=1e-6)

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            prob = random_problem(rng, n_points=3, target="box")
            sol = ep.solve_dual(prob)
            _, bf_entropy = ep.brute_force_projection(prob, grid_step=1e-3)
            assert sol.entropy <= bf_entropy + 1e-6
            assert sol.entropy == pytest.approx(bf_entropy, abs=2e-3)

    def test_entropy_never_negative(self, rng):
        for _ in range(10):
            prob = random_problem(rng, d=2, target="box")
            assert ep.solve_dual(prob).entropy >= 0.0

    @pytest.mark.parametrize("x", [0.3, 0.7])
    def test_zero_width_box_matches_point(self, x):
        box = ep.MomentProblem(bernoulli(0.5), np.array([[0.0], [1.0]]), ep.Box([x], [x]))
        sol_box, sol_pt = ep.solve_dual(box), ep.solve_dual(bern_problem(x))
        assert sol_box.entropy == sol_pt.entropy
        np.testing.assert_array_equal(sol_box.lambda_star, sol_pt.lambda_star)
        np.testing.assert_array_equal(sol_box.alpha_star.weights, sol_pt.alpha_star.weights)

    @pytest.mark.parametrize("F, lo, hi", [
        ([0.13, 1.07, 2.31], [0.9], [0.9]),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.3141, 0.2718], [0.3141, 0.2718]),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.3141, 0.2], [0.3141, 0.3]),
    ])
    def test_brute_force_reads_thin_coordinates(self, F, lo, hi):
        # a thin coordinate (lo == hi) gets the grid tolerance, so the oracle
        # neither misses every grid point nor settles for a far one
        alpha = ep.FiniteMeasure(line_space(3), np.array([0.5, 0.3, 0.2]))
        prob = ep.MomentProblem(alpha, np.array(F), ep.Box(lo, hi))
        sol = ep.solve_dual(prob)
        _, bf_entropy = ep.brute_force_projection(prob, grid_step=1e-3)
        slack = (1.0 + np.abs(sol.lambda_star).sum()) * 1e-3
        assert bf_entropy == pytest.approx(sol.entropy, abs=slack)

    def test_brute_force_thin_tolerance_follows_the_spread_of_F(self):
        # neighbouring grid measures lie grid_step * |F_i - F_j| apart, up
        # to 0.005 * 3.94 here, so a tolerance of one grid_step missed them all
        alpha = ep.FiniteMeasure(line_space(3), np.array([0.5, 0.3, 0.2]))
        F = np.array([[-1.55, 0.17], [-0.46, 1.23], [0.96, -2.71]])
        prob = ep.MomentProblem(alpha, F, ep.Box.point([-0.27, -0.7]))
        sol = ep.solve_dual(prob)
        assert sol.entropy == pytest.approx(0.105979, abs=1e-6)
        _, bf_entropy = ep.brute_force_projection(prob, grid_step=0.005)
        slack = np.abs(sol.lambda_star) @ (0.005 * np.ptp(F, axis=0))
        assert bf_entropy == pytest.approx(sol.entropy, abs=slack)

    def test_benchmark_box_needs_few_dual_evaluations(self, monkeypatch):
        # the benchmark's `box` op; its layer trace counts the calls through
        # the module binding
        calls, real = [], iproj.log_laplace
        monkeypatch.setattr(iproj, "log_laplace", lambda *a: calls.append(a) or real(*a))
        alpha = ep.FiniteMeasure(line_space(4), np.array([0.4, 0.3, 0.2, 0.1]))
        F = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sol = ep.solve_dual(ep.MomentProblem(alpha, F, ep.Box([0.5, 0.45], [0.6, 0.55])))
        np.testing.assert_allclose(sol.moment, [0.5, 0.45], atol=1e-10)
        assert len(calls) <= 20

    def test_hull_lp_goes_through_the_module_binding(self, rng, monkeypatch):
        # the benchmark's layer trace times the LP by wrapping iproj.linprog
        assert iproj.linprog.__module__ == "entroproj.iproj"
        calls, real = [], iproj.linprog
        monkeypatch.setattr(iproj, "linprog", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        assert ep.solve_dual(random_problem(rng, d=2, target="box")).entropy >= 0.0
        assert len(calls) == 1


def _kkt_cases(rng, count):
    """Box problems with d <= 5 and d+1 to 11 atoms, some without mass, some
    zero-width coordinates, some constant or collinear columns, and centres
    F^T Dirichlet(0.3) over all atoms, so some boxes miss the hull."""
    for _ in range(count):
        d = int(rng.integers(1, 6))
        m = int(rng.integers(d + 1, 12))
        F = rng.normal(size=(m, d))
        if rng.random() < 0.2:
            F[:, -1] = 1.0 if rng.random() < 0.5 else 2.0 * F[:, 0] - 1.0
        weights = rng.dirichlet(np.ones(m))
        weights[rng.random(m) < 0.2] = 0.0
        if weights.sum() == 0.0:
            weights[0] = 1.0
        alpha = ep.FiniteMeasure(line_space(m), weights / weights.sum())
        centre = rng.dirichlet(np.full(m, 0.3)) @ F
        half = rng.uniform(0.0, 0.3, size=d) * (rng.random(d) < 0.7)
        yield ep.MomentProblem(alpha, F, ep.Box(centre - half, centre + half))


def test_box_solutions_meet_kkt(rng):
    solved = 0
    for problem in _kkt_cases(rng, 300):
        lo, hi = problem.target.lo, problem.target.hi
        if iproj._hull_certificate(problem, lo, hi) is not None:
            continue
        sol = ep.solve_dual(problem)
        moment, lam = sol.moment, sol.lambda_star
        assert np.all(moment >= lo - 1e-8) and np.all(moment <= hi + 1e-8)
        # complementary slackness: a positive multiplier pins the moment to
        # lo, a negative one to hi
        np.testing.assert_allclose(moment[lam > 0], lo[lam > 0], rtol=0, atol=1e-8)
        np.testing.assert_allclose(moment[lam < 0], hi[lam < 0], rtol=0, atol=1e-8)
        solved += 1
    assert solved >= 150


def _highs_t_star(support, lo, hi, tolerance=1e-7):
    """The hull LP as posed for scipy's HiGHS: max t subject to
    min_{y in box} <u, y> - <u, F_i> >= t over the support, |u|_inf <= 1.
    ``tolerance`` is HiGHS's primal and dual feasibility tolerance."""
    from scipy.optimize import linprog

    d = support.shape[1]
    unit = np.eye(2 * d + 1)  # over the variables u (d), m (d) and t
    box_rows = [unit[d + j] - bound[j] * unit[j] for j in range(d) for bound in (lo, hi)]
    hull_rows = [unit[2 * d] - unit[d:2 * d].sum(axis=0) + F_i @ unit[:d] for F_i in support]
    A = np.array(box_rows + hull_rows)
    res = linprog(-unit[2 * d], A_ub=A, b_ub=np.zeros(len(A)),
                  bounds=[(-1.0, 1.0)] * d + [(None, None)] * (d + 1), method="highs",
                  options={"primal_feasibility_tolerance": tolerance,
                           "dual_feasibility_tolerance": tolerance})
    assert res.status == 0, res.message
    return -float(res.fun)


def _hull_cases(rng, count):
    """Random moment maps (d <= 3, at most 12 rows, integer or real, some
    atoms without mass) with targets inside the hull, on a face, at a
    vertex, just outside a face, or random boxes."""
    for _ in range(count):
        d, m = int(rng.integers(1, 4)), int(rng.integers(1, 13))
        if rng.random() < 0.5:
            F = rng.integers(-3, 4, size=(m, d)).astype(float)
        else:
            F = rng.normal(scale=3.0, size=(m, d))
        weights = rng.dirichlet(np.ones(m))
        weights[rng.random(m) < 0.2] = 0.0
        if weights.sum() == 0.0:
            weights[0] = 1.0
        alpha = ep.FiniteMeasure(line_space(m), weights / weights.sum())
        support = F[alpha.weights > 0]
        u = rng.normal(size=d)
        scores = support @ u
        face = support[scores >= scores.max() - 1e-12]
        kind = rng.integers(5)
        if kind == 0:
            lo = hi = rng.dirichlet(np.ones(len(support))) @ support
        elif kind == 1:
            lo = hi = rng.dirichlet(np.ones(len(face))) @ face
        elif kind == 2:
            lo = hi = face[0]
        elif kind == 3:
            lo = hi = face.mean(axis=0) + 10.0 ** rng.integers(-8, 0) * u
        else:
            lo = rng.normal(scale=3.0, size=d)
            hi = lo + rng.uniform(0.0, 2.0, size=d) * rng.integers(0, 2, size=d)
        yield ep.MomentProblem(alpha, F, ep.Box(lo, hi))


def _degenerate_cases():
    uniform = lambda m: ep.FiniteMeasure.uniform(line_space(m))
    repeated = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    equal = np.ones((6, 2))
    for F, alpha in [(repeated, uniform(5)), (equal, uniform(6)),
                     (np.array([[1.0, 2.0]]), uniform(1)),
                     (repeated, ep.FiniteMeasure.point_mass(line_space(5), 4))]:
        for lo, hi in [(F[0], F[0]), (F[-1], F[-1]), (np.array([0.5, 0.5]),) * 2,
                       (np.array([0.0, 0.0]), np.array([1.0, 1.0])),
                       (np.array([2.0, 2.0]), np.array([2.0, 3.0]))]:
            yield ep.MomentProblem(alpha, F, ep.Box(lo, hi))


class TestHullLP:
    def test_simplex_returns_optimum_and_duals(self):
        # min x1 + 2 x2 s.t. x0 + x1 + x2 = 1, x0 - x3 = 0.25: x0 = 1, x3 = 0.75
        A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, -1.0]])
        b, c = np.array([1.0, 0.25]), np.array([0.0, 1.0, 2.0, 0.0])
        value, y = iproj.linprog(c, A, b, [1, 0])
        assert value == 0.0
        assert np.all(A.T @ y <= c + 1e-12)
        assert b @ y == pytest.approx(value, abs=1e-12)

    def test_beales_cycling_lp(self):
        # Beale (1955): from the slack basis {x1, x2, x3}, the most negative
        # reduced cost with the lowest-index leaving row cycles at pivot 6;
        # the lowest-index entering rule after a zero step reaches -5/4
        A = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                      [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
        b, c = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
        value, y = iproj.linprog(c, A, b, [0, 1, 2])
        assert value == pytest.approx(-1.25, abs=1e-12)
        assert np.all(A.T @ y <= c + 1e-12)
        assert b @ y == pytest.approx(value, abs=1e-12)

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(iproj, "_PIVOTS_PER_COLUMN", 0)
        with pytest.raises(RuntimeError, match=r"^revised simplex LP failed: "
                                                r"no optimal basis within the pivot cap$"):
            ep.solve_dual(bern_problem())

    def test_starts_at_the_support_row_nearest_lo(self, monkeypatch):
        # a sorted moment map with the target past its last row: the last
        # row is the nearest, and its basis is already optimal
        alpha = ep.FiniteMeasure.uniform(line_space(1000))
        problem = ep.MomentProblem(alpha, np.linspace(0.0, 1.0, 1000), ep.Box.point([1.5]))
        solves, real = [], np.linalg.solve
        monkeypatch.setattr(iproj.np.linalg, "solve", lambda *a: solves.append(a) or real(*a))
        assert iproj._hull_certificate(problem, problem.target.lo, problem.target.hi) is not None
        # the primal and dual solves of the first basis, and no pivot
        assert len(solves) == 2

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_matches_highs(self, rng, monkeypatch, degenerate):
        values, real = [], iproj.linprog

        def record(*args):
            values.append(real(*args))
            return values[-1]

        monkeypatch.setattr(iproj, "linprog", record)
        problems = _degenerate_cases() if degenerate else _hull_cases(rng, 400)
        for problem in problems:
            lo, hi = problem.target.lo, problem.target.hi
            support = problem.F[problem.alpha.weights > 0]
            cert = iproj._hull_certificate(problem, lo, hi)
            # HiGHS at its default tolerance (1e-7) decides as before; its t*
            # is that coarse too, so the value is checked against a run at 1e-10
            default = _highs_t_star(support, lo, hi)
            if abs(default - 1e-11) > 1e-7:
                assert (cert is not None) == (default > 1e-11)
            assert values[-1][0] == pytest.approx(_highs_t_star(support, lo, hi, 1e-10), abs=1e-9)
            if cert is not None:
                assert np.abs(cert).max() <= 1.0
                assert np.minimum(cert * lo, cert * hi).sum() > (support @ cert).max()


class TestPythagoras:
    def test_inequality_over_feasible_measures(self, rng):
        # H(nu|alpha) >= H(alpha*|alpha) + H(nu|alpha*) - 1e-8 whenever nu
        # meets the same moment constraint as alpha*.
        space = line_space(5, -1.0, 1.0)
        alpha = random_measure(rng, space, floor=1e-2)
        F = rng.normal(size=(5, 1))
        mean = float(alpha.weights @ F[:, 0])
        x0 = np.array([mean + 0.3 * (F.max() - mean)])
        prob = ep.MomentProblem(alpha, F, ep.Box.point(x0))
        sol = ep.solve_dual(prob)

        # feasible directions keep total mass and the moment unchanged
        basis = null_space(np.vstack([np.ones((1, 5)), F.T]))
        checked = 0
        while checked < 200:
            w = sol.alpha_star.weights + basis @ rng.normal(size=basis.shape[1]) * 0.05
            if w.min() <= 1e-12:
                continue
            nu = ep.FiniteMeasure(space, w / w.sum())
            if abs(float(nu.weights @ F[:, 0]) - x0[0]) > 1e-9:
                continue
            lhs = ep.relative_entropy(nu, alpha)
            rhs = sol.entropy + ep.relative_entropy(nu, sol.alpha_star)
            assert lhs >= rhs - 1e-8
            checked += 1


def test_permuting_the_atoms_permutes_the_projection():
    # relabelling the atoms (weights and rows of F together) keeps the
    # entropy and relabels alpha_star; 200 seeded point and box problems
    rng = np.random.default_rng(20261020)
    for case in range(200):
        prob = random_problem(rng, int(rng.integers(2, 7)), int(rng.integers(1, 3)),
                              ("point", "box")[case % 2])
        perm = rng.permutation(len(prob.F))
        alpha = ep.FiniteMeasure(prob.alpha.space, prob.alpha.weights[perm])
        sol = ep.solve_dual(prob)
        permuted = ep.solve_dual(ep.MomentProblem(alpha, prob.F[perm], prob.target))
        assert abs(permuted.entropy - sol.entropy) <= 1e-12, case
        np.testing.assert_allclose(permuted.alpha_star.weights, sol.alpha_star.weights[perm],
                                   rtol=0, atol=1e-12, err_msg=f"case {case}")


class TestSchedules:
    def test_kind_is_validated(self):
        with pytest.raises(ValueError):
            ep.ScheduleParams(kind="log_n", c=1.0)

    def test_sqrt_formula(self):
        sched = ep.ScheduleParams(kind="sqrt_n", c=2.0)
        assert sched.epsilon(16) == pytest.approx((1.0 + 1e-6) * 2.0 / 4.0)

    def test_inv_formula(self):
        sched = ep.ScheduleParams(kind="inv_n", c=3.0)
        assert sched.epsilon(6) == pytest.approx(0.5)

    def test_sqrt_schedule_from_solution(self):
        sol = ep.solve_dual(bern_problem())
        sched = ep.schedule_from_solution(sol, "sqrt_n", a=2.0)
        assert sched.c == pytest.approx(math.sqrt(2.0 * 0.21), abs=1e-8)

    def test_berry_esseen_constant(self):
        # 1.1 * 10 * sqrt(2 pi) * kappa / sigma^3 for the Bernoulli(0.7)
        # tilt, evaluated with mpmath
        sol = ep.solve_dual(bern_problem())
        assert ep.enlargement_berry_esseen(sol, 1) == pytest.approx(
            34.898034329796036, rel=1e-9
        )
        assert ep.enlargement_berry_esseen(sol, 100) == pytest.approx(
            0.34898034329796037, rel=1e-9
        )

    def test_sqrt_enlargement_scaling(self):
        sol = ep.solve_dual(bern_problem())
        e1 = ep.enlargement_sqrt(sol, a=1.0, n=1)
        e4 = ep.enlargement_sqrt(sol, a=1.0, n=4)
        assert e4 == pytest.approx(e1 / 2.0)


    @pytest.mark.parametrize("a", [-1.0, 0.0])
    def test_type2_constant_must_be_positive(self, a):
        sol = ep.solve_dual(bern_problem())
        with pytest.raises(ValueError, match="type-2 constant must be positive"):
            ep.schedule_from_solution(sol, "sqrt_n", a=a)

    @pytest.mark.parametrize("make", [
        lambda sol: ep.schedule_from_solution(sol, "sqrt_n"),
        lambda sol: ep.enlargement_sqrt(sol),
    ])
    def test_sqrt_schedule_needs_positive_variance(self, make):
        # a constant moment map: the tilted law has no spread to scale by
        alpha = bernoulli(0.5)
        sol = ep.solve_dual(ep.MomentProblem(alpha, np.array([0.4, 0.4]), ep.Box.point([0.4])))
        assert sol.variance == 0.0
        with pytest.raises(ValueError, match=r"the sqrt\(n\) schedule needs positive variance"):
            make(sol)


class TestTailBounds:
    def test_yurinskii_closed_form(self):
        # exp(-100 * 1 / (8 * (1 + 1))) = exp(-6.25)
        assert ep.yurinskii_tail(1.0, 1.0, 100, 1.0) == pytest.approx(
            0.0019304541362277092, rel=1e-12
        )

    def test_yurinskii_monotone_in_n(self):
        assert ep.yurinskii_tail(1.0, 0.5, 200, 0.3) < ep.yurinskii_tail(1.0, 0.5, 100, 0.3)

    def test_centering_lower_bound_formula(self):
        sol = ep.solve_dual(bern_problem())
        got = ep.centering_lower_bound(sol, epsilon=0.05, p_ball=0.9, n=100)
        expect = math.log(0.9) / 100.0 - abs(LAMBDA_BERN) * 0.05
        assert got == pytest.approx(expect, abs=1e-12)

    def test_centering_lower_bound_full_ball(self):
        sol = ep.solve_dual(bern_problem())
        got = ep.centering_lower_bound(sol, epsilon=0.1, p_ball=1.0, n=50)
        assert got == pytest.approx(-abs(LAMBDA_BERN) * 0.1, abs=1e-12)

    def test_dst_lower_bound_oracle(self):
        # -H/9 + log(0.9)/100 - 1/(10 e) at H = KL(0.7||0.5), p = 0.9,
        # n = 100, each term evaluated separately with mpmath
        got = ep.dst_lower_bound(KL_07_05, 0.9, 100)
        assert got == pytest.approx(-0.04698409132983938, rel=1e-12)

    def test_dst_rejects_degenerate_probability(self):
        with pytest.raises(ValueError):
            ep.dst_lower_bound(0.1, 0.0, 10)
        with pytest.raises(ValueError):
            ep.dst_lower_bound(0.1, 1.0, 10)
        with pytest.raises(ValueError):
            ep.dst_lower_bound(0.1, math.nan, 10)

    @pytest.mark.parametrize("call, message", [
        (lambda sol: ep.yurinskii_tail(math.nan, 1.0, 10, 1.0), "must be positive"),
        (lambda sol: ep.yurinskii_tail(1.0, math.nan, 10, 1.0), "must be positive"),
        (lambda sol: ep.yurinskii_tail(1.0, 1.0, 10, math.nan), "must be positive"),
        (lambda sol: ep.yurinskii_tail(1.0, 1.0, math.nan, 1.0), "positive integer"),
        (lambda sol: ep.yurinskii_tail(1.0, 1.0, -100, 1.0), "positive integer"),
        (lambda sol: ep.centering_lower_bound(sol, 0.1, 0.9, math.nan), "positive integer"),
        (lambda sol: ep.enlargement_sqrt(sol, n=math.nan), "positive integer"),
        (lambda sol: ep.ScheduleParams(kind="inv_n", c=1.0).epsilon(math.nan), "positive integer"),
        (lambda sol: ep.epsilon_schedule_metric(lambda r: 1.0, math.nan), "positive integer"),
        (lambda sol: ep.centering_lower_bound(sol, math.nan, 0.9, 10), "epsilon"),
        (lambda sol: ep.enlargement_sqrt(sol, a=math.nan), "type-2 constant"),
        (lambda sol: ep.enlargement_berry_esseen(sol, 1, margin=math.nan), "margin"),
        (lambda sol: ep.enlargement_berry_esseen(sol, 1, margin=0.0), "margin"),
        (lambda sol: ep.dst_lower_bound(math.nan, 0.9, 10), "entropy"),
        (lambda sol: ep.dst_lower_bound(-0.1, 0.9, 10), "entropy"),
        (lambda sol: ep.brute_force_projection(sol.problem, grid_step=math.nan), "grid_step"),
    ])
    def test_bound_helpers_reject_nan(self, call, message):
        sol = ep.solve_dual(bern_problem())
        with pytest.raises(ValueError, match=message):
            call(sol)
