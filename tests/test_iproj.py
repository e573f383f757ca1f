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
    return ep.MomentProblem(alpha, F, ep.Point(np.array([x0])))


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
        return ep.MomentProblem(alpha, F, ep.Point(x0))
    half = rng.uniform(0.01, 0.2, size=d)
    return ep.MomentProblem(alpha, F, ep.Box(x0 - half, x0 + half))


class TestTargets:
    def test_point_exposes_degenerate_box(self):
        pt = ep.Point(np.array([0.3]))
        np.testing.assert_array_equal(pt.lo, pt.hi)

    def test_box_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            ep.Box(np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("make", [lambda: ep.Point([math.nan]),
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
            np.testing.assert_allclose(sol.moment, prob.target.x0, atol=1e-7)

    def test_matches_brute_force(self, rng):
        for _ in range(5):
            prob = random_problem(rng, n_points=3)
            sol = ep.solve_dual(prob)
            bf_measure, bf_entropy = ep.brute_force_projection(prob, grid_step=1e-3)
            # the scan accepts moments within grid_step of the target, so it
            # may undercut the exact optimum by about |lambda| * grid_step
            slack = (1.0 + np.abs(sol.lambda_star).sum()) * 1e-3
            assert sol.entropy == pytest.approx(bf_entropy, abs=slack)
            np.testing.assert_allclose(
                sol.alpha_star.weights, bf_measure.weights, atol=5e-2
            )

    def test_infeasible_target_raises_with_direction(self):
        alpha = bernoulli(0.5)
        F = np.array([[0.0], [1.0]])
        prob = ep.MomentProblem(alpha, F, ep.Point(np.array([1.5])))
        with pytest.raises(ep.InfeasibleTargetError) as exc:
            ep.solve_dual(prob)
        direction = np.asarray(exc.value.direction, dtype=float)
        # the certificate separates the target from the attainable moments
        vals = F @ direction
        assert direction @ np.array([1.5]) > vals.max() - 1e-9


@pytest.mark.parametrize("target", [ep.Point([1.5]), ep.Box([1.5], [1.8])])
def test_zero_weight_atoms_do_not_widen_the_hull(target):
    # the atom at F = 2 has no mass, so no measure reaches a moment above 1
    alpha = ep.FiniteMeasure(line_space(3), np.array([0.5, 0.5, 0.0]))
    F = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ep.InfeasibleTargetError) as exc:
        ep.solve_dual(ep.MomentProblem(alpha, F, target))
    direction = exc.value.direction
    assert direction @ target.lo > (F[:2] @ direction).max()


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

    def test_hull_lp_goes_through_the_module_binding(self, rng, monkeypatch):
        # the benchmark's layer trace times the LP by wrapping iproj.linprog
        assert iproj.linprog.__module__ == "entroproj.iproj"
        calls, real = [], iproj.linprog
        monkeypatch.setattr(iproj, "linprog", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        assert ep.solve_dual(random_problem(rng, d=2, target="box")).entropy >= 0.0
        assert len(calls) == 1


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

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(iproj, "_PIVOTS_PER_COLUMN", 0)
        with pytest.raises(RuntimeError, match="feasibility LP failed"):
            ep.solve_dual(bern_problem())

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
        prob = ep.MomentProblem(alpha, F, ep.Point(x0))
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
