"""Every array a record holds is read-only and its own.

Records take their arrays through ``entroproj._frozen``: a read-only
float64 array that owns its data is adopted, anything else is copied once
and frozen. So a caller who writes into an array after handing it over
moves no solved target, band, bridge or tree, nor anything computed from
one; and the arrays a result exposes refuse writes.
"""

from dataclasses import replace

import numpy as np
import pytest

import entroproj as ep
from entroproj import _frozen

from conftest import line_space


def assert_owned(*arrays):
    for a in arrays:
        assert type(a) is np.ndarray and a.dtype == np.float64
        assert a.flags.owndata and not a.flags.writeable


def assert_refuses_writes(*arrays):
    for a in arrays:
        before = a.copy()
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 7.0
        assert np.array_equal(a, before)


class TestFrozen:
    def test_adopts_an_owned_read_only_float64_array(self):
        a = np.arange(3.0)
        a.setflags(write=False)
        assert _frozen(a) is a
        assert _frozen(a, ndmin=1) is a

    @pytest.mark.parametrize("make", [
        lambda: np.arange(3.0),                              # writable
        lambda: np.arange(3),                                # int64
        lambda: np.arange(3.0, dtype=np.float32),            # float32
        lambda: [0.0, 1.0, 2.0],                             # a list
        lambda: _frozen(np.arange(6.0))[:3],                 # a read-only view
        lambda: np.ma.masked_array(np.arange(3.0)),          # a subclass
    ], ids=["writable", "int64", "float32", "list", "view", "subclass"])
    def test_copies_anything_else_once(self, make):
        a = make()
        got = _frozen(a)
        assert got is not a
        assert_owned(got)
        np.testing.assert_array_equal(got, [0.0, 1.0, 2.0])

    def test_ndmin_prepends_axes(self):
        assert _frozen(0.5, ndmin=1).shape == (1,)
        row = _frozen(np.arange(3.0), ndmin=2)
        assert row.shape == (1, 3)
        assert_owned(row)
        scalar = _frozen(np.float64(2.0))
        assert scalar.shape == () and not scalar.flags.writeable


def x0_problem(x0):
    """Uniform alpha on {0, 1, 2}, F the identity, the point target x0."""
    space = ep.MetricSpacePoints.from_coordinates([0.0, 1.0, 2.0])
    return ep.MomentProblem(ep.FiniteMeasure.uniform(space), np.array([0.0, 1.0, 2.0]),
                            ep.Box.point(x0))


def test_reusing_the_target_buffer_keeps_the_event():
    # the conditioning band is centred on the target's thin coordinates;
    # holding the caller's x0 let a write into it move every later event
    # (p_event 0.12092166491700498 after x0 <- 1.2)
    x0 = np.array([0.85])
    sol = ep.solve_dual(x0_problem(x0))
    schedule = ep.ScheduleParams("sqrt_n", 0.5)

    def p_event():
        return ep.conditional_tv_curve(sol.problem.alpha, sol, schedule, [50], 1)[0]["p_event"]

    assert p_event() == 0.24967890678683433
    x0[0] = 1.2
    assert p_event() == 0.24967890678683433
    assert sol.problem.target.lo[0] == 0.85


def test_box_and_moment_problem():
    lo, hi = np.array([0.5, 0.45]), np.array([0.6, 0.55])
    F = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    alpha = ep.FiniteMeasure(line_space(4), weights)
    problem = ep.MomentProblem(alpha, F, ep.Box(lo, hi))
    assert_owned(problem.F, problem.target.lo, problem.target.hi, alpha.weights)
    sol = ep.solve_dual(problem)
    for a in (lo, hi, F, weights):
        a[...] = 0.25
    again = ep.solve_dual(problem)
    assert again.entropy == sol.entropy
    assert np.array_equal(again.alpha_star.weights, sol.alpha_star.weights)
    assert np.array_equal(problem.target.lo, [0.5, 0.45])


def test_a_point_target_is_one_array():
    x0 = np.array([0.3])
    box = ep.Box.point(x0)
    assert box.lo is box.hi
    assert_owned(box.lo)
    assert ep.Box.point(box.lo).lo is box.lo  # a frozen point is adopted


def test_moment_band():
    F, center = np.array([0.0, 1.0, 2.0]), np.array([1.0])
    band = ep.MomentBand(F, center, 0.3)
    assert_owned(band.F, band.center)
    alpha = ep.FiniteMeasure.uniform(line_space(3))
    log_p = ep.exact_event_log_probability(alpha, 12, band)
    F[...], center[...] = 5.0, 0.0
    assert ep.exact_event_log_probability(alpha, 12, band) == log_p
    # a band built on a record's moment map adopts it, as the TV curve's do
    problem = x0_problem(np.array([0.85]))
    assert ep.MomentBand(problem.F, band.center, 0.3).F is problem.F


def test_the_curve_bands_adopt_the_moment_map():
    sol = ep.solve_dual(x0_problem(np.array([0.85])))
    seen = []

    def estimate(alpha, n, event, k):
        seen.append(event)
        return ep.exact_conditional(alpha, n, event, k)

    ep.conditional_tv_curve(sol.problem.alpha, sol, ep.ScheduleParams("sqrt_n", 0.5),
                            [10, 20], 1, estimate)
    assert [band.F is sol.problem.F for band in seen] == [True, True]
    assert seen[0].center is seen[1].center
    assert_owned(seen[0].center)


def test_finite_measure_and_metric_spaces():
    x = np.array([0.0, 0.5, 2.0])
    dist = np.abs(x[:, None] - x[None, :])
    w1, w2 = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.25, 0.25])
    table = ep.MetricSpacePoints(["a", "b", "c"], dist)
    coords = ep.MetricSpacePoints.from_coordinates(x)
    nus = [ep.FiniteMeasure(space, w) for space in (table, coords) for w in (w1, w2)]
    assert_owned(table.dist, coords.dist, *(nu.weights for nu in nus))
    before = [ep.prohorov_distance(*nus[:2]), ep.fm_distance(*nus[2:])]
    for a in (x, dist, w1, w2):
        a[...] = 0.0
    assert [ep.prohorov_distance(*nus[:2]), ep.fm_distance(*nus[2:])] == before
    assert np.array_equal(coords.dist, table.dist)
    assert_refuses_writes(table.dist, coords.dist, nus[0].weights)


def bridge_problem(p=None):
    x = np.linspace(-1.0, 1.0, 8)
    base = ep.gaussian_reference(x, 0.3)
    space = base.mu0.space
    nu0 = ep.FiniteMeasure(space, np.linspace(1.0, 2.0, 8) / 12.0)
    return ep.BridgeProblem(mu0=base.mu0, mu1=base.mu1, p=base.p if p is None else p,
                            nu0=nu0, nu1=base.mu1)


def test_bridge_problem_and_potentials():
    caller = np.array(bridge_problem().p)  # writable
    problem = bridge_problem(caller)
    assert problem.p is not caller
    assert_owned(problem.p)
    pots = ep.sinkhorn(problem)
    assert_owned(pots.f, pots.g)
    entropy = ep.bridge_entropy(problem, pots)
    weights = ep.bridge_measure(problem, pots).weights
    caller[...] = 1.0
    assert_refuses_writes(pots.f, pots.g, weights, problem.p)
    assert ep.bridge_entropy(problem, pots) == entropy
    assert np.array_equal(ep.bridge_measure(problem, pots).weights, weights)
    # potentials a caller builds are frozen too
    f = np.array(pots.f)
    edited = replace(pots, f=f)
    f[...] = 0.0
    assert_owned(edited.f)
    assert ep.bridge_entropy(problem, edited) == entropy


def test_tilted_solution():
    sol = ep.solve_dual(x0_problem(np.array([0.85])))
    assert_owned(sol.lambda_star, sol.moment, sol.alpha_star.weights)
    assert_refuses_writes(sol.lambda_star, sol.moment, sol.alpha_star.weights)
    lam = np.array(sol.lambda_star)
    edited = replace(sol, lambda_star=lam)
    lam[...] = 0.0
    assert_owned(edited.lambda_star)
    assert np.array_equal(edited.lambda_star, sol.lambda_star)


def spec(n):
    return ep.LatticeSpec(n=n, alpha_tick=2.0, sigma_min=0.6, sigma_max=1.4, b0=0.15, s=0.03)


def test_vol_surface_and_trinomial_tree():
    lattice = spec(4)
    sigma = [np.full(2 * k + 1, 1.1) for k in range(4)]
    b = [np.full(2 * k + 1, 0.15) for k in range(4)]
    surface = ep.VolSurface(sigma=tuple(sigma), b=tuple(b))
    reference = ep.VolSurface.constant(lattice, 1.2, 0.15)
    tree = ep.build_tree(surface, lattice)
    arrays = [*surface.sigma, *surface.b, *reference.sigma, *reference.b,
              *tree.transitions, *tree.node_prob]
    assert_owned(*arrays)
    entropy = ep.tree_entropy_chain(surface, reference, lattice)
    for a in sigma + b:
        a[...] = 1.3
    assert ep.tree_entropy_chain(surface, reference, lattice) == entropy
    assert_refuses_writes(*arrays)
    # a surface cut from a surface, and a tree from a tree's transitions,
    # share the frozen tables instead of copying them
    assert surface.truncated(2).sigma[1] is surface.sigma[1]
    rebuilt = ep.TrinomialTree(lattice, tree.transitions)
    assert all(a is c for a, c in zip(rebuilt.transitions, tree.transitions))
    table = np.array(tree.transitions[2])
    copied = ep.TrinomialTree(lattice, (*tree.transitions[:2], table, tree.transitions[3]))
    table[...] = 0.0
    assert np.array_equal(copied.node_prob[3], tree.node_prob[3])


def test_calibration_result():
    lattice = spec(20)
    law = ep.build_tree(ep.VolSurface.constant(lattice, 1.1, lattice.b0), lattice).node_prob[20]
    value = float(law @ np.square(lattice.positions(20)))
    result = ep.calibrate(ep.CalibProblem(sigma0=1.2, payoff=lambda x: x * x / value),
                          lattice, 0.01)
    arrays = [result.theta_star, *result.sigma_star.sigma, *result.sigma_star.b]
    assert_owned(*arrays)
    assert_refuses_writes(*arrays)
    theta = np.array(result.theta_star)
    edited = replace(result, theta_star=theta)
    theta[...] = 0.0
    assert_owned(edited.theta_star)
    assert np.array_equal(edited.theta_star, result.theta_star)
