"""Shared fixtures and small builders used across the test modules."""

import numpy as np
import pytest

from entroproj import FiniteMeasure, MetricSpacePoints


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


def two_point_space():
    """The {0, 1} line segment."""
    return MetricSpacePoints.from_coordinates(np.array([0.0, 1.0]))


def bernoulli(p):
    """Bernoulli(p) as a measure on {0, 1} with mass p at 1."""
    space = two_point_space()
    return FiniteMeasure(space, np.array([1.0 - p, p]))


def line_space(n, lo=0.0, hi=1.0):
    return MetricSpacePoints.from_coordinates(np.linspace(lo, hi, n))


def random_measure(rng, space, floor=0.0):
    """Random element of the simplex over the support of `space`."""
    w = rng.dirichlet(np.ones(len(space))) * (1.0 - floor * len(space))
    return FiniteMeasure(space, w + floor)


def random_space(rng, n, dim=2, scale=1.0):
    coords = rng.uniform(-scale, scale, size=(n, dim))
    return MetricSpacePoints.from_coordinates(coords)


def per_trial_types(gen, weights, n, trials, k):
    """Reference for the Monte Carlo sampler, one trial at a time over the
    same stream: the k head letters of every trial from uniforms on the
    cumulative thresholds (clipped at 1), then per trial one multinomial
    draw of its other n - k letters, with the thresholds' probabilities,
    plus its heads."""
    cumw = np.minimum(np.cumsum(weights), 1.0)
    cumw[-1] = 1.0
    p = np.diff(cumw, prepend=0.0)
    heads = np.searchsorted(cumw, gen.random((trials, k)), side="right")
    counts = np.array([gen.multinomial(n - k, p) + np.bincount(row, minlength=len(p))
                       for row in heads])
    return counts, heads
