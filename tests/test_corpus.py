"""Tests for the seeded random function corpus."""

import numpy as np

from rlab import (GENERATOR_VERSION, MeasureDensity, StepFunction,
                  random_measure, random_step_function)


def test_generator_version_pinned():
    # Reports embed seeds; the recipe must not drift silently.
    assert GENERATOR_VERSION == 1


def test_step_function_shape_and_ranges():
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = random_step_function(rng)
        assert isinstance(f, StepFunction)
        assert f.breakpoints[0] == 0.0
        assert f.breakpoints[-1] == 1.0
        assert np.all(np.diff(f.breakpoints) > 0)
        # 1..20 interior points, so 2..21 segments
        assert 2 <= len(f.values) <= 21
        assert np.all(f.values > 0)
        assert np.all(f.values >= 1e-3) and np.all(f.values <= 1e3)


def test_same_seed_reproduces_functions():
    a = np.random.default_rng(123)
    b = np.random.default_rng(123)
    for _ in range(10):
        fa = random_step_function(a)
        fb = random_step_function(b)
        assert np.array_equal(fa.breakpoints, fb.breakpoints)
        assert np.array_equal(fa.values, fb.values)


def test_different_seeds_differ():
    fa = random_step_function(np.random.default_rng(1))
    fb = random_step_function(np.random.default_rng(2))
    assert not (
        len(fa.values) == len(fb.values) and np.array_equal(fa.values, fb.values)
    )


def test_signed_flag_produces_both_signs():
    rng = np.random.default_rng(9)
    vals = np.concatenate([random_step_function(rng, signed=True).values for _ in range(20)])
    assert np.any(vals > 0)
    assert np.any(vals < 0)
    assert np.all(np.abs(vals) >= 1e-3)


def test_unsigned_is_default():
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert np.all(random_step_function(rng).values > 0)


def test_random_measure_positive_by_default():
    rng = np.random.default_rng(31)
    for _ in range(30):
        mu = random_measure(rng)
        assert isinstance(mu, MeasureDensity)
        assert np.all(mu.density.values > 0)
