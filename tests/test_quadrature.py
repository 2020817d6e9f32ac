"""Tests for the adaptive Gauss-Kronrod integrator."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from rlab import (MeasureDensity, QuadratureError, QuadratureResult, downward_check,
                  integrate_batch, lorentz_pq_star_norm, make_step)
from rlab import quadrature
from rlab.quadrature import _panels


def _one(fn, a, b):
    """fn(t) over (a, b) as a one-problem batch, with scalar fields."""
    res = integrate_batch(lambda t, k: fn(t), [a], [b])
    return QuadratureResult(float(res.value[0]), float(res.error_estimate[0]),
                            int(res.n_evals[0]), int(res.n_intervals[0]))


def test_polynomial_is_exact_on_a_single_panel():
    # K15 integrates polynomials up to degree 22 exactly.
    res = _one(lambda x: x**5, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert res.n_intervals == 1
    assert res.n_evals == 15


def test_smooth_exponential():
    res = _one(lambda x: np.exp(x), 0.0, 1.0)
    want = np.e - 1.0
    assert res.value == pytest.approx(want, rel=1e-13)
    assert res.error_estimate <= quadrature._REL_TOL * want


def test_oscillatory_integrand():
    res = _one(lambda x: np.cos(40.0 * x), 0.0, 1.0)
    assert res.value == pytest.approx(np.sin(40.0) / 40.0, abs=1e-12)


def test_integrable_endpoint_singularity():
    # Kronrod nodes are interior, so 1/sqrt(x) is never evaluated at 0.
    res = _one(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert res.value == pytest.approx(2.0, abs=5e-10)
    assert res.n_intervals > 1


def test_subinterval_and_scaling():
    res = _one(lambda x: x * x, 2.0, 5.0)
    assert res.value == pytest.approx((125.0 - 8.0) / 3.0, rel=1e-14)


def test_callable_receives_arrays():
    seen = []

    def fn(x):
        seen.append(x)
        return np.ones_like(x)

    res = _one(fn, 0.0, 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-15)
    assert all(isinstance(x, np.ndarray) for x in seen)
    assert all(x.ndim == 1 for x in seen)


def test_eval_count_matches_interval_count():
    res = _one(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    # 15 evaluations per panel, counting every panel ever refined.
    assert res.n_evals % 15 == 0
    assert res.n_evals >= 15 * res.n_intervals


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        _one(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        _one(lambda x: x, 0.5, 0.5)


def test_budget_exhaustion_raises_with_partial_result(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 4)
    with pytest.raises(QuadratureError) as exc:
        _one(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    err = exc.value
    # The partial value and the achieved/requested error bounds ride along.
    assert 1.5 < err.value < 2.5
    assert err.achieved > err.requested
    assert isinstance(err, RuntimeError)


def test_panels_carry_nan_through():
    kron, err = _panels(lambda x: np.full_like(x, np.nan),
                        np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert np.all(np.isnan(kron)) and np.all(np.isnan(err))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_estimate_raises_at_once(bad, deadline):
    calls = []

    def fn(x):
        calls.append(len(x))
        out = np.ones_like(x)
        out[len(x) // 2] = bad
        return out

    with deadline(10), np.errstate(invalid="ignore"):
        with pytest.raises(QuadratureError) as info:
            _one(fn, 0.0, 1.0)
    assert calls == [15]
    assert not (np.isfinite(info.value.value) and np.isfinite(info.value.achieved))


def test_divergent_integrand_raises_instead_of_hanging(deadline):
    # the error estimate of 1/x is scale-invariant, so the interval at 0 is
    # halved until its nodes reach 0 and the estimate turns non-finite
    with deadline(20), np.errstate(all="ignore"):
        with pytest.raises(QuadratureError):
            _one(lambda x: 1.0 / x, 0.0, 1.0)


def test_tiny_integral_is_refined_to_relative_tolerance():
    # t^199 (1e-10 + 1e-3/t)^400 over its peak at t = 1e-3, in log form: it
    # falls like (1e-3/t)^201, so the first panel's nodes see about 1e-147
    # and its estimate is as large as its value; an absolute error floor
    # (1e-14) would accept that panel, returning ~1e-147 for ~5e-6
    def log_g(t):
        return 199.0 * np.log(t) + 400.0 * np.log(1e-10 + 1e-3 / t)

    res = _one(lambda t: np.exp(log_g(t) - log_g(1e-3)), 1e-3, 1.0)
    with mpmath.workdps(40):
        peak = 199 * mpmath.log(mpmath.mpf("1e-3")) + 400 * mpmath.log(mpmath.mpf("1e-10") + 1)
        want = mpmath.quad(lambda t: mpmath.exp(199 * mpmath.log(t) + 400 * mpmath.log(
            mpmath.mpf("1e-10") + mpmath.mpf("1e-3") / t) - peak), [1e-3, 2e-3, 1e-2, 0.1, 1.0])
    assert res.value == pytest.approx(float(want), rel=1e-10, abs=0.0)
    assert res.error_estimate <= quadrature._REL_TOL * res.value
    assert res.n_evals > 15


# ---------------------------------------------------------------- batches

def _family(m):
    """m problems of mixed difficulty: endpoint singularities t^alpha
    (some need more than 8 intervals) and oscillations cos(w t)."""
    rng = np.random.default_rng(m)
    alpha = rng.uniform(-0.9, 2.0, m)
    omega = rng.uniform(0.0, 60.0, m)
    sing = rng.uniform(size=m) < 0.5
    lo = np.where(sing, 0.0, rng.uniform(-1.0, 0.5, m))
    hi = lo + rng.uniform(0.1, 2.0, m)

    def one(k):
        if sing[k]:
            return lambda t: t ** alpha[k]
        return lambda t: np.cos(omega[k] * t)

    def fn(t, k):
        return np.where(sing[k], np.abs(t) ** alpha[k], np.cos(omega[k] * t))

    return fn, one, lo, hi


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["G-1", "G", "G+1"])
def test_batch_matches_one_problem_runs_exactly(offset):
    m = quadrature._GROUP + offset
    fn, one, lo, hi = _family(m)
    res = integrate_batch(fn, lo, hi)
    assert res.n_intervals.max() > 8  # problems whose sums take many terms are exercised
    for k in range(m):
        want = _one(one(k), lo[k], hi[k])
        got = (res.value[k], res.error_estimate[k], res.n_evals[k], res.n_intervals[k])
        assert got == (want.value, want.error_estimate, want.n_evals, want.n_intervals)


def test_batch_passes_problem_index_per_node():
    seen = []

    def fn(t, k):
        seen.append((t.copy(), k.copy()))
        return k + 0.0 * t

    res = integrate_batch(fn, np.zeros(3), np.ones(3))
    assert np.array_equal(res.value, [0.0, 1.0, 2.0])
    t, k = seen[0]
    assert t.shape == k.shape == (45,)
    assert np.array_equal(k, np.repeat([0, 1, 2], 15))


def test_batch_validates_limits():
    empty = integrate_batch(lambda t, k: t, [], [])
    assert empty.value.shape == (0,)
    with pytest.raises(ValueError):
        integrate_batch(lambda t, k: t, [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        integrate_batch(lambda t, k: t, [0.0, 1.0], [1.0])


def _exhausting(t):
    return 1.0 / np.sqrt(t)  # needs more than 4 intervals


def _not_finite(t):
    return np.full_like(t, np.nan)


def _smooth(t):
    return t * t


@pytest.mark.parametrize("order", [(_exhausting, _not_finite), (_not_finite, _exhausting)],
                         ids=["exhausted-first", "non-finite-first"])
def test_batch_raises_for_the_lowest_failing_problem(order, deadline, monkeypatch):
    # the exhausted problem fails only after several bisections, the
    # non-finite one at once: the lower index wins either way
    fns = (_smooth, *order, _smooth)

    def fn(t, k):
        out = np.empty_like(t)
        for j, g in enumerate(fns):
            out[k == j] = g(t[k == j])
        return out

    lo, hi = np.zeros(4), np.ones(4)
    monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 4)
    with deadline(20), np.errstate(invalid="ignore"):
        with pytest.raises(QuadratureError) as info:
            integrate_batch(fn, lo, hi)
        with pytest.raises(QuadratureError) as alone:
            _one(order[0], 0.0, 1.0)
    err, want = info.value, alone.value
    assert err.index == 1
    assert str(err) == str(want)
    np.testing.assert_equal((err.value, err.achieved, err.requested),
                            (want.value, want.achieved, want.requested))


def test_batch_failure_in_a_later_group_raises_after_earlier_groups():
    m = quadrature._GROUP + 3
    calls = []

    def fn(t, k):
        calls.append(k.max())
        return np.where(k == m - 1, np.inf, 1.0 + 0.0 * t)

    with pytest.raises(QuadratureError) as info, np.errstate(invalid="ignore"):
        integrate_batch(fn, np.zeros(m), np.ones(m))
    assert info.value.index == m - 1
    assert calls[0] == quadrature._GROUP - 1  # the first group ran alone


def test_batched_callers_memory_stays_bounded():
    rng = np.random.default_rng(97)
    n = 20_000
    bk = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]))
    f = make_step(bk, np.exp(rng.uniform(-3.0, 3.0, n)))
    w = MeasureDensity(make_step([0.0, 0.4, 1.0], [1.5, 0.7]))
    v = MeasureDensity(make_step([0.0, 0.2, 0.7, 1.0], [0.9, 1.3, 0.6]))
    runs = (lambda: downward_check(3.0, 1.5, w, v, upper=2.0, grid_size=2048),
            lambda: lorentz_pq_star_norm(f, 2.0, 3.0))
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
