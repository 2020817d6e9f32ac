"""Tests for the adaptive Gauss-Kronrod integrator."""

import numpy as np
import pytest

from rlab import QuadratureError, integrate_adaptive
from rlab.quadrature import _panels


def test_polynomial_is_exact_on_a_single_panel():
    # K15 integrates polynomials up to degree 22 exactly.
    res = integrate_adaptive(lambda x: x**5, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert res.n_intervals == 1
    assert res.n_evals == 15


def test_smooth_exponential():
    res = integrate_adaptive(lambda x: np.exp(x), 0.0, 1.0, rel_tol=1e-12)
    want = np.e - 1.0
    assert res.value == pytest.approx(want, rel=1e-13)
    assert res.error_estimate <= max(1e-12 * want, 1e-14) * 10


def test_oscillatory_integrand():
    res = integrate_adaptive(lambda x: np.cos(40.0 * x), 0.0, 1.0)
    assert res.value == pytest.approx(np.sin(40.0) / 40.0, abs=1e-12)


def test_integrable_endpoint_singularity():
    # Kronrod nodes are interior, so 1/sqrt(x) is never evaluated at 0.
    res = integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, rel_tol=1e-10)
    assert res.value == pytest.approx(2.0, abs=5e-10)
    assert res.n_intervals > 1


def test_subinterval_and_scaling():
    res = integrate_adaptive(lambda x: x * x, 2.0, 5.0)
    assert res.value == pytest.approx((125.0 - 8.0) / 3.0, rel=1e-14)


def test_callable_receives_arrays():
    seen = []

    def fn(x):
        seen.append(x)
        return np.ones_like(x)

    res = integrate_adaptive(fn, 0.0, 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-15)
    assert all(isinstance(x, np.ndarray) for x in seen)
    assert all(x.ndim == 1 for x in seen)


def test_eval_count_matches_interval_count():
    res = integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    # 15 evaluations per panel, counting every panel ever refined.
    assert res.n_evals % 15 == 0
    assert res.n_evals >= 15 * res.n_intervals


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 0.5, 0.5)


def test_budget_exhaustion_raises_with_partial_result():
    with pytest.raises(QuadratureError) as exc:
        integrate_adaptive(
            lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, rel_tol=1e-14, max_intervals=4
        )
    err = exc.value
    # The partial value and the achieved/requested error bounds ride along.
    assert 1.5 < err.value < 2.5
    assert err.achieved > err.requested
    assert isinstance(err, RuntimeError)


def test_tightening_tolerance_does_not_worsen_result():
    loose = integrate_adaptive(lambda x: np.sqrt(x), 0.0, 1.0, rel_tol=1e-6)
    tight = integrate_adaptive(lambda x: np.sqrt(x), 0.0, 1.0, rel_tol=1e-12)
    want = 2.0 / 3.0
    assert abs(tight.value - want) <= abs(loose.value - want) + 1e-15
    assert tight.n_intervals >= loose.n_intervals


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
            integrate_adaptive(fn, 0.0, 1.0)
    assert calls == [15]
    assert not (np.isfinite(info.value.value) and np.isfinite(info.value.achieved))


def test_divergent_integrand_raises_instead_of_hanging(deadline):
    # the error estimate of 1/x is scale-invariant, so the interval at 0 is
    # halved until its nodes reach 0 and the estimate turns non-finite
    with deadline(20), np.errstate(all="ignore"):
        with pytest.raises(QuadratureError):
            integrate_adaptive(lambda x: 1.0 / x, 0.0, 1.0)
