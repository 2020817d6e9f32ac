"""The eps-slice engine behind every grand norm: blocked evaluation, the
top level factored out, and the one-sided limit at the upper end.

Every test here runs with warnings (DeprecationWarnings aside) as errors,
so an overflow or underflow that numpy would only warn about fails the test.
"""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlab import (SpaceSpec, eps_profile, grand_lambda_norm,
                  grand_lambda_slice_values, grand_lebesgue_norm,
                  grand_lorentz_pq_norm, grand_lorentz_slice_values, make_step)
from rlab import norms
from rlab.norms import _slice_closure
from rlab.weights import PowerWeight

# DeprecationWarnings stay out: the hypothesis plugin raises one from its
# report hook on failing tests, which would hide the failure itself
pytestmark = [pytest.mark.filterwarnings("error"),
              pytest.mark.filterwarnings("ignore::DeprecationWarning")]

BLOCK = norms._BLOCK


def _dense(values, base, top, eps):
    """The unblocked, unscaled slice formula: one eps x terms array."""
    keep = (values > 0) & (base > 0)
    eps = np.atleast_1d(np.asarray(eps, float))
    inner = np.exp((top - eps)[:, None] * np.log(values[keep])[None, :]) @ base[keep]
    return (eps * inner) ** (1.0 / (top - eps))


# ---------------------------------------------------------------- blocking

@pytest.mark.parametrize("n", [1, 3, BLOCK - 1, BLOCK, BLOCK + 1, 20_000])
def test_closure_matches_dense_formula(n):
    rng = np.random.default_rng(n)
    values = rng.uniform(0.1, 10.0, n)
    base = rng.uniform(0.0, 1.0, n) / n
    top = 3.0
    # two full blocks of eps rows and a remainder of one, then one block alone
    rows = max(1, BLOCK // n)
    eps = np.linspace(0.0, top - 1.0, 2 * rows + 3)[1:-1]
    fn = _slice_closure(values, base, top)
    want = _dense(values, base, top, eps)
    got = fn(eps)
    assert got.shape == (2 * rows + 1,)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(fn(eps[:rows]), want[:rows], rtol=1e-13, atol=0.0)


def test_closure_scalar_eps_and_masked_terms():
    values = np.array([4.0, 0.0, 2.0, 1.0, 3.0])
    base = np.array([0.1, 0.3, 0.0, 0.2, 0.4])  # zero level and zero base drop out
    fn = _slice_closure(values, base, 2.5)
    got = fn(0.7)
    assert got.shape == (1,)
    assert got[0] == pytest.approx(_dense(values, base, 2.5, 0.7)[0], rel=1e-14)
    with mpmath.workdps(40):
        want = (mpmath.mpf("0.7") * mpmath.fsum(
            mpmath.mpf(v) ** mpmath.mpf("1.8") * b
            for v, b in zip([4.0, 1.0, 3.0], [0.1, 0.2, 0.4]))) ** (1 / mpmath.mpf("1.8"))
    assert got[0] == pytest.approx(float(want), rel=1e-14)


def test_closure_all_zero_levels():
    fn = _slice_closure(np.zeros(4), np.full(4, 0.25), 2.0)
    np.testing.assert_array_equal(fn(np.array([0.1, 0.5, 0.9])), np.zeros(3))
    np.testing.assert_array_equal(fn(0.5), np.zeros(1))


def _big_fn(n=20_000):
    rng = np.random.default_rng(7)
    return make_step(np.linspace(0.0, 1.0, n + 1), rng.uniform(0.1, 10.0, n))


def test_grand_norm_and_profile_memory_is_bounded():
    """The dense engine held two 2048 x n arrays: about 655 MB at n = 2e4."""
    f = _big_fn()
    runs = (lambda: grand_lorentz_pq_norm(f, 2.0, 3.0),
            lambda: eps_profile(f, SpaceSpec("lambda_grand", p=2.5,
                                             weight=PowerWeight(0.5))))
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


# ---------------------------------------------------------------- upper end

def test_upper_end_supremum_is_the_one_sided_limit():
    """With q close to 1 the profile rises to eps -> q - 1, where the
    exponent q - eps tends to 1 and the slice to (q - 1) * sum(base * level)."""
    rng = np.random.default_rng(2024)
    for _ in range(300):
        p, q = rng.uniform(1.1, 4.0), rng.uniform(1.01, 1.4)
        widths = rng.uniform(0.05, 1.0, 5)
        bk = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
        bk[-1] = 1.0
        vals = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 5))
        res = grand_lorentz_pq_norm(make_step(bk, vals), p, q)
        # closed form on the decreasing rearrangement, built here by sorting
        order = np.argsort(-vals, kind="stable")
        tk = np.concatenate(([0.0], np.cumsum(widths[order] / widths.sum())))
        tk[-1] = 1.0
        want = (q - 1.0) * math.fsum(vals[order] * np.diff(tk ** (q / p)))
        assert res.endpoint_limit == "upper"
        assert res.eps_star == q - 1.0
        assert res.value == pytest.approx(want, rel=1e-13)
        assert res.value >= res.slice_values.max()


# ---------------------------------------------------------------- scale safety

def _mp_slice(levels, bases, top, eps):
    """(eps * sum(bases * levels**(top-eps)))**(1/(top-eps)) in 60 digits."""
    with mpmath.workdps(60):
        e = mpmath.mpf(eps)
        s = mpmath.mpf(top) - e
        total = mpmath.fsum(mpmath.mpf(b) * mpmath.mpf(v) ** s for v, b in zip(levels, bases))
        return (e * total) ** (1 / s)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_grand_kinds_at_extreme_levels_match_mpmath(scale):
    bk = np.array([0.0, 0.25, 0.5, 1.0])
    levels = scale * np.array([3.0, 1.0, 0.5])  # already nonincreasing
    f = make_step(bk, levels)
    w = PowerWeight(0.5)
    lengths = np.diff(bk)
    cases = [
        (grand_lebesgue_norm(f, 2.5), lengths, 2.5),
        (grand_lorentz_pq_norm(f, 2.0, 3.0), np.diff(bk ** 1.5), 3.0),
        (grand_lambda_norm(f, 2.0, w), np.diff(bk ** 1.5) / 1.5, 2.0),
    ]
    for res, bases, top in cases:
        assert math.isfinite(res.value) and res.value > 0.0
        want = _mp_slice(levels, bases, top, res.eps_star)
        assert res.value == pytest.approx(float(want), rel=1e-13)
        picks = res.eps[::257]
        got = res.slice_values[::257]
        ref = [float(_mp_slice(levels, bases, top, e)) for e in picks]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
    eps = np.array([0.1, 0.5, 0.9])
    got = grand_lorentz_slice_values(f, 2.0, 2.0, eps)
    ref = [float(_mp_slice(levels, np.diff(bk), 2.0, e)) for e in eps]
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
    got = grand_lambda_slice_values(f, 2.0, eps, w)
    ref = [float(_mp_slice(levels, np.diff(bk ** 1.5) / 1.5, 2.0, e)) for e in eps]
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(log_levels=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
       widths=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
       log_c=st.floats(-250.0, 250.0),
       p=st.floats(1.1, 6.0), q=st.floats(1.1, 6.0))
def test_grand_kinds_are_homogeneous(log_levels, widths, log_c, p, q):
    n = len(log_levels)
    bk = np.concatenate(([0.0], np.cumsum(widths[:n]) / np.sum(widths[:n])))
    bk[-1] = 1.0
    vals = 10.0 ** np.array(log_levels)
    c = 10.0 ** log_c
    f, g = make_step(bk, vals), make_step(bk, c * vals)
    w = PowerWeight(0.5)
    pairs = [
        (grand_lebesgue_norm(g, p).value, grand_lebesgue_norm(f, p).value),
        (grand_lorentz_pq_norm(g, p, q).value, grand_lorentz_pq_norm(f, p, q).value),
        (grand_lambda_norm(g, p, w).value, grand_lambda_norm(f, p, w).value),
    ]
    for scaled, plain in pairs:
        assert math.isfinite(scaled) and scaled > 0.0
        assert scaled == pytest.approx(c * plain, rel=1e-12)
    eps = np.linspace(0.0, q - 1.0, 7)[1:-1]
    np.testing.assert_allclose(grand_lorentz_slice_values(g, p, q, eps),
                               c * grand_lorentz_slice_values(f, p, q, eps),
                               rtol=1e-12, atol=0.0)
