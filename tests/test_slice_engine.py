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

from rlab import (DEFAULT_GRID, SpaceSpec, eps_profile, grand_lambda_norm,
                  grand_lebesgue_norm, grand_lorentz_pq_norm,
                  grand_lorentz_slice_values, make_step, random_step_function,
                  space_norm)
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
        res = eps_profile(make_step(bk, vals), SpaceSpec("grand_lorentz_pq", p, q), DEFAULT_GRID)
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


def _mp_eps_sup(levels, bases, top, scan=240):
    """sup over 0 < eps < top - 1 of _mp_slice, the one-sided limit at
    eps = top - 1 included.

    A scan on a uniform grid with extra points clustered at both ends finds
    the best cell; golden section on its two neighbours then narrows eps to
    about 1e-30, far below where the flat top of the curve can move the
    value at double precision.
    """
    with mpmath.workdps(60):
        limit = mpmath.mpf(top) - 1
        slice_at = lambda e: _mp_slice(levels, bases, top, e)
        ends = [mpmath.mpf(10) ** -k for k in range(1, 13)]
        grid = sorted(set([limit * k / scan for k in range(1, scan)]
                          + [limit * x for x in ends] + [limit * (1 - x) for x in ends]))
        vals = [slice_at(e) for e in grid]
        i = max(range(len(grid)), key=vals.__getitem__)
        a = grid[i - 1] if i > 0 else grid[0] / 10
        b = grid[i + 1] if i + 1 < len(grid) else limit
        ratio = (mpmath.sqrt(5) - 1) / 2
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        fc, fd = slice_at(c), slice_at(d)
        best = max(vals[i], fc, fd, slice_at(limit))
        while b - a > mpmath.mpf(10) ** -30:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - ratio * (b - a)
                fc = slice_at(c)
            else:
                a, c, fc = c, d, fd
                d = a + ratio * (b - a)
                fd = slice_at(d)
            best = max(best, fc, fd)
        return best


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_grand_kinds_at_extreme_levels_match_mpmath(scale):
    bk = np.array([0.0, 0.25, 0.5, 1.0])
    levels = scale * np.array([3.0, 1.0, 0.5])  # already nonincreasing
    f = make_step(bk, levels)
    w = PowerWeight(0.5)
    lengths = np.diff(bk)
    grid = DEFAULT_GRID  # the profile slices are checked too
    cases = [
        (eps_profile(f, SpaceSpec("grand_lebesgue", 2.5), grid), lengths, 2.5),
        (eps_profile(f, SpaceSpec("grand_lorentz_pq", 2.0, 3.0), grid), np.diff(bk ** 1.5), 3.0),
        (eps_profile(f, SpaceSpec("lambda_grand", 2.0, weight=w), grid),
         np.diff(bk ** 1.5) / 1.5, 2.0),
    ]
    for res, bases, top in cases:
        assert math.isfinite(res.value) and res.value > 0.0
        want = _mp_slice(levels, bases, top, res.eps_star)
        assert res.value == pytest.approx(float(want), rel=1e-13)
        assert res.eps.size == grid
        picks = res.eps[::257]
        got = res.slice_values[::257]
        ref = [float(_mp_slice(levels, bases, top, e)) for e in picks]
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
    eps = np.array([0.1, 0.5, 0.9])
    got = grand_lorentz_slice_values(f, 2.0, 2.0, eps)
    ref = [float(_mp_slice(levels, np.diff(bk), 2.0, e)) for e in eps]
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


# ---------------------------------------------------------------- certification

def _corpus_terms(f, kind):
    """(levels, bases, top) of a grand kind on Lebesgue measure, from
    sorting |f| directly rather than through the library's rearrangement."""
    widths, vals = np.diff(f.breakpoints), np.abs(f.values)
    if kind == "grand_lebesgue":
        return vals, widths, 2.5
    order = np.argsort(-vals, kind="stable")
    t = np.concatenate(([0.0], np.cumsum(widths[order])))
    if kind == "grand_lorentz_pq(2,3)":
        return vals[order], np.diff(t ** 1.5), 3.0
    if kind == "grand_lorentz_pq(3,1.5)":
        return vals[order], np.diff(t ** 0.5), 1.5
    return vals[order], np.diff(t ** 1.5) / 1.5, 2.5  # lambda_grand(2.5, t^0.5)


_CORPUS_KINDS = {
    "grand_lebesgue": lambda f: grand_lebesgue_norm(f, 2.5),
    "grand_lorentz_pq(2,3)": lambda f: grand_lorentz_pq_norm(f, 2.0, 3.0),
    "grand_lorentz_pq(3,1.5)": lambda f: grand_lorentz_pq_norm(f, 3.0, 1.5),
    "lambda_grand": lambda f: grand_lambda_norm(f, 2.5, PowerWeight(0.5)),
}


@pytest.mark.parametrize("kind", list(_CORPUS_KINDS))
def test_bracket_contains_the_mpmath_supremum(kind):
    rng = np.random.default_rng(606)
    for _ in range(6):
        f = random_step_function(rng, signed=True)
        res = _CORPUS_KINDS[kind](f)
        sup = _mp_eps_sup(*_corpus_terms(f, kind))
        # value is one rounded slice, so it may sit an ulp or two above the
        # exact supremum; upper is certified and must hold exactly
        assert res.value <= sup * (1 + 1e-14)
        assert sup <= res.upper
        assert (res.upper - res.value) / res.value <= 1e-12
        assert res.evals <= 256


@settings(max_examples=40, deadline=None)
@given(log_levels=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=30),
       widths=st.lists(st.floats(1e-4, 1.0), min_size=30, max_size=30),
       log_c=st.floats(-250.0, 250.0),
       p=st.floats(1.05, 6.0), q=st.floats(1.05, 6.0))
def test_bracket_is_certified_and_bounds_the_profile(log_levels, widths, log_c, p, q):
    n = len(log_levels)
    bk = np.concatenate(([0.0], np.cumsum(widths[:n]) / np.sum(widths[:n])))
    bk[-1] = 1.0
    f = make_step(bk, 10.0 ** (np.array(log_levels) + log_c))
    for spec in (SpaceSpec("grand_lebesgue", p), SpaceSpec("grand_lorentz_pq", p, q),
                 SpaceSpec("lambda_grand", p, weight=PowerWeight(0.5))):
        res = space_norm(f, spec)
        assert 0.0 < res.value <= res.upper
        assert (res.upper - res.value) / res.value <= 1e-12
        assert np.all(eps_profile(f, spec).slice_values <= res.upper)
