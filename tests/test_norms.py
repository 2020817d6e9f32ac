import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rlab import (DEFAULT_GRID, MeasureDensity, SpaceSpec, average, characteristic, eps_grid,
                  eps_profile, grand_lambda_norm, grand_lebesgue_norm,
                  grand_lorentz_pq_norm, grand_lorentz_slice_values,
                  lorentz_pq_norm, lorentz_pq_star_norm, make_step, norm_value,
                  rearrangement, space_norm, spacespec_from_json)
from rlab.norms import EpsSupResult, _terms
from rlab.weights import PowerWeight, segment_weight_integrals

from oracles import chi_grand_lorentz_slices, gauss_legendre, uniform_grid_eps_sup


def _chi(m):
    return characteristic([(0.0, m)])


def _random_fn(rng):
    n = int(rng.integers(1, 15))
    bk = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n)), [1.0]))
    vals = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n + 1))
    return make_step(bk, vals)


# ---------------------------------------------------------------- closed forms

def test_lorentz_pq_on_indicator():
    # ||chi_E||_{p,q} = |E|^{1/p} for every q
    for p in (1.5, 2.0, 3.0):
        for q in (1.0, 2.0, 3.5):
            got = lorentz_pq_norm(_chi(0.25), p, q)
            assert got == pytest.approx(0.25 ** (1 / p), rel=1e-14)


def test_lorentz_pq_indicator_half_example():
    assert lorentz_pq_norm(_chi(0.25), 2.0, 2.0) == pytest.approx(0.5, rel=1e-14)


def test_lorentz_pq_weak_branch():
    # q = inf: sup_t t^{1/p} f*(t)
    f = make_step([0.0, 0.25, 1.0], [2.0, 1.0])
    got = lorentz_pq_norm(f, 2.0, math.inf)
    want = max(2.0 * 0.25 ** 0.5, 1.0)
    assert got == pytest.approx(want, rel=1e-14)


def test_lorentz_star_on_indicator():
    # f** = 1 on (0, m], m/t after; the t-integral runs over all t > 0, so
    # ||chi||*_{2,2}^2 = m + m^2 int_m^inf t^-2 dt = 2m
    m = 0.25
    got = lorentz_pq_star_norm(_chi(m), 2.0, 2.0)
    assert got == pytest.approx(math.sqrt(2 * m), rel=1e-10)


def test_star_norm_dominates_plain_norm():
    rng = np.random.default_rng(31)
    for _ in range(10):
        f = _random_fn(rng)
        for p, q in ((1.5, 1.0), (2.0, 2.0), (3.0, 1.5)):
            assert lorentz_pq_star_norm(f, p, q) >= lorentz_pq_norm(f, p, q) * (1 - 1e-9)


def test_star_norm_weak_branch():
    # q = inf: t^{1/2} on (0,m] increases, m t^{-1/2} beyond decreases
    m, p = 0.25, 2.0
    got = lorentz_pq_star_norm(_chi(m), p, math.inf)
    assert got == pytest.approx(m ** 0.5, rel=1e-12)


def _star_norm_loop(f, p, q):
    """The f** norm one segment at a time, one gauss_legendre call per
    mixed segment: the reference for the vectorized sums."""
    avg = average(rearrangement(f))
    bk, e = avg.breakpoints, q / p
    total = 0.0
    for i in range(len(avg.a)):
        t1, t2, a, b = bk[i], bk[i + 1], avg.a[i], avg.b[i]
        if b == 0.0:
            total += a**q * (t2**e - t1**e) / e
        elif a == 0.0:
            total += b**q * (t2 ** (e - q) - t1 ** (e - q)) / (e - q)
        else:
            total += gauss_legendre(lambda t: t ** (e - 1.0) * (a + b / t) ** q, t1, t2)
    total -= avg.tail_mass**q * bk[-1] ** (e - q) / (e - q)
    return (q / p * total) ** (1.0 / q)


@pytest.mark.parametrize("n", [10, 300, 3000])
def test_star_norm_matches_segment_loop(n):
    rng = np.random.default_rng(101 + n)
    bk = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]))
    f = make_step(bk, np.exp(rng.uniform(-3.0, 3.0, n)) * (rng.uniform(size=n) > 0.2))
    for p, q in ((2.0, 3.0), (1.5, 1.2), (4.0, 7.5)):
        assert lorentz_pq_star_norm(f, p, q) == pytest.approx(_star_norm_loop(f, p, q),
                                                              rel=1e-13)


def test_star_norm_overflow_raises_instead_of_inf():
    # f** = f on (0, 1] and f/t past 1, so the (2, 2) norm of f = 1.5e308
    # is 1.5e308 * sqrt(2), past the float range; numpy would give inf
    f = make_step([0.0, 1.0], [1.5e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape either
        with pytest.raises(OverflowError):
            lorentz_pq_star_norm(f, 2.0, 2.0)


_HUGE = make_step([0.0, 1.0], [1e308])


@pytest.mark.parametrize("spec", [
    # under a density of 4, f* runs to 4: rescaling it to (0, 1) overflowed
    SpaceSpec("lorentz_pq", 0.5, 2.0, measure=MeasureDensity(make_step([0.0, 1.0], [4.0]))),
    SpaceSpec("lambda_classical", 2.0, weight=PowerWeight(0.0, 1e10)),  # 1e5 * 1e308
    SpaceSpec("grand_lorentz_pq", 2.0, 3.0),  # the sup is about 2e308
], ids=["lorentz_pq-mass-4", "lambda_classical", "grand_lorentz_pq"])
def test_norm_past_the_float_range_raises_instead_of_inf(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError):
            space_norm(_HUGE, spec)


@pytest.mark.parametrize("bk,levels,p,q", [
    (np.linspace(0.0, 1.0, 101), np.arange(100.0, 0.0, -1.0), 2.0, 400.0),  # a**q overflows
    ([0.0, 0.5, 1.0], [1e-200, 3e-201], 2.0, 3.0),  # a**q underflows
    ([0.0, 0.5, 1.0], [1.0, 1e-10], 2.0, 400.0),    # so does t**(q/p) on the first segment
    ([0.0, 1e-3, 1.0], [1.0, 1e-10], 2.0, 400.0),   # and the whole second-segment integrand
    # undivided by its peak, this integrand is below 1e-14, where an absolute
    # error floor of 1e-14 would pass one panel 1.7% low
    ([0.0, 1e-3, 1.0], [1.0, 1e-2], 2.0, 40.0),
])
def test_star_norm_extreme_levels_match_mpmath(bk, levels, p, q):
    f = make_step(bk, levels)  # levels already nonincreasing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lorentz_pq_star_norm(f, p, q)
    assert got == pytest.approx(float(_mp_star_norm(bk, levels, p, q)), rel=1e-10, abs=0.0)


def test_star_norm_is_homogeneous_against_mpmath():
    bk = [0.0, 0.2, 0.45, 1.0]
    levels = [3.0, 1.0, 0.25]
    want = _mp_star_norm(bk, levels, 2.0, 3.0)
    for log_c in (-250, -120, 0, 120, 250):
        c = 10.0 ** log_c
        got = lorentz_pq_star_norm(make_step(bk, [c * v for v in levels]), 2.0, 3.0)
        assert got == pytest.approx(float(want * mpmath.mpf(c)), rel=1e-10, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(log_levels=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
       widths=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
       log_c=st.floats(-250.0, 250.0),
       p=st.floats(1.1, 6.0), q=st.floats(0.5, 60.0))
def test_star_norm_is_homogeneous(log_levels, widths, log_c, p, q):
    n = len(log_levels)
    bk = np.concatenate(([0.0], np.cumsum(widths[:n]) / np.sum(widths[:n])))
    bk[-1] = 1.0
    vals = 10.0 ** np.array(log_levels)
    c = 10.0 ** log_c
    scaled = lorentz_pq_star_norm(make_step(bk, c * vals), p, q)
    assert math.isfinite(scaled) and scaled > 0.0
    assert scaled == pytest.approx(c * lorentz_pq_star_norm(make_step(bk, vals), p, q),
                                   rel=1e-12, abs=0.0)


def test_grand_lebesgue_indicator_closed_form():
    # ||chi||_{p)} = sup_eps (eps m)^{1/(p-eps)}
    m, p = 0.25, 2.0
    want, _ = uniform_grid_eps_sup(p - 1, lambda e: (e * m) ** (1.0 / (p - e)))
    got = grand_lebesgue_norm(_chi(m), p)
    assert isinstance(got, EpsSupResult)
    assert got.value == pytest.approx(want, rel=1e-6)
    assert got.value >= want - 1e-9


def test_grand_lorentz_indicator_closed_form():
    m, p, q = 0.25, 2.5, 1.8
    fn = chi_grand_lorentz_slices(m, p, q)
    want, _ = uniform_grid_eps_sup(q - 1, fn)
    res = grand_lorentz_pq_norm(_chi(m), p, q)
    assert res.value == pytest.approx(want, rel=1e-6)
    assert res.value >= want - 1e-9


def test_grand_lorentz_weak_branch():
    # q = inf: sup over 0 < t < 1 of t^{1/p} f*(t)
    res = grand_lorentz_pq_norm(_chi(0.25), 2.0, math.inf)
    assert res.value == pytest.approx(0.5, rel=1e-14)
    assert res.eps_star is None and res.endpoint_limit is None


def test_grand_lorentz_pp_matches_grand_lebesgue():
    rng = np.random.default_rng(17)
    for _ in range(8):
        f = _random_fn(rng)
        for p in (1.5, 2.0, 3.0):
            a = grand_lorentz_pq_norm(f, p, p).value
            b = grand_lebesgue_norm(f, p).value
            assert a == pytest.approx(b, rel=1e-10)


def test_space_norm_dispatch_matches_direct_calls():
    f = _chi(0.25)
    assert space_norm(f, SpaceSpec("lorentz_pq", p=2.0, q=2.0)) == \
        lorentz_pq_norm(f, 2.0, 2.0)
    assert space_norm(f, SpaceSpec("lorentz_pq_star", p=2.0, q=2.0)) == \
        lorentz_pq_star_norm(f, 2.0, 2.0)
    assert norm_value(f, SpaceSpec("grand_lebesgue", p=2.0)) == \
        grand_lebesgue_norm(f, 2.0).value
    assert norm_value(f, SpaceSpec("grand_lorentz_pq", p=2.0, q=1.5)) == \
        grand_lorentz_pq_norm(f, 2.0, 1.5).value


_STEP_MU = MeasureDensity(make_step([0.0, 0.3, 0.8, 1.0], [2.0, 0.5, 1.5]))
_SIGNED = make_step([0.0, 0.2, 0.45, 0.7, 1.0], [1.5, -4.0, 0.25, 2.0])
_MEASURES = pytest.mark.parametrize("mu", [None, _STEP_MU], ids=["lebesgue", "step_measure"])
_WEIGHTS = pytest.mark.parametrize(
    "w", [PowerWeight(0.5, 2.0), make_step([0.0, 0.4, 1.0], [3.0, 0.5])], ids=["power", "step"])


@_WEIGHTS
@_MEASURES
@pytest.mark.parametrize("kind", ["lorentz_pq", "lorentz_pq_star", "grand_lebesgue",
                                  "grand_lorentz_pq", "lambda_classical", "lambda_grand"])
def test_space_norm_dispatch_matches_direct_calls_per_kind(kind, mu, w):
    # kinds that take no weight (or, grand_lebesgue, no measure) ignore it
    f = _SIGNED
    args, direct = {
        "lorentz_pq": (dict(p=2.0, q=3.0, measure=mu),
                       lambda: lorentz_pq_norm(f, 2.0, 3.0, mu)),
        "lorentz_pq_star": (dict(p=2.0, q=3.0, measure=mu),
                            lambda: lorentz_pq_star_norm(f, 2.0, 3.0, mu)),
        "grand_lebesgue": (dict(p=2.0), lambda: grand_lebesgue_norm(f, 2.0)),
        "grand_lorentz_pq": (dict(p=2.0, q=1.5, measure=mu),
                             lambda: grand_lorentz_pq_norm(f, 2.0, 1.5, mu)),
        "lambda_classical": (dict(p=2.0, weight=w, measure=mu),  # no wrapper: norm_value
                             lambda: norm_value(f, SpaceSpec("lambda_classical", 2.0, weight=w,
                                                             measure=mu))),
        "lambda_grand": (dict(p=2.5, weight=w, measure=mu),
                         lambda: grand_lambda_norm(f, 2.5, w, mu)),
    }[kind]
    spec = SpaceSpec(kind, **args)
    want, got = direct(), space_norm(f, spec)
    if isinstance(want, EpsSupResult):
        assert (got.value, got.eps_star, got.endpoint_limit) == \
            (want.value, want.eps_star, want.endpoint_limit)
        assert np.array_equal(got.eps, want.eps)
        assert np.array_equal(got.slice_values, want.slice_values)
        assert norm_value(f, spec) == want.value
        # space_norm samples no profile; eps_profile adds one to the same bracket
        assert got.eps.size == 0
        got = eps_profile(f, spec)
        assert got.eps.size == DEFAULT_GRID
        assert got.value == max(want.value, got.slice_values.max())
        assert got.upper == max(want.upper, got.value)
    else:
        assert got == want and norm_value(f, spec) == want


@_WEIGHTS
@_MEASURES
def test_slice_functions_equal_profile_slices(mu, w):
    f = _SIGNED
    prof = eps_profile(f, SpaceSpec("grand_lorentz_pq", 2.0, 1.5, measure=mu))
    assert np.array_equal(grand_lorentz_slice_values(f, 2.0, 1.5, eps_grid(0.5), mu=mu),
                          prof.slice_values)
    # lambda slices (eps int_0^1 f*^(p-eps) w dt)^(1/(p-eps)), summed plainly
    prof = eps_profile(f, SpaceSpec("lambda_grand", 2.5, weight=w, measure=mu))
    bk, levels = rearrangement(f, mu).segments(1.0)
    s = 2.5 - prof.eps[:, None]
    want = (prof.eps * np.sum(segment_weight_integrals(w, bk) * levels**s, axis=1)) ** (1.0 / s[:, 0])
    np.testing.assert_allclose(prof.slice_values, want, rtol=1e-13, atol=0.0)


def test_lambda_norm_weighted():
    # weight t: ||f||^2 = int_0^1 f*(t)^2 t dt, f already nonincreasing
    f = make_step([0.0, 0.5, 1.0], [2.0, 1.0])
    spec = SpaceSpec("lambda_classical", p=2.0, weight=PowerWeight(1.0))
    want = math.sqrt(4.0 * 0.125 + 1.0 * (0.5 - 0.125))
    assert norm_value(f, spec) == pytest.approx(want, rel=1e-12)


def test_grand_lambda_reduces_to_grand_lorentz():
    # p = q kills both the t-power and the q/p prefactor
    f = _chi(0.3)
    res = grand_lambda_norm(f, 2.0, PowerWeight(0.0))
    want = grand_lorentz_pq_norm(f, 2.0, 2.0).value
    assert res.value == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------- invariances

def test_positive_homogeneity():
    rng = np.random.default_rng(3)
    f = _random_fn(rng)
    g = make_step(f.breakpoints, 3.0 * f.values)
    for spec in (SpaceSpec("lorentz_pq", p=2.0, q=1.5),
                 SpaceSpec("grand_lebesgue", p=2.0),
                 SpaceSpec("grand_lorentz_pq", p=2.5, q=1.5)):
        assert norm_value(g, spec) == pytest.approx(3.0 * norm_value(f, spec),
                                                    rel=1e-12)


def test_rearrangement_invariance_under_shuffle():
    # permuting the cells of an equal-width step function preserves every norm
    rng = np.random.default_rng(23)
    vals = np.exp(rng.uniform(-3, 3, 16))
    bk = np.linspace(0.0, 1.0, 17)
    f = make_step(bk, vals)
    g = make_step(bk, rng.permutation(vals))
    for spec in (SpaceSpec("lorentz_pq", p=2.0, q=3.0),
                 SpaceSpec("lorentz_pq_star", p=2.0, q=2.0),
                 SpaceSpec("grand_lebesgue", p=1.5),
                 SpaceSpec("grand_lorentz_pq", p=2.0, q=1.2)):
        assert norm_value(f, spec) == pytest.approx(norm_value(g, spec),
                                                    rel=1e-12)


def test_lattice_monotonicity():
    rng = np.random.default_rng(41)
    f = _random_fn(rng)
    g = make_step(f.breakpoints, f.values * rng.uniform(0.2, 1.0, f.values.size))
    for spec in (SpaceSpec("lorentz_pq", p=2.0, q=2.0),
                 SpaceSpec("grand_lorentz_pq", p=2.0, q=1.5)):
        assert norm_value(g, spec) <= norm_value(f, spec) * (1 + 1e-12)


def test_zero_function_all_kinds():
    z = make_step([0.0, 1.0], [0.0])
    for spec in (SpaceSpec("lorentz_pq", p=2.0, q=2.0),
                 SpaceSpec("lorentz_pq", p=2.0, q=math.inf),
                 SpaceSpec("lorentz_pq_star", p=2.0, q=2.0),
                 SpaceSpec("grand_lebesgue", p=2.0),
                 SpaceSpec("grand_lorentz_pq", p=2.0, q=2.0)):
        assert norm_value(z, spec) == 0.0


def test_norm_respects_measure():
    # doubling the measure scales ||f||_{p,q} by 2^{1/p}
    f = make_step([0.0, 0.4, 1.0], [3.0, 1.0])
    mu = MeasureDensity(make_step([0.0, 1.0], [2.0]))
    p, q = 2.0, 1.5
    got = lorentz_pq_norm(f, p, q, mu=mu)
    want = 2.0 ** (1 / p) * lorentz_pq_norm(f, p, q)
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------- eps machinery

def test_eps_grid_shape_and_bounds():
    g = eps_grid(1.0)
    assert g.size == 2048
    assert np.all(np.diff(g) > 0)
    assert g[0] == pytest.approx(1e-6, rel=1e-12)
    assert g[-1] == pytest.approx(1.0 - 1e-6, rel=1e-12)
    small = eps_grid(0.5, size=64)
    assert small.size == 64 and small[-1] < 0.5


def test_eps_grid_validation():
    with pytest.raises(ValueError):
        eps_grid(0.0)
    with pytest.raises(ValueError):
        eps_grid(1.0, size=4)


def test_eps_sup_result_profile_and_json():
    # only eps_profile samples the profile
    res = eps_profile(_chi(0.25), SpaceSpec("grand_lorentz_pq", 2.0, 2.0), DEFAULT_GRID)
    assert res.eps.size == res.slice_values.size > 0
    assert res.value >= np.max(res.slice_values) - 1e-15
    assert res.endpoint_limit is None  # interior maximizer for this profile
    assert 0 < res.eps_star < 1.0
    # to_json is the bracket `rlab norm --out` writes, without the profile
    blob = json.loads(json.dumps(res.to_json()))
    assert list(blob) == ["value", "upper", "evals", "eps_star", "endpoint_limit"]
    assert (blob["value"], blob["eps_star"]) == (res.value, res.eps_star)


def test_eps_profile_requires_grand_kind():
    f = _chi(0.25)
    res = eps_profile(f, SpaceSpec("grand_lebesgue", p=2.0))
    assert res.value == grand_lebesgue_norm(f, 2.0).value
    with pytest.raises(ValueError):
        eps_profile(f, SpaceSpec("lorentz_pq", p=2.0, q=2.0))


def test_grand_slice_values_against_indicator_formula():
    f = _chi(0.25)
    p, q = 2.0, 2.0
    res = eps_profile(f, SpaceSpec("grand_lorentz_pq", p, q))
    sl = grand_lorentz_slice_values(f, p, q, res.eps)
    assert np.all(sl <= res.value + 1e-12)
    want = chi_grand_lorentz_slices(0.25, p, q)(res.eps)
    assert np.max(np.abs(sl - want)) < 1e-12


def test_slice_values_measure_and_weight_arguments():
    # explicit Lebesgue measure and the trivial power weight change nothing
    f = make_step([0.0, 0.5, 1.0], [2.0, 1.0])
    mu = MeasureDensity(make_step([0.0, 1.0], [1.0]))
    eps = np.array([0.25, 0.5])
    base = grand_lorentz_slice_values(f, 2.0, 2.0, eps)
    assert np.allclose(grand_lorentz_slice_values(f, 2.0, 2.0, eps, mu=mu),
                       base, rtol=1e-14)
    weighted = grand_lorentz_slice_values(f, 2.0, 2.0, eps,
                                          t_weight=PowerWeight(0.0))
    assert np.allclose(weighted, base, rtol=1e-12)


def test_t_weight_past_one_keeps_its_value_at_one():
    # under a mass-2 measure f = 1 has f* = 1 on (0, 2), and the weighted
    # sum is (q/p) int_0^2 w(t) t^(q/p-1) dt; past t = 1 a step weight keeps
    # its value at 1 (the merge's end rule) and a power weight its formula
    f = make_step([0.0, 1.0], [1.0])
    mu = MeasureDensity(make_step([0.0, 1.0], [2.0]))
    step = make_step([0.0, 0.5, 1.0], [1.0, 3.0])
    for p, q in ((2.0, 2.0), (2.0, 3.0)):
        s = q / p
        cases = ((step, 0.5**s + 3.0 * (2.0**s - 0.5**s)),   # 3 on (0.5, 2)
                 (PowerWeight(1.0), s * 2.0 ** (s + 1.0) / (s + 1.0)))
        for w, want in cases:
            levels, base, top = _terms(f, SpaceSpec("lorentz_pq", p, q, measure=mu), w)
            assert float(np.sum(base * levels**top)) == pytest.approx(want, rel=1e-14)


def test_slice_values_reject_bad_t_weight():
    f = make_step([0.0, 0.3, 1.0], [2.0, 1.0])
    eps = np.array([0.25, 0.5])
    with pytest.raises(ValueError):
        grand_lorentz_slice_values(f, 2.0, 2.0, eps,
                                   t_weight=make_step([0.0, 0.5, 1.0], [1.0, -1.0]))
    with pytest.raises(ValueError):
        grand_lorentz_slice_values(f, 2.0, 2.0, eps, t_weight=2.0)


# ---------------------------------------------------------------- SpaceSpec

def test_spacespec_validation():
    with pytest.raises(ValueError):
        SpaceSpec("lorentz_pq", p=2.0)  # q missing
    with pytest.raises(ValueError):
        SpaceSpec("grand_lebesgue", p=1.0)  # needs p > 1
    with pytest.raises(ValueError):
        SpaceSpec("grand_lebesgue", p=2.0, q=2.0)  # q not accepted
    with pytest.raises(ValueError):
        SpaceSpec("lorentz_pq", p=2.0, q=2.0, weight=PowerWeight(1.0))
    with pytest.raises(ValueError):
        SpaceSpec("lambda_classical", p=2.0)  # weight missing
    with pytest.raises(ValueError):
        SpaceSpec("no_such_space", p=2.0)


def test_spacespec_from_json():
    cases = [
        ('{"kind": "lorentz_pq", "p": 2.0, "q": "inf"}', SpaceSpec("lorentz_pq", p=2.0, q=math.inf)),
        ('{"kind": "grand_lorentz_pq", "p": 2.5, "q": 1.2}', SpaceSpec("grand_lorentz_pq", p=2.5, q=1.2)),
        ('{"kind": "lambda_classical", "p": 2.0, "weight": {"power_weight": {"alpha": 1.0}}}',
         SpaceSpec("lambda_classical", p=2.0, weight=PowerWeight(1.0))),
    ]
    for text, spec in cases:
        assert spacespec_from_json(json.loads(text)) == spec
    # p and q are stored as validated floats, so raw inputs compare equal
    loose = spacespec_from_json({"kind": "grand_lorentz_pq", "p": 2, "q": "Infinity"})
    assert loose == SpaceSpec("grand_lorentz_pq", 2, "inf") and type(loose.p) is float
    with pytest.raises(ValueError):
        spacespec_from_json({"kind": "lorentz_pq", "p": 2.0, "q": "huge"})
    with pytest.raises(ValueError):
        spacespec_from_json({"kind": "lorentz_pq", "q": 2.0})  # p missing


def test_grand_norm_grid_size_override():
    f = _chi(0.25)
    spec = SpaceSpec("grand_lorentz_pq", 2.0, 2.0)
    coarse, fine = eps_profile(f, spec, 64), eps_profile(f, spec, 4096)
    assert coarse.eps.size == 64 and fine.eps.size == 4096
    assert coarse.value == pytest.approx(fine.value, rel=1e-8)


# ---------------------------------------------------------------- scale safety

def _mp_power_sum(levels, bases, s):
    """(sum levels**s * bases)**(1/s) in 60-digit arithmetic."""
    with mpmath.workdps(60):
        total = mpmath.fsum(mpmath.mpf(v) ** s * b for v, b in zip(levels, bases))
        return total ** (1 / mpmath.mpf(s))


def _mp_star_norm(breakpoints, levels, p, q, dps=40):
    """((q/p) int_0^inf t^(q/p-1) f**(t)^q dt)^(1/q) in dps-digit arithmetic
    for nonincreasing levels on (0, 1) under Lebesgue measure and integer q.

    On a segment f** = a + b/t, so the integrand t^(e-1-q) (a t + b)^q
    (e = q/p) expands binomially into exact power-rule integrals of
    positive terms; past t = 1, f** = mass/t in closed form.
    """
    assert q == int(q), "the binomial expansion needs integer q"
    q = int(q)
    with mpmath.workdps(dps):
        e = mpmath.mpf(q) / mpmath.mpf(p)
        bk = [mpmath.mpf(b) for b in breakpoints]
        total, mass = mpmath.mpf(0), mpmath.mpf(0)
        for t1, t2, v in zip(bk[:-1], bk[1:], levels):
            a = mpmath.mpf(v)
            b = mass - a * t1
            if b == 0:  # f** = a from t = 0
                total += a ** q * t2 ** e / e
            else:  # k-th term: C(q, k) a^k b^(q-k) int_t1^t2 t^(m-1) dt, m = e - q + k
                terms, coef, p1, p2 = [], b ** q, t1 ** (e - q), t2 ** (e - q)
                for k in range(q + 1):
                    m = e - q + k
                    terms.append(coef * (mpmath.log(t2 / t1) if m == 0 else (p2 - p1) / m))
                    coef, p1, p2 = coef * (q - k) / (k + 1) * a / b, p1 * t1, p2 * t2
                total += mpmath.fsum(terms)
            mass += a * (t2 - t1)
        total += mass ** q * bk[-1] ** (e - q) / (q - e)
        return (e * total) ** (mpmath.mpf(1) / q)


def _mp_diff_pow(bk, e):
    with mpmath.workdps(60):
        return [mpmath.mpf(b) ** e - mpmath.mpf(a) ** e for a, b in zip(bk[:-1], bk[1:])]


@pytest.mark.parametrize("levels,p,q", [
    ([1e3, 1e-3], 2.0, 120.0),        # powers overflow without factoring
    ([3e-200, 1e-200], 2.0, 3.0),     # powers underflow to 0.0
    ([1e250, 1e-250], 1.5, 4.0),
])
def test_lorentz_pq_norm_extreme_levels_match_mpmath(levels, p, q):
    bk = np.linspace(0.0, 1.0, len(levels) + 1)  # levels already nonincreasing
    got = lorentz_pq_norm(make_step(bk, levels), p, q)
    with mpmath.workdps(60):
        want = _mp_power_sum(levels, _mp_diff_pow(bk, mpmath.mpf(q) / p), q)
    assert math.isfinite(got) and got > 0.0
    assert got == pytest.approx(float(want), rel=1e-13)


def test_lorentz_pq_norm_example_value():
    f = make_step([0.0, 0.5, 1.0], [1e3, 1e-3])
    assert lorentz_pq_norm(f, 2.0, 120.0) == pytest.approx(1e3 * math.sqrt(0.5), rel=1e-13)


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_lorentz_pq_norm_under_a_dense_measure_matches_mpmath(p):
    # f* runs to t = 1e10, where t**(q/p) overflows: the bases were inf - inf
    f = make_step([0.0, 0.5, 1.0], [2.0, 1e-3])
    mu = MeasureDensity(make_step([0.0, 1.0], [1e10]))
    got = lorentz_pq_norm(f, p, 40.0, mu)
    want = _mp_power_sum([2.0, 1e-3], _mp_diff_pow([0.0, 5e9, 1e10], mpmath.mpf(40) / p), 40.0)
    assert got == pytest.approx(float(want), rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(log_levels=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
       widths=st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6),
       log_density=st.floats(-10.0, 10.0),
       p=st.floats(1.1, 8.0), q=st.floats(0.5, 200.0))
def test_finite_inputs_never_give_nan(log_levels, widths, log_density, p, q):
    n = len(log_levels)
    bk = np.concatenate(([0.0], np.cumsum(widths[:n]) / np.sum(widths[:n])))
    bk[-1] = 1.0
    f = make_step(bk, 10.0 ** np.array(log_levels))
    mu = MeasureDensity(make_step([0.0, 0.5, 1.0], [10.0 ** log_density, 1.0]))
    for value in (lorentz_pq_norm(f, p, q, mu), lorentz_pq_norm(f, p / 4.0, q, mu),
                  lorentz_pq_star_norm(f, p, q, mu)):
        assert math.isfinite(value)  # neither NaN nor inf

def test_lorentz_pq_norm_with_every_power_underflowing_matches_mpmath():
    # f* is 1 on (0, 0.005) and 1e-3 on (0.005, 0.505), q/p = 284.4: the first
    # base 0.005^284.4 underflows in _terms, and the other term (1e-3)^80 *
    # 4e-85 as a product; the norm was a silent 0.0
    f = make_step([0.0, 0.5, 1.0], [1.0, 1e-3])
    mu = MeasureDensity(make_step([0.0, 0.5, 1.0], [0.01, 1.0]))
    got = lorentz_pq_norm(f, 0.28125, 80.0, mu)
    want = _mp_power_sum([1.0, 1e-3], _mp_diff_pow([0.0, 0.005, 0.505], mpmath.mpf(80) / 0.28125),
                         80.0)
    assert float(want) == pytest.approx(8.8112193137224224e-5, rel=1e-15)
    assert got == pytest.approx(float(want), rel=1e-12)


def test_lorentz_pq_norm_with_an_underflowing_base_matches_mpmath():
    # f = 1 under the density {0.01, 1}: f* is 1 on (0, 0.505) and 0 on to
    # t = 1; scaled by t = 1 its one base 0.505^1092 underflowed and the norm
    # was a silent 0.0.  The norm is 0.505^(1/p)
    mu = MeasureDensity(make_step([0.0, 0.5, 1.0], [0.01, 1.0]))
    got = lorentz_pq_norm(make_step([0.0, 1.0], [1.0]), 0.25, 273.0, mu)
    want = _mp_power_sum([1.0], _mp_diff_pow([0.0, 0.005 + 0.5], mpmath.mpf(273) / 0.25), 273.0)
    assert float(want) == pytest.approx(0.505**4, rel=1e-14)
    assert got == pytest.approx(float(want), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(log_levels=st.lists(st.floats(-300.0, 0.0), min_size=1, max_size=6),
       p=st.floats(0.25, 8.0), q=st.floats(1.0, 1e4), alpha=st.floats(-0.9, 3.0),
       dense=st.booleans())
@example(log_levels=[0.0, -3.0], p=0.28125, q=80.0, alpha=0.0, dense=True)
@example(log_levels=[0.0], p=0.25, q=273.0, alpha=0.0, dense=True)  # f* ends in a zero level
def test_plain_norms_of_tiny_levels_are_never_zero(log_levels, p, q, alpha, dense):
    # the smallest level (>= 1e-300) fills a set of measure >= 1/600, the
    # last of f*'s support, so both norms exceed about 1e-306 for any q/p
    # (q/p runs to 4e4; p >= 0.25 keeps the norm itself, up to 0.505^(1/p)
    # times a level, inside the float range)
    bk = np.linspace(0.0, 1.0, len(log_levels) + 1)
    f = make_step(bk, 10.0 ** np.array(log_levels))
    mu = MeasureDensity(make_step([0.0, 0.5, 1.0], [0.01, 1.0])) if dense else None
    for value in (lorentz_pq_norm(f, p, q, mu),
                  space_norm(f, SpaceSpec("lambda_classical", q, weight=PowerWeight(alpha), measure=mu))):
        assert 0.0 < value < math.inf


def test_lambda_norm_extreme_levels_match_mpmath():
    bk = [0.0, 0.25, 0.5, 1.0]
    levels = [4e-200, 1e-201, 2e-250]
    step_w = make_step(bk, [3.0, 1.0, 2.0])
    cases = [
        (PowerWeight(0.5), 150.0, [1e3, 1e-3, 1e-3],
         [(b ** 1.5 - a ** 1.5) / 1.5 for a, b in zip(bk[:-1], bk[1:])]),
        (step_w, 2.0, levels, [w * (b - a) for w, a, b in zip([3, 1, 2], bk[:-1], bk[1:])]),
    ]
    for weight, p, vals, bases in cases:
        got = space_norm(make_step(bk, vals), SpaceSpec("lambda_classical", p, weight=weight))
        want = _mp_power_sum(vals, bases, p)
        assert math.isfinite(got) and got > 0.0
        assert got == pytest.approx(float(want), rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(log_levels=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
       widths=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
       log_c=st.floats(-200.0, 200.0),
       p=st.floats(0.5, 8.0), q=st.floats(0.5, 150.0))
def test_exact_norms_are_homogeneous(log_levels, widths, log_c, p, q):
    n = len(log_levels)
    bk = np.concatenate(([0.0], np.cumsum(widths[:n]) / np.sum(widths[:n])))
    bk[-1] = 1.0
    vals = 10.0 ** np.array(log_levels)
    c = 10.0 ** log_c
    f, g = make_step(bk, vals), make_step(bk, c * vals)
    assert lorentz_pq_norm(g, p, q) == pytest.approx(c * lorentz_pq_norm(f, p, q), rel=1e-12, abs=0.0)
    lam = SpaceSpec("lambda_classical", p, weight=PowerWeight(0.5))
    assert space_norm(g, lam) == pytest.approx(c * space_norm(f, lam), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spec", [SpaceSpec("grand_lebesgue", 3.0),
                                  SpaceSpec("grand_lorentz_pq", 2.0, 3.0),
                                  SpaceSpec("lambda_grand", 3.0, weight=PowerWeight(0.5))],
                         ids=["grand_lebesgue", "grand_lorentz_pq", "lambda_grand"])
def test_grand_bracket_of_levels_spanning_past_the_float_range(spec):
    # vmax / vmin = 1e600 overflows and vmin / vmax underflows: the slice's
    # log-ratios and the bracket's spread are formed as differences of logs
    f = make_step([0.0, 0.3, 0.6, 1.0], [1e300, 1e-300, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = space_norm(f, spec)
    assert math.isfinite(res.upper)
    assert res.value <= res.upper <= res.value * (1.0 + 1e-11)
    if spec.kind == "grand_lebesgue":
        # the sup over eps of (eps * int |f|^(3-eps))^(1/(3-eps)), at 40 digits
        with mpmath.workdps(40):
            def log_slice(e):
                s = 3 - e
                mass = sum(mpmath.mpf(w) * mpmath.mpf(v) ** s
                           for w, v in (("0.3", "1e300"), ("0.3", "1e-300"), ("0.4", 2)))
                return mpmath.log(e * mass) / s
            sup = mpmath.exp(log_slice(mpmath.findroot(lambda e: mpmath.diff(log_slice, e), 1.0)))
        assert res.value <= float(sup) * (1.0 + 1e-15) and float(sup) <= res.upper
