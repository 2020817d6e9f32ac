import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rlab import (MeasureDensity, QuadratureError, SpaceSpec, atom_bound,
                  characteristic, cross_weight_check, domination_constant,
                  domination_slice_check, downward_check, empirical_constant,
                  eps_grid, grand_lorentz_pq_norm, make_step, mutual_ac,
                  random_measure, random_step_function, shrinking_probe, wholds_check)
from rlab import embeddings
from rlab.stepfn import pointwise
from rlab.weights import PowerWeight

from oracles import gauss_legendre

ONE = PowerWeight(0.0)  # w(t) = 1, W(1) = 1


def _density(bk, vals):
    return MeasureDensity(make_step(bk, vals))


# ---------------------------------------------------------------- wholds

def test_wholds_unit_weight():
    out = wholds_check(2.0, 2.0, ONE)
    assert out.holds and out.condition_value == 1.0


def test_wholds_heavy_weight_strict_inclusion():
    # W(1) = 4, p < q: exponent negative, sup approached as eps -> 0
    out = wholds_check(2.0, 3.0, PowerWeight(0.0, 4.0))
    assert out.holds
    assert out.condition_value == pytest.approx(4.0 ** (1 / 3 - 1 / 2), rel=1e-5)
    assert out.condition_value < 1.0


def test_wholds_zero_weight_fails_for_p_lt_q():
    out = wholds_check(2.0, 3.0, PowerWeight(0.0, 0.0))
    assert not out.holds
    assert math.isinf(out.condition_value)
    assert out.to_json()["condition_value"] == "inf"


def test_wholds_zero_weight_trivial_for_p_eq_q():
    out = wholds_check(2.0, 2.0, PowerWeight(0.0, 0.0))
    assert out.holds and out.condition_value == 1.0


def test_wholds_rejects_p_above_q():
    with pytest.raises(ValueError):
        wholds_check(3.0, 2.0, ONE)
    with pytest.raises(ValueError):
        wholds_check(1.0, 2.0, ONE)


# ---------------------------------------------------------------- cross weight

def test_cross_weight_unit_weights():
    out = cross_weight_check(2.0, 2.0, ONE, ONE)
    assert out.holds and out.condition_value == pytest.approx(1.0, rel=1e-12)


def test_cross_weight_heavier_target():
    # W(1) = 1, V(1) = 4, p = q = 2: sup_eps 4^{-1/(2-eps)} -> 1/2 at eps -> 0
    out = cross_weight_check(2.0, 2.0, ONE, PowerWeight(0.0, 4.0))
    assert out.holds
    assert out.condition_value == pytest.approx(0.5, rel=1e-5)
    assert out.condition_value <= 0.5


def test_cross_weight_degenerate_target():
    with pytest.raises(ValueError):
        cross_weight_check(2.0, 2.0, ONE, PowerWeight(0.0, 0.0))


# ---------------------------------------------------------------- exact weight suprema

def _mp_weight_sup(p, q, w1, v1, scan=200):
    """sup over 0 < eps < p-1 of W^(1/(q-eps)) V^(-1/(p-eps)) in 40 digits,
    from the exact masses w1, v1 (mpf): a uniform scan of the log, endpoints
    included, then golden section on the best cell's neighbours down to an
    eps width of 1e-30."""
    with mpmath.workdps(40):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        a, b = mpmath.log(w1), mpmath.log(v1)
        log_at = lambda e: a / (q - e) - b / (p - e)
        grid = [(p - 1) * k / scan for k in range(scan + 1)]
        vals = [log_at(e) for e in grid]
        i = max(range(len(grid)), key=vals.__getitem__)
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, scan)]
        ratio, best = (mpmath.sqrt(5) - 1) / 2, vals[i]
        while hi - lo > mpmath.mpf(10) ** -30:
            c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
            fc, fd = log_at(c), log_at(d)
            best = max(best, fc, fd)
            if fc >= fd:
                hi = d
            else:
                lo = c
        return mpmath.exp(best)


def _witness_eps(out):
    assert out.witness.startswith("eps=")
    return float(out.witness[4:])


MASSES = st.one_of(st.just(0.0), st.just(1.0), st.floats(-6.0, 6.0).map(lambda k: 10.0**k))


@settings(max_examples=150, deadline=None)
@given(p=st.floats(1.0, 5.0, exclude_min=True), dq=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
       w1=MASSES, v1=MASSES.filter(lambda m: m > 0.0))
@example(p=3.0, dq=1.0, w1=math.exp(10.0), v1=math.exp(3.6))  # cross's sup inside, at eps = 1.5
def test_weight_conditions_are_exact_suprema(p, dq, w1, v1):
    # both checks against a 40-digit sup, the default eps grid and their own witness
    q = p + dq
    eps = eps_grid(p - 1.0, 2048) if p - 1.0 > 1e-5 else np.empty(0)
    ew, ev = 1.0 / (q - eps), 1.0 / (p - eps)
    with np.errstate(divide="ignore"):
        # wholds' exponent 1/(q-eps) - 1/(p-eps), written without its cancellation
        cases = [(wholds_check(p, q, PowerWeight(0.0, w1)), w1, w1, w1 ** ((p - q) * ew * ev)),
                 (cross_weight_check(p, q, PowerWeight(0.0, w1), PowerWeight(0.0, v1)),
                  w1, v1, w1**ew * v1**-ev)]
    for out, w, v, samples in cases:
        if w == 0.0 and w == v:  # W(1) = 0 in wholds: 0^expo, expo < 0 iff p < q
            want = math.inf if q > p else 1.0
        else:
            want = float(_mp_weight_sup(p, q, mpmath.mpf(w), mpmath.mpf(v)))
        assert math.isclose(out.condition_value, want, rel_tol=1e-13, abs_tol=0.0)
        assert out.holds == math.isfinite(want)
        assert 0.0 <= _witness_eps(out) <= p - 1.0
        # the float samples carry a few ulp of rounding of their own
        assert all(out.condition_value >= x * (1 - 2**-50) for x in samples)


def test_wholds_readme_example_is_sqrt2():
    # w = t: W(1) = 1/2, and (1/2)^(1/(3-eps) - 1/(2-eps)) rises to sqrt 2 as eps -> 1
    out = wholds_check(2.0, 3.0, PowerWeight(1.0))
    assert out.condition_value == math.sqrt(2.0)
    assert out.witness == "eps=1"


HUGE = PowerWeight(-0.9999999999999999, 1e300)  # W(1) = 1e300 / 1.1e-16 overflows


def _mp_mass(w):
    return mpmath.mpf(w.coeff) / (mpmath.mpf(w.alpha) + 1)


def test_weight_conditions_with_an_overflowing_mass():
    with mpmath.workdps(40):
        mass = _mp_mass(HUGE)
        assert mass > mpmath.mpf(np.finfo(float).max)
        cross = _mp_weight_sup(2.0, 3.0, mass, mpmath.mpf(1))
        same = _mp_weight_sup(2.0, 3.0, mass, mass)
    # exp of a log near 364 carries ~1e-13 of relative rounding
    out = cross_weight_check(2.0, 3.0, HUGE, ONE)
    assert out.holds and out.condition_value == pytest.approx(float(cross), rel=1e-12)
    out = wholds_check(2.0, 3.0, HUGE)
    assert out.holds and out.condition_value == pytest.approx(float(same), rel=1e-12)
    assert out.condition_value == pytest.approx(2.19e-53, rel=1e-2)


def test_weight_conditions_outside_the_float_range_raise():
    with mpmath.workdps(40):
        big = _mp_weight_sup(2.0, 2.0, _mp_mass(HUGE), mpmath.mpf(1))
        tiny_w = PowerWeight(-0.9999999999999999, 1.7e308)
        tiny = _mp_weight_sup(1.0001, 1e300, _mp_mass(tiny_w), _mp_mass(tiny_w))
    assert big > mpmath.mpf(np.finfo(float).max)  # finite, but past the largest float
    with pytest.raises(OverflowError):
        cross_weight_check(2.0, 2.0, HUGE, ONE)
    assert 0 < tiny < mpmath.mpf(2) ** -1075  # positive, but below half the least float
    with pytest.raises(FloatingPointError):
        wholds_check(1.0001, 1e300, tiny_w)


# ---------------------------------------------------------------- downward

def test_downward_unit_weights():
    # W = V = t: ratio 1, integrand 1, value 1^{1/(r-eps)} = 1
    out = downward_check(3.0, 2.0, ONE, ONE)
    assert out.holds
    assert out.condition_value == pytest.approx(1.0, rel=1e-9)


def test_downward_power_weight():
    # w = v = t: W/V = 1, integral of t over (0,1) is 1/2
    p, q = 3.0, 2.0
    r = p * q / (p - q)
    out = downward_check(p, q, PowerWeight(1.0), PowerWeight(1.0))
    assert out.holds
    # sup of (1/2)^{1/(r-eps)} over eps in (0,1) sits at eps -> 0
    assert out.condition_value == pytest.approx(0.5 ** (1.0 / r), rel=1e-5)


def test_downward_step_weights_and_upper_extension():
    w = make_step([0.0, 0.5, 1.0], [2.0, 1.0])
    v = make_step([0.0, 1.0], [1.0])
    base = downward_check(3.0, 1.5, w, v)
    wide = downward_check(3.0, 1.5, w, v, upper=2.0)
    assert base.holds and wide.holds
    assert wide.condition_value > base.condition_value


# a convergent verdict's bracket bound: upper - value <= _WIDTH * value
_WIDTH = 1e-9


def _assert_certified(out, at_witness, grid_max, rel, abs_tol=0.0):
    """out is the certified sup: its value is the reference at_witness at
    its witness and at least grid_max, the reference's largest value on the
    old eps grid, and [value, upper] is at most _WIDTH wide."""
    value = out.condition_value
    assert out.holds and math.isclose(value, at_witness, rel_tol=rel, abs_tol=abs_tol)
    assert value >= grid_max * (1 - rel) - abs_tol
    assert value <= out.upper <= value * (1 + _WIDTH) + abs_tol
    assert out.evals >= 66


def test_downward_divergent_pair_reports_inf(deadline):
    # r = 4 and W/V = 2 t^(-1/2) make the integrand 2/t at every eps, eps = 0 included
    with deadline(20):
        out = downward_check(4.0, 2.0, PowerWeight(-0.5), ONE)
    assert not out.holds
    assert out.condition_value == math.inf and out.upper == math.inf
    assert out.witness == "eps=0"
    assert out.evals == 0


def test_downward_reports_the_true_divergence_threshold(deadline):
    # w = 1, v = t^0.45, r = 6: the integrand is c t^gamma with
    # gamma = -0.45 (6 - eps)/(3 - eps), which reaches -1 at eps = 6/11;
    # below that the integral is finite however steep the integrand
    with deadline(20):
        out = downward_check(3.0, 2.0, ONE, PowerWeight(0.45), grid_size=2048)
    assert not out.holds
    assert out.condition_value == math.inf and out.upper == math.inf
    e = _witness_eps(out)

    def gamma(x):  # in floats, as downward_check evaluates it
        return (6.0 - x) / (3.0 - x) * -0.45 + 0.0

    assert gamma(e) <= -1.0 < gamma(np.nextafter(e, 0.0))  # the smallest such float
    assert e == pytest.approx(6.0 / 11.0, rel=1e-15)
    eps = eps_grid(1.0, 2048)
    assert e <= eps[int(np.searchsorted(eps, 6.0 / 11.0))]  # the grid's first divergent point


def _mp_downward(p, q, w, v, upper, eps):
    """(int_0^upper (W/V)^beta w dt)^(1/(r-eps)) for power weights extended
    beyond 1 by their density at 1, by mpmath quadrature of the integrand
    itself (no closed form)."""
    r = mpmath.mpf(p) * q / (p - q)
    beta = (r - eps) / (p - eps)

    def density(g, t):
        return g.coeff * (t ** g.alpha if t <= 1 else 1)

    def primitive(g, t):
        if t <= 1:
            return g.coeff * t ** (g.alpha + 1) / (g.alpha + 1)
        return g.coeff / (g.alpha + 1) + g.coeff * (t - 1)

    def integrand(t):
        return (primitive(w, t) / primitive(v, t)) ** beta * density(w, t)

    # t = s^20 turns the endpoint singularity t^gamma, gamma > -1, smooth
    near = mpmath.quad(lambda s: integrand(s**20) * 20 * s**19, [0, 1])
    far = mpmath.quad(integrand, [1, upper]) if upper > 1 else 0
    return (near + far) ** (1 / (r - eps))


@pytest.mark.parametrize("p, q, w, v, upper", [
    (3.0, 1.5, PowerWeight(0.5), PowerWeight(1.0), 1.0),
    (3.0, 2.0, PowerWeight(-0.3, 2.0), PowerWeight(-0.2, 0.5), 1.0),
    (5.0, 1.7, PowerWeight(-0.3), PowerWeight(0.9), 1.0),
    (2.5, 1.2, PowerWeight(0.0, 3.0), PowerWeight(0.2), 1.0),
    (4.0, 3.0, PowerWeight(1.5, 0.7), PowerWeight(-0.5, 2.0), 2.5),
])
def test_downward_power_pairs_match_mpmath(p, q, w, v, upper):
    out = downward_check(p, q, w, v, upper=upper, grid_size=8)
    with mpmath.workdps(30):
        grid = max(_mp_downward(p, q, w, v, upper, mpmath.mpf(e)) for e in eps_grid(q - 1.0, 8))
        at = _mp_downward(p, q, w, v, upper, mpmath.mpf(_witness_eps(out)))
    _assert_certified(out, float(at), float(grid), 1e-12 if upper == 1 else 1e-9)


def test_downward_with_an_overflowing_mass():
    # p = r = 3, so beta = 1 at every eps and the integrand is W/V = t/V(t):
    # t^(-alpha_v)/V(1) on (0, 1), and t/(V(1) + c_v (t - 1)) past 1.  V(1) =
    # 9.0e315 overflows a float; the value was a silent 0.0 at both uppers
    eps = eps_grid(0.5)
    with mpmath.workdps(40):
        v1, c = _mp_mass(HUGE), mpmath.mpf(HUGE.coeff)
        near = 1 / (v1 * (1 - mpmath.mpf(HUGE.alpha)))
        far = mpmath.quad(lambda t: t / (1 + c / v1 * (t - 1)), [1, 2]) / v1
        # the total is below 1, so the sup sits at the smallest eps
        totals = (near, near + far)
        # w = v: the integrand is w itself, the total V(1) > 1, the sup at the largest eps

        def at(total, e):
            with mpmath.workdps(40):
                return float(total ** (1 / (3 - mpmath.mpf(e))))

    assert at(near, eps[0]) == pytest.approx(3.8e-106, rel=1e-2)
    for upper, total in zip((1.0, 2.0), totals):
        out = downward_check(3.0, 1.5, ONE, HUGE, upper=upper)
        _assert_certified(out, at(total, _witness_eps(out)), at(total, eps[0]), 1e-12)
    out = downward_check(3.0, 1.5, HUGE, HUGE)  # was nan: inf/inf
    _assert_certified(out, at(v1, _witness_eps(out)), at(v1, eps[-1]), 1e-12)


def test_downward_with_an_overflowing_mass_ratio():
    # both masses are normal floats but W(1)/V(1) = 1e400 is not; p = r = 3,
    # so beta = 1 and the integral is W(1)/V(1) * w = 1e600 at every eps,
    # whose 1/(3 - eps) power is largest at the largest eps
    eps = eps_grid(0.5)
    out = downward_check(3.0, 1.5, PowerWeight(0.0, 1e200), PowerWeight(0.0, 1e-200))

    def at(e):
        with mpmath.workdps(40):
            return float(mpmath.mpf(10) ** (600 / (3 - mpmath.mpf(e))))

    assert at(eps[-1]) == pytest.approx(1e240, rel=1e-2)
    _assert_certified(out, at(_witness_eps(out)), at(eps[-1]), 1e-12)


def test_downward_zero_weight_gives_zero():
    for w in (PowerWeight(0.5, 0.0), make_step([0.0, 1.0], [0.0])):
        out = downward_check(3.0, 1.5, w, PowerWeight(0.0, 1e-200), upper=2.0)
        assert out.holds and out.condition_value == 0.0 and out.upper == 0.0


_LEAST, _LARGEST = mpmath.log(mpmath.mpf(2) ** -1075), mpmath.log(np.finfo(float).max)


def _mp_power_pair(p, q, w, v):
    """gamma(eps) and the log of (int_0^1 (W/V)^beta w dt)^(1/(r-eps)) in
    closed form for power weights: W/V = ratio t^(aw-av), ratio = W(1)/V(1),
    so the integral is ratio^beta c_w/(gamma+1), finite iff gamma > -1.
    Also sup(), its sup over eps in [0, q-1], end limits included, for a
    convergent pair: the larger end, or a root of (r-eps) N' + N (the sign
    of the log value's slope, N the log integral) where a uniform 64-cell
    scan sees it turn from + to -."""
    p, q = mpmath.mpf(p), mpmath.mpf(q)
    r = p * q / (p - q)
    aw, da = mpmath.mpf(w.alpha), mpmath.mpf(w.alpha) - mpmath.mpf(v.alpha)
    log_ratio, log_c = mpmath.log(_mp_mass(w) / _mp_mass(v)), mpmath.log(w.coeff)

    def gamma(e):
        return (r - e) / (p - e) * da + aw

    def log_value(e):
        beta = (r - e) / (p - e)
        return (beta * log_ratio + log_c - mpmath.log(gamma(e) + 1)) / (r - e)

    def slope(e):
        beta, dbeta = (r - e) / (p - e), (r - p) / (p - e) ** 2
        n = beta * log_ratio + log_c - mpmath.log(gamma(e) + 1)
        return (r - e) * dbeta * (log_ratio - da / (gamma(e) + 1)) + n

    def sup():
        grid = [(q - 1) * k / 64 for k in range(65)]
        signs = [slope(e) for e in grid]
        peaks = [mpmath.findroot(slope, (a, b), solver="anderson")
                 for a, b, sa, sb in zip(grid, grid[1:], signs, signs[1:]) if sa > 0 > sb]
        return max(log_value(e) for e in [grid[0], grid[-1]] + peaks)

    return gamma, log_value, sup


POWER_PAIRS = dict(q=st.floats(1.05, 3.0), dp=st.floats(0.05, 4.0),
                   aw=st.floats(-1.0, 3.0, exclude_min=True), av=st.floats(-1.0, 3.0, exclude_min=True),
                   kw=st.floats(-300.0, 300.0), kv=st.floats(-300.0, 300.0))


@settings(max_examples=200, deadline=None)
@given(**POWER_PAIRS)
@example(q=1.5, dp=1.5, aw=0.0, av=0.0, kw=200.0, kv=-200.0)  # W(1)/V(1) = 1e400
@example(q=1.5, dp=1.5, aw=0.0, av=0.0, kw=300.0, kv=-300.0)  # the sup is 1e360
@example(q=1.05, dp=4.0, aw=0.0, av=0.0, kw=-300.0, kv=300.0)  # the sup is 1e-345
def test_downward_power_pairs_in_closed_form(q, dp, aw, av, kw, kv):
    # upper = 1: W/V = ratio t^(aw-av) with ratio = W(1)/V(1), so the integral
    # is ratio^beta c_w/(gamma+1), finite iff gamma = beta (aw-av) + aw > -1
    p = q + dp
    w, v = PowerWeight(aw, 10.0**kw), PowerWeight(av, 10.0**kv)
    with mpmath.workdps(40):
        gamma, log_value, sup = _mp_power_pair(p, q, w, v)
        ends = [gamma(mpmath.mpf(0)), gamma(mpmath.mpf(q) - 1)]
    assume(all(abs(g + 1) > 1e-9 for g in ends))  # the float gamma is on the same side
    if min(ends) <= -1:  # gamma is monotone: divergence shows at an end
        out = downward_check(p, q, w, v, grid_size=8)
        assert not out.holds and out.condition_value == math.inf and out.upper == math.inf
        e = _witness_eps(out)
        with mpmath.workdps(40):  # the smallest float at which gamma <= -1, up to rounding
            assert gamma(mpmath.mpf(e)) <= -1 + 1e-11
            assert e == 0.0 or gamma(mpmath.mpf(np.nextafter(e, 0.0))) > -1 - 1e-11
        return
    with mpmath.workdps(40):
        best = sup()
        grid = max(log_value(mpmath.mpf(e)) for e in eps_grid(q - 1.0, 8))
    assume(min(abs(best - _LARGEST), abs(best - _LEAST)) > 1e-9)  # rounding decides there
    if best > _LARGEST:
        with pytest.raises(OverflowError):
            downward_check(p, q, w, v, grid_size=8)
    elif best < _LEAST:
        with pytest.raises(FloatingPointError):
            downward_check(p, q, w, v, grid_size=8)
    else:
        out = downward_check(p, q, w, v, grid_size=8)
        with mpmath.workdps(40):
            at = float(mpmath.exp(log_value(mpmath.mpf(_witness_eps(out)))))
        # a subnormal value carries an absolute rounding of a few of its ulps
        _assert_certified(out, at, float(mpmath.exp(grid)), 1e-12, abs_tol=2.0**-1072)


@settings(max_examples=200, deadline=None)
@given(**POWER_PAIRS)
@example(q=1.5, dp=1.5, aw=0.0, av=0.0, kw=300.0, kv=-300.0)  # the sup is 1e360
@example(q=2.0, dp=1.0, aw=0.0, av=0.4, kw=0.0, kv=0.0)  # rising to an end limit
@example(q=1.96, dp=2.64, aw=2.3, av=1.06, kw=-0.5, kv=-2.75)  # a peak inside, near eps = 0.161
def test_downward_bracket_contains_the_power_pair_sup(q, dp, aw, av, kw, kv):
    # the 40-digit sup over [0, q-1], end limits included, lies in
    # [value, upper] (value up to its own rounding), and the bracket is narrow
    p = q + dp
    w, v = PowerWeight(aw, 10.0**kw), PowerWeight(av, 10.0**kv)
    with mpmath.workdps(40):
        gamma, _, sup = _mp_power_pair(p, q, w, v)
        assume(min(gamma(mpmath.mpf(0)), gamma(mpmath.mpf(q) - 1)) > -1 + 1e-9)
        best = sup()
        assume(mpmath.log(np.finfo(float).tiny) + 1 < best < _LARGEST - 1)
        top = mpmath.exp(best)
    out = downward_check(p, q, w, v)
    value, upper = mpmath.mpf(out.condition_value), mpmath.mpf(out.upper)
    assert out.holds and value <= top * (1 + mpmath.mpf(2) ** -40) and top <= upper
    assert upper - value <= _WIDTH * value


def test_downward_integrates_nothing_with_no_piece_past_k1(monkeypatch):
    # power/power at upper = 1: the whole integral is the first-piece closed form
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature called with no knot interval past k1")

    monkeypatch.setattr(embeddings, "integrate_batch", no_quadrature)
    out = downward_check(3.0, 1.5, PowerWeight(0.5), PowerWeight(1.0))
    # r = 3, so beta = 1 and the integrand is (W/V) w = (4/3) t^(-1/2) t^(1/2) = 4/3 at
    # every eps; (4/3)^(1/(3-eps)) is largest at eps = q - 1
    assert out.holds and out.condition_value == pytest.approx((4.0 / 3.0) ** (1.0 / 2.5), rel=1e-15)
    assert out.witness == "eps=0.5"


def test_downward_ignores_grid_size():
    w = make_step([0.0, 0.4, 1.0], [1.5, 0.7])
    v = make_step([0.0, 0.2, 0.7, 1.0], [0.9, 1.3, 0.6])
    for args in ((3.0, 1.5, w, v, 2.0), (4.0, 2.0, PowerWeight(-0.5), ONE, 1.0),
                 (3.0, 2.0, ONE, PowerWeight(0.45), 1.0)):
        verdicts = [downward_check(*args[:4], upper=args[4], grid_size=n) for n in (None, 8, 64, 2048)]
        assert all(out == verdicts[0] for out in verdicts)


def _step_downward_loop(p, q, w, v, upper, eps):
    """downward_check for step weights one eps and one knot interval at a
    time, as its values at eps: the reference for the batch."""
    r = p * q / (p - q)

    def extend(g):
        bk, vals = g.breakpoints, g.values
        cum = np.concatenate(([0.0], np.cumsum(vals * np.diff(bk))))

        def density(t):
            return np.where(t > 1.0, vals[-1], vals[np.clip(np.searchsorted(bk, t, "right") - 1,
                                                            0, len(vals) - 1)])

        def primitive(t):
            return np.where(t > 1.0, cum[-1] + vals[-1] * (t - 1.0),
                            np.interp(np.minimum(t, 1.0), bk, cum))
        return density, primitive

    (dw, pw), (_, pv) = extend(w), extend(v)
    knots = np.unique(np.concatenate(([upper], w.breakpoints, v.breakpoints)))
    knots = knots[knots <= upper]
    values = []
    for e in eps:
        beta = (r - e) / (p - e)
        total = sum(gauss_legendre(lambda t: (pw(t) / pv(t)) ** beta * dw(t), a, b)
                    for a, b in zip(knots[:-1], knots[1:]))
        values.append(total ** (1.0 / (r - e)))
    return np.array(values)


@pytest.mark.parametrize("upper", [1.0, 2.0])
def test_downward_step_weights_match_interval_loop(upper):
    w = make_step([0.0, 0.4, 1.0], [1.5, 0.7])
    v = make_step([0.0, 0.2, 0.7, 1.0], [0.9, 1.3, 0.6])
    grid = _step_downward_loop(3.0, 1.5, w, v, upper, eps_grid(0.5, 64))
    out = downward_check(3.0, 1.5, w, v, upper=upper, grid_size=64)
    at = _step_downward_loop(3.0, 1.5, w, v, upper, [_witness_eps(out)])[0]
    _assert_certified(out, at, grid.max(), 1e-9)


def _mp_unit_over_step(p, q, bk, vals, upper, eps):
    """(int_0^upper (t/V(t))^beta dt)^(1/(r-eps)) for w = 1 and the step
    density vals on bk, extended past 1 by its last value, in mpmath.  On
    (0, k1] V = c0 t; past k1 the substitution x = V(t) = e^u makes each
    piece smooth in u, however small V is at its left end."""
    r = mpmath.mpf(p) * q / (p - q)
    beta = (r - eps) / (p - eps)
    knots = [mpmath.mpf(b) for b in bk if b < upper] + [mpmath.mpf(upper)]
    vals = [mpmath.mpf(c) for c in vals] + [mpmath.mpf(vals[-1])] * (len(knots) - len(bk))
    total = knots[1] / vals[0] ** beta
    va = vals[0] * knots[1]
    for a, b, c in zip(knots[1:-1], knots[2:], vals[1:]):
        vb = va + c * (b - a)

        def f(u, a=a, c=c, va=va):
            x = mpmath.exp(u)
            return ((a + (x - va) / c) / x) ** beta * x / c
        total += mpmath.quad(f, mpmath.linspace(mpmath.log(va), mpmath.log(vb), 8))
        va = vb
    return total ** (1 / (r - eps))


@pytest.mark.parametrize("upper", [1.0, 2.0])
def test_downward_with_a_tiny_target_density(upper):
    # V(t) = 1e-300 t up to 0.5: (W/V)^beta reaches 1e600 and overflowed
    # inside the quadrature past the first knot, which read it as divergence
    bk, vals = [0.0, 0.5, 1.0], [1e-300, 1.0]
    out = downward_check(3.0, 2.0, ONE, make_step(bk, vals), upper=upper, grid_size=8)
    with mpmath.workdps(20):
        grid = max(_mp_unit_over_step(3.0, 2.0, bk, vals, upper, mpmath.mpf(e))
                   for e in eps_grid(1.0, 8))
        at = _mp_unit_over_step(3.0, 2.0, bk, vals, upper, mpmath.mpf(_witness_eps(out)))
    assert float(grid) == pytest.approx(8.704e149, rel=1e-3)
    _assert_certified(out, float(at), float(grid), 1e-12)


def test_downward_with_a_subnormal_target_primitive():
    # V(k1) = 5e-311 is subnormal: W/V past k1 is no finite float
    v = make_step([0.0, 0.5, 1.0], [1e-310, 1.0])
    for upper in (1.0, 2.0):
        with pytest.raises(OverflowError):
            downward_check(3.0, 2.0, ONE, v, upper=upper, grid_size=8)


def _mp_step_over_step(p, q, w, v, eps, upper=1.0):
    """(int_0^upper (W/V)^beta w dt)^(1/(r-eps)) for step densities w and v,
    extended past 1 by their last value, in mpmath.  W and V are linear on
    each knot interval; its left end is split geometrically down to 1e-40 of
    its length, so a layer far narrower than a float's resolution in t is
    resolved."""
    r = mpmath.mpf(p) * q / (p - q)
    beta = (r - eps) / (p - eps)
    knots = sorted(set(map(mpmath.mpf, np.concatenate((w.breakpoints, v.breakpoints, [upper])))))
    knots = [t for t in knots if t <= upper]

    def at(g, t):  # density and primitive of a step function at t
        bk, vals = list(map(mpmath.mpf, g.breakpoints)), list(map(mpmath.mpf, g.values))
        i = max(k for k in range(len(vals)) if bk[k] <= t)
        return vals[i], sum(c * (b - a) for a, b, c in zip(bk, bk[1:i + 1], vals)) + vals[i] * (t - bk[i])

    (w0, _), (v0, _) = at(w, 0), at(v, 0)
    total = (w0 / v0) ** beta * w0 * knots[1]
    for a, b in zip(knots[1:-1], knots[2:]):
        (wd, wa), (vd, va) = at(w, a), at(v, a)
        splits = [0] + [(b - a) * mpmath.mpf(10) ** -k for k in range(40, 0, -2)] + [b - a]
        # W/V is monotone on the piece: scaled by its larger end value, the
        # integrand is at most wd, so quad's absolute tolerance is a relative one
        top = max(wa / va, (wa + wd * (b - a)) / (va + vd * (b - a))) ** beta or 1
        total += top * mpmath.quad(lambda s: ((wa + wd * s) / (va + vd * s)) ** beta / top * wd, splits)
    return total ** (1 / (r - eps))


def test_downward_with_a_density_jump_below_float_resolution(deadline):
    # V jumps by ~1e15 at t = 0.75, so past it W/V falls from its peak within
    # about one ulp of t.  In t no float bisection resolves that layer to
    # 1e-10 relative (it ran through 4,096 intervals and raised
    # QuadratureError); in the offset s = t - 0.75 W and V are affine, and the
    # layer is as wide as it is in the reals
    w = make_step([0.0, 0.35, 0.5, 0.85, 1.0], [64.0, 4700.0, 1.3e-3, 2.4])
    v = make_step([0.0, 0.75, 0.9, 1.0], [1e-7, 5e8, 1e-10])
    with deadline(20):
        out = downward_check(5.0, 2.5, w, v)
    with mpmath.workdps(30):
        at = _mp_step_over_step(5.0, 2.5, w, v, mpmath.mpf(_witness_eps(out)))
    _assert_certified(out, float(at), float(at), 1e-12)


@pytest.mark.parametrize("p, q, w, v, upper", [
    (3.1138, 2.1685, make_step([0.0, 0.08126, 0.1307, 0.9064, 1.0], [2.426e-5, 1.343e-4, 4.528e6, 250.3]),
     make_step([0.0, 0.1871, 1.0], [0.04969, 4.769e7]), 1.0),
    (2.553, 2.2004, make_step([0.0, 0.5026, 1.0], [2.383e7, 8.570e7]),
     make_step([0.0, 0.2804, 0.3168, 0.9391, 1.0], [1.202, 8.517e-9, 8.274e-10, 6.434e9]), 2.008),
])
def test_downward_bracket_holds_layers_past_density_jumps(deadline, p, q, w, v, upper):
    # V's density jumps by 1e9 at 0.1871 and by 1e19 at 0.9391: past each,
    # W/V falls within a layer far narrower than its piece (~5e-11 wide at
    # 0.9391); a piece accepted on one panel misses that layer and puts the
    # whole bracket below the value
    with deadline(20):
        out = downward_check(p, q, w, v, upper=upper)
    with mpmath.workdps(30):
        at = float(_mp_step_over_step(p, q, w, v, mpmath.mpf(_witness_eps(out)), upper))
    _assert_certified(out, at, at, 1e-12)
    assert at <= out.upper


def _downward_loop(p, q, w, v, upper, eps):
    """downward_check for power and step weights in plain floats, unscaled,
    one eps and one knot interval at a time, as its values at eps: the
    first knot interval in closed form, the others by gauss_legendre."""
    r = p * q / (p - q)

    def extend(g):
        if isinstance(g, PowerWeight):
            bk, c0, alpha = [0.0, 1.0], g.coeff, g.alpha
        else:
            bk, c0, alpha = list(g.density.breakpoints), g.density.values[0], 0.0
        w1, last = float(g.primitive(1.0)), float(g(1.0))
        return (bk, c0, alpha,
                lambda t: np.where(t > 1.0, last, g(np.minimum(t, 1.0))),
                lambda t: np.where(t > 1.0, w1 + last * (t - 1.0), g.primitive(np.minimum(t, 1.0))))

    (bw, cw, aw, dw, pw), (bv, cv, av, _, pv) = extend(w), extend(v)
    knots = np.unique(bw + bv + [upper])
    knots = knots[knots <= upper]
    values = []
    for e in eps:
        beta = (r - e) / (p - e)
        gamma = beta * (aw - av) + aw
        if cw > 0 and gamma <= -1:
            values.append(math.inf)
            continue
        ratio = (cw / (aw + 1)) / (cv / (av + 1))
        total = ratio**beta * cw * knots[1] ** (gamma + 1) / (gamma + 1) if cw > 0 else 0.0
        total += sum(gauss_legendre(lambda t: (pw(t) / pv(t)) ** beta * dw(t), a, b)
                     for a, b in zip(knots[1:-1], knots[2:]))
        values.append(total ** (1.0 / (r - e)))
    return np.array(values)


def test_downward_random_pairs_match_interval_loop():
    # power and step weights mixed, upper 1 and beyond
    rng = np.random.default_rng(14)

    def weight():
        if rng.uniform() < 0.5:
            return PowerWeight(float(rng.uniform(-0.6, 2.0)), float(np.exp(rng.uniform(-3, 3))))
        n = int(rng.integers(1, 6))
        bk = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n)), [1.0]))
        return _density(bk, np.exp(rng.uniform(-3, 3, n + 1)))

    for k in range(200):
        q = float(rng.uniform(1.1, 2.5))
        p = q * float(rng.uniform(1.2, 3.0))
        w, v = weight(), weight()
        upper = 1.0 if rng.uniform() < 0.5 else float(rng.uniform(1.0, 3.0))
        # the ends, where a divergence shows (gamma is monotone), and the old grid
        want = _downward_loop(p, q, w, v, upper, np.concatenate(([0.0], eps_grid(q - 1.0, 8), [q - 1.0])))
        out = downward_check(p, q, w, v, upper=upper, grid_size=8)
        case = f"pair {k}: {p}, {q}, {w}, {v}, upper={upper}"
        e = _witness_eps(out)
        if math.isinf(want.max()):
            assert not out.holds and out.condition_value == math.inf, case
            # the smallest float eps that diverges
            assert math.isinf(_downward_loop(p, q, w, v, upper, [e])[0]), case
            assert e == 0.0 or math.isfinite(_downward_loop(p, q, w, v, upper, [np.nextafter(e, 0.0)])[0]), case
            continue
        _assert_certified(out, _downward_loop(p, q, w, v, upper, [e])[0], want[1:-1].max(), 1e-9)


def test_downward_propagates_finite_quadrature_failure(monkeypatch):
    def exhausted(*args, **kwargs):
        raise QuadratureError("interval budget exhausted", 0.5, 1e-3, 1e-10)

    monkeypatch.setattr(embeddings, "integrate_batch", exhausted)
    with pytest.raises(QuadratureError):
        downward_check(3.0, 2.0, ONE, ONE, upper=2.0)


def test_downward_validation():
    with pytest.raises(ValueError):
        downward_check(2.0, 2.0, ONE, ONE)  # needs q < p
    with pytest.raises(ValueError):
        downward_check(2.0, 3.0, ONE, ONE)
    with pytest.raises(ValueError):
        downward_check(3.0, 2.0, ONE, ONE, upper=0.5)
    v = make_step([0.0, 0.5, 1.0], [0.0, 1.0])  # primitive vanishes near 0
    with pytest.raises(ValueError):
        downward_check(3.0, 2.0, ONE, v)


# ---------------------------------------------------------------- measures

def test_domination_constant_values():
    mu = _density([0.0, 1.0], [1.0])
    assert domination_constant(mu, _density([0.0, 1.0], [2.0])) == 2.0
    assert domination_constant(mu, mu) == 1.0
    assert domination_constant(mu, _density([0.0, 1.0], [0.0])) == 0.0
    patchy = _density([0.0, 0.5, 1.0], [0.0, 1.0])
    assert math.isinf(domination_constant(patchy, mu))
    # restriction is dominated with constant 1
    assert domination_constant(mu, patchy) == 1.0


def test_mutual_ac_cases():
    mu = _density([0.0, 0.5, 1.0], [1.0, 0.0])
    nu = _density([0.0, 0.5, 1.0], [3.0, 0.0])
    assert mutual_ac(mu, nu)
    assert not mutual_ac(mu, _density([0.0, 1.0], [1.0]))
    assert mutual_ac(_density([0.0, 1.0], [2.0]), _density([0.0, 1.0], [5.0]))


def test_domination_slice_bound_on_scaled_measure():
    # nu = 1.5 mu: slices scale exactly by 1.5^{1/(q-eps)}, slack ~ 0
    rng = np.random.default_rng(63)
    bk = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 0.9, 4)), [1.0]))
    f = make_step(bk, np.exp(rng.uniform(-2, 2, 5)))
    mu = _density([0.0, 0.3, 1.0], [2.0, 1.0])
    nu = MeasureDensity(pointwise("mul", mu.density,
                                  make_step([0.0, 1.0], [1.5])))
    rep = domination_slice_check(f, 2.0, 2.0, mu, nu)
    assert rep.constant == pytest.approx(1.5, rel=1e-14)
    assert rep.holds
    assert abs(rep.min_slack) < 1e-12


def test_domination_slice_general_pair():
    rng = np.random.default_rng(64)
    for _ in range(5):
        bk = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 0.9, 6)), [1.0]))
        f = make_step(bk, np.exp(rng.uniform(-2, 2, 7)))
        mu = _density([0.0, 1.0], [1.0])
        nu = _density([0.0, 0.4, 1.0], [2.0, 0.5])
        rep = domination_slice_check(f, 2.5, 1.8, mu, nu)
        assert rep.constant == 2.0
        assert rep.min_slack >= -1e-10
        assert rep.holds
        assert 0.0 < rep.worst_eps < 0.8


def test_domination_slice_verdict_is_scale_free():
    # nu = 3 mu holds at any scale of f; a slack tolerance of fixed size
    # called about half of these pairs violated (min slack -5e176 at 1.7e189)
    rng = np.random.default_rng(3)
    for _ in range(200):
        f = random_step_function(rng) * 10.0 ** rng.uniform(-250.0, 250.0)
        mu = random_measure(rng)
        rep = domination_slice_check(f, 2.0, 3.0, mu, MeasureDensity(mu.density * 3.0))
        assert rep.holds and rep.constant == pytest.approx(3.0, rel=1e-14)


def test_domination_slice_unbounded_pair():
    f = characteristic([(0.0, 0.5)])
    mu = _density([0.0, 0.5, 1.0], [1.0, 0.0])
    nu = _density([0.0, 1.0], [1.0])
    rep = domination_slice_check(f, 2.0, 2.0, mu, nu)
    assert not rep.holds
    assert math.isinf(rep.constant)


# ---------------------------------------------------------------- corpus ratio

def test_empirical_constant_identity_is_one():
    spec = SpaceSpec("grand_lorentz_pq", p=2.0, q=2.0)
    out = empirical_constant(spec, spec, corpus_size=8, seed=77)
    assert out.holds
    assert out.condition_value == 1.0
    assert out.empirical_constant == 1.0
    assert out.seed == 77
    assert out.witness.startswith("corpus[")
    json.dumps(out.to_json())  # serializable


def test_empirical_constant_is_seed_deterministic():
    src = SpaceSpec("grand_lorentz_pq", p=2.0, q=1.5)
    tgt = SpaceSpec("grand_lorentz_pq", p=2.0, q=2.5)
    a = empirical_constant(src, tgt, corpus_size=6, seed=5)
    b = empirical_constant(src, tgt, corpus_size=6, seed=5)
    assert a.condition_value == b.condition_value
    assert a.witness == b.witness


def test_empirical_constant_nested_secondary_index():
    # larger q on the same p only dilutes the sup: ratios stay modest
    src = SpaceSpec("grand_lorentz_pq", p=2.0, q=1.5)
    tgt = SpaceSpec("grand_lorentz_pq", p=2.0, q=2.5)
    out = empirical_constant(src, tgt, corpus_size=12, seed=9)
    assert out.holds and 0.0 < out.condition_value < 10.0


def test_empirical_constant_validation():
    spec = SpaceSpec("grand_lebesgue", p=2.0)
    with pytest.raises(ValueError):
        empirical_constant(spec, spec, corpus_size=0, seed=1)


# ---------------------------------------------------------------- atom bound

def test_atom_bound_values():
    assert atom_bound(2.0, 2.0, 4.0, 4.0, C=3.0) == pytest.approx(1.0, rel=1e-14)
    assert atom_bound(2.0, 2.0, 4.0, 4.0, C=6.0) == pytest.approx(0.0625, rel=1e-14)
    # larger constant leaves room for smaller atoms
    assert atom_bound(2.0, 2.0, 4.0, 4.0, 10.0) < atom_bound(2.0, 2.0, 4.0, 4.0, 2.0)


def test_atom_bound_validation():
    with pytest.raises(ValueError):
        atom_bound(2.0, 2.0, 4.0, 4.0, C=0.0)
    with pytest.raises(ValueError):
        atom_bound(2.0, 2.0, 2.0, 4.0, C=1.0)  # needs p < r
    with pytest.raises(ValueError):
        atom_bound(2.0, 1.0, 4.0, 4.0, C=1.0)  # needs q > 1
    with pytest.raises(ValueError):
        atom_bound(2.0, 2.0, 4.0, math.inf, C=1.0)


# ---------------------------------------------------------------- probes

def test_shrinking_probe_diverges_at_drop_rate():
    # ratio of chi_(0,a) norms grows like a^{1/r-1/p} as a -> 0, i.e.
    # 10^{1/p-1/r} per decade; the rate needs a well past the unit scale
    rep = shrinking_probe(2.0, 2.0, 4.0, 4.0,
                          [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    assert all(row.ratio > 0 for row in rep.rows)
    ratios = [row.ratio for row in rep.rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    want = 10.0 ** (1.0 / 2.0 - 1.0 / 4.0)
    for lo, hi in zip(rep.rows, rep.rows[1:]):
        g = (hi.ratio / lo.ratio) ** (1.0 / math.log10(lo.a / hi.a))
        assert abs(g - want) / want < 0.1


def test_shrinking_probe_rows_and_csv():
    rep = shrinking_probe(2.0, 1.5, 3.0, 3.5, [0.5, 0.05])
    assert [row.a for row in rep.rows] == [0.5, 0.05]
    for row in rep.rows:
        assert row.ratio == pytest.approx(row.target_norm / row.source_norm,
                                          rel=1e-15)
    buf = io.StringIO()
    rep.to_csv(buf, header_note="probe")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# probe"
    assert lines[1] == "a,source_norm,target_norm,ratio"
    assert len(lines) == 4


def test_shrinking_probe_validation():
    with pytest.raises(ValueError):
        shrinking_probe(2.0, 2.0, 2.0, 4.0, [0.5])  # needs p < r
    with pytest.raises(ValueError):
        shrinking_probe(2.0, 2.0, 4.0, 4.0, [0.0])  # a outside (0, 1]
    with pytest.raises(ValueError):
        shrinking_probe(2.0, 2.0, 4.0, 4.0, [1.5])


def test_probe_consistent_with_direct_norms():
    rep = shrinking_probe(2.0, 2.0, 4.0, 4.0, [0.25])
    f = characteristic([(0.0, 0.25)])
    src = grand_lorentz_pq_norm(f, 2.0, 2.0).value
    tgt = grand_lorentz_pq_norm(f, 4.0, 4.0).value
    assert rep.rows[0].source_norm == src
    assert rep.rows[0].target_norm == tgt
