import io
import math
import tracemalloc
import unittest.mock
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlab import (PiecewisePoly, SpaceSpec, box_kernel, bump_kernel,
                  integrate,
                  characteristic, convergence_sweep, convolution_values,
                  convolve, custom_step_kernel, domination_check,
                  is_potential_type, kernel_from_json, make_step, maximal,
                  radial_majorant, step_approximate, triangle_kernel)
from rlab import analysis
from rlab.analysis import Kernel
from rlab.weights import PowerWeight

from oracles import brute_maximal, gauss_legendre

CHI = characteristic([(0.3, 0.5)])


def _random_fn(rng, n_max=12):
    n = int(rng.integers(1, n_max))
    bk = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n)), [1.0]))
    vals = np.exp(rng.uniform(-2, 2, n + 1)) * rng.choice([-1, 1], n + 1)
    return make_step(bk, vals)


# ---------------------------------------------------------------- kernels

def test_builtin_kernel_masses():
    for k in (box_kernel(), triangle_kernel(), bump_kernel(),
              box_kernel(0.25), triangle_kernel(2.0)):
        assert abs(k.mass - 1.0) < 1e-12


def test_bump_mass_against_independent_quadrature():
    k = bump_kernel()
    got = gauss_legendre(k.density, -1.0, 1.0)
    assert abs(got - 1.0) < 1e-10


def test_kernel_cdf_endpoints_and_symmetry():
    for k in (box_kernel(), triangle_kernel(), bump_kernel()):
        assert k.cdf(-k.half_width) == pytest.approx(0.0, abs=1e-15)
        assert k.cdf(k.half_width) == pytest.approx(1.0, rel=1e-12)
        assert k.cdf(0.0) == pytest.approx(0.5, rel=1e-12)


def test_triangle_cdf_is_exact_quadratic():
    k = triangle_kernel()
    assert k.cdf(-0.5) == pytest.approx(0.125, rel=1e-15)
    assert k.cdf(0.5) == pytest.approx(0.875, rel=1e-15)
    assert k.density(0.0) == 1.0


def test_custom_kernel_normalization():
    raw = custom_step_kernel([-1.0, 0.0, 1.0], [0.5, 2.0], normalize=False)
    assert raw.mass == pytest.approx(2.5, rel=1e-15)
    unit = custom_step_kernel([-1.0, 0.0, 1.0], [0.5, 2.0])
    assert unit.mass == pytest.approx(1.0, rel=1e-15)
    assert unit.density(0.5) == pytest.approx(2.0 / 2.5, rel=1e-15)


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel("gaussian")
    with pytest.raises(ValueError):
        box_kernel(0.0)
    with pytest.raises(ValueError):
        custom_step_kernel([-1.0, 1.0], [-2.0], normalize=False)
    with pytest.raises(ValueError):
        custom_step_kernel([-1.0, 0.5], [1.0])  # asymmetric support
    with pytest.raises(ValueError):
        Kernel("box", breakpoints=(-1.0, 1.0), values=(1.0,))


def test_scaled_kernel_geometry():
    phi = box_kernel().scaled(0.1)
    assert isinstance(phi, Kernel)
    assert phi.mass == 1.0
    assert np.allclose(phi.support_knots, [-0.1, 0.1])
    assert phi.density(0.05) == pytest.approx(5.0, rel=1e-15)
    assert phi.density(0.2) == 0.0
    assert phi.cdf(0.0) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        box_kernel().scaled(0.0)


def test_scaled_kernel_rejects_bad_scales():
    for t in (0.0, -0.5, math.inf, math.nan):
        for k in (triangle_kernel(), custom_step_kernel([-1.0, 0.0, 1.0], [0.5, 2.0])):
            with pytest.raises(ValueError):
                k.scaled(t)
    # a custom kernel's values over t must stay in the float range
    big = custom_step_kernel([-1.0, 1.0], [1e300], normalize=False)
    with pytest.raises(ValueError, match="float range"):
        big.scaled(1e-10)
    assert big.scaled(1e-8).values == (1e308,)


def test_kernels_with_subnormal_half_widths():
    # a peak density 0.5/h (box), 1/h (triangle) or 0.83/h (bump) past the
    # float range is rejected, as a custom kernel's values over t are
    for k in (box_kernel(), triangle_kernel(), bump_kernel()):
        for make in (lambda: k.scaled(1e-310), lambda: Kernel(k.kind, 1e-310)):
            with pytest.raises(ValueError, match="float range"):
                make()
    # at the smallest accepted half-widths z/h overflows for |z| = 1, which
    # the cdf maps to 0 and 1 without a warning
    f = make_step([0.0, 0.3, 0.7, 1.0], [2.0, -1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (box_kernel(2.8e-309), triangle_kernel(5.6e-309), bump_kernel(4.7e-309)):
            assert k.cdf(np.array([-1.0, 0.0, 1.0])) == pytest.approx([0.0, 0.5, 1.0], abs=1e-14)
            assert convolution_values(k, f, [0.5, 0.3]) == pytest.approx([-1.0, 0.5], abs=1e-14)


_U = 2.0**-53
_KERNELS = (box_kernel(0.7), triangle_kernel(2.0), bump_kernel(),
            custom_step_kernel([-1.0, -0.3, 0.4, 1.0], [1.0, 3.0, 0.5]),
            custom_step_kernel([-0.5, 0.125, 0.5], [4.0, 1.0], normalize=False))


@settings(max_examples=200, deadline=None)
@given(k=st.sampled_from(_KERNELS), t=st.floats(1e-6, 1e3), s=st.floats(1e-6, 1e3),
       z=st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=8))
def test_scaled_kernel_is_phi_of_x_over_t(k, t, s, z):
    h = k.half_width
    phi = k.scaled(t)
    assert phi.kind == k.kind
    assert phi.half_width == pytest.approx(t * h, rel=2 * _U)
    assert phi.mass == pytest.approx(k.mass, rel=8 * _U)
    # points off the knots, where density and cdf are continuous in x
    z = np.array([v for v in z if np.min(np.abs(v - k.support_knots / h)) > 1e-9])
    x = t * h * z
    peak = np.max(k.density(np.linspace(-h, h, 1001))) / t
    assert np.all(np.abs(phi.density(x) - k.density(x / t) / t) <= 8 * _U * peak)
    assert np.all(np.abs(phi.cdf(x) - k.cdf(x / t)) <= 8 * _U * k.mass)
    twice, once = k.scaled(s).scaled(t), k.scaled(s * t)
    assert twice.kind == once.kind
    assert twice.half_width == pytest.approx(once.half_width, rel=4 * _U)
    if k.kind == "custom_step":
        assert np.allclose(twice.breakpoints, once.breakpoints, rtol=4 * _U, atol=0.0)
        assert np.allclose(twice.values, once.values, rtol=4 * _U, atol=0.0)
        back = kernel_from_json({"kind": "custom_step", "breakpoints": list(phi.breakpoints),
                                 "values": list(phi.values), "normalize": False})
        assert (back.breakpoints, back.values) == (phi.breakpoints, phi.values)


# ---------------------------------------------------------------- majorant

def test_radial_majorant_builtins_are_fixed_points():
    for k in (box_kernel(), triangle_kernel(), bump_kernel()):
        assert radial_majorant(k) is k


def test_radial_majorant_asymmetric_custom():
    # envelope of [0.5 on (-1,0), 2 on (0,1)] is the constant 2 on (-1,1)
    raw = custom_step_kernel([-1.0, 0.0, 1.0], [0.5, 2.0], normalize=False)
    env = radial_majorant(raw)
    assert env.mass == pytest.approx(4.0, rel=1e-15)
    x = np.array([-0.9, -0.1, 0.1, 0.9])
    assert np.allclose(env.density(x), 2.0)
    # envelope is even and nonincreasing in |x| by construction
    xs = np.linspace(0.0, 0.999, 50)
    assert np.allclose(env.density(xs), env.density(-xs))


def test_is_potential_type_masses():
    for k in (box_kernel(), triangle_kernel(), bump_kernel()):
        rep = is_potential_type(k)
        assert rep and rep.is_potential
        assert rep.majorant_mass == pytest.approx(1.0, rel=1e-12)
    unit = custom_step_kernel([-1.0, 0.0, 1.0], [0.5, 2.0])
    rep = is_potential_type(unit)
    assert rep and rep.majorant_mass > 1.0
    assert rep.majorant_mass == pytest.approx(2 * (2.0 / 2.5), rel=1e-15)


# ---------------------------------------------------------------- maximal

def test_maximal_indicator_closed_forms():
    M = maximal(CHI)
    assert abs(M(0.2) - 1.0 / 3.0) <= 1e-12
    assert M(0.4) == 1.0
    assert abs(M(0.8) - 0.2) <= 1e-12


def test_maximal_dominates_function_off_breakpoints():
    rng = np.random.default_rng(19)
    for _ in range(10):
        f = _random_fn(rng)
        M = maximal(f)
        x = rng.uniform(0.0, 1.0, 200)
        keep = np.min(np.abs(x[:, None] - f.breakpoints[None, :]), axis=1) > 1e-9
        x = x[keep]
        assert np.all(M(x) >= np.abs(f(x)) - 1e-14)


def test_maximal_scaling_exact_for_dyadic_factor():
    rng = np.random.default_rng(29)
    f = _random_fn(rng)
    g = make_step(f.breakpoints, -4.0 * f.values)
    x = rng.uniform(0.0, 1.0, 100)
    assert np.array_equal(maximal(g)(x), 4.0 * maximal(f)(x))


def test_maximal_matches_brute_force_grid():
    # the brute average (cum(x+r)-cum(x-r))/(2r) carries cancellation noise
    # of order eps*cum/r at tiny radii, hence the 1e-8 comparison floor
    rng = np.random.default_rng(37)
    base_radii = np.geomspace(1e-6, 2.0, 4000)
    for _ in range(5):
        f = _random_fn(rng)
        M = maximal(f)
        x = rng.uniform(0.0, 1.0, 50)
        got = M(x)
        # sharing every candidate radius |x_i - b_j| makes the grid exact
        cand = np.abs(x[:, None] - f.breakpoints[None, :]).ravel()
        radii = np.unique(np.concatenate((base_radii, cand[cand > 0])))
        brute = brute_maximal(f.breakpoints, f.values, x, radii)
        assert np.all(got >= brute - 1e-8)
        assert np.max(np.abs(got - np.maximum(brute, np.abs(f(x))))) < 1e-8


def test_maximal_outside_and_far_field():
    M = maximal(CHI)
    # at x = -0.1 the best window reaches the far edge of the support
    r = 0.6
    assert M(-0.1) == pytest.approx(0.2 / (2 * r), rel=1e-12)
    assert M(2.5) > 0.0  # zero extension still sees the mass
    assert M(2.5) == pytest.approx(0.2 / (2 * (2.5 - 0.3)), rel=1e-12)


def test_maximal_sample_and_cell_average():
    M = maximal(CHI)
    x, vals = M.sample(64)
    assert x.shape == vals.shape == (64,)
    assert np.all((x > 0) & (x < 1))
    step = M.cell_average_step(128)
    assert step.breakpoints[0] == 0.0 and step.breakpoints[-1] == 1.0
    assert np.all(step.values <= 1.0 + 1e-12)
    assert np.all(step.values > 0.0)
    # cell averages track the pointwise values away from the jumps of M
    # at the support edges of the indicator
    mids = (np.arange(128) + 0.5) / 128
    away = (np.abs(mids - 0.3) > 1.0 / 64) & (np.abs(mids - 0.5) > 1.0 / 64)
    assert np.max(np.abs(step(mids[away]) - M(mids[away]))) < 0.02


# ---------------------------------------------------------------- convolution

def test_operators_reject_points_with_more_than_one_axis():
    f = make_step([0.0, 0.3, 0.6, 1.0], [1.0, 2.0, 3.0])
    x = np.full((2, 3), 0.5)
    with pytest.raises(ValueError, match="1-d"):
        maximal(f)(x)
    with pytest.raises(ValueError, match="1-d"):
        convolution_values(box_kernel().scaled(0.1), f, x)


def test_convolution_box_indicator_values():
    phi = box_kernel().scaled(0.1)
    assert convolution_values(phi, CHI, 0.4)[0] == pytest.approx(1.0, abs=1e-15)
    assert convolution_values(phi, CHI, 0.3)[0] == pytest.approx(0.5, abs=1e-15)
    conv = convolve(phi, CHI)
    assert conv(0.4) == pytest.approx(1.0, abs=1e-15)
    assert conv(0.3) == pytest.approx(0.5, abs=1e-15)


def test_convolution_mass_preserved():
    rng = np.random.default_rng(43)
    f = _random_fn(rng)
    total = integrate(f)
    for base in (box_kernel(), triangle_kernel(),
                 custom_step_kernel([-1.0, -0.2, 1.0], [2.0, 0.5])):
        conv = convolve(base.scaled(0.15), f)
        got = conv.integral(conv.breakpoints[0], conv.breakpoints[-1])
        assert got == pytest.approx(total, rel=1e-12, abs=1e-13)


def test_convolution_bump_mass_and_agreement():
    f = CHI
    phi = bump_kernel().scaled(0.2)
    conv = convolve(phi, f)
    got = conv.integral(conv.breakpoints[0], conv.breakpoints[-1])
    assert got == pytest.approx(integrate(f), rel=1e-7)
    x = np.linspace(-0.1, 1.1, 101)
    direct = convolution_values(phi, f, x)
    # piecewise-linear resampling on the default 2048-cell grid
    assert np.max(np.abs(conv(x) - direct)) < 1e-5


def test_convolution_piecewise_poly_is_continuous():
    rng = np.random.default_rng(47)
    f = _random_fn(rng)
    for base in (box_kernel(), triangle_kernel()):
        conv = convolve(base.scaled(0.07), f)
        interior = conv.breakpoints[1:-1]
        left = conv(interior - 1e-12)
        right = conv(interior + 1e-12)
        assert np.max(np.abs(left - right)) < 1e-9


def test_convolution_matches_exact_values_everywhere():
    rng = np.random.default_rng(53)
    f = _random_fn(rng)
    for base in (box_kernel(), triangle_kernel()):
        phi = base.scaled(0.11)
        conv = convolve(phi, f)
        x = rng.uniform(-0.2, 1.2, 400)
        assert np.max(np.abs(conv(x) - convolution_values(phi, f, x))) < 1e-12


def test_convolution_commutes_with_translation():
    f = characteristic([(0.2, 0.4)])
    g = characteristic([(0.5, 0.7)])  # f shifted by 0.3
    phi = triangle_kernel().scaled(0.05)
    x = np.linspace(0.0, 0.6, 61)
    a = convolution_values(phi, f, x)
    b = convolution_values(phi, g, x + 0.3)
    assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("t", [1e-6, 1e-9, 1e-12, 1e-17, 1e-300])
def test_convolve_is_exact_on_plateaus_at_small_scales(t):
    # away from f's breakpoints phi_t * f is f times the kernel's mass; the
    # cells there must not lean on end values whose knots rounded across
    f = make_step([0.0, 0.3, 0.7, 1.0], [2.0, -1.0, 0.5])
    x = np.concatenate((np.linspace(0.001, 0.999, 999), [0.15, 0.5, 0.85]))
    for k in (box_kernel(), custom_step_kernel([-1.0, -0.3, 0.4, 1.0], [1.0, 3.0, 0.5])):
        far = x[np.min(np.abs(x[:, None] - f.breakpoints), axis=1) > 10 * t * k.half_width]
        got = convolve(k.scaled(t), f)(far)
        assert np.all(np.abs(got - f(far)) <= 4 * _U * np.abs(f(far))), (k.kind, t)


@pytest.mark.parametrize("t", [1e-3, 1e-6, 1e-9, 1e-12])
def test_triangle_convolve_is_exact_near_breakpoints(t):
    # each cell's parabola must go through interior points at their actual
    # offsets: a fit that takes the rounded midpoint for the cell centre is
    # off by ~4e-8 at t = 1e-9
    f = make_step([0.0, 0.3, 0.7, 1.0], [2.0, -1.0, 0.5])
    phi = triangle_kernel().scaled(t)
    s = np.array([0.0, 0.37, 0.71, 0.999, 1.001, 1.37])
    x = (f.breakpoints[:, None] + np.concatenate((s, -s[1:]))[None, :] * t).ravel()
    err = np.abs(convolve(phi, f)(x) - convolution_values(phi, f, x))
    assert np.max(err) <= 1e-13 * f.max_abs()


# ---------------------------------------------------------------- step-kernel windows

def _exact_step_convolution(phi_t, f, x, absolute=False):
    """(phi_t * f)(x) in rationals: every overlap of a segment of f with
    the image (x - a_{m+1}, x - a_m) of a kernel piece, from the floats
    that define phi_t and f."""
    if phi_t.kind == "box":
        h = Fraction(phi_t.half_width)
        knots, dens = [-h, h], [1 / (2 * h)]
    else:
        knots = [Fraction(a) for a in phi_t.breakpoints]
        dens = [Fraction(c) for c in phi_t.values]
    bk = [Fraction(b) for b in f.breakpoints]
    xq = Fraction(float(x))
    total = Fraction(0)
    for k, v in enumerate(f.values):
        v = Fraction(abs(v) if absolute else v)
        for m, c in enumerate(dens):
            lo, hi = max(bk[k], xq - knots[m + 1]), min(bk[k + 1], xq - knots[m])
            if hi > lo:
                total += v * c * (hi - lo)
    return total


def _stated_bound(phi_t, f, x):
    """The error bound in convolution_values' docstring."""
    knots, h, n = phi_t.support_knots, phi_t.half_width, len(f.values)
    c_max = float(np.max(phi_t.density(0.5 * (knots[:-1] + knots[1:]))))
    xq, hq, bk = Fraction(float(x)), Fraction(h), [Fraction(b) for b in f.breakpoints]
    near = [abs(v) for k, v in enumerate(f.values) if bk[k] <= xq + hq and bk[k + 1] >= xq - hq]
    M, V = len(knots) - 1, max(near, default=0.0)
    return (c_max * h * _U * (32 * (M + 2) ** 2 * V + 4 * n**2 * f.max_abs())
            + c_max * n * 2.0**-1074)


def _check_against_exact(phi_t, f, x):
    got = convolution_values(phi_t, f, x)
    for xi, gi in zip(x, got):
        err = abs(Fraction(float(gi)) - _exact_step_convolution(phi_t, f, xi))
        assert float(err) <= _stated_bound(phi_t, f, xi), (xi, gi)


_custom_kernels = st.builds(
    lambda inner, vals: custom_step_kernel([-1.0, *(i / 64 for i in inner), 1.0],
                                           vals[:len(inner) + 1]),
    st.lists(st.integers(-63, 63), min_size=1, max_size=5, unique=True).map(sorted),
    st.lists(st.floats(0.05, 10.0), min_size=6, max_size=6))
_steps = st.builds(
    lambda inner, vals: make_step([0.0, *inner, 1.0], vals[:len(inner) + 1]),
    st.lists(st.floats(1e-6, 1.0, exclude_max=True), max_size=6, unique=True).map(sorted),
    st.lists(st.floats(-1e3, 1e3), min_size=7, max_size=7))


@settings(max_examples=150, deadline=None)
@given(k=st.one_of(st.just(box_kernel()), _custom_kernels), f=_steps,
       log_t=st.floats(-300.0, math.log10(2.0)), x_rand=st.floats(-0.5, 1.5))
def test_step_kernel_windows_match_exact_rationals(k, f, log_t, x_rand):
    phi = k.scaled(10.0**log_t)
    bk, h = f.breakpoints, phi.half_width
    # on, beside and outside the breakpoints, and with a knot image on each
    x = np.concatenate((bk, bk + 1e-13, bk - 1e-13, [x_rand, -0.5 - 2 * h, 1.5 + 2 * h],
                        (bk[:, None] + phi.support_knots[None, :]).ravel()))
    _check_against_exact(phi, f, x)


def test_step_kernel_plateau_gives_value_times_mass():
    f = make_step([0.0, 0.3, 0.7, 1.0], [2.0, -1.0, 0.5])
    x = np.array([0.15, 0.5, 0.85])
    for k in (box_kernel(), custom_step_kernel([-1.0, -0.3, 0.4, 1.0], [1.0, 3.0, 0.5],
                                               normalize=False)):
        for t in (0.01, 1e-9, 1e-300):
            phi = k.scaled(t)
            assert np.array_equal(convolution_values(phi, f, x), f(x) * phi.mass)


def test_step_kernel_breakpoint_at_tiny_scale_gives_side_average():
    f = make_step([0.0, 0.3, 0.7, 1.0], [2.0, -1.0, 0.5])
    x = f.breakpoints[1:-1]
    sides = 0.5 * f.values[:-1] + 0.5 * f.values[1:]
    assert np.array_equal(convolution_values(box_kernel().scaled(1e-300), f, x), sides)
    even = custom_step_kernel([-1.0, -0.5, 0.0, 0.5, 1.0], [1.0, 3.0, 3.0, 1.0])
    got = convolution_values(even.scaled(1e-300), f, x)
    assert np.all(np.abs(got - sides) <= 8 * _U * f.max_abs())
    # the ends of (0, 1) see f on one side only
    ends = convolution_values(box_kernel().scaled(1e-300), f, [0.0, 1.0])
    assert np.array_equal(ends, 0.5 * f.values[[0, -1]])


def test_step_kernel_outside_support_is_zero():
    f = make_step([0.0, 0.3, 0.7, 1.0], [2.0, -1.0, 0.5])
    for k in (box_kernel(), custom_step_kernel([-1.0, -0.3, 0.4, 1.0], [1.0, 3.0, 0.5])):
        phi = k.scaled(0.1)
        assert np.array_equal(convolution_values(phi, f, [-0.5, -0.1, 1.1, 1.5, 7.0]),
                              np.zeros(5))


def test_step_kernel_scalar_and_unsorted_points():
    rng = np.random.default_rng(89)
    f = _signed_fn(rng, 40)
    x = rng.uniform(-0.2, 1.2, 300)
    for k in (box_kernel(), custom_step_kernel([-1.0, -0.3, 0.4, 1.0], [1.0, 3.0, 0.5])):
        phi = k.scaled(0.05)
        got = convolution_values(phi, f, x)
        order = np.argsort(x)
        assert np.array_equal(convolution_values(phi, f, x[order]), got[order])
        assert np.array_equal(convolution_values(phi, f, float(x[7])), got[7:8])
        assert np.isnan(convolution_values(phi, f, [np.nan, 0.5])[0])


@pytest.mark.parametrize("exponent", [-1070, -1060, -1040])
def test_step_kernel_subnormal_segments(exponent):
    # segments of width 2**exponent near 0: each product v_k w_k rounds to
    # a subnormal with abs error up to 2**-1075, so the prefix masses carry
    # relative error up to about 2**-1075 / (|v| w).  Over 20 seeds the error
    # relative to phi_t * |f| was at most 5.5e-3, 3.3e-6 and 3.6e-12 at the
    # three widths (0.41, 0.41 and 5.9e-4 on the pairwise formula)
    rng = np.random.default_rng(97)
    w = 2.0**exponent
    bk = np.concatenate((w * np.arange(41), [0.5, 1.0]))
    f = make_step(bk, np.concatenate((rng.uniform(0.5, 2.0, 40) * rng.choice([-1, 1], 40),
                                      [0.0, 1.0])))
    phi = box_kernel().scaled(1e-300)  # the window covers all 40 segments
    x = np.array([20 * w, 40 * w, 0.0])
    _check_against_exact(phi, f, x)
    got = convolution_values(phi, f, x)
    for xi, gi in zip(x, got):
        scale = float(_exact_step_convolution(phi, f, xi, absolute=True))
        err = float(abs(Fraction(float(gi)) - _exact_step_convolution(phi, f, xi)))
        assert err <= {-1070: 1e-2, -1060: 1e-5, -1040: 1e-11}[exponent] * scale


def test_step_kernel_many_points_against_many_segments(deadline):
    # 1e4 points against 1e5 segments: 1e9 (point, breakpoint) pairs on the
    # pairwise path, O(M log n) per point here
    rng = np.random.default_rng(101)
    f = _signed_fn(rng, 100_000)
    x = rng.uniform(-0.1, 1.1, 10_000)
    for k in (box_kernel(), custom_step_kernel([-1.0, -0.5, 0.0, 0.2, 0.5, 0.9, 1.0],
                                               [1.0, 2.0, 3.0, 1.0, 0.5, 2.0])):
        phi = k.scaled(0.01)
        tracemalloc.start()
        try:
            with deadline(5):
                got = convolution_values(phi, f, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert np.all(np.isfinite(got))


# ---------------------------------------------------------------- poly algebra

def test_piecewise_poly_from_step_round_trip():
    f = make_step([0.0, 0.3, 1.0], [2.0, -1.0])
    poly = PiecewisePoly.from_step(f)
    x = np.array([0.1, 0.5, 0.9])
    assert np.array_equal(poly(x), f(x))
    assert poly.integral(0.0, 1.0) == pytest.approx(integrate(f), rel=1e-15)
    assert poly.cumulative(1.0) == pytest.approx(integrate(f), rel=1e-15)
    assert poly.cumulative(0.0) == 0.0


def test_piecewise_poly_subtraction_matches_pointwise():
    f = CHI
    conv = convolve(box_kernel().scaled(0.1), f)
    diff = conv - f
    x = np.array([0.05, 0.31, 0.42, 0.77])
    assert np.allclose(diff(x), conv(x) - f(x), atol=1e-14)
    # and integrals subtract
    assert diff.integral(-0.5, 1.5) == pytest.approx(
        conv.integral(-0.5, 1.5) - integrate(f), abs=1e-14)


def test_step_approximate_constant_and_ramp():
    const = make_step([0.0, 1.0], [3.0])
    for n in (2, 7, 64):
        s = step_approximate(const, n)
        assert np.allclose(s.values, 3.0)
    ramp = PiecewisePoly(np.array([0.0, 1.0]), np.array([[0.0, 1.0, 0.0]]))
    s = step_approximate(ramp, 2)
    assert s.values.tolist() == [0.25, 0.75]
    with pytest.raises(ValueError):
        step_approximate(ramp, 1)


def test_step_approximate_preserves_interior_mass():
    conv = convolve(triangle_kernel().scaled(0.08), CHI)
    s = step_approximate(conv, 512)
    assert integrate(s) == pytest.approx(conv.integral(0.0, 1.0), rel=1e-12)


# ---------------------------------------------------------------- domination

def test_domination_zero_function():
    z = make_step([0.0, 1.0], [0.0])
    rep = domination_check(box_kernel(), z, np.linspace(0, 1, 11),
                           [0.5, 0.1])
    assert rep.holds
    assert rep.min_slack == 0.0
    assert rep.max_violation == 0.0
    assert rep.n_points == 22


def test_domination_indicator_box_grid():
    x = np.linspace(0.0, 1.0, 100)
    t = np.geomspace(1e-3, 1.0, 100)
    rep = domination_check(box_kernel(), CHI, x, t)
    assert rep.holds
    assert rep.min_slack >= 0.0


def test_domination_random_triangle():
    rng = np.random.default_rng(59)
    for _ in range(5):
        f = _random_fn(rng)
        rep = domination_check(triangle_kernel(), f,
                               rng.uniform(0, 1, 60),
                               np.geomspace(5e-3, 0.8, 40))
        assert rep.min_slack >= -1e-9
        assert rep.holds


# ---------------------------------------------------------------- sweeps

def test_convergence_sweep_indicator():
    spec = SpaceSpec("lambda_grand", p=2.0, weight=PowerWeight(0.0))
    res = convergence_sweep(CHI, box_kernel(), [0.2, 0.1, 0.05, 0.025],
                            spec, cells=1024)
    errs = [r.err for r in res.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    for row in res.rows:
        assert row.ratio <= 1.0 + 1e-9
        assert row.err_drift >= 0.0
        assert row.maximal_norm == res.rows[0].maximal_norm


def test_convergence_sweep_validation():
    spec = SpaceSpec("lambda_grand", p=2.0, weight=PowerWeight(0.0))
    with pytest.raises(ValueError):
        convergence_sweep(CHI, box_kernel(), [], spec)
    with pytest.raises(ValueError):
        convergence_sweep(CHI, box_kernel(), [0.1, 0.2], spec)
    with pytest.raises(ValueError):
        convergence_sweep(CHI, box_kernel(), [0.1, -0.05], spec)


def test_non_positive_sizes_are_rejected(monkeypatch):
    M = maximal(CHI)
    for n in (0, -4):
        with pytest.raises(ValueError, match="at least one sample"):
            M.sample(n)
        with pytest.raises(ValueError, match="at least one cell"):
            M.cell_average_step(n)

    def no_maximal(f):
        raise AssertionError("cells must be checked before the maximal function is built")

    monkeypatch.setattr(analysis, "maximal", no_maximal)
    spec = SpaceSpec("lorentz_pq", 2.0, 2.0)
    for cells in (1, 0, -3):
        with pytest.raises(ValueError, match="at least two cells"):
            convergence_sweep(CHI, box_kernel(), [0.1], spec, cells=cells)


def test_sweep_csv_format():
    spec = SpaceSpec("lambda_grand", p=2.0, weight=PowerWeight(0.0))
    res = convergence_sweep(CHI, box_kernel(), [0.2, 0.1], spec,
                            cells=256)
    buf = io.StringIO()
    res.to_csv(buf, header_note="demo")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# demo"
    assert lines[1].startswith("# cells=256 max_err_drift=")
    assert lines[2] == "t,err,conv_norm,maximal_norm,ratio"
    assert len(lines) == 5
    assert len(lines[3].split(",")) == 5


# ---------------------------------------------------------------- JSON

def test_kernel_from_json():
    cases = [({"kind": "box", "half_width": 0.5}, box_kernel(0.5)),
             ({"kind": "triangle"}, triangle_kernel()),
             ({"kind": "smooth_bump", "half_width": 2.0}, bump_kernel(2.0)),
             ({"kind": "custom_step", "breakpoints": [-1.0, 0.0, 1.0], "values": [0.5, 2.0]},
              custom_step_kernel([-1.0, 0.0, 1.0], [0.5, 2.0]))]
    for obj, k in cases:
        back = kernel_from_json(obj)
        assert back.kind == k.kind
        assert back.half_width == k.half_width
        assert back.mass == pytest.approx(k.mass, rel=1e-15)
    parsed = kernel_from_json({"kind": "box", "half_width": 0.5})
    assert parsed.kind == "box" and parsed.half_width == 0.5
    with pytest.raises(ValueError):
        kernel_from_json({"half_width": 0.5})


# ---------------------------------------------------------------- blocked evaluation

def _dense_maximal(f, x):
    """The unblocked formula: every (point, breakpoint) pair in one array,
    both ends of each window interpolated, plus the r -> 0 limit."""
    bk, av = f.breakpoints, np.abs(f.values)
    cum = np.concatenate(([0.0], np.cumsum(av * np.diff(bk))))
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.abs(xa[:, None] - bk[None, :])
    hi = np.interp(xa[:, None] + r, bk, cum)
    lo = np.interp(xa[:, None] - r, bk, cum)
    with np.errstate(divide="ignore", invalid="ignore"):
        best = np.where(r > 0.0, (hi - lo) / (2.0 * r), 0.0).max(axis=1)
    ir = np.clip(np.searchsorted(bk, xa, side="right") - 1, 0, len(av) - 1)
    right = np.where((xa < 0.0) | (xa >= 1.0), 0.0, av[ir])
    il = np.clip(np.searchsorted(bk, xa, side="left") - 1, 0, len(av) - 1)
    left = np.where((xa <= 0.0) | (xa > 1.0), 0.0, av[il])
    return np.maximum(best, 0.5 * (left + right))


def _reference_maximal(f, x):
    """Every (point, breakpoint) pair in one array, as the unpruned operator
    evaluated it: one interpolation per pair, |cum[j] - F(2x - b_j)| over
    2|x - b_j| in the same order of operations, 0 where x = b_j, and the
    r -> 0 limit.  The pruned operator must give the same floats."""
    bk, av = f.breakpoints, np.abs(f.values)
    cum = np.concatenate(([0.0], np.cumsum(av * np.diff(bk))))
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    with np.errstate(all="ignore"):
        far = np.abs(cum[:, None] - np.interp(2.0 * xa[None, :] - bk[:, None], bk, cum))
        width = 2.0 * np.abs(xa[None, :] - bk[:, None])
        best = np.where(width > 0.0, far / width, far).max(axis=0)
    ir = np.clip(np.searchsorted(bk, xa, side="right") - 1, 0, len(av) - 1)
    right = np.where((xa < 0.0) | (xa >= 1.0), 0.0, av[ir])
    il = np.clip(np.searchsorted(bk, xa, side="left") - 1, 0, len(av) - 1)
    left = np.where((xa <= 0.0) | (xa > 1.0), 0.0, av[il])
    return np.maximum(best, 0.5 * (left + right))


def _dense_convolution(phi_t, f, x):
    cdfs = phi_t.cdf(np.asarray(x, dtype=float)[:, None] - f.breakpoints[None, :])
    return (cdfs[:, :-1] - cdfs[:, 1:]) @ f.values


def _signed_fn(rng, n):
    bk = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]))
    return make_step(bk, rng.normal(size=n))


def _eval_points(rng, f, n_random):
    """Random points inside and outside (0, 1), 30 breakpoints including
    both ends of the support, and two points far outside."""
    bk = f.breakpoints
    on = bk[np.linspace(0, len(bk) - 1, 30).astype(int)]
    return np.concatenate((rng.uniform(-0.5, 1.5, n_random), on, [-1.0, 2.5]))


def _points_per_block(f):
    return max(1, analysis._BLOCK // len(f.breakpoints))


def test_blocked_maximal_matches_dense_formula():
    rng = np.random.default_rng(61)
    f = _signed_fn(rng, 99)
    # every pair evaluated in blocks, then past _DENSE pairs the pruned search
    for n_random in (997, 4 * analysis._DENSE // 100):
        x = _eval_points(rng, f, n_random)
        assert (len(x) * len(f.breakpoints) > analysis._DENSE) == (n_random > 997)
        assert 1 < _points_per_block(f) < len(x)
        assert len(x) % _points_per_block(f) != 0
        got = maximal(f)(x)
        assert np.array_equal(got, _reference_maximal(f, x))
        want = _dense_maximal(f, x)  # both ends interpolated: equal up to rounding
        assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_blocked_maximal_matches_brute_oracle():
    rng = np.random.default_rng(67)
    f = _signed_fn(rng, 99)
    x = _eval_points(rng, f, 40)
    brute = np.empty(len(x))
    for i, xi in enumerate(x):
        # each point's own candidate radii make the oracle exact there
        radii = np.abs(xi - f.breakpoints)
        brute[i] = brute_maximal(f.breakpoints, f.values, xi, radii[radii > 0])[0]
    got = maximal(f)(x)
    assert np.all(np.abs(got - brute) <= 1e-12 * brute)
    assert np.array_equal(got, _reference_maximal(f, x))


def test_blocked_maximal_one_point_per_block():
    rng = np.random.default_rng(71)
    f = _signed_fn(rng, analysis._BLOCK + 9)
    assert _points_per_block(f) == 1
    x = _eval_points(rng, f, 20)
    M = maximal(f)
    want = _reference_maximal(f, x)
    assert len(x) * len(f.breakpoints) > analysis._DENSE  # the pruned search
    assert np.array_equal(M(x), want)
    for i in (0, 25):  # a random point and a breakpoint, as scalars
        scalar = M(float(x[i]))
        assert isinstance(scalar, float)
        assert scalar == want[i]


def test_blocked_cell_average_step_matches_dense_formula():
    rng = np.random.default_rng(73)
    f = _signed_fn(rng, 30)
    for n in (300, 1000):  # 2,700 points x 31 breakpoints: every pair; 9,000: pruned
        step = maximal(f).cell_average_step(n)
        edges = np.linspace(0.0, 1.0, n + 1)
        pts = edges[:-1, None] + (1.0 / n) * np.linspace(0.0, 1.0, 9)[None, :]
        vals = _reference_maximal(f, pts.ravel()).reshape(n, 9)
        w = np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0])
        want = (vals @ w) / 24.0
        assert np.array_equal(step(0.5 * (edges[:-1] + edges[1:])), want)


@settings(max_examples=120, deadline=None)
@given(knots=st.lists(st.floats(5e-324, 1.0, exclude_max=True), min_size=0, max_size=12),
       ulps=st.lists(st.integers(0, 12), max_size=3),
       levels=st.lists(st.tuples(st.floats(-300.0, 300.0), st.booleans()),
                       min_size=24, max_size=24),
       picks=st.lists(st.one_of(st.integers(0, 40), st.floats(-0.5, 1.5),
                                st.sampled_from([0.0, -0.0, 1.0, 1e300, -1e300, math.nan,
                                                 math.inf, -math.inf])), max_size=40),
       cluster=st.tuples(st.floats(-0.2, 1.2), st.floats(0.0, 1e-2)),
       seed=st.integers(0, 2**32 - 1))
def test_pruned_maximal_is_bit_identical_to_every_pair(knots, ulps, levels, picks, cluster,
                                                       seed):
    # breakpoints anywhere in (0, 1), subnormal ones included, and runs of
    # segments a few ulps wide; levels 10^U(-300, 300) of either sign
    bk = np.unique(np.concatenate(([0.0, 1.0], knots)))
    for i in ulps:  # a run of 3 segments one ulp wide after breakpoint i
        b = bk[min(i, len(bk) - 2)]
        bk = np.unique(np.concatenate((bk, b + np.arange(1, 4) * np.spacing(b))))
    bk = bk[bk <= 1.0]
    vals = [(-1.0 if neg else 1.0) * 10.0**e for e, neg in levels[:len(bk) - 1]]
    f = make_step(bk, vals)
    # points on breakpoints (ints pick one), in and outside (0, 1), the ends,
    # far away and non-finite, duplicated and unsorted, and a cluster of 96
    # points, whose blocks lie apart from most chunks of breakpoints
    x = np.array([bk[p % len(bk)] if isinstance(p, int) else p for p in picks]
                 + [cluster[0] + cluster[1] * k for k in range(96)], dtype=float)
    x = np.random.default_rng(seed).permutation(np.concatenate((x, x[::3])))
    want = _reference_maximal(f, x)
    assert np.array_equal(np.isnan(want), np.isnan(x))  # nan -> nan
    assert np.all(want[np.isinf(x)] == 0.0)  # +-inf -> 0
    M = maximal(f)
    for limit in (0, analysis._DENSE):  # every call pruned, then the default
        with unittest.mock.patch.object(analysis, "_DENSE", limit):
            assert np.array_equal(M(x), want, equal_nan=True)
            if len(x):
                scalar = M(x[0])
                assert isinstance(scalar, float)
                assert np.array_equal(scalar, want[0], equal_nan=True)
            assert M(np.array([])).shape == (0,)


@settings(max_examples=300, deadline=None)
@given(knots=st.lists(st.floats(5e-324, 1.0, exclude_max=True), min_size=1, max_size=20),
       log_levels=st.lists(st.floats(-300.0, 299.0), min_size=21, max_size=21),
       chunk=st.tuples(st.integers(0, 20), st.integers(0, 7)),
       right=st.booleans(), span=st.floats(0.0, 2.0),
       offsets=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=32))
def test_radius_bounds_hold_for_every_computed_average(knots, log_levels, chunk, right, span,
                                                       offsets):
    # a block of points xa..xb apart from a chunk of breakpoints b0..b1, from
    # one ulp off its end to 2 away: every average the operator computes for
    # them lies between the bounds (in the range where it prunes)
    bk = np.unique(np.concatenate(([0.0, 1.0], knots)))
    f = make_step(bk, 10.0 ** np.array(log_levels[:len(bk) - 1]))
    bk = f.breakpoints  # equal neighbours merged
    cum = np.concatenate(([0.0], np.cumsum(f.values * np.diff(bk))))
    with np.errstate(all="ignore"):
        assert cum[-1] <= 2.0**1000 and np.all(np.isfinite(np.diff(cum) / np.diff(bk)))
    j0 = chunk[0] % len(bk)
    j1 = min(j0 + chunk[1], len(bk) - 1)
    end = np.nextafter(bk[j0], -np.inf) if right else np.nextafter(bk[j1], np.inf)
    x = np.sort(end + (-span if right else span) * np.array(offsets))
    b, c = bk[j0:j1 + 1, None], cum[j0:j1 + 1, None]
    with np.errstate(all="ignore"):
        avg = np.abs(c - np.interp(2.0 * x - b, bk, cum)) / (2.0 * np.abs(x - b))
        upper, lower = analysis._radius_bounds(bk, cum, x[0], x[-1], bk[j0], bk[j1],
                                               cum[j0], cum[j1])
    assert lower <= avg.min() and avg.max() <= upper


@pytest.mark.parametrize("n", [99, analysis._BLOCK + 9], ids=["many", "one"])
def test_blocked_convolution_matches_dense_formula(n):
    rng = np.random.default_rng(79 + n)
    f = _signed_fn(rng, n)
    x = _eval_points(rng, f, 997 if n < 1000 else 20)
    absf = make_step(f.breakpoints, np.abs(f.values))
    kernels = (box_kernel(), triangle_kernel(), bump_kernel(),
               custom_step_kernel([-1.0, -0.3, 0.4, 1.0], [1.0, 3.0, 0.5]))
    for k in kernels:
        phi = k.scaled(0.03)
        got = convolution_values(phi, f, x)
        # the sums carry signed terms: bound the rounding by phi_t * |f|
        scale = _dense_convolution(phi, absf, x)
        assert np.all(np.abs(got - _dense_convolution(phi, f, x)) <= 1e-13 * scale)


def test_blocked_operators_memory_stays_bounded():
    rng = np.random.default_rng(83)
    f = _signed_fn(rng, 1000)
    runs = (lambda: maximal(f).cell_average_step(4096),
            lambda: convolve(triangle_kernel().scaled(0.01), f))
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
