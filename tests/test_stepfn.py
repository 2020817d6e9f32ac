import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rlab import (LEBESGUE, IntervalSet, MeasureDensity, PiecewisePoly,
                  StepFunction, characteristic, custom_step_kernel,
                  distribution, integrate, level_measure, make_step,
                  measure_from_json, measure_to_json, pointwise,
                  rearrangement, step_from_json, step_to_json)
from rlab.stepfn import merge_segment_grids

from oracles import midpoint_merge


def test_construction_validates_grid():
    with pytest.raises(ValueError):
        make_step([0.0, 1.0], [1.0, 2.0])  # one value too many
    with pytest.raises(ValueError):
        make_step([0.0, 0.5], [1.0])  # must end at 1
    with pytest.raises(ValueError):
        make_step([0.1, 0.5, 1.0], [1.0, 2.0])  # must start at 0
    with pytest.raises(ValueError):
        make_step([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0])  # not increasing
    with pytest.raises(ValueError):
        make_step([0.0, 0.5, 1.0], [1.0, np.nan])


def test_canonical_merge_of_equal_neighbors():
    f = make_step([0.0, 0.3, 0.6, 1.0], [2.0, 2.0, 5.0])
    assert f.breakpoints.tolist() == [0.0, 0.6, 1.0]
    assert f.values.tolist() == [2.0, 5.0]
    g = make_step([0.0, 0.25, 0.5, 1.0], [1.0, 1.0, 1.0])
    assert len(g.values) == 1


def test_equality_is_canonical():
    a = make_step([0.0, 0.5, 1.0], [1.0, 1.0])
    b = make_step([0.0, 1.0], [1.0])
    assert a == b
    assert a != make_step([0.0, 1.0], [2.0])


def test_evaluation_right_continuous_zero_outside():
    f = make_step([0.0, 0.4, 1.0], [3.0, 7.0])
    assert f(0.2) == 3.0
    assert f(0.4) == 7.0  # right-hand value at the jump
    assert f(0.0) == 3.0
    assert f(-0.1) == 0.0
    assert f(1.0) == 7.0
    assert f(1.5) == 0.0
    got = f(np.array([-1.0, 0.1, 0.4, 0.9, 2.0]))
    assert got.tolist() == [0.0, 3.0, 7.0, 7.0, 0.0]


def test_values_are_immutable():
    f = make_step([0.0, 1.0], [2.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_pointwise_algebra_on_merged_grid():
    f = make_step([0.0, 0.5, 1.0], [1.0, 3.0])
    g = make_step([0.0, 0.25, 1.0], [2.0, 4.0])
    s = pointwise("add", f, g)
    assert s.breakpoints.tolist() == [0.0, 0.25, 0.5, 1.0]
    assert s.values.tolist() == [3.0, 5.0, 7.0]
    assert pointwise("sub", f, g).values.tolist() == [-1.0, -3.0, -1.0]
    assert pointwise("mul", f, g).values.tolist() == [2.0, 4.0, 12.0]
    # max is 4 on (0.25, 1): the two cells merge canonically
    assert pointwise("max", f, g) == make_step([0.0, 0.25, 1.0], [2.0, 4.0])
    assert pointwise("scale", f, -2.0).values.tolist() == [-2.0, -6.0]
    assert pointwise("abs", pointwise("scale", f, -1.0)) == f
    with pytest.raises(ValueError):
        pointwise("div", f, g)


def test_operator_sugar_matches_pointwise():
    f = make_step([0.0, 0.5, 1.0], [1.0, 3.0])
    g = make_step([0.0, 0.25, 1.0], [2.0, 4.0])
    assert (f + g) == pointwise("add", f, g)
    assert (f - g) == pointwise("sub", f, g)
    assert (2.0 * f) == pointwise("scale", f, 2.0)
    assert abs(-f) == f


def test_merge_segment_grids_midpoint_lookup():
    bk, fv, gv = merge_segment_grids(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0]),
                                     np.array([0.0, 0.2, 1.0]), np.array([5.0, 6.0]))
    assert bk.tolist() == [0.0, 0.2, 0.5, 1.0]
    assert fv.tolist() == [1.0, 1.0, 2.0]
    assert gv.tolist() == [5.0, 6.0, 6.0]
    # grids need not share endpoints: outside a grid's range its nearest
    # end segment applies
    bk, fv, gv = merge_segment_grids(np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0]),
                                     np.array([0.2, 0.7, 2.0]), np.array([5.0, 6.0]))
    assert bk.tolist() == [0.0, 0.2, 0.5, 0.7, 1.0, 2.0]
    assert fv.tolist() == [1.0, 1.0, 2.0, 2.0, 2.0]
    assert gv.tolist() == [5.0, 5.0, 5.0, 6.0, 6.0]


def test_merge_segment_grids_one_ulp_segment():
    # the merged segment (0.85, x) lies in f's first segment, but its float
    # midpoint rounds onto x, where the midpoint formula read f's second one
    x = np.nextafter(0.85, 1.0)
    args = (np.array([0.0, x, 1.0]), np.array([1.0, 2.0]),
            np.array([0.0, 0.85, 1.0]), np.array([5.0, 6.0]))
    assert 0.5 * (0.85 + x) == x
    assert midpoint_merge(*args)[1].tolist() == [1.0, 2.0, 2.0]
    bk, fv, gv = merge_segment_grids(*args)
    assert bk.tolist() == [0.0, 0.85, x, 1.0]
    assert fv.tolist() == [1.0, 1.0, 2.0]
    assert gv.tolist() == [5.0, 6.0, 6.0]


def _assert_same_merge(args):
    got, want = merge_segment_grids(*args), midpoint_merge(*args)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_merge_segment_grids_matches_the_midpoint_formula():
    # shared, unshared and past-the-end endpoints, shared interior points,
    # either grid the larger
    rng = np.random.default_rng(9)
    for n in (2, 3, 50, 10_000):
        for k in (2, 3, 40):
            for lo, hi in ((0.0, 1.0), (0.2, 0.7), (-0.5, 2.0), (1.0, 3.0)):
                a = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]))
                b = np.sort(np.concatenate((rng.choice(a, min(k // 2, n), replace=False),
                                            rng.uniform(lo, hi, k))))
                b = np.unique(np.clip(b, lo, hi))
                if len(b) < 2:
                    continue
                va, vb = rng.normal(size=len(a) - 1), rng.normal(size=len(b) - 1)
                _assert_same_merge((a, va, b, vb))
                _assert_same_merge((b, vb, a, va))


_grid = st.lists(st.floats(-2.0, 3.0), min_size=2, max_size=30, unique=True).map(sorted)


@settings(max_examples=200, deadline=None)
@given(a=_grid, b=_grid, data=st.data())
def test_merge_segment_grids_property(a, b, data):
    a, b = np.array(a), np.array(b)
    union = np.union1d(a, b)
    mids = 0.5 * (union[:-1] + union[1:])
    assume(np.all((union[:-1] < mids) & (mids < union[1:])))  # where the formula is exact
    va = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(a) - 1, max_size=len(a) - 1)))
    vb = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(b) - 1, max_size=len(b) - 1)))
    _assert_same_merge((a, va, b, vb))


def test_level_measure_exact():
    f = make_step([0.0, 0.2, 0.5, 1.0], [3.0, 1.0, 2.0])
    assert level_measure(f, 0.5) == 1.0
    assert level_measure(f, 1.0) == 0.7  # strict: the value-1 segment drops out
    assert level_measure(f, 2.0) == pytest.approx(0.2, abs=0)
    assert level_measure(f, 3.0) == 0.0
    mu = MeasureDensity(make_step([0.0, 0.5, 1.0], [2.0, 0.0]))
    assert level_measure(f, 1.5, mu) == 0.4  # only (0,0.2) both high and charged


def test_integrate_with_and_without_measure():
    f = make_step([0.0, 0.5, 1.0], [1.0, 3.0])
    assert integrate(f) == 2.0
    mu = MeasureDensity(make_step([0.0, 0.5, 1.0], [0.0, 2.0]))
    assert integrate(f, mu) == 3.0


def test_characteristic_and_interval_set():
    s = IntervalSet(((0.1, 0.3), (0.5, 0.6)))
    chi = characteristic(s)
    assert integrate(chi) == pytest.approx(0.3, abs=1e-15)
    assert chi(0.2) == 1.0 and chi(0.4) == 0.0 and chi(0.55) == 1.0
    assert characteristic([]) == make_step([0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        IntervalSet(((0.3, 0.1),))
    with pytest.raises(ValueError):
        IntervalSet(((0.1, 0.5), (0.4, 0.6)))  # overlap


def test_measure_density_validation_and_mass():
    with pytest.raises(ValueError):
        MeasureDensity(make_step([0.0, 1.0], [-1.0]))
    mu = MeasureDensity(make_step([0.0, 0.25, 1.0], [4.0, 0.0]))
    assert mu.total == 1.0
    assert mu.primitive(0.5) - mu.primitive(0.0) == 1.0
    assert mu.primitive(0.9) - mu.primitive(0.25) == 0.0
    assert LEBESGUE.total == 1.0


def test_json_round_trips():
    f = make_step([0.0, 0.3, 1.0], [2.5, -1.0])
    assert step_from_json(step_to_json(f)) == f
    mu = MeasureDensity(make_step([0.0, 0.5, 1.0], [1.0, 3.0]))
    back = measure_from_json(measure_to_json(mu))
    assert back.density == mu.density
    with pytest.raises(ValueError):
        step_from_json({"breakpoints": [0.0, 1.0]})


def test_random_functions_evaluate_on_own_segments():
    # seeded spot-check: value at any interior point equals its segment value
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        bk = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 0.9, n)), [1.0]))
        vals = rng.normal(size=n + 1)
        f = StepFunction(bk, vals)
        mids = 0.5 * (f.breakpoints[:-1] + f.breakpoints[1:])
        assert np.array_equal(f(mids), f.values)


# ------------------------------------------------- the shared piecewise type

_F = make_step([0.0, 0.5, 1.0], [3.0, -2.0])
_QUAD = PiecewisePoly(np.array([0.2, 0.6]), np.array([[1.0, 2.0, 3.0]]))


@pytest.mark.parametrize("fn, x, want", [
    (_F, 1.0, -2.0),                                  # a step keeps its last value at 1
    (_F, 1.0 + 1e-12, 0.0),                           # and is 0 past 1
    (rearrangement(_F), 1.0, 0.0),                    # f* is 0 at its end
    (rearrangement(_F), -0.1, 3.0),                   # f*(-0.1) = f*(0)
    (distribution(_F), 3.0, 0.0),                     # lambda is 0 at max |f|
    (distribution(_F), 7.5, 0.0),                     # and past it
    (distribution(make_step([0.0, 1.0], [0.0])), 0.0, 0.0),  # lambda of the zero function
    (custom_step_kernel([-1.0, 0.0, 1.0], [1.0, 3.0], False).density, 1.0, 0.0),  # kernel at +h
    (custom_step_kernel([-1.0, 0.0, 1.0], [1.0, 3.0], False).density, -1.0, 1.0),  # and at -h
    (_QUAD, 0.6, 1.0 + 2.0 * 0.4 + 3.0 * 0.4**2),     # PiecewisePoly on its closed grid
    (_QUAD, 0.2 - 1e-12, 0.0),                        # and 0 outside it
    (_QUAD, 0.6 + 1e-12, 0.0),
], ids=["step-at-1", "step-past-1", "fstar-end", "fstar-left", "lambda-max",
        "lambda-past-max", "lambda-zero", "kernel-plus-h", "kernel-minus-h",
        "poly-end", "poly-left", "poly-right"])
def test_end_rules_at_each_boundary(fn, x, want):
    assert float(fn(x)) == pytest.approx(want, rel=1e-15, abs=0.0)


def _exact_integral(bk, coeffs, a, b):
    """Integral over (a, b) of the zero-extended pieces, summed per segment
    in 40-digit arithmetic, and the sum of the absolute segment integrals."""
    mp = mpmath.mpf
    with mpmath.workdps(40):
        total = scale = mp(0)
        for i in range(len(bk) - 1):
            left, right = mp(bk[i]), mp(bk[i + 1])
            c0, c1, c2 = (mp(v) for v in coeffs[i])
            w = right - left
            scale += abs(c0) * w + abs(c1) * w**2 / 2 + abs(c2) * w**3 / 3
            lo, hi = max(mp(a), left) - left, min(mp(b), right) - left
            if hi > lo:
                total += c0 * (hi - lo) + c1 * (hi**2 - lo**2) / 2 + c2 * (hi**3 - lo**3) / 3
        return total, scale


@settings(max_examples=80, deadline=None)
@given(interior=st.lists(st.floats(0.01, 0.99), max_size=8, unique=True),
       coeffs=st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 3), min_size=9, max_size=9),
       ends=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
       step=st.booleans())
def test_primitive_matches_an_exact_segment_sum(interior, coeffs, ends, step):
    bk = np.array([0.0, *sorted(interior), 1.0])
    c = np.array(coeffs[: len(bk) - 1])
    if step:
        c[:, 0] = np.abs(c[:, 0])  # nonnegative, so it is also a measure density
        c[:, 1:] = 0.0
    a, b = sorted(ends)
    exact, scale = _exact_integral(bk, c, a, b)
    tol = 1e-13 * float(scale)
    poly = PiecewisePoly(bk, c)
    got = [poly.primitive(b) - poly.primitive(a)]
    if step:
        f = make_step(bk, c[:, 0])
        got += [f.primitive(b) - f.primitive(a),
                MeasureDensity(f).primitive(b) - MeasureDensity(f).primitive(a)]
    for value in got:
        assert abs(float(value) - float(exact)) <= tol
