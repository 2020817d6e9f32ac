import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlab import (LEBESGUE, MeasureDensity, StepFunction, average, characteristic,
                  distribution, make_step, rearrangement)
from rlab.stepfn import merge_segment_grids

from oracles import bisection_rearrangement, brute_distribution


def _random_fn(rng, signed=True):
    n = int(rng.integers(1, 15))
    bk = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n)), [1.0]))
    vals = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n + 1))
    if signed:
        vals *= rng.choice([-1.0, 1.0], size=n + 1)
    return make_step(bk, vals)


def _random_measure(rng):
    n = int(rng.integers(1, 10))
    bk = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n)), [1.0]))
    return MeasureDensity(make_step(bk, np.exp(rng.uniform(-2, 2, n + 1))))


def test_distribution_knots_and_values():
    f = make_step([0.0, 0.2, 0.5, 1.0], [3.0, 1.0, 2.0])
    lam = distribution(f)
    assert lam(0.0) == 1.0
    assert lam(1.0) == 0.7
    assert lam(2.0) == pytest.approx(0.2, abs=0)
    assert lam(2.5) == pytest.approx(0.2, abs=0)
    assert lam(3.0) == 0.0
    with pytest.raises(ValueError):
        lam(-0.5)


def test_distribution_uses_absolute_value_and_measure():
    f = make_step([0.0, 0.5, 1.0], [-2.0, 1.0])
    mu = MeasureDensity(make_step([0.0, 0.5, 1.0], [4.0, 0.0]))
    lam = distribution(f, mu)
    assert lam(1.5) == 2.0  # only the |{-2}| segment, mass 4*0.5
    assert lam(0.5) == 2.0


def test_distribution_matches_brute_oracle_on_corpus():
    rng = np.random.default_rng(101)
    for _ in range(30):
        f = _random_fn(rng)
        mu = _random_measure(rng)
        lam = distribution(f, mu)
        ys = np.sort(rng.uniform(0.0, 1.1 * np.max(np.abs(f.values)), 40))
        want = brute_distribution(f.breakpoints, f.values,
                                  mu.density.breakpoints, mu.density.values, ys)
        got = lam(ys)
        assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, mu.total)


def test_rearrangement_spec_example():
    f = make_step([0.0, 0.2, 0.5, 1.0], [3.0, 1.0, 2.0])
    fs = rearrangement(f)
    assert fs.breakpoints.tolist() == [0.0, 0.2, 0.7, 1.0]
    assert fs.values.tolist() == [3.0, 2.0, 1.0]


def test_rearrangement_right_continuous_nonincreasing():
    f = make_step([0.0, 0.2, 0.5, 1.0], [3.0, 1.0, 2.0])
    fs = rearrangement(f)
    assert fs(0.2) == 2.0  # value from the right of the jump
    assert fs(0.0) == 3.0
    assert fs(1.0) == 0.0  # zero beyond the support of f*
    ts = np.linspace(1e-9, 1 - 1e-9, 500)
    vals = fs(ts)
    assert np.all(np.diff(vals) <= 0)


def test_rearrangement_total_mass_short_domain():
    # measure with total < 1: f* supported on (0, total), zero up to 1
    f = make_step([0.0, 0.5, 1.0], [2.0, 1.0])
    mu = MeasureDensity(make_step([0.0, 0.5, 1.0], [1.0, 0.0]))
    fs = rearrangement(f, mu)
    assert fs.breakpoints.tolist() == [0.0, 0.5, 1.0]
    assert fs.values.tolist() == [2.0, 0.0]
    assert fs.total == 0.5


def test_rearrangement_total_mass_long_domain():
    # total > 1: the domain of f* extends to mu(X)
    f = make_step([0.0, 0.5, 1.0], [2.0, 1.0])
    mu = MeasureDensity(make_step([0.0, 1.0], [3.0]))
    fs = rearrangement(f, mu)
    assert fs.breakpoints.tolist() == [0.0, 1.5, 3.0]
    assert fs.values.tolist() == [2.0, 1.0]
    assert fs(2.9) == 1.0 and fs(3.0) == 0.0


def test_rearrangement_ignores_sign_and_zero_measure_segments():
    f = make_step([0.0, 0.25, 0.75, 1.0], [-5.0, 1.0, 9.0])
    mu = MeasureDensity(make_step([0.0, 0.75, 1.0], [1.0, 0.0]))
    fs = rearrangement(f, mu)  # the 9.0 segment carries no mass
    assert fs.values.tolist() == [5.0, 1.0, 0.0]
    assert fs.breakpoints.tolist() == [0.0, 0.25, 0.75, 1.0]


def test_rearrangement_zero_function():
    z = make_step([0.0, 1.0], [0.0])
    fs = rearrangement(z)
    assert fs.is_zero()
    assert fs(0.3) == 0.0


def test_rearrangement_matches_bisection_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        f = _random_fn(rng)
        mu = _random_measure(rng)
        fs = rearrangement(f, mu)
        end = fs.breakpoints[-1]
        ts = np.linspace(0.0, end, 300 + 2)[1:-1]
        keep = np.min(np.abs(ts[:, None] - fs.breakpoints[None, :]), axis=1) > 1e-9
        want = bisection_rearrangement(f.breakpoints, f.values,
                                       mu.density.breakpoints,
                                       mu.density.values, ts[keep])
        got = fs(ts[keep])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_equimeasurable_with_source():
    # mu{|f| > y} equals |{f* > y}| for every level: the defining property
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = _random_fn(rng)
        mu = _random_measure(rng)
        fs = rearrangement(f, mu)
        lam = distribution(f, mu)
        ys = rng.uniform(0.0, np.max(np.abs(f.values)), 25)
        for y in ys:
            star_level = float(np.sum(np.diff(fs.breakpoints)[fs.values > y]))
            assert abs(lam(float(y)) - star_level) < 1e-12 * max(1.0, mu.total)


def test_average_function_closed_form():
    # chi_(0, 1/4): f** = 1 on (0, 1/4], then mass/t
    chi = characteristic([(0.0, 0.25)])
    fss = average(rearrangement(chi))
    assert fss(0.1) == 1.0
    assert fss(0.25) == 1.0
    assert fss(0.5) == pytest.approx(0.5, rel=1e-15)
    assert fss(2.0) == pytest.approx(0.125, rel=1e-15)
    with pytest.raises(ValueError):
        fss(0.0)


def test_average_dominates_rearrangement():
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = _random_fn(rng)
        fs = rearrangement(f)
        fss = average(fs)
        ts = rng.uniform(1e-6, 1.0, 50)
        assert np.all(fss(ts) - fs(ts) >= -1e-12)


def test_average_is_exact_running_mean():
    f = make_step([0.0, 0.5, 1.0], [4.0, 2.0])
    fss = average(rearrangement(f))
    # int_0^t f* for t=0.75: 4*0.5 + 2*0.25 = 2.5
    assert fss(0.75) == pytest.approx(2.5 / 0.75, rel=1e-15)


def test_scaling_equivariance():
    # (cf)* = |c| f* exactly for dyadic c
    rng = np.random.default_rng(5)
    f = _random_fn(rng)
    fs = rearrangement(f)
    gs = rearrangement(pointwise_scale(f, -4.0))
    assert np.array_equal(gs.values, 4.0 * fs.values)
    assert np.array_equal(gs.breakpoints, fs.breakpoints)


def pointwise_scale(f, c):
    return make_step(f.breakpoints, f.values * c)


# ------------------------------------------ exactness against a stable sort

def _abs_segments_ref(f, mu):
    # the merge has its own exactness tests (test_stepfn.py)
    bk, fv, wv = merge_segment_grids(f.breakpoints, f.values,
                                     mu.density.breakpoints, mu.density.values)
    return np.abs(fv), wv * np.diff(bk)


def _stable_rearrangement(f, mu):
    """f* from a stable sort, each tie group's lengths summed one by one in
    index order."""
    vals, lens = _abs_segments_ref(f, mu)
    total = float(lens.sum())
    keep = lens > 0
    vals, lens = vals[keep], lens[keep]
    if len(vals) == 0 or np.all(vals == 0.0):
        return np.array([0.0, max(1.0, total)]), np.array([0.0]), total
    order = np.argsort(-vals, kind="stable")
    levels, sums = [], []
    for v, length in zip(vals[order], lens[order]):
        if levels and levels[-1] == v:
            sums[-1] += length
        else:
            levels.append(v)
            sums.append(length)
    bk = np.concatenate(([0.0], np.cumsum(sums)))
    bk[-1] = total
    levels = np.array(levels)
    if levels[-1] == 0.0:
        levels, bk = levels[:-1], bk[:-1]
    if bk[-1] < max(1.0, total):
        bk, levels = np.append(bk, max(1.0, total)), np.append(levels, 0.0)
    return bk, levels, total


def _stable_distribution(f, mu):
    vals, lens = _abs_segments_ref(f, mu)
    knots = np.unique(np.concatenate(([0.0], vals)))
    order = np.argsort(vals, kind="stable")
    suffix = np.concatenate((np.cumsum(lens[order][::-1])[::-1], [0.0]))
    return knots, suffix[np.searchsorted(vals[order], knots, side="right")]


def _assert_matches_stable_sort(f, mu):
    fs, lam = rearrangement(f, mu), distribution(f, mu)
    bk, levels, total = _stable_rearrangement(f, mu)
    assert np.array_equal(fs.breakpoints, bk) and np.array_equal(fs.values, levels)
    assert fs.total == total
    knots, measures = _stable_distribution(f, mu)
    assert np.array_equal(lam.knots, knots) and np.array_equal(lam.measures, measures)


def test_ties_sum_in_stable_order():
    # levels from {0, 0.5, 1, 2} with random signs: tie groups of up to
    # thousands of segments with distinct lengths, whose sums depend on
    # their order; n = 2000 and 1e4 take the default sort and its fix-up
    rng = np.random.default_rng(31)
    for n in (3, 17, 200, 2000, 10_000):
        for _ in range(3):
            bk = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]))
            vals = rng.choice([0.0, 0.5, 1.0, 2.0], n) * rng.choice([-1.0, 1.0], n)
            f = StepFunction(bk, vals)
            _assert_matches_stable_sort(f, LEBESGUE)
            _assert_matches_stable_sort(f, _random_measure(rng))


_levels = st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0, -2.0, 3.25]), min_size=1, max_size=60)


@st.composite
def _tie_heavy(draw):
    """A step function whose levels repeat on a random grid, tiled 200 times
    (mostly past 1024 segments: the default sort and its tie fix-up) or
    not (the stable sort), and a step measure that may vanish in places."""
    vals = np.tile(draw(_levels), draw(st.sampled_from([1, 200])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = StepFunction(np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, len(vals) - 1)), [1.0])),
                     vals)
    density = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6))
    return f, MeasureDensity(make_step(np.linspace(0.0, 1.0, len(density) + 1), density))


@settings(max_examples=150, deadline=None)
@given(case=_tie_heavy())
def test_rearrangement_property(case):
    fs = rearrangement(*case)
    bk, levels, total = _stable_rearrangement(*case)
    assert np.array_equal(fs.breakpoints, bk) and np.array_equal(fs.values, levels)


@settings(max_examples=150, deadline=None)
@given(case=_tie_heavy())
def test_distribution_property(case):
    lam = distribution(*case)
    knots, measures = _stable_distribution(*case)
    assert np.array_equal(lam.knots, knots) and np.array_equal(lam.measures, measures)
