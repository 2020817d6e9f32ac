"""Tests for power and step weights and their primitives."""

import numpy as np
import pytest

from rlab import MeasureDensity, PowerWeight, make_step, weight_from_json
from rlab.weights import _as_weight, segment_weight_integrals


def test_power_weight_values():
    w = PowerWeight(alpha=-0.5, coeff=2.0)
    t = np.array([0.25, 1.0, 4.0])
    assert np.allclose(w(t), 2.0 / np.sqrt(t))
    assert w(0.25) == pytest.approx(4.0)


def test_power_weight_validation():
    with pytest.raises(ValueError):
        PowerWeight(alpha=-1.0)
    with pytest.raises(ValueError):
        PowerWeight(alpha=-2.0)
    with pytest.raises(ValueError):
        PowerWeight(alpha=0.5, coeff=-1.0)
    with pytest.raises(ValueError):
        PowerWeight(alpha=np.inf)
    with pytest.raises(ValueError):
        PowerWeight(alpha=0.0, coeff=np.nan)


def test_power_segment_integrals_exact():
    w = PowerWeight(alpha=1.0, coeff=3.0)
    bk = np.array([0.0, 0.5, 1.0])
    # integral of 3t over (a, b) is 1.5 (b^2 - a^2)
    assert np.allclose(segment_weight_integrals(w, bk), [0.375, 1.125], rtol=1e-15)
    total = segment_weight_integrals(w, np.array([0.0, 1.0]))
    assert total.sum() == pytest.approx(1.5, rel=1e-15)


def test_power_segment_integrals_singular_endpoint():
    # W(t) = 2 sqrt(t) stays exact even though w blows up at 0.
    w = PowerWeight(alpha=-0.5)
    bk = np.array([0.0, 0.25, 1.0])
    assert np.allclose(segment_weight_integrals(w, bk), [1.0, 1.0], rtol=1e-15)


def test_step_weight_segment_integrals():
    dens = make_step([0.0, 0.5, 1.0], [2.0, 1.0])
    bk = np.array([0.0, 0.25, 0.75, 1.0])
    got = segment_weight_integrals(dens, bk)
    assert np.allclose(got, [0.5, 0.75, 0.25], rtol=1e-15)
    wrapped = segment_weight_integrals(MeasureDensity(dens), bk)
    assert np.allclose(wrapped, got, rtol=1e-15)


def test_segment_grid_off_knots():
    # Grid points interpolate linearly inside a segment of constant density.
    dens = make_step([0.0, 1.0], [3.0])
    got = segment_weight_integrals(dens, np.array([0.0, 0.1, 0.9, 1.0]))
    assert np.allclose(got, [0.3, 2.4, 0.3], rtol=1e-14)


def test_negative_step_weight_rejected():
    bad = make_step([0.0, 0.5, 1.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        segment_weight_integrals(bad, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        _as_weight(bad)


def test_primitive_power_weight():
    W = PowerWeight(alpha=-0.5, coeff=1.0).primitive
    t = np.array([0.01, 0.25, 1.0])
    assert np.allclose(W(t), 2.0 * np.sqrt(t), rtol=1e-15)
    assert float(W(1.0)) == pytest.approx(2.0)


def test_primitive_step_weight():
    dens = make_step([0.0, 0.5, 1.0], [2.0, 1.0])
    W = dens.primitive
    assert W(0.25) == pytest.approx(0.5)
    assert W(0.5) == pytest.approx(1.0)
    assert W(0.75) == pytest.approx(1.25)
    assert float(W(1.0)) == pytest.approx(1.5)
    assert W(0.0) == pytest.approx(0.0)


def test_primitive_matches_segment_sums():
    rng = np.random.default_rng(11)
    for _ in range(20):
        alpha = float(rng.uniform(-0.9, 3.0))
        coeff = float(rng.uniform(0.1, 5.0))
        w = PowerWeight(alpha=alpha, coeff=coeff)
        W = w.primitive
        bk = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, size=5))))
        partial = np.cumsum(segment_weight_integrals(w, bk))
        assert np.allclose(partial, W(bk[1:]), rtol=1e-12)
        assert np.allclose(np.diff(w.primitive(bk)), segment_weight_integrals(w, bk),
                           rtol=1e-12)
    # step weights share one primitive: its differences are the segment
    # integrals, exactly
    for _ in range(20):
        n = int(rng.integers(1, 8))
        dens = make_step(np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0])),
                         rng.uniform(0.0, 5.0, n))
        mu = MeasureDensity(dens)
        bk = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, size=5))))
        steps = np.diff(mu.primitive(bk))
        for w in (dens, mu):
            assert np.array_equal(np.diff(w.primitive(bk)), steps)
            assert np.array_equal(segment_weight_integrals(w, bk), steps)


def test_weight_json_power_round_trip():
    w = PowerWeight(alpha=0.5, coeff=2.0)
    assert weight_from_json({"power_weight": {"alpha": 0.5, "coeff": 2.0}}) == w
    # coeff defaults to 1 when omitted
    parsed = weight_from_json({"power_weight": {"alpha": 1.0}})
    assert parsed == PowerWeight(alpha=1.0, coeff=1.0)


def test_weight_json_step_forms():
    dens = make_step([0.0, 0.5, 1.0], [2.0, 1.0])
    back = weight_from_json({"breakpoints": [0.0, 0.5, 1.0], "values": [2.0, 1.0]})
    assert isinstance(back, MeasureDensity)
    assert np.array_equal(back.density.values, dens.values)
    via_density = weight_from_json(
        {"density": {"breakpoints": [0.0, 0.5, 1.0], "values": [2.0, 1.0]}}
    )
    assert np.array_equal(via_density.density.values, dens.values)


def test_weight_json_errors():
    with pytest.raises(ValueError):
        weight_from_json(["not", "a", "dict"])
    with pytest.raises(ValueError):
        weight_from_json({"power_weight": {"coeff": 2.0}})
    with pytest.raises(ValueError):
        weight_from_json({"something_else": 1})
