"""Exact calculus for step functions and step-density measures on (0, 1).

A step function is stored as a strictly increasing breakpoint grid running
from 0 to 1 together with one value per open segment.  All arithmetic here
is finite segment bookkeeping, so results are exact up to float rounding:
no discretization is introduced by pointwise algebra, integration, or
superlevel-set measure.

The value at a breakpoint is the right-hand segment value by convention;
outside [0, 1] every function evaluates to 0 (zero extension).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Union

import numpy as np

__all__ = [
    "StepFunction",
    "MeasureDensity",
    "IntervalSet",
    "LEBESGUE",
    "make_step",
    "pointwise",
    "level_measure",
    "integrate",
    "characteristic",
    "merge_segment_grids",
    "step_to_json",
    "step_from_json",
    "measure_to_json",
    "measure_from_json",
]


def _as_float_array(x) -> np.ndarray:
    a = np.array(x, dtype=float, copy=True)
    return np.atleast_1d(a)


def _canonical(bk: np.ndarray, vals: np.ndarray):
    """Merge adjacent segments with exactly equal values."""
    if len(vals) > 1:
        keep = np.concatenate(([True], np.diff(vals) != 0))
        if not np.all(keep):
            idx = np.flatnonzero(keep)
            return np.concatenate((bk[idx], bk[-1:])), vals[keep]
    return bk, vals


def _prefix_error(cum: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The running sum of the rounding errors of cum = [0, cumsum(cells)]'s
    additions (TwoSum, exact per step)."""
    a, s = cum[:-1], cum[1:]
    bb = s - a
    return np.concatenate(([0.0], np.cumsum((a - (s - bb)) + (cells - bb))))


class _Piecewise:
    """Breakpoints plus per-segment coefficients: the one piecewise type
    under StepFunction, f*, lambda, f**, PiecewisePoly and step kernels.

    ``_coef`` holds c0, c1, c2 of c0 + c1*u + c2*u^2 (u = x - breakpoints[i])
    per segment, or c0 alone for a step.  Values are right-continuous and 0
    left of the grid; at the last breakpoint a ``closed`` function keeps its
    last value (a StepFunction at 1) and an open one is 0 (f*, a kernel).
    """

    closed = True

    @property
    def _coef(self) -> np.ndarray:
        return self.values[:, None]

    def segment(self, x) -> np.ndarray:
        """Right-continuous segment index of x, clipped to the grid."""
        bk = self.breakpoints
        return np.clip(np.searchsorted(bk, x, side="right") - 1, 0, len(bk) - 2)

    def _eval(self, x: np.ndarray) -> np.ndarray:
        bk, coef, idx = self.breakpoints, self._coef, self.segment(x)
        out = coef[idx, 0]
        if coef.shape[1] > 1:
            u = x - bk[idx]
            out = out + u * (coef[idx, 1] + u * coef[idx, 2])
        past = x > bk[-1] if self.closed else x >= bk[-1]
        return np.where((x < bk[0]) | past, 0.0, out)

    def __call__(self, x):
        """Evaluate at a scalar (giving a float) or an array (same shape)."""
        xa = np.asarray(x, dtype=float)
        out = self._eval(xa)
        return float(out) if xa.ndim == 0 else out

    @cached_property
    def _cum(self) -> np.ndarray:
        w, c = np.diff(self.breakpoints), self._coef
        cells = c[:, 0] * w
        if c.shape[1] > 1:
            cells = cells + c[:, 1] * w**2 / 2.0 + c[:, 2] * w**3 / 3.0
        return np.concatenate(([0.0], np.cumsum(cells)))

    @cached_property
    def _cum_err(self) -> np.ndarray:
        """For a step: _cum + _cum_err carries the prefix masses of the
        rounded v_k * w_k to about twice the precision."""
        return _prefix_error(self._cum, self._coef[:, 0] * np.diff(self.breakpoints))

    def primitive(self, x):
        """Exact integral from the first breakpoint up to x, constant past
        the grid, in the shape of x."""
        bk, coef, cum = self.breakpoints, self._coef, self._cum
        if coef.shape[1] == 1:
            return np.interp(x, bk, cum)
        xa = np.asarray(x, dtype=float)
        idx = self.segment(xa)
        u = np.clip(xa - bk[idx], 0.0, None)
        out = cum[idx] + u * (coef[idx, 0] + u * (coef[idx, 1] / 2.0 + u * coef[idx, 2] / 3.0))
        return np.where(xa >= bk[-1], cum[-1], np.where(xa <= bk[0], 0.0, out))

    def is_zero(self) -> bool:
        return bool(np.all(self._coef == 0.0))


@dataclass(frozen=True)
class StepFunction(_Piecewise):
    """Piecewise-constant function on (0, 1).

    Attributes
    ----------
    breakpoints : ndarray
        Strictly increasing grid, ``breakpoints[0] == 0`` and
        ``breakpoints[-1] == 1``.
    values : ndarray
        One value per open segment, ``len(values) == len(breakpoints) - 1``.

    Construction canonicalizes: adjacent segments with exactly equal values
    are merged, so two step functions are equal as functions iff their
    stored arrays are equal.  Use :func:`make_step` as the friendly
    constructor.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bk = _as_float_array(self.breakpoints)
        vals = _as_float_array(self.values)
        if bk.ndim != 1 or vals.ndim != 1:
            raise ValueError("breakpoints and values must be 1-d sequences")
        if len(bk) < 2:
            raise ValueError("need at least two breakpoints")
        if len(vals) != len(bk) - 1:
            raise ValueError(
                f"got {len(vals)} values for {len(bk) - 1} segments"
            )
        if not (np.all(np.isfinite(bk)) and np.all(np.isfinite(vals))):
            raise ValueError("breakpoints and values must be finite")
        if bk[0] != 0.0 or bk[-1] != 1.0:
            raise ValueError("breakpoints must run from 0 to 1")
        if not np.all(np.diff(bk) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        bk, vals = _canonical(bk, vals)
        bk.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "breakpoints", bk)
        object.__setattr__(self, "values", vals)

    # -- basic queries ------------------------------------------------

    @property
    def segment_lengths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    # -- operator sugar (thin wrappers over pointwise) ------------------

    def __add__(self, other):
        return pointwise("add", self, other)

    def __radd__(self, other):
        return pointwise("add", self, other)

    def __sub__(self, other):
        return pointwise("sub", self, other)

    def __mul__(self, c):
        return pointwise("scale", self, c)

    __rmul__ = __mul__

    def __neg__(self):
        return pointwise("scale", self, -1.0)

    def __abs__(self):
        return pointwise("abs", self)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return np.array_equal(self.breakpoints, other.breakpoints) and np.array_equal(
            self.values, other.values
        )


def make_step(breakpoints: Iterable[float], values: Iterable[float]) -> StepFunction:
    """Build a canonical StepFunction, validating the grid.

    Raises ValueError for non-monotone breakpoints, endpoints other than
    0 and 1, length mismatch, or non-finite entries.
    """
    return StepFunction(np.asarray(breakpoints, float), np.asarray(values, float))


def _is_scalar(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating))


@dataclass(frozen=True)
class MeasureDensity:
    """Absolutely continuous measure d(mu) = w dt with a step density w >= 0."""

    density: StepFunction

    def __post_init__(self):
        if not isinstance(self.density, StepFunction):
            raise ValueError("density must be a StepFunction")
        if np.any(self.density.values < 0):
            raise ValueError("measure density must be nonnegative")

    @property
    def total(self) -> float:
        """mu((0, 1)), the total mass."""
        return float(np.dot(self.density.values, self.density.segment_lengths))

    def __call__(self, t):
        """The density w at t (StepFunction conventions)."""
        return self.density(t)

    def primitive(self, t):
        """mu((0, t)) for t in [0, 1], exact: linear inside each segment."""
        return self.density.primitive(t)


LEBESGUE = MeasureDensity(make_step([0.0, 1.0], [1.0]))


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of pairwise disjoint open subintervals of (0, 1)."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        last = 0.0
        for k, (a, b) in enumerate(ivs):
            if not (0.0 <= a < b <= 1.0):
                raise ValueError(f"interval {k} = ({a}, {b}) must satisfy 0 <= a < b <= 1")
            if a < last:
                raise ValueError("intervals must be sorted and pairwise disjoint")
            last = b
        object.__setattr__(self, "intervals", ivs)


def merge_segment_grids(bk_a, va, bk_b, vb):
    """Resample two segment lists onto their common refinement.

    Returns (bk, va_on_bk, vb_on_bk) with bk the sorted union of both grids.
    Each segment of bk takes, from each grid, the value of the segment that
    contains it; outside a grid's range that grid's nearest end segment
    applies, so the grids need not share endpoints.  Linear in the larger
    grid: only the smaller grid's points are searched into it, and a grid's
    segment index on bk is the running count of its own points, less one.
    """
    swap = len(bk_a) < len(bk_b)
    big, small = (np.asarray(bk_b), np.asarray(bk_a)) if swap else (np.asarray(bk_a), np.asarray(bk_b))
    pos = np.searchsorted(big, small)
    new = np.take(big, pos, mode="clip") != small  # small points not on the big grid
    at = pos + np.cumsum(new) - new  # each small point's index in bk
    bk = np.empty(len(big) + int(np.count_nonzero(new)), dtype=np.result_type(big, small))
    on_big, on_small = np.ones(len(bk), dtype=bool), np.zeros(len(bk), dtype=bool)
    on_big[at[new]] = False
    on_small[at] = True
    bk[at], bk[on_big] = small, big
    i_big, i_small = np.cumsum(on_big[:-1]) - 1, np.cumsum(on_small[:-1]) - 1
    ia, ib = (i_small, i_big) if swap else (i_big, i_small)
    return bk, np.take(va, ia, mode="clip"), np.take(vb, ib, mode="clip")


def _coerce_operand(g) -> StepFunction:
    if isinstance(g, StepFunction):
        return g
    if _is_scalar(g):
        return make_step([0.0, 1.0], [float(g)])
    raise ValueError("operand must be a StepFunction or a scalar")


def pointwise(op: str, f: StepFunction, g=None) -> StepFunction:
    """Exact pointwise algebra on the merged breakpoint grid.

    op is one of "add", "sub", "mul", "scale", "abs", "max".  For "scale"
    g is a scalar; for "abs" g is omitted; otherwise g may be a
    StepFunction or a scalar (treated as a constant function).
    """
    if op == "abs":
        return StepFunction(f.breakpoints, np.abs(f.values))
    if op == "scale":
        if g is None or not _is_scalar(g):
            raise ValueError("scale needs a scalar factor")
        return StepFunction(f.breakpoints, f.values * float(g))
    if op not in ("add", "sub", "mul", "max"):
        raise ValueError(f"unknown pointwise op {op!r}")
    gf = _coerce_operand(g)
    bk, fv, gv = merge_segment_grids(f.breakpoints, f.values, gf.breakpoints, gf.values)
    if op == "add":
        out = fv + gv
    elif op == "sub":
        out = fv - gv
    elif op == "mul":
        out = fv * gv
    else:
        out = np.maximum(fv, gv)
    return StepFunction(bk, out)


def level_measure(f: StepFunction, y: float, mu: Optional[MeasureDensity] = None) -> float:
    """mu{x : f(x) > y}, the strict superlevel-set measure.

    Exact: the superlevel set of a step function is a finite union of
    segments of the merged grid.
    """
    mu = mu or LEBESGUE
    y = float(y)
    bk, fv, wv = merge_segment_grids(
        f.breakpoints, f.values, mu.density.breakpoints, mu.density.values
    )
    mask = fv > y
    return float(np.sum(wv[mask] * np.diff(bk)[mask]))


def integrate(f: StepFunction, mu: Optional[MeasureDensity] = None) -> float:
    """Integral of f over (0, 1) against mu (exact segment sum)."""
    mu = mu or LEBESGUE
    bk, fv, wv = merge_segment_grids(
        f.breakpoints, f.values, mu.density.breakpoints, mu.density.values
    )
    return float(np.sum(fv * wv * np.diff(bk)))


def characteristic(intervals: Union[IntervalSet, Iterable]) -> StepFunction:
    """Indicator step function of a finite union of open intervals."""
    if not isinstance(intervals, IntervalSet):
        intervals = IntervalSet(tuple(intervals))
    bk = [0.0]
    vals = []
    for a, b in intervals.intervals:
        if a > bk[-1]:
            vals.append(0.0)
            bk.append(a)
        vals.append(1.0)
        bk.append(b)
    if bk[-1] < 1.0:
        vals.append(0.0)
        bk.append(1.0)
    return make_step(bk, vals)


# -- JSON formats ------------------------------------------------------
# StepFunction: {"breakpoints": [...], "values": [...]}
# MeasureDensity: {"density": {"breakpoints": [...], "values": [...]}}


def step_to_json(f: StepFunction) -> dict:
    return {"breakpoints": f.breakpoints.tolist(), "values": f.values.tolist()}


def step_from_json(obj: dict) -> StepFunction:
    if not isinstance(obj, dict) or "breakpoints" not in obj or "values" not in obj:
        raise ValueError('step function JSON needs "breakpoints" and "values" fields')
    return make_step(obj["breakpoints"], obj["values"])


def measure_to_json(mu: MeasureDensity) -> dict:
    return {"density": step_to_json(mu.density)}


def measure_from_json(obj: dict) -> MeasureDensity:
    if not isinstance(obj, dict) or "density" not in obj:
        raise ValueError('measure JSON needs a "density" field')
    return MeasureDensity(step_from_json(obj["density"]))
