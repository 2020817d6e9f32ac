"""Distribution functions, decreasing rearrangements, and their averages.

Everything in this module rearranges |f|: the absolute value is taken
before any superlevel measure is computed, so signed inputs and their
absolute values share one rearrangement.

For a step function f and a step-density measure mu the distribution
function lambda(y) = mu{|f| > y} is an exact, right-continuous,
nonincreasing step in y, and the decreasing rearrangement

    f*(t) = inf{ y > 0 : lambda(y) <= t }

is again a step function, obtained by sorting the segments of |f| by value
and accumulating their mu-lengths.  f* lives on (0, mu(X)); when the total
mass is below 1 it is extended by 0 up to 1 so that integrals over (0, 1)
are always defined, and when the mass exceeds 1 the breakpoints simply run
past 1.

Both f* and lambda sort the segments of |f| by value.  Up to 1024 segments
that is numpy's stable argsort; past it, numpy's default (unstable) one,
several times faster at 1e5 segments.  Inside a run of equal levels its
order is arbitrary, and a run's lengths are summed in sorted order, where
three or more terms can round differently in another order; so each run is
put back in segment-index order first (a step skipped without ties).  f*
and lambda are then bit-identical to a stable sort's.

The running average f**(t) = (1/t) * integral of f* over (0, t) is exact
piecewise a + b/t.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .stepfn import LEBESGUE, MeasureDensity, StepFunction, _Piecewise, merge_segment_grids

__all__ = [
    "DistributionFunction",
    "Rearrangement",
    "AverageFunction",
    "distribution",
    "rearrangement",
    "average",
]


_STABLE_MAX = 1024  # up to here numpy's stable sort costs less than the fix-up


def _sort_order(keys: np.ndarray):
    """np.argsort(keys, kind="stable"), and the mask of the first member of
    each run of equal sorted keys (None when all keys differ).  Past
    _STABLE_MAX keys numpy's default sort is several times faster; inside a
    run its order is arbitrary, so each run is put back in index order: the
    sums over a run then add in a stable sort's order, to the last bit."""
    small = len(keys) <= _STABLE_MAX
    order = np.argsort(keys, kind="stable" if small else None)
    sk = keys[order]
    tie = sk[1:] == sk[:-1]
    if not tie.any():
        return order, None
    first = np.concatenate(([True], ~tie))
    if not small:
        # group * n + index is unique, so sorting it orders each run by index
        shift = (np.cumsum(first) - 1) * len(keys)
        order = np.sort(shift + order) - shift
    return order, first


def _abs_segments(f: StepFunction, mu: MeasureDensity):
    """Merged segments of |f| with their mu-lengths."""
    bk, fv, wv = merge_segment_grids(
        f.breakpoints, f.values, mu.density.breakpoints, mu.density.values
    )
    return np.abs(fv), wv * np.diff(bk)


@dataclass(frozen=True, eq=False)
class DistributionFunction(_Piecewise):
    """lambda(y) = mu{|f| > y} as a right-continuous step in y >= 0.

    knots are the distinct values of |f| (0 prepended), measures[k] is the
    value of lambda on [knots[k], knots[k+1]); beyond the largest value
    lambda is 0.  As a piecewise step its breakpoints are the knots with
    +inf appended, so the zero function's single knot still has a segment.
    """

    knots: np.ndarray
    measures: np.ndarray

    @cached_property
    def breakpoints(self) -> np.ndarray:
        return np.append(self.knots, np.inf)

    @property
    def _coef(self) -> np.ndarray:
        return self.measures[:, None]

    def _eval(self, y):
        if np.any(y < 0):
            raise ValueError("distribution function is defined for y >= 0")
        return super()._eval(y)


def distribution(f: StepFunction, mu: Optional[MeasureDensity] = None) -> DistributionFunction:
    """Exact distribution function of |f| with respect to mu."""
    mu = mu or LEBESGUE
    vals, lens = _abs_segments(f, mu)
    order, first = _sort_order(vals)
    starts = np.arange(len(vals)) if first is None else np.flatnonzero(first)
    # the knots are the distinct values, 0 first; lambda at each is the mass
    # strictly above it, which starts where the next run of values does
    knots, ends = vals[order[starts]], np.append(starts[1:], len(vals))
    if knots[0] > 0.0:
        knots, ends = np.concatenate(([0.0], knots)), np.concatenate(([0], ends))
    suffix = np.concatenate((np.cumsum(lens[order][::-1])[::-1], [0.0]))
    return DistributionFunction(knots, suffix[ends])


@dataclass(frozen=True, eq=False)
class Rearrangement(_Piecewise):
    """Decreasing rearrangement f* of |f| onto (0, mu(X)).

    breakpoints run from 0 to max(1, total); values are nonincreasing and
    nonnegative, with the zero extension up to 1 made explicit when the
    total mass is below 1.  Right-continuous: the value at a breakpoint is
    the right segment's; 0 from the last breakpoint on, and f*(t) = f*(0)
    for t < 0.
    """

    breakpoints: np.ndarray
    values: np.ndarray
    total: float

    closed = False

    def _eval(self, t):
        return np.where(t < 0.0, self.values[0], super()._eval(t))

    def segments(self, upper: Optional[float] = None):
        """(breakpoints, values) clipped to (0, upper)."""
        if upper is None or upper >= self.breakpoints[-1]:
            return self.breakpoints, self.values
        cut = np.searchsorted(self.breakpoints, upper, side="left")
        bk = np.concatenate((self.breakpoints[:cut], [upper]))
        return bk, self.values[: len(bk) - 1]


def rearrangement(f: StepFunction, mu: Optional[MeasureDensity] = None) -> Rearrangement:
    """Sort the segments of |f| by value and accumulate their mu-lengths."""
    mu = mu or LEBESGUE
    vals, lens = _abs_segments(f, mu)
    total = float(lens.sum())
    keep = lens > 0
    vals, lens = vals[keep], lens[keep]
    if len(vals) == 0 or np.all(vals == 0.0):
        return Rearrangement(np.array([0.0, max(1.0, total)]), np.array([0.0]), total)
    order, first = _sort_order(-vals)
    gvals, glens = vals[order], lens[order]
    if first is not None:  # merge ties so the representation is canonical
        gvals, glens = gvals[first], np.bincount(np.cumsum(first) - 1, weights=glens)
    bk = np.concatenate(([0.0], np.cumsum(glens)))
    bk[-1] = total  # guard against cumsum drift
    if gvals[-1] == 0.0:
        gvals = gvals[:-1]
        bk = bk[:-1]
    end = max(1.0, total)
    if bk[-1] < end:
        bk = np.concatenate((bk, [end]))
        gvals = np.concatenate((gvals, [0.0]))
    return Rearrangement(bk, gvals, total)


@dataclass(frozen=True, eq=False)
class AverageFunction(_Piecewise):
    """f**(t) = (1/t) * integral of f* over (0, t), stored per segment as
    a + b/t.

    Segment i covers (breakpoints[i], breakpoints[i+1]) with coefficients
    (a[i], b[i]); beyond the last breakpoint f**(t) = tail_mass / t where
    tail_mass is the total integral of f*.  Continuous and nonincreasing
    on (0, infinity); a + b/t is not a polynomial piece, so no primitive.
    """

    breakpoints: np.ndarray
    a: np.ndarray
    b: np.ndarray
    tail_mass: float

    def _eval(self, t):
        if np.any(t <= 0):
            raise ValueError("average function is defined for t > 0")
        idx = self.segment(t)
        return np.where(t >= self.breakpoints[-1], self.tail_mass / t,
                        self.a[idx] + self.b[idx] / t)


def average(fstar: Rearrangement) -> AverageFunction:
    """Exact running average of a rearrangement."""
    bk, vals, cum = fstar.breakpoints, fstar.values, fstar._cum
    return AverageFunction(bk, vals, cum[:-1] - vals * bk[:-1], float(cum[-1]))

