"""Weight functions on (0, 1): step densities and analytic power weights.

Power weights coeff * t**alpha with alpha > -1 are kept symbolic so their
integrals use the exact power rule rather than a step approximation; step
weights are MeasureDensity objects (a bare StepFunction is wrapped as one).
Both kinds offer w(t) and the primitive W(t) = integral of w over (0, t),
as __call__ and primitive.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .stepfn import MeasureDensity, StepFunction, measure_from_json, step_from_json

__all__ = ["PowerWeight", "Weight", "weight_from_json"]


@dataclass(frozen=True)
class PowerWeight:
    """w(t) = coeff * t**alpha on (0, 1); integrable iff alpha > -1."""

    alpha: float
    coeff: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.alpha) or not np.isfinite(self.coeff):
            raise ValueError("power weight parameters must be finite")
        if self.alpha <= -1.0:
            raise ValueError("power weight needs alpha > -1 to be integrable")
        if self.coeff < 0:
            raise ValueError("power weight coefficient must be nonnegative")

    def __call__(self, t):
        return self.coeff * np.asarray(t, dtype=float) ** self.alpha

    def primitive(self, t):
        """W(t) = coeff * t**(alpha+1) / (alpha+1), the integral over (0, t)."""
        return self.coeff * np.asarray(t, dtype=float) ** (self.alpha + 1.0) / (self.alpha + 1.0)


Weight = Union[PowerWeight, MeasureDensity, StepFunction]


def _as_weight(w: Weight) -> Union[PowerWeight, MeasureDensity]:
    """w with a bare StepFunction wrapped as a MeasureDensity (which rejects
    negative values); both kinds then offer __call__ and primitive."""
    if isinstance(w, (PowerWeight, MeasureDensity)):
        return w
    if isinstance(w, StepFunction):
        return MeasureDensity(w)
    raise ValueError("weight must be a PowerWeight, MeasureDensity, or StepFunction")


def segment_weight_integrals(w: Weight, bk: np.ndarray) -> np.ndarray:
    """Integral of the weight over each segment (bk[i], bk[i+1]) of a grid
    inside [0, 1]; exact for both weight kinds."""
    w = _as_weight(w)
    if isinstance(w, PowerWeight):
        return w.coeff * np.diff(bk ** (w.alpha + 1.0)) / (w.alpha + 1.0)
    return np.diff(w.primitive(bk))


def weight_from_json(obj) -> Weight:
    """Parse a weight: either {"power_weight": {"alpha": a, "coeff": c}} or a
    step density in StepFunction / MeasureDensity JSON form."""
    if not isinstance(obj, dict):
        raise ValueError("weight JSON must be an object")
    if "power_weight" in obj:
        pw = obj["power_weight"]
        if not isinstance(pw, dict) or "alpha" not in pw:
            raise ValueError('power weight JSON needs an "alpha" field')
        return PowerWeight(float(pw["alpha"]), float(pw.get("coeff", 1.0)))
    if "density" in obj:
        return measure_from_json(obj)
    if "breakpoints" in obj:
        step = step_from_json(obj)
        return MeasureDensity(step)
    raise ValueError("unrecognized weight JSON (expected power_weight, density, or breakpoints)")

