"""Seeded random step functions and measures for property checks.

Generator version 1: interior breakpoint count uniform on 1..20, interior
breakpoints sorted uniforms, segment values log-uniform in [1e-3, 1e3].
Checks that embed a seed in their reports rely on this recipe staying
fixed; change it only with a version bump.
"""
from __future__ import annotations

import numpy as np

from .stepfn import MeasureDensity, StepFunction, make_step

__all__ = ["GENERATOR_VERSION", "random_step_function", "random_measure"]

GENERATOR_VERSION = 1

_LOG_LO = np.log(1e-3)
_LOG_HI = np.log(1e3)


def _interior_breakpoints(rng: np.random.Generator) -> np.ndarray:
    n = int(rng.integers(1, 21))
    while True:
        mids = np.sort(rng.uniform(0.0, 1.0, size=n))
        bk = np.concatenate(([0.0], mids, [1.0]))
        if np.all(np.diff(bk) > 0):
            return bk


def random_step_function(rng: np.random.Generator, signed: bool = False) -> StepFunction:
    """Random step function on (0, 1); values positive unless signed."""
    bk = _interior_breakpoints(rng)
    vals = np.exp(rng.uniform(_LOG_LO, _LOG_HI, size=len(bk) - 1))
    if signed:
        vals *= rng.choice([-1.0, 1.0], size=len(vals))
    return make_step(bk, vals)


def random_measure(rng: np.random.Generator) -> MeasureDensity:
    """Random step density, positive on every segment."""
    bk = _interior_breakpoints(rng)
    vals = np.exp(rng.uniform(_LOG_LO, _LOG_HI, size=len(bk) - 1))
    return MeasureDensity(make_step(bk, vals))
