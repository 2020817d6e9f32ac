"""Adaptive Gauss-Kronrod quadrature with interval bisection.

A 7-point Gauss rule embedded in a 15-point Kronrod rule gives a per-interval
error estimate; intervals whose estimate exceeds their share of the budget
are bisected until the total estimate meets the requested tolerance.  The
integrand is always evaluated on batched node arrays, so vector-aware
callables stay fast.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureError", "QuadratureResult", "integrate_adaptive"]

# 15-point Kronrod abscissae on [-1, 1] (positive half; symmetric)
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
# 7-point Gauss weights for the shared nodes _XK[1], _XK[3], _XK[5], _XK[7]
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate((-_XK[:-1], _XK[::-1]))          # 15 ascending nodes
_KW = np.concatenate((_WK[:-1], _WK[::-1]))              # Kronrod weights
_GW = np.zeros(15)
_GW[1:14:2] = np.concatenate((_WG[:-1], _WG[::-1]))      # Gauss weights on shared nodes


class QuadratureError(RuntimeError):
    """Raised when the interval budget is exhausted before convergence, or
    as soon as the running value or error estimate is not finite."""

    def __init__(self, message: str, value: float, achieved: float, requested: float):
        super().__init__(f"{message} (achieved {achieved:.3e}, requested {requested:.3e})")
        self.value = value
        self.achieved = achieved
        self.requested = requested


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    n_evals: int
    n_intervals: int


def _panels(fn, a, b):
    """Kronrod and Gauss sums for a batch of intervals (a, b arrays)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    kron = (vals * _KW).sum(axis=1) * half
    gauss = (vals * _GW).sum(axis=1) * half
    return kron, np.abs(kron - gauss)


def integrate_adaptive(fn, a: float, b: float, rel_tol: float = 1e-10,
                       abs_floor: float = 1e-14, max_intervals: int = 4096) -> QuadratureResult:
    """Integrate fn over (a, b) to relative tolerance rel_tol.

    fn must accept a 1-d array of points and return values elementwise.
    The accepted error is max(rel_tol * |integral|, abs_floor).  Raises
    QuadratureError if max_intervals bisections are not enough, or once
    the running value or error estimate is not finite (no interval could
    then be chosen to split).
    """
    if not b > a:
        raise ValueError("need b > a")
    lo = np.array([float(a)])
    hi = np.array([float(b)])
    vals, errs = _panels(fn, lo, hi)
    n_evals = 15
    while True:
        total = float(vals.sum())
        err_total = float(errs.sum())
        budget = max(rel_tol * abs(total), abs_floor)
        if not (math.isfinite(total) and math.isfinite(err_total)):
            raise QuadratureError("quadrature estimate is not finite",
                                  total, err_total, budget)
        if err_total <= budget:
            return QuadratureResult(total, err_total, n_evals, len(vals))
        if len(vals) >= max_intervals:
            raise QuadratureError(
                "quadrature did not converge within the interval budget",
                total, err_total, budget,
            )
        split = errs > budget / max(len(vals), 1)
        if not split.any():
            split = errs >= errs.max()
        keep = ~split
        mids = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[keep], lo[split], mids))
        new_hi = np.concatenate((hi[keep], mids, hi[split]))
        new_vals = np.concatenate((vals[keep], np.zeros(2 * split.sum())))
        new_errs = np.concatenate((errs[keep], np.zeros(2 * split.sum())))
        fresh_lo = new_lo[len(vals[keep]):]
        fresh_hi = new_hi[len(vals[keep]):]
        fv, fe = _panels(fn, fresh_lo, fresh_hi)
        n_evals += 15 * len(fresh_lo)
        new_vals[len(vals[keep]):] = fv
        new_errs[len(vals[keep]):] = fe
        lo, hi, vals, errs = new_lo, new_hi, new_vals, new_errs
