"""Adaptive Gauss-Kronrod quadrature with interval bisection.

A 7-point Gauss rule embedded in a 15-point Kronrod rule gives a per-interval
error estimate; intervals whose estimate exceeds their share of the budget
are bisected until the total estimate is at most _REL_TOL times the
integral, whatever its scale: there is no absolute floor.  integrate_batch,
the one entry point, runs many independent problems through one such loop,
each to its own budget, on batched node arrays (vector-aware callables).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureError", "QuadratureResult", "integrate_batch"]

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
    as soon as the running value or error estimate is not finite.  index is
    the failing problem of the batch."""

    def __init__(self, message: str, value: float, achieved: float, requested: float):
        super().__init__(f"{message} (achieved {achieved:.3e}, requested {requested:.3e})")
        self.value = value
        self.achieved = achieved
        self.requested = requested
        self.index = 0


@dataclass
class QuadratureResult:
    """Per-problem arrays of an integrate_batch run."""

    value: np.ndarray
    error_estimate: np.ndarray
    n_evals: np.ndarray
    n_intervals: np.ndarray


# problems refined together by integrate_batch; bounds its working arrays
_GROUP = 1024
# a problem is done at error <= _REL_TOL * |I|, and fails at _MAX_INTERVALS short of it
_REL_TOL = 1e-10
_MAX_INTERVALS = 4096


def _panels(fn, a, b):
    """Kronrod and Gauss sums for a batch of intervals (a, b arrays)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _NODES[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    kron = (vals * _KW).sum(axis=1) * half
    gauss = (vals * _GW).sum(axis=1) * half
    return kron, np.abs(kron - gauss)


def integrate_batch(fn, a, b) -> QuadratureResult:
    """Integrate m independent problems, problem k over (a[k], b[k]).

    fn(t, k) gets flat node and problem-index arrays and returns the
    values elementwise.  Each problem runs exactly as it would run alone:
    its own budget _REL_TOL * |I_k|, its own _MAX_INTERVALS, and the same
    bisection rule.  Problems are refined in groups of _GROUP, in index
    order.  If any fail, QuadratureError is raised for the lowest failing
    index (exc.index), once every problem below it has converged.  Returns
    a QuadratureResult of arrays.
    """
    a, b = np.asarray(a, dtype=float).ravel(), np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape or not np.all(b > a):
        raise ValueError("need b > a, one upper limit per lower limit")
    value, error = np.empty(len(a)), np.empty(len(a))
    n_intervals = np.zeros(len(a), dtype=int)

    def panels(ids, lo, hi):
        return _panels(lambda t: fn(t, np.repeat(ids, 15)), lo, hi)

    for start in range(0, len(a), _GROUP):
        # the live intervals and their problems (own, 0..n-1 in the group);
        # each problem's intervals keep the order a one-problem run gives
        # them, so the bincount sums below match its sums bit for bit
        lo, hi = a[start:start + _GROUP], b[start:start + _GROUP]
        n = len(lo)
        own = np.arange(n)
        vals, errs = panels(own + start, lo, hi)
        failure = None
        while True:
            count = np.bincount(own, minlength=n)
            total, err_total = np.bincount(own, vals, n), np.bincount(own, errs, n)
            budget = _REL_TOL * np.abs(total)
            live = count > 0
            bad = live & ~(np.isfinite(total) & np.isfinite(err_total))
            done = live & ~bad & (err_total <= budget)
            full = live & ~bad & ~done & (count >= _MAX_INTERVALS)
            for out, got in ((value, total), (error, err_total), (n_intervals, count)):
                out[start:start + n][done] = got[done]
            live &= ~(bad | done | full)
            failing = np.flatnonzero(bad | full)
            if len(failing):  # below any earlier failure: those above are dropped
                k = failing[0]
                failure = QuadratureError(
                    "quadrature estimate is not finite" if bad[k] else
                    "quadrature did not converge within the interval budget",
                    float(total[k]), float(err_total[k]), float(budget[k]))
                failure.index = start + int(k)
                live[k:] = False
            if not live.any():
                break
            # split what exceeds its share of the budget, or else the worst
            top = np.full(n, -np.inf)
            np.maximum.at(top, own, errs)
            keep = live[own]
            split = keep & ((errs > (budget / np.maximum(count, 1))[own]) | (errs >= top[own]))
            keep &= ~split
            mids = 0.5 * (lo[split] + hi[split])
            fresh = (np.concatenate((own[split], own[split])),
                     np.concatenate((lo[split], mids)), np.concatenate((mids, hi[split])))
            fresh += panels(fresh[0] + start, *fresh[1:])
            own, lo, hi, vals, errs = (np.concatenate((old[keep], new)) for old, new
                                       in zip((own, lo, hi, vals, errs), fresh))
        if failure is not None:
            raise failure
    # each bisection replaces one panel by two fresh ones
    return QuadratureResult(value, error, 15 * (2 * n_intervals - 1), n_intervals)
