"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths: the rearrangement
oracle goes through the inf-formula with bisection on an independently
computed distribution function, the maximal oracle maximizes over an
explicit dense radius grid, the eps-sup oracle evaluates closed-form
slice expressions on a plain uniform grid, and integrals go through a
fixed composite Gauss-Legendre rule, not the library's adaptive one.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


def brute_distribution(breakpoints, values, mu_breakpoints, mu_values, y):
    """lambda(y) = mu{|f| > y} summed segment by segment on a merged grid."""
    grid = np.union1d(np.asarray(breakpoints, float), np.asarray(mu_breakpoints, float))
    mids = 0.5 * (grid[:-1] + grid[1:])
    fi = np.searchsorted(breakpoints, mids, side="right") - 1
    wi = np.searchsorted(mu_breakpoints, mids, side="right") - 1
    fv = np.abs(np.asarray(values, float)[fi])
    wv = np.asarray(mu_values, float)[wi]
    lens = np.diff(grid) * wv
    ya = np.atleast_1d(np.asarray(y, float))
    return np.array([lens[fv > yv].sum() for yv in ya])


def midpoint_merge(bk_a, va, bk_b, vb):
    """Two segment lists on their common refinement, each merged segment
    looked up at its float midpoint and clipped to both ends of each grid:
    the union1d/searchsorted formula merge_segment_grids had before it went
    linear.  Exact wherever every midpoint lies strictly inside its segment."""
    bk = np.union1d(bk_a, bk_b)
    mids = 0.5 * (bk[:-1] + bk[1:])
    ia = np.clip(np.searchsorted(bk_a, mids, side="right") - 1, 0, len(va) - 1)
    ib = np.clip(np.searchsorted(bk_b, mids, side="right") - 1, 0, len(vb) - 1)
    return bk, np.asarray(va)[ia], np.asarray(vb)[ib]


def bisection_rearrangement(breakpoints, values, mu_breakpoints, mu_values,
                            ts, iters=80):
    """f*(t) = inf{y >= 0 : lambda(y) <= t} by bisection, vectorized in t.

    After `iters` halvings of [0, max|f|] the bracket is below machine
    precision relative to max|f|.
    """
    ts = np.asarray(ts, dtype=float)
    top = float(np.max(np.abs(values))) if len(values) else 0.0
    lo = np.zeros_like(ts)
    hi = np.full_like(ts, top)
    # lambda evaluated through the same brute path, vectorized over y
    grid = np.union1d(np.asarray(breakpoints, float), np.asarray(mu_breakpoints, float))
    mids = 0.5 * (grid[:-1] + grid[1:])
    fi = np.searchsorted(breakpoints, mids, side="right") - 1
    wi = np.searchsorted(mu_breakpoints, mids, side="right") - 1
    fv = np.abs(np.asarray(values, float)[fi])
    wv = np.asarray(mu_values, float)[wi]
    lens = np.diff(grid) * wv
    order = np.argsort(fv, kind="stable")
    sv = fv[order]
    suffix = np.concatenate((np.cumsum(lens[order][::-1])[::-1], [0.0]))

    def lam(y):
        return suffix[np.searchsorted(sv, y, side="right")]

    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        le = lam(mid)
        shrink_hi = le <= ts
        hi = np.where(shrink_hi, mid, hi)
        lo = np.where(shrink_hi, lo, mid)
    return hi


def brute_maximal(breakpoints, values, x, radii):
    """max over the given radii of the centered average of |f|, computed
    from an independently accumulated primitive; memory-chunked."""
    bk = np.asarray(breakpoints, dtype=float)
    av = np.abs(np.asarray(values, dtype=float))
    cum = np.concatenate(([0.0], np.cumsum(av * np.diff(bk))))
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    radii = np.asarray(radii, dtype=float)
    best = np.zeros_like(xa)
    chunk = max(1, int(2e6 // max(len(xa), 1)))
    for s in range(0, len(radii), chunk):
        r = radii[s:s + chunk]
        hi = np.interp(xa[:, None] + r[None, :], bk, cum)
        lo = np.interp(xa[:, None] - r[None, :], bk, cum)
        best = np.maximum(best, ((hi - lo) / (2.0 * r)).max(axis=1))
    return best


def uniform_grid_eps_sup(limit, fn, n=100_000):
    """Plain uniform-grid supremum of fn over (0, limit): the reference
    oracle for the clustered-grid engine."""
    eps = np.linspace(0.0, limit, n + 2)[1:-1]
    vals = fn(eps)
    i = int(np.argmax(vals))
    return float(vals[i]), float(eps[i])


def chi_grand_lorentz_slices(measure_of_a, p, q):
    """Closed-form slice curve of an indicator in the grand Lorentz space
    over Lebesgue measure: (eps * m^(q/p))^(1/(q-eps))."""
    m = float(measure_of_a)

    def fn(eps):
        return (eps * m ** (q / p)) ** (1.0 / (q - eps))

    return fn


@lru_cache(maxsize=None)  # leggauss takes ~1 ms, and a test calls the rule thousands of times
def _legendre_rule():
    return np.polynomial.legendre.leggauss(40)


def gauss_legendre(fn, a, b):
    """int_a^b fn by a fixed rule: 16 equal panels with a 40-point
    Gauss-Legendre rule on each.  fn takes a 1-d array of points, all
    strictly inside (a, b), and returns values elementwise.  Exact to
    rounding for integrands analytic on a neighbourhood of [a, b] that vary
    by a moderate factor within each panel."""
    x, w = _legendre_rule()
    edges = np.linspace(a, b, 17)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    pts = mid[:, None] + half[:, None] * x
    return float(np.sum(fn(pts.ravel()).reshape(pts.shape) * w * half[:, None]))
