"""Independent references for checking rlab's outputs.

Nothing here calls rlab's numerical code: rearrangements are re-sorted from
the raw segments, norms use their closed forms with the largest level
factored out (so {1e3, 1e-3} at q = 120 stays finite), eps suprema are
sampled on a uniform grid and refined by ternary search, and integrals that
have no closed form use Gauss-Legendre nodes from numpy.  The
test suite's brute-force oracles (tests/oracles.py) are loaded read-only.
Inputs are plain arrays: (breakpoints, values) of a step function and
(breakpoints, density values) of a measure.
"""
from __future__ import annotations

import importlib.util
import math
import os

import numpy as np

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def load_oracles():
    """tests/oracles.py as a module, without putting tests/ on sys.path."""
    path = os.path.join(_ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def rel_err(got, want) -> float:
    got, want = float(got), float(want)
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


# -- rearrangement ---------------------------------------------------------


def cells(bk, vals, mu=None):
    """|f| and mu-mass on the merged grid of f and the measure density."""
    bk = np.asarray(bk, float)
    vals = np.abs(np.asarray(vals, float))
    if mu is None:
        return vals, np.diff(bk)
    grid = np.union1d(bk, mu[0])
    mids = 0.5 * (grid[:-1] + grid[1:])
    fv = vals[np.searchsorted(bk, mids, side="right") - 1]
    dv = np.asarray(mu[1], float)[np.searchsorted(mu[0], mids, side="right") - 1]
    return fv, dv * np.diff(grid)


def decreasing(bk, vals, mu=None):
    """(t breakpoints, levels) of f*: cells sorted by level, mu-masses
    accumulated.  Ties are not merged; zero-mass cells are dropped."""
    lv, mass = cells(bk, vals, mu)
    keep = mass > 0
    lv, mass = lv[keep], mass[keep]
    order = np.argsort(-lv, kind="mergesort")
    return np.concatenate(([0.0], np.cumsum(mass[order]))), lv[order]


def power_integrals(bk, vals, p, mu=None):
    """int |f|^p dmu, with the largest level factored out: (top, scaled sum)
    so that the integral is top**p * scaled."""
    lv, mass = cells(bk, vals, mu)
    top = float(lv.max())
    return top, float(np.sum((lv / top) ** p * mass))


# -- scalar norms ------------------------------------------------------------


def lorentz(bk, vals, p, q, mu=None) -> float:
    """((q/p) int t^{q/p-1} f*^q dt)^{1/q}; sup t^{1/p} f*(t) for q = inf."""
    t, lv = decreasing(bk, vals, mu)
    top = float(lv.max())
    if top == 0.0:
        return 0.0
    if math.isinf(q):
        return float(np.max(lv * t[1:] ** (1.0 / p)))
    s = np.sum((lv / top) ** q * np.diff(t ** (q / p)))
    return top * float(s) ** (1.0 / q)


def lebesgue(bk, vals, p, mu=None) -> float:
    """(int |f|^p dmu)^{1/p} straight from the segments, no sorting."""
    top, s = power_integrals(bk, vals, p, mu)
    return top * s ** (1.0 / p)


def weight_masses(weight, t):
    """Integral of the weight over each interval of the grid t (within
    [0, 1]); weight is ("power", alpha, coeff) or ("step", bk, vals)."""
    t = np.clip(t, 0.0, 1.0)
    if weight[0] == "power":
        _, alpha, coeff = weight
        return coeff * np.diff(t ** (alpha + 1.0)) / (alpha + 1.0)
    _, wbk, wv = weight
    cum = np.concatenate(([0.0], np.cumsum(np.asarray(wv) * np.diff(wbk))))
    return np.diff(np.interp(t, wbk, cum))


def lambda_classical(bk, vals, p, weight, mu=None) -> float:
    """(int_0^1 f*^p w dt)^{1/p}."""
    t, lv = decreasing(bk, vals, mu)
    top = float(lv.max())
    s = np.sum((lv / top) ** p * weight_masses(weight, t))
    return top * float(s) ** (1.0 / p)


def lorentz_star(bk, vals, p, q, mu=None) -> float:
    """((q/p) int_0^inf t^{q/p-1} f**(t)^q dt)^{1/q} with f** the running
    average of f*: constant on the first segment, a + b/t on the others
    (Gauss-Legendre, 48 nodes per segment), total/t beyond the support."""
    t, lv = decreasing(bk, vals, mu)
    top = float(lv.max())
    if top == 0.0:
        return 0.0
    lv = lv / top
    e = q / p
    cum = np.concatenate(([0.0], np.cumsum(lv * np.diff(t))))
    total = lv[0] ** q * t[1] ** e / e
    lo, hi = t[1:-1], t[2:]
    a, b = lv[1:], cum[1:-1] - lv[1:] * t[1:-1]
    for s in range(0, len(lo), 4096):
        sl = slice(s, s + 4096)
        mid, half = 0.5 * (lo[sl] + hi[sl]), 0.5 * (hi[sl] - lo[sl])
        x = mid[:, None] + half[:, None] * _GL_X[None, :]
        f = x ** (e - 1.0) * (a[sl, None] + b[sl, None] / x) ** q
        total += float(np.sum((f @ _GL_W) * half))
    total += cum[-1] ** q * t[-1] ** (e - q) / (q - e)
    return top * (e * total) ** (1.0 / q)


# -- eps suprema ---------------------------------------------------------------


def grand_terms(kind, bk, vals, p, q=None, weight=None, mu=None):
    """(levels, base, top exponent, eps limit) of a grand norm: the slice is
    (eps * sum(base * level**(top - eps)))**(1/(top - eps)) on (0, limit)."""
    if kind == "grand_lebesgue":
        lv, mass = cells(bk, vals)
        return lv, mass, p, p - 1.0
    t, lv = decreasing(bk, vals, mu)
    t = np.minimum(t, 1.0)
    if kind == "grand_lorentz_pq":
        return lv, np.diff(t ** (q / p)), q, q - 1.0
    if kind == "lambda_grand":
        return lv, weight_masses(weight, t), p, p - 1.0
    raise ValueError(kind)


def slices(levels, base, top, eps):
    """Slice values at each eps, levels scaled by their maximum."""
    keep = (levels > 0) & (base > 0)
    lv, b = levels[keep], base[keep]
    eps = np.atleast_1d(np.asarray(eps, float))
    if lv.size == 0:
        return np.zeros(eps.shape)
    m = float(lv.max())
    logr = np.log(lv / m)
    out = np.empty(len(eps))
    step = max(1, 2_000_000 // len(lv))
    for s in range(0, len(eps), step):
        e = eps[s:s + step]
        inner = np.exp((top - e)[:, None] * logr[None, :]) @ b
        out[s:s + step] = m * (e * inner) ** (1.0 / (top - e))
    return out


def sup_bracket(fn, limit, upper_limit_value, n=512):
    """(lower, upper) for sup of a scalar-vectorized fn over (0, limit):
    lower is the best of a uniform grid, upper the best after ternary
    refinement around it or the closed-form one-sided limit at the upper
    end, whichever is larger."""
    eps = np.linspace(0.0, limit, n + 2)[1:-1]
    vals = fn(eps)
    i = int(np.argmax(vals))
    lower = float(vals[i])
    a = eps[i - 1] if i > 0 else eps[0] * 1e-6
    b = eps[i + 1] if i < len(eps) - 1 else limit * (1.0 - 1e-12)
    for _ in range(100):
        m1, m2 = a + (b - a) / 3.0, b - (b - a) / 3.0
        v1, v2 = fn(np.array([m1, m2]))
        if v1 < v2:
            a = m1
        else:
            b = m2
    refined = float(fn(np.array([0.5 * (a + b)]))[0])
    return lower, max(lower, refined, upper_limit_value)


def grand_bracket(levels, base, top, limit, n=512):
    """sup_bracket for a grand slice.  Every grand kind has limit = top - 1,
    so as eps -> limit the exponent tends to 1 and the slice to
    limit * sum(base * level)."""
    keep = (levels > 0) & (base > 0)
    up = float(limit * np.sum(base[keep] * levels[keep]))
    return sup_bracket(lambda e: slices(levels, base, top, e), limit, up, n)


def in_bracket(value, bracket, below=1e-9, above=1e-6) -> bool:
    lo, hi = bracket
    return lo * (1.0 - below) <= value <= hi * (1.0 + above)


# -- weight conditions -----------------------------------------------------------


def extended_weight(weight, upper):
    """(density, primitive) callables on (0, upper], continued past t = 1
    with the density at 1."""
    if weight[0] == "power":
        _, alpha, c = weight
        dens = lambda t: c * np.minimum(t, 1.0) ** alpha
        prim1 = lambda t: c * np.minimum(t, 1.0) ** (alpha + 1.0) / (alpha + 1.0)
        last = c
    else:
        _, wbk, wv = weight
        wbk, wv = np.asarray(wbk, float), np.asarray(wv, float)
        cum = np.concatenate(([0.0], np.cumsum(wv * np.diff(wbk))))
        dens = lambda t: wv[np.clip(np.searchsorted(wbk, np.minimum(t, 1.0), side="right") - 1,
                                    0, len(wv) - 1)]
        prim1 = lambda t: np.interp(np.minimum(t, 1.0), wbk, cum)
        last = float(wv[-1])
    w1 = float(prim1(np.array([1.0]))[0])

    def density(t):
        return np.where(t > 1.0, last, dens(t))

    def primitive(t):
        return np.where(t > 1.0, w1 + last * (t - 1.0), prim1(t))

    return density, primitive


def downward_value(p, q, w, v, eps, upper=1.0):
    """(int_0^upper (W/V)^((r-eps)/(p-eps)) w dt)^(1/(r-eps)), 1/r = 1/q - 1/p.

    Power/power pairs use the closed form on (0, 1]; otherwise the integrand
    is bounded and smooth between the weight knots and Gauss-Legendre nodes
    integrate it."""
    r = p * q / (p - q)
    beta = (r - eps) / (p - eps)
    if w[0] == "power" and v[0] == "power" and upper == 1.0:
        _, a1, c1 = w
        _, a2, c2 = v
        k = (c1 / (a1 + 1.0)) / (c2 / (a2 + 1.0))
        expo = (a1 - a2) * beta + a1 + 1.0
        if expo <= 0:
            return math.inf
        return (c1 * k ** beta / expo) ** (1.0 / (r - eps))
    dens, prim = extended_weight(w, upper)
    _, vprim = extended_weight(v, upper)
    knots = {0.0, 1.0, float(upper)}
    for wt in (w, v):
        if wt[0] == "step":
            knots.update(float(x) for x in wt[1][1:-1])
    knots = np.array(sorted(k for k in knots if 0.0 <= k <= upper))
    total = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        x = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X
        total += 0.5 * (b - a) * float(np.sum(_GL_W * (prim(x) / vprim(x)) ** beta * dens(x)))
    return total ** (1.0 / (r - eps))


def weight_mass(weight) -> float:
    if weight[0] == "power":
        return weight[2] / (weight[1] + 1.0)
    _, wbk, wv = weight
    return float(np.sum(np.asarray(wv) * np.diff(wbk)))


def endpoint_sup(log_fn, limit, roots=()):
    """sup of exp(log_fn(eps)) over (0, limit) from the endpoint limits and
    the given interior critical points."""
    cands = [0.0, limit] + [r for r in roots if 0.0 < r < limit]
    return math.exp(max(log_fn(e) for e in cands))


def wholds_sup(p, q, w1) -> float:
    """sup of W(1)^(1/(q-eps) - 1/(p-eps)) over (0, p-1): the exponent is
    monotone in eps, so the sup is one of the endpoint limits."""
    lw = math.log(w1)
    return endpoint_sup(lambda e: lw * (1.0 / (q - e) - 1.0 / (p - e)), p - 1.0)


def cross_weight_sup(p, q, w1, v1) -> float:
    """sup of W(1)^(1/(q-eps)) V(1)^(-1/(p-eps)) over (0, p-1): the log is
    a/(q-eps) - b/(p-eps), whose critical points solve
    (a-b) e^2 - 2(ap-bq) e + (ap^2 - bq^2) = 0."""
    a, b = math.log(w1), math.log(v1)
    qa, qb, qc = a - b, -2.0 * (a * p - b * q), a * p * p - b * q * q
    roots = []
    if qa == 0.0:
        if qb != 0.0:
            roots.append(-qc / qb)
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0:
            roots += [(-qb + s * math.sqrt(disc)) / (2.0 * qa) for s in (1.0, -1.0)]
    return endpoint_sup(lambda e: a / (q - e) - b / (p - e), p - 1.0, roots)


def density_ratio_sup(mu, nu) -> float:
    """ess sup of dnu/dmu for step densities (mu positive everywhere)."""
    grid = np.union1d(mu[0], nu[0])
    mids = 0.5 * (grid[:-1] + grid[1:])
    dm = np.asarray(mu[1])[np.searchsorted(mu[0], mids, side="right") - 1]
    dn = np.asarray(nu[1])[np.searchsorted(nu[0], mids, side="right") - 1]
    return float(np.max(dn / dm))


def t_weighted_slice(bk, vals, p, q, eps, density):
    """((q/p) eps int_0^1 t^{q/p-1} f*(t)^{q-eps} d(t) dt)^{1/(q-eps)} for a
    step density d on the t axis (Lebesgue rearrangement)."""
    t, lv = decreasing(bk, vals)
    grid = np.union1d(t, density[0])
    mids = 0.5 * (grid[:-1] + grid[1:])
    lvl = lv[np.clip(np.searchsorted(t, mids, side="right") - 1, 0, len(lv) - 1)]
    d = np.asarray(density[1])[np.searchsorted(density[0], mids, side="right") - 1]
    return slices(lvl, d * np.diff(grid ** (q / p)), q, eps)


# -- mollifiers and the maximal function -------------------------------------------


def kernel_cdf(kind, integrated=False):
    """Antiderivative K of the unit-mass kernel on (-1, 1), or with
    integrated=True the antiderivative of K (zero left of -1)."""
    if kind == "box":
        if integrated:
            return lambda z: np.where(z > 1.0, z, 0.25 * (np.clip(z, -1.0, 1.0) + 1.0) ** 2)
        return lambda z: np.clip(0.5 * (z + 1.0), 0.0, 1.0)
    if kind == "triangle":
        def tri(z):
            c = np.clip(z, -1.0, 1.0)
            if integrated:
                inner = np.where(c < 0.0, (1.0 + c) ** 3 / 6.0, c + (1.0 - c) ** 3 / 6.0)
                return np.where(z > 1.0, z, inner)
            return np.where(c < 0.0, 0.5 * (1.0 + c) ** 2, 1.0 - 0.5 * (1.0 - c) ** 2)
        return tri
    if kind == "smooth_bump":
        # exp(1/(z^2-1)) on Gauss-Legendre panels, cumulated and normalized
        edges = np.linspace(-1.0, 1.0, 4097)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        x = mid[:, None] + half[:, None] * _GL_X[None, :]
        panel = (np.exp(1.0 / (x * x - 1.0)) @ _GL_W) * half
        cum = np.concatenate(([0.0], np.cumsum(panel)))
        cum /= cum[-1]
        if integrated:
            cum2 = np.concatenate(([0.0], np.cumsum(0.5 * (cum[1:] + cum[:-1]) * np.diff(edges))))
            return lambda z: np.where(z > 1.0, cum2[-1] + z - 1.0, np.interp(z, edges, cum2))
        return lambda z: np.interp(z, edges, cum)
    raise ValueError(kind)


def cell_averages(kind, t, bk, vals, cells):
    """Exact averages of phi_t * f and of f over the cells of a uniform
    partition of (0, 1), from the twice-integrated kernel."""
    k2 = kernel_cdf(kind, integrated=True)
    bk, vals = np.asarray(bk, float), np.asarray(vals, float)
    edges = np.linspace(0.0, 1.0, cells + 1)
    d = np.empty(len(edges))
    step = max(1, 2_000_000 // len(bk))
    for s in range(0, len(edges), step):
        k = k2((edges[s:s + step, None] - bk[None, :]) / t)
        d[s:s + step] = (k[:, :-1] - k[:, 1:]) @ vals
    conv = t * np.diff(d) * cells
    cum = np.concatenate(([0.0], np.cumsum(vals * np.diff(bk))))
    return conv, np.diff(np.interp(edges, bk, cum)) * cells


def maximal_sampled(bk, vals, x):
    """Centered maximal function at points x off the breakpoints: the best
    average over the candidate radii |x - b| and the r -> 0 limit."""
    bk, vals = np.asarray(bk, float), np.asarray(vals, float)
    cum = np.concatenate(([0.0], np.cumsum(np.abs(vals) * np.diff(bk))))
    out = np.empty(len(x))
    step = max(1, 2_000_000 // len(bk))
    for s in range(0, len(x), step):
        xs = x[s:s + step, None]
        r = np.abs(xs - bk[None, :])
        span = np.interp(xs + r, bk, cum) - np.interp(xs - r, bk, cum)
        out[s:s + step] = np.max(np.divide(span, 2.0 * r, out=np.zeros_like(span),
                                           where=r > 0), axis=1)
    return np.maximum(out, _abs_at(bk, vals, x))


def _abs_at(bk, vals, x):
    """|f(x)|, the r -> 0 limit of the centered average at x off the
    breakpoints; 0 outside (0, 1)."""
    idx = np.clip(np.searchsorted(bk, x, side="right") - 1, 0, len(vals) - 1)
    return np.where((x > 0.0) & (x < 1.0), np.abs(vals[idx]), 0.0)


def convolution(kind, t, bk, vals, x):
    """(phi_t * f)(x) for f zero-extended, from the kernel antiderivative."""
    cdf = kernel_cdf(kind)
    bk, vals = np.asarray(bk, float), np.asarray(vals, float)
    out = np.empty(len(x))
    step = max(1, 2_000_000 // len(bk))
    for s in range(0, len(x), step):
        c = cdf((x[s:s + step, None] - bk[None, :]) / t)
        out[s:s + step] = (c[:, :-1] - c[:, 1:]) @ vals
    return out


def maximal_exact(oracles, bk, vals, x):
    """Centered maximal function at x: the test oracle's brute force over a
    dense radius grid enriched with every candidate radius |x - b|, and the
    r -> 0 limit |f(x)| (x off the breakpoints)."""
    bk, vals = np.asarray(bk, float), np.asarray(vals, float)
    out = np.empty(len(x))
    base = np.geomspace(1e-6, 2.0, 2000)
    for i, xi in enumerate(x):
        cand = np.abs(xi - bk)
        radii = np.unique(np.concatenate((base, cand[cand > 0])))
        out[i] = oracles.brute_maximal(bk, vals, [xi], radii)[0]
    return np.maximum(out, _abs_at(bk, vals, x))


def l2_on_grid(values) -> float:
    """L^2(0,1) norm of a step function with equal cells, or of midpoint
    samples on a uniform grid."""
    return float(np.sqrt(np.mean(np.square(values))))
