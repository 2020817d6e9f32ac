"""Classical and grand Lorentz-type norms of step functions on (0, 1).

Every kind but lorentz_pq_star is one power sum over segments (t_k, t_k+1)
with a level v_k, a base b_k and a top exponent s: (sum b_k v_k^s)^(1/s),
or for grand kinds sup over 0 < eps < s-1 of (eps sum b_k v_k^(s-eps))^(1/(s-eps)).

    kind              levels v_k    base b_k                    s   eps limit
    lorentz_pq        f* on (0, oo) t_k+1^(q/p) - t_k^(q/p)     q   -
    grand_lorentz_pq  f* on (0, 1)  t_k+1^(q/p) - t_k^(q/p)     q   q-1
    lambda_classical  f* on (0, 1)  int of w over the segment   p   -
    lambda_grand      f* on (0, 1)  int of w over the segment   p   p-1
    grand_lebesgue    |f|           segment length              p   p-1

For q = inf the norm is max_k v_k t_k+1^(1/p).  space_norm evaluates them
all from _terms; the per-kind functions are thin wrappers around it.

Scalar norms (Lorentz L^{p,q}, its averaged variant, weighted Lambda) are
exact segment sums except for the averaged variant with finite q, whose
mixed-segment integrands (a + b/t)^q go through one batched adaptive
quadrature call.

Grand norms are suprema over eps in (0, limit = s - 1), found by a
certified branch-and-bound.  With G(eps) = log sum b_k (v_k/vmax)^(s-eps),
log(value/vmax) = (log eps + G)/(s - eps), and G is convex (a log-sum-exp
of functions linear in eps) and nondecreasing (v_k <= vmax).  On a cell
[e1, e2], G lies below its chord and log eps below its tangent at the
midpoint, so the numerator is at most A + B eps; (A + B eps)/(s - eps) is
monotone, so its larger end value bounds the cell.  On the first cell
(0, e1] the numerator is at most log e1 + G(e1).  The search starts from
64 nodes geometric toward both ends and the limit, where the slice is
limit * sum b_k v_k in closed form (endpoint_limit "upper" if it wins).
Each cell whose bound exceeds the best log value by more than 2e-13 is cut
into 8, all new nodes in one slice call, until none is left.  upper, the
largest bound of a discarded cell, is widened in log(value) by
    delta = u (log2(terms) + 3 s spread + 8 (c + s + 6)),
u = 2**-53, spread = log(vmax/vmin) and c >= s |log(value/vmax)| + |G| +
|log eps| at every node: a bound on the rounding of each G (exponents,
exp, the pairwise sum, the 1/s power, logs) and of the cell bounds, so
[value, upper] holds in floating point (terms below the smallest normal
float aside).  The search reads no grid.  Slices factor out
the top level and run over eps in blocks of at most 2**16 float64 values
(512 KiB), or one eps at a time past that many terms, so grand norms stay
finite for any finite levels and their memory does not grow with the grid.

The loop itself, _eps_sup, also certifies embeddings.downward_check.
eps_grid (2048 points, GRID_DELTA = 1e-6 from both ends) is sampled only by
eps_profile and domination_slice_check, whose answer it defines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .quadrature import integrate_batch
from .rearrange import Rearrangement, average, rearrangement
from .stepfn import (
    LEBESGUE,
    MeasureDensity,
    StepFunction,
    measure_from_json,
    merge_segment_grids,
)
from .weights import (
    PowerWeight,
    Weight,
    _as_weight,
    segment_weight_integrals,
    weight_from_json,
)

__all__ = [
    "DEFAULT_GRID",
    "GRID_DELTA",
    "EpsSupResult",
    "SpaceSpec",
    "eps_grid",
    "lorentz_pq_norm",
    "lorentz_pq_star_norm",
    "grand_lebesgue_norm",
    "grand_lorentz_pq_norm",
    "grand_lambda_norm",
    "grand_lorentz_slice_values",
    "eps_profile",
    "space_norm",
    "norm_value",
    "spacespec_from_json",
]

DEFAULT_GRID = 2048
GRID_DELTA = 1e-6

# float64 values per eps-slice temporary (512 KiB), not analysis's 2**14: a
# block this size raises glibc's adaptive heap-trim threshold when freed; at
# 2**14 the ~120 KiB quadrature arrays of downward_check were trimmed off the
# heap and faulted back in on every bisection round (+30% per call)
_BLOCK = 2**16
# the eps-sup branch-and-bound: starting nodes, the split of a cell, the
# stopping tolerance in log(value), and the unit roundoff
_START, _SPLIT, _TOL, _U = 64, 8, 2e-13, 2.0**-53


def eps_grid(limit: float, size: Optional[int] = None) -> np.ndarray:
    """Geometric eps grid on (GRID_DELTA, limit - GRID_DELTA), clustered at both ends.

    Half the points are log-spaced offsets from the lower endpoint, half
    mirrored from the upper endpoint; the center point belongs to the lower
    half only, so the grid has exactly `size` distinct ascending points.
    """
    size = size or DEFAULT_GRID
    if size < 8:
        raise ValueError("eps grid needs at least 8 points")
    if not limit > 2.0 * GRID_DELTA:
        raise ValueError(f"eps interval (0, {limit}) too narrow for delta {GRID_DELTA}")
    half = size // 2
    lo = np.geomspace(GRID_DELTA, limit / 2.0, half)
    hi = limit - np.geomspace(GRID_DELTA, limit / 2.0, size - half + 1)[:-1]
    return np.sort(np.concatenate((lo, hi)))


# starting nodes as fractions of the eps limit; a split cell's new nodes as
# fractions of its width, or in the first cell (0, hi] of hi
_NODES = eps_grid(1.0, _START)
_FRAC, _GEOM = np.arange(1, _SPLIT) / _SPLIT, float(_SPLIT) ** -np.arange(_SPLIT - 1, 0, -1)


@dataclass(eq=False)
class EpsSupResult:
    """An eps-supremum in the bracket [value, upper]: value is the best
    slice evaluated (at least every profile slice), upper a certified bound
    widened for rounding, evals the branch-and-bound's slice evaluations.
    endpoint_limit is "upper" when value is the one-sided limit at eps =
    limit (eps_star = limit), else None: every slice tends to 0 as eps -> 0.
    eps and slice_values hold the profile sampled by eps_profile, else nothing."""

    value: float
    eps_star: Optional[float]
    endpoint_limit: Optional[str]
    upper: float
    evals: int
    eps: np.ndarray = field(default_factory=lambda: np.empty(0))
    slice_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    def to_json(self) -> dict:
        """The bracket as `rlab norm --out` writes it (no profile)."""
        return {"value": self.value, "upper": self.upper, "evals": self.evals,
                "eps_star": self.eps_star, "endpoint_limit": self.endpoint_limit}


def _slice_closure(values: np.ndarray, base: np.ndarray, top: float):
    """value(eps) = (eps * sum(values**(top-eps) * base)) ** (1/(top-eps)).

    values are nonnegative segment levels, base their nonnegative integral
    weights, top the undamped exponent (q or p).  Vectorized over eps.  The
    top level vmax is factored out (the slice is 1-homogeneous in values):
    value = vmax * (eps * sum(base * (values/vmax)**(top-eps)))**(1/(top-eps))
    stays finite and nonzero for any finite levels.  eps is taken in blocks
    of max(1, _BLOCK // terms), each with one temporary weighted in place,
    so memory is bounded by _BLOCK values (or one eps row); numpy sums each
    row pairwise, so rounding grows with log2(terms), not terms.
    """
    mask = (values > 0) & (base > 0)
    v, b = values[mask], base[mask]
    vmax = v.max() if v.size else 1.0
    logr = np.log(v) - np.log(vmax)  # not log(v / vmax), which underflows past 1e-308
    step = max(1, _BLOCK // max(logr.size, 1))

    def block(expo):
        rows = expo[:, None] * logr
        return np.multiply(np.exp(rows, out=rows), b, out=rows).sum(axis=1)

    def fn(eps):
        eps = np.array(eps, dtype=float, ndmin=1)
        if logr.size == 0:
            return np.zeros(eps.shape)
        expo = top - eps
        inner = (block(expo) if eps.size <= step else
                 np.concatenate([block(expo[s:s + step]) for s in range(0, eps.size, step)]))
        return vmax * (eps * inner) ** (1.0 / expo)

    return fn


def _eps_sup(run, bound, nodes, vals, aux, key, tol, open_first):
    """The eps-cell branch-and-bound of _sup_engine and downward_check: run(eps)
    gives (values, aux) at nodes in one call, bound(lo, lo_aux, hi, hi_aux)
    each cell's bound in the scale of key(value).  Cells lie between the
    starting nodes (their run output vals, aux), open_first adds (0,
    nodes[0]] (split geometrically, others into _SPLIT); a cell is split
    while its bound tops key(best) by tol and its children are distinct.
    Returns the best value (start ties to the last node), its eps, key(best),
    the largest discarded bound, the evaluations and the node nearest 0."""
    i = nodes.size - 1 - int(np.argmax(vals[::-1]))
    best_v, best_e, evals = float(vals[i]), float(nodes[i]), nodes.size
    lo, lo_a, hi, hi_a = nodes[:-1], aux[:-1], nodes[1:], aux[1:]
    if open_first:
        lo, lo_a, hi, hi_a = np.append(0.0, lo), np.append(aux[0], lo_a), nodes, aux
    closed, first = -math.inf, None
    while True:
        if lo[0] == 0.0:
            first = hi[0], hi_a[0]
        best = key(best_v)
        bnd = bound(lo, lo_a, hi, hi_a)
        half = (hi - lo) / (2.0 * (0.5 * (lo + hi)))
        split = (bnd > best + tol) & (half > 8 * _U)  # children must be distinct floats
        closed = max(closed, float(np.max(bnd[~split], initial=-math.inf)))
        if not split.any():
            return best_v, best_e, best, closed, evals, first
        lo, lo_a, hi, hi_a = lo[split], lo_a[split], hi[split], hi_a[split]
        mid = np.where((lo[:, None] > 0) | (not open_first),
                       lo[:, None] + (hi - lo)[:, None] * _FRAC, hi[:, None] * _GEOM)
        vals, aux = run(mid.ravel())
        evals += mid.size
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_v, best_e = float(vals[j]), float(mid.flat[j])
        cut = np.column_stack((lo, mid, hi))
        gs = np.column_stack((lo_a, aux.reshape(mid.shape), hi_a))
        lo, lo_a, hi, hi_a = cut[:, :-1].ravel(), gs[:, :-1].ravel(), cut[:, 1:].ravel(), gs[:, 1:].ravel()


def _sup_engine(levels: np.ndarray, base: np.ndarray, top: float) -> EpsSupResult:
    """Certified sup over 0 < eps < limit = top - 1 of the slices of
    (levels, base, top): the branch-and-bound of the module docstring."""
    limit = top - 1.0
    keep = (levels > 0) & (base > 0)
    if not keep.any():
        return EpsSupResult(0.0, None, None, 0.0, 0)
    fn = _slice_closure(levels, base, top)  # the module global: a wrapper sees every node
    vmax = float(levels[keep].max())

    def run(eps):  # slice values and G at the nodes eps, in one call
        vals = fn(eps)
        return vals, (top - eps) * np.log(vals / vmax) - np.log(eps)

    def bound(lo, lo_g, hi, hi_g):
        m = 0.5 * (lo + hi)
        half, lm, n_hi = (hi - lo) / (2.0 * m), np.log(m), np.log(hi) + hi_g
        return np.where(lo > 0, np.maximum((lo_g + lm - half) / (top - lo),
                                           (hi_g + lm + half) / (top - hi)),
                        np.maximum(n_hi / top, n_hi / (top - hi)))

    # a slice past the float range reads inf here; _norm_of_terms raises for it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        nodes = np.append(limit * _NODES, limit)
        vals, g = run(nodes)
        best_v, best_e, best, closed, evals, (e0, g0) = _eps_sup(
            run, bound, nodes, vals, g, lambda v: math.log(v / vmax), _TOL, True)
    g_lim = g[-1]
    # l lies in [min(0, log e0 + g0), top_l], G in [g0, g_lim], log eps in [log e0, log limit]
    top_l = max(best, closed)
    c = (top + 1) * (abs(math.log(e0)) + abs(g0) + abs(g_lim) + abs(top_l) + abs(math.log(limit)))
    spread = math.log(vmax) - math.log(levels[keep].min())  # the ratio may overflow
    delta = _U * (math.log2(keep.sum()) + 3 * top * spread + 8 * (c + top + 6))
    return EpsSupResult(best_v, best_e, "upper" if best_e == limit else None,
                        max(best_v, vmax * math.exp(top_l + delta)), evals)


# -- space specifications --------------------------------------------------

class _Kind(NamedTuple):
    p_lower: float             # p must exceed this
    q_lower: Optional[float]   # q must exceed this (or be inf); None: takes no q
    weighted: bool             # takes a weight (and needs one)
    grand: bool                # an eps-supremum with limit top - 1


_KINDS = {
    "lorentz_pq": _Kind(0.0, 0.0, False, False),
    "lorentz_pq_star": _Kind(1.0, 0.0, False, False),
    "grand_lebesgue": _Kind(1.0, None, False, True),
    "grand_lorentz_pq": _Kind(1.0, 1.0, False, True),
    "lambda_classical": _Kind(0.0, None, True, False),
    "lambda_grand": _Kind(1.0, None, True, True),
}


@dataclass(frozen=True)
class SpaceSpec:
    """Which norm to evaluate, with its parameters.

    kind: one of lorentz_pq, lorentz_pq_star, grand_lebesgue,
    grand_lorentz_pq, lambda_classical, lambda_grand.  q may be math.inf
    where the family admits it.  measure is the rearrangement measure
    (Lebesgue when omitted); weight is required exactly for the lambda
    kinds.  p and q are validated and stored as floats.
    """

    kind: str
    p: float
    q: Optional[float] = None
    weight: Optional[Weight] = None
    measure: Optional[MeasureDensity] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        kind = _KINDS[self.kind]
        p = float(self.p)
        if not math.isfinite(p) or p <= kind.p_lower:
            raise ValueError(f"p must be finite and > {kind.p_lower}, got {p}")
        object.__setattr__(self, "p", p)
        if kind.q_lower is None:
            if self.q is not None:
                raise ValueError(f"{self.kind} does not take q")
        elif self.q is None:
            raise ValueError(f"{self.kind} needs q")
        else:
            q = float(self.q)
            if not q > kind.q_lower:
                raise ValueError(f"q must be > {kind.q_lower} or infinite, got {q}")
            object.__setattr__(self, "q", q)
        if kind.weighted != (self.weight is not None):
            raise ValueError(f"{self.kind} needs a weight" if kind.weighted
                             else f"{self.kind} does not take a weight")
        if self.kind == "grand_lebesgue" and self.measure is not None:
            raise ValueError("grand_lebesgue integrates |f| dx and takes no measure")


# -- the power-sum evaluator ---------------------------------------------


def _scaled_power_sum(values: np.ndarray, base: np.ndarray, s: float) -> float:
    """(sum values**s * base)**(1/s) for nonnegative values, not all zero.

    The top level is factored out (the expression is 1-homogeneous in
    values) and the terms are summed in log-sum-exp form, as log base +
    s log(v/top), so terms whose s-th power or product with its base would
    overflow or underflow still give the finite, nonzero result.  0 when
    every base is 0.
    """
    top = float(np.max(values))
    with np.errstate(divide="ignore"):
        logs = np.log(base) + s * np.log(values / top)
    peak = float(np.max(logs))
    if peak == -math.inf:
        return 0.0
    return top * math.exp((peak + math.log(float(np.sum(np.exp(logs - peak))))) / s)


def _terms(f: StepFunction, spec: SpaceSpec, t_weight: Optional[Weight] = None):
    """(levels, base, top) with spec's norm of f = (sum base * levels**top)**(1/top),
    or its eps-slices (eps * sum base * levels**(top-eps))**(1/(top-eps)).

    For q = inf, top is inf and base is t**(1/p) at each segment's right end,
    so the norm is max(levels * base).  t_weight (Lorentz kinds only) is an
    extra weight on the t-integral, exact for step and power weights; where
    f*'s grid runs past 1 (lorentz_pq under a mass above 1) a step weight
    keeps its value at 1 and a power weight its formula.
    Not for lorentz_pq_star, whose f** is not a step function.
    """
    if spec.kind == "grand_lebesgue":
        return np.abs(f.values), f.segment_lengths, spec.p
    fstar = rearrangement(f, spec.measure or LEBESGUE)
    if spec.weight is not None:
        bk, levels = fstar.segments(1.0)
        return levels, segment_weight_integrals(spec.weight, bk), spec.p
    # the Lorentz kinds; only lorentz_pq integrates f* past t = 1
    p, q = spec.p, spec.q
    bk, levels = fstar.segments(None if spec.kind == "lorentz_pq" else 1.0)
    # 1-homogeneous: the last breakpoint (1 for the grand kinds, whose eps
    # factor is not scale-free) moves into the levels, so bk**(q/p) cannot
    # overflow to a NaN base inf - inf; lorentz_pq drops trailing zero
    # levels first, so its bases cannot underflow to 0 past f*'s support
    if spec.kind == "lorentz_pq":
        k = np.count_nonzero(levels) or len(levels)
        bk, levels = bk[:k + 1], levels[:k]
    end = float(bk[-1])
    scale = end ** (1.0 / p)  # a Python float: OverflowError past the float range
    if math.isinf(float(levels[0]) * scale):  # f*'s top level
        raise OverflowError("f* rescaled to a grid ending at 1 exceeds the float range")
    bk, levels = bk / end, levels * scale
    if math.isinf(q):
        # on each segment t^{1/p} increases, so the per-segment sup sits at
        # the right endpoint
        return levels, bk[1:] ** (1.0 / p), q
    if t_weight is None:
        return levels, np.diff(bk ** (q / p)), q
    w = _as_weight(t_weight)
    if isinstance(w, PowerWeight):
        expo = q / p + w.alpha
        if expo <= 0:
            raise ValueError("t-weight power too singular at 0 for this q/p")
        # w(end s) = w.coeff end^alpha s^alpha on the rescaled grid
        return levels, (q / p) * w.coeff * end**w.alpha * np.diff(bk**expo) / expo, q
    mbk, mv, mw = merge_segment_grids(bk, levels, w.density.breakpoints / end, w.density.values)
    return mv, mw * np.diff(np.minimum(mbk, 1.0) ** (q / p)), q  # nothing past f*'s end


def space_norm(f: StepFunction, spec: SpaceSpec) -> Union[float, EpsSupResult]:
    """Evaluate the norm described by spec; grand kinds return EpsSupResult.
    Raises OverflowError when the value, or a grand kind's upper, exceeds
    the float range."""
    if spec.kind == "lorentz_pq_star":
        return lorentz_pq_star_norm(f, spec.p, spec.q, spec.measure)
    return _norm_of_terms(_KINDS[spec.kind].grand, *_terms(f, spec))


def _norm_of_terms(grand: bool, levels: np.ndarray, base: np.ndarray,
                   top: float) -> Union[float, EpsSupResult]:
    """The norm of _terms' (levels, base, top); grand kinds give EpsSupResult.
    OverflowError when the value, or a grand kind's upper, is not finite."""
    if grand and levels.any() and not math.isinf(top):
        out = _sup_engine(levels, base, top)
        top_value = out.upper  # at least out.value
    else:  # closed forms: 0, for q = inf the largest right-end value, else the power sum
        top_value = (0.0 if not levels.any() else float(np.max(levels * base)) if math.isinf(top)
                     else _scaled_power_sum(levels, base, top))
        out = EpsSupResult(top_value, None, None, top_value, 0) if grand else top_value
    if not math.isfinite(top_value):
        raise OverflowError("the norm, or its certified upper bound, exceeds the float range")
    return out


def norm_value(f: StepFunction, spec: SpaceSpec) -> float:
    out = space_norm(f, spec)
    return out.value if isinstance(out, EpsSupResult) else float(out)


def eps_profile(f: StepFunction, spec: SpaceSpec,
                grid_size: Optional[int] = None) -> EpsSupResult:
    """A grand norm's bracket with its eps curve on eps_grid(limit, grid_size):
    the one place a profile is sampled.  value is the larger of the search's
    best slice and the profile's largest, eps_star where it sits; a norm in
    closed form (q = inf, or no positive term) comes without a profile."""
    if not _KINDS[spec.kind].grand:
        raise ValueError(f"eps_profile needs a grand kind, got {spec.kind!r}")
    levels, base, top = _terms(f, spec)
    res = _norm_of_terms(True, levels, base, top)
    if not res.evals:
        return res
    limit = top - 1.0
    eps = eps_grid(limit, grid_size)
    prof = _slice_closure(levels, base, top)(eps)
    i = int(np.argmax(prof))
    if prof[i] > res.value:
        res.value, res.eps_star = float(prof[i]), float(eps[i])
        res.endpoint_limit = "upper" if res.eps_star == limit else None
        res.upper = max(res.upper, res.value)
    res.eps, res.slice_values = eps, prof
    return res


# -- one wrapper per kind ----------------------------------------------------


def lorentz_pq_norm(f: StepFunction, p: float, q: float,
                    mu: Optional[MeasureDensity] = None) -> float:
    """Lorentz norm ((q/p) * int_0^inf t^{q/p-1} f*(t)^q dt)^{1/q};
    for q = inf the supremum of t^{1/p} f*(t) over t > 0.  Exact."""
    return space_norm(f, SpaceSpec("lorentz_pq", p, q, measure=mu))


def lorentz_pq_star_norm(f: StepFunction, p: float, q: float,
                         mu: Optional[MeasureDensity] = None) -> float:
    """Lorentz norm with f* replaced by its running average f**.

    Needs p > 1 (the tail t^{q/p - q - 1} must be integrable at infinity).
    The norm is 1-homogeneous in f and scales by c^(1/p) when t does by c,
    so f** is built with f*'s top level and last breakpoint factored out,
    and the q-th power integrals are summed in log-sum-exp form.  The first
    segment and the tail are power rules; the others, (a + b/t)^q, go
    through one integrate_batch call (relative tolerance 1e-10) in u = log t,
    each integrand divided by its larger end value (its log is convex in
    u), so a peak at a segment end cannot hide from the first panel.  Raises
    OverflowError when the norm itself exceeds the float range.
    """
    spec = SpaceSpec("lorentz_pq_star", p, q, measure=mu)
    p, q = spec.p, spec.q
    fstar = rearrangement(f, mu or LEBESGUE)
    if fstar.is_zero():
        return 0.0
    top, end = float(fstar.values[0]), float(fstar.breakpoints[-1])
    avg = average(Rearrangement(fstar.breakpoints / end, fstar.values / top, fstar.total / end))
    bk = avg.breakpoints
    if math.isinf(q):
        # d/dt of t^{1/p} (a + b/t) has a single sign change (- to +), so
        # interior critical points are minima and breakpoint values dominate
        tpos = bk[bk > 0]
        norm = float(np.max(tpos ** (1.0 / p) * avg(tpos)))
    else:
        # f* is strictly decreasing, so f** = 1 on the first segment and
        # a + b/t with b > 0 on the others, all integrated in one batch
        e, a, b, u = q / p, avg.a[1:], avg.b[1:], np.log(bk[1:])  # u = log t
        ends = np.maximum(e * u[:-1] + q * np.log(a + b / bk[1:-1]), e * u[1:] + q * np.log(a + b / bk[2:]))
        logs = np.concatenate(([e * u[0] - math.log(e),  # t^(e-1) on (0, t1)
                                q * math.log(avg.tail_mass) - math.log(q - e)],  # past t = 1
                               ends + np.log(integrate_batch(
                                   lambda x, k: np.exp(e * x + q * np.log(a[k] + b[k] * np.exp(-x)) - ends[k]),
                                   u[:-1], u[1:]).value) if a.size else []))
        peak = logs.max()
        norm = math.exp((math.log(e) + peak + math.log(np.sum(np.exp(logs - peak)))) / q)
    out = top * end ** (1.0 / p) * norm
    if not math.isfinite(out):
        raise OverflowError("the f** norm exceeds the float range")
    return out


def grand_lebesgue_norm(f: StepFunction, p: float) -> EpsSupResult:
    """sup over 0 < eps < p-1 of (eps * int_0^1 |f|^{p-eps} dx)^{1/(p-eps)}."""
    return space_norm(f, SpaceSpec("grand_lebesgue", p))


def grand_lorentz_pq_norm(f: StepFunction, p: float, q: float,
                          mu: Optional[MeasureDensity] = None) -> EpsSupResult:
    """sup over 0 < eps < q-1 of
    ((q/p) eps int_0^1 t^{q/p-1} f*(t)^{q-eps} dt)^{1/(q-eps)};
    for q = inf the plain supremum of t^{1/p} f*(t) over 0 < t < 1."""
    return space_norm(f, SpaceSpec("grand_lorentz_pq", p, q, measure=mu))


def grand_lambda_norm(f: StepFunction, p: float, weight: Weight,
                      mu: Optional[MeasureDensity] = None) -> EpsSupResult:
    """sup over 0 < eps < p-1 of (eps int_0^1 f*(t)^{p-eps} w(t) dt)^{1/(p-eps)}."""
    return space_norm(f, SpaceSpec("lambda_grand", p, weight=weight, measure=mu))


# -- fixed-eps slices (shared by the embedding checks) --------------------


def grand_lorentz_slice_values(f: StepFunction, p: float, q: float, eps,
                               mu: Optional[MeasureDensity] = None,
                               t_weight: Optional[Weight] = None) -> np.ndarray:
    """((q/p) eps int_0^1 t^{q/p-1} f*(t)^{q-eps} w(t) dt)^{1/(q-eps)} at the
    given eps values.

    mu enters through the rearrangement (Lebesgue by default); t_weight is
    an optional extra weight on the t-integral, exact in closed form for
    both step and power weights.
    """
    spec = SpaceSpec("grand_lorentz_pq", p, q, measure=mu)
    if math.isinf(spec.q):
        raise ValueError("slices need finite q")
    return _slice_closure(*_terms(f, spec, t_weight))(eps)


def spacespec_from_json(obj: dict) -> SpaceSpec:
    if not isinstance(obj, dict):
        raise ValueError("space spec JSON must be an object")
    if "kind" not in obj:
        raise ValueError('space spec JSON needs a "kind" field')
    if "p" not in obj:
        raise ValueError('space spec JSON needs a "p" field')
    q = obj.get("q")
    if isinstance(q, str):
        if q.lower() in ("inf", "infinity"):
            q = math.inf
        else:
            raise ValueError(f'q must be a number or "inf", got {q!r}')
    weight, measure = obj.get("weight"), obj.get("measure")
    return SpaceSpec(obj["kind"], obj["p"], q,
                     None if weight is None else weight_from_json(weight),
                     None if measure is None else measure_from_json(measure))
