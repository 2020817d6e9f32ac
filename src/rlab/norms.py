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
quadrature call.  Grand norms are suprema over a damping parameter eps
ranging in an open interval (0, limit): they are evaluated on a fixed
geometric grid clustered toward both endpoints, then sharpened by a
golden-section pass around the grid argmax.  A supremum attained at the
first or last grid point is reported with an endpoint flag instead of
pretending an interior maximizer exists; at the upper end the value is the
one-sided limit eps -> limit, in closed form.  Every slice factors out the
top level and runs over eps in blocks of at most 2**16 float64 values
(512 KiB), or one eps at a time past that many terms, so grand norms stay
finite for any finite levels and their memory does not grow with the grid.

The grid default is 2048 points with offset delta = 1e-6; every consumer
of fixed-eps slices reuses the same grid constructor so slice-wise
comparisons align exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .quadrature import integrate_batch
from .rearrange import average, rearrangement
from .stepfn import (
    LEBESGUE,
    MeasureDensity,
    StepFunction,
    measure_from_json,
    measure_to_json,
    merge_segment_grids,
)
from .weights import (
    PowerWeight,
    Weight,
    _as_weight,
    segment_weight_integrals,
    weight_from_json,
    weight_to_json,
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
    "lambda_norm",
    "grand_lambda_norm",
    "grand_lorentz_slice_values",
    "grand_lambda_slice_values",
    "eps_profile",
    "space_norm",
    "norm_value",
    "spacespec_from_json",
    "spacespec_to_json",
    "INF",
]

DEFAULT_GRID = 2048
GRID_DELTA = 1e-6
INF = math.inf

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# float64 values per eps-slice temporary (512 KiB), not analysis's 2**14: a
# block this size raises glibc's adaptive heap-trim threshold when freed; at
# 2**14 the ~120 KiB quadrature arrays of downward_check were trimmed off the
# heap and faulted back in on every bisection round (+30% per call)
_BLOCK = 2**16


def eps_grid(limit: float, size: Optional[int] = None, delta: float = GRID_DELTA) -> np.ndarray:
    """Geometric eps grid on (delta, limit - delta), clustered at both ends.

    Half the points are log-spaced offsets from the lower endpoint, half
    mirrored from the upper endpoint; the center point belongs to the lower
    half only, so the grid has exactly `size` distinct ascending points.
    """
    size = size or DEFAULT_GRID
    if size < 8:
        raise ValueError("eps grid needs at least 8 points")
    if not limit > 2.0 * delta:
        raise ValueError(f"eps interval (0, {limit}) too narrow for delta {delta}")
    half = size // 2
    lo = np.geomspace(delta, limit / 2.0, half)
    hi = limit - np.geomspace(delta, limit / 2.0, size - half + 1)[:-1]
    return np.sort(np.concatenate((lo, hi)))


def _golden_max(fn: Callable[[float], float], a: float, b: float,
                rel_tol: float = 1e-10, max_iter: int = 400):
    """Golden-section maximization of a unimodal-ish scalar function."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_v = (c, fc) if fc >= fd else (d, fd)
    for _ in range(max_iter):
        if (b - a) <= rel_tol * max(abs(a), abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
            x, v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
            x, v = d, fd
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


@dataclass(eq=False)
class EpsSupResult:
    """Outcome of an eps-supremum: the value, where it was attained, and the
    sampled profile.

    endpoint_limit is None for an interior maximizer, "lower"/"upper" when
    the grid argmax sits at the first/last point, i.e. the supremum is
    approached at an endpoint of the open interval rather than attained;
    for "upper", value and eps_star are the one-sided limit at eps = limit.
    """

    value: float
    eps_star: Optional[float]
    endpoint_limit: Optional[str]
    eps: np.ndarray = field(default_factory=lambda: np.empty(0))
    slice_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def profile(self):
        return list(zip(self.eps.tolist(), self.slice_values.tolist()))

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "eps_star": self.eps_star,
            "endpoint_limit": self.endpoint_limit,
            "profile": [[e, v] for e, v in self.profile],
        }


def _slice_closure(values: np.ndarray, base: np.ndarray, top: float):
    """value(eps) = (eps * sum(values**(top-eps) * base)) ** (1/(top-eps)).

    values are nonnegative segment levels, base their nonnegative integral
    weights, top the undamped exponent (q or p).  Vectorized over eps.  The
    top level vmax is factored out (the slice is 1-homogeneous in values):
    value = vmax * (eps * sum(base * (values/vmax)**(top-eps)))**(1/(top-eps))
    stays finite and nonzero for any finite levels.  eps is taken in blocks
    of max(1, _BLOCK // terms), each with one temporary exponentiated in
    place, so memory is bounded by _BLOCK values (or one eps row).
    """
    mask = (values > 0) & (base > 0)
    v, b = values[mask], base[mask]
    vmax = v.max() if v.size else 1.0
    logr = np.log(v / vmax)
    step = max(1, _BLOCK // max(logr.size, 1))

    def block(expo):
        rows = expo[:, None] * logr
        return np.exp(rows, out=rows) @ b

    def fn(eps):
        eps = np.array(eps, dtype=float, ndmin=1)
        if logr.size == 0:
            return np.zeros(eps.shape)
        expo = top - eps
        inner = (block(expo) if eps.size <= step else
                 np.concatenate([block(expo[s:s + step]) for s in range(0, eps.size, step)]))
        return vmax * (eps * inner) ** (1.0 / expo)

    return fn


def _sup_engine(slice_fn, limit: float, grid_size: Optional[int]) -> EpsSupResult:
    eps = eps_grid(limit, grid_size)
    vals = slice_fn(eps)
    if not np.any(vals > 0):
        return EpsSupResult(0.0, None, None, eps, vals)
    i = int(np.argmax(vals))
    if i == 0:
        return EpsSupResult(float(vals[i]), float(eps[i]), "lower", eps, vals)
    if i == len(eps) - 1:
        # the one-sided limit at eps = limit, where the exponent top - eps is 1
        value = max(float(slice_fn(limit)[0]), float(vals[i]))
        return EpsSupResult(value, float(limit), "upper", eps, vals)

    e_star, v_star = _golden_max(lambda e: float(slice_fn(e)[0]),
                                 float(eps[i - 1]), float(eps[i + 1]))
    if v_star >= vals[i]:
        return EpsSupResult(float(v_star), float(e_star), None, eps, vals)
    return EpsSupResult(float(vals[i]), float(eps[i]), None, eps, vals)


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
    values), so levels whose s-th power would overflow or underflow still
    give the finite, nonzero result.
    """
    top = float(np.max(values))
    return top * float(np.sum((values / top) ** s * base) ** (1.0 / s))


def _terms(f: StepFunction, spec: SpaceSpec, t_weight: Optional[Weight] = None):
    """(levels, base, top) with spec's norm of f = (sum base * levels**top)**(1/top),
    or its eps-slices (eps * sum base * levels**(top-eps))**(1/(top-eps)).

    For q = inf, top is inf and base is t**(1/p) at each segment's right end,
    so the norm is max(levels * base).  t_weight (Lorentz kinds only) is an
    extra weight on the t-integral, exact for step and power weights.
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
        return levels, (q / p) * w.coeff * np.diff(bk**expo) / expo, q
    mbk, mv, mw = merge_segment_grids(bk, levels, w.density.breakpoints, w.density.values)
    return mv, mw * np.diff(mbk ** (q / p)), q


def space_norm(f: StepFunction, spec: SpaceSpec,
               grid_size: Optional[int] = None) -> Union[float, EpsSupResult]:
    """Evaluate the norm described by spec; grand kinds return EpsSupResult."""
    if spec.kind == "lorentz_pq_star":
        return lorentz_pq_star_norm(f, spec.p, spec.q, spec.measure)
    grand = _KINDS[spec.kind].grand
    levels, base, top = _terms(f, spec)
    if not levels.any():
        value = 0.0
    elif math.isinf(top):
        value = float(np.max(levels * base))  # the largest right-end value
    elif grand:
        return _sup_engine(_slice_closure(levels, base, top), top - 1.0, grid_size)
    else:
        return _scaled_power_sum(levels, base, top)
    return EpsSupResult(value, None, None, np.empty(0), np.empty(0)) if grand else value


def norm_value(f: StepFunction, spec: SpaceSpec, grid_size: Optional[int] = None) -> float:
    out = space_norm(f, spec, grid_size)
    return out.value if isinstance(out, EpsSupResult) else float(out)


def eps_profile(f: StepFunction, spec: SpaceSpec,
                grid_size: Optional[int] = None) -> EpsSupResult:
    """Full eps profile of a grand norm (value, maximizer or endpoint flag,
    and the sampled curve)."""
    if not _KINDS[spec.kind].grand:
        raise ValueError(f"eps_profile needs a grand kind, got {spec.kind!r}")
    out = space_norm(f, spec, grid_size)
    assert isinstance(out, EpsSupResult)
    return out


# -- one wrapper per kind ----------------------------------------------------


def lorentz_pq_norm(f: StepFunction, p: float, q: float,
                    mu: Optional[MeasureDensity] = None) -> float:
    """Lorentz norm ((q/p) * int_0^inf t^{q/p-1} f*(t)^q dt)^{1/q};
    for q = inf the supremum of t^{1/p} f*(t) over t > 0.  Exact."""
    return space_norm(f, SpaceSpec("lorentz_pq", p, q, measure=mu))


def lorentz_pq_star_norm(f: StepFunction, p: float, q: float,
                         mu: Optional[MeasureDensity] = None,
                         rel_tol: float = 1e-10) -> float:
    """Lorentz norm with f* replaced by its running average f**.

    Needs p > 1 (the tail t^{q/p - q - 1} must be integrable at infinity).
    Constant and pure-tail segments are exact power-rule integrals; the
    mixed segments (a + b/t)^q go through one integrate_batch call at
    rel_tol.  Raises OverflowError when a q-th power sum is not finite.
    """
    spec = SpaceSpec("lorentz_pq_star", p, q, measure=mu)
    p, q = spec.p, spec.q
    avg = average(rearrangement(f, mu or LEBESGUE))
    if avg.tail_mass == 0.0:
        return 0.0
    bk = avg.breakpoints
    if math.isinf(q):
        # d/dt of t^{1/p} (a + b/t) has a single sign change (- to +), so
        # interior critical points are minima and breakpoint values dominate
        tpos = bk[bk > 0]
        return float(np.max(tpos ** (1.0 / p) * avg(tpos)))
    e, g = q / p, q / p - q  # g < 0: t^(g-1) is integrable at infinity
    a, b, t1, t2 = avg.a, avg.b, bk[:-1], bk[1:]
    const = b == 0.0
    tail = ~const & (a == 0.0)
    mixed = ~(const | tail)
    # numpy powers overflow to inf instead of raising; the checks below do
    with np.errstate(all="ignore"):
        total = (np.sum(a[const] ** q * (t2[const] ** e - t1[const] ** e)) / e
                 + (np.sum(b[tail] ** q * (t2[tail] ** g - t1[tail] ** g))
                    - avg.tail_mass ** q * bk[-1] ** g) / g)
        if not math.isfinite(total):
            raise OverflowError("f** power sum is not finite")
        if mixed.any():
            am, bm = a[mixed], b[mixed]
            total += integrate_batch(lambda t, k: t ** (e - 1.0) * (am[k] + bm[k] / t) ** q,
                                     t1[mixed], t2[mixed], rel_tol=rel_tol).value.sum()
            if not math.isfinite(total):
                raise OverflowError("f** power sum is not finite")
    return float(((q / p) * total) ** (1.0 / q))


def lambda_norm(f: StepFunction, p: float, weight: Weight,
                mu: Optional[MeasureDensity] = None) -> float:
    """Weighted norm (int_0^1 f*(t)^p w(t) dt)^{1/p}; exact for step and
    power weights."""
    return space_norm(f, SpaceSpec("lambda_classical", p, weight=weight, measure=mu))


def grand_lebesgue_norm(f: StepFunction, p: float,
                        grid_size: Optional[int] = None) -> EpsSupResult:
    """sup over 0 < eps < p-1 of (eps * int_0^1 |f|^{p-eps} dx)^{1/(p-eps)}."""
    return space_norm(f, SpaceSpec("grand_lebesgue", p), grid_size)


def grand_lorentz_pq_norm(f: StepFunction, p: float, q: float,
                          mu: Optional[MeasureDensity] = None,
                          grid_size: Optional[int] = None) -> EpsSupResult:
    """sup over 0 < eps < q-1 of
    ((q/p) eps int_0^1 t^{q/p-1} f*(t)^{q-eps} dt)^{1/(q-eps)};
    for q = inf the plain supremum of t^{1/p} f*(t) over 0 < t < 1."""
    return space_norm(f, SpaceSpec("grand_lorentz_pq", p, q, measure=mu), grid_size)


def grand_lambda_norm(f: StepFunction, p: float, weight: Weight,
                      mu: Optional[MeasureDensity] = None,
                      grid_size: Optional[int] = None) -> EpsSupResult:
    """sup over 0 < eps < p-1 of (eps int_0^1 f*(t)^{p-eps} w(t) dt)^{1/(p-eps)}."""
    return space_norm(f, SpaceSpec("lambda_grand", p, weight=weight, measure=mu), grid_size)


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


def grand_lambda_slice_values(f: StepFunction, p: float, eps, weight: Weight,
                              mu: Optional[MeasureDensity] = None) -> np.ndarray:
    """(eps int_0^1 f*(t)^{p-eps} w(t) dt)^{1/(p-eps)} at the given eps values."""
    spec = SpaceSpec("lambda_grand", p, weight=weight, measure=mu)
    return _slice_closure(*_terms(f, spec))(eps)


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


def spacespec_to_json(spec: SpaceSpec) -> dict:
    out = {"kind": spec.kind, "p": spec.p}
    if spec.q is not None:
        out["q"] = "inf" if math.isinf(spec.q) else spec.q
    if spec.weight is not None:
        out["weight"] = weight_to_json(spec.weight)
    if spec.measure is not None:
        out["measure"] = measure_to_json(spec.measure)
    return out
