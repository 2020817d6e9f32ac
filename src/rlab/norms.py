"""Classical and grand Lorentz-type norms of step functions on (0, 1).

Scalar norms (Lorentz L^{p,q}, its averaged variant, weighted Lambda) are
exact segment sums except for the averaged variant with finite q, whose
mixed-segment integrands (a + b/t)^q go through one batched adaptive
quadrature call.  Grand norms are suprema over a damping parameter eps
ranging in an open interval (0, limit): they are evaluated on a fixed
geometric grid clustered toward both endpoints, then sharpened by a
golden-section pass around the grid argmax.  A supremum attained at the
first or last grid point is reported with an endpoint flag instead of
pretending an interior maximizer exists.

The grid default is 2048 points with offset delta = 1e-6; every consumer
of fixed-eps slices reuses the same grid constructor so slice-wise
comparisons align exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

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
    approached at an endpoint of the open interval rather than attained.
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


_ZERO_RESULT = lambda: EpsSupResult(0.0, None, None, np.empty(0), np.empty(0))


def _slice_closure(values: np.ndarray, base: np.ndarray, top: float):
    """value(eps) = (eps * sum(values**(top-eps) * base)) ** (1/(top-eps)).

    values are nonnegative segment levels, base their nonnegative integral
    weights, top the undamped exponent (q or p).  Vectorized over eps.
    """
    mask = (values > 0) & (base > 0)
    logv = np.log(values[mask])
    b = base[mask]

    def fn(eps):
        eps = np.atleast_1d(np.asarray(eps, dtype=float))
        if logv.size == 0:
            return np.zeros(eps.shape)
        inner = np.exp((top - eps)[:, None] * logv[None, :]) @ b
        return (eps * inner) ** (1.0 / (top - eps))

    return fn


def _sup_engine(slice_fn, limit: float, grid_size: Optional[int]) -> EpsSupResult:
    eps = eps_grid(limit, grid_size)
    vals = slice_fn(eps)
    if not np.any(vals > 0):
        return EpsSupResult(0.0, None, None, eps, vals)
    i = int(np.argmax(vals))
    if i == 0 or i == len(eps) - 1:
        flag = "lower" if i == 0 else "upper"
        return EpsSupResult(float(vals[i]), float(eps[i]), flag, eps, vals)

    def scalar(e):
        return float(slice_fn(np.array([e]))[0])

    e_star, v_star = _golden_max(scalar, float(eps[i - 1]), float(eps[i + 1]))
    if v_star >= vals[i]:
        return EpsSupResult(float(v_star), float(e_star), None, eps, vals)
    return EpsSupResult(float(vals[i]), float(eps[i]), None, eps, vals)


# -- parameter validation ----------------------------------------------


def _check_p(p, lower=0.0, name="p"):
    p = float(p)
    if not np.isfinite(p) or p <= lower:
        raise ValueError(f"{name} must be finite and > {lower}, got {p}")
    return p


def _check_q(q, lower=0.0):
    q = float(q)
    if math.isinf(q):
        return q
    if not np.isfinite(q) or q <= lower:
        raise ValueError(f"q must be > {lower} or infinite, got {q}")
    return q


# -- scalar norms -------------------------------------------------------


def _scaled_power_sum(values: np.ndarray, base: np.ndarray, s: float) -> float:
    """(sum values**s * base)**(1/s) for nonnegative values, not all zero.

    The top level is factored out (the expression is 1-homogeneous in
    values), so levels whose s-th power would overflow or underflow still
    give the finite, nonzero result.
    """
    top = float(np.max(values))
    return top * float(np.sum((values / top) ** s * base) ** (1.0 / s))


def lorentz_pq_norm(f: StepFunction, p: float, q: float,
                    mu: Optional[MeasureDensity] = None) -> float:
    """Lorentz norm ((q/p) * int_0^inf t^{q/p-1} f*(t)^q dt)^{1/q};
    for q = inf the supremum of t^{1/p} f*(t) over t > 0.  Exact."""
    p = _check_p(p)
    q = _check_q(q)
    fstar = rearrangement(f, mu or LEBESGUE)
    if fstar.is_zero():
        return 0.0
    bk, vals = fstar.breakpoints, fstar.values
    if math.isinf(q):
        # on each segment t^{1/p} increases, so the per-segment sup sits at
        # the right endpoint
        return float(np.max(vals * bk[1:] ** (1.0 / p)))
    base = np.diff(bk ** (q / p))
    return _scaled_power_sum(vals, base, q)


def lorentz_pq_star_norm(f: StepFunction, p: float, q: float,
                         mu: Optional[MeasureDensity] = None,
                         rel_tol: float = 1e-10) -> float:
    """Lorentz norm with f* replaced by its running average f**.

    Needs p > 1 (the tail t^{q/p - q - 1} must be integrable at infinity).
    Constant and pure-tail segments are exact power-rule integrals; the
    mixed segments (a + b/t)^q go through one integrate_batch call at
    rel_tol.  Raises OverflowError when a q-th power sum is not finite.
    """
    p = _check_p(p, 1.0)
    q = _check_q(q)
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
    p = _check_p(p)
    fstar = rearrangement(f, mu or LEBESGUE)
    if fstar.is_zero():
        return 0.0
    bk, vals = fstar.segments(1.0)
    base = segment_weight_integrals(weight, bk)
    return _scaled_power_sum(vals, base, p)


# -- grand norms ----------------------------------------------------------


def grand_lebesgue_norm(f: StepFunction, p: float,
                        grid_size: Optional[int] = None) -> EpsSupResult:
    """sup over 0 < eps < p-1 of (eps * int_0^1 |f|^{p-eps} dx)^{1/(p-eps)}."""
    p = _check_p(p, 1.0)
    if f.is_zero():
        return _ZERO_RESULT()
    slice_fn = _slice_closure(np.abs(f.values), f.segment_lengths, p)
    return _sup_engine(slice_fn, p - 1.0, grid_size)


def grand_lorentz_pq_norm(f: StepFunction, p: float, q: float,
                          mu: Optional[MeasureDensity] = None,
                          grid_size: Optional[int] = None) -> EpsSupResult:
    """sup over 0 < eps < q-1 of
    ((q/p) eps int_0^1 t^{q/p-1} f*(t)^{q-eps} dt)^{1/(q-eps)};
    for q = inf the plain supremum of t^{1/p} f*(t) over 0 < t < 1."""
    p = _check_p(p, 1.0)
    q = _check_q(q, 1.0)
    fstar = rearrangement(f, mu or LEBESGUE)
    if fstar.is_zero():
        return _ZERO_RESULT()
    bk, vals = fstar.segments(1.0)
    if math.isinf(q):
        value = float(np.max(vals * bk[1:] ** (1.0 / p)))
        return EpsSupResult(value, None, None, np.empty(0), np.empty(0))
    base = np.diff(bk ** (q / p))
    slice_fn = _slice_closure(vals, base, q)
    return _sup_engine(slice_fn, q - 1.0, grid_size)


def grand_lambda_norm(f: StepFunction, p: float, weight: Weight,
                      mu: Optional[MeasureDensity] = None,
                      grid_size: Optional[int] = None) -> EpsSupResult:
    """sup over 0 < eps < p-1 of (eps int_0^1 f*(t)^{p-eps} w(t) dt)^{1/(p-eps)}."""
    p = _check_p(p, 1.0)
    fstar = rearrangement(f, mu or LEBESGUE)
    if fstar.is_zero():
        return _ZERO_RESULT()
    bk, vals = fstar.segments(1.0)
    base = segment_weight_integrals(weight, bk)
    slice_fn = _slice_closure(vals, base, p)
    return _sup_engine(slice_fn, p - 1.0, grid_size)


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
    p = _check_p(p, 1.0)
    q = _check_q(q, 1.0)
    if math.isinf(q):
        raise ValueError("slices need finite q")
    fstar = rearrangement(f, mu or LEBESGUE)
    bk, vals = fstar.segments(1.0)
    if t_weight is None:
        base = np.diff(bk ** (q / p))
    elif isinstance(t_weight, PowerWeight):
        expo = q / p + t_weight.alpha
        if expo <= 0:
            raise ValueError("t-weight power too singular at 0 for this q/p")
        base = (q / p) * t_weight.coeff * np.diff(bk**expo) / expo
    else:
        w = t_weight.density if isinstance(t_weight, MeasureDensity) else t_weight
        mbk, mv, mw = merge_segment_grids(bk, vals, w.breakpoints, w.values)
        base = mw * np.diff(mbk ** (q / p))
        vals = mv
    return _slice_closure(vals, base, q)(eps)


def grand_lambda_slice_values(f: StepFunction, p: float, eps, weight: Weight,
                              mu: Optional[MeasureDensity] = None) -> np.ndarray:
    """(eps int_0^1 f*(t)^{p-eps} w(t) dt)^{1/(p-eps)} at the given eps values."""
    p = _check_p(p, 1.0)
    fstar = rearrangement(f, mu or LEBESGUE)
    bk, vals = fstar.segments(1.0)
    base = segment_weight_integrals(weight, bk)
    return _slice_closure(vals, base, p)(eps)


# -- space specifications --------------------------------------------------

_KINDS = {
    "lorentz_pq",
    "lorentz_pq_star",
    "grand_lebesgue",
    "grand_lorentz_pq",
    "lambda_classical",
    "lambda_grand",
}
_GRAND_KINDS = {"grand_lebesgue", "grand_lorentz_pq", "lambda_grand"}
_NEEDS_Q = {"lorentz_pq", "lorentz_pq_star", "grand_lorentz_pq"}
_NEEDS_WEIGHT = {"lambda_classical", "lambda_grand"}


@dataclass(frozen=True)
class SpaceSpec:
    """Which norm to evaluate, with its parameters.

    kind: one of lorentz_pq, lorentz_pq_star, grand_lebesgue,
    grand_lorentz_pq, lambda_classical, lambda_grand.  q may be math.inf
    where the family admits it.  measure is the rearrangement measure
    (Lebesgue when omitted); weight is required exactly for the lambda
    kinds.
    """

    kind: str
    p: float
    q: Optional[float] = None
    weight: Optional[Weight] = None
    measure: Optional[MeasureDensity] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        lower = 1.0 if self.kind in (_GRAND_KINDS | {"lorentz_pq_star"}) else 0.0
        _check_p(self.p, lower)
        if self.kind in _NEEDS_Q:
            if self.q is None:
                raise ValueError(f"{self.kind} needs q")
            _check_q(self.q, 1.0 if self.kind == "grand_lorentz_pq" else 0.0)
        elif self.q is not None:
            raise ValueError(f"{self.kind} does not take q")
        if self.kind in _NEEDS_WEIGHT:
            if self.weight is None:
                raise ValueError(f"{self.kind} needs a weight")
        elif self.weight is not None:
            raise ValueError(f"{self.kind} does not take a weight")
        if self.kind == "grand_lebesgue" and self.measure is not None:
            raise ValueError("grand_lebesgue integrates |f| dx and takes no measure")


def space_norm(f: StepFunction, spec: SpaceSpec,
               grid_size: Optional[int] = None) -> Union[float, EpsSupResult]:
    """Evaluate the norm described by spec; grand kinds return EpsSupResult."""
    mu = spec.measure
    if spec.kind == "lorentz_pq":
        return lorentz_pq_norm(f, spec.p, spec.q, mu)
    if spec.kind == "lorentz_pq_star":
        return lorentz_pq_star_norm(f, spec.p, spec.q, mu)
    if spec.kind == "lambda_classical":
        return lambda_norm(f, spec.p, spec.weight, mu)
    if spec.kind == "grand_lebesgue":
        return grand_lebesgue_norm(f, spec.p, grid_size)
    if spec.kind == "grand_lorentz_pq":
        return grand_lorentz_pq_norm(f, spec.p, spec.q, mu, grid_size)
    if spec.kind == "lambda_grand":
        return grand_lambda_norm(f, spec.p, spec.weight, mu, grid_size)
    raise ValueError(f"unknown space kind {spec.kind!r}")


def norm_value(f: StepFunction, spec: SpaceSpec, grid_size: Optional[int] = None) -> float:
    out = space_norm(f, spec, grid_size)
    return out.value if isinstance(out, EpsSupResult) else float(out)


def eps_profile(f: StepFunction, spec: SpaceSpec,
                grid_size: Optional[int] = None) -> EpsSupResult:
    """Full eps profile of a grand norm (value, maximizer or endpoint flag,
    and the sampled curve)."""
    if spec.kind not in _GRAND_KINDS:
        raise ValueError(f"eps_profile needs a grand kind, got {spec.kind!r}")
    out = space_norm(f, spec, grid_size)
    assert isinstance(out, EpsSupResult)
    return out


def spacespec_from_json(obj: dict) -> SpaceSpec:
    if not isinstance(obj, dict):
        raise ValueError("space spec JSON must be an object")
    if "kind" not in obj:
        raise ValueError('space spec JSON needs a "kind" field')
    if "p" not in obj:
        raise ValueError('space spec JSON needs a "p" field')
    kind = obj["kind"]
    q = obj.get("q")
    if isinstance(q, str):
        if q.lower() in ("inf", "infinity"):
            q = math.inf
        else:
            raise ValueError(f'q must be a number or "inf", got {q!r}')
    weight = obj.get("weight")
    if weight is not None:
        weight = weight_from_json(weight)
    measure = obj.get("measure")
    if measure is not None:
        measure = measure_from_json(measure)
    return SpaceSpec(kind=kind, p=float(obj["p"]),
                     q=None if q is None else float(q),
                     weight=weight, measure=measure)


def spacespec_to_json(spec: SpaceSpec) -> dict:
    out = {"kind": spec.kind, "p": spec.p}
    if spec.q is not None:
        out["q"] = "inf" if math.isinf(spec.q) else spec.q
    if spec.weight is not None:
        out["weight"] = weight_to_json(spec.weight)
    if spec.measure is not None:
        out["measure"] = measure_to_json(spec.measure)
    return out
