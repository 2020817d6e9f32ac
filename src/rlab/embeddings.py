"""Inclusion conditions between grand Lorentz spaces and measures.

The weight conditions give their exact sup over eps in closed form, the
downward and slice checks theirs on the clustered eps grid.  "If and only
if" statements are probed one-sidedly (condition implies a norm inequality
on a seeded corpus, non-embedding is witnessed by shrinking indicator sets)
since universal quantification over functions is not numerically decidable.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import random_step_function
from .norms import (SpaceSpec, eps_grid, grand_lorentz_pq_norm,
                    grand_lorentz_slice_values, norm_value)
from .quadrature import integrate_batch
from .stepfn import (MeasureDensity, StepFunction, characteristic, make_step,
                     merge_segment_grids, step_to_json)
from .weights import PowerWeight, Weight, _as_weight

__all__ = [
    "EmbeddingVerdict",
    "ProbeRow",
    "ProbeReport",
    "SliceDominationReport",
    "wholds_check",
    "cross_weight_check",
    "downward_check",
    "domination_constant",
    "mutual_ac",
    "empirical_constant",
    "atom_bound",
    "shrinking_probe",
    "domination_slice_check",
]

_SLICE_TOL = 1e-10  # SliceDominationReport.tolerance of domination_slice_check


@dataclass
class EmbeddingVerdict:
    """Outcome of an inclusion check.

    condition_value is the checked quantity (a sup over eps, or an
    empirical max ratio); for condition checks holds is its finiteness.
    """

    condition_value: float
    holds: bool
    witness: Optional[str] = None
    empirical_constant: Optional[float] = None
    seed: Optional[int] = None

    def to_json(self) -> dict:
        cv = self.condition_value
        return {
            "condition_value": cv if math.isfinite(cv) else "inf",
            "holds": self.holds,
            "empirical_constant": self.empirical_constant,
            "witness": self.witness,
            "seed": self.seed,
        }


def _ordered_pair(lo: float, hi: float, lo_name: str, hi_name: str,
                  strict: bool):
    """Validate 1 < lo <= hi (or lo < hi when strict), both finite."""
    lo, hi = float(lo), float(hi)
    if not (lo > 1 and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"need finite exponents with {lo_name} > 1")
    if strict and not lo < hi:
        raise ValueError(f"need {lo_name} < {hi_name}")
    if not strict and not lo <= hi:
        raise ValueError(f"need {lo_name} <= {hi_name}")
    return lo, hi


def _verdict(value: float, eps: float) -> EmbeddingVerdict:
    """Verdict for a sup over eps reached at eps: it holds iff finite."""
    return EmbeddingVerdict(condition_value=value, holds=math.isfinite(value),
                            witness=f"eps={eps:.17g}")


def _in_range(value: float, log: float, name: str) -> float:
    """value, whose log is log, unless that is finite while value is 0 or inf
    (math.exp raises OverflowError itself past the largest float)."""
    if math.isinf(value) or (value == 0.0 and log > -math.inf):
        raise (FloatingPointError if value == 0.0 else OverflowError)(
            f"the {name} condition lies outside the float range")
    return value


def _mass(w: Weight) -> tuple:
    """W(1) and log W(1), the log of a power weight from its parameters: finite
    even where coeff/(alpha+1) overflows or underflows."""
    w = _as_weight(w)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        mass = float(w.primitive(1.0))
        return mass, float(np.log(w.coeff) - np.log1p(w.alpha) if isinstance(w, PowerWeight)
                           else np.log(mass))


def _weight_sup(p: float, q: float, w: tuple, v: tuple) -> EmbeddingVerdict:
    """sup over 0 < eps < p-1 of W^(1/(q-eps)) V^(-1/(p-eps)) for the _mass
    pairs (W, a) and (V, b), a maybe -inf: the best log among eps = 0, p-1
    and, if ab > 0, the critical point sqrt|a| (p-eps) = sqrt|b| (q-eps) moved
    into range (the other root of a (p-eps)^2 = b (q-eps)^2 has eps >= p).
    Raises OverflowError or FloatingPointError past either end of the float range."""
    (w1, a), (v1, b) = w, v
    ra, rb = math.sqrt(abs(a)), math.sqrt(abs(b))
    crit = rb * (q - p) / (ra - rb) if 0.0 < a * b < math.inf and ra != rb else p
    d = np.clip([p, 1.0, crit], 1.0, p)  # p - eps at eps = 0, p-1 and the critical point
    log = a / (q - p + d) - b / d
    i = int(np.argmax(log))  # ties go to eps = 0
    x, y = 1.0 / (q - p + float(d[i])), 1.0 / float(d[i])
    # pow of a normal float mass beats exp of its rounded log; the log serves the rest
    normal = np.finfo(float).tiny <= min(w1, v1) and max(w1, v1) < math.inf
    value = (w1 ** (x - y) if w1 == v1 else w1**x * v1**-y) if normal else math.exp(log[i])
    return _verdict(_in_range(value, log[i], "weight"), p - float(d[i]))


def wholds_check(p: float, q: float, w: Weight) -> EmbeddingVerdict:
    """Same-weight inclusion condition, for 1 < p <= q: the exact sup over
    eps in (0, p-1) of W(1)^(1/(q-eps) - 1/(p-eps)), finite iff the inclusion
    constant is; the exponent is monotone, so the witness is eps = 0 or p-1.
    """
    p, q = _ordered_pair(p, q, "p", "q", strict=False)
    m = _mass(w)
    if m[1] == -math.inf:  # W(1) = 0: W(1)^expo is inf for p < q, 1 for p = q
        return _verdict(math.inf if p < q else 1.0, 0.0)
    return _weight_sup(p, q, m, m)


def cross_weight_check(p: float, q: float, w: Weight, v: Weight) -> EmbeddingVerdict:
    """Two-weight inclusion condition, for 1 < p <= q and V(1) > 0: the exact
    sup over eps in (0, p-1) of W(1)^(1/(q-eps)) * V(1)^(-1/(p-eps)) (see
    _weight_sup); the witness is the eps where it sits.
    """
    p, q = _ordered_pair(p, q, "p", "q", strict=False)
    m = _mass(v)
    if m[1] == -math.inf:
        raise ValueError("degenerate target weight: V(1) = 0")
    return _weight_sup(p, q, _mass(w), m)


class _ExtendedWeight:
    """Weight divided by its mass W(1), with density and primitive on
    (0, upper]; beyond t = 1 the density continues with its value at 1
    (constant extension).  Up to its first interior breakpoint the density
    is c0 * t^alpha.  A power weight becomes PowerWeight(alpha, alpha + 1)
    exactly, a step weight has its values divided by its float mass, and a
    zero weight is kept as it is; log_mass is log W(1) from _mass."""

    def __init__(self, w: Weight):
        w = _as_weight(w)
        mass, self.log_mass = _mass(w)
        if self.log_mass > -math.inf:
            w = (PowerWeight(w.alpha, w.alpha + 1.0) if isinstance(w, PowerWeight) else
                 MeasureDensity(make_step(w.density.breakpoints, w.density.values / mass)))
        self.weight = w
        self.w1 = float(w.primitive(1.0))
        if isinstance(w, PowerWeight):
            self.last = self.c0 = w.coeff
            self.alpha = w.alpha
            self.interior = np.empty(0)
        else:
            values = w.density.values
            self.last = float(values[-1])
            self.c0, self.alpha = float(values[0]), 0.0
            self.interior = w.density.breakpoints[1:-1]

    def density(self, t: np.ndarray) -> np.ndarray:
        ta = np.asarray(t, dtype=float)
        return np.where(ta > 1.0, self.last, self.weight(np.minimum(ta, 1.0)))

    def primitive(self, t: np.ndarray) -> np.ndarray:
        ta = np.asarray(t, dtype=float)
        base = self.weight.primitive(np.minimum(ta, 1.0))
        return np.where(ta > 1.0, self.w1 + self.last * (ta - 1.0), base)


def downward_check(p: float, q: float, w: Weight, v: Weight,
                   upper: float = 1.0, grid_size: Optional[int] = None) -> EmbeddingVerdict:
    """Downward inclusion condition for 1 < q < p, with r from
    1/r = 1/q - 1/p: for each grid eps in (0, q-1) the quantity

        (int_0^upper (W(t)/V(t))^((r-eps)/(p-eps)) w(t) dt)^(1/(r-eps))

    holds iff every value is finite.  Both weights are first divided by
    their masses (_ExtendedWeight), so the integral scales by
    W(1)^(1+beta) V(1)^-beta.  On the first knot interval (0, k1] both
    weights are c * t^alpha, so the integrand is a pure power
    K^beta c_w t^gamma, integrated in closed form in log; it diverges
    exactly when c_w > 0 and gamma <= -1, and the first such eps is
    reported with value inf.  Past k1, V >= V(k1) > 0 and W, w are bounded,
    so nothing diverges there: those knot intervals go through one
    integrate_batch call at its default rel_tol (1e-10), with W/V divided
    by its largest value on the knots from k1 to upper, and beta times the
    log of that scale is added back.  upper defaults to 1 (the ambient interval);
    larger values extend both weights beyond 1 by their density at 1.  The
    grid is ranked by the log of the value, and the winner is taken back
    from its log.  A zero w gives 0; a finite value outside the float range
    raises OverflowError or FloatingPointError, and so does a scale that is
    not a finite float (V(k1) subnormal or zero).
    """
    q, p = _ordered_pair(q, p, "q", "p", strict=True)
    r = p * q / (p - q)
    if not (np.isfinite(upper) and upper >= 1.0):
        raise ValueError("upper must be >= 1")
    ew, ev = _ExtendedWeight(w), _ExtendedWeight(v)
    if not ev.c0 > 0:
        raise ValueError("target weight primitive vanishes near 0")
    knots = np.unique(np.concatenate((
        [0.0, 1.0, upper], ew.interior, ev.interior)))
    knots = knots[(knots >= 0.0) & (knots <= upper)]
    eps = eps_grid(q - 1.0, grid_size)
    beta = (r - eps) / (p - eps)
    gamma = beta * (ew.alpha - ev.alpha) + ew.alpha
    if ew.c0 > 0.0 and np.any(gamma <= -1.0):
        return _verdict(math.inf, eps[int(np.argmax(gamma <= -1.0))])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # W/V = K t^(aw-av) on (0, k1], K the ratio of the W and V coefficients
        log_k = np.log(ew.c0 / (ew.alpha + 1.0)) - np.log(ev.c0 / (ev.alpha + 1.0))
        first = (np.full(len(eps), -np.inf) if ew.c0 == 0.0 else beta * log_k + np.log(ew.c0)
                 + (gamma + 1.0) * np.log(knots[1]) - np.log(gamma + 1.0))
        # W/V is monotone between knots for step weights and past 1, so the
        # scaled powers stay at most 1 there; W = 0 past k1 leaves a zero integrand
        scale = float(np.max(ew.primitive(knots[1:]) / ev.primitive(knots[1:]))) or 1.0
        if not math.isfinite(scale):
            raise OverflowError("the downward condition lies outside the float range")
        pieces = len(knots) - 2
        powers = np.repeat(beta, pieces)

        def integrand(t, k):
            return (ew.primitive(t) / ev.primitive(t) / scale) ** powers[k] * ew.density(t)

        res = integrate_batch(integrand, np.tile(knots[1:-1], len(eps)),
                              np.tile(knots[2:], len(eps)))
        rest = np.log(res.value.reshape(len(eps), pieces).sum(axis=1)) + beta * math.log(scale)
        logs = (np.logaddexp(first, rest) + beta * (ew.log_mass - ev.log_mass)
                + ew.log_mass) / (r - eps)
    i = int(np.argmax(logs))
    return _verdict(_in_range(math.exp(logs[i]), logs[i], "downward"), eps[i])


def domination_constant(mu: MeasureDensity, nu: MeasureDensity) -> float:
    """Least C with nu(A) <= C mu(A) for every measurable A: the essential
    sup of the density ratio, +inf where nu lives off mu."""
    _, dm, dn = merge_segment_grids(mu.density.breakpoints, mu.density.values,
                                    nu.density.breakpoints, nu.density.values)
    if np.any((dn > 0) & (dm == 0)):
        return math.inf
    live = dm > 0
    if not np.any(live):
        return 0.0
    return float(np.max(dn[live] / dm[live]))


def mutual_ac(mu: MeasureDensity, nu: MeasureDensity) -> bool:
    """Mutual absolute continuity: the step densities vanish on exactly the
    same segments."""
    _, dm, dn = merge_segment_grids(mu.density.breakpoints, mu.density.values,
                                    nu.density.breakpoints, nu.density.values)
    return bool(np.all((dm == 0) == (dn == 0)))


def empirical_constant(source: SpaceSpec, target: SpaceSpec, corpus_size: int,
                       seed: int) -> EmbeddingVerdict:
    """Max ratio target-norm/source-norm over a seeded random corpus
    (generator: corpus.random_step_function, version 1); the witness is the
    maximizing function."""
    if corpus_size < 1:
        raise ValueError("corpus_size must be positive")
    rng = np.random.default_rng(seed)
    best = 0.0
    best_fn: Optional[StepFunction] = None
    best_idx = -1
    for i in range(corpus_size):
        f = random_step_function(rng)
        sn = norm_value(f, source)
        tn = norm_value(f, target)
        if sn == 0.0:
            if tn > 0.0:
                return EmbeddingVerdict(
                    condition_value=math.inf, holds=False, seed=seed,
                    witness=f"corpus[{i}] has source norm 0, target norm {tn:.17g}: "
                            + json.dumps(step_to_json(f)))
            continue
        ratio = tn / sn
        if ratio > best:
            best, best_fn, best_idx = ratio, f, i
    witness = None
    if best_fn is not None:
        witness = f"corpus[{best_idx}]: " + json.dumps(step_to_json(best_fn))
    return EmbeddingVerdict(condition_value=best, holds=math.isfinite(best), witness=witness,
                            empirical_constant=best, seed=seed)


def _check_probe_exponents(p: float, q: float, r: float, s: float):
    p, q, r, s = (float(x) for x in (p, q, r, s))
    if not (1 < q <= p < r <= s and math.isfinite(s)):
        raise ValueError("need 1 < q <= p < r <= s")
    return p, q, r, s


def atom_bound(p: float, q: float, r: float, s: float, C: float) -> float:
    """Smallest admissible measure of a non-null set if an embedding
    L^{p,q)} -> L^{r,s)} held with constant C:
    M = ((s-1)/(C(q-1)))^(rp/(r-p))."""
    p, q, r, s = _check_probe_exponents(p, q, r, s)
    if not C > 0:
        raise ValueError("constant C must be positive")
    return float(((s - 1.0) / (C * (q - 1.0))) ** (r * p / (r - p)))


@dataclass
class ProbeRow:
    a: float
    source_norm: float
    target_norm: float
    ratio: float


@dataclass
class ProbeReport:
    """Norm ratios of shrinking indicators chi_(0,a); divergence as a -> 0
    witnesses non-embedding over Lebesgue measure."""

    p: float
    q: float
    r: float
    s: float
    rows: list

    def decade_growth(self) -> list:
        """Ratio growth factors normalized per decade of shrink, for each
        consecutive pair of rows."""
        out = []
        for lo, hi in zip(self.rows[:-1], self.rows[1:]):
            decades = math.log10(lo.a / hi.a)
            if decades <= 0 or hi.ratio <= 0 or lo.ratio <= 0:
                out.append(math.nan)
            else:
                out.append((hi.ratio / lo.ratio) ** (1.0 / decades))
        return out

    def to_csv(self, fh, header_note: str = "") -> None:
        if header_note:
            fh.write(f"# {header_note}\n")
        fh.write("a,source_norm,target_norm,ratio\n")
        for row in self.rows:
            fh.write(f"{row.a:.17g},{row.source_norm:.17g},"
                     f"{row.target_norm:.17g},{row.ratio:.17g}\n")


def shrinking_probe(p: float, q: float, r: float, s: float,
                    a_list: Sequence[float]) -> ProbeReport:
    """Grand Lorentz norms of chi_(0,a) in the source (p,q) and target
    (r,s) spaces over Lebesgue measure, for each a in a_list."""
    p, q, r, s = _check_probe_exponents(p, q, r, s)
    rows = []
    for a in a_list:
        a = float(a)
        if not 0.0 < a <= 1.0:
            raise ValueError("probe sets need a in (0, 1]")
        f = characteristic([(0.0, a)])
        src = grand_lorentz_pq_norm(f, p, q).value
        tgt = grand_lorentz_pq_norm(f, r, s).value
        rows.append(ProbeRow(a=a, source_norm=src, target_norm=tgt,
                             ratio=tgt / src if src > 0 else math.inf))
    return ProbeReport(p=p, q=q, r=r, s=s, rows=rows)


@dataclass
class SliceDominationReport:
    """Fixed-eps comparison of grand Lorentz slices under two measures
    weighting the t-integral (shared Lebesgue rearrangement):
    slice_nu(eps) <= C^(1/(q-eps)) * slice_mu(eps)."""

    constant: float
    min_slack: float
    worst_eps: float
    tolerance: float

    @property
    def holds(self) -> bool:
        return math.isfinite(self.constant) and self.min_slack >= -self.tolerance


def domination_slice_check(f: StepFunction, p: float, q: float,
                           mu: MeasureDensity, nu: MeasureDensity,
                           grid_size: Optional[int] = None) -> SliceDominationReport:
    """If nu <= C mu then each eps slice of the nu-weighted grand Lorentz
    functional is at most C^(1/(q-eps)) times the mu-weighted one; reports
    the worst slack over the eps grid."""
    C = domination_constant(mu, nu)
    if not math.isfinite(C):
        return SliceDominationReport(constant=math.inf, min_slack=-math.inf,
                                     worst_eps=math.nan, tolerance=_SLICE_TOL)
    eps = eps_grid(float(q) - 1.0, grid_size)
    slice_nu = grand_lorentz_slice_values(f, p, q, eps, t_weight=nu)
    slice_mu = grand_lorentz_slice_values(f, p, q, eps, t_weight=mu)
    slack = C ** (1.0 / (float(q) - eps)) * slice_mu - slice_nu
    i = int(np.argmin(slack))
    return SliceDominationReport(constant=C, min_slack=float(slack[i]),
                                 worst_eps=float(eps[i]), tolerance=_SLICE_TOL)
