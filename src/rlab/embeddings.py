"""Inclusion conditions between grand Lorentz spaces and measures.

The weight conditions give their exact sup over eps in closed form, the
downward check a certified bracket from the grand norms' branch-and-bound,
and the slice check its worst slack on the clustered eps grid.  "If and only
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
from .norms import (_NODES, _U, SpaceSpec, _eps_sup, eps_grid, grand_lorentz_pq_norm,
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

_DOWN_TOL = 1e-10  # downward_check's stopping gap in log(value)


@dataclass
class EmbeddingVerdict:
    """Outcome of an inclusion check.

    condition_value is the checked quantity (a sup over eps, or an
    empirical max ratio); for condition checks holds is its finiteness.
    downward_check also sets upper (the sup lies in [condition_value,
    upper]) and evals, its node evaluations; to_json reports them if set.
    """

    condition_value: float
    holds: bool
    witness: Optional[str] = None
    empirical_constant: Optional[float] = None
    seed: Optional[int] = None
    upper: Optional[float] = None
    evals: Optional[int] = None

    def to_json(self) -> dict:
        cv, up = self.condition_value, self.upper
        out = {
            "condition_value": cv if math.isfinite(cv) else "inf",
            "holds": self.holds,
            "empirical_constant": self.empirical_constant,
            "witness": self.witness,
            "seed": self.seed,
        }
        if up is not None:
            out.update(upper=up if math.isfinite(up) else "inf", evals=self.evals)
        return out


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


def _verdict(value: float, eps: float, **bracket) -> EmbeddingVerdict:
    """Verdict for a sup over eps reached at eps: it holds iff finite."""
    return EmbeddingVerdict(condition_value=value, holds=math.isfinite(value),
                            witness=f"eps={eps:.17g}", **bracket)


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
    """Weight divided by its mass W(1), with primitive and on_pieces on
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

    def on_pieces(self, a: np.ndarray, b: np.ndarray):
        """W and w on the knot pieces (a[j], b[j]) as a function of (s, j), s the
        offset t - a[j]: W(a) + w s where w is constant (a step weight, or past
        1), so a layer narrower than one ulp of a keeps its shape; a power
        weight below 1 is evaluated at t = a + s."""
        base, dens = self.primitive(a), np.where(b > 1.0, self.last, self.weight(0.5 * (a + b)))
        bent = isinstance(self.weight, PowerWeight) & (b <= 1.0)
        if not bent.any():
            return lambda s, j: (base[j] + dens[j] * s, dens[j])
        return lambda s, j: (np.where(bent[j], self.weight.primitive(a[j] + s), base[j] + dens[j] * s),
                             np.where(bent[j], self.weight(a[j] + s), dens[j]))

    def primitive(self, t: np.ndarray) -> np.ndarray:
        base = self.weight.primitive(np.minimum(t, 1.0))
        return np.where(t > 1.0, self.w1 + self.last * (t - 1.0), base)


def downward_check(p: float, q: float, w: Weight, v: Weight,
                   upper: float = 1.0, grid_size: Optional[int] = None) -> EmbeddingVerdict:
    """Downward inclusion condition for 1 < q < p, 1/r = 1/q - 1/p: the sup
    over eps in [0, q-1], end limits included, of (int_0^upper (W/V)^beta w
    dt)^(1/(r-eps)), beta = (r-eps)/(p-eps), in a certified bracket
    [condition_value, upper]; holds iff finite.  upper >= 1 extends both
    weights past 1 by their density at 1.  grid_size is validated (at
    least 8) and not otherwise read.

    With the weights divided by their masses (_ExtendedWeight) the log value
    is L = N/(r-eps), N = H(beta) + beta (log W(1) - log V(1)) + log W(1), H
    the log of the normalized integral.  On (0, k1], k1 the first knot, the
    integrand is K^beta c_w t^gamma, gamma = beta (alpha_w - alpha_v) +
    alpha_w, in closed form.  gamma is monotone in eps, so divergence (c_w >
    0, gamma <= -1) is decided at the ends before any quadrature: value inf,
    witness the smallest float eps with gamma <= -1.  Knot intervals past k1
    (if any) are integrated in t minus their left knot, one batch per round,
    W/V divided by its largest knot value.  norms._eps_sup runs from nodes 0,
    (q-1) eps_grid(1, 64) and q-1, splitting cells into 8 while their bound
    tops the best L by 1e-10.  H is convex in beta (Hoelder), beta monotone
    in eps: on a cell [a, b] N is at most its larger end value Nmax, so L <=
    Nmax/(r-b) if Nmax >= 0, else Nmax/(r-a); the smaller bound from N's
    chord (see bound) is taken.  Each node's N is widened by log1p(e/s), e
    and s the summed error_estimate and value of its pieces past k1, and by
    u (8 S + c), u = 2**-53, S the absolute values of N's terms (those scaled
    by beta weighted by beta's rounding), c gamma + 1's rounding through its
    log; upper adds the widest widening over r - (q-1) and 8u (|L| + 1) to
    the largest bound of a discarded cell.  A zero w gives 0; a finite value
    past the float range raises OverflowError or FloatingPointError, as does
    a scale that is no finite float.
    """
    q, p = _ordered_pair(q, p, "q", "p", strict=True)
    if grid_size is not None and grid_size < 8:
        raise ValueError("eps grid needs at least 8 points")
    r = p * q / (p - q)
    if not (np.isfinite(upper) and upper >= 1.0):
        raise ValueError("upper must be >= 1")
    ew, ev = _ExtendedWeight(w), _ExtendedWeight(v)
    if not ev.c0 > 0:
        raise ValueError("target weight primitive vanishes near 0")
    limit, da, a1, lw, lv = q - 1.0, ew.alpha - ev.alpha, ew.alpha + 1.0, ew.log_mass, ev.log_mass

    def diverges(e):
        return ew.c0 > 0.0 and (r - e) / (p - e) * da + ew.alpha <= -1.0

    if diverges(0.0) or diverges(limit):  # bisect to the smallest float that diverges
        lo, hi = 0.0, 0.0 if diverges(0.0) else limit
        while lo < 0.5 * (lo + hi) < hi:
            lo, hi = (lo, 0.5 * (lo + hi)) if diverges(0.5 * (lo + hi)) else (0.5 * (lo + hi), hi)
        return _verdict(math.inf, hi, upper=math.inf, evals=0)
    if lw == -math.inf:  # w = 0
        return _verdict(0.0, 0.0, upper=0.0, evals=0)
    knots = np.unique(np.concatenate(([0.0, 1.0, upper], ew.interior, ev.interior)))
    knots = knots[(knots >= 0.0) & (knots <= upper)]
    pieces = len(knots) - 2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # W/V = K t^(aw-av) on (0, k1], K the ratio of the W and V coefficients
        log_k = np.log(ew.c0 / a1) - np.log(ev.c0 / (ev.alpha + 1.0))
        # W/V is monotone between knots for step weights and past 1, so the
        # scaled powers stay at most 1 there; W = 0 past k1 leaves a zero integrand
        scale = float(np.max(ew.primitive(knots[1:]) / ev.primitive(knots[1:]))) or 1.0
    if not math.isfinite(scale):
        raise OverflowError("the downward condition lies outside the float range")
    log_k1, log_scale, widest = math.log(knots[1]), math.log(scale), [0.0]
    # W and V on the pieces past k1, in the offset from each piece's left knot
    w_at, v_at = ew.on_pieces(knots[1:-1], knots[2:]), ev.on_pieces(knots[1:-1], knots[2:])

    def run(eps):  # L and N at the nodes eps, every piece past k1 in one batch
        beta = (r - eps) / (p - eps)
        kappa = 4.0 + 3.0 * r / (r - eps)  # 1 + beta's relative rounding, in u
        n, quad, cond = np.full(eps.size, -np.inf), 0.0, 0.0
        size = kappa * np.abs(beta) * (abs(lw) + abs(lv)) + abs(lw) + pieces + 1
        if ew.c0 > 0.0:
            g1 = beta * da + a1  # gamma + 1
            first = (beta * log_k, math.log(ew.c0), g1 * log_k1, -np.log(g1))
            n = sum(first)
            size = size + (kappa - 1.0) * np.abs(first[0]) + sum(np.abs(x) for x in first)
            cond = (kappa * np.abs(beta * da) + g1) * (1.0 / g1 + abs(log_k1))
        if pieces:
            powers = np.repeat(beta, pieces)

            def integrand(s, k):  # problem k is piece k % pieces at node k // pieces
                j = k % pieces
                (wt, dw), (vt, _) = w_at(s, j), v_at(s, j)
                return (wt / vt / scale) ** powers[k] * dw

            res = integrate_batch(integrand, np.zeros(powers.size), np.tile(np.diff(knots[1:]), eps.size))
            total, err = (x.reshape(eps.size, pieces).sum(axis=1) for x in (res.value, res.error_estimate))
            with np.errstate(divide="ignore", invalid="ignore"):  # W = 0 past k1
                rest = np.log(total)
                quad = np.where(total > 0.0, np.log1p(err / total), 0.0)
            n = np.logaddexp(n, rest + beta * log_scale)
            size = size + np.where(total > 0.0, np.abs(rest), 0.0) + kappa * np.abs(beta * log_scale)
        n = n + beta * (lw - lv) + lw
        widest[0] = max(widest[0], float(np.max(quad + _U * (8.0 * size + cond))))
        return n / (r - eps), n

    def bound(lo, lo_n, hi, hi_n):
        # N lies below its chord C, linear in y = 1/(p-eps), and 1/(r-eps) = g(y)
        # has g' = 1/beta^2, |g''| = 2 |p-r|/beta^3: C g exceeds its larger end
        # value by at most h^2/8 max|(C g)''|, h the cell's width in y
        top, ends = np.maximum(lo_n, hi_n), np.maximum(lo_n / (r - lo), hi_n / (r - hi))
        h, ib = (hi - lo) / ((p - lo) * (p - hi)), np.maximum((p - lo) / (r - lo), (p - hi) / (r - hi))
        curve = h * (np.abs(hi_n - lo_n) * ib**2 + h * np.maximum(np.abs(lo_n), np.abs(hi_n)) * abs(p - r) * ib**3)
        return np.minimum(np.where(top >= 0.0, top / (r - hi), top / (r - lo)), ends + curve / 4.0)

    nodes = np.concatenate(([0.0], limit * _NODES, [limit]))
    best_v, best_e, best, closed, evals, _ = _eps_sup(run, bound, nodes, *run(nodes), float, _DOWN_TOL, False)
    value = _in_range(math.exp(best_v), best_v, "downward")
    top_l = max(best, closed) + widest[0] / (r - limit)
    up = value * math.exp(top_l + 8 * _U * (abs(top_l) + 1) - best_v)
    return _verdict(value, best_e, upper=max(value, up), evals=evals)


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
    slice_nu(eps) <= C^(1/(q-eps)) * slice_mu(eps).  It holds whenever C is
    finite (each merged-segment base of nu is at most C times mu's), at any
    scale of f; min_slack and worst_eps report it on the eps grid."""

    constant: float
    min_slack: float
    worst_eps: float

    @property
    def holds(self) -> bool:
        return math.isfinite(self.constant)


def domination_slice_check(f: StepFunction, p: float, q: float,
                           mu: MeasureDensity, nu: MeasureDensity) -> SliceDominationReport:
    """If nu <= C mu then each eps slice of the nu-weighted grand Lorentz
    functional is at most C^(1/(q-eps)) times the mu-weighted one; reports
    the worst slack over the default eps grid."""
    C = domination_constant(mu, nu)
    if not math.isfinite(C):
        return SliceDominationReport(constant=math.inf, min_slack=-math.inf,
                                     worst_eps=math.nan)
    eps = eps_grid(float(q) - 1.0)
    slice_nu = grand_lorentz_slice_values(f, p, q, eps, t_weight=nu)
    slice_mu = grand_lorentz_slice_values(f, p, q, eps, t_weight=mu)
    slack = C ** (1.0 / (float(q) - eps)) * slice_mu - slice_nu
    i = int(np.argmin(slack))
    return SliceDominationReport(constant=C, min_slack=float(slack[i]),
                                 worst_eps=float(eps[i]))
