"""Centered maximal averages and mollifier convolutions on (0, 1).

Functions are zero-extended to the whole line.  The centered maximal
operator of a step function is computed exactly: between consecutive
candidate radii |x - b| (b a breakpoint) the sliding average is
c/(2r) + m/2, monotone in r, so the supremum over all radii is attained
either at a candidate radius or in the r -> 0 limit.  Each candidate
interval [x - r, x + r] with r = |x - b| has the breakpoint b itself as
one end, so its average is |F(b) - F(2x - b)| / (2r) with F the primitive
of |f|: one interpolation per (point, breakpoint) pair.

The pairwise operators (the maximal operator, which past _DENSE pairs
prunes its radii, and the bump's convolution_values) walk their points in
blocks of max(1, _BLOCK // len(breakpoints)) points; step kernels, which
touch O(knots) segments per point, in blocks of _BLOCK // (2 * knots), the
triangle in blocks of _BLOCK.  So no temporary holds more than _BLOCK =
2**14 float64 values (128 KiB) unless a single point already needs more,
and memory does not grow with points x breakpoints.  The budget stays at
glibc's default mmap threshold: larger temporaries are served from freshly
mapped pages that fault on every call, which made a 512 KiB budget slower
per call than this one.

Mollifier kernels phi are scaled as phi_t(x) = phi(x/t)/t, which is again
a kernel of the same kind (Kernel.scaled).  Convolutions phi_t * f are
assembled from the kernel's exact antiderivative K.  For step kernels only
the segments that hold an image of a kernel knot need K; the segments
between two images lie under one kernel piece and add up through f's
compensated prefix masses, so a point costs O(knots * log n), not O(n);
the triangle, a box window over box * f, costs O(log n) (convolution_values
states the error bounds).  The result is piecewise linear for step
kernels, piecewise quadratic for the triangle kernel, and a
piecewise-linear interpolant on a uniform grid of _BUMP_SAMPLES = 2048
cells for the smooth bump (whose own normalization constant is computed
by quadrature once per process, never hard-coded).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .norms import SpaceSpec, norm_value
from .stepfn import StepFunction, _canonical, _Piecewise, _prefix_error, make_step

__all__ = [
    "Kernel",
    "PiecewisePoly",
    "MaximalFunction",
    "DominationReport",
    "SweepRow",
    "SweepResult",
    "box_kernel",
    "triangle_kernel",
    "bump_kernel",
    "custom_step_kernel",
    "kernel_from_json",
    "maximal",
    "radial_majorant",
    "convolve",
    "convolution_values",
    "step_approximate",
    "domination_check",
    "convergence_sweep",
]

_KERNEL_KINDS = ("box", "triangle", "smooth_bump", "custom_step")
_BUMP_PANELS = 8192  # cumulative Simpson panels for the bump's tables
_BUMP_SAMPLES = 2048  # sampling cells for bump convolutions
_BLOCK = 2**14  # float64 values per temporary in the blocked operators (128 KiB)
_RUN, _CHUNK, _DENSE = 32, 4, 2**17  # MaximalFunction's block, chunk and dense sizes
_PAD, _TINY = 2.0**-48, 2.0**-1060  # relative and absolute pads of its radius bounds
_CELL_PANELS = 4  # Simpson panels per cell in MaximalFunction.cell_average_step
_DOMINATION_TOL = 1e-9  # DominationReport.tolerance of domination_check, per unit of max|f|


@cache
def _bump_table():
    """Unit profile exp(1/(z^2 - 1)) on (-1, 1): the nodes, its normalized
    antiderivative there, and its raw mass, by cumulative composite Simpson
    on a fixed grid of _BUMP_PANELS panels."""
    n = _BUMP_PANELS
    z = np.linspace(-1.0, 1.0, 2 * n + 1)
    vals = np.zeros_like(z)
    interior = np.abs(z) < 1.0
    vals[interior] = np.exp(1.0 / (z[interior] ** 2 - 1.0))
    h = z[1] - z[0]
    panel = (h / 3.0) * (vals[0:-2:2] + 4.0 * vals[1:-1:2] + vals[2::2])
    cum = np.concatenate(([0.0], np.cumsum(panel)))
    raw_mass = float(cum[-1])
    return z[::2], cum / raw_mass, raw_mass


@dataclass(frozen=True, eq=False)
class Kernel:
    """Mollifier kernel on (-half_width, half_width), nonnegative.

    box and triangle integrate to 1 by construction; smooth_bump is
    normalized by a quadrature-derived constant; custom_step kernels carry
    whatever values they were built with (see custom_step_kernel).
    """

    kind: str
    half_width: float = 1.0
    breakpoints: Optional[tuple] = None
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in _KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        hw = float(self.half_width)
        if not (np.isfinite(hw) and hw > 0):
            raise ValueError("kernel half_width must be finite and positive")
        object.__setattr__(self, "half_width", hw)
        if self.kind == "custom_step":
            if self.breakpoints is None or self.values is None:
                raise ValueError("custom_step kernel needs breakpoints and values")
            bk = np.asarray(self.breakpoints, dtype=float)
            vals = np.asarray(self.values, dtype=float)
            if len(vals) != len(bk) - 1 or len(bk) < 2:
                raise ValueError("custom_step needs one value per segment")
            if not np.all(np.diff(bk) > 0):
                raise ValueError("custom_step breakpoints must be strictly increasing")
            if bk[0] != -hw or bk[-1] != hw:
                raise ValueError("custom_step breakpoints must span (-half_width, half_width)")
            if np.any(vals < 0) or not np.all(np.isfinite(vals)):
                raise ValueError("kernel values must be finite and nonnegative")
            _step_mass(bk, vals)
            object.__setattr__(self, "breakpoints", tuple(bk.tolist()))
            object.__setattr__(self, "values", tuple(vals.tolist()))
        elif self.breakpoints is not None or self.values is not None:
            raise ValueError(f"{self.kind} kernel takes no breakpoints/values")
        else:
            with np.errstate(over="ignore"):
                peak = float(self.density(0.0))
            if not math.isfinite(peak):
                raise ValueError(f"{self.kind} kernel of half_width {hw!r}: its peak density "
                                 "exceeds the float range")

    # -- cached geometry -------------------------------------------------

    @cached_property
    def _step(self) -> "_OpenPoly":
        return _OpenPoly(np.asarray(self.breakpoints, dtype=float),
                         np.asarray(self.values, dtype=float)[:, None])

    @property
    def mass(self) -> float:
        """Integral of the kernel over the line."""
        if self.kind == "custom_step":
            return float(self._step._cum[-1])
        return 1.0

    @property
    def support_knots(self) -> np.ndarray:
        """Points where the kernel's piecewise description changes."""
        hw = self.half_width
        if self.kind == "box" or self.kind == "smooth_bump":
            return np.array([-hw, hw])
        if self.kind == "triangle":
            return np.array([-hw, 0.0, hw])
        return np.asarray(self.breakpoints, dtype=float)

    @property
    def cdf_degree(self) -> Optional[int]:
        """Polynomial degree of the antiderivative between knots
        (None: not polynomial, convolve by sampling)."""
        if self.kind in ("box", "custom_step"):
            return 1
        if self.kind == "triangle":
            return 2
        return None

    # -- evaluation --------------------------------------------------------

    def density(self, z):
        za = np.asarray(z, dtype=float)
        if self.kind == "custom_step":
            return self._step._eval(za)
        hw = self.half_width
        with np.errstate(over="ignore"):  # |u| = inf lies outside the support
            u = za / hw  # unit coordinates: for h = 1, scaled(t) computes phi(x/t)/t as written
        if self.kind == "box":
            return np.where(np.abs(u) < 1.0, 0.5 / hw, 0.0)
        if self.kind == "triangle":
            return np.maximum(0.0, 1.0 - np.abs(u)) / hw
        _, _, raw_mass = _bump_table()
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(1.0 / (u[inside] ** 2 - 1.0)) / raw_mass / hw
        return out

    def cdf(self, z):
        """Exact antiderivative: integral of the kernel over (-inf, z]."""
        za = np.asarray(z, dtype=float)
        if self.kind == "custom_step":
            return self._step.primitive(za)
        with np.errstate(over="ignore"):  # the clips below map u = +-inf to 0 and 1
            u = za / self.half_width
        if self.kind == "box":
            # in place for arrays: a block here needs one temporary, not three;
            # with three, domination_check faulted in fresh heap pages on every
            # call in about half of the processes (glibc trims the freed top)
            u += 1.0
            u /= 2.0
            return np.clip(u, 0.0, 1.0, out=u if u.ndim else None)
        if self.kind == "triangle":
            uc = np.clip(u, -1.0, 1.0)
            lower = (uc + 1.0) ** 2 / 2.0
            upper = 1.0 - (1.0 - uc) ** 2 / 2.0
            return np.where(uc <= 0.0, lower, upper)
        grid, cdf, _ = _bump_table()
        return np.interp(u, grid, cdf)

    def scaled(self, t: float) -> "Kernel":
        """phi_t(x) = phi(x/t)/t: a kernel of the same kind and mass on
        (-t h, t h).  A custom step kernel gets breakpoints t*a_i and values
        c_i/t.  Raises ValueError unless t is finite and positive, and when
        some c_i/t exceeds the float range."""
        if not (np.isfinite(t) and t > 0):
            raise ValueError("kernel scale t must be finite and positive")
        if self.kind != "custom_step":
            return Kernel(self.kind, t * self.half_width)
        with np.errstate(over="ignore"):
            vals = np.asarray(self.values) / t
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"kernel values over t = {t!r} exceed the float range")
        bk = t * np.asarray(self.breakpoints)
        return Kernel("custom_step", float(bk[-1]), tuple(bk.tolist()), tuple(vals.tolist()))


def _step_mass(bk: np.ndarray, vals: np.ndarray) -> float:
    """sum(vals * diff(bk)); ValueError when it exceeds the float range."""
    with np.errstate(over="ignore"):
        mass = float(np.sum(vals * np.diff(bk)))
    if math.isinf(mass):
        raise ValueError("custom_step kernel mass exceeds the float range")
    return mass


def box_kernel(half_width: float = 1.0) -> Kernel:
    return Kernel("box", half_width)


def triangle_kernel(half_width: float = 1.0) -> Kernel:
    return Kernel("triangle", half_width)


def bump_kernel(half_width: float = 1.0) -> Kernel:
    return Kernel("smooth_bump", half_width)


def custom_step_kernel(breakpoints, values, normalize: bool = True) -> Kernel:
    """Step kernel from explicit breakpoints spanning (-h, h).

    With normalize=True (default) the values are scaled to unit mass; with
    normalize=False they are kept verbatim (then the kernel need not be an
    approximate identity and mass may differ from 1).
    """
    bk = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    if len(bk) < 2:
        raise ValueError("custom_step needs at least two breakpoints")
    hw = float(bk[-1])
    if bk[0] != -hw or hw <= 0:
        raise ValueError("custom_step support must be symmetric: breakpoints from -h to h")
    if normalize:
        mass = _step_mass(bk, vals)
        if mass <= 0:
            raise ValueError("cannot normalize a kernel with zero mass")
        vals = vals / mass
    bk, vals = _canonical(bk, vals)
    return Kernel("custom_step", hw, tuple(bk.tolist()), tuple(vals.tolist()))


def radial_majorant(phi: Kernel) -> Kernel:
    """Least even nonincreasing envelope sup_{|y| >= |x|} phi(y).

    The built-in kernels are already even and nonincreasing in |x| and are
    returned as-is; custom step kernels get an explicit envelope (kept
    unnormalized: the envelope of a unit-mass kernel may have mass > 1).
    """
    if phi.kind != "custom_step":
        return phi
    bk, vals = phi._step.breakpoints, phi._step.coeffs[:, 0]
    u = np.unique(np.concatenate(([0.0], np.abs(bk))))
    seg_hi = np.maximum(np.abs(bk[:-1]), np.abs(bk[1:]))
    env = np.array([vals[seg_hi > lo].max() for lo in u[:-1]])
    mirrored_bk = np.concatenate((-u[::-1], u[1:]))
    mirrored_vals = np.concatenate((env[::-1], env))
    return custom_step_kernel(mirrored_bk, mirrored_vals, normalize=False)


# -- centered maximal operator ---------------------------------------------


def _point_blocks(n_points: int, width: int):
    """Slices of at most max(1, _BLOCK // width) consecutive points."""
    step = max(1, _BLOCK // width)
    for start in range(0, n_points, step):
        yield slice(start, start + step)


class MaximalFunction:
    """Exact centered Hardy-Littlewood maximal function of |f|.

    Callable at arbitrary points (vectorized); also provides sampled and
    cell-averaged step representations for norm evaluation.  Radii beyond
    the outermost candidate |x - b| give averages total/(2r), strictly
    decreasing, so restricting the sup to r <= 2 loses nothing on (0, 1).

    Each candidate radius r = |x - b_j| puts b_j at one end of [x - r, x + r],
    so the average there is |cum[j] - F(2x - b_j)| / (2r): one np.interp.
    Past _DENSE pairs, sorted points go in blocks X = [xa, xb] of _RUN and
    breakpoints in chunks J = b_j0..b_j1 of _CHUNK.  For J left of X the
    windows [b_j, 2x - b_j] lie in [b_j0, 2xb - b_j0], hold [b_j1, 2xa - b_j1]
    and have radii in [xa - b_j1, xb - b_j0] (mirrored on the right), which
    bounds the pair's averages.  Pairs that meet are evaluated.  The rest
    are dropped where the upper bound is under the least value found at X
    (r -> 0 included) or the largest lower bound there, then split into
    single breakpoints, dropped alike, and evaluated.

    The max is the same float as with every pair evaluated.  With
    u = 2**-53, np.interp is within 6.1u F + 2**-1073 of the exact
    interpolant F of the stored cum, which is nondecreasing; rounding is
    monotone.  So a computed |cum[j] - F(2x - b_j)| is within 14u hi +
    2**-1071 of [F(2xa - b_j1) - cum[j1], hi - cum[j0]], hi = F(2xb - b_j0),
    and 2|x - b_j| rounds into [2fl(xa - b_j1), 2fl(xb - b_j0)].  The pads
    _PAD = 32u hi and _TINY = 2**-1060 outweigh that and the bounds' own
    3.1u hi; division rounds monotonically.  Pruning needs finite slopes
    and cum[-1] <= 2**1000, so that nothing overflows.
    """

    def __init__(self, f: StepFunction):
        self.source = f
        self._abs = _OpenPoly(f.breakpoints, np.abs(f.values)[:, None])

    def __call__(self, x):
        xa = np.asarray(x, dtype=float)
        if xa.ndim > 1:
            raise ValueError(f"points must be a scalar or a 1-d array, got shape {xa.shape}")
        scalar = xa.ndim == 0
        xa = np.atleast_1d(xa).astype(float)
        order = np.argsort(xa, kind="stable")
        xs, bk, av = xa[order], self._abs.breakpoints, self._abs.coeffs[:, 0]
        il = np.clip(np.searchsorted(bk, xs, side="left") - 1, 0, len(av) - 1)
        left = np.where((xs <= 0.0) | (xs > 1.0), 0.0, av[il])  # right: _eval(xs)
        out = np.empty(len(xa))
        out[order] = self._radius_max(xs, 0.5 * (left + self._abs._eval(xs)))
        return float(out[0]) if scalar else out

    def _averages(self, x, b, c):
        """|c - F(2x - b)| / (2|x - b|), c = F(b), in place; 0 where x = b."""
        width = 2.0 * x - b
        far = self._abs.primitive(width)
        np.subtract(x, b, out=width)
        np.abs(width, out=width)
        width *= 2.0
        np.subtract(c, far, out=far)
        np.abs(far, out=far)
        return np.divide(far, width, out=far, where=width > 0.0)

    def _radius_max(self, xs: np.ndarray, floor: np.ndarray) -> np.ndarray:
        """floor raised to every candidate average at the ascending xs."""
        bk, cum = self._abs.breakpoints, self._abs._cum
        with np.errstate(all="ignore"):  # the slopes as np.interp forms them
            slopes = np.diff(cum) / np.diff(bk)
        if len(xs) * len(bk) <= _DENSE or cum[-1] > 2.0**1000 or not np.all(np.isfinite(slopes)):
            for blk in _point_blocks(len(xs), len(bk)):
                peak = self._averages(xs[None, blk], bk[:, None], cum[:, None]).max(axis=0)
                floor[blk] = np.maximum(floor[blk], peak)
            return floor
        run = min(_RUN, len(xs))
        pts, best = (np.append(a, np.repeat(a[-1], -len(a) % run)).reshape(-1, run)
                     for a in (xs, floor))  # padded with repeated candidates
        bp, cp = (np.append(a, np.repeat(a[-1], -len(a) % _CHUNK)) for a in (bk, cum))

        def evaluate(blk, j):  # (point block, breakpoint) pairs, blk ascending
            for s in range(0, len(blk), _BLOCK // run):
                rows, cols = blk[s:s + _BLOCK // run], j[s:s + _BLOCK // run]
                first = np.flatnonzero(np.diff(rows, prepend=-1))
                avg = self._averages(pts[rows], bp[cols, None], cp[cols, None])
                best[rows[first]] = np.maximum(best[rows[first]], np.maximum.reduceat(avg, first))

        ends = bp[::_CHUNK], bp[_CHUNK - 1::_CHUNK], cp[::_CHUNK], cp[_CHUNK - 1::_CHUNK]
        group = max(1, _BLOCK // len(bp))  # point blocks per bound array
        for g in range(0, len(pts), group):
            xa, xb = pts[g:g + group, :1], pts[g:g + group, -1:]
            apart = (ends[1] < xa) | (ends[0] > xb)
            blk, chk = np.nonzero(~apart)
            evaluate(np.repeat(blk + g, _CHUNK), (chk[:, None] * _CHUNK + np.arange(_CHUNK)).ravel())
            with np.errstate(all="ignore"):  # the pairs that meet are not read
                upper, lower = _radius_bounds(bk, cum, xa, xb, *ends)
                low = np.maximum(best[g:g + group].min(axis=1), lower.max(axis=1, where=apart, initial=0.0))
                blk, chk = np.nonzero(apart & ~(upper < low[:, None]))
                blk, j = np.repeat(blk, _CHUNK), (chk[:, None] * _CHUNK + np.arange(_CHUNK)).ravel()
                upper, lower = _radius_bounds(bk, cum, xa[blk, 0], xb[blk, 0], bp[j], bp[j], cp[j], cp[j])
                np.maximum.at(low, blk, lower)
            keep = ~(upper < low[blk])
            evaluate(blk[keep] + g, j[keep])
        return best.ravel()[:len(xs)]

    def sample(self, n: int):
        """Midpoint sampling on an n-cell uniform grid over (0, 1)."""
        if n < 1:
            raise ValueError("need at least one sample")
        x = (np.arange(n) + 0.5) / n
        return x, self(x)

    def cell_average_step(self, n: int) -> StepFunction:
        """Step function of per-cell averages (composite Simpson per cell),
        accurate enough that pointwise domination survives cell averaging."""
        if n < 1:
            raise ValueError("need at least one cell")
        edges = np.linspace(0.0, 1.0, n + 1)
        m = 2 * _CELL_PANELS
        offs = np.linspace(0.0, 1.0, m + 1)
        pts = edges[:-1, None] + (1.0 / n) * offs[None, :]
        vals = self(pts.ravel()).reshape(n, m + 1)
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        avgs = (vals @ w) / (3.0 * m)
        return make_step(edges, avgs)


def _radius_bounds(bk, cum, xa, xb, b0, b1, c0, c1):
    """Bounds on MaximalFunction's averages of b0..b1 (cum c0..c1) at xa..xb, apart."""
    left = b1 < xa
    fa, fb = np.interp(2.0 * xa - b1, bk, cum), np.interp(2.0 * xb - b0, bk, cum)
    hi, lo = np.where(left, fb, c1), np.where(left, c0, fa)
    upper = ((hi - lo) + _PAD * hi + _TINY) / (2.0 * np.where(left, xa - b1, b0 - xb))
    hi, lo = np.where(left, fa, c0), np.where(left, c1, fb)
    lower = ((hi - lo) - _PAD * hi - _TINY) / (2.0 * np.where(left, xb - b0, b1 - xa))
    return upper, lower


def maximal(f: StepFunction) -> MaximalFunction:
    """Centered maximal function sup_{r>0} (1/2r) int_{x-r}^{x+r} |f|."""
    return MaximalFunction(f)


# -- convolution --------------------------------------------------------


def convolution_values(phi_t: Kernel, f: StepFunction, x) -> np.ndarray:
    """(phi_t * f)(x) = sum_k v_k [K(x - b_k) - K(x - b_{k+1})], K the
    kernel's antiderivative: exact up to rounding for box, triangle and
    custom step kernels, table-backed for the smooth bump.  The bump
    evaluates K at every (point, breakpoint) pair.

    Step kernels (knots a_0 < ... < a_M, value c_m on piece m) cost
    O(M log n) per point.  The exact image of a knot, x - a_m, lies strictly
    between the float neighbours of its rounded value: in that value's
    segment, or also in the one before when the value is a breakpoint.
    Those segments keep the term above.  The segments between the images
    of a_{m+1} and a_m lie inside piece m and add up to c_m times a
    difference of f's prefix masses, held as the TwoSum pair _cum, _cum_err.
    With u = 2**-53, c_max = max c_m, h the half-width, V(x) the largest |f|
    on a segment that meets [x - h, x + h] and n segments, the error is at
    most

        c_max * (h u (32 (M + 2)**2 V(x) + 4 n**2 max|f|) + n 2**-1074):

    the cdf values near the knot images, the prefix masses (reached only by
    runs of segments a few ulps wide), and products v_k w_k that round to
    subnormals.  Near 0 those cost relative precision: 40 segments of width
    2**-1070 under one window give up to 5.5e-3 of phi_t * |f|, of width
    2**-1060 up to 3.3e-6.

    The triangle of half-width T is box_h * box_h, h = T/2: phi_t * f(x) is
    (1/T) int_{x-h}^{x+h} g with g = box_h * f, continuous and linear
    between its knots b_k -+ h (ordered exactly by comparing b_j - b_k with
    T).  g at a knot is a prefix-mass difference plus one end piece, its
    slope (v_{seg(y+h)} - v_{seg(y-h)}) / T.  A window's end pieces are
    integrated from their nearest knots, the cells between from g's TwoSum
    prefix masses (a single cell directly), so a point costs O(log n) and,
    with V(x) the largest |f| on a segment that meets [x - T, x + T], errs
    by at most u (32 V(x) + 16 (n + 1)**2 max|f|) + 4 (n + 1) 2**-1074 / T.
    """
    if np.ndim(x) > 1:
        raise ValueError(f"points must be a scalar or a 1-d array, got shape {np.shape(x)}")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if phi_t.cdf_degree == 1:
        return _step_kernel_values(phi_t, f, xa)
    if phi_t.kind == "triangle":
        return _triangle_values(phi_t.half_width, f, xa)
    bk = f.breakpoints
    out = np.empty(len(xa))
    for blk in _point_blocks(len(xa), len(bk)):
        cdfs = phi_t.cdf(xa[blk, None] - bk[None, :])
        out[blk] = (cdfs[:, :-1] - cdfs[:, 1:]) @ f.values
    return out


def _step_kernel_values(phi_t: Kernel, f: StepFunction, x: np.ndarray) -> np.ndarray:
    """convolution_values for a step kernel.  Arrays are laid out knots x
    points (rows ascend for sorted x), in blocks of points whose
    temporaries stay within _BLOCK values (2 per knot and point)."""
    bk, v = f.breakpoints, f.values
    hi, lo = f._cum, f._cum_err
    knots = phi_t.support_knots[:, None]
    out = np.empty(len(x))
    for blk in _point_blocks(len(x), 2 * len(knots)):
        xb = x[blk]
        img = xb - knots  # x - a_m, decreasing in m
        H = np.searchsorted(bk, img, side="right") - 1  # segment of img, in [-1, n]
        # b_H and b_{H+1}; off the grid both clip to one end and K cancels
        ends = np.take(bk, np.stack((H, H + 1)), mode="clip")
        # the exact image lies strictly between the float neighbours of img:
        # in segment H, or also in H - 1 when img is the breakpoint b_H
        on = ends[0] == img
        # covered runs: segments H[m+1]+1 .. L[m]-1 (L = H - on) lie inside piece m
        start = H[1:] + 1
        stop = np.maximum(H[:-1] - on[:-1], start)
        mass = ((np.take(hi, stop, mode="clip") - np.take(hi, start, mode="clip"))
                + (np.take(lo, stop, mode="clip") - np.take(lo, start, mode="clip")))
        if phi_t.kind == "box":  # its density 1/(2h) may overflow where this does not
            total = mass[0] / (2.0 * phi_t.half_width)
        else:
            total = np.asarray(phi_t.values) @ mass
        # boundary segments: H[m] once (knot m+1 takes it when H[m+1] = H[m])
        cdf = phi_t.cdf(xb - ends)
        terms = np.take(v, H, mode="clip") * (cdf[0] - cdf[1])
        total += terms[-1] + np.where(H[:-1] > H[1:], terms[:-1], 0.0).sum(axis=0)
        # and H[m] - 1 when img is b_H and no other knot takes that segment
        if on.any():
            on[:-1] &= H[:-1] - 1 > H[1:]
            m, p = np.nonzero(on)
            s = H[m, p] - 1
            cdf = phi_t.cdf(xb[p] - np.take(bk, np.stack((s, s + 1)), mode="clip"))
            np.add.at(total, p, np.take(v, s, mode="clip") * (cdf[0] - cdf[1]))
        out[blk] = total
    return out


def _floor_sum(a, b):
    """The largest float <= a + b, from TwoSum's rounding error."""
    s = a + b
    bb = s - a
    return np.where((a - (s - bb)) + (b - bb) < 0.0, np.nextafter(s, -np.inf), s)


def _triangle_values(T: float, f: StepFunction, x: np.ndarray) -> np.ndarray:
    """convolution_values for the triangle of half-width T (see there)."""
    bk, v, hi, lo = f.breakpoints, f.values, f._cum, f._cum_err
    n, vp = len(v), np.append(v, 0.0)  # vp[n] = vp[-1] = 0: f outside (0, 1)

    def count(z):  # #{k: b_k <= z}; z a float, or floored from an exact sum
        return np.searchsorted(bk, z, side="right")

    # T g at b_k + h and b_k - h: f over [b_k, b_k + T] and [b_k - T, b_k],
    # whole segments from the prefix masses, the end piece from its breakpoint
    j = count(_floor_sum(bk, T)) - 1  # segment of b_k + T, in [k, n]
    i = count(_floor_sum(bk, -T)) - 1  # segment of b_k - T, in [-1, k - 1]
    up = (hi[j] - hi) + (lo[j] - lo) + vp[j] * ((bk - bk[j]) + T)
    down = (hi - hi[i + 1]) + (lo - lo[i + 1]) + vp[i] * ((bk[i + 1] - bk) + T)
    # knots in exact order: b_k + h follows the j + 1 knots b_m - h with
    # b_m <= b_k + T; knot K, also read as knot -1, is a sentinel with g = 0
    K = 2 * (n + 1)
    kb, kg, plus = np.zeros(K + 1), np.zeros(K + 1), np.zeros(K + 1, dtype=bool)
    plus[np.arange(n + 1) + j + 1] = True
    p = plus[:K]
    kb[:K][p], kb[:K][~p], kg[:K][p], kg[:K][~p] = bk, bk, up / T, down / T
    # on cell c (knots c - 1 to c), y + h is in segment #minus - 1, y - h in #plus - 1
    cp = np.concatenate(([0], np.cumsum(p)))
    dv = vp[np.arange(K + 1) - cp - 1] - vp[cp - 1]  # T g' on cell c
    w = (kb[1:K] - kb[:K - 1]) + T * (p[1:] - p[:-1].astype(float))
    mass = np.append(w * (0.5 * kg[:K - 1] + 0.5 * kg[1:K]), [0.0, 0.0])
    qh = np.concatenate(([0.0], np.cumsum(mass[:-2]), [0.0]))  # index K: a pad
    ql = np.append(_prefix_error(qh[:-1], mass[:-2]), 0.0)
    out = np.empty(len(x))
    with np.errstate(invalid="ignore"):  # inf - inf in _floor_sum: +-inf gives 0
        for blk in _point_blocks(len(x), 1):
            xb = x[blk]
            mid = count(xb)  # x - h lies in cell a, x + h in cell b + 1
            a, b = mid + count(_floor_sum(xb, -T)), mid + count(_floor_sum(xb, T)) - 1
            # both in one cell: g(x), measured from its left knot
            d = np.clip((xb - kb[a - 1]) - (plus[a - 1] - 0.5) * T, 0.0, T)
            one = kg[a - 1] + dv[a] * (d / T)
            # else the end pieces to knots a and b, and the cells between them
            rl = np.clip((kb[a] - xb) + plus[a] * T, 0.0, T) / T
            rr = np.clip((xb - kb[b]) + (1.0 - plus[b]) * T, 0.0, T) / T
            run = np.where(b - a == 1, mass[a], (qh[b] - qh[a]) + (ql[b] - ql[a])) / T
            two = rl * (kg[a] - dv[a] * (0.5 * rl)) + run + rr * (kg[b] + dv[b + 1] * (0.5 * rr))
            out[blk] = np.where(a > b, one, two)
    return out


@dataclass(eq=False)
class PiecewisePoly(_Piecewise):
    """Piecewise polynomial of degree <= 2 with local coefficients.

    On cell i the value is c0 + c1*u + c2*u^2 with u = x - breakpoints[i];
    outside the closed breakpoint range the function is 0.
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray  # shape (n_cells, 3)

    @property
    def _coef(self) -> np.ndarray:
        return self.coeffs

    def __sub__(self, other: Union["PiecewisePoly", StepFunction]) -> "PiecewisePoly":
        new_bk = np.union1d(self.breakpoints, other.breakpoints)
        return PiecewisePoly(new_bk, _resampled_coeffs(self, new_bk) - _resampled_coeffs(other, new_bk))


def _resampled_coeffs(g: _Piecewise, new_bk: np.ndarray) -> np.ndarray:
    """g's coefficients on a refinement grid (must contain all of g's
    breakpoints that lie inside [new_bk[0], new_bk[-1]]); a step's higher
    coefficients are 0."""
    bk = g.breakpoints
    left = new_bk[:-1]
    idx = g.segment(left)
    inside = (left >= bk[0]) & (left < bk[-1])
    u0 = left - bk[idx]
    c = np.pad(g._coef[idx], ((0, 0), (0, 3 - g._coef.shape[1])))
    out = np.zeros((len(left), 3))
    out[:, 0] = c[:, 0] + u0 * (c[:, 1] + u0 * c[:, 2])
    out[:, 1] = c[:, 1] + 2.0 * c[:, 2] * u0
    out[:, 2] = c[:, 2]
    out[~inside] = 0.0
    return out


class _OpenPoly(PiecewisePoly):
    """A PiecewisePoly that is 0 from its last breakpoint on: a custom
    kernel's density, |f| inside MaximalFunction and convolve's output."""

    closed = False


def convolve(phi_t: Kernel, f: StepFunction) -> PiecewisePoly:
    """phi_t * f with f zero-extended.

    Exact piecewise polynomial (degree 1 for step kernels, 2 for the
    triangle) on the grid of all sums breakpoint + knot, each rounded up to
    a float, so that a float lies in the cell that holds it exactly; the
    smooth bump is sampled on a uniform grid of _BUMP_SAMPLES cells and
    returned as a piecewise-linear interpolant.  The result is 0 from its
    last breakpoint on.  A degree-1 cell is the line through its values at
    1/4 and 3/4 of the cell, a degree-2 cell the parabola through 1/4, 1/2
    and 3/4 at the points' actual offsets (distinct floats inside the cell),
    not through its ends: at small t (all knots of b within an ulp of b) an
    end value would mix two levels.
    """
    deg = phi_t.cdf_degree
    if deg is None:
        lo = f.breakpoints[0] + phi_t.support_knots[0]
        hi = f.breakpoints[-1] + phi_t.support_knots[-1]
        bkps = np.linspace(lo, hi, _BUMP_SAMPLES + 1)
    else:
        bkps = -np.unique(_floor_sum(-f.breakpoints[:, None], -phi_t.support_knots[None, :]))[::-1]
    left, w = bkps[:-1], np.diff(bkps)
    n = len(w)
    coeffs = np.zeros((n, 3))
    if deg is None:
        vals = convolution_values(phi_t, f, bkps)
        coeffs[:, 0] = vals[:-1]
        coeffs[:, 1] = np.diff(vals) / w
        return _OpenPoly(bkps, coeffs)
    # Newton form through the values at 1/4, (1/2,) 3/4 of each cell, at the
    # points' actual offsets u from its left end, kept distinct inside the cell
    x, top = [], bkps[1:]
    for s in ((0.75, 0.25) if deg == 1 else (0.75, 0.5, 0.25)):
        top = np.nextafter(top, -np.inf)
        x.insert(0, np.maximum(np.minimum(left + s * w, top), left))
    v = np.split(convolution_values(phi_t, f, np.concatenate(x)), deg + 1)
    u1 = x[0] - left
    d1 = _slope(v[0], v[1], x[0], x[1])
    coeffs[:, 0] = v[0] - d1 * u1
    coeffs[:, 1] = d1
    if deg == 2:
        c2 = _slope(d1, _slope(v[1], v[2], x[1], x[2]), x[0], x[2])
        u2 = x[1] - left
        coeffs[:, 0] += c2 * u1 * u2
        coeffs[:, 1] -= c2 * (u1 + u2)
        coeffs[:, 2] = c2
    return _OpenPoly(bkps, coeffs)


def _slope(va, vb, xa, xb):
    """Divided difference (vb - va) / (xb - xa); 0 in a cell a few ulps
    wide where rounding put both points together (the cell is then flat)."""
    return np.divide(vb - va, xb - xa, out=np.zeros(len(va)), where=xb > xa)


def step_approximate(g: Union[PiecewisePoly, StepFunction], n: int = 4096) -> StepFunction:
    """n-cell uniform partition of (0, 1) with exact cell averages of g.

    Refinement contract: norms evaluated at n and 2n differ by a small
    drift that shrinks as n grows; convergence_sweep reports it.
    """
    if n < 2:
        raise ValueError("need at least two cells")
    edges = np.linspace(0.0, 1.0, n + 1)
    cums = g.primitive(edges)
    return make_step(edges, np.diff(cums) * n)


# -- domination and convergence reports -------------------------------------


@dataclass
class DominationReport:
    """Grid check of |phi_t * f| <= Mf."""

    min_slack: float
    max_violation: float
    worst_x: float
    worst_t: float
    n_points: int
    tolerance: float

    @property
    def holds(self) -> bool:
        return self.min_slack >= -self.tolerance


def domination_check(phi: Kernel, f: StepFunction, x_grid, t_grid) -> DominationReport:
    """Evaluate Mf - |phi_t * f| on the grid and report the worst slack.
    The slack is 1-homogeneous in f, so the tolerance is _DOMINATION_TOL
    times max|f|."""
    x = np.asarray(x_grid, dtype=float)
    M = maximal(f)(x)
    min_slack = math.inf
    worst = (float("nan"), float("nan"))
    for t in np.asarray(t_grid, dtype=float):
        conv = convolution_values(phi.scaled(float(t)), f, x)
        slack = M - np.abs(conv)
        i = int(np.argmin(slack))
        if slack[i] < min_slack:
            min_slack = float(slack[i])
            worst = (float(x[i]), float(t))
    return DominationReport(
        min_slack=min_slack,
        max_violation=max(0.0, -min_slack),
        worst_x=worst[0],
        worst_t=worst[1],
        n_points=len(x) * len(np.atleast_1d(t_grid)),
        tolerance=_DOMINATION_TOL * f.max_abs(),
    )


@dataclass
class SweepRow:
    t: float
    err: float
    conv_norm: float
    maximal_norm: float
    ratio: float
    err_drift: float


@dataclass
class SweepResult:
    rows: list
    cells: int

    def to_csv(self, fh, header_note: str = "") -> None:
        if header_note:
            fh.write(f"# {header_note}\n")
        drift = max((r.err_drift for r in self.rows), default=0.0)
        fh.write(f"# cells={self.cells} max_err_drift={drift:.17g}\n")
        fh.write("t,err,conv_norm,maximal_norm,ratio\n")
        for r in self.rows:
            fh.write(
                f"{r.t:.17g},{r.err:.17g},{r.conv_norm:.17g},"
                f"{r.maximal_norm:.17g},{r.ratio:.17g}\n"
            )


def convergence_sweep(f: StepFunction, phi: Kernel, t_list: Sequence[float],
                      spec: SpaceSpec, cells: int = 4096) -> SweepResult:
    """Approximate-identity sweep: for each scale t record the norm of
    phi_t * f - f, the norm of phi_t * f, and its ratio to the maximal
    function's norm.

    t_list must be positive and strictly decreasing.  Norms of convolution
    outputs go through step_approximate at `cells`; the reported err_drift
    is the relative change when recomputed at 2*cells.
    """
    ts = [float(t) for t in t_list]
    if not ts or any(t <= 0 for t in ts) or any(b >= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_list must be positive and strictly decreasing")
    if cells < 2:
        raise ValueError("need at least two cells")
    mf_step = maximal(f).cell_average_step(cells)
    mnorm = norm_value(mf_step, spec)
    rows = []
    for t in ts:
        conv = convolve(phi.scaled(t), f)
        diff = conv - f
        err = norm_value(step_approximate(diff, cells), spec)
        err_fine = norm_value(step_approximate(diff, 2 * cells), spec)
        drift = abs(err - err_fine) / max(err, 1e-300)
        cnorm = norm_value(step_approximate(conv, cells), spec)
        rows.append(SweepRow(
            t=t, err=err, conv_norm=cnorm, maximal_norm=mnorm,
            ratio=cnorm / mnorm if mnorm > 0 else math.inf,
            err_drift=drift,
        ))
    return SweepResult(rows=rows, cells=cells)


# -- JSON ------------------------------------------------------------------


def kernel_from_json(obj: dict) -> Kernel:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('kernel JSON needs a "kind" field')
    kind = obj["kind"]
    hw = float(obj.get("half_width", 1.0))
    if kind == "custom_step":
        if "breakpoints" not in obj or "values" not in obj:
            raise ValueError("custom_step kernel JSON needs breakpoints and values")
        return custom_step_kernel(obj["breakpoints"], obj["values"],
                                  normalize=bool(obj.get("normalize", True)))
    if kind not in _KERNEL_KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return Kernel(kind, hw)
