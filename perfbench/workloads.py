"""The four perfbench workloads: seeded inputs, one pass of ops, checks.

Each build_* function takes the seed and returns a Workload whose plan is
one pass of ops.  An op is a closure over inputs made at set-up; its check
compares the output with an independent reference (see refs.py) and
returns None when the output is right, else the reason it is not.
References are computed on first use (functools.cache), after the timed
phase.  Known-defect ops are kept apart as probes: they run once per run,
after the timed phase, under the same per-op deadline and with the same
kind of check.
"""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable, Optional

import numpy as np

import refs
import rlab
# set-up helpers only: ops call rlab's functions through the package
# (rlab.space_norm, ...), where the tracer's wrappers are installed
from rlab import (MeasureDensity, PowerWeight, SpaceSpec, box_kernel,
                  bump_kernel, make_step, random_measure, random_step_function,
                  step_to_json, triangle_kernel)

GRID = 2048
# an op projected past either budget is listed as skipped and not run; the
# memory budget keeps one run well inside a shared 8 GB machine
MEM_BUDGET = 2 * 1024**3
OP_BUDGET_S = 1.0
PROBE_A = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@dataclass
class Op:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


@dataclass
class Workload:
    name: str
    plan: list                       # one pass of Ops
    warmup: list                     # Ops run during set-up, untimed
    probes: list                     # known-defect Ops, run once after timing
    deadline: float                  # per-op deadline, seconds
    sizes: dict
    skipped: list = field(default_factory=list)
    runner: Optional["CliRunner"] = None     # the cli workload's process launcher


def _seeded(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _step(rng, n, lo=1e-3, hi=1e3, signed=False):
    """n segments: sorted uniform breakpoints, log-uniform levels."""
    while True:
        bk = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]))
        if np.all(np.diff(bk) > 0):
            break
    vals = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    if signed:
        vals *= rng.choice([-1.0, 1.0], n)
    return make_step(bk, vals)


def _density(rng, n, lo=0.2, hi=2.0, unit_mass=False):
    bk = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, n - 1)), [1.0]))
    vals = rng.uniform(lo, hi, n)
    if unit_mass:
        vals /= float(np.sum(vals * np.diff(bk)))
    return MeasureDensity(make_step(bk, vals))


def _arrays(f):
    return f.breakpoints, f.values


def _weight_tuple(w):
    if isinstance(w, PowerWeight):
        return ("power", w.alpha, w.coeff)
    step = w.density if isinstance(w, MeasureDensity) else w
    return ("step", step.breakpoints, step.values)


def _mu_arrays(mu):
    return None if mu is None else (mu.density.breakpoints, mu.density.values)


def _fail_unless(ok: bool, reason: str) -> Optional[str]:
    return None if ok else reason


# -- norms -----------------------------------------------------------------

NORM_SIZES = (10, 1000, 10000, 20000, 100000)
STAR_S_PER_SEGMENT = 2.5e-5      # lorentz_pq_star_norm: one quadrature per segment


def _norm_specs(mu, step_w):
    """(label, SpaceSpec) for every kind under one rearrangement measure."""
    pw = PowerWeight(0.5)
    specs = [
        ("lorentz_pq(2,3)", SpaceSpec("lorentz_pq", 2.0, 3.0, measure=mu)),
        ("lorentz_pq(2,inf)", SpaceSpec("lorentz_pq", 2.0, math.inf, measure=mu)),
        ("lorentz_pq(2,2)", SpaceSpec("lorentz_pq", 2.0, 2.0, measure=mu)),
        ("lorentz_pq_star(2,3)", SpaceSpec("lorentz_pq_star", 2.0, 3.0, measure=mu)),
        ("lambda_classical(2,t^0.5)", SpaceSpec("lambda_classical", 2.0, weight=pw, measure=mu)),
        ("lambda_classical(2,step)", SpaceSpec("lambda_classical", 2.0, weight=step_w, measure=mu)),
        ("grand_lorentz_pq(2,3)", SpaceSpec("grand_lorentz_pq", 2.0, 3.0, measure=mu)),
        ("lambda_grand(3,t^0.5)", SpaceSpec("lambda_grand", 3.0, weight=pw, measure=mu)),
    ]
    if mu is None:
        specs.append(("grand_lebesgue(3)", SpaceSpec("grand_lebesgue", 3.0)))
    return specs


def _norm_skip(kind, n) -> Optional[str]:
    """Why a norm op at n segments is not run, or None.  An eps-sup
    evaluation holds two grid x n float arrays (the exponents and their
    exp); lorentz_pq_star_norm runs one adaptive quadrature per segment."""
    if kind in ("grand_lebesgue", "grand_lorentz_pq", "lambda_grand"):
        nbytes = 2 * GRID * n * 8
        if nbytes > MEM_BUDGET:
            return f"projected {nbytes / 1e9:.1f} GB"
    if kind == "lorentz_pq_star" and n * STAR_S_PER_SEGMENT > OP_BUDGET_S:
        return (f"projected {n * STAR_S_PER_SEGMENT:.1f} s per op, over the "
                f"{OP_BUDGET_S:g} s op budget")
    return None


def _check_norm(f, spec):
    bk, vals = _arrays(f)
    mu = _mu_arrays(spec.measure)
    kind, p, q = spec.kind, spec.p, spec.q

    if kind == "lorentz_pq":
        ref = cache(lambda: refs.lorentz(bk, vals, p, q, mu))
        also = cache(lambda: refs.lebesgue(bk, vals, p, mu)) if q == p else None

        def check(out):
            err = refs.rel_err(out, ref())
            if also is not None:
                err = max(err, refs.rel_err(out, also()))
            return _fail_unless(err <= 1e-9, f"value {out!r}, reference {ref()!r}")
        return check

    if kind == "lorentz_pq_star":
        plain = cache(lambda: refs.lorentz(bk, vals, p, q, mu))
        star = cache(lambda: refs.lorentz_star(bk, vals, p, q, mu))

        def check(out):
            hardy = plain() * (1 - 1e-9) <= out <= plain() * p / (p - 1.0) * (1 + 1e-9)
            return _fail_unless(hardy and refs.rel_err(out, star()) <= 1e-8,
                                f"value {out!r}, reference {star()!r}, "
                                f"Hardy band [{plain()!r}, {plain() * p / (p - 1.0)!r}]")
        return check

    if kind == "lambda_classical":
        ref = cache(lambda: refs.lambda_classical(bk, vals, p, _weight_tuple(spec.weight), mu))
        return lambda out: _fail_unless(refs.rel_err(out, ref()) <= 1e-9,
                                        f"value {out!r}, reference {ref()!r}")

    weight = None if spec.weight is None else _weight_tuple(spec.weight)
    terms = cache(lambda: refs.grand_terms(kind, bk, vals, p, q, weight, mu))
    bracket = cache(lambda: refs.grand_bracket(*terms()))

    def check(out):
        ok = refs.in_bracket(out.value, bracket())
        return _fail_unless(ok, f"value {out.value!r} outside reference bracket {bracket()!r}")
    return check


def _check_profile(f, spec):
    grand = _check_norm(f, spec)
    bk, vals = _arrays(f)
    terms = cache(lambda: refs.grand_terms(spec.kind, bk, vals, spec.p, spec.q))

    def check(out):
        if len(out.eps) != GRID:
            return f"profile has {len(out.eps)} points, asked for {GRID}"
        want = refs.slices(terms()[0], terms()[1], terms()[2], out.eps)
        worst = float(np.max(np.abs(out.slice_values - want) / np.maximum(want, 1e-300)))
        if worst > 1e-9:
            return f"profile slices off by {worst:.3g} relative"
        return grand(out)
    return check


def _check_rearrangement(f, mu, oracles):
    bk, vals = _arrays(f)
    mua = _mu_arrays(mu) or (np.array([0.0, 1.0]), np.array([1.0]))
    powers = cache(lambda: [refs.power_integrals(bk, vals, p, mua) for p in (1, 2, 3)])
    levels = np.quantile(np.abs(vals), np.linspace(0.05, 0.95, 16))
    dist = cache(lambda: oracles.brute_distribution(bk, vals, mua[0], mua[1], levels))

    def check(out):
        v, t = out.values, out.breakpoints
        if np.any(np.diff(v) > 0) or np.any(v < 0):
            return "rearrangement is not nonincreasing and nonnegative"
        for p, (top, want) in zip((1, 2, 3), powers()):
            got = float(np.sum((v / top) ** p * np.diff(t)))
            if refs.rel_err(got, want) > 1e-9:
                return f"int f*^{p} = {got * top**p!r}, int |f|^{p} dmu = {want * top**p!r}"
        lam = np.array([np.sum(np.diff(t)[v > y]) for y in levels])
        worst = float(np.max(np.abs(lam - dist())))
        return _fail_unless(worst <= 1e-12, f"distribution function off by {worst:.3g}")
    return check


def build_norms(seed: int, oracles) -> Workload:
    rng = _seeded(seed, 1)
    mu = _density(rng, 8, unit_mass=True)
    step_w = _density(rng, 8)
    plan, skipped = [], []
    prof = SpaceSpec("grand_lorentz_pq", 2.0, 3.0)
    for n in NORM_SIZES:
        f = _step(rng, n)
        # the measure variants start at n = 1000, where merging and sorting
        # under mu is real work
        measures = (("lebesgue", None),) + ((("mu", mu),) if n >= 1000 else ())
        ops = [(f"{label} {mlabel}", spec, lambda f=f, s=spec: rlab.space_norm(f, s),
                _check_norm(f, spec))
               for mlabel, m in measures for label, spec in _norm_specs(m, step_w)]
        ops += [(f"rearrangement {mlabel}", None, lambda f=f, m=m: rlab.rearrangement(f, m),
                 _check_rearrangement(f, m, oracles)) for mlabel, m in measures]
        ops.append((f"eps_profile grand_lorentz_pq(2,3) grid={GRID}", prof,
                    lambda f=f: rlab.eps_profile(f, prof, GRID), _check_profile(f, prof)))
        for label, spec, run, check in ops:
            why = spec and _norm_skip(spec.kind, n)
            if why:
                skipped.append(f"n={n} {label}: {why}")
            else:
                plan.append(Op(f"n={n} {label}", run, check))
    # warm-up: every op at the smallest size
    warmup = [op for op in plan if op.key.startswith(f"n={NORM_SIZES[0]} ")]
    spike = make_step([0.0, 0.5, 1.0], [1e3, 1e-3])
    probe_ref = refs.lorentz(spike.breakpoints, spike.values, 2.0, 120.0)
    probes = [Op("lorentz_pq_norm({1e3, 1e-3}, p=2, q=120)",
                 lambda: rlab.lorentz_pq_norm(spike, 2.0, 120.0),
                 lambda out: _fail_unless(refs.rel_err(out, probe_ref) <= 1e-9,
                                          f"returned {out!r}, reference {probe_ref!r}"))]
    sizes = {"segments": list(NORM_SIZES), "eps_grid": GRID, "measure_segments": 8}
    return Workload("norms", plan, warmup, probes, deadline=5.0, sizes=sizes,
                    skipped=skipped)


# -- mollify ----------------------------------------------------------------

# functions per size: every function gets maximal.sample and
# domination_check, the first also the three sweeps.  The counts keep
# p50 inside the n=100 domination checks and p90 inside the n=100 sweeps,
# away from the jumps between op classes.
MOLLIFY_FUNCS = {30: 10, 100: 10, 300: 5, 1000: 4}
MOLLIFY_SIZES = tuple(MOLLIFY_FUNCS)
SWEEP_T = (0.1, 0.03, 0.01)
SWEEP_CELLS = 4096


def _sweep_bytes(n):
    """cell_average_step(cells) evaluates the maximal function at 9 points
    per cell against every breakpoint: about five arrays of that size."""
    return 5 * SWEEP_CELLS * 9 * (n + 1) * 8


def _check_sample(f, oracles):
    bk, vals = _arrays(f)
    idx = np.arange(8, 1024, 16)
    want = cache(lambda: refs.maximal_exact(oracles, bk, vals, (idx + 0.5) / 1024))

    def check(out):
        x, m = out
        if len(x) != 1024 or np.max(np.abs(x - (np.arange(1024) + 0.5) / 1024)) > 0:
            return "sample points are not the 1024 cell midpoints"
        worst = float(np.max(np.abs(m[idx] - want())))
        return _fail_unless(worst <= 1e-8, f"maximal values off by {worst:.3g}")
    return check


def _check_domination(f, x, ts):
    bk, vals = _arrays(f)

    def slack():
        m = refs.maximal_sampled(bk, vals, x)
        return min(float(np.min(m - np.abs(refs.convolution("box", t, bk, vals, x))))
                   for t in ts)

    ref = cache(slack)

    def check(out):
        if out.n_points != len(x) * len(ts):
            return f"{out.n_points} points checked, expected {len(x) * len(ts)}"
        if not out.holds:
            return f"domination reported violated: min slack {out.min_slack!r}"
        return _fail_unless(abs(out.min_slack - ref()) <= 1e-8,
                            f"min slack {out.min_slack!r}, reference {ref()!r}")
    return check


def _check_sweep(f, kind, maximal_norm):
    """err and conv_norm are L^2 norms of exact cell averages, as the
    library defines them; for the smooth bump the library samples the
    convolution on 2048 cells, hence the looser tolerance."""
    bk, vals = _arrays(f)
    tol = 1e-3 if kind == "smooth_bump" else 1e-9

    def rows():
        out = []
        for t in SWEEP_T:
            conv, favg = refs.cell_averages(kind, t, bk, vals, SWEEP_CELLS)
            out.append((refs.l2_on_grid(conv - favg), refs.l2_on_grid(conv)))
        return out

    ref = cache(rows)

    def check(out):
        if [r.t for r in out.rows] != list(SWEEP_T):
            return "sweep rows do not follow the requested scales"
        for r, (err, cnorm) in zip(out.rows, ref()):
            # the maximal function's cell averages are Simpson sums in the
            # library and 4-point midpoint sums in the reference
            for name, got, want, eps in (("err", r.err, err, tol),
                                         ("conv_norm", r.conv_norm, cnorm, tol),
                                         ("maximal_norm", r.maximal_norm, maximal_norm(), 1e-3)):
                if refs.rel_err(got, want) > eps:
                    return f"t={r.t}: {name} {got!r}, reference {want!r}"
            if refs.rel_err(r.ratio, r.conv_norm / r.maximal_norm) > 1e-12:
                return f"t={r.t}: ratio is not conv_norm / maximal_norm"
        return None
    return check


def build_mollify(seed: int, oracles) -> Workload:
    rng = _seeded(seed, 2)
    spec = SpaceSpec("lorentz_pq", 2.0, 2.0)
    kernels = (box_kernel(), triangle_kernel(), bump_kernel())
    x_dom = (np.arange(511) + 0.5) / 511
    t_dom = np.geomspace(0.2, 0.002, 8)
    plan, skipped = [], []
    for n in MOLLIFY_SIZES:
        fs = [_step(rng, n, 0.05, 2.0, signed=True) for _ in range(MOLLIFY_FUNCS[n])]
        # L^2 norm of the maximal function's cell averages, each from 4 midpoints
        mnorm = cache(lambda f0=fs[0]: refs.l2_on_grid(refs.maximal_sampled(
            f0.breakpoints, f0.values, (np.arange(4 * SWEEP_CELLS) + 0.5) / (4 * SWEEP_CELLS)
        ).reshape(SWEEP_CELLS, 4).mean(axis=1)))
        for k in kernels:
            key = f"n={n} sweep {k.kind}"
            if _sweep_bytes(n) > MEM_BUDGET:
                skipped.append(f"{key}: projected {_sweep_bytes(n) / 1e9:.1f} GB")
                continue
            plan.append(Op(key, lambda f=fs[0], k=k: rlab.convergence_sweep(
                               f, k, SWEEP_T, spec, cells=SWEEP_CELLS),
                           _check_sweep(fs[0], k.kind, mnorm)))
        for i, f in enumerate(fs):
            plan.append(Op(f"n={n} f{i} maximal.sample(1024)",
                           lambda f=f: rlab.maximal(f).sample(1024), _check_sample(f, oracles)))
            plan.append(Op(f"n={n} f{i} domination_check box 511x8",
                           lambda f=f: rlab.domination_check(kernels[0], f, x_dom, t_dom),
                           _check_domination(f, x_dom, t_dom)))
    warmup = [op for op in plan if op.key.startswith(f"n={MOLLIFY_SIZES[0]} ")]
    sizes = {"functions_per_segment_count": MOLLIFY_FUNCS,
             "sweep_t": list(SWEEP_T), "cells": SWEEP_CELLS,
             "sweep_projected_gb": {n: round(_sweep_bytes(n) / 1e9, 2) for n in MOLLIFY_SIZES}}
    return Workload("mollify", plan, warmup, [], deadline=20.0, sizes=sizes, skipped=skipped)


# -- embed -------------------------------------------------------------------

# measure pairs for wholds/cross_weight_check; the first EMBED_SLICES also
# get domination_slice_check.  With these counts p50 falls inside the
# wholds checks and p90 inside the power/power downward checks.
EMBED_PAIRS = 10
EMBED_SLICES = 6
EMBED_CORPUS = 50


def _witness_eps(verdict) -> Optional[float]:
    m = re.search(r"eps=([-+0-9.eE]+)", verdict.witness or "")
    return float(m.group(1)) if m else None


def _check_downward(p, q, w, v, upper):
    wt, vt = _weight_tuple(w), _weight_tuple(v)
    eps = np.linspace(0.0, q - 1.0, 34)[1:-1]
    best = cache(lambda: max(refs.downward_value(p, q, wt, vt, e, upper) for e in eps))

    def check(out):
        if not out.holds:
            return f"verdict holds=False for a convergent pair (value {out.condition_value!r})"
        e = _witness_eps(out)
        if e is not None:
            want = refs.downward_value(p, q, wt, vt, e, upper)
            if refs.rel_err(out.condition_value, want) > 1e-8:
                return f"value {out.condition_value!r} at eps={e!r}, reference {want!r}"
        return _fail_unless(out.condition_value >= best() * (1 - 1e-4),
                            f"value {out.condition_value!r} below the reference grid "
                            f"maximum {best()!r}")
    return check


def _check_sup(ref, what):
    def check(out):
        ok = out.holds and ref() * (1 - 1e-4) <= out.condition_value <= ref() * (1 + 1e-9)
        return _fail_unless(ok, f"{what} {out.condition_value!r} (holds={out.holds}), "
                                f"closed-form sup {ref()!r}")
    return check


def _check_slice_domination(f, p, q, mu, nu):
    bk, vals = _arrays(f)
    mua, nua = _mu_arrays(mu), _mu_arrays(nu)
    c_ref = cache(lambda: refs.density_ratio_sup(mua, nua))

    def check(out):
        if refs.rel_err(out.constant, c_ref()) > 1e-12:
            return f"constant {out.constant!r}, reference {c_ref()!r}"
        if not out.holds:
            return f"slice domination reported violated: slack {out.min_slack!r}"
        e = out.worst_eps
        s_mu = refs.t_weighted_slice(bk, vals, p, q, e, mua)[0]
        s_nu = refs.t_weighted_slice(bk, vals, p, q, e, nua)[0]
        scaled = c_ref() ** (1.0 / (q - e)) * s_mu
        return _fail_unless(abs(out.min_slack - (scaled - s_nu)) <= 1e-9 * max(scaled, s_nu),
                            f"slack {out.min_slack!r} at eps={e!r}, reference {scaled - s_nu!r}")
    return check


def _chi_bracket(oracles, a, p, q):
    fn = oracles.chi_grand_lorentz_slices(a, p, q)
    lower = oracles.uniform_grid_eps_sup(q - 1.0, fn)[0]
    _, upper = refs.sup_bracket(fn, q - 1.0, (q - 1.0) * a ** (q / p))
    return lower, max(lower, upper)


def _check_probe(oracles, p, q, r, s):
    def check(out):
        if [row.a for row in out.rows] != list(PROBE_A):
            return "probe rows do not follow the requested sets"
        for row in out.rows:
            src, tgt = _chi_bracket(oracles, row.a, p, q), _chi_bracket(oracles, row.a, r, s)
            if not (refs.in_bracket(row.source_norm, src)
                    and refs.in_bracket(row.target_norm, tgt)):
                return (f"a={row.a}: norms ({row.source_norm!r}, {row.target_norm!r}), "
                        f"closed-form brackets {src!r}, {tgt!r}")
            if refs.rel_err(row.ratio, row.target_norm / row.source_norm) > 1e-12:
                return f"a={row.a}: ratio is not target / source"
        return None
    return check


def _witness_fn(verdict):
    bk, vals = None, None
    text = verdict.witness or ""
    if ": " in text:
        obj = json.loads(text.split(": ", 1)[1])
        bk, vals = np.array(obj["breakpoints"]), np.array(obj["values"])
    return bk, vals


def _check_empirical_grand(source, target, seed):
    def check(out):
        bk, vals = _witness_fn(out)
        if bk is None or not out.holds or out.seed != seed:
            return f"no witness, holds={out.holds}, seed={out.seed}"
        s = refs.grand_bracket(*refs.grand_terms(source.kind, bk, vals, source.p, source.q))
        t = refs.grand_bracket(*refs.grand_terms(target.kind, bk, vals, target.p, target.q))
        band = (t[0] / s[1], t[1] / s[0])
        return _fail_unless(refs.in_bracket(out.condition_value, band),
                            f"constant {out.condition_value!r}, witness ratio in {band!r}")
    return check


def _check_empirical_star(p, q, seed):
    def check(out):
        bk, vals = _witness_fn(out)
        if bk is None or not out.holds or out.seed != seed:
            return f"no witness, holds={out.holds}, seed={out.seed}"
        c = out.condition_value
        if not (p - 1.0) / p * (1 - 1e-9) <= c <= 1 + 1e-9:
            return f"constant {c!r} outside the Hardy band [{(p - 1.0) / p}, 1]"
        want = refs.lorentz(bk, vals, p, q) / refs.lorentz_star(bk, vals, p, q)
        return _fail_unless(refs.rel_err(c, want) <= 1e-8,
                            f"constant {c!r}, witness ratio {want!r}")
    return check


def build_embed(seed: int, oracles) -> Workload:
    rng = _seeded(seed, 3)
    w_pow, v_pow = PowerWeight(0.5), PowerWeight(1.0)
    # fixed step weights: the quadrature work of downward_check swings 3x
    # with the knot positions, which would drown any change in the seeds
    w_step = MeasureDensity(make_step([0.0, 0.4, 1.0], [1.5, 0.7]))
    v_step = MeasureDensity(make_step([0.0, 0.2, 0.7, 1.0], [0.9, 1.3, 0.6]))
    plan = []
    for label, w, v, up in (("t^0.5/t", w_pow, v_pow, 1.0),
                            ("t^0.25/t^0.5", PowerWeight(0.25), PowerWeight(0.5), 1.0),
                            ("t/t^2", PowerWeight(1.0), PowerWeight(2.0), 1.0),
                            ("step/step", w_step, v_step, 1.0),
                            ("step/step upper=2", w_step, v_step, 2.0)):
        plan.append(Op(f"downward_check(3,1.5) {label} grid={GRID}",
                       lambda w=w, v=v, up=up: rlab.downward_check(3.0, 1.5, w, v, upper=up,
                                                                   grid_size=GRID),
                       _check_downward(3.0, 1.5, w, v, up)))
    for i in range(EMBED_PAIRS):
        mu, nu = random_measure(rng), random_measure(rng)
        f = random_step_function(rng)
        w1 = refs.weight_mass(_weight_tuple(mu))
        v1 = refs.weight_mass(_weight_tuple(nu))
        plan.append(Op(f"m{i} wholds_check(2,3)",
                       lambda mu=mu: rlab.wholds_check(2.0, 3.0, mu),
                       _check_sup(cache(lambda w1=w1: refs.wholds_sup(2.0, 3.0, w1)),
                                  "condition")))
        plan.append(Op(f"m{i} cross_weight_check(2,3)",
                       lambda mu=mu, nu=nu: rlab.cross_weight_check(2.0, 3.0, mu, nu),
                       _check_sup(cache(lambda w1=w1, v1=v1: refs.cross_weight_sup(
                           2.0, 3.0, w1, v1)), "condition")))
        if i < EMBED_SLICES:
            plan.append(Op(f"m{i} domination_slice_check(2,3)",
                           lambda f=f, mu=mu, nu=nu: rlab.domination_slice_check(
                               f, 2.0, 3.0, mu, nu),
                           _check_slice_domination(f, 2.0, 3.0, mu, nu)))
    plan.append(Op("shrinking_probe(2,2,4,4)",
                   lambda: rlab.shrinking_probe(2.0, 2.0, 4.0, 4.0, PROBE_A),
                   _check_probe(oracles, 2.0, 2.0, 4.0, 4.0)))
    corpus_seed = int(rng.integers(2**31))
    src, tgt = SpaceSpec("grand_lorentz_pq", 3.0, 3.0), SpaceSpec("grand_lorentz_pq", 2.0, 3.0)
    plan.append(Op(f"empirical_constant grand(3,3)->grand(2,3) x{EMBED_CORPUS}",
                   lambda: rlab.empirical_constant(src, tgt, EMBED_CORPUS, corpus_seed),
                   _check_empirical_grand(src, tgt, corpus_seed)))
    star, plain = SpaceSpec("lorentz_pq_star", 2.0, 3.0), SpaceSpec("lorentz_pq", 2.0, 3.0)
    plan.append(Op(f"empirical_constant lorentz_pq_star->lorentz_pq x{EMBED_CORPUS}",
                   lambda: rlab.empirical_constant(star, plain, EMBED_CORPUS, corpus_seed),
                   _check_empirical_star(2.0, 3.0, corpus_seed)))
    warmup = [op for op in plan if not op.key.startswith("downward")]
    warmup.append(Op("downward warm-up", lambda: rlab.downward_check(
        3.0, 1.5, w_pow, v_pow, grid_size=64), lambda out: None))
    probes = [Op("downward_check(4,2,t^-0.5,1) divergent",
                 lambda: rlab.downward_check(4.0, 2.0, PowerWeight(-0.5), PowerWeight(0.0),
                                             grid_size=GRID),
                 lambda out: _fail_unless(not out.holds,
                                          f"holds=True for a divergent pair "
                                          f"(value {out.condition_value!r})"))]
    sizes = {"eps_grid": GRID, "measure_pairs": EMBED_PAIRS, "slice_checks": EMBED_SLICES,
             "corpus": EMBED_CORPUS, "probe_a": list(PROBE_A),
             "downward_knot_intervals": [1, 1, 1, 4, 5]}
    return Workload("embed", plan, warmup, probes, deadline=4.0, sizes=sizes)


# -- cli ---------------------------------------------------------------------

CLI_CODE = "import sys; from rlab.cli import run; sys.exit(run(sys.argv[1:]))"
# traced children load the tracer before rlab so its import stays out of import_s
CLI_TRACED_CODE = """\
import time
t_enter = time.monotonic()
import json, os, sys
sys.path.insert(0, os.environ["PERFBENCH_DIR"])
import tracer
t0 = time.monotonic()
import rlab.cli
t1 = time.monotonic()
tr = tracer.Tracer()
tr.install()
tr.scope = os.environ["PERFBENCH_SCOPE"]
status = 1
try:
    status = rlab.cli.run(sys.argv[1:])
finally:
    t2 = time.monotonic()
    tr.uninstall()
    snap = tr.snapshot()
    snap["cli"] = {"interp_s": t_enter - float(os.environ["PERFBENCH_SPAWN"]),
                   "import_s": t1 - t0, "run_s": t2 - t1}
    sys.stderr.write("\\nPERFBENCH_TRACE " + json.dumps(snap) + "\\n")
sys.exit(status)
"""


@dataclass
class CliOutcome:
    returncode: int
    stdout: str
    stderr: str
    trace: Optional[dict] = None


class CliRunner:
    """Runs one CLI invocation per op in a fresh interpreter."""

    def __init__(self, root, bench_dir, env, deadline):
        self.root, self.bench_dir, self.deadline = root, bench_dir, deadline
        self.env = env
        self.traced = False

    def __call__(self, argv, scope=""):
        env = self.env
        code = CLI_CODE
        if self.traced:
            code = CLI_TRACED_CODE
            env = dict(env, PERFBENCH_DIR=self.bench_dir, PERFBENCH_SCOPE=scope,
                       PERFBENCH_SPAWN=repr(time.monotonic()))
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=self.root, env=env,
                              capture_output=True, text=True, timeout=self.deadline)
        out = CliOutcome(proc.returncode, proc.stdout, proc.stderr)
        if self.traced:
            head, sep, tail = proc.stderr.rpartition("PERFBENCH_TRACE ")
            if sep:
                out.stderr, out.trace = head, json.loads(tail)
        return out


def _csv_numbers(text):
    """Every value of a CSV body, skipping # comments and the header row."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [float(x) for line in rows[1:] for x in line.split(",")]


def _json_arrays(*keys):
    return lambda text: [x for k in keys for x in json.loads(text)[k]]


def _verdict_json(text):
    obj = json.loads(text)
    return [float(obj["condition_value"]), float(obj["holds"])]


def _cli_check(parse, library, extra=None):
    """The op passes when the CLI exits 0, prints no traceback, and prints
    the numbers the in-process library gives for the same inputs."""
    want = cache(lambda: np.asarray(library(), float))

    def check(out):
        if out.returncode != 0 or "Traceback" in out.stderr:
            return f"exit {out.returncode}: {out.stderr.strip()[-200:]}"
        try:
            got = np.asarray(parse(out.stdout), float)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable stdout: {exc}"
        if got.shape != want().shape:
            return f"stdout holds {got.size} numbers, the library gives {want().size}"
        worst = float(np.max(np.abs(got - want()) / np.maximum(np.abs(want()), 1e-300),
                             initial=0.0))
        if worst > 1e-12:
            return f"stdout differs from the library by {worst:.3g} relative"
        return None if extra is None else extra()
    return check


def _verdict_numbers(v):
    return [v.condition_value, float(v.holds)]


def build_cli(seed: int, oracles, root, bench_dir, work_dir, env) -> Workload:
    rng = _seeded(seed, 4)
    f100, f30 = _step(rng, 100), _step(rng, 30, 0.05, 2.0, signed=True)
    f1e4 = _step(rng, 10000)
    mu = random_measure(rng)
    big_path = os.path.join(work_dir, "f1e4.json")
    with open(big_path, "w", encoding="utf-8") as fh:
        json.dump(step_to_json(f1e4), fh)
    fj = json.dumps(step_to_json(f100))
    grand = {"kind": "grand_lorentz_pq", "p": 2, "q": 3}
    gspec = rlab.spacespec_from_json(grand)
    pw = lambda a: json.dumps({"power_weight": {"alpha": a}})
    runner = CliRunner(root, bench_dir, env, deadline=10.0)
    bk, vals = _arrays(f100)
    bracket = cache(lambda: refs.grand_bracket(*refs.grand_terms(
        "grand_lorentz_pq", bk, vals, 2.0, 3.0)))

    def probe_rows():
        rep = rlab.shrinking_probe(2.0, 2.0, 4.0, 4.0, PROBE_A)
        return [x for r in rep.rows for x in (r.a, r.source_norm, r.target_norm, r.ratio)]

    def sweep_rows():
        res = rlab.convergence_sweep(f30, box_kernel(), SWEEP_T,
                                     SpaceSpec("lorentz_pq", 2.0, 2.0), cells=1024)
        return [x for r in res.rows for x in (r.t, r.err, r.conv_norm, r.maximal_norm, r.ratio)]

    def profile_rows():
        res = rlab.eps_profile(f100, gspec, GRID)
        return np.column_stack((res.eps, res.slice_values)).ravel()

    def fstar_numbers():
        fs = rlab.rearrangement(f1e4)
        return np.concatenate((fs.breakpoints, fs.values))

    first_float = lambda text: [float(text.split()[0])]
    ops = [
        ("norm grand_lorentz_pq(2,3) n=100", ["norm", "--spec", json.dumps(grand), "--fn", fj],
         first_float, lambda: [rlab.space_norm(f100, gspec).value],
         lambda: _fail_unless(refs.in_bracket(rlab.space_norm(f100, gspec).value, bracket()),
                              f"library value outside the reference bracket {bracket()!r}")),
        ("rearrange n=10000 file", ["rearrange", "--fn", big_path],
         _json_arrays("breakpoints", "values"), fstar_numbers, None),
        ("maximal n=100 --samples 1024", ["maximal", "--fn", fj, "--samples", "1024"],
         _json_arrays("x", "values"), lambda: np.concatenate(rlab.maximal(f100).sample(1024)),
         None),
        ("embed-check wholds(2,3)",
         ["embed-check", "--check", "wholds", "--p", "2", "--q", "3", "--weight",
          json.dumps(rlab.measure_to_json(mu))],
         _verdict_json, lambda: _verdict_numbers(rlab.wholds_check(2.0, 3.0, mu)), None),
        ("embed-check downward(3,1.5) power/power --grid 512",
         ["embed-check", "--check", "downward", "--p", "3", "--q", "1.5", "--weight", pw(0.5),
          "--target-weight", pw(1.0), "--grid", "512"],
         _verdict_json, lambda: _verdict_numbers(rlab.downward_check(
             3.0, 1.5, PowerWeight(0.5), PowerWeight(1.0), grid_size=512)), None),
        ("embed-probe(2,2,4,4)",
         ["embed-probe", "--p", "2", "--q", "2", "--r", "4", "--s", "4", "--a-list",
          ",".join(f"{a:g}" for a in PROBE_A)],
         _csv_numbers, probe_rows, None),
        ("mollify-sweep box n=30 --cells 1024",
         ["mollify-sweep", "--fn", json.dumps(step_to_json(f30)), "--kernel",
          json.dumps({"kind": "box"}), "--t-list", ",".join(map(str, SWEEP_T)), "--spec",
          json.dumps({"kind": "lorentz_pq", "p": 2, "q": 2}), "--cells", "1024"],
         _csv_numbers, sweep_rows, None),
        ("eps-profile grand_lorentz_pq(2,3) n=100",
         ["eps-profile", "--fn", fj, "--spec", json.dumps(grand)], _csv_numbers, profile_rows,
         None),
    ]
    plan = [Op(key, lambda argv=argv, key=key: runner(argv, key), _cli_check(*rest))
            for key, argv, *rest in ops]

    star_ref = refs.lorentz_star(bk, vals, 2.0, 400.0)

    def star_check(out):
        if out.returncode == 0:
            got = out.stdout.split()
            return _fail_unless(bool(got) and refs.rel_err(float(got[0]), star_ref) <= 1e-8,
                                f"printed {out.stdout.strip()!r}, reference {star_ref!r}")
        if out.returncode in (1, 2) and out.stderr.strip() and "Traceback" not in out.stderr:
            return None
        return f"exit {out.returncode}: {out.stderr.strip().splitlines()[-1:]}"

    probes = [Op("norm lorentz_pq_star(2,400) n=100",
                 lambda: runner(["norm", "--spec", json.dumps(
                     {"kind": "lorentz_pq_star", "p": 2, "q": 400}), "--fn", fj]),
                 star_check)]
    sizes = {"segments": {"norm": 100, "rearrange": 10000, "maximal": 100,
                          "mollify-sweep": 30, "eps-profile": 100},
             "eps_grid": GRID, "downward_grid": 512, "sweep_cells": 1024}
    return Workload("cli", plan, [plan[0]], probes, deadline=runner.deadline, sizes=sizes,
                    runner=runner)


BUILD = {"norms": build_norms, "mollify": build_mollify, "embed": build_embed,
            "cli": build_cli}
