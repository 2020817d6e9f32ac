"""Batch command-line front-end.

Verbs: norm, rearrange, maximal, embed-check, embed-probe, mollify-sweep,
eps-profile.  Inputs are JSON (inline or file paths); outputs are JSON or
CSV with '.' decimals and 17-significant-digit floats, deterministic for a
fixed command line and seed.  Exit codes: 0 success, 1 validation error,
2 computation error (e.g. quadrature non-convergence, overflow, or a
request for more memory than the machine has).

Only eps-profile (whose CSV header records the size) reads an eps grid,
sized by --grid (default 2048, at least 8).  embed-check accepts and
validates --grid but reads no grid: every other answer is a closed form or
comes from a certified branch-and-bound (embed-check downward prints its
bracket as upper and evals).
"""
from __future__ import annotations

import argparse
import io
import json
import math
import sys

from .analysis import convergence_sweep, kernel_from_json, maximal
from .embeddings import (cross_weight_check, domination_constant,
                         downward_check, empirical_constant, mutual_ac,
                         shrinking_probe, wholds_check, EmbeddingVerdict)
from .norms import (DEFAULT_GRID, EpsSupResult, eps_profile, space_norm,
                    spacespec_from_json)
from .quadrature import QuadratureError
from .rearrange import rearrangement
from .stepfn import LEBESGUE, measure_from_json, step_from_json
from .weights import weight_from_json

__all__ = ["run", "entry", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the exit-code contract
    reserves 2 for computation errors, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_json_arg(text: str):
    """Inline JSON if the argument looks like JSON, else a file path."""
    s = text.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _grid_size(text: str) -> int:
    try:
        size = int(text)
    except ValueError:
        size = 0
    if size < 8:
        raise argparse.ArgumentTypeError(f"grid size must be an integer of at least 8, got {text!r}")
    return size


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _measure_arg(args):
    if getattr(args, "measure", None):
        return measure_from_json(_load_json_arg(args.measure))
    return LEBESGUE


# -- verb handlers -----------------------------------------------------


def _cmd_norm(args) -> int:
    spec = spacespec_from_json(_load_json_arg(args.spec))
    f = step_from_json(_load_json_arg(args.fn))
    out = space_norm(f, spec)
    payload = out.to_json() if isinstance(out, EpsSupResult) else {"value": float(out)}
    sys.stdout.write(_fmt(payload["value"]) + "\n")
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return 0


def _cmd_rearrange(args) -> int:
    f = step_from_json(_load_json_arg(args.fn))
    fstar = rearrangement(f, _measure_arg(args))
    payload = {"breakpoints": fstar.breakpoints.tolist(),
               "values": fstar.values.tolist()}
    _emit(args, json.dumps(payload) + "\n")
    return 0


def _cmd_maximal(args) -> int:
    f = step_from_json(_load_json_arg(args.fn))
    x, vals = maximal(f).sample(args.samples)
    payload = {"x": x.tolist(), "values": vals.tolist()}
    _emit(args, json.dumps(payload) + "\n")
    return 0


def _cmd_embed_check(args) -> int:
    kind = args.check
    if kind in ("wholds", "cross-weight", "downward"):
        if args.p is None or args.q is None:
            raise ValueError(f"--p and --q are required for {kind}")
        if args.weight is None:
            raise ValueError(f"--weight is required for {kind}")
        w = weight_from_json(_load_json_arg(args.weight))
        if kind == "wholds":
            verdict = wholds_check(args.p, args.q, w)
        else:
            if args.target_weight is None:
                raise ValueError(f"--target-weight is required for {kind}")
            v = weight_from_json(_load_json_arg(args.target_weight))
            if kind == "cross-weight":
                verdict = cross_weight_check(args.p, args.q, w, v)
            else:
                verdict = downward_check(args.p, args.q, w, v, upper=args.upper,
                                         grid_size=args.grid)
    elif kind in ("domination", "mutual-ac"):
        if args.mu is None or args.nu is None:
            raise ValueError(f"--mu and --nu are required for {kind}")
        mu = measure_from_json(_load_json_arg(args.mu))
        nu = measure_from_json(_load_json_arg(args.nu))
        if kind == "domination":
            c = domination_constant(mu, nu)
            verdict = EmbeddingVerdict(condition_value=c,
                                       holds=math.isfinite(c))
        else:
            both = max(domination_constant(mu, nu),
                       domination_constant(nu, mu))
            verdict = EmbeddingVerdict(condition_value=both,
                                       holds=mutual_ac(mu, nu))
    else:  # empirical
        if args.source is None or args.target is None:
            raise ValueError("--source and --target are required for empirical")
        source = spacespec_from_json(_load_json_arg(args.source))
        target = spacespec_from_json(_load_json_arg(args.target))
        verdict = empirical_constant(source, target, args.corpus_size, args.seed)
    _emit(args, json.dumps(verdict.to_json()) + "\n")
    return 0


def _parse_float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated float list, got {text!r}")


def _cmd_embed_probe(args) -> int:
    a_list = _parse_float_list(args.a_list)
    report = shrinking_probe(args.p, args.q, args.r, args.s, a_list)
    buf = io.StringIO()
    note = f"p={_fmt(args.p)} q={_fmt(args.q)} r={_fmt(args.r)} s={_fmt(args.s)}"
    report.to_csv(buf, header_note=note)
    _emit(args, buf.getvalue())
    return 0


def _cmd_mollify_sweep(args) -> int:
    f = step_from_json(_load_json_arg(args.fn))
    kernel = kernel_from_json(_load_json_arg(args.kernel))
    spec = spacespec_from_json(_load_json_arg(args.spec))
    t_list = _parse_float_list(args.t_list)
    result = convergence_sweep(f, kernel, t_list, spec, cells=args.cells)
    buf = io.StringIO()
    result.to_csv(buf, header_note=f"kernel={kernel.kind}")
    _emit(args, buf.getvalue())
    return 0


def _cmd_eps_profile(args) -> int:
    f = step_from_json(_load_json_arg(args.fn))
    spec = spacespec_from_json(_load_json_arg(args.spec))
    res = eps_profile(f, spec, args.grid)
    lines = [f"# grid={args.grid} value={_fmt(res.value)} upper={_fmt(res.upper)} "
             f"eps_star={'' if res.eps_star is None else _fmt(res.eps_star)} "
             f"endpoint={res.endpoint_limit or ''}"]
    lines.append("eps,value")
    for e, v in zip(res.eps, res.slice_values):
        lines.append(f"{e:.17g},{v:.17g}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


# -- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="rlab", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, grid=None, **kwargs):  # grid: the help of --grid, for verbs that read one
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=fn)
        if grid:
            p.add_argument("--grid", type=_grid_size, default=DEFAULT_GRID, help=grid)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        return p

    p = add("norm", _cmd_norm, help="evaluate a norm; prints the value")
    p.add_argument("--spec", required=True, help="SpaceSpec JSON (inline or path)")
    p.add_argument("--fn", required=True, help="StepFunction JSON (inline or path)")

    p = add("rearrange", _cmd_rearrange,
            help="decreasing rearrangement as JSON")
    p.add_argument("--fn", required=True)
    p.add_argument("--measure", default=None,
                   help="measure JSON (default Lebesgue)")

    p = add("maximal", _cmd_maximal,
            help="centered maximal function sampled on a midpoint grid")
    p.add_argument("--fn", required=True)
    p.add_argument("--samples", type=int, default=1024)

    p = add("embed-check", _cmd_embed_check, help="inclusion condition verdict",
            grid="accepted (at least 8) and not read: downward's sup is certified, not sampled")
    p.add_argument("--check", required=True,
                   choices=["wholds", "cross-weight", "downward",
                            "domination", "mutual-ac", "empirical"])
    p.add_argument("--p", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--weight", default=None, help="weight JSON")
    p.add_argument("--target-weight", default=None, help="second weight JSON")
    p.add_argument("--upper", type=float, default=1.0,
                   help="downward: integrate to this point, extending weights")
    p.add_argument("--mu", default=None, help="measure JSON")
    p.add_argument("--nu", default=None, help="measure JSON")
    p.add_argument("--source", default=None, help="SpaceSpec JSON")
    p.add_argument("--target", default=None, help="SpaceSpec JSON")
    p.add_argument("--corpus-size", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = add("embed-probe", _cmd_embed_probe,
            help="shrinking-indicator norm ratios as CSV")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--a-list", required=True, help="comma-separated, e.g. 1e-1,1e-2")

    p = add("mollify-sweep", _cmd_mollify_sweep,
            help="approximate-identity error curve as CSV")
    p.add_argument("--fn", required=True)
    p.add_argument("--kernel", required=True, help="kernel JSON")
    p.add_argument("--t-list", required=True, help="positive, strictly decreasing")
    p.add_argument("--spec", required=True, help="SpaceSpec JSON")
    p.add_argument("--cells", type=int, default=4096)

    p = add("eps-profile", _cmd_eps_profile,
            help="grand-norm eps profile as CSV",
            grid="eps-grid size (default 2048)")
    p.add_argument("--fn", required=True)
    p.add_argument("--spec", required=True, help="grand-kind SpaceSpec JSON")

    return top


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except QuadratureError as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 2
    except (ArithmeticError, MemoryError) as exc:
        sys.stderr.write(f"computation error: {type(exc).__name__}: {exc}\n")
        return 2
    except (ValueError, OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entry()
