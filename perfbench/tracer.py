"""Per-layer spans around rlab's public functions, recorded from outside.

A Tracer wraps every public function of each rlab module (the names in
the module's ``__all__``) and every public method of the public classes
defined there.  It rebinds the wrapper wherever another rlab module
imported the name, so ``rlab.norms.rearrangement`` and
``rlab.embeddings.integrate_adaptive`` are traced too.  Each call opens a
span whose parent is the innermost open span; when it closes, its duration
minus the time of its child spans is added to its layer's self time.

Quadrature spans are opaque: calls made while an ``integrate_adaptive``
span is open (the integrand evaluations) open no spans of their own and
count as quadrature self time.

Besides time, the wrappers count the work each layer does, read off the
arguments and results at the layer boundary: quadrature evaluations and
intervals, rearranged segments, maximal-function and convolution pairs,
and eps-slice terms.  The slice terms are counted at the one private work
site, ``rlab.norms._slice_closure``; if a later version drops it those
counters read 0 and ``slice_hook`` is False.

The module imports only the standard library, so a CLI child process can
load it before rlab and keep its own import time out of rlab's.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

LAYERS = ("stepfn", "rearrange", "weights", "quadrature", "norms",
          "embeddings", "analysis", "corpus", "cli")

# counters that add up over calls, and counters that keep their largest value
SUM_COUNTERS = ("quadrature.evals", "quadrature.intervals", "quadrature.errors",
                "norms.eps_points", "norms.slice_terms", "norms.endpoint_hits",
                "rearrange.segments", "analysis.maximal_pairs", "analysis.conv_pairs")
MAX_COUNTERS = ("norms.slice_bytes_computed", "analysis.maximal_bytes_computed")


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``; read the
    aggregate with ``snapshot()``.  Not thread-safe: rlab is called from
    one thread here."""

    def __init__(self):
        self._stack = []          # one frame per open span
        self._opaque = 0
        self._undo = []
        self.slice_hook = False
        self.scope = ""           # the op being run; keys the per-function times
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.functions = defaultdict(lambda: [0, 0.0])   # (scope, name) -> [calls, inclusive s]

    # -- spans ---------------------------------------------------------

    def _wrap(self, layer, name, fn, after=None):
        tracer = self
        opaque = layer == "quadrature"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [0.0]         # seconds spent in child spans
            stack.append(frame)
            if opaque:
                tracer._opaque += 1
            start = time.perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                dur = time.perf_counter() - start
                if opaque:
                    tracer._opaque -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                tracer.calls[layer] += 1
                tracer.self_s[layer] += dur - frame[0]
                rec = tracer.functions[(tracer.scope, name)]
                rec[0] += 1
                rec[1] += dur
                if not ok and opaque:
                    tracer.counts["quadrature.errors"] += 1
            if after is not None:
                after(tracer, args, out)
            return out

        return traced

    def _count(self, key, value):
        self.counts[key] += value

    def _count_max(self, key, value):
        self.counts[key] = max(self.counts[key], value)

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap rlab's public functions and methods in place."""
        modules = {layer: importlib.import_module(f"rlab.{layer}") for layer in LAYERS}
        package = sys.modules["rlab"]
        replace = {}
        for layer, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = (obj, self._wrap(layer, name, obj, _AFTER.get(name)))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
        for mod in (package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))
        self._hook_slices(modules["norms"])

    def _wrap_methods(self, layer, cls):
        for attr, val in list(vars(cls).items()):
            if not isinstance(val, types.FunctionType):
                continue
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{cls.__name__}.{attr}"
            setattr(cls, attr, self._wrap(layer, name, val, _AFTER.get(name)))
            self._undo.append((cls, attr, val))

    def _hook_slices(self, norms):
        original = getattr(norms, "_slice_closure", None)
        if not isinstance(original, types.FunctionType):
            return
        tracer = self

        def closure(values, base, top):
            fn = original(values, base, top)
            terms_per_eps = int(((values > 0) & (base > 0)).sum())

            def counted(eps):
                n = len(eps) if hasattr(eps, "__len__") else 1
                tracer._count("norms.eps_points", n)
                tracer._count("norms.slice_terms", n * terms_per_eps)
                tracer._count_max("norms.slice_bytes_computed", 8 * n * terms_per_eps)
                return fn(eps)

            return counted

        norms._slice_closure = closure
        self._undo.append((norms, "_slice_closure", original))
        self.slice_hook = True

    def uninstall(self):
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "functions": {f"{scope}|{name}": list(v)
                          for (scope, name), v in self.functions.items()},
            "slice_hook": self.slice_hook,
        }


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot into another (used for CLI child processes)."""
    for key in ("calls", "self_s"):
        for layer, v in part.get(key, {}).items():
            total.setdefault(key, {})[layer] = total.get(key, {}).get(layer, 0) + v
    counts = total.setdefault("counts", {})
    for key, v in part.get("counts", {}).items():
        counts[key] = max(counts.get(key, 0), v) if key in MAX_COUNTERS else counts.get(key, 0) + v
    total["slice_hook"] = total.get("slice_hook", False) or part.get("slice_hook", False)
    funcs = total.setdefault("functions", {})
    for name, (n, s) in part.get("functions", {}).items():
        cur = funcs.setdefault(name, [0, 0.0])
        cur[0] += n
        cur[1] += s
    return total


# -- counters read at layer boundaries -----------------------------------


def _after_quadrature(tracer, args, out):
    tracer._count("quadrature.evals", getattr(out, "n_evals", 0))
    tracer._count("quadrature.intervals", getattr(out, "n_intervals", 0))


def _after_rearrangement(tracer, args, out):
    tracer._count("rearrange.segments", len(out.values))


def _after_maximal_call(tracer, args, out):
    mf, x = args[0], args[1]
    pairs = _size(x) * len(mf.source.breakpoints)
    tracer._count("analysis.maximal_pairs", pairs)
    tracer._count_max("analysis.maximal_bytes_computed", 8 * pairs)


def _after_convolution(tracer, args, out):
    f, x = args[1], args[2]
    tracer._count("analysis.conv_pairs", _size(x) * len(f.breakpoints))


def _after_norm(tracer, args, out):
    if getattr(out, "endpoint_limit", None) is not None:
        tracer._count("norms.endpoint_hits", 1)


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        n = 1
        for d in shape:
            n *= d
        return n
    return len(x) if hasattr(x, "__len__") else 1


_AFTER = {
    "integrate_adaptive": _after_quadrature,
    "rearrangement": _after_rearrangement,
    "MaximalFunction.__call__": _after_maximal_call,
    "convolution_values": _after_convolution,
    # the three producers of eps-sup results; space_norm and eps_profile
    # pass the same object on, so they are not counted again
    **{name: _after_norm for name in (
        "grand_lebesgue_norm", "grand_lorentz_pq_norm", "grand_lambda_norm")},
}
