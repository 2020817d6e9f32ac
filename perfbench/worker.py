"""One workload in one fresh process: set-up, timed phase, checks.

Started by run.py, never by hand.  Prints READY once set-up is done (run.py
times process start -> READY as setup_s), then in run mode one RESULT line
of JSON.  Set-up is: interpreter start, ``import rlab``, input generation
and a warm-up pass over the workload's smallest inputs.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import signal
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import numpy as np  # noqa: E402

import refs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100          # so that at least ten samples lie beyond the p90


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an op that overran its deadline.  A
    BaseException, so that no handler inside rlab swallows it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def call(op, deadline):
    """(output, error) of one op under the per-op deadline.  The timer is
    cleared inside the handlers' reach, so an alarm that lands just as the
    op returns still counts as an overrun rather than escaping."""
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            return op.run(), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline:
        return None, f"overran the {deadline:g} s deadline"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, f"raised {type(exc).__name__}: {exc}"


def timed_phase(wl, seconds, min_ops, tr=None):
    """Whole passes over the plan until `seconds` have elapsed and at least
    `min_ops` ops ran.  Returns the latencies, the (op index, output,
    error) records, the pass count and the elapsed seconds, less the time
    spent keeping outputs for the checks."""
    lat, records = [], []
    passes = 0
    # one object per distinct output, so that memory held for the checks
    # does not grow with the number of passes (peak_rss_mb would see it)
    distinct = {}
    keeping = 0.0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(wl.plan):
            if tr is not None:
                tr.scope = op.key
            t0 = time.perf_counter()
            out, err = call(op, wl.deadline)
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            if err is None:
                out = distinct.setdefault((i, pickle.dumps(out)), out)
            records.append((i, out, err))
            keeping += time.perf_counter() - t1
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(lat) >= min_ops:
            return lat, records, passes, elapsed - keeping


def verdict(op, out):
    """None when the op's output passes its check, else the reason."""
    try:
        return op.check(out)
    except Exception as exc:  # a check that cannot read the output fails the op
        return f"check raised {type(exc).__name__}: {exc}"


def check_records(wl, records):
    """Failure reasons by op key.  timed_phase keeps one object per distinct
    output, so repeats of an output share its verdict."""
    verdicts = {}
    failures = {}
    for i, out, err in records:
        op = wl.plan[i]
        if err is None:
            key = (i, id(out))
            if key not in verdicts:
                verdicts[key] = verdict(op, out)
            err = verdicts[key]
        if err is not None:
            failures.setdefault(op.key, [0, err])[0] += 1
    return failures


def run_probes(wl):
    out = []
    for op in wl.probes:
        t0 = time.perf_counter()
        res, err = call(op, wl.deadline)
        if err is None:
            err = verdict(op, res)
        out.append({"key": op.key, "ok": err is None, "reason": err,
                    "seconds": time.perf_counter() - t0})
    return out


def peak_rss_mb(wl):
    """Peak RSS of the process that ran the ops, from getrusage (Linux
    reports KiB): this worker, or for cli its waited-for children, the
    CLI subprocesses."""
    who = resource.RUSAGE_CHILDREN if wl.runner is not None else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    pins = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "memory_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "blas_threads": pins,
        "seed": seed,
    }


def traced_phase(wl, seconds):
    """Untraced and traced passes alternate until `seconds` have elapsed, so
    that a change in the machine's speed during the run falls on both; the
    per-layer figures are per traced pass."""
    tr = tracer.Tracer()
    lat_u, records, traced_out = [], [], []
    elapsed, passes = [0.0, 0.0], [0, 0]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or passes[1] == 0:
        traced = passes[1] < passes[0]
        if wl.runner is not None:
            wl.runner.traced = traced
        elif traced:
            tr.install()
        try:
            lat, rec, _, el = timed_phase(wl, 0, 0, tr if traced else None)
        finally:
            tr.uninstall()
            if wl.runner is not None:
                wl.runner.traced = False
        elapsed[traced] += el
        passes[traced] += 1
        records += rec
        if traced:
            traced_out += [out for _, out, _ in rec if out is not None]
        else:
            lat_u += [(wl.plan[i].key, t) for (i, _, _), t in zip(rec, lat)]
    snap, cli = tr.snapshot(), None
    if wl.runner is not None:
        snap = {}
        cli = {"calls": 0, "interp_s": 0.0, "import_s": 0.0, "run_s": 0.0, "out_bytes": 0}
        for out in traced_out:
            if out.trace is not None:
                tracer.merge(snap, out.trace)
                cli["calls"] += 1
                for k in ("interp_s", "import_s", "run_s"):
                    cli[k] += out.trace["cli"][k]
                cli["out_bytes"] += len(out.stdout.encode())
    per_op = {}
    for key, t in lat_u:
        per_op.setdefault(key, []).append(t)
    return {
        "records": records,
        "snapshot": snap,
        "cli": cli,
        "passes": passes[1],
        "overhead_ratio": (elapsed[1] / passes[1]) / (elapsed[0] / passes[0]),
        "op_median_s": {k: float(np.median(v)) for k, v in per_op.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILD))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work-dir", required=True, help="directory for scratch files")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    oracles = refs.load_oracles()
    build = workloads.BUILD[args.workload]
    if args.workload == "cli":
        wl = build(args.seed, oracles, ROOT, BENCH_DIR, args.work_dir, dict(os.environ))
    else:
        wl = build(args.seed, oracles)
    for op in wl.warmup:
        call(op, wl.deadline)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"workload": wl.name, "env": environment(args.seed), "sizes": wl.sizes,
              "skipped": wl.skipped, "ops_per_pass": len(wl.plan)}
    if args.trace:
        traced = traced_phase(wl, args.seconds)
        records = traced.pop("records")
        result["trace"] = traced
    else:
        lat, records, passes, elapsed = timed_phase(wl, args.seconds, MIN_OPS)
        result.update(latencies=lat, passes=passes, elapsed=elapsed,
                      peak_rss_mb=peak_rss_mb(wl))
    failures = check_records(wl, records)
    result["attempted"] = len(records)
    result["failed"] = sum(n for n, _ in failures.values())
    result["failures"] = {k: {"count": n, "reason": r} for k, (n, r) in failures.items()}
    result["probes"] = run_probes(wl)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
