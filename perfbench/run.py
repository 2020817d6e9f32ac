"""rlab benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload norms --seed 1 --seconds 25 --trace 0

Run from the repository root.  Workloads: norms, mollify, embed, cli (see
perfbench/README.md).  With --trace 0 it prints the end-to-end metrics;
with --trace 1 the per-layer metrics of a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

This parent process uses the standard library only.  Each workload runs
in a fresh child (worker.py) with BLAS pinned to one thread; set-up time
is taken from process start to the child's READY line, seven times per
run (six set-up-only children and the measured child), and reported as
their median.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from tracer import LAYERS, MAX_COUNTERS, SUM_COUNTERS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("norms", "mollify", "embed", "cli")
SETUP_ONLY_RUNS = 6
RUN_TIMEOUT = 170.0      # seconds for all of a run's workers together
# the cli layer is timed in the CLI children, not by spans
TRACED_LAYERS = tuple(layer for layer in LAYERS if layer != "cli")
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# per-layer metrics besides the cli layer's and the derived ratios; the
# layer list and the counter names are tracer.py's
PER_LAYER = {
    # name: (unit, how it is read from the traced child's result)
    **{f"{layer}.calls": ("count", ("calls", layer)) for layer in TRACED_LAYERS},
    **{f"{layer}.self_s": ("s", ("self_s", layer)) for layer in TRACED_LAYERS},
    **{name: ("count", ("counts", name)) for name in SUM_COUNTERS},
}
# not divided by the pass count: a largest temporary is not a sum
PER_LAYER_PEAKS = {name: "B" for name in MAX_COUNTERS}


def child_env():
    env = dict(os.environ, **PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def start_worker(args, work_dir, setup_only):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # its own process group, so that a kill also reaches the CLI children;
    # no other thread runs here (finish joins its watchdog), so the
    # pre-exec hook is safe
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            preexec_fn=os.setpgrp)
    return proc, t0


def _kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def finish(proc, t0, deadline):
    """(setup seconds, RESULT payload or None) of one worker, killed with
    its children if it is still running at `deadline` (perf_counter).
    Reading stdout to EOF before waiting keeps the pipe from filling."""
    ready, result = None, None
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), _kill, (proc,))
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:
            _kill(proc)
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return ready, result


def quantile(values, q):
    """Linear-interpolated quantile, as numpy.percentile's default."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def show_common(res):
    env = res["env"]
    pins = " ".join(f"{k}={v}" for k, v in env["blas_threads"].items())
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']} (affinity {env['affinity']}), "
          f"memory {env['memory_gib']} GiB, BLAS threads {pins}, seed {env['seed']}")
    print(f"sizes: {json.dumps(res['sizes'])}")
    for line in res["skipped"]:
        print(f"skipped: {line}")
    for key, f in res["failures"].items():
        print(f"FAILED {key} x{f['count']}: {f['reason']}")


def show_probes(res, timed_failed, timed_attempted):
    probes = res["probes"]
    bad = sum(not p["ok"] for p in probes)
    attempted = timed_attempted + len(probes)
    failed = timed_failed + bad
    print(f"fail_ratio    {failed / attempted:.6f} failed/attempted "
          f"({failed} of {attempted}: {timed_failed} of {timed_attempted} timed ops, "
          f"{bad} of {len(probes)} known-defect probes)")
    for p in probes:
        state = "ok" if p["ok"] else f"FAIL {p['reason']}"
        print(f"known-defect probe  {p['key']}: {state} ({p['seconds']:.3f} s)")


def end_to_end(res, setups):
    lat = res["latencies"]
    good = res["attempted"] - res["failed"]
    beyond = sum(t > quantile(lat, 0.9) for t in lat)
    metrics = {
        "ops_per_s": (good / res["elapsed"], "ops/s"),
        "op_p50_ms": (1e3 * quantile(lat, 0.5), "ms"),
        "op_p90_ms": (1e3 * quantile(lat, 0.9), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"ops: {res['ops_per_pass']} per pass x {res['passes']} passes = "
          f"{res['attempted']} attempted in {res['elapsed']:.2f} s, one client, closed loop")
    notes = {"op_p90_ms": f"({len(lat)} samples, {beyond} beyond)",
             "setup_s": f"(median of {len(setups)}: "
                        + ", ".join(f"{s:.3f}" for s in setups) + ")"}
    for name, (value, unit) in metrics.items():
        print(f"{name:<13} {value:.6g} {unit} {notes.get(name, '')}".rstrip())
    show_probes(res, res["failed"], res["attempted"])
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(res):
    tr = res["trace"]
    snap, passes = tr["snapshot"], tr["passes"]
    metrics = {}
    for name, (unit, (group, key)) in PER_LAYER.items():
        metrics[name] = (snap.get(group, {}).get(key, 0) / passes, unit)
    for name, unit in PER_LAYER_PEAKS.items():
        metrics[name] = (snap.get("counts", {}).get(name, 0), unit)
    evals = snap.get("counts", {}).get("quadrature.evals", 0)
    ints = snap.get("counts", {}).get("quadrature.intervals", 0)
    metrics["quadrature.useful_eval_ratio"] = (15.0 * ints / evals if evals else 0.0, "ratio")
    cli = tr["cli"] or {}
    metrics["cli.calls"] = (cli.get("calls", 0) / passes, "count")
    for k in ("interp_s", "import_s", "run_s"):
        metrics[f"cli.{k}"] = (cli.get(k, 0.0) / passes, "s")
    metrics["cli.out_bytes"] = (cli.get("out_bytes", 0) / passes, "B")
    metrics["trace.overhead_ratio"] = (tr["overhead_ratio"], "ratio")
    print(f"traced: {passes} passes of {res['ops_per_pass']} ops; per-layer figures are per "
          f"pass, except the *_bytes_computed peaks and the ratios")
    if not snap.get("slice_hook") and res["workload"] != "cli":
        print("note: rlab.norms._slice_closure not found, norms slice counters read 0")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<34} {value:.6g} {unit}")
    cross_check(res)
    show_probes(res, res["failed"], res["attempted"])
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# the ROADMAP baselines the traced run is compared with (see README.md)
BASELINES = {
    "norms": [("n=10000 lorentz_pq_star(2,3) lebesgue", None, "0.18-0.29 s"),
              ("n=10000 grand_lorentz_pq(2,3) lebesgue", None, "0.088 s")],
    "mollify": [("n=1000 sweep box", "MaximalFunction.cell_average_step", "1.5 s, 1.5 GB")],
    "embed": [("downward_check(3,1.5) t^0.5/t grid=2048", None, "0.075 s")],
}


def cross_check(res):
    tr = res["trace"]
    funcs = tr["snapshot"].get("functions", {})
    for key, func, baseline in BASELINES.get(res["workload"], ()):
        if func is None:
            got = tr["op_median_s"].get(key)
            label = f"op '{key}' untraced median"
        else:
            n, s = funcs.get(f"{key}|{func}", (0, 0.0))
            got = s / n if n else None
            label = f"{func} in '{key}', traced mean"
        shown = "not run" if got is None else f"{got:.3f} s"
        print(f"cross-check: {label} {shown}; ROADMAP baseline {baseline}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rlab", "__init__.py")):
        sys.stderr.write(f"perfbench: no rlab sources under {os.path.join(ROOT, 'src')}; "
                         "run from a checkout of the repository\n")
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}", flush=True)
    setups = []
    deadline = time.perf_counter() + RUN_TIMEOUT
    # scratch files of the workers (the cli workload's input file)
    work_dir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                setups.append(finish(*start_worker(args, work_dir, True), deadline)[0])
        ready, res = finish(*start_worker(args, work_dir, False), deadline)
        if res is None:
            raise RuntimeError("worker printed no result")
    except (RuntimeError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setups.append(ready)
    show_common(res)
    metrics = per_layer(res) if args.trace else end_to_end(res, setups)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
