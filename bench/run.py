"""cfee benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload train_desk --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from a checkout: the program is imported from ``src/`` next to this
directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run and writes its spans to
``bench_out/``.  ``--workload all`` runs every workload in its own
process and prints each metric by name and unit.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench_out"
MODULES = ("config", "netgen", "perf", "alloc", "env", "nets", "ppo",
           "harness")
SETUP_BEFORE = 3   # set-ups timed before the first operation
SETUP_DURING = 8   # set-ups timed between rounds, spread over the run


def fresh_import():
    """Import cfee's modules from scratch, so that set-up time includes
    whatever work the package does when it is imported."""
    for name in [n for n in sys.modules if n == "cfee"
                 or n.startswith("cfee.")]:
        del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"cfee.{n}")
                              for n in MODULES})


def set_up(name, seed):
    """One timed set-up: a fresh import of cfee and the workload's inputs."""
    t0 = time.perf_counter()
    m = fresh_import()
    wl = WORKLOADS[name]()
    wl.setup(m, seed, OUT)
    return wl, m, time.perf_counter() - t0


def time_set_up(name, seed):
    """Time one more set-up, then put the live cfee modules back."""
    live = {n: mod for n, mod in sys.modules.items()
            if n == "cfee" or n.startswith("cfee.")}
    try:
        return set_up(name, seed)[2]
    finally:
        sys.modules.update(live)


def measure(wl, seconds, tracer, between_rounds):
    """Round 0 warms up (checked, not timed); then whole rounds of
    operations until `seconds` have passed, calling `between_rounds` at
    SETUP_DURING evenly spaced times.  Returns (round, time, units of
    work) of each timed operation, check errors, and the operations
    attempted and failed."""
    timed, errors = [], []
    attempted = failed = 0
    r = 0
    while True:
        if r == 1:
            start = time.perf_counter()
            due = 0.0
        elif r > 1 and time.perf_counter() - start >= due:
            between_rounds()
            due += seconds / SETUP_DURING
        for call, check in wl.round_ops(r):
            attempted += 1
            span = tracer.op(attempted) if tracer and r > 0 \
                else contextlib.nullcontext()
            try:
                with span:
                    t0 = time.perf_counter()
                    out = call()
                    dt = time.perf_counter() - t0
            except Exception as exc:  # counted, reported, run continues
                failed += 1
                print(f"operation {attempted} failed: {exc!r}",
                      file=sys.stderr)
                continue
            work, errs = check(out)
            errors += errs
            if r > 0 and work:
                timed.append((r, dt, work))
        r += 1
        if r > 1 and time.perf_counter() - start >= seconds:
            return timed, errors, attempted, failed


def run_one(args):
    if not (ROOT / "src" / "cfee").is_dir():
        print(f"error: no cfee sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("CF_EE_THREADS", None)   # the oracle runs in-process
    OUT.mkdir(exist_ok=True)

    # set-up is also timed between rounds, so that its median sees the
    # machine in the same states as the operations do
    setup_times = []
    for _ in range(SETUP_BEFORE):
        wl, m, dt = set_up(args.workload, args.seed)
        setup_times.append(dt)

    tracer = Tracer() if args.trace else None
    if hasattr(wl, "install"):
        wl.install()
    if tracer:
        tracer.install(vars(m))
    try:
        timed, errors, attempted, failed = measure(
            wl, args.seconds, tracer, lambda: setup_times.append(
                time_set_up(args.workload, args.seed)))
    finally:
        if tracer:
            tracer.uninstall()
        if hasattr(wl, "uninstall"):
            wl.uninstall()
    errors += wl.final_checks()
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    if not timed:
        print("error: no timed operation completed", file=sys.stderr)
        return 1

    rounds, dt, work = np.array(timed).T
    units = int(work.sum())
    work_per_s = units / dt.sum()
    unit_ms = dt / work * 1e3
    # per-round quantiles, median over rounds: a round of decide_full holds
    # 1024 decisions, so its p99 has ten beyond it; rounds of one operation
    # give the median operation for both
    per_round = [np.percentile(unit_ms[rounds == r], (50, 99))
                 for r in np.unique(rounds)]
    p50, p99 = np.median(per_round, axis=0)
    for key, value in getattr(wl, "extra", dict)().items():
        print(f"info {key} {value:.6g}")
    if tracer:
        metrics = tracer.metrics()
        layer_s = sum(s[5] - s[4] for s in tracer.spans
                      if s[3] == "perf.mc_se_oracle")
        gb = getattr(wl, "gbytes", 0.0)
        metrics["perf.mc_se_oracle_gbytes"] = (gb, "GB_computed")
        metrics["perf.mc_se_oracle_gbytes_per_s"] = (
            gb / layer_s if layer_s else 0.0, "GB/s_computed")
        metrics["bench.traced_work_per_s"] = (work_per_s, "1/s")
        trace_path = OUT / f"trace_{args.workload}_seed{args.seed}.csv"
        tracer.write_csv(trace_path)
        print(f"info spans {len(tracer.spans)} written to {trace_path}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "work_per_s": (work_per_s, "1/s"),
            "unit_ms_p50": (float(p50), "ms"),
            "unit_ms_p99": (float(p99), "ms"),
        }
    print(f"info {wl.name}: {len(timed)} timed operations, {units} {wl.unit}")
    print(f"info python {platform.python_version()} numpy {np.__version__} "
          f"nproc {os.cpu_count()} OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; a table of metrics by name."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']}")
        for key, metric in res["metrics"].items():
            print(f"  {key:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] and not r["failed"]
                    for r in results.values()) else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
