#!/usr/bin/env python3
"""Benchmark for elliptica: one workload per run, one client, closed loop.

    python3 perfbench/run.py --workload sullivan-population --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root; the engine is imported from ``src/``.  The
workloads are defined in ``workloads.py``; ``README.md`` says why each one
exists and how every metric is defined.

``--trace 0`` measures the end-to-end metrics: it times eleven fresh
interpreters from start to ready (import plus input generation), then
repeats whole passes over the workload's request list until ``--seconds``
have passed and the workload's tail percentile has ten samples beyond it.
Its times are scaled to the reference machine's speed (see CAL_REF_S).

``--trace 1`` wraps the engine's public functions (see ``tracer.py``) and
reports per-layer metrics over the traced set-up and a fixed number of
traced passes, alternating with as many untraced passes to measure the
tracing overhead.  The spans go to ``.perfbench/spans-<workload>-<seed>.tsv``.

``--self-check`` runs two ``--trace 1`` runs of one seed in fresh
interpreters and fails unless every count metric agrees exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

SETUP_RUNS = 11

# The host's speed changes by up to 1.6x for minutes at a time, because other
# tenants share its cores; CPU time slows with wall time.  So every timing is
# scaled to one machine speed: a fixed kernel of the engine's kind of work
# (Fraction arithmetic and dict updates, no elliptica code) is timed next to
# the requests, and a time t measured while the kernel takes c seconds is
# reported as t * CAL_REF_S / c.  CAL_REF_S is the kernel's fastest time on
# the reference machine (see README.md), so the figures read as milliseconds
# on that machine unloaded.
CAL_REF_S = 1.75e-3
# Requests between two kernel timings take at least this long together.
CAL_EVERY_S = 0.005


def _import_engine():
    """Import elliptica from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import elliptica
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import elliptica from {src}: {exc}")
    if not Path(elliptica.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: elliptica resolved outside {src}")


def _workdir(workload: str, seed: int) -> Path:
    path = WORK / f"{workload}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _kernel() -> Fraction:
    a, total, seen = Fraction(1, 3), Fraction(0), {}
    for i in range(1, 300):
        total += a * Fraction(i, i + 7) - Fraction(2, i)
        seen[i, i % 7] = total
    return total


def _kernel_seconds() -> float:
    """The kernel's time now: the fastest of three back-to-back runs, with
    the collector off so that no request's garbage is collected inside it."""
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return min(times)


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _run_pass(pass_, tracer, failures: list[str],
              factors: list[float] | None = None) -> list[float]:
    """One closed-loop pass; returns per-request latencies in seconds, in
    request order.  Each request starts on a collected heap, as a fresh CLI
    process would, so garbage from one request is not collected inside the
    next one's timing and peak memory does not depend on request order.

    With ``factors``, the kernel is timed before the pass, after its last
    request, and between requests whenever they have taken CAL_EVERY_S since
    the last timing.  Each request's speed factor, CAL_REF_S over the mean
    of the kernel times just before and just after it, goes to ``factors``.
    """
    latencies = []
    if factors is not None:
        kernel, first = _kernel_seconds(), 0
    for k, req in enumerate(pass_.requests):
        gc.collect()
        if tracer is not None:
            tracer.request = next(tracer.request_ids)
            span = tracer.begin("request")
        t0 = time.perf_counter()
        try:
            answer = req.run()
        except Exception as exc:  # a failed request is counted, not fatal
            answer, problem = None, f"raised {type(exc).__name__}: {exc}"
        else:
            problem = None
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(span)
        if problem is None:
            try:
                problem = req.check(answer)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{req.label}: {problem}")
        if factors is not None and (sum(latencies[first:]) >= CAL_EVERY_S
                                    or k == len(pass_.requests) - 1):
            after = _kernel_seconds()
            factors += [2 * CAL_REF_S / (kernel + after)] * (k + 1 - first)
            kernel, first = after, k + 1
    return latencies


def _setup_seconds(args) -> float:
    """Median time from a fresh interpreter's start to 'ready', each scaled
    by the kernel timed just before and just after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_RUNS):
        kernel = _kernel_seconds()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: setup run exited {code}")
        times.append(ready * 2 * CAL_REF_S / (kernel + _kernel_seconds()))
    return statistics.median(times)


def _report(result: dict):
    print(json.dumps(result, sort_keys=True))


def measure(args, build) -> int:
    setup_s = _setup_seconds(args)
    workdir = _workdir(args.workload, args.seed)
    try:
        pass_ = build(args.seed, str(workdir))
        gc.freeze()  # keeps the per-request gc.collect() to the new objects
        failures: list[str] = []
        samples: list[list[float]] = [[] for _ in pass_.requests]
        walls: list[list[float]] = [[] for _ in pass_.requests]
        passes = 0
        t0 = time.perf_counter()
        while (passes < pass_.min_passes
               or time.perf_counter() - t0 < args.seconds):
            factors: list[float] = []
            latencies = _run_pass(pass_, None, failures, factors)
            for k, (latency, factor) in enumerate(zip(latencies, factors)):
                walls[k].append(latency)
                samples[k].append(latency * factor)
            passes += 1
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # A request's latency is the median of its scaled times over the run's
    # passes, and the metrics describe one pass at those latencies:
    # throughput is the pass's requests over their summed latencies, the
    # percentiles are taken over its requests.
    typical = [statistics.median(s) for s in samples]
    n = passes * len(typical)
    throughput = len(typical) / sum(typical)
    wall_throughput = len(walls) / sum(map(statistics.median, walls))
    p50 = statistics.median(typical)
    p = pass_.tail_percentile
    tail = _percentile(typical, p)
    beyond = passes * sum(1 for x in typical if x > tail)
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes of "
          f"{len(typical)} requests in {wall:.2f} s; unscaled throughput "
          f"{wall_throughput:.4f} 1/s, so the host ran at "
          f"{wall_throughput / throughput:.3f} of reference speed")
    print(f"  setup_s          {setup_s:.4f} s   (median of {SETUP_RUNS} "
          f"fresh interpreters)")
    print(f"  throughput_rps   {throughput:.4f} 1/s")
    print(f"  latency_p50_ms   {p50 * 1e3:.4f} ms")
    print(f"  latency_tail_ms  {tail * 1e3:.4f} ms   (p{p}; {beyond} of {n} "
          f"samples beyond)")
    print(f"  error_rate       {len(failures) / n:.4f}   "
          f"({len(failures)} of {n} failed)")
    print(f"  peak_rss_mb      {rss_mb:.4f} MB")
    _report({
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_rps": {"value": throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    })
    return 0


def trace(args, build) -> int:
    import tracer as tracing
    tr = tracing.Tracer()
    workdir = _workdir(args.workload, args.seed)
    failures: list[str] = []
    samples = {False: [], True: []}   # traced? -> per-pass latency lists
    traced_wall = 0.0
    try:
        tr.install()
        tr.request = "setup"
        span = tr.begin("setup")
        pass_ = build(args.seed, str(workdir))
        tr.end(span)
        tr.uninstall()
        gc.freeze()
        # Untraced and traced passes alternate in ABBA order, so that drift
        # over the run cancels out of the overhead.
        for k in range(pass_.trace_passes):
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    tr.install()
                t0 = time.perf_counter()
                samples[traced].append(
                    _run_pass(pass_, tr if traced else None, failures))
                if traced:
                    traced_wall += time.perf_counter() - t0
                tr.uninstall()
    finally:
        tr.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    tr.write_spans(WORK / f"spans-{args.workload}-{args.seed}.tsv")
    metrics = tr.metrics()
    # Load on the host only slows a request, so each side's pass time is
    # taken at each request's fastest latency, as timeit does.  The passes
    # are not scaled: kernel timings inside a traced pass would add to its
    # wall time.
    fastest = {side: sum(map(min, zip(*passes)))
               for side, passes in samples.items()}
    metrics["trace.overhead_s"] = pass_.trace_passes * (fastest[True]
                                                        - fastest[False])
    metrics["trace.wall_s"] = traced_wall
    selfs = tr.self_times()
    metrics["trace.self_sum_s"] = sum(v for k, v in selfs.items()
                                      if k != "setup")
    attempted = sum(len(p) for passes in samples.values() for p in passes)
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{pass_.trace_passes} traced passes, {len(tr.spans)} spans")
    print(f"  self times sum to {metrics['trace.self_sum_s']:.4f} s of "
          f"{traced_wall:.4f} s traced wall; the rest is the loop and its "
          f"checks")
    for name in sorted(metrics):
        print(f"  {name:40} {metrics[name]:.6g}")
    _report({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    })
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("per_degree", "per_request")):
        return "ratio"
    return "count"


def self_check(args) -> int:
    """Two traced runs of one seed must give identical counts."""
    import tracer as tracing
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1"]
    runs = []
    for _ in range(2):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=600, check=True).stdout
        metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
        runs.append({k: v["value"] for k, v in metrics.items()
                     if k.endswith(tracing.COUNT_SUFFIXES)})
    differ = sorted(k for k in runs[0] if runs[0][k] != runs[1].get(k))
    for k in sorted(runs[0]):
        mark = "DIFFER" if k in differ else "same"
        print(f"  {k:40} {runs[0][k]!s:>12} {runs[1][k]!s:>12}  {mark}")
    print(f"self-check {args.workload} seed {args.seed}: "
          f"{'FAILED' if differ else 'ok'} ({len(runs[0])} counts)")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    _import_engine()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workdir = _workdir(args.workload, args.seed)
        try:
            build(args.seed, str(workdir))
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.self_check:
        return self_check(args)
    return trace(args, build) if args.trace else measure(args, build)


if __name__ == "__main__":
    sys.exit(main())
