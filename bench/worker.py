"""Run one workload in a fresh process and print its measurements as JSON.

    python3 bench/worker.py --root . --workload ritt_q --seed 1 --seconds 30 \
        --trace 0 [--setup-only] [--smoke]

`run.py` starts this process; it is not meant to be run by hand.  One
client runs the workload's fixed query list in a closed loop, one query at
a time, in whole passes, until another pass would not fit in `--seconds`
and at least `MIN_QUERIES` queries are done.  Latency is the time of the
library call (or of the CLI subprocess) alone; checks run outside it.

Latencies are reported at a reference speed (`speed.py`); the raw wall
times are kept in the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads as W
from speed import Speed

MIN_QUERIES = 100   # p90 needs at least ten samples beyond it
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_cli.json")


def load_golden() -> list:
    with open(GOLDEN) as fh:
        return json.load(fh)["commands"]


def _percentile(sorted_ms, q):
    return statistics.quantiles(sorted_ms, n=100, method="inclusive")[q - 1]


class Loop:
    """Latencies and failures of the measured passes, at reference speed."""

    def __init__(self, speed=None):
        self.speed = speed or Speed()
        self.latencies = []
        self.raw = []          # the same latencies in wall time
        self.passes = []       # per pass: latency of each ok query, in seconds
        self.busy = 0.0        # latency of every query, ok or not
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, queries, tracer=None) -> float:
        """One pass; returns the summed wall latency of its queries."""
        clock = time.perf_counter
        total = 0.0
        spans = []
        for q in queries:
            self.speed.maybe_calibrate()
            self.attempted += 1
            ok = True
            if tracer is not None:
                tracer.active = True
            t0 = clock()
            try:
                result = q.call()
            except Exception as exc:  # any raise is a failed query
                ok, result = False, exc
            dt = clock() - t0
            if tracer is not None:
                tracer.active = False
            if ok:
                try:
                    ok = bool(q.check(result))
                except Exception as exc:
                    ok, result = False, exc
            total += dt
            spans.append((t0, dt, ok))
            if not ok:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{q.kind}: {result!r}"[:300])
        self.speed.calibrate()
        this_pass = []
        for t0, dt, ok in spans:
            ref = dt * self.speed.factor(t0, t0 + dt)
            self.busy += ref
            if ok:
                this_pass.append(ref)
                self.raw.append(dt)
        self.passes.append(this_pass)
        self.latencies.extend(this_pass)
        return total


def closed_loop(queries, seconds, loop: Loop, min_queries=MIN_QUERIES) -> dict:
    """Whole passes until another would overrun `seconds` (min `min_queries`)."""
    busy, passes, longest = 0.0, 0, 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        busy += loop.run(queries)
        passes += 1
        longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + longest > seconds and loop.attempted >= min_queries:
            return {"passes": passes, "busy_s": busy, "wall_s": elapsed}


def _latency_metrics(latencies, busy_s) -> dict:
    ms = sorted(x * 1000.0 for x in latencies) or [0.0]
    return {
        "queries_per_s": len(latencies) / busy_s if busy_s else 0.0,
        "query_p50_ms": statistics.median(ms),
        "query_p90_ms": _percentile(ms, 90) if len(ms) >= 2 else ms[0],
    }


def summarize(loop: Loop, out: dict):
    """End-to-end metrics at reference speed; wall-time ones as `raw`."""
    out["metrics"] = dict(_latency_metrics(loop.latencies, loop.busy),
                          ok_ratio=1.0 - loop.failed / max(loop.attempted, 1))
    out["raw"] = _latency_metrics(loop.raw, out["busy_s"])
    out["samples"] = len(loop.latencies)
    out["pass_latencies"] = loop.passes


# -- library workloads -----------------------------------------------------------------

def setup_library(root, workload, seed):
    """Import rittkit and build the inputs.

    Returns (queries, wall seconds, seconds at reference speed, digest)."""
    sys.path.insert(0, os.path.join(root, "src"))
    made = {}

    def setup():
        import rittkit
        made["data"] = W.generate(workload, seed)
        made["queries"] = W.build(workload, made["data"], rittkit)

    wall, ref = Speed().timed(setup)
    return made["queries"], wall, ref, W.digest(made["data"])


def traced_passes(queries, seconds, loop: Loop) -> dict:
    """Alternate untraced and traced passes; per-layer medians per pass."""
    import tracer as T
    tr = T.Tracer()
    plain, traced, snaps, edges = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(loop.run(queries))
        undo = T.install(tr)
        try:
            tr.reset()
            traced.append(loop.run(queries, tr))
        finally:
            T.uninstall(undo)
        snap = tr.snapshot()
        snap["trace_coverage"] = tr.top_s / traced[-1] if traced[-1] else 0.0
        snaps.append(snap)
        edges = tr.span_edges()
        pair = time.perf_counter() - t0
        if time.perf_counter() - start + pair > seconds:
            break
    metrics = {k: statistics.median(s[k] for s in snaps) for k in snaps[0]}
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    return {"metrics": metrics, "pairs": len(snaps), "edges": edges}


def run_library(args) -> dict:
    queries, wall, setup_s, digest = setup_library(args.root, args.workload,
                                                   args.seed)
    out = {"setup_s": setup_s, "setup_wall_s": wall, "digest": digest}
    if args.setup_only:
        return out
    warm = W.warm_up_list(queries)
    if args.smoke:
        queries = warm
    loop = Loop()
    loop.run(warm)                      # untimed warm-up pass
    if args.trace:
        out.update(traced_passes(queries, args.seconds, loop))
    else:
        measured = Loop()
        out.update(closed_loop(queries, args.seconds, measured,
                               1 if args.smoke else MIN_QUERIES))
        summarize(measured, out)
        loop.attempted += measured.attempted
        loop.failed += measured.failed
        loop.failures += measured.failures
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(attempted=loop.attempted, failed=loop.failed,
               failures=loop.failures)
    return out


# -- cli_readme ---------------------------------------------------------------------

def cli_queries(root) -> list:
    """One subprocess per README command, checked byte for byte."""
    out = []
    for cmd in load_golden():
        argv = [sys.executable, "-m", "rittkit.cli", *cmd["argv"]]
        want = (cmd["exit"], cmd["stdout"].encode())

        def call(argv=argv):
            p = subprocess.run(argv, cwd=root, capture_output=True,
                               timeout=120)
            return p.returncode, p.stdout

        out.append(W.Query(cmd["argv"][0], call,
                           lambda r, want=want: r == want))
    return out


def cli_inprocess_queries(root) -> list:
    """The same commands through rittkit.cli.run_command, stdout captured."""
    sys.path.insert(0, os.path.join(root, "src"))
    import importlib
    cli = importlib.import_module("rittkit.cli")
    out = []
    for cmd in load_golden():
        def call(argv=cmd["argv"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run_command(argv)
            return code, buf.getvalue()

        want = (cmd["exit"], cmd["stdout"])
        out.append(W.Query(cmd["argv"][0], call,
                           lambda r, want=want: r == want))
    return out


def run_cli(args) -> dict:
    out = {"digest": W.digest(load_golden())}
    loop = Loop() if args.trace else Loop(Speed.of_processes())
    if args.trace:
        inproc = cli_inprocess_queries(args.root)
        loop.run(inproc)                # untimed warm-up pass
        out.update(traced_passes(inproc, args.seconds, loop))
    else:
        out.update(closed_loop(cli_queries(args.root), args.seconds, loop,
                               1 if args.smoke else MIN_QUERIES))
        summarize(loop, out)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out.update(attempted=loop.attempted, failed=loop.failed,
               failures=loop.failures)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.workload == "cli_readme":
        out = run_cli(args)
    else:
        out = run_library(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
