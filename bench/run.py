"""The ritt-kit benchmark: one command, seeded workloads, checked answers.

Run one workload (the last stdout line is the result JSON):

    python3 bench/run.py --workload ritt_q --seed 1 --seconds 20 --trace 0

Run every workload on seeds 1..10 and print each metric's spread; exits 1
if a spread reaches its bound or an answer is wrong:

    python3 bench/run.py --suite .bench_build/suite.json

Compare two suite files, one row per workload and end-to-end metric:

    python3 bench/run.py --compare base.json new.json

Record input digests for seeds not yet frozen (never rewrites one), and
each workload's size profile if it has none:

    python3 bench/run.py --freeze-digests 0-63

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
reports its per-layer metrics from a separate traced run.  Every workload
runs in a fresh worker process (`worker.py`); this process never imports
rittkit.  Every process runs on one CPU, so that the calibration loop and
the timed work share it (see `speed.py`).  Run records go to
`.bench_build/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import worker
import workloads as W
from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_SAMPLES = 5
SUITE_SEEDS = range(1, 11)
NPROC = len(os.sched_getaffinity(0))   # before main() pins to one CPU
WORKER_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment of every child: this checkout's source, cached bytecode."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONPYCACHEPREFIX=os.path.join(OUT_DIR, "pycache"),
               PYTHONHASHSEED="0")
    return env


def _spawn(argv, env) -> subprocess.CompletedProcess:
    try:
        p = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(argv[:4])}") from exc
    if p.returncode != 0:
        raise BenchError(f"{' '.join(argv[:4])} exited {p.returncode}:\n"
                         f"{p.stderr[-2000:]}")
    return p


def _worker(env, workload, seed, seconds, trace, *flags) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *flags]
    out = _spawn(argv, env).stdout.strip().splitlines()
    if not out:
        raise BenchError(f"worker for {workload} printed nothing")
    return json.loads(out[-1])


def input_digests(workload, seed) -> tuple:
    """(digest of the inputs, digest of their size profile).

    `cli_readme` has the same inputs on every seed: the README commands with
    their golden exit codes and stdout, so both digests cover all of it."""
    if workload == "cli_readme":
        d = W.digest(worker.load_golden())
        return d, d
    data = W.generate(workload, seed)
    return W.digest(data), W.digest(W.size_profile(data))


def check_digests(workload, seed, digest, profile):
    """Every seed must match its workload's frozen size profile; a seed with
    a frozen input digest must match that too."""
    with open(DIGESTS) as fh:
        frozen = json.load(fh)
    want_profile = frozen["profiles"].get(workload)
    want = frozen["seeds"].get(workload, {}).get(str(seed))
    if want_profile is None:
        raise BenchError(f"no frozen size profile for {workload}")
    for got, exp, what in ((profile, want_profile, "sizes"),
                           (digest, want, "inputs")):
        if exp is not None and got != exp:
            raise BenchError(
                f"{what} of {workload} seed {seed} changed: digest {got[:16]} "
                f"!= frozen {exp[:16]}; a new size needs a new workload name")


def setup_samples(env, workload, seed) -> tuple:
    """Set-up times of fresh processes: (wall seconds, reference seconds)."""
    wall, ref = [], []
    for _ in range(SETUP_SAMPLES):
        if workload == "cli_readme":
            w, r = Speed.of_processes().timed(lambda: _spawn(
                [sys.executable, "-c", "import rittkit.cli"], env))
        else:
            out = _worker(env, workload, seed, 0, 0, "--setup-only")
            w, r = out["setup_wall_s"], out["setup_s"]
        wall.append(w)
        ref.append(r)
    return wall, ref


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                       capture_output=True)
    return p.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "rittkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": NPROC,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def run_once(workload, seed, seconds, trace, smoke=False) -> dict:
    """One run of one workload: the result line plus its record."""
    if not os.path.isfile(os.path.join(ROOT, "src", "rittkit", "__init__.py")):
        raise BenchError(f"no rittkit source under {ROOT}/src")
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    digest, profile = input_digests(workload, seed)
    check_digests(workload, seed, digest, profile)
    env = child_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    flags = ("--smoke",) if smoke else ()
    setup_wall, setups = (([], []) if trace or smoke
                          else setup_samples(env, workload, seed))
    out = _worker(env, workload, seed, seconds, trace, *flags)
    if out["digest"] != digest:
        raise BenchError(f"worker built other inputs for {workload} seed {seed}")
    values = dict(out["metrics"])
    samples = {m: out.get("pairs", out.get("samples")) for m in values}
    raw = dict(out.get("raw", {}))
    if setup_wall:
        raw["setup_s"] = statistics.median(setup_wall)
    if not trace:
        values["setup_s"] = (statistics.median(setups) if setups
                             else out.get("setup_s", 0.0))
        values["peak_rss_mb"] = out["peak_rss_mb"]
        samples.update(setup_s=len(setups), peak_rss_mb=1,
                       ok_ratio=out["attempted"])
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    env_record = dict(environment(), workload=workload, seed=seed,
                      seconds=seconds, trace=trace, samples=samples,
                      passes=out.get("passes", out.get("pairs")))
    if raw:
        env_record["wall_time_metrics"] = raw
    if trace:
        env_record["trace_overhead"] = values["trace_overhead"]
    record = {"env": env_record, "result": result,
              "failures": out["failures"], "spans": out.get("edges", []),
              "pass_latencies": out.get("pass_latencies", [])}
    name = f"{workload}-seed{seed}-trace{trace}.json"
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", name), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


# -- suites and comparison ------------------------------------------------------------

def _spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def run_suite(path, seconds):
    spec = load_spec()
    suite = {"env": environment(), "seconds": seconds, "runs": {}}
    for seed in SUITE_SEEDS:
        for w in W.WORKLOADS:
            rec = run_once(w, seed, seconds, 0)
            row = {"seed": seed, "correct": rec["result"]["correct"],
                   "attempted": rec["result"]["attempted"],
                   "failed": rec["result"]["failed"],
                   "metrics": {k: v["value"] for k, v
                               in rec["result"]["metrics"].items()},
                   "samples": rec["env"]["samples"]}
            suite["runs"].setdefault(w, []).append(row)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in row["metrics"].items()), flush=True)
    with open(path, "w") as fh:
        json.dump(suite, fh, indent=1)
    print(f"\n{'workload':14s} {'metric':14s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s}")
    ok = True
    for w, rows in suite["runs"].items():
        if not all(r["correct"] for r in rows):
            ok = False
            print(f"{w}: wrong answers on seeds "
                  f"{[r['seed'] for r in rows if not r['correct']]}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in rows]
            s = _spread(vals)
            flag = "" if s < m["bound"] else "  WIDE"
            ok = ok and not flag
            print(f"{w:14s} {m['name']:14s} {statistics.median(vals):12.5g} "
                  f"{s:8.4f} {m['bound']:6.3f}{flag}")
    return ok


def _verdict(a, b, better, bound, pairs, new_failed=0) -> str:
    """better / same / worse / unresolved for the runs b against base a.

    Any failed query in the new runs makes every metric of the workload
    worse, whatever its timings."""
    if new_failed:
        return "worse"
    sign = 1 if better == "higher" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / abs(ma) if ma else 0.0
    spread = max(_spread(a), _spread(b))
    b_wins_all = min(sign * x for x in b) > max(sign * x for x in a)
    if change < -bound:
        return "worse"
    if spread > bound and not b_wins_all:
        return "unresolved"
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and change > _spread(a):
        return "better"
    return "same"


def compare(path_a, path_b):
    spec = load_spec()
    with open(path_a) as fh:
        A = json.load(fh)
    with open(path_b) as fh:
        B = json.load(fh)
    print(f"{'workload':14s} {'metric':14s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s}  verdict")
    for w in W.WORKLOADS:
        ra, rb = A["runs"].get(w), B["runs"].get(w)
        if not ra or not rb:
            continue
        new_failed = sum(r["failed"] + (not r["correct"]) for r in rb)
        if new_failed:
            print(f"{w}: {sum(r['failed'] for r in rb)} failed queries in "
                  f"the new runs")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name] for r in ra]
            b = [r["metrics"][name] for r in rb]
            by_seed = {r["seed"]: r["metrics"][name] for r in ra}
            pairs = [(by_seed[r["seed"]], r["metrics"][name]) for r in rb
                     if r["seed"] in by_seed]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = mb / ma if ma else float("nan")
            print(f"{w:14s} {name:14s} {ma:12.5g} {mb:12.5g} {ratio:9.4f}  "
                  f"{_verdict(a, b, m['better'], m['bound'], pairs, new_failed)}")


def freeze_digests(seed_range):
    lo, _, hi = seed_range.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    with open(DIGESTS) as fh:
        frozen = json.load(fh)
    for w in W.WORKLOADS:
        for seed in seeds:
            d, profile = input_digests(w, seed)
            if frozen["profiles"].setdefault(w, profile) != profile:
                raise BenchError(f"{w} seed {seed}: sizes differ from frozen")
            if w == "cli_readme":
                continue
            if frozen["seeds"].setdefault(w, {}).setdefault(str(seed), d) != d:
                raise BenchError(f"{w} seed {seed}: inputs differ from frozen")
    with open(DIGESTS, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", metavar="OUT")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--freeze-digests", metavar="LO-HI")
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        seconds = args.seconds or load_spec()["run_seconds"]
        if args.compare:
            compare(*args.compare)
            return 0
        if args.freeze_digests:
            freeze_digests(args.freeze_digests)
            return 0
        if args.suite:
            return 0 if run_suite(args.suite, seconds) else 1
        if not args.workload:
            ap.error("give --workload, --suite, --compare or --freeze-digests")
        rec = run_once(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, m in rec["result"]["metrics"].items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    for line in rec["failures"]:
        print(f"failed: {line}")
    print("env: " + json.dumps(rec["env"]))
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
