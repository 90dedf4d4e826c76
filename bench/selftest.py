"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the library's own test run; each
smoke run starts a worker process and takes a few seconds.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import run
import speed
import tracer as T
import worker
import workloads as W

SEEDS = (1, 2)


def _names(kind):
    return {m["name"] for m in run.load_spec()[kind]}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_runs_clean(workload, seed):
    rec = run.run_once(workload, seed, 0.1, 0, smoke=True)
    res = rec["result"]
    assert res["failed"] == 0, rec["failures"]
    assert res["attempted"] >= 1
    assert res["metrics"]["ok_ratio"]["value"] == 1.0
    assert set(res["metrics"]) <= _names("end_to_end")


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_smoke_names_and_coverage(workload):
    rec = run.run_once(workload, 1, 0.1, 1, smoke=True)
    metrics = rec["result"]["metrics"]
    assert rec["result"]["failed"] == 0, rec["failures"]
    assert set(metrics) <= _names("per_layer")
    assert metrics["trace_overhead"]["value"] > 0
    if workload in W.LIBRARY_WORKLOADS:
        assert metrics["trace_coverage"]["value"] >= 0.9


def test_every_reported_name_is_declared():
    spec = run.load_spec()
    per_layer = _names("per_layer")
    for key in T.KEYS:
        assert {f"{key}.calls", f"{key}.self_s"} <= per_layer
    assert set(T.DERIVED) | {"trace_overhead", "trace_coverage"} <= per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "queries_per_s", "query_p50_ms", "query_p90_ms", "ok_ratio",
        "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)


def test_frozen_digests_match():
    with open(run.DIGESTS) as fh:
        frozen = json.load(fh)
    for workload in W.LIBRARY_WORKLOADS:
        for seed in SEEDS:
            assert (frozen["seeds"][workload][str(seed)]
                    == run.input_digests(workload, seed)[0])
    for workload in W.WORKLOADS:
        for seed in SEEDS + (1000,):    # 1000: no frozen inputs, sizes only
            digest, profile = run.input_digests(workload, seed)
            assert frozen["profiles"][workload] == profile
            run.check_digests(workload, seed, digest, profile)


def test_digest_check_catches_resized_and_edited_inputs():
    data = W.generate("ritt_q", 1000)
    resized = data + data[:1]
    with pytest.raises(run.BenchError):
        run.check_digests("ritt_q", 1000, W.digest(resized),
                          W.digest(W.size_profile(resized)))
    digest, profile = run.input_digests("ritt_q", 1)
    with pytest.raises(run.BenchError):
        run.check_digests("ritt_q", 1, digest[::-1], profile)
    golden = worker.load_golden()
    golden[0]["stdout"] += "x"
    with pytest.raises(run.BenchError):
        edited = W.digest(golden)
        run.check_digests("cli_readme", 1, edited, edited)


def test_speed_factor_scales_to_reference():
    sp = speed.Speed(unit=lambda: None, ref_s=2.0)
    sp.times, sp.durs = [1.0, 2.0, 3.0, 10.0], [4.0, 4.0, 4.0, 1.0]
    assert sp.factor(2.0, 2.1) == 0.5
    assert sp.factor(10.0, 10.0) == 2.0


def test_generators_are_deterministic_and_seeded():
    for workload in W.LIBRARY_WORKLOADS:
        a, b = W.generate(workload, 7), W.generate(workload, 7)
        assert W.digest(a) == W.digest(b)
        assert W.digest(a) != W.digest(W.generate(workload, 8))


def test_tracer_rebinds_every_copy_and_restores():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import rittkit
    from rittkit import msclass, poly, semiconj
    orig_compose, orig_mul = poly.compose, poly.Poly.__mul__
    undo = T.install(T.Tracer())
    try:
        assert msclass.compose is semiconj.compose is poly.compose
        assert poly.compose.__wrapped__ is orig_compose
        assert rittkit.compose is poly.compose
        assert poly.Poly.__rmul__ is poly.Poly.__mul__ is not orig_mul
    finally:
        T.uninstall(undo)
    assert msclass.compose is orig_compose and poly.Poly.__mul__ is orig_mul


def test_verdicts():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    pairs = list(zip(base, base))
    assert run._verdict(base, base, "higher", 0.05, pairs) == "same"
    worse = [x * 0.8 for x in base]
    assert run._verdict(base, worse, "higher", 0.05,
                        list(zip(base, worse))) == "worse"
    faster = [x * 1.2 for x in base]
    assert run._verdict(base, faster, "higher", 0.05,
                        list(zip(base, faster))) == "better"
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert run._verdict(base, noisy, "higher", 0.05,
                        list(zip(base, noisy))) == "unresolved"
    assert run._verdict(base, faster, "higher", 0.05,
                        list(zip(base, faster)), new_failed=1) == "worse"


def test_compare_calls_any_failed_query_worse(tmp_path, capsys):
    names = [m["name"] for m in run.load_spec()["end_to_end"]]

    def suite(failed, scale):
        rows = [{"seed": seed, "correct": not failed, "attempted": 200,
                 "failed": failed,
                 "metrics": {n: 100.0 * (scale if n == "queries_per_s" else 1)
                             + seed for n in names}}
                for seed in run.SUITE_SEEDS]
        return {"runs": {"ritt_q": rows}}

    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(suite(0, 1.0)))
    new.write_text(json.dumps(suite(1, 1.5)))
    run.compare(str(base), str(new))
    rows = [l.split() for l in capsys.readouterr().out.splitlines()
            if l.startswith("ritt_q ") and len(l.split()) == 6]
    assert len(rows) == len(names)
    assert {r[-1] for r in rows} == {"worse"}
