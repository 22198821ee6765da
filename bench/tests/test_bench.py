"""Self-tests of the repo benchmark.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q``.  Every
workload runs at about 2% of its benchmark size through the same code
path the benchmark processes use; only process spawning is skipped.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import baseline
import layers
import measure
import pytest
import run
import workloads

import repro.serving as serving
from repro.telemetry import diff_benchmarks

SMALL = 0.02
CALIB = 1000
SPEC = run.load_spec()
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
NAMES = [w["name"] for w in SPEC["workloads"]]
SETUPS = [{"setup_s": 0.5, "calib_s": [0.1, 0.1, 0.1]}] * 3


def small_reps(name: str, reps: int = 2) -> list[dict]:
    workload = workloads.get(name)
    return measure.run_reps(
        workload, workload.build(0, SMALL), seconds=0, min_reps=reps,
        calib_iterations=CALIB,
    )


def untraced_report(reps: list[dict]) -> dict:
    return run.summarise(SPEC, SETUPS, {"reps": reps, "peak_rss_mib": 64.0},
                         c_ref_s=0.1)


@pytest.fixture(scope="module")
def untraced() -> dict[str, list[dict]]:
    return {name: small_reps(name) for name in NAMES}


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict[str, tuple[dict, object]]:
    out = tmp_path_factory.mktemp("traces")
    return {
        name: (layers.traced_run(workloads.get(name), 0, SMALL, CALIB,
                                 out / f"{name}.json"),
               out / f"{name}.json")
        for name in NAMES
    }


def test_spec_matches_workloads():
    assert NAMES == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["bench"]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_printed_with_its_unit(untraced, name,
                                                       capsys):
    code = run.report_run({name: untraced_report(untraced[name])}, UNITS,
                          seed=0, trace=False, json_out=None)
    out = capsys.readouterr().out
    assert code == 0
    for metric in SPEC["end_to_end"]:
        pattern = (rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                   rf"{re.escape(metric['unit'])}(\s|$)")
        assert re.search(pattern, out, re.M), metric["name"]
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_simulated_metrics_identical_across_reps(untraced, name):
    reps = untraced[name]
    assert measure.judge(reps) == [[], []]
    assert reps[0]["sim"] == reps[1]["sim"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced(untraced, traced, name):
    payload, trace_path = traced[name]
    assert all(not f for f in measure.judge(payload["reps"]))
    for rep in payload["reps"]:
        if rep["group"] == "full":
            assert rep["sim"] == untraced[name][0]["sim"], rep["label"]
    report = run.summarise_traced(SPEC, payload)
    assert list(report["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    lines = run.render(name, report, UNITS)
    for metric in SPEC["per_layer"]:
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[2] == metric["unit"] for line in lines)
    with open(trace_path) as handle:
        events = json.load(handle)["traceEvents"]
    assert events and {e["ph"] for e in events} == {"X"}
    spans = {e["args"]["span_id"] for e in events}
    assert all(e["args"]["parent_id"] in spans | {0} for e in events)


def test_every_per_layer_metric_is_produced(untraced, traced):
    produced = set()
    for name in NAMES:
        produced |= set(untraced[name][0]["sim"])
        produced |= set(traced[name][0]["layers"])
    missing = {m["name"] for m in SPEC["per_layer"]} - produced
    assert not missing


def test_tracer_restores_every_patched_attribute():
    import heapq

    original_pop = heapq.heappop
    original_sim = serving.simulate_serving
    with layers.LayerTracer(trace_id=1):
        assert serving.simulate_serving is not original_sim
    assert heapq.heappop is original_pop
    assert serving.simulate_serving is original_sim


def test_dropped_record_fails_one_operation(monkeypatch, capsys):
    original = serving.simulate_serving
    calls = []

    def drops_first_record(*args, **kwargs):
        result = original(*args, **kwargs)
        if not calls:
            result.records.pop(0)
        calls.append(1)
        return result

    monkeypatch.setattr(serving, "simulate_serving", drops_first_record)
    report = untraced_report(small_reps("serving-overload"))
    assert report["ops_failed"] == 1
    code = run.report_run({"serving-overload": report}, UNITS, seed=0,
                          trace=False, json_out=None)
    captured = capsys.readouterr()
    assert code != 0
    assert "ops_failed 1" in captured.out
    assert "no record" in captured.err
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (False, 1)


def test_raising_entry_point_fails_one_operation(monkeypatch, capsys):
    original = serving.simulate_serving
    calls = []

    def raises_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("seeded crash")
        return original(*args, **kwargs)

    monkeypatch.setattr(serving, "simulate_serving", raises_first)
    report = untraced_report(small_reps("serving-memsys"))
    assert report["ops_failed"] == 1
    assert report["problems"] == ["raised RuntimeError: seeded crash"]
    assert report["metrics"]["completed_frac"] > 0
    code = run.report_run({"serving-memsys": report}, UNITS, seed=0,
                          trace=False, json_out=None)
    assert code != 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] == 1


def test_calibrated_metrics_ignore_uniform_slowdown():
    sim = {"completed_frac": 1.0, "latency_mean_us": 2.0,
           "latency_tail_us": 3.0}
    reps = [
        {"raw_s": 1.0 + 0.3 * i, "calib_s": [0.1, 0.1 + 0.02 * i],
         "items": 1000, "sim": sim, "problems": []}
        for i in range(5)
    ]
    setups = [{"setup_s": 0.4 + 0.1 * i, "calib_s": [0.09 + 0.01 * i] * 3}
              for i in range(3)]

    def slower(factor: float) -> dict:
        return run.summarise(
            SPEC,
            [{**s, "setup_s": s["setup_s"] * factor,
              "calib_s": [c * factor for c in s["calib_s"]]}
             for s in setups],
            {"reps": [{**r, "raw_s": r["raw_s"] * factor,
                       "calib_s": [c * factor for c in r["calib_s"]]}
                      for r in reps],
             "peak_rss_mib": 64.0},
            c_ref_s=0.1,
        )["metrics"]

    base, slow = slower(1.0), slower(1.7)
    for metric in ("setup_s", "items_per_s"):
        assert slow[metric] == pytest.approx(base[metric], rel=1e-12)


def test_baseline_feeds_bench_diff(untraced):
    reports = {name: untraced_report(untraced[name]) for name in NAMES}
    document = run.bench_document(reports, seed=0, trace=False)
    pinned = baseline.baseline(document, SPEC)
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "items_per_s")
    entry = pinned["headlines"]["schedule-sweep.items_per_s"]
    assert (entry["direction"], entry["rel_tol"]) == ("higher", bound)
    assert pinned["headlines"]["schedule-sweep.sim.mha_cycles"] == {
        "value": 21578, "direction": "lower", "rel_tol": 0.0,
    }
    assert diff_benchmarks(document, pinned).passed
    slower = json.loads(json.dumps(document))
    slower["headlines"]["schedule-sweep.items_per_s"] *= 0.9 - bound
    report = diff_benchmarks(slower, pinned)
    assert [r.name for r in report.regressions] == [
        "schedule-sweep.items_per_s"
    ]


def test_refuses_to_run_without_the_repository(tmp_path):
    root = run.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serving-overload",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
