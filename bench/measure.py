"""Timing, calibration and statistics shared by the benchmark processes.

Host time is the process's CPU time (``time.process_time``).  The
simulators are single-threaded and CPU-bound, so on an idle machine it
equals wall time; on a shared one it leaves out the slices the OS
gives to other processes, which made single 0.1 s wall-time samples
read up to twice their CPU time.

What remains is interference from other tenants (cache and memory
contention) that slows execution itself, in bursts of a fraction of a
second to several seconds, by up to 2x.  So host metrics are best-of
estimates: the fastest rep, normalised by the fastest of the
pure-Python reference loops timed between the reps::

    calibrated = min(raw) * C_ref / min(calib)

``C_ref`` is a constant recorded once in ``bench/config.json`` (the
reference loop's time on the machine it was taken on).  Both minima
estimate the same undisturbed machine, so a machine that is uniformly
faster or slower cancels out, while a burst that hits some reps or
loops is ignored.

Simulated statistics use :func:`nearest_rank`, the benchmark's own
percentile, so a change to any percentile inside the simulator cannot
move them.
"""

from __future__ import annotations

import heapq
import json
import math
import statistics
import time
import traceback
from collections.abc import Sequence
from pathlib import Path

CONFIG_PATH = Path(__file__).resolve().parent / "config.json"


def load_config() -> dict:
    """The benchmark's fixed settings (reference loop, seeds, rep counts)."""
    with open(CONFIG_PATH) as handle:
        return json.load(handle)


def reference_loop(iterations: int) -> float:
    """Fixed interpreter work: dict, heap, branch and float operations.

    It exercises the same interpreter paths as the simulators' event
    loops, so machine slowdowns hit it and them alike.
    """
    heap: list[int] = []
    table: dict[int, int] = {}
    total = 0.0
    for i in range(iterations):
        key = i & 1023
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (i * 2654435761) & 0xFFFF)
        if len(heap) > 64:
            total += heapq.heappop(heap) * 0.5
    return total


def reference_time(iterations: int) -> float:
    """CPU seconds of one :func:`reference_loop`."""
    start = time.process_time()
    reference_loop(iterations)
    return time.process_time() - start


def calibrated(raw_s: Sequence[float], calib_s: Sequence[float],
               c_ref_s: float) -> float:
    """Best-of time on the reference machine's clock (module docstring)."""
    return min(raw_s) * c_ref_s / min(calib_s)


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Smallest sample with at least ``pct`` percent of samples at or below."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles and sample count of ``values``."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
    }


def timed(op):
    """Run ``op()``; return ``(result, CPU seconds, wall seconds)``."""
    wall = time.perf_counter()
    cpu = time.process_time()
    result = op()
    return (result, time.process_time() - cpu,
            time.perf_counter() - wall)


def attempt(run, *args, **kwargs) -> dict:
    """One operation: ``run(*args, **kwargs)`` as a rep record.

    An operation that raises fails like one that fails its checks; its
    traceback goes to stderr and the benchmark carries on.
    """
    try:
        outcome = run(*args, **kwargs)
    except Exception as exc:
        traceback.print_exc()
        return {"items": 0, "sim": {},
                "problems": [f"raised {type(exc).__name__}: {exc}"]}
    return {"items": outcome.items, "sim": outcome.sim,
            "problems": outcome.problems}


def run_reps(workload, inputs, seconds: float, min_reps: int,
             calib_iterations: int) -> list[dict]:
    """Time ``workload.run(inputs)`` back to back for ``seconds``.

    Runs at least ``min_reps`` reps and starts another only while the
    median rep so far still fits in the wall-clock budget.  Each rep
    shares its reference timings with its neighbours: the loop timed
    after one rep is the loop timed before the next.
    """
    reps: list[dict] = []
    spent: list[float] = []
    started = time.perf_counter()
    before = reference_time(calib_iterations)
    while True:
        iteration = time.perf_counter()
        outcome, raw, wall = timed(lambda: attempt(workload.run, inputs))
        after = reference_time(calib_iterations)
        reps.append({"raw_s": raw, "wall_s": wall,
                     "calib_s": [before, after], **outcome})
        before = after
        now = time.perf_counter()
        spent.append(now - iteration)
        if (len(reps) >= min_reps
                and now - started + statistics.median(spent) > seconds):
            return reps


def judge(reps: list[dict]) -> list[list[str]]:
    """Per-rep failures: each rep's own checks, then cross-rep equality.

    Simulated metrics are deterministic, so every rep of one input
    ``group`` (default ``"full"``) must reproduce the first rep of that
    group that passed its own checks, bit for bit.
    """
    failures = [list(r["problems"]) for r in reps]
    reference: dict[str, dict] = {}
    for rep, fails in zip(reps, failures):
        if fails:
            continue
        expected = reference.setdefault(rep.get("group", "full"), rep["sim"])
        if rep["sim"] != expected:
            diff = sorted(
                k for k in set(rep["sim"]) | set(expected)
                if rep["sim"].get(k) != expected.get(k)
            )
            fails.append(f"simulated metrics differ across reps: {diff}")
    return failures


def _summary(value: float, per_sample: list[float], raw_s: list[float],
             calib_s: list[float]) -> dict:
    """A best-of metric with its auxiliary fields: every sample
    normalised by the fastest loop (quartiles and count), the raw
    samples and the loop times."""
    return {"value": value, **spread(per_sample), "raw": raw_s,
            "calib_s": calib_s}


def host_rate(reps: list[dict], failures: list[list[str]],
              c_ref_s: float) -> dict:
    """Items per calibrated host second: the fastest passing rep."""
    passing = [r for r, f in zip(reps, failures) if not f] or reps
    raw = [r["raw_s"] for r in passing]
    # Neighbouring reps share a loop: the one after a rep is the one
    # before the next.
    calib = [reps[0]["calib_s"][0]] + [r["calib_s"][1] for r in reps]
    items = passing[0]["items"]
    return _summary(
        items / calibrated(raw, calib, c_ref_s),
        [items / calibrated([t], calib, c_ref_s) for t in raw], raw, calib,
    )


def setup_time(samples: list[dict], c_ref_s: float) -> dict:
    """Calibrated set-up seconds: the fastest fresh interpreter."""
    raw = [s["setup_s"] for s in samples]
    calib = [c for s in samples for c in s["calib_s"]]
    return _summary(
        calibrated(raw, calib, c_ref_s),
        [calibrated([t], calib, c_ref_s) for t in raw], raw, calib,
    )
