"""Repo benchmark: five simulator workloads, host speed and simulated outcomes.

Usage, from the repository root::

    python3 bench/run.py --workload NAME|all --seed N [--seconds S]
                         [--trace 0|1] [--json OUT] [--trace-dir DIR]

Each workload runs in fresh interpreters started one after another:
``setup_interpreters`` set-up samples (``setup_s``), then one process
that times reps of the workload for ``--seconds``.  With ``--trace 1``
one process runs the traced protocol instead and the run reports the
per-layer metrics.  The run prints every metric by name with its unit,
then ``ops_total`` / ``ops_failed``, and last one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 1 when any operation failed its checks, and 2 without a
result when the repository's ``src/`` is missing or a process fails.
``BENCHMARK.json`` at the root names the workloads and metrics;
``bench/config.json`` holds the calibration constant, the seeds and
the rep counts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from measure import host_rate, judge, load_config, setup_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Every process a workload starts must end within this many seconds
#: of the workload's start, so a one-workload run stays under three
#: minutes.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A benchmark process could not produce its sample."""


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def child(mode: str, workload: str, seed: int, deadline: float,
          *extra: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter; return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, str(BENCH_DIR / "worker.py"), mode,
               "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{mode} process for {workload} exited {proc.returncode}"
        )
    return json.loads(lines[-1])


def summarise(spec: dict, setups: list[dict], payload: dict,
              c_ref_s: float) -> dict:
    """End-to-end report of one workload from its processes' samples."""
    reps = payload["reps"]
    failures = judge(reps)
    sim = next(
        (r["sim"] for r, f in zip(reps, failures) if not f), reps[0]["sim"]
    )
    samples = {
        "setup_s": setup_time(setups, c_ref_s),
        "items_per_s": host_rate(reps, failures, c_ref_s),
    }
    measured = {
        "setup_s": samples["setup_s"]["value"],
        "items_per_s": samples["items_per_s"]["value"],
        "peak_rss_mib": payload["peak_rss_mib"],
        **sim,
    }
    return {
        # A metric no passing rep produced reads 0 (and the run failed).
        "metrics": {m["name"]: measured.get(m["name"], 0.0)
                    for m in spec["end_to_end"]},
        "simulated": sim,
        "samples": samples,
        "ops_total": len(reps),
        "ops_failed": sum(bool(f) for f in failures),
        "problems": [p for f in failures for p in f],
    }


def summarise_traced(spec: dict, payload: dict) -> dict:
    """Per-layer report of one workload's traced protocol."""
    reps = payload["reps"]
    failures = judge(reps)
    values = {**reps[0]["sim"], **payload["layers"]}
    return {
        "metrics": {m["name"]: values.get(m["name"], 0)
                    for m in spec["per_layer"]},
        "samples": {},
        "ops_total": len(reps),
        "ops_failed": sum(bool(f) for f in failures),
        "problems": [f"{r['label']}: {p}"
                     for r, f in zip(reps, failures) for p in f],
    }


def measure_workload(spec: dict, config: dict, name: str, seed: int,
                     seconds: float, trace: bool,
                     trace_out: Optional[Path], deadline: float) -> dict:
    """Start the workload's processes one after another; summarise them."""
    if trace:
        extra = ("--trace-out", str(trace_out)) if trace_out else ()
        return summarise_traced(
            spec, child("trace", name, seed, deadline, *extra)
        )
    setups = [
        child("setup", name, seed, deadline)
        for _ in range(config["setup_interpreters"])
    ]
    payload = child("run", name, seed, deadline, "--seconds", str(seconds))
    return summarise(spec, setups, payload,
                     config["reference_loop"]["c_ref_s"])


def render(name: str, report: dict, units: dict[str, str]) -> list[str]:
    """Human-readable lines: every metric with its unit."""
    lines = [f"== {name}"]
    for metric, value in report["metrics"].items():
        line = f"  {metric:<38} {value!r:>24} {units[metric]}"
        sample = report["samples"].get(metric)
        if sample:
            line += (f"   [best of n={sample['n']}; each: "
                     f"q1={sample['q1']:.6g} median={sample['median']:.6g} "
                     f"q3={sample['q3']:.6g}]")
        lines.append(line)
    lines.append(f"  ops_total {report['ops_total']}  "
                 f"ops_failed {report['ops_failed']}")
    return lines


def result_line(reports: dict[str, dict], units: dict[str, str]) -> dict:
    """The run's final JSON object (metric keys gain a workload prefix
    when several workloads ran)."""
    metrics = {}
    for name, report in reports.items():
        for metric, value in report["metrics"].items():
            key = metric if len(reports) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    failed = sum(r["ops_failed"] for r in reports.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["ops_total"] for r in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }


def bench_document(reports: dict[str, dict], seed: int, trace: bool) -> dict:
    """``--json`` output: headlines in the ``BENCH_*.json`` shape.

    Untraced runs add every deterministic simulated metric, so
    ``repro bench-diff`` can show them bit-identical between runs.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from repro.telemetry import config_fingerprint, git_sha

    headlines = {}
    samples = {}
    for name, report in reports.items():
        values = {**report.get("simulated", {}), **report["metrics"]}
        for metric, value in values.items():
            headlines[f"{name}.{metric}"] = value
        for metric, sample in report["samples"].items():
            samples[f"{name}.{metric}"] = sample
    return {
        "suite": "bench-trace" if trace else "bench",
        "git_sha": git_sha(cwd=str(ROOT)),
        "generated_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "config_fingerprint": config_fingerprint(),
        "seed": seed,
        "ops_total": sum(r["ops_total"] for r in reports.values()),
        "ops_failed": sum(r["ops_failed"] for r in reports.values()),
        "headlines": headlines,
        "samples": samples,
    }


def report_run(reports: dict[str, dict], units: dict[str, str],
               seed: int, trace: bool, json_out: Optional[str]) -> int:
    """Print every report and the result line; return the exit code."""
    for name, report in reports.items():
        print("\n".join(render(name, report, units)))
        for problem in report["problems"]:
            print(f"{name}: FAILED {problem}", file=sys.stderr)
    result = result_line(reports, units)
    if len(reports) > 1:
        print(f"all: ops_total {result['attempted']}  "
              f"ops_failed {result['failed']}")
    if json_out:
        with open(json_out, "w") as handle:
            json.dump(bench_document(reports, seed, trace), handle, indent=2)
            handle.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv: Optional[list[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", dest="json_out", metavar="OUT")
    parser.add_argument(
        "--trace-dir", metavar="DIR", type=Path, default=BENCH_DIR / "out",
        help="where a traced run writes <workload>-seed<N>.json Chrome "
             "traces (default: bench/out)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    config = load_config()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    reports = {}
    try:
        for name in names if args.workload == "all" else [args.workload]:
            trace_out = None
            if args.trace:
                args.trace_dir.mkdir(parents=True, exist_ok=True)
                trace_out = args.trace_dir / f"{name}-seed{args.seed}.json"
            reports[name] = measure_workload(
                spec, config, name, args.seed, args.seconds,
                bool(args.trace), trace_out,
                time.monotonic() + RUN_DEADLINE_S,
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return report_run(reports, units, args.seed, bool(args.trace),
                      args.json_out)


if __name__ == "__main__":
    sys.exit(main())
