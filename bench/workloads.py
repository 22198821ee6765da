"""The five benchmark workloads: seeded inputs, one timed call, checks.

Each workload builds its inputs from a seed with the repo's own
generators, then passes them to one public entry point.  Calls go
through the package attribute (``serving.simulate_serving``, not a
name imported into this module) so the per-layer tracer in
:mod:`layers`, which patches ``repro.*`` attributes, sees them too.

``size`` scales the workload (1.0 is the benchmark; the self-tests run
at about 0.02) without changing the code path.

Every call returns an :class:`Outcome`: how many items it simulated,
its deterministic simulated metrics, and the checks it failed.  The
checks are that every request has exactly one terminal status, that
``offered = completed + shed + rejected + expired + failed`` both in
the records and in the simulator's own summary, that no metric is NaN,
and, for the sweep, that every event-timeline schedule equals its
closed form and the paper point reads 21,578 / 39,052 cycles.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import statistics
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from measure import nearest_rank

import repro.cluster as cluster
import repro.decode as decode
import repro.serving as serving
from repro.compress import cycle_model as compress_cycle_model
from repro.compress import schedule as compress_schedule
from repro.config import (
    TABLE1_PRESETS,
    AcceleratorConfig,
    DecodeConfig,
    ServingConfig,
    circulant_spec,
    nm_sparse_spec,
    paper_accelerator,
    transformer_base,
)
from repro.core import cycle_model, scheduler
from repro.memsys import memory_preset

TERMINAL = ("completed", "shed", "rejected", "expired", "failed")

#: Paper §V-B ResBlock totals at Transformer-base on the 64x64 SA.
PAPER_MHA_CYCLES = 21_578
PAPER_FFN_CYCLES = 39_052


@dataclass
class Outcome:
    """What one timed call produced."""

    items: int
    sim: dict[str, float]
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``run(inputs, tracer=None, registry=None)`` makes the timed call;
    the optional observability sinks are passed straight to the entry
    point so the traced run can price them.  ``observed`` marks the
    workloads whose traced run does so.
    """

    name: str
    build: Callable[[int, float], Any]
    run: Callable[..., Outcome]
    observed: bool = False


def _scaled(count: int, size: float) -> int:
    return max(1, round(count * size))


def _check_finite(sim: dict[str, float],
                  summary: object = None) -> list[str]:
    """NaN/inf check over the metrics and the summary's float fields."""
    values = dict(sim)
    for f in dataclasses.fields(summary) if summary is not None else ():
        value = getattr(summary, f.name)
        if isinstance(value, float):
            values[f"summary.{f.name}"] = value
    return [
        f"{name} is not finite" for name, value in values.items()
        if not math.isfinite(value)
    ]


def _check_records(ids: list[int], statuses: list[tuple[int, str]],
                   reported: dict[str, int]) -> list[str]:
    """Terminal-status and conservation checks over one run's records.

    ``reported`` holds the simulator's own outcome counts, including
    ``offered``; both they and the record tallies must account for
    every offered request exactly once.
    """
    problems = []
    seen = Counter(req_id for req_id, _ in statuses)
    missing = [i for i in ids if seen[i] == 0]
    repeated = [i for i, n in seen.items() if n > 1]
    unknown = set(seen) - set(ids)
    if missing:
        problems.append(f"{len(missing)} requests have no record")
    if repeated:
        problems.append(f"{len(repeated)} requests have several records")
    if unknown:
        problems.append(f"{len(unknown)} records name no offered request")
    tally = Counter(status for _, status in statuses)
    stray = set(tally) - set(TERMINAL)
    if stray:
        problems.append(f"non-terminal statuses {sorted(stray)}")
    offered = len(ids)
    if reported["offered"] != offered:
        problems.append(
            f"summary offers {reported['offered']}, inputs hold {offered}"
        )
    outcomes = sum(v for k, v in reported.items() if k != "offered")
    if outcomes != reported["offered"]:
        problems.append(
            f"summary outcomes sum to {outcomes}, offered "
            f"{reported['offered']}"
        )
    for status, count in reported.items():
        if status != "offered" and tally[status] != count:
            problems.append(
                f"summary counts {count} {status}, records {tally[status]}"
            )
    return problems


def _latency_metrics(latencies: list[float], offered: int,
                     tail_pct: float) -> dict[str, float]:
    """End-to-end simulated metrics over the completed requests."""
    if not latencies:
        return dict.fromkeys(
            ("completed_frac", "latency_mean_us", "latency_tail_us",
             "sim.latency_p50_us"), 0.0,
        )
    return {
        "completed_frac": len(latencies) / offered,
        "latency_mean_us": statistics.fmean(latencies),
        "latency_tail_us": nearest_rank(latencies, tail_pct),
        "sim.latency_p50_us": nearest_rank(latencies, 50),
    }


# ----------------------------------------------------------------------
# serving-overload / serving-memsys
# ----------------------------------------------------------------------
def _serving_run(inputs, tracer=None, registry=None) -> Outcome:
    config, acc, requests = inputs
    result = serving.simulate_serving(
        transformer_base(), acc, config, workload=requests,
        tracer=tracer, registry=registry,
    )
    records = result.records
    m = result.metrics
    completed = [r for r in records if r.status == "completed"]
    run_cycles = [
        s.args["cycles"] for s in result.spans if "cycles" in s.args
    ]
    sim = {
        **_latency_metrics(
            [r.latency_us for r in completed], len(requests), 99
        ),
        "sim.throughput_rps": m.throughput_rps,
        "core.run_cycles": (
            statistics.fmean(run_cycles) if run_cycles else 0.0
        ),
        "core.sa_utilization": m.sa_utilization,
        "serving.batching.occupancy": m.occupancy,
        "serving.batching.mean_batch_size": m.mean_batch_size,
        "serving.admission.queue_wait_p99_us": nearest_rank(
            [r.dispatched_us - r.request.arrival_us for r in completed]
            or [0.0], 99,
        ),
        "serving.admission.rejected_frac": m.rejected / len(requests),
        "serving.devices.busy_fraction": m.device_busy_fraction,
        "memsys.reload_stall_cycles": m.reload_stall_cycles,
        "memsys.weight_cache_hit_rate": m.weight_cache_hit_rate,
        "reliability.retried": m.retried,
    }
    problems = _check_records(
        [r.req_id for r in requests],
        [(r.request.req_id, r.status) for r in records],
        {"offered": m.offered, "completed": m.completed,
         "rejected": m.rejected, "expired": m.expired, "failed": m.failed},
    )
    return Outcome(len(requests), sim, problems + _check_finite(sim, m))


def _overload_build(seed: int, size: float):
    # 800 rps is ~2.3x the ~345 rps one device sustains: the backlog
    # keeps the device busy, so every arrival takes the busy-pool
    # wakeup path of the event loop.
    config = ServingConfig(
        arrival_rate_rps=800.0, num_requests=_scaled(3000, size),
        min_len=8, max_len=32, max_batch_requests=8,
        max_wait_us=1000.0, queue_capacity=64, seed=seed,
    )
    return config, paper_accelerator(), serving.poisson_workload(config)


def _memsys_build(seed: int, size: float):
    # ~72% busy: the loop stays linear and host time goes to pricing
    # each dispatch through the weight cache and the DRAM link.
    config = ServingConfig(
        arrival_rate_rps=250.0, num_requests=_scaled(20_000, size),
        min_len=8, max_len=64, num_devices=2,
        batch_fault_rate=0.02, memory=memory_preset("ddr4-2400"),
        seed=seed,
    )
    acc = paper_accelerator().with_updates(abft_protected=True)
    return config, acc, serving.poisson_workload(config)


# ----------------------------------------------------------------------
# cluster-fleet
# ----------------------------------------------------------------------
def _cluster_build(seed: int, size: float):
    config = cluster.pinned_cluster(
        requests_per_tenant=_scaled(8000, size), seed=seed
    )
    return config, cluster.cluster_workload(config)


def _cluster_run(inputs, tracer=None, registry=None) -> Outcome:
    config, requests = inputs
    result = cluster.simulate_cluster(
        transformer_base(), config, workload=requests,
        tracer=tracer, registry=registry,
    )
    records = result.records
    m = result.metrics
    completed = [r for r in records if r.status == "completed"]
    sim = {
        **_latency_metrics(
            [r.latency_us for r in completed], len(requests), 99
        ),
        "sim.throughput_rps": m.throughput_rps,
        "sim.slo_attainment": (
            sum(r.attained for r in records) / len(requests)
        ),
        "cluster.router.shed": sum(r.status == "shed" for r in records),
        "cluster.autoscaler.actions": len(result.actions),
        "cluster.pools.busy_fraction_max": max(
            p.busy_fraction for p in m.pools.values()
        ),
    }
    problems = _check_records(
        [r.req_id for r in requests],
        [(r.request.req_id, r.status) for r in records],
        {"offered": m.offered, "completed": m.completed, "shed": m.shed,
         "rejected": m.rejected, "expired": m.expired},
    )
    return Outcome(len(requests), sim, problems + _check_finite(sim, m))


# ----------------------------------------------------------------------
# decode-longctx
# ----------------------------------------------------------------------
def _decode_build(seed: int, size: float):
    # 30 streams/s: at 60/s the two devices saturate in bursts and the
    # latency tail swings by 15-50% from one seed to the next.
    config = DecodeConfig(
        policy="prefill_chunk", num_devices=2,
        memory=memory_preset("ddr4-2400"),
        num_streams=_scaled(400, size), arrival_rate_rps=30.0,
        prefill_len_min=96, prefill_len_max=512,
        decode_tokens_min=8, decode_tokens_max=64, seed=seed,
    )
    return config, decode.sample_decode_streams(config)


def _decode_run(inputs, tracer=None, registry=None) -> Outcome:
    config, streams = inputs
    result = decode.simulate_decode(
        transformer_base(), paper_accelerator(), config, streams=streams,
        tracer=tracer, registry=registry,
    )
    records = result.records
    m = result.metrics
    completed = [r for r in records if r.status == "completed"]
    ttft = [r.ttft_us for r in completed] or [0.0]
    sim = {
        # p95: 400 streams leave only 4 samples beyond a p99.
        **_latency_metrics(
            [r.completed_us - r.stream.arrival_us for r in completed],
            len(streams), 95,
        ),
        "sim.tokens_per_s": m.tokens_per_s,
        "decode.ttft_p50_us": nearest_rank(ttft, 50),
        "decode.ttft_p95_us": nearest_rank(ttft, 95),
        "decode.kv_hit_rate": m.kv_hit_rate,
        "decode.kv_refetch_cycles": m.kv_refetch_cycles,
        "decode.prefill_chunks": m.prefill_chunks,
        "decode.decode_batches": m.decode_batches,
    }
    problems = _check_records(
        [s.stream_id for s in streams],
        [(r.stream.stream_id, r.status) for r in records],
        {"offered": m.offered, "completed": m.completed,
         "rejected": m.rejected},
    )
    # Items are emitted tokens (each stream's first plus its decode
    # steps): host time follows them, not the stream count.
    tokens = sum(s.decode_tokens + 1 for s in streams)
    return Outcome(tokens, sim, problems + _check_finite(sim, m))


# ----------------------------------------------------------------------
# schedule-sweep
# ----------------------------------------------------------------------
MEMORIES = (None, "ddr4-2400", "lpddr4-2133")
FUSED_LENGTHS = (128, 256, 512, 1024)


@dataclass(frozen=True)
class SweepInputs:
    """Design points of one sweep pass (``spec`` None = dense)."""

    grid: tuple[tuple[Any, AcceleratorConfig, Any, Any], ...]
    fused: tuple[tuple[Any, int, Any], ...]


def _sweep_build(seed: int, size: float) -> SweepInputs:
    # The seed draws the two weight_load_cycles levels: the event
    # count, and so the host work, is the same for every level, while
    # every simulated total moves with it.
    rng = np.random.default_rng(seed)
    levels = (int(rng.integers(0, 8)), int(rng.integers(8, 16)))
    memories = [None if m is None else memory_preset(m) for m in MEMORIES]
    specs = (None, circulant_spec(8), nm_sparse_spec(2, 4))
    grid = [
        (model, AcceleratorConfig(
            seq_len=rows, pass_overlap=overlap,
            single_ported_buffers=single, abft_protected=abft,
            weight_load_cycles=wl,
        ), mem, spec)
        for model, rows, overlap, single, abft, wl, mem, spec
        in itertools.product(
            TABLE1_PRESETS.values(), (16, 32, 64, 128), (True, False),
            (True, False), (False, True), levels, memories, specs,
        )
    ]
    fused = [
        (model, s, mem)
        for model, mem, s in itertools.product(
            TABLE1_PRESETS.values(), memories, FUSED_LENGTHS
        )
    ]
    stride = max(1, round(1 / size))
    return SweepInputs(tuple(grid[::stride]), tuple(fused[::stride]))


def _sweep_point(model, acc, mem, spec, registry):
    """Event-timeline and closed-form totals of one point's two blocks."""
    if spec is None:
        return (
            scheduler.schedule_mha(model, acc, mem, registry=registry),
            cycle_model.mha_cycle_breakdown(model, acc, mem),
            scheduler.schedule_ffn(model, acc, mem, registry=registry),
            cycle_model.ffn_cycle_breakdown(model, acc, mem),
        )
    return (
        compress_schedule.schedule_compressed_mha(
            model, acc, spec, mem, registry=registry
        ),
        compress_cycle_model.compressed_mha_breakdown(model, acc, spec, mem),
        compress_schedule.schedule_compressed_ffn(
            model, acc, spec, mem, registry=registry
        ),
        compress_cycle_model.compressed_ffn_breakdown(model, acc, spec, mem),
    )


def _sweep_run(inputs: SweepInputs, tracer=None, registry=None) -> Outcome:
    problems = []
    latencies = []
    total_cycles = 0
    agreeing = 0
    for model, acc, mem, spec in inputs.grid:
        mha, mha_cf, ffn, ffn_cf = _sweep_point(model, acc, mem, spec,
                                                registry)
        for timeline, closed in ((mha, mha_cf), (ffn, ffn_cf)):
            latencies.append(timeline.total_cycles / acc.clock_mhz)
            total_cycles += timeline.total_cycles
            if timeline.total_cycles == closed.total_cycles:
                agreeing += 1
            else:
                problems.append(
                    f"{model.name} {timeline.block} rows={acc.seq_len}: "
                    f"timeline {timeline.total_cycles} != closed form "
                    f"{closed.total_cycles}"
                )
    acc = paper_accelerator()
    for model, s, mem in inputs.fused:
        timeline = decode.schedule_fused_mha(
            model, acc, s, mem, registry=registry
        )
        closed = decode.fused_mha_breakdown(model, acc, s, mem)
        latencies.append(timeline.total_cycles / acc.clock_mhz)
        total_cycles += timeline.total_cycles
        if timeline.total_cycles == closed.total_cycles:
            agreeing += 1
        else:
            problems.append(
                f"{model.name} fused s={s}: timeline "
                f"{timeline.total_cycles} != closed form "
                f"{closed.total_cycles}"
            )
    base = transformer_base()
    mha = scheduler.schedule_mha(base, acc, registry=registry).total_cycles
    ffn = scheduler.schedule_ffn(base, acc, registry=registry).total_cycles
    fused64 = decode.schedule_fused_mha(
        base, acc, acc.seq_len, registry=registry
    ).total_cycles
    if (mha, ffn) != (PAPER_MHA_CYCLES, PAPER_FFN_CYCLES):
        problems.append(
            f"paper point reads {mha} / {ffn}, expected "
            f"{PAPER_MHA_CYCLES} / {PAPER_FFN_CYCLES}"
        )
    if fused64 != mha:
        problems.append(f"fused s=64 reads {fused64}, schedule_mha {mha}")
    schedules = len(latencies)
    sim = {
        "completed_frac": agreeing / schedules,
        "latency_mean_us": statistics.fmean(latencies),
        "latency_tail_us": nearest_rank(latencies, 99),
        "sim.latency_p50_us": nearest_rank(latencies, 50),
        "sim.mha_cycles": mha,
        "sim.ffn_cycles": ffn,
        "sim.sweep_cycles": total_cycles,
    }
    # Items: every schedule and closed form built, paper checks included.
    items = 4 * len(inputs.grid) + 2 * len(inputs.fused) + 3
    return Outcome(items, sim, problems + _check_finite(sim))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("serving-overload", _overload_build, _serving_run),
        Workload("serving-memsys", _memsys_build, _serving_run,
                 observed=True),
        Workload("cluster-fleet", _cluster_build, _cluster_run,
                 observed=True),
        Workload("decode-longctx", _decode_build, _decode_run,
                 observed=True),
        Workload("schedule-sweep", _sweep_build, _sweep_run),
    )
}


def get(name: str) -> Workload:
    """Look up a workload by name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
