"""Serving simulation: one pool of accelerators on the event kernel.

:func:`simulate_serving` runs a seeded request workload through one
admission queue, dynamic batcher and worker pool on the
:class:`~repro.serving.kernel.EventKernel`; every batch costs the cycle
counts of the Algorithm 1 schedules plus weight-reload accounting.  Its
hooks: ``route`` sends every arrival to the one pool; ``dropped``
records a rejected, expired or stranded request; ``dispatched`` writes
records, latencies, counter samples and queue-wait spans at dispatch,
since a batch's completion time is known then, so no completion events
are pushed.

The run is exactly reproducible from its
:class:`~repro.config.ServingConfig` and emits a
:class:`~repro.serving.metrics.ServingMetrics` summary, per-request
:class:`RequestRecord` outcomes, and Chrome trace spans/counters (queue
waits, per-device batch runs, queue depth, and fault retries and device
failures on a ``faults`` track).

Faults (``batch_fault_rate`` / ``device_failure_rate``): the pool
carries the config's rates and its own seeded fault stream.  With
``abft_protected`` accelerators a faulted batch re-runs up to
``max_retries`` times (then *failed*); without ABFT it completes
silently *corrupted*.  Devices fail-stop: a replicated pool degrades
replica by replica, a layer-sharded pipeline dies with its first lost
stage, and requests stranded on a dead pool fail.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..config import AcceleratorConfig, ModelConfig, ServingConfig
from ..core.trace import TraceSpan, counter_tracks, write_span_trace
from ..errors import ServingError
from ..obs.spans import request_trace
from .admission import AdmissionQueue
from .batching import Batch, BatchCostModel, DynamicBatcher
from .devices import WorkerPool
from .kernel import EventKernel, PoolState, attempt_span
from .metrics import ServingMetrics, compute_metrics
from .workload import Request, poisson_workload, validate_workload

if TYPE_CHECKING:
    from ..obs.spans import TraceCollector
    from ..telemetry.registry import MetricsRegistry


@dataclass
class RequestRecord:
    """Final outcome of one request.

    ``status`` is ``"completed"``, ``"rejected"`` (queue full on
    arrival), ``"expired"`` (timed out while queued) or ``"failed"``
    (the batch kept faulting past the retry budget, or the request was
    stranded when the worker pool died).  A completed request whose
    batch took an *undetected* fault additionally carries
    ``corrupted=True`` — the silent-corruption outcome ABFT exists to
    prevent.
    """

    request: Request
    status: str
    batch_id: Optional[int] = None
    dispatched_us: Optional[float] = None
    completed_us: Optional[float] = None
    corrupted: bool = False

    @property
    def latency_us(self) -> Optional[float]:
        if self.completed_us is None:
            return None
        return self.completed_us - self.request.arrival_us


@dataclass
class ServingResult:
    """Everything one simulated run produced."""

    serving: ServingConfig
    metrics: ServingMetrics
    records: list[RequestRecord]
    batches: list[Batch]
    spans: list[TraceSpan] = field(default_factory=list)
    depth_samples: list[tuple] = field(default_factory=list)
    util_samples: list[tuple] = field(default_factory=list)
    cache_samples: list[tuple] = field(default_factory=list)

    def write_trace(self, path: str) -> int:
        """Write the run's spans + counter tracks as Chrome JSON.

        Counter tracks: ``queue_depth`` plus, when batches ran,
        ``sa_utilization`` (per-batch useful-MAC share) and
        ``weight_cache_hit_rate`` (cumulative).
        """
        counters = counter_tracks((
            ("queue_depth", self.depth_samples),
            ("sa_utilization", self.util_samples),
            ("weight_cache_hit_rate", self.cache_samples),
        ))
        return write_span_trace(
            self.spans, path, counters=counters,
            other_data={
                "completed": self.metrics.completed,
                "throughput_rps": self.metrics.throughput_rps,
                "makespan_us": self.metrics.makespan_us,
            },
        )


class _ServingRun(EventKernel):
    """:func:`simulate_serving`'s hooks over its one pool."""

    def __init__(self, requests, pool, cost, tracer) -> None:
        super().__init__(requests, [pool])
        self.pool, self.cost, self.tracer = pool, cost, tracer
        self.acc = pool.workers.acc
        self.records: dict[int, RequestRecord] = {}
        self.batches: list[Batch] = []
        self.latencies: list[float] = []
        self.util_samples: list[tuple] = []
        self.cache_samples: list[tuple] = []

    def route(self, request: Request, now_us: float) -> PoolState:
        self.records[request.req_id] = RequestRecord(request, "queued")
        return self.pool

    def dropped(self, request, pool, now_us, status) -> None:
        self.records[request.req_id].status = status
        if self.tracer is not None:
            self.tracer.add(request_trace(
                req_id=request.req_id, status=status,
                arrival_us=request.arrival_us,
                end_us=(request.arrival_us + pool.queue.timeout_us
                        if status == "expired" else
                        now_us if status == "failed" else None),
                attrs={"reason": "pool_dead"} if status == "failed" else None,
            ))

    def dispatched(self, pool, batch, now_us, attempts, failed,
                   corrupted) -> None:
        self.batches.append(batch)
        completion_us = attempts[-1][1].completion_us
        workers = pool.workers
        # Counter-track samples at the batch's final completion: the
        # batch's useful-MAC share (occupancy-discounted) and the pool's
        # cumulative weight-cache hit rate.
        self.util_samples.append((
            completion_us,
            (self.cost.ideal_cycles / self.cost.run_cycles)
            * (batch.total_tokens / self.acc.seq_len),
        ))
        lookups = workers.weight_cache_hits + workers.weight_cache_misses
        if lookups:
            self.cache_samples.append(
                (completion_us, workers.weight_cache_hits / lookups)
            )
        tracer = self.tracer
        if tracer is not None:
            spans = tuple(attempt_span(self.acc, at, o) for at, o in attempts)
            attrs = ({"batch": batch.batch_id, "reason": "retries_exhausted"}
                     if failed else
                     {"batch": batch.batch_id, "corrupted": corrupted})
        status = "failed" if failed else "completed"
        for request in batch.requests:
            record = self.records[request.req_id]
            record.batch_id = batch.batch_id
            record.dispatched_us = now_us
            record.status = status
            if tracer is not None:
                tracer.add(request_trace(
                    req_id=request.req_id, status=status,
                    arrival_us=request.arrival_us, dispatched_us=now_us,
                    attempts=spans, attrs=attrs,
                ))
            if failed:
                continue
            record.completed_us = completion_us
            record.corrupted = corrupted
            self.latencies.append(record.latency_us)
            wait = now_us - request.arrival_us
            if wait > 0:
                self.spans.append(TraceSpan(
                    name=f"req{request.req_id}.wait", track="queue",
                    start_us=request.arrival_us, duration_us=wait,
                    args={"seq_len": request.seq_len,
                          "batch": batch.batch_id},
                ))


def simulate_serving(
    model: ModelConfig,
    acc: AcceleratorConfig,
    serving: Optional[ServingConfig] = None,
    workload: Optional[Sequence[Request]] = None,
    registry: Optional["MetricsRegistry"] = None,
    tracer: Optional["TraceCollector"] = None,
) -> ServingResult:
    """Simulate serving ``workload`` (default: seeded Poisson traffic).

    Args:
        model / acc: The model and accelerator under test; every batch
            costs one full-model run of the cycle-level schedules.
        serving: Queue/batching/pool parameters (default
            :class:`ServingConfig`).
        workload: Explicit request list; overrides the generated one.
        registry: Optional metrics registry; the run's serving series
            (request outcomes, latency histogram, queue-depth samples,
            cache lookups) are recorded into it for export.
        tracer: Optional :class:`~repro.obs.spans.TraceCollector`;
            every request gets one causal span tree (queue wait,
            device wait, compute, memsys stall, retries, terminal
            markers) whose hops sum exactly to its latency.  Strictly
            passive — outputs are bit-identical with or without it.
    """
    serving = ServingConfig() if serving is None else serving
    if serving.max_len > acc.seq_len and workload is None:
        raise ServingError(
            f"serving max_len {serving.max_len} exceeds the SA's "
            f"{acc.seq_len} rows"
        )
    requests = (
        list(workload) if workload is not None
        else poisson_workload(serving)
    )
    validate_workload(requests, acc.seq_len)

    cost = BatchCostModel(
        model, acc, double_buffered_weights=serving.double_buffered_weights,
        compression=serving.compression,
    )
    workers = WorkerPool(
        serving.num_devices, serving.placement, cost, acc,
        mem=serving.memory,
    )
    pool = PoolState(
        AdmissionQueue(serving.queue_capacity, serving.queue_timeout_us),
        DynamicBatcher(
            acc.seq_len, serving.max_batch_requests, serving.max_wait_us
        ),
        workers,
        batch_fault_rate=serving.batch_fault_rate,
        device_failure_rate=serving.device_failure_rate,
        max_retries=serving.max_retries,
        # Independent deterministic fault stream: re-running with the
        # same ServingConfig injects the same faults and failures.
        fault_rng=np.random.default_rng([serving.seed, 0x5EED]),
    )
    run = _ServingRun(requests, pool, cost, tracer)
    makespan_us = run.run()

    records = run.records
    failed = sum(r.status == "failed" for r in records.values())
    corrupted = sum(
        r.corrupted for r in records.values() if r.status == "completed"
    )
    if serving.placement != "replicate":
        run_cycles = cost.compute_cycles
    elif workers.mem is None:
        run_cycles = cost.run_cycles
    else:
        # Miss-driven reloads vary per run (warm caches shrink them);
        # charge the mean exposed reload for the utilization ratio.
        dispatches = sum(d.batches_run for d in workers.devices)
        run_cycles = cost.compute_cycles + (
            workers.reload_stall_cycles // dispatches if dispatches else 0
        )
    queue = pool.queue
    metrics = compute_metrics(
        latencies_us=run.latencies,
        batch_sizes=[b.num_requests for b in run.batches],
        batch_tokens=[b.total_tokens for b in run.batches],
        seq_len=acc.seq_len,
        offered=queue.offered,
        rejected=queue.rejected_full,
        expired=queue.expired,
        makespan_us=makespan_us,
        device_busy_fraction=workers.busy_fraction(makespan_us),
        ideal_cycles_per_run=cost.ideal_cycles,
        run_cycles=run_cycles,
        num_devices=workers.num_devices,
        depth_samples=queue.depth_samples,
        failed=failed,
        retried=pool.retried,
        corrupted=corrupted,
        device_failures=workers.device_failures,
        weight_cache_hits=workers.weight_cache_hits,
        weight_cache_misses=workers.weight_cache_misses,
        reload_stall_cycles=workers.reload_stall_cycles,
        registry=registry,
    )
    return ServingResult(
        serving=serving,
        metrics=metrics,
        records=[records[r.req_id] for r in requests],
        batches=run.batches,
        spans=run.spans,
        depth_samples=list(queue.depth_samples),
        util_samples=run.util_samples,
        cache_samples=run.cache_samples,
    )
