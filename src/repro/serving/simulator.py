"""Discrete-event serving simulation over the cycle-accurate models.

:func:`simulate_serving` drives a seeded request workload through the
admission queue, the dynamic batcher and the worker pool, advancing a
single event heap (arrivals, device-free times, batching deadlines) and
charging every batch the cycle costs of the Algorithm 1 schedules plus
weight-reload accounting.  The run is exactly reproducible from its
:class:`~repro.config.ServingConfig` and emits:

* a :class:`~repro.serving.metrics.ServingMetrics` summary
  (p50/p95/p99 latency, throughput, SA utilization, rejection rate,
  fault/failure counters);
* per-request :class:`RequestRecord` outcomes;
* Chrome trace spans/counters through the :mod:`repro.core.trace`
  pathway (queue waits, per-device batch runs, queue-depth counter,
  fault retries and device failures on a ``faults`` track).

Fault-aware serving (``ServingConfig.batch_fault_rate`` /
``device_failure_rate``): every batch run draws from an independent
seeded fault stream.  With ``abft_protected`` accelerators a faulted
batch is detected at drain and re-dispatched up to ``max_retries``
times (then *failed*); without ABFT the fault completes silently and
the requests are marked *corrupted*.  Devices fail-stop; a replicated
pool degrades replica by replica, a layer-sharded pipeline dies with
its first lost stage, and requests stranded on a dead pool fail.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..config import AcceleratorConfig, ModelConfig, ServingConfig
from ..core.trace import TraceSpan, counter_events, write_span_trace
from ..errors import ServingError
from ..obs.spans import AttemptSpan, request_trace
from .admission import AdmissionQueue
from .batching import Batch, BatchCostModel, DynamicBatcher
from .devices import WorkerPool
from .metrics import ServingMetrics, compute_metrics
from .workload import Request, poisson_workload, validate_workload

if TYPE_CHECKING:
    from ..obs.spans import TraceCollector
    from ..telemetry.registry import MetricsRegistry

_ARRIVAL, _DEVICE_FREE, _WAKEUP = 0, 1, 2


def attempt_boundary(acc: AcceleratorConfig, outcome) -> Optional[float]:
    """Where compute ends and the exposed reload stall begins.

    Only attributable for single-span (replicated) dispatches whose
    span args carry the run/reload cycle split; layer-sharded
    pipelines interleave stages and return ``None``.
    """
    if len(outcome.spans) != 1:
        return None
    args = outcome.spans[0].args
    cycles = args.get("cycles")
    reload_cycles = args.get("reload_cycles")
    if cycles is None or reload_cycles is None:
        return None
    return outcome.start_us + acc.cycles_to_us(cycles - reload_cycles)


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
    # Generation extras (left at defaults by the prefill-only
    # simulator; repro.decode's mixed runs fill them in).
    decode_tokens: int = 0
    first_token_us: Optional[float] = None

    @property
    def latency_us(self) -> Optional[float]:
        if self.completed_us is None:
            return None
        return self.completed_us - self.request.arrival_us

    @property
    def ttft_us(self) -> Optional[float]:
        """Time to first token (prefill completion), when generating."""
        if self.first_token_us is None:
            return None
        return self.first_token_us - self.request.arrival_us


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
        ``weight_cache_hit_rate`` (cumulative).  Batch samples land at
        completion times, which retries can push past the next
        dispatch, so each track is sorted before export
        (:func:`counter_events` rejects out-of-order samples).
        """
        counters = []
        for name, samples in (
            ("queue_depth", self.depth_samples),
            ("sa_utilization", self.util_samples),
            ("weight_cache_hit_rate", self.cache_samples),
        ):
            if samples:
                counters.extend(counter_events(
                    name, sorted(samples, key=lambda s: s[0])
                ))
        return write_span_trace(
            self.spans, path, counters=counters,
            other_data={
                "completed": self.metrics.completed,
                "throughput_rps": self.metrics.throughput_rps,
                "makespan_us": self.metrics.makespan_us,
            },
        )


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
    queue = AdmissionQueue(serving.queue_capacity, serving.queue_timeout_us)
    batcher = DynamicBatcher(
        acc.seq_len, serving.max_batch_requests, serving.max_wait_us
    )
    pool = WorkerPool(
        serving.num_devices, serving.placement, cost, acc,
        mem=serving.memory,
    )

    records: dict[int, RequestRecord] = {}
    batches: list[Batch] = []
    spans: list[TraceSpan] = []
    latencies: list[float] = []
    util_samples: list[tuple] = []
    cache_samples: list[tuple] = []
    # Independent deterministic fault stream: re-running with the same
    # ServingConfig injects the same batch faults and device failures.
    fault_rng = np.random.default_rng([serving.seed, 0x5EED])
    retried = 0

    def maybe_fail_device(outcome) -> None:
        """Draw a fail-stop for the run that just finished."""
        if serving.device_failure_rate <= 0.0:
            return
        if fault_rng.random() < serving.device_failure_rate:
            victims = outcome.device_ids
            victim = victims[
                int(fault_rng.integers(0, len(victims)))
            ]
            pool.fail_device(victim, outcome.completion_us)
            spans.append(TraceSpan(
                name=f"device{victim}.failure",
                track="faults",
                start_us=outcome.completion_us, duration_us=0.0,
                args={"event": "device_failure", "device": victim},
            ))

    seq = itertools.count()
    heap = []
    for request in requests:
        heapq.heappush(
            heap, (request.arrival_us, _ARRIVAL, next(seq), request)
        )
    remaining_arrivals = len(requests)
    # Time of the one _DEVICE_FREE wakeup in the heap (inf: none).  A
    # busy pool pushes a wakeup only when it frees earlier than that;
    # a later free time is re-examined when the pending wakeup fires.
    device_free_pending = float("inf")

    def attempt(dispatched_us: float, outcome) -> AttemptSpan:
        """Trace view of one dispatch attempt (tracer-only path)."""
        return AttemptSpan(
            dispatched_us, outcome.start_us, outcome.completion_us,
            attempt_boundary(acc, outcome),
            attrs={"devices": ",".join(map(str, outcome.device_ids))},
        )

    def attempt_dispatch(now_us: float) -> None:
        nonlocal retried, device_free_pending
        while len(queue):
            if not pool.pool_alive:
                # Degraded to dead: strand everything still queued.
                for request in queue.pop_front(len(queue), now_us):
                    records[request.req_id].status = "failed"
                    if tracer is not None:
                        tracer.add(request_trace(
                            req_id=request.req_id, status="failed",
                            arrival_us=request.arrival_us, end_us=now_us,
                            attrs={"reason": "pool_dead"},
                        ))
                return
            if not pool.can_accept(now_us):
                free_at = pool.next_free_us()
                if free_at < device_free_pending:
                    device_free_pending = free_at
                    heapq.heappush(
                        heap, (free_at, _DEVICE_FREE, next(seq), None)
                    )
                return
            batch = batcher.try_form(
                queue, now_us, force=(remaining_arrivals == 0)
            )
            if batch is None:
                deadline = min(
                    batcher.next_deadline_us(queue), queue.next_expiry_us()
                )
                if deadline != float("inf"):
                    heapq.heappush(
                        heap,
                        (max(deadline, now_us), _WAKEUP, next(seq), None),
                    )
                return
            outcome = pool.dispatch(batch, now_us)
            batches.append(batch)
            spans.extend(outcome.spans)
            attempts_log = [attempt(now_us, outcome)] \
                if tracer is not None else []
            maybe_fail_device(outcome)
            # Per-batch fault events: with ABFT the checksum syndrome
            # flags the run at drain and the batch is re-dispatched
            # (paying full cycles again) up to max_retries times;
            # without ABFT the fault sails through silently.
            faulted = (
                serving.batch_fault_rate > 0.0
                and fault_rng.random() < serving.batch_fault_rate
            )
            attempts = 0
            while (faulted and acc.abft_protected
                   and attempts < serving.max_retries
                   and pool.pool_alive):
                attempts += 1
                retried += 1
                retry_at = outcome.completion_us
                spans.append(TraceSpan(
                    name=f"batch{batch.batch_id}.retry{attempts}",
                    track="faults",
                    start_us=retry_at, duration_us=0.0,
                    args={"event": "abft_retry", "attempt": attempts},
                ))
                outcome = pool.dispatch(batch, retry_at)
                spans.extend(outcome.spans)
                if tracer is not None:
                    attempts_log.append(attempt(retry_at, outcome))
                maybe_fail_device(outcome)
                faulted = fault_rng.random() < serving.batch_fault_rate
            # Counter-track samples at the batch's final completion:
            # the batch's useful-MAC share (occupancy-discounted) and
            # the pool's cumulative weight-cache hit rate.
            util_samples.append((
                outcome.completion_us,
                (cost.ideal_cycles / cost.run_cycles)
                * (batch.total_tokens / acc.seq_len),
            ))
            lookups = pool.weight_cache_hits + pool.weight_cache_misses
            if lookups:
                cache_samples.append((
                    outcome.completion_us,
                    pool.weight_cache_hits / lookups,
                ))
            detected_unrecovered = faulted and acc.abft_protected
            for request in batch.requests:
                record = records[request.req_id]
                record.batch_id = batch.batch_id
                record.dispatched_us = now_us
                if detected_unrecovered:
                    record.status = "failed"
                    if tracer is not None:
                        tracer.add(request_trace(
                            req_id=request.req_id, status="failed",
                            arrival_us=request.arrival_us,
                            dispatched_us=now_us,
                            attempts=tuple(attempts_log),
                            attrs={"batch": batch.batch_id,
                                   "reason": "retries_exhausted"},
                        ))
                    continue
                record.status = "completed"
                record.completed_us = outcome.completion_us
                record.corrupted = faulted
                latencies.append(record.latency_us)
                if tracer is not None:
                    tracer.add(request_trace(
                        req_id=request.req_id, status="completed",
                        arrival_us=request.arrival_us,
                        dispatched_us=now_us,
                        attempts=tuple(attempts_log),
                        attrs={"batch": batch.batch_id,
                               "corrupted": faulted},
                    ))
                wait = now_us - request.arrival_us
                if wait > 0:
                    spans.append(TraceSpan(
                        name=f"req{request.req_id}.wait",
                        track="queue",
                        start_us=request.arrival_us, duration_us=wait,
                        args={"seq_len": request.seq_len,
                              "batch": batch.batch_id},
                    ))

    while heap:
        now_us, kind, _, payload = heapq.heappop(heap)
        if kind == _DEVICE_FREE and now_us >= device_free_pending:
            device_free_pending = float("inf")
        if kind == _ARRIVAL:
            remaining_arrivals -= 1
            record = RequestRecord(payload, "rejected")
            records[payload.req_id] = record
            if queue.offer(payload, now_us):
                record.status = "queued"
                if serving.queue_timeout_us != float("inf"):
                    heapq.heappush(
                        heap,
                        (payload.arrival_us + serving.queue_timeout_us,
                         _WAKEUP, next(seq), None),
                    )
            elif tracer is not None:
                tracer.add(request_trace(
                    req_id=payload.req_id, status="rejected",
                    arrival_us=payload.arrival_us,
                ))
        for request in queue.expire(now_us):
            records[request.req_id].status = "expired"
            if tracer is not None:
                tracer.add(request_trace(
                    req_id=request.req_id, status="expired",
                    arrival_us=request.arrival_us,
                    end_us=request.arrival_us + serving.queue_timeout_us,
                ))
        attempt_dispatch(now_us)

    if any(r.status == "queued" for r in records.values()):
        raise ServingError("simulation ended with requests still queued")
    failed = sum(r.status == "failed" for r in records.values())
    corrupted = sum(
        r.corrupted for r in records.values() if r.status == "completed"
    )

    first_arrival = requests[0].arrival_us if requests else 0.0
    last_completion = max(
        (r.completed_us for r in records.values()
         if r.completed_us is not None),
        default=first_arrival,
    )
    makespan_us = last_completion - first_arrival
    if serving.placement != "replicate":
        run_cycles = cost.compute_cycles
    elif pool.mem is None:
        run_cycles = cost.run_cycles
    else:
        # Miss-driven reloads vary per run (warm caches shrink them);
        # charge the mean exposed reload for the utilization ratio.
        dispatches = sum(d.batches_run for d in pool.devices)
        run_cycles = cost.compute_cycles + (
            pool.reload_stall_cycles // dispatches if dispatches else 0
        )
    metrics = compute_metrics(
        latencies_us=latencies,
        batch_sizes=[b.num_requests for b in batches],
        batch_tokens=[b.total_tokens for b in batches],
        seq_len=acc.seq_len,
        offered=queue.offered,
        rejected=queue.rejected_full,
        expired=queue.expired,
        makespan_us=makespan_us,
        device_busy_fraction=pool.busy_fraction(makespan_us),
        ideal_cycles_per_run=cost.ideal_cycles,
        run_cycles=run_cycles,
        num_devices=pool.num_devices,
        depth_samples=queue.depth_samples,
        failed=failed,
        retried=retried,
        corrupted=corrupted,
        device_failures=pool.device_failures,
        weight_cache_hits=pool.weight_cache_hits,
        weight_cache_misses=pool.weight_cache_misses,
        reload_stall_cycles=pool.reload_stall_cycles,
        registry=registry,
    )
    ordered = [records[r.req_id] for r in requests]
    return ServingResult(
        serving=serving,
        metrics=metrics,
        records=ordered,
        batches=batches,
        spans=spans,
        depth_samples=list(queue.depth_samples),
        util_samples=util_samples,
        cache_samples=cache_samples,
    )
