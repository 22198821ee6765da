"""Serving simulation: one pool of accelerators on the event kernel.

:func:`simulate_serving` runs a seeded request workload through one
admission queue, dynamic batcher and worker pool on the
:class:`~repro.serving.kernel.EventKernel`; every batch costs the cycle
counts of the Algorithm 1 schedules plus weight-reload accounting.  It
needs none of the kernel's hooks: the default route sends every arrival
to the one pool, and a batch's completion time is known at dispatch, so
no completion events are pushed.  Records, latencies, counter samples,
spans and request traces are views of the kernel log
(:mod:`repro.serving.views`).

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
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..config import AcceleratorConfig, ModelConfig, ServingConfig
from ..core.trace import TraceSpan, counter_tracks, write_span_trace
from ..errors import ServingError
from .admission import AdmissionQueue
from .batching import Batch, BatchCostModel, DynamicBatcher
from .devices import WorkerPool
from .kernel import Dispatch, EventKernel, PoolState
from .metrics import ServingMetrics, compute_metrics
from .views import (
    RequestRecord,
    add_request_traces,
    cache_totals,
    chrome_spans,
    hit_rate_samples,
    serving_records,
    util_samples,
)
from .workload import Request, poisson_workload, validate_workload

if TYPE_CHECKING:
    from ..obs.spans import TraceCollector
    from ..telemetry.registry import MetricsRegistry


@dataclass
class ServingResult:
    """Everything one simulated run produced.

    ``log`` is the kernel's run log; ``spans`` are drawn from it on
    first read.
    """

    serving: ServingConfig
    metrics: ServingMetrics
    records: list[RequestRecord]
    batches: list[Batch]
    log: list = field(repr=False, compare=False)
    depth_samples: list[tuple] = field(default_factory=list)
    util_samples: list[tuple] = field(default_factory=list)
    cache_samples: list[tuple] = field(default_factory=list)

    @cached_property
    def spans(self) -> list[TraceSpan]:
        """The run's Chrome spans, drawn from ``log`` by
        :func:`~repro.serving.views.chrome_spans`."""
        return chrome_spans(self.log)

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
            cache lookups) are recorded into it for export.  The
            summary never reads it back, so a registry shared by
            several runs holds their union while each run's metrics
            stay its own.
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

    cost = BatchCostModel(model, acc, compression=serving.compression)
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
    run = EventKernel(requests, [pool])
    makespan_us = run.run()
    log = run.log
    if tracer is not None:
        add_request_traces(tracer, log)

    records, latencies = serving_records(requests, log)
    dispatches = [e for e in log if type(e) is Dispatch]
    batches = [e.batch for e in dispatches]
    failed = sum(r.status == "failed" for r in records)
    corrupted = sum(r.corrupted for r in records if r.status == "completed")
    hits, misses, stall = cache_totals(dispatches)
    # The summary charges the mean run's cycles: compute plus the flat
    # or mean miss-driven reload (compute alone for a sharded pipeline).
    cycles = [o.cycles for e in dispatches for o in e.runs
              if o.cycles is not None]
    run_cycles = sum(cycles) // len(cycles) if cycles else cost.compute_cycles
    queue = pool.queue
    metrics = compute_metrics(
        latencies_us=latencies,
        batch_sizes=[b.num_requests for b in batches],
        batch_tokens=[b.total_tokens for b in batches],
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
        retried=sum(len(e.runs) - 1 for e in dispatches),
        corrupted=corrupted,
        device_failures=workers.device_failures,
        weight_cache_hits=hits,
        weight_cache_misses=misses,
        reload_stall_cycles=stall,
        registry=registry,
    )
    return ServingResult(
        serving=serving,
        metrics=metrics,
        records=records,
        batches=batches,
        log=log,
        depth_samples=list(queue.depth_samples),
        util_samples=util_samples(
            dispatches, cost.ideal_cycles, cost.compute_cycles, acc.seq_len
        ),
        cache_samples=hit_rate_samples(dispatches),
    )
