"""Discrete-event cluster simulation: router + pools + autoscaler.

:func:`simulate_cluster` drives a merged multi-tenant workload through
the SLO-aware router into N heterogeneous pools — each one an existing
:mod:`repro.serving` admission queue + dynamic batcher + worker pool —
while a threshold autoscaler grows and drains replicate pools from the
live telemetry signals.  One event heap orders everything:

* ``ARRIVAL`` — a request reaches the router, which picks a pool (or
  sheds under the ``"slo"`` policy) and the pool's queue admits or
  rejects it;
* ``COMPLETION`` — a dispatched batch finishes; latencies, SLO
  attainment and the router's per-pool EWMA update *here*, so routing
  only ever sees information from the past;
* ``POOL_FREE`` / ``WAKEUP`` — per-pool dispatch retries and batching
  / expiry deadlines, exactly as in the single-pool simulator;
* ``SCALER`` — periodic autoscaler ticks.

The run is exactly reproducible from its
:class:`~repro.config.ClusterConfig`; the result carries per-tenant and
per-pool summaries, every ``repro_cluster_*`` series, and one Chrome
trace with per-pool device tracks, queue-wait spans, router/autoscaler
marker tracks and per-pool counter tracks.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..config import ClusterConfig, ModelConfig
from ..core.trace import TraceSpan, counter_events, write_span_trace
from ..errors import ServingError
from ..obs.spans import AttemptSpan, request_trace
from ..serving.simulator import attempt_boundary
from .autoscaler import Autoscaler, ScaleAction
from .metrics import OUTCOMES, ClusterMetrics, compute_cluster_metrics
from .pools import PoolRuntime
from .router import Router
from .workload import ClusterRequest, cluster_workload, validate_cluster_workload

if TYPE_CHECKING:
    from ..obs.slo import BurnRateMonitor
    from ..obs.spans import TraceCollector
    from ..telemetry.registry import MetricsRegistry

_COMPLETION, _ARRIVAL, _POOL_FREE, _WAKEUP, _SCALER = 0, 1, 2, 3, 4

#: Default SA row count / max sequence length for cluster runs.
DEFAULT_SEQ_LEN = 64


@dataclass
class ClusterRecord:
    """Final outcome of one request in a cluster run.

    ``status`` is ``"completed"``, ``"shed"`` (refused by the SLO
    router), ``"rejected"`` (pool queue full) or ``"expired"`` (pool
    queue timeout).  ``attained`` is True only for completions within
    the request's tenant SLO.
    """

    request: ClusterRequest
    status: str
    pool: Optional[str] = None
    dispatched_us: Optional[float] = None
    completed_us: Optional[float] = None
    attained: bool = False

    @property
    def latency_us(self) -> Optional[float]:
        if self.completed_us is None:
            return None
        return self.completed_us - self.request.arrival_us


@dataclass
class ClusterResult:
    """Everything one simulated cluster run produced."""

    cluster: ClusterConfig
    metrics: ClusterMetrics
    records: list[ClusterRecord]
    actions: list[ScaleAction]
    spans: list[TraceSpan] = field(default_factory=list)
    depth_samples: dict[str, list[tuple]] = field(default_factory=dict)
    device_samples: dict[str, list[tuple]] = field(default_factory=dict)

    def write_trace(
        self,
        path: str,
        extra_spans: Optional[list[TraceSpan]] = None,
    ) -> int:
        """Write one Chrome trace covering the whole cluster.

        Per-pool device tracks come from the worker pools' prefixed
        spans; each pool additionally gets ``<pool>.queue_depth`` and
        ``<pool>.devices`` counter tracks, so the autoscaler's replica
        ramps render next to the queues that triggered them.
        ``extra_spans`` appends caller-supplied tracks — e.g. a
        :class:`~repro.obs.slo.BurnRateMonitor`'s ``slo_alerts`` row.
        """
        spans = self.spans + list(extra_spans or ())
        counters = []
        for pool_name, samples in self.depth_samples.items():
            if samples:
                counters.extend(counter_events(
                    f"{pool_name}.queue_depth",
                    sorted(samples, key=lambda s: s[0]),
                ))
        for pool_name, samples in self.device_samples.items():
            if samples:
                counters.extend(counter_events(
                    f"{pool_name}.devices",
                    sorted(samples, key=lambda s: s[0]),
                ))
        return write_span_trace(
            spans, path, counters=counters,
            other_data={
                "router_policy": self.metrics.router_policy,
                "slo_attainment": self.metrics.slo_attainment,
                "throughput_rps": self.metrics.throughput_rps,
                "makespan_us": self.metrics.makespan_us,
            },
        )


def simulate_cluster(
    model: ModelConfig,
    cluster: ClusterConfig,
    workload: Optional[Sequence[ClusterRequest]] = None,
    registry: Optional["MetricsRegistry"] = None,
    seq_len: int = DEFAULT_SEQ_LEN,
    tracer: Optional["TraceCollector"] = None,
    monitor: Optional["BurnRateMonitor"] = None,
) -> ClusterResult:
    """Simulate one cluster run (default workload: the config's tenants).

    Args:
        model: The transformer every pool serves.
        cluster: Pools, tenants, router policy and autoscaler settings.
        workload: Explicit request list; overrides the generated one.
        registry: Optional metrics registry; the run's
            ``repro_cluster_*`` series are recorded into it for export.
        seq_len: SA row count / max sequence length of every pool.
        tracer: Optional :class:`~repro.obs.spans.TraceCollector`; every
            request gets one causal span tree whose hops sum exactly to
            its latency.  Strictly passive.
        monitor: Optional :class:`~repro.obs.slo.BurnRateMonitor` fed
            every terminal request event in time order.  Passive unless
            ``cluster.autoscaler.scale_up_burn_rate`` is set, in which
            case the autoscaler consumes the monitor's worst
            short-window burn as an additional up-signal (the explicit
            alert→autoscaler opt-in).
    """
    requests = (
        list(workload) if workload is not None
        else cluster_workload(cluster)
    )
    validate_cluster_workload(requests, seq_len)
    known_tenants = {t.name for t in cluster.tenants}
    for request in requests:
        if request.tenant not in known_tenants:
            raise ServingError(
                f"request {request.req_id} belongs to unknown tenant "
                f"{request.tenant!r}"
            )

    pools = [
        PoolRuntime(pool_cfg, cluster, model, seq_len)
        for pool_cfg in cluster.pools
    ]
    by_name = {p.name: p for p in pools}
    router = Router(cluster, pools)
    scaler = Autoscaler(cluster.autoscaler, pools)
    if monitor is not None and cluster.autoscaler.scale_up_burn_rate is not None:
        scaler.attach_burn_source(monitor.max_short_burn)

    records: dict[int, ClusterRecord] = {}
    spans: list[TraceSpan] = []
    device_samples: dict[str, list[tuple]] = {
        p.name: [(0.0, p.active_device_count)] for p in pools
    }
    in_flight = 0
    remaining_arrivals = len(requests)

    seq = itertools.count()
    heap: list = []
    for request in requests:
        heapq.heappush(
            heap, (request.arrival_us, _ARRIVAL, next(seq), request)
        )
    if cluster.autoscaler.enabled:
        heapq.heappush(
            heap, (cluster.autoscaler.interval_us, _SCALER, next(seq), None)
        )

    def attempt_dispatch(pool: PoolRuntime, now_us: float) -> None:
        nonlocal in_flight
        while len(pool.queue):
            if not pool.workers.can_accept(now_us):
                # One pending wakeup per pool: push only when the pool
                # frees earlier than the wakeup already in the heap.
                free_at = pool.workers.next_free_us()
                if free_at < pool.free_wakeup_us:
                    pool.free_wakeup_us = free_at
                    heapq.heappush(
                        heap, (free_at, _POOL_FREE, next(seq), pool)
                    )
                return
            batch = pool.batcher.try_form(
                pool.queue, now_us, force=(remaining_arrivals == 0)
            )
            if batch is None:
                deadline = min(
                    pool.batcher.next_deadline_us(pool.queue),
                    pool.queue.next_expiry_us(),
                )
                if deadline != float("inf"):
                    heapq.heappush(
                        heap,
                        (max(deadline, now_us), _WAKEUP, next(seq), pool),
                    )
                return
            outcome = pool.workers.dispatch(batch, now_us)
            pool.batches += 1
            pool.batch_log.append((batch.num_requests, batch.total_tokens))
            in_flight += batch.num_requests
            spans.extend(outcome.spans)
            for request in batch.requests:
                record = records[request.req_id]
                record.dispatched_us = now_us
                wait = now_us - request.arrival_us
                if wait > 0:
                    spans.append(TraceSpan(
                        name=f"req{request.req_id}.wait",
                        track=f"{pool.name}.queue",
                        start_us=request.arrival_us, duration_us=wait,
                        args={"tenant": request.tenant,
                              "seq_len": request.seq_len,
                              "batch": batch.batch_id},
                    ))
            heapq.heappush(
                heap,
                (outcome.completion_us, _COMPLETION, next(seq),
                 (pool, batch, outcome)),
            )

    def expire_queue(pool: PoolRuntime, now_us: float) -> None:
        for request in pool.queue.expire(now_us):
            records[request.req_id].status = "expired"
            if tracer is not None:
                tracer.add(request_trace(
                    req_id=request.req_id, status="expired",
                    arrival_us=request.arrival_us,
                    end_us=request.arrival_us + cluster.queue_timeout_us,
                    tenant=request.tenant,
                    attrs={"pool": pool.name},
                ))
            if monitor is not None:
                monitor.observe(now_us, request.tenant, False)

    def run_scaler(now_us: float) -> None:
        for action in scaler.evaluate(now_us):
            pool = by_name[action.pool]
            device_samples[pool.name].append(
                (now_us, pool.active_device_count)
            )
            spans.append(TraceSpan(
                name=(f"{action.pool}.scale_{action.direction}"
                      f".device{action.device_id}"),
                track="autoscaler",
                start_us=now_us, duration_us=0.0,
                args={"pool": action.pool, "direction": action.direction,
                      "reason": action.reason,
                      "device": action.device_id},
            ))
            if action.direction == "up":
                attempt_dispatch(pool, now_us)
        if remaining_arrivals > 0 or in_flight > 0 or any(
            len(p.queue) for p in pools
        ):
            heapq.heappush(
                heap,
                (now_us + cluster.autoscaler.interval_us, _SCALER,
                 next(seq), None),
            )

    while heap:
        now_us, kind, _, payload = heapq.heappop(heap)
        if kind == _COMPLETION:
            pool, batch, outcome = payload
            in_flight -= batch.num_requests
            pool.completed += batch.num_requests
            for request in batch.requests:
                record = records[request.req_id]
                record.status = "completed"
                record.completed_us = outcome.completion_us
                record.attained = (
                    outcome.completion_us <= request.deadline_us
                )
                pool.observe_completion(
                    outcome.completion_us, record.latency_us,
                    cluster.ewma_alpha,
                )
                if tracer is not None:
                    tracer.add(request_trace(
                        req_id=request.req_id, status="completed",
                        arrival_us=request.arrival_us,
                        dispatched_us=record.dispatched_us,
                        attempts=(AttemptSpan(
                            record.dispatched_us, outcome.start_us,
                            outcome.completion_us,
                            attempt_boundary(pool.workers.acc, outcome),
                            attrs={"devices": ",".join(
                                map(str, outcome.device_ids)
                            )},
                        ),),
                        tenant=request.tenant,
                        attrs={
                            "pool": pool.name,
                            "batch": batch.batch_id,
                            "deadline_us": request.deadline_us,
                            "attained": record.attained,
                            "slo_violated": not record.attained,
                        },
                    ))
                if monitor is not None:
                    monitor.observe(
                        outcome.completion_us, request.tenant,
                        record.attained,
                    )
            attempt_dispatch(pool, now_us)
            continue
        if kind == _ARRIVAL:
            remaining_arrivals -= 1
            record = ClusterRecord(payload, "shed")
            records[payload.req_id] = record
            pool = router.route(payload, now_us)
            if pool is None:
                spans.append(TraceSpan(
                    name=f"req{payload.req_id}.shed",
                    track="router",
                    start_us=now_us, duration_us=0.0,
                    args={"tenant": payload.tenant,
                          "deadline_us": payload.deadline_us},
                ))
                if tracer is not None:
                    tracer.add(request_trace(
                        req_id=payload.req_id, status="shed",
                        arrival_us=payload.arrival_us,
                        tenant=payload.tenant,
                    ))
                if monitor is not None:
                    monitor.observe(now_us, payload.tenant, False)
                if remaining_arrivals == 0:
                    for p in pools:
                        attempt_dispatch(p, now_us)
                continue
            record.pool = pool.name
            pool.routed += 1
            if not pool.queue.offer(payload, now_us):
                record.status = "rejected"
                if tracer is not None:
                    tracer.add(request_trace(
                        req_id=payload.req_id, status="rejected",
                        arrival_us=payload.arrival_us,
                        tenant=payload.tenant,
                        attrs={"pool": pool.name},
                    ))
                if monitor is not None:
                    monitor.observe(now_us, payload.tenant, False)
            else:
                record.status = "queued"
                if cluster.queue_timeout_us != float("inf"):
                    heapq.heappush(
                        heap,
                        (payload.arrival_us + cluster.queue_timeout_us,
                         _WAKEUP, next(seq), pool),
                    )
            expire_queue(pool, now_us)
            attempt_dispatch(pool, now_us)
            # The last arrival force-flushes every pool's partial batch.
            if remaining_arrivals == 0:
                for p in pools:
                    if p is not pool:
                        attempt_dispatch(p, now_us)
            continue
        if kind == _SCALER:
            run_scaler(now_us)
            continue
        # _POOL_FREE / _WAKEUP carry the pool they concern.
        pool = payload
        if kind == _POOL_FREE and now_us >= pool.free_wakeup_us:
            pool.free_wakeup_us = float("inf")
        expire_queue(pool, now_us)
        attempt_dispatch(pool, now_us)

    if any(r.status == "queued" for r in records.values()):
        raise ServingError("cluster run ended with requests still queued")

    first_arrival = requests[0].arrival_us if requests else 0.0
    last_completion = max(
        (r.completed_us for r in records.values()
         if r.completed_us is not None),
        default=first_arrival,
    )
    makespan_us = last_completion - first_arrival

    tenant_names = [t.name for t in cluster.tenants]
    tenant_offered = dict.fromkeys(tenant_names, 0)
    tenant_outcomes = {
        name: dict.fromkeys(OUTCOMES, 0) for name in tenant_names
    }
    tenant_attained = dict.fromkeys(tenant_names, 0)
    tenant_latencies: dict[str, list[float]] = {
        name: [] for name in tenant_names
    }
    for request in requests:
        record = records[request.req_id]
        tenant_offered[request.tenant] += 1
        tenant_outcomes[request.tenant][record.status] += 1
        if record.attained:
            tenant_attained[request.tenant] += 1
        if record.latency_us is not None:
            tenant_latencies[request.tenant].append(record.latency_us)

    metrics = compute_cluster_metrics(
        policy=cluster.router_policy,
        tenant_offered=tenant_offered,
        tenant_outcomes=tenant_outcomes,
        tenant_slo_attained=tenant_attained,
        tenant_latencies_us=tenant_latencies,
        routing_decisions=dict(router.decisions),
        shed=router.shed,
        autoscale_actions=[
            (a.at_us, a.pool, a.direction, a.reason) for a in scaler.actions
        ],
        pool_completed={p.name: p.completed for p in pools},
        pool_batches={p.name: list(p.batch_log) for p in pools},
        pool_cache={
            p.name: (p.workers.weight_cache_hits,
                     p.workers.weight_cache_misses)
            for p in pools
        },
        pool_depth_samples={
            p.name: list(p.queue.depth_samples) for p in pools
        },
        pool_device_samples=device_samples,
        pool_busy_fraction={
            p.name: (
                sum(d.busy_us for d in p.workers.devices)
                / p.workers.device_time_us(last_completion)
                if p.workers.device_time_us(last_completion) > 0 else 0.0
            )
            for p in pools
        },
        pool_final_devices={p.name: p.active_device_count for p in pools},
        seq_len=seq_len,
        makespan_us=makespan_us,
        registry=registry,
    )
    ordered = [records[r.req_id] for r in requests]
    return ClusterResult(
        cluster=cluster,
        metrics=metrics,
        records=ordered,
        actions=list(scaler.actions),
        spans=spans,
        depth_samples={
            p.name: list(p.queue.depth_samples) for p in pools
        },
        device_samples=device_samples,
    )
