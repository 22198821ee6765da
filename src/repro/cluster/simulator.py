"""Cluster simulation: router + N pools + autoscaler on the event kernel.

:func:`simulate_cluster` runs a merged multi-tenant workload through the
SLO-aware router into N heterogeneous pools (each a
:class:`~repro.cluster.pools.PoolRuntime`: a kernel pool with no fault
rates plus the router and autoscaler bookkeeping) while a threshold
autoscaler grows and drains replicate pools.  Its hooks on the
:class:`~repro.serving.kernel.EventKernel`: ``route`` is the
:class:`~repro.cluster.router.Router`, which may shed; ``dropped``
records a rejected or expired request; ``dispatched`` does batch
accounting and queue-wait spans and pushes a ``COMPLETION`` event;
``completed`` updates records, SLO attainment and the router's per-pool
EWMA there, so routing only ever sees the past; ``scale`` runs one
autoscaler tick per ``SCALER`` event, hands back each pool that gained
a device, and pushes the next tick while work remains.

The run is exactly reproducible from its
:class:`~repro.config.ClusterConfig`; the result carries per-tenant and
per-pool summaries, every ``repro_cluster_*`` series, and one Chrome
trace with per-pool device tracks, queue-wait spans, router/autoscaler
marker tracks and per-pool counter tracks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..config import ClusterConfig, ModelConfig
from ..core.trace import TraceSpan, counter_tracks, write_span_trace
from ..errors import ServingError
from ..obs.spans import request_trace
from ..serving.kernel import COMPLETION, SCALER, EventKernel, attempt_span
from ..serving.workload import validate_workload
from .autoscaler import Autoscaler, ScaleAction
from .metrics import OUTCOMES, ClusterMetrics, compute_cluster_metrics
from .pools import PoolRuntime
from .router import Router
from .workload import ClusterRequest, cluster_workload

if TYPE_CHECKING:
    from ..obs.slo import BurnRateMonitor
    from ..obs.spans import TraceCollector
    from ..telemetry.registry import MetricsRegistry

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
        counters = counter_tracks(
            [(f"{pool}.queue_depth", samples)
             for pool, samples in self.depth_samples.items()]
            + [(f"{pool}.devices", samples)
               for pool, samples in self.device_samples.items()]
        )
        return write_span_trace(
            self.spans + list(extra_spans or ()), path, counters=counters,
            other_data={
                "router_policy": self.metrics.router_policy,
                "slo_attainment": self.metrics.slo_attainment,
                "throughput_rps": self.metrics.throughput_rps,
                "makespan_us": self.metrics.makespan_us,
            },
        )


class _ClusterRun(EventKernel):
    """:func:`simulate_cluster`'s hooks over the cluster's pools."""

    def __init__(self, requests, pools, cluster, tracer, monitor) -> None:
        super().__init__(requests, pools)
        self.cluster, self.tracer, self.monitor = cluster, tracer, monitor
        self.by_name = {p.name: p for p in pools}
        self.router = Router(cluster, pools)
        self.scaler = Autoscaler(cluster.autoscaler, pools)
        if (monitor is not None
                and cluster.autoscaler.scale_up_burn_rate is not None):
            self.scaler.attach_burn_source(monitor.max_short_burn)
        self.records: dict[int, ClusterRecord] = {}
        self.device_samples: dict[str, list[tuple]] = {
            p.name: [(0.0, p.active_device_count)] for p in pools
        }
        self.in_flight = 0
        if cluster.autoscaler.enabled:
            self.push(cluster.autoscaler.interval_us, SCALER)

    def route(self, request, now_us) -> Optional[PoolRuntime]:
        record = ClusterRecord(request, "shed")
        self.records[request.req_id] = record
        pool = self.router.route(request, now_us)
        if pool is None:
            self.spans.append(TraceSpan(
                name=f"req{request.req_id}.shed", track="router",
                start_us=now_us, duration_us=0.0,
                args={"tenant": request.tenant,
                      "deadline_us": request.deadline_us},
            ))
            self._settle(request, now_us, "shed", None, None)
            return None
        record.status, record.pool = "queued", pool.name
        pool.routed += 1
        return pool

    def dropped(self, request, pool, now_us, status) -> None:
        self.records[request.req_id].status = status
        end_us = (request.arrival_us + pool.queue.timeout_us
                  if status == "expired" else None)
        self._settle(request, now_us, status, end_us, {"pool": pool.name})

    def _settle(self, request, now_us, status, end_us, attrs) -> None:
        """Trace tree and monitor event of a request that never ran."""
        if self.tracer is not None:
            self.tracer.add(request_trace(
                req_id=request.req_id, status=status,
                arrival_us=request.arrival_us, end_us=end_us,
                tenant=request.tenant, attrs=attrs,
            ))
        if self.monitor is not None:
            self.monitor.observe(now_us, request.tenant, False)

    def dispatched(self, pool, batch, now_us, attempts, failed,
                   corrupted) -> None:
        pool.batches += 1
        pool.batch_log.append((batch.num_requests, batch.total_tokens))
        self.in_flight += batch.num_requests
        for request in batch.requests:
            self.records[request.req_id].dispatched_us = now_us
            wait = now_us - request.arrival_us
            if wait > 0:
                self.spans.append(TraceSpan(
                    name=f"req{request.req_id}.wait",
                    track=f"{pool.name}.queue",
                    start_us=request.arrival_us, duration_us=wait,
                    args={"tenant": request.tenant,
                          "seq_len": request.seq_len,
                          "batch": batch.batch_id},
                ))
        self.push(attempts[-1][1].completion_us, COMPLETION,
                  (pool, batch, attempts))

    def completed(self, payload, now_us) -> PoolRuntime:
        pool, batch, attempts = payload
        completion_us = attempts[-1][1].completion_us
        self.in_flight -= batch.num_requests
        pool.completed += batch.num_requests
        for request in batch.requests:
            record = self.records[request.req_id]
            record.status = "completed"
            record.completed_us = completion_us
            record.attained = completion_us <= request.deadline_us
            pool.observe_completion(
                completion_us, record.latency_us, self.cluster.ewma_alpha
            )
            if self.tracer is not None:
                self.tracer.add(request_trace(
                    req_id=request.req_id, status="completed",
                    arrival_us=request.arrival_us,
                    dispatched_us=record.dispatched_us,
                    attempts=tuple(attempt_span(pool.workers.acc, at, o)
                                   for at, o in attempts),
                    tenant=request.tenant,
                    attrs={"pool": pool.name, "batch": batch.batch_id,
                           "deadline_us": request.deadline_us,
                           "attained": record.attained,
                           "slo_violated": not record.attained},
                ))
            if self.monitor is not None:
                self.monitor.observe(
                    completion_us, request.tenant, record.attained
                )
        return pool

    def scale(self, now_us) -> Iterator[PoolRuntime]:
        for action in self.scaler.evaluate(now_us):
            pool = self.by_name[action.pool]
            self.device_samples[pool.name].append(
                (now_us, pool.active_device_count)
            )
            self.spans.append(TraceSpan(
                name=(f"{action.pool}.scale_{action.direction}"
                      f".device{action.device_id}"),
                track="autoscaler", start_us=now_us, duration_us=0.0,
                args={"pool": action.pool, "direction": action.direction,
                      "reason": action.reason, "device": action.device_id},
            ))
            if action.direction == "up":
                yield pool
        if self.remaining_arrivals > 0 or self.in_flight > 0 or any(
            len(p.queue) for p in self.pools
        ):
            self.push(now_us + self.cluster.autoscaler.interval_us, SCALER)


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
    validate_workload(requests, seq_len)
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
    run = _ClusterRun(requests, pools, cluster, tracer, monitor)
    makespan_us = run.run()
    records = run.records
    last_completion = run.last_completion_us
    router, scaler = run.router, run.scaler

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
        pool_device_samples=run.device_samples,
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
        spans=run.spans,
        depth_samples={
            p.name: list(p.queue.depth_samples) for p in pools
        },
        device_samples=run.device_samples,
    )
