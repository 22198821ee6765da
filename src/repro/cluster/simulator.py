"""Cluster simulation: router + N pools + autoscaler on the event kernel.

:func:`simulate_cluster` runs a merged multi-tenant workload through the
SLO-aware router into N heterogeneous pools (each a
:class:`~repro.cluster.pools.PoolRuntime`: a kernel pool with no fault
rates plus the router and autoscaler bookkeeping) while a threshold
autoscaler grows and drains replicate pools.  Its hooks on the
:class:`~repro.serving.kernel.EventKernel`: ``route`` is the
:class:`~repro.cluster.router.Router`, which may shed; ``dispatched``
pushes a ``COMPLETION`` event; ``completed`` logs it and updates the
router's per-pool EWMA there, so routing only ever sees the past;
``scale`` runs and logs one autoscaler tick per ``SCALER`` event, hands
back each pool that gained a device, and pushes the next tick while
work remains.  A burn-rate monitor is fed online (the burn-driven
autoscaler reads it); everything else is a view of the kernel log.

The run is exactly reproducible from its
:class:`~repro.config.ClusterConfig`; the result carries per-tenant and
per-pool summaries, every ``repro_cluster_*`` series, and one Chrome
trace with per-pool device tracks, queue-wait spans, router/autoscaler
marker tracks and per-pool counter tracks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from ..config import ClusterConfig, ModelConfig
from ..core.trace import TraceSpan, counter_tracks, write_span_trace
from ..errors import ServingError
from ..serving.kernel import (
    COMPLETION,
    SCALER,
    Complete,
    Dispatch,
    EventKernel,
)
from ..serving.views import (
    ClusterRecord,
    add_request_traces,
    chrome_spans,
    cluster_records,
    device_samples,
)
from ..serving.workload import validate_workload
from .autoscaler import Autoscaler, ScaleAction
from .metrics import ClusterMetrics, compute_cluster_metrics
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
class ClusterResult:
    """Everything one simulated cluster run produced.

    ``log`` is the kernel's run log; ``spans`` are drawn from it on
    first read.
    """

    cluster: ClusterConfig
    metrics: ClusterMetrics
    records: list[ClusterRecord]
    actions: list[ScaleAction]
    log: list = field(repr=False, compare=False)
    depth_samples: dict[str, list[tuple]] = field(default_factory=dict)
    device_samples: dict[str, list[tuple]] = field(default_factory=dict)

    @cached_property
    def spans(self) -> list[TraceSpan]:
        """The run's Chrome spans, drawn from ``log`` by
        :func:`~repro.serving.views.chrome_spans`."""
        return chrome_spans(self.log, cluster=True)

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

    def __init__(self, requests, pools, cluster, monitor) -> None:
        super().__init__(requests, pools)
        self.cluster, self.monitor = cluster, monitor
        self.by_name = {p.name: p for p in pools}
        self.router = Router(cluster, pools)
        self.scaler = Autoscaler(cluster.autoscaler, pools)
        if (monitor is not None
                and cluster.autoscaler.scale_up_burn_rate is not None):
            self.scaler.attach_burn_source(monitor.max_short_burn)
        self.in_flight = 0
        if cluster.autoscaler.enabled:
            self.push(cluster.autoscaler.interval_us, SCALER)

    def route(self, request, now_us) -> Optional[PoolRuntime]:
        pool = self.router.route(request, now_us)
        if pool is None:
            self.drop(request, None, now_us, "shed")
        return pool

    def dropped(self, entry) -> None:
        if self.monitor is not None:
            self.monitor.observe(entry.at_us, entry.request.tenant, False)

    def dispatched(self, entry) -> None:
        self.in_flight += entry.batch.num_requests
        self.push(entry.runs[-1].completion_us, COMPLETION, entry)

    def completed(self, entry, now_us) -> PoolRuntime:
        self.log.append(Complete(entry))
        pool, batch = entry.pool, entry.batch
        completion_us = entry.runs[-1].completion_us
        self.in_flight -= batch.num_requests
        for request in batch.requests:
            pool.observe_completion(
                completion_us, completion_us - request.arrival_us
            )
            if self.monitor is not None:
                self.monitor.observe(
                    completion_us, request.tenant,
                    completion_us <= request.deadline_us,
                )
        return pool

    def scale(self, now_us) -> Iterator[PoolRuntime]:
        for action in self.scaler.evaluate(now_us):
            self.log.append(action)
            if action.direction == "up":
                yield self.by_name[action.pool]
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
    run = _ClusterRun(requests, pools, cluster, monitor)
    makespan_us = run.run()
    log = run.log
    if tracer is not None:
        add_request_traces(tracer, log, cluster=True)
    records = cluster_records(requests, log)
    samples = device_samples(log, pools)
    dispatches = [e for e in log if type(e) is Dispatch]
    actions = [e for e in log if type(e) is ScaleAction]
    metrics = compute_cluster_metrics(
        policy=cluster.router_policy,
        tenants=[t.name for t in cluster.tenants],
        records=records,
        pools=pools,
        routing_decisions=dict(run.router.decisions),
        shed=run.router.shed,
        actions=actions,
        pool_dispatches={p.name: [e for e in dispatches if e.pool is p]
                         for p in pools},
        pool_device_samples=samples,
        end_us=run.last_completion_us,
        seq_len=seq_len,
        makespan_us=makespan_us,
        registry=registry,
    )
    return ClusterResult(
        cluster=cluster,
        metrics=metrics,
        records=records,
        actions=actions,
        log=log,
        depth_samples={
            p.name: list(p.queue.depth_samples) for p in pools
        },
        device_samples=samples,
    )
