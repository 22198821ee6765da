"""Cluster metrics: per-tenant SLO attainment, per-pool accounting.

Like :mod:`repro.serving.metrics`, the summaries fold from the run's
own records; a caller-supplied registry additionally receives the raw
run as ``repro_cluster_*`` instruments
(:func:`repro.telemetry.instrument.record_cluster` — the single place
the cluster schema is defined) plus the summary gauges, so the numbers
the report prints are exactly the series a Prometheus / JSON /
Chrome-trace export carries.

The headline number is **SLO attainment**: the fraction of a tenant's
*offered* requests that completed within the tenant's ``slo_us``.
Dividing by offered — not completed — means shed, rejected, expired and
late requests all count against the SLO, so the router cannot game the
metric by refusing work.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..serving.views import cache_totals
from ..telemetry.instrument import record_cluster
from ..telemetry.registry import MetricsRegistry, sample_stats

@dataclass(frozen=True)
class TenantSummary:
    """One tenant's outcome of a cluster run.

    Attributes:
        offered: Requests the tenant's workload generated.
        completed / shed / rejected / expired: Outcome counts (shed =
            refused by the SLO router's admission, rejected = pool
            queue full, expired = queue timeout).
        slo_attained: Completed requests that met the tenant's SLO.
        slo_attainment: ``slo_attained / offered`` (0 when nothing was
            offered).
        latency_p50_us / latency_p99_us / latency_mean_us: Latency of
            completed requests (all 0.0 when none completed — explicit
            empty-safe zeros, never NaN).
    """

    offered: int
    completed: int
    shed: int
    rejected: int
    expired: int
    slo_attained: int
    slo_attainment: float
    latency_p50_us: float
    latency_p99_us: float
    latency_mean_us: float


@dataclass(frozen=True)
class PoolSummary:
    """One pool's share of a cluster run.

    Attributes:
        routed: Requests the router sent to this pool.
        completed: Requests the pool completed.
        num_batches / mean_batch_size / occupancy: Batch accounting
            (occupancy = valid tokens / (batches x SA rows)).
        final_devices / peak_devices: Replica count at the end of the
            run and its maximum (autoscaling footprint).
        scale_ups / scale_downs: Autoscaler actions on this pool.
        busy_fraction: Busy device-time over *provisioned* device-time
            (each device counted from activation to retirement).
        weight_cache_hit_rate: ResBlock weight-cache hit rate (0 for
            pools without a memory system, including GPU pools).
        max_queue_depth: Peak admission-queue depth.
    """

    routed: int
    completed: int
    num_batches: int
    mean_batch_size: float
    occupancy: float
    final_devices: int
    peak_devices: int
    scale_ups: int
    scale_downs: int
    busy_fraction: float
    weight_cache_hit_rate: float
    max_queue_depth: int


@dataclass(frozen=True)
class ClusterMetrics:
    """Summary of one simulated cluster run.

    Attributes:
        offered / completed / shed / rejected / expired: Cluster-wide
            request counts (sums over tenants).
        slo_attained: Requests that completed within their tenant SLO.
        slo_attainment: ``slo_attained / offered`` — the headline.
        throughput_rps: Completed requests per second of makespan.
        makespan_us: First arrival to last completion.
        latency_p50_us / latency_p99_us / latency_mean_us: Latency over
            all completed requests (all 0.0 when none completed).
        router_policy: The policy the run used.
        autoscale_ups / autoscale_downs: Total autoscaler actions.
        tenants: Per-tenant :class:`TenantSummary`, insertion-ordered.
        pools: Per-pool :class:`PoolSummary`, insertion-ordered.
    """

    offered: int
    completed: int
    shed: int
    rejected: int
    expired: int
    slo_attained: int
    slo_attainment: float
    throughput_rps: float
    makespan_us: float
    latency_p50_us: float
    latency_p99_us: float
    latency_mean_us: float
    router_policy: str
    autoscale_ups: int
    autoscale_downs: int
    tenants: dict[str, TenantSummary] = field(default_factory=dict)
    pools: dict[str, PoolSummary] = field(default_factory=dict)

    def as_rows(self) -> list[list[str]]:
        """Two-column rows for :func:`repro.analysis.render_table`."""
        rows = [
            ["router policy", self.router_policy],
            ["offered", str(self.offered)],
            ["completed", str(self.completed)],
            ["shed (router)", str(self.shed)],
            ["rejected (full)", str(self.rejected)],
            ["expired (timeout)", str(self.expired)],
            ["SLO attainment", f"{self.slo_attainment:.1%}"],
            ["p50 latency",
             f"{self.latency_p50_us:.1f} us" if self.completed else "n/a"],
            ["p99 latency",
             f"{self.latency_p99_us:.1f} us" if self.completed else "n/a"],
            ["throughput", f"{self.throughput_rps:.1f} req/s"],
            ["makespan", f"{self.makespan_us / 1e3:.1f} ms"],
            ["scale-ups / downs",
             f"{self.autoscale_ups} / {self.autoscale_downs}"],
        ]
        for name, tenant in self.tenants.items():
            rows.append([
                f"tenant {name}",
                f"{tenant.slo_attainment:.1%} SLO, "
                f"{tenant.completed}/{tenant.offered} completed",
            ])
        for name, pool in self.pools.items():
            rows.append([
                f"pool {name}",
                f"{pool.completed} done, {pool.final_devices} dev "
                f"(peak {pool.peak_devices}), "
                f"busy {pool.busy_fraction:.0%}",
            ])
        return rows


def _tenant_summary(records: Sequence) -> TenantSummary:
    """Outcome counts and completed-latency stats of some records."""
    counts = Counter(r.status for r in records)
    attained = sum(r.attained for r in records)
    p50, p99, mean = sample_stats(
        [r.latency_us for r in records if r.status == "completed"], (50, 99)
    )
    return TenantSummary(
        offered=len(records),
        completed=counts["completed"],
        shed=counts["shed"],
        rejected=counts["rejected"],
        expired=counts["expired"],
        slo_attained=attained,
        slo_attainment=attained / len(records) if records else 0.0,
        latency_p50_us=p50,
        latency_p99_us=p99,
        latency_mean_us=mean,
    )


def compute_cluster_metrics(
    *,
    policy: str,
    tenants: Sequence[str],
    records: Sequence,
    pools: Sequence,
    routing_decisions: dict[str, int],
    shed: int,
    actions: Sequence,
    pool_dispatches: dict[str, list],
    pool_device_samples: dict[str, list[tuple[float, int]]],
    end_us: float,
    seq_len: int,
    makespan_us: float,
    registry: Optional[MetricsRegistry] = None,
) -> ClusterMetrics:
    """Fold one cluster run into a :class:`ClusterMetrics`.

    ``records`` are the run's
    :class:`~repro.cluster.simulator.ClusterRecord` outcomes in request
    order, ``pools`` its :class:`~repro.cluster.pools.PoolRuntime` pools
    (devices provisioned up to ``end_us``), ``actions`` its autoscaler
    ``ScaleAction`` objects, and ``pool_dispatches`` maps each pool to
    its logged :class:`~repro.serving.kernel.Dispatch` entries, whose
    runs give its weight-cache lookups.  With a ``registry``, the run
    and its summary are also recorded into it
    (:func:`repro.telemetry.instrument.record_cluster`).
    """
    by_tenant: dict[str, list] = {name: [] for name in tenants}
    for record in records:
        by_tenant[record.request.tenant].append(record)
    tenant_summaries = {
        name: _tenant_summary(rs) for name, rs in by_tenant.items()
    }
    total = _tenant_summary(records)
    pool_completed = Counter(
        r.pool for r in records if r.status == "completed"
    )
    ups = Counter(a.pool for a in actions if a.direction == "up")
    downs = Counter(a.pool for a in actions if a.direction != "up")

    pool_summaries: dict[str, PoolSummary] = {}
    for pool in pools:
        name, workers = pool.name, pool.workers
        batches = [entry.batch for entry in pool_dispatches[name]]
        num_batches = len(batches)
        total_requests = sum(b.num_requests for b in batches)
        total_tokens = sum(b.total_tokens for b in batches)
        hits, misses, _ = cache_totals(pool_dispatches[name])
        provisioned_us = workers.device_time_us(end_us)
        pool_summaries[name] = PoolSummary(
            routed=routing_decisions[name],
            completed=pool_completed[name],
            num_batches=num_batches,
            mean_batch_size=(
                total_requests / num_batches if num_batches else 0.0
            ),
            occupancy=(
                total_tokens / (num_batches * seq_len)
                if num_batches else 0.0
            ),
            final_devices=pool.active_device_count,
            peak_devices=max(
                (d for _, d in pool_device_samples[name]), default=0
            ),
            scale_ups=ups[name],
            scale_downs=downs[name],
            busy_fraction=(
                sum(d.busy_us for d in workers.devices) / provisioned_us
                if provisioned_us > 0 else 0.0
            ),
            weight_cache_hit_rate=(
                hits / (hits + misses) if (hits + misses) else 0.0
            ),
            max_queue_depth=max(
                (d for _, d in pool.queue.depth_samples), default=0
            ),
        )

    seconds = makespan_us / 1e6
    metrics = ClusterMetrics(
        offered=total.offered,
        completed=total.completed,
        shed=shed,
        rejected=total.rejected,
        expired=total.expired,
        slo_attained=total.slo_attained,
        slo_attainment=total.slo_attainment,
        throughput_rps=total.completed / seconds if seconds > 0 else 0.0,
        makespan_us=makespan_us,
        latency_p50_us=total.latency_p50_us,
        latency_p99_us=total.latency_p99_us,
        latency_mean_us=total.latency_mean_us,
        router_policy=policy,
        autoscale_ups=sum(ups.values()),
        autoscale_downs=sum(downs.values()),
        tenants=tenant_summaries,
        pools=pool_summaries,
    )
    if registry is not None:
        record_cluster(
            registry, metrics=metrics,
            tenant_latencies_us={
                t: [r.latency_us for r in rs if r.status == "completed"]
                for t, rs in by_tenant.items()
            },
            routing_decisions=routing_decisions, actions=actions,
            pools=pools, pool_dispatches=pool_dispatches,
            pool_device_samples=pool_device_samples,
        )
    return metrics
