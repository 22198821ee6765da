"""Cluster metrics: per-tenant SLO attainment, per-pool accounting.

Registry-backed like :mod:`repro.serving.metrics`: the raw run is
recorded into ``repro_cluster_*`` instruments
(:func:`repro.telemetry.instrument.record_cluster` — the single place
the cluster schema is defined) and the summaries are derived back out,
so the numbers the report prints are exactly the series a Prometheus /
JSON / Chrome-trace export carries.

The headline number is **SLO attainment**: the fraction of a tenant's
*offered* requests that completed within the tenant's ``slo_us``.
Dividing by offered — not completed — means shed, rejected, expired and
late requests all count against the SLO, so the router cannot game the
metric by refusing work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..telemetry.instrument import record_cluster
from ..telemetry.registry import MetricsRegistry, sample_stats

#: Request outcomes a tenant's offered traffic resolves into.
OUTCOMES = ("completed", "shed", "rejected", "expired")


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


def compute_cluster_metrics(
    *,
    policy: str,
    tenant_offered: dict[str, int],
    tenant_outcomes: dict[str, dict[str, int]],
    tenant_slo_attained: dict[str, int],
    tenant_latencies_us: dict[str, list[float]],
    routing_decisions: dict[str, int],
    shed: int,
    autoscale_actions: list[tuple[float, str, str, str]],
    pool_completed: dict[str, int],
    pool_batches: dict[str, list[tuple[int, int]]],
    pool_cache: dict[str, tuple[int, int]],
    pool_depth_samples: dict[str, list[tuple[float, int]]],
    pool_device_samples: dict[str, list[tuple[float, int]]],
    pool_busy_fraction: dict[str, float],
    pool_final_devices: dict[str, int],
    seq_len: int,
    makespan_us: float,
    registry: Optional[MetricsRegistry] = None,
) -> ClusterMetrics:
    """Fold raw cluster records into a :class:`ClusterMetrics`.

    ``pool_batches`` maps pool -> ``(num_requests, total_tokens)`` per
    dispatched batch; ``pool_cache`` maps pool -> ``(hits, misses)``.
    Everything is recorded into ``registry`` (a private one when the
    caller passes none) through the schema in
    :func:`repro.telemetry.instrument.record_cluster`, then summarized.
    """
    registry = MetricsRegistry() if registry is None else registry
    record_cluster(
        registry,
        policy=policy,
        tenant_offered=tenant_offered,
        tenant_outcomes=tenant_outcomes,
        tenant_slo_attained=tenant_slo_attained,
        tenant_latencies_us=tenant_latencies_us,
        routing_decisions=routing_decisions,
        shed=shed,
        autoscale_actions=autoscale_actions,
        pool_batches={
            name: (
                len(batches),
                sum(r for r, _ in batches),
                sum(t for _, t in batches),
            )
            for name, batches in pool_batches.items()
        },
        pool_cache=pool_cache,
        pool_depth_samples=pool_depth_samples,
        pool_device_samples=pool_device_samples,
    )

    tenants: dict[str, TenantSummary] = {}
    for name, offered in tenant_offered.items():
        outcomes = tenant_outcomes[name]
        attained = tenant_slo_attained[name]
        p50, p99, mean = sample_stats(tenant_latencies_us[name], (50, 99))
        tenants[name] = TenantSummary(
            offered=offered,
            completed=outcomes.get("completed", 0),
            shed=outcomes.get("shed", 0),
            rejected=outcomes.get("rejected", 0),
            expired=outcomes.get("expired", 0),
            slo_attained=attained,
            slo_attainment=attained / offered if offered else 0.0,
            latency_p50_us=p50,
            latency_p99_us=p99,
            latency_mean_us=mean,
        )
        registry.gauge(
            "repro_cluster_slo_attainment",
            "SLO-attained fraction of offered requests",
        ).set(tenants[name].slo_attainment, tenant=name)

    ups = {name: 0 for name in routing_decisions}
    downs = {name: 0 for name in routing_decisions}
    for _, pool_name, direction, _ in autoscale_actions:
        if direction == "up":
            ups[pool_name] += 1
        else:
            downs[pool_name] += 1

    pools: dict[str, PoolSummary] = {}
    for name, routed in routing_decisions.items():
        batches = pool_batches[name]
        num_batches = len(batches)
        total_requests = sum(r for r, _ in batches)
        total_tokens = sum(t for _, t in batches)
        hits, misses = pool_cache[name]
        device_counts = [d for _, d in pool_device_samples[name]]
        pools[name] = PoolSummary(
            routed=routed,
            completed=pool_completed[name],
            num_batches=num_batches,
            mean_batch_size=(
                total_requests / num_batches if num_batches else 0.0
            ),
            occupancy=(
                total_tokens / (num_batches * seq_len)
                if num_batches else 0.0
            ),
            final_devices=pool_final_devices[name],
            peak_devices=max(device_counts, default=0),
            scale_ups=ups[name],
            scale_downs=downs[name],
            busy_fraction=pool_busy_fraction[name],
            weight_cache_hit_rate=(
                hits / (hits + misses) if (hits + misses) else 0.0
            ),
            max_queue_depth=max(
                (d for _, d in pool_depth_samples[name]), default=0
            ),
        )
        registry.gauge(
            "repro_cluster_pool_busy_fraction",
            "Busy device-time over provisioned device-time",
        ).set(pools[name].busy_fraction, pool=name)

    offered = sum(tenant_offered.values())
    completed = sum(t.completed for t in tenants.values())
    attained = sum(t.slo_attained for t in tenants.values())
    all_latencies = [
        lat for lats in tenant_latencies_us.values() for lat in lats
    ]
    p50, p99, mean = sample_stats(all_latencies, (50, 99))
    seconds = makespan_us / 1e6
    metrics = ClusterMetrics(
        offered=offered,
        completed=completed,
        shed=shed,
        rejected=sum(t.rejected for t in tenants.values()),
        expired=sum(t.expired for t in tenants.values()),
        slo_attained=attained,
        slo_attainment=attained / offered if offered else 0.0,
        throughput_rps=completed / seconds if seconds > 0 else 0.0,
        makespan_us=makespan_us,
        latency_p50_us=p50,
        latency_p99_us=p99,
        latency_mean_us=mean,
        router_policy=policy,
        autoscale_ups=sum(ups.values()),
        autoscale_downs=sum(downs.values()),
        tenants=tenants,
        pools=pools,
    )
    registry.gauge(
        "repro_cluster_slo_attainment",
        "SLO-attained fraction of offered requests",
    ).set(metrics.slo_attainment)
    registry.gauge(
        "repro_cluster_throughput_rps",
        "Completed requests per second of makespan",
    ).set(metrics.throughput_rps)
    registry.gauge(
        "repro_cluster_makespan_us", "Run makespan (us)",
    ).set(makespan_us)
    return metrics
