"""Serving metrics: latency percentiles, throughput, utilization.

Percentiles use the deterministic nearest-rank definition (the smallest
value with at least ``p%`` of the sample at or below it), so the
reported p50/p95/p99 are always actual observed latencies and runs are
exactly reproducible.

:func:`compute_metrics` folds one run's own outcomes into a
:class:`ServingMetrics`.  Given a
:class:`~repro.telemetry.registry.MetricsRegistry` it also records them
(:func:`~repro.telemetry.instrument.record_serving`), so the numbers
the summary reports are exportable as Prometheus text / JSON / Chrome
counter tracks; the summary never reads the registry back.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..telemetry.instrument import record_serving
from ..telemetry.registry import MetricsRegistry, sample_stats
from ..telemetry.registry import percentile as percentile


def mean_queue_depth(samples: Sequence[tuple[float, int]]) -> float:
    """Time-weighted mean depth from ``(time, depth)`` change samples."""
    if len(samples) < 2:
        return float(samples[0][1]) if samples else 0.0
    area = 0.0
    for (t0, d0), (t1, _) in zip(samples, samples[1:]):
        area += d0 * (t1 - t0)
    horizon = samples[-1][0] - samples[0][0]
    return area / horizon if horizon > 0 else float(samples[0][1])


@dataclass(frozen=True)
class ServingMetrics:
    """Summary of one simulated serving run.

    Attributes:
        offered / completed / rejected / expired: Request counts.
        failed: Requests whose batch kept faulting past the retry
            budget, or that were stranded when the pool died.
        retried: Batch re-runs triggered by ABFT-detected faults.
        corrupted: Completed requests whose batch took an undetected
            fault (silent corruption; only possible without ABFT).
        device_failures: Devices that fail-stopped during the run.
        rejection_rate: ``(rejected + expired) / offered``.
        latency percentiles / mean: Arrival-to-completion, us (only
            completed requests; all 0.0 when nothing completed, never
            NaN).
        throughput_rps: Completed requests per second of makespan.
        tokens_per_s: Valid tokens served per second of makespan.
        makespan_us: First arrival to last completion.
        num_batches / mean_batch_size: Dispatch accounting.
        occupancy: Valid tokens / (batches x SA rows) — 1 minus the
            padding waste the ``s x 64`` geometry forces.
        device_busy_fraction: Busy device-time / total device-time.
        sa_utilization: Useful-MAC utilization of the whole pool:
            ideal MAC cycles, scaled by row occupancy, over all
            PE-cycles in the makespan.
        mean_queue_depth / max_queue_depth: Admission-queue pressure.
        weight_cache_hits / weight_cache_misses: ResBlock weight-set
            lookups across all devices (zero unless a
            :class:`~repro.config.MemoryConfig` is configured).
        weight_cache_hit_rate: ``hits / (hits + misses)``.
        reload_stall_cycles: Total exposed weight-fetch cycles the
            memory system charged across all batch runs.
    """

    offered: int
    completed: int
    rejected: int
    expired: int
    rejection_rate: float
    latency_p50_us: float
    latency_p95_us: float
    latency_p99_us: float
    latency_mean_us: float
    throughput_rps: float
    tokens_per_s: float
    makespan_us: float
    num_batches: int
    mean_batch_size: float
    occupancy: float
    device_busy_fraction: float
    sa_utilization: float
    mean_queue_depth: float
    max_queue_depth: int
    failed: int = 0
    retried: int = 0
    corrupted: int = 0
    device_failures: int = 0
    weight_cache_hits: int = 0
    weight_cache_misses: int = 0
    weight_cache_hit_rate: float = 0.0
    reload_stall_cycles: int = 0
    extra: dict = field(default_factory=dict)

    def as_rows(self) -> list[list[str]]:
        """Two-column rows for :func:`repro.analysis.render_table`."""
        return [
            ["offered", str(self.offered)],
            ["completed", str(self.completed)],
            ["rejected (full)", str(self.rejected)],
            ["expired (timeout)", str(self.expired)],
            ["failed (fault)", str(self.failed)],
            ["retried (fault)", str(self.retried)],
            ["corrupted (silent)", str(self.corrupted)],
            ["device failures", str(self.device_failures)],
            ["rejection rate", f"{self.rejection_rate:.1%}"],
            ["p50 latency", f"{self.latency_p50_us:.1f} us"],
            ["p95 latency", f"{self.latency_p95_us:.1f} us"],
            ["p99 latency", f"{self.latency_p99_us:.1f} us"],
            ["throughput", f"{self.throughput_rps:.1f} req/s"],
            ["token throughput", f"{self.tokens_per_s:,.0f} tok/s"],
            ["batches", str(self.num_batches)],
            ["mean batch size", f"{self.mean_batch_size:.2f}"],
            ["SA row occupancy", f"{self.occupancy:.1%}"],
            ["device busy", f"{self.device_busy_fraction:.1%}"],
            ["SA utilization", f"{self.sa_utilization:.1%}"],
            ["mean queue depth", f"{self.mean_queue_depth:.2f}"],
            ["max queue depth", str(self.max_queue_depth)],
            ["weight-cache hits", str(self.weight_cache_hits)],
            ["weight-cache misses", str(self.weight_cache_misses)],
            ["weight-cache hit rate", f"{self.weight_cache_hit_rate:.1%}"],
            ["reload stall cycles", f"{self.reload_stall_cycles:,}"],
        ]


def compute_metrics(
    latencies_us: Sequence[float],
    batch_sizes: Sequence[int],
    batch_tokens: Sequence[int],
    seq_len: int,
    offered: int,
    rejected: int,
    expired: int,
    makespan_us: float,
    device_busy_fraction: float,
    ideal_cycles_per_run: int,
    run_cycles: int,
    num_devices: int,
    depth_samples: Sequence[tuple[float, int]],
    failed: int = 0,
    retried: int = 0,
    corrupted: int = 0,
    device_failures: int = 0,
    weight_cache_hits: int = 0,
    weight_cache_misses: int = 0,
    reload_stall_cycles: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> ServingMetrics:
    """Fold one run's raw outcomes into a :class:`ServingMetrics`.

    With a ``registry``, the summary and the raw outcomes are also
    recorded into it (:func:`~repro.telemetry.instrument.record_serving`);
    nothing is read from it, so a registry shared by several runs holds
    their union while each summary covers its own run.
    """
    completed = len(latencies_us)
    # The mean divides the latencies summed in observation order.
    total_us = 0.0
    for value in latencies_us:
        total_us += value
    p50, p95, p99, mean = sample_stats(
        latencies_us, (50, 95, 99), total=total_us
    )
    seconds = makespan_us / 1e6
    num_batches = len(batch_sizes)
    total_tokens = sum(batch_tokens)
    occupancy = (
        total_tokens / (num_batches * seq_len) if num_batches else 0.0
    )
    # Useful-MAC share: each run streams ideal_cycles_per_run MACs at
    # full s; occupancy discounts the rows that were padding.
    sa_util = 0.0
    if makespan_us > 0 and run_cycles > 0:
        sa_util = (device_busy_fraction
                   * (ideal_cycles_per_run / run_cycles) * occupancy)
    lookups = weight_cache_hits + weight_cache_misses
    metrics = ServingMetrics(
        offered=offered,
        completed=completed,
        rejected=rejected,
        expired=expired,
        rejection_rate=(rejected + expired) / offered if offered else 0.0,
        latency_p50_us=p50,
        latency_p95_us=p95,
        latency_p99_us=p99,
        latency_mean_us=mean,
        throughput_rps=completed / seconds if seconds > 0 else 0.0,
        tokens_per_s=total_tokens / seconds if seconds > 0 else 0.0,
        makespan_us=makespan_us,
        num_batches=num_batches,
        mean_batch_size=(
            sum(batch_sizes) / num_batches if num_batches else 0.0
        ),
        occupancy=occupancy,
        device_busy_fraction=device_busy_fraction,
        sa_utilization=sa_util,
        mean_queue_depth=mean_queue_depth(depth_samples),
        max_queue_depth=int(max((d for _, d in depth_samples), default=0)),
        failed=failed,
        retried=retried,
        corrupted=corrupted,
        device_failures=device_failures,
        weight_cache_hits=weight_cache_hits,
        weight_cache_misses=weight_cache_misses,
        weight_cache_hit_rate=(
            weight_cache_hits / lookups if lookups else 0.0
        ),
        reload_stall_cycles=reload_stall_cycles,
    )
    if registry is not None:
        record_serving(
            registry, metrics=metrics, latencies_us=latencies_us,
            batch_sizes=batch_sizes, batch_tokens=batch_tokens,
            depth_samples=depth_samples,
        )
    return metrics
