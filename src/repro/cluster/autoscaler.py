"""Threshold autoscaler over the cluster's replicate pools.

Every ``interval_us`` the scaler reads each pool's signals and moves
one replica at a time:

* **scale up** when queued requests per active device exceed
  ``scale_up_queue_depth``, or (optionally) when the windowed p99
  latency exceeds ``scale_up_p99_us``, or (optionally, with a
  :class:`~repro.obs.slo.BurnRateMonitor` attached through
  :meth:`Autoscaler.attach_burn_source`) when the worst short-window
  SLO burn rate exceeds ``scale_up_burn_rate`` — all leading
  indicators of an SLO breach;
* **scale down** when the busy fraction over the last interval fell
  below ``scale_down_busy`` *and* the queue is empty — trailing
  evidence of overprovisioning.

Per-pool, per-direction cooldowns damp flapping, and the pool's
``[min_devices, max_devices]`` bounds are never crossed.  Scale-down
drains gracefully through
:meth:`~repro.serving.devices.WorkerPool.drain_device`: the replica
finishes its in-flight batch and only then retires, so admitted work
is never dropped.  Layer-sharded pools are static (the pipeline shape
cannot change at runtime) and are skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import AutoscalerConfig
from .pools import PoolRuntime


@dataclass(frozen=True)
class ScaleAction:
    """One autoscaler decision; the cluster run logs it for its views.

    Attributes:
        at_us: Evaluation time the action fired.
        pool: Pool the action applied to.
        direction: ``"up"`` (device added) or ``"down"`` (drain begun).
        device_id: The added or draining device.
        reason: The signal that tripped (``"queue_depth"``, ``"p99"``,
            ``"slo_burn"`` or ``"idle"``).
    """

    at_us: float
    pool: str
    direction: str
    device_id: int
    reason: str


class Autoscaler:
    """Evaluates the threshold policy against the live pools."""

    def __init__(self, config: AutoscalerConfig, pools: list[PoolRuntime]):
        self.config = config
        self.pools = pools
        self._burn_source = None

    def attach_burn_source(self, source) -> None:
        """Opt into the SLO burn-rate up-signal.

        ``source(now_us)`` must return the worst current short-window
        burn rate across tenants (typically
        :meth:`repro.obs.slo.BurnRateMonitor.max_short_burn`); it fires
        the ``"slo_burn"`` scale-up reason when it exceeds
        ``config.scale_up_burn_rate``.
        """
        self._burn_source = source

    def evaluate(self, now_us: float) -> list[ScaleAction]:
        """Run one scaler tick; mutates pools, returns the actions taken."""
        if not self.config.enabled:
            return []
        fired: list[ScaleAction] = []
        for pool in self.pools:
            if pool.config.placement != "replicate":
                continue
            if not pool.workers.pool_alive:
                continue
            action = self._evaluate_pool(pool, now_us)
            if action is not None:
                fired.append(action)
        return fired

    def _evaluate_pool(self, pool, now_us):
        cfg = self.config
        reason = self._up_reason(pool, now_us)
        if (reason is not None
                and pool.active_device_count < pool.config.max_devices
                and now_us - pool.last_scale_up_us >= cfg.cooldown_up_us):
            device = pool.workers.add_device(now_us)
            pool.last_scale_up_us = now_us
            return ScaleAction(now_us, pool.name, "up", device.device_id,
                               reason)
        busy = pool.interval_busy_fraction(cfg.interval_us)
        if (busy < cfg.scale_down_busy
                and len(pool.queue) == 0
                and pool.active_device_count > pool.config.min_devices
                and now_us - pool.last_scale_down_us >= cfg.cooldown_down_us):
            victim = self._drain_victim(pool)
            if victim is not None:
                pool.workers.drain_device(victim, now_us)
                pool.last_scale_down_us = now_us
                return ScaleAction(now_us, pool.name, "down", victim, "idle")
        return None

    def _up_reason(self, pool: PoolRuntime, now_us: float):
        cfg = self.config
        if pool.depth_per_device() > cfg.scale_up_queue_depth:
            return "queue_depth"
        if (cfg.scale_up_p99_us is not None
                and pool.windowed_p99_us(now_us)
                > cfg.scale_up_p99_us):
            return "p99"
        if (cfg.scale_up_burn_rate is not None
                and self._burn_source is not None
                and self._burn_source(now_us) > cfg.scale_up_burn_rate):
            return "slo_burn"
        return None

    @staticmethod
    def _drain_victim(pool: PoolRuntime):
        """Pick the active device that frees soonest (least drain waste)."""
        active = pool.workers.active_devices
        if not active:
            return None
        return min(active, key=lambda d: (d.free_at_us, d.device_id)).device_id
