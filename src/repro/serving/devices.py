"""Multi-accelerator worker pool (replicated or layer-sharded).

Two placements over ``N`` simulated devices:

* ``"replicate"`` — every device holds the full model and serves whole
  batches independently, fetching every ResBlock's weights before it
  runs (the on-chip weight memory only holds one layer, exactly as in
  :class:`~repro.core.model_runner.AcceleratedStack`).  The fetches go
  over a memory system's link: a :class:`~repro.config.MemoryConfig`'s
  shared DRAM channels (replicas contend) in front of a per-device
  weight cache, or without one the Weight Memory port itself
  (:func:`~repro.core.model_runner.port_fetch_cycles`, one bank, no
  cache).  Either way a block's fetch is priced from its possibly
  compressed bytes and exposed by
  :func:`~repro.core.model_runner.exposed_reload_cycles`;
* ``"layer_shard"`` — the layer stack is split into ``N`` contiguous
  pipeline stages, one per device, with weights resident (no reloads);
  a batch flows through the stages and a new batch may enter stage 0
  as soon as it drains, so throughput is set by the slowest stage.

A replica's weight cache has two states, because every run touches the
same ResBlock weight sets in the same order: cold (every block misses),
and warm after its first run (every block no larger than the cache hits)
only if those blocks fit in the cache together.  The pool prices both
per contender count; each device keeps one bit, ``Device.weights_warm``.
Without a cache the two states price alike.  The pool's ``run_us`` is
the run it expects next, which the cluster router reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import AcceleratorConfig, MemoryConfig
from ..core.model_runner import exposed_reload_cycles, port_fetch_cycles
from ..errors import ServingError
from ..memsys.bandwidth import contenders_per_channel
from ..memsys.cache import default_weight_cache_bytes
from .batching import Batch, BatchCostModel


@dataclass
class Device:
    """One simulated accelerator's availability and usage counters.

    ``activated_us`` / ``draining`` / ``retired_us`` exist for the
    cluster autoscaler (:mod:`repro.cluster`): a device added mid-run
    records when it joined, a draining device finishes its in-flight
    batch but accepts no new ones, and a retired device records when
    its drain completed.  Plain serving runs never touch them.
    ``weights_warm`` is set by its first replicated run.
    """

    device_id: int
    free_at_us: float = 0.0
    busy_us: float = 0.0
    alive: bool = True
    failed_at_us: Optional[float] = None
    activated_us: float = 0.0
    draining: bool = False
    retired_us: Optional[float] = None
    weights_warm: bool = False

    def occupy(self, start_us: float, duration_us: float) -> None:
        if not self.alive:
            raise ServingError(
                f"device {self.device_id} dispatched after failing"
            )
        if self.draining:
            raise ServingError(
                f"device {self.device_id} dispatched while draining"
            )
        if start_us < self.free_at_us:
            raise ServingError(
                f"device {self.device_id} double-booked at {start_us}"
            )
        self.free_at_us = start_us + duration_us
        self.busy_us += duration_us

    def fail(self, at_us: float) -> None:
        """Fail-stop: the device completes nothing after ``at_us``."""
        self.alive = False
        self.failed_at_us = at_us


@dataclass
class DispatchOutcome:
    """What one run of a batch did: the facts the kernel log keeps.

    ``occupied`` holds each device's ``(device_id, start_us,
    duration_us)``: one for a replicated run, one per stage for a
    sharded run, each duration exactly as the device computed it.
    ``cycles`` and its exposed ``reload_cycles`` price a single-device
    run (``None`` for a sharded run); ``hits`` / ``misses`` count its
    cache lookups (``None`` without a weight cache to look up).  Spans and
    counters are views of these facts (:mod:`repro.serving.views`).

    Slotted, with tuples: a run's log keeps every outcome alive.
    """

    __slots__ = ("start_us", "completion_us", "occupied", "cycles",
                 "reload_cycles", "hits", "misses")
    start_us: float
    completion_us: float
    occupied: tuple[tuple[int, float, float], ...]
    cycles: Optional[int]
    reload_cycles: Optional[int]
    hits: Optional[int]
    misses: Optional[int]

    @property
    def device_ids(self) -> tuple[int, ...]:
        return tuple(device_id for device_id, _, _ in self.occupied)


class WorkerPool:
    """Schedules batches onto the simulated devices.

    :meth:`dispatch` occupies devices and returns what the run did as a
    :class:`DispatchOutcome`; the pool keeps only device state (busy
    time, membership, warm weight caches), and hit, miss and stall totals
    are folds over the logged outcomes.

    ``run_us`` is read-only: the duration of the run the pool expects
    next (compute plus the cold reload at the current contention, or
    the warm one once every active device is warm; a sharded run's
    stages end to end).  It is refreshed where membership or warmth
    changes, never per query.  So is ``free_at_us``, the earliest time
    the pool can accept another batch (inf once the pool is dead),
    refreshed by every method that occupies a device or changes
    membership.
    """

    def __init__(
        self,
        num_devices: int,
        placement: str,
        cost_model: BatchCostModel,
        acc: AcceleratorConfig,
        mem: Optional[MemoryConfig] = None,
    ) -> None:
        if num_devices <= 0:
            raise ServingError("num_devices must be positive")
        if placement not in ("replicate", "layer_shard"):
            raise ServingError(f"unknown placement {placement!r}")
        if (placement == "layer_shard"
                and num_devices > len(cost_model.layer_units)):
            raise ServingError(
                f"cannot shard {len(cost_model.layer_units)} layers "
                f"across {num_devices} devices"
            )
        self.placement = placement
        self.cost = cost_model
        self.acc = acc
        self.devices = [Device(i) for i in range(num_devices)]
        # Alive, non-draining devices in id order, kept current by
        # add_device / drain_device / fail_device (the only places that
        # change membership), so the per-event queries never rebuild it.
        self._active = list(self.devices)
        self.free_at_us = 0.0
        # Memory system (replicate only: layer_shard keeps weights
        # resident, so its run is its stages end to end).
        self.mem = mem if placement == "replicate" else None
        if placement == "layer_shard":
            self._stage_us = [
                acc.cycles_to_us(c)
                for c in cost_model.stage_cycles(num_devices)
            ]
            self.run_us = sum(self._stage_us)
        else:
            # Per contender count, the ``(exposed_cycles, hits, misses)``
            # of a cold run and of a warm one: every fetch is priced once.
            self._reload_tables: dict[int, tuple] = {}
            self._recount_contenders()

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def active_devices(self) -> list[Device]:
        """Devices that may take new batches: alive and not draining.

        In device-id order.  This is the pool's own list: read it, do
        not mutate it.
        """
        return self._active

    @property
    def device_failures(self) -> int:
        return sum(not d.alive for d in self.devices)

    @property
    def pool_alive(self) -> bool:
        """Whether the pool can still serve batches at all.

        A replicated pool degrades replica by replica and dies only when
        every device has failed (or is draining); a layer-sharded
        pipeline dies with its first failed stage (that stage's resident
        weights are gone).
        """
        if self.placement == "replicate":
            return bool(self._active)
        return len(self._active) == len(self.devices)

    def add_device(self, now_us: float) -> Device:
        """Grow a ``"replicate"`` pool by one replica (autoscale-up).

        The new device joins idle at ``now_us``; with a memory system
        it starts with a cold weight cache, so its first run pays the
        full fetch traffic — exactly what a freshly provisioned
        accelerator would.
        """
        if self.placement != "replicate":
            raise ServingError("only replicate pools can add devices")
        device = Device(
            len(self.devices), free_at_us=now_us, activated_us=now_us
        )
        self.devices.append(device)
        self._active.append(device)
        self._recount_contenders()
        self._refresh_free_at()
        return device

    def drain_device(self, device_id: int, now_us: float) -> Device:
        """Begin a graceful drain of one replica (autoscale-down).

        The device stops accepting new batches immediately; an
        in-flight batch runs to completion (``free_at_us`` stands), and
        the device retires when it goes idle — so draining never drops
        admitted work.
        """
        if self.placement != "replicate":
            raise ServingError("only replicate pools can drain devices")
        if not 0 <= device_id < self.num_devices:
            raise ServingError(f"no device {device_id} in the pool")
        device = self.devices[device_id]
        if not device.alive or device.draining:
            raise ServingError(
                f"device {device_id} is already draining or dead"
            )
        device.draining = True
        device.retired_us = max(now_us, device.free_at_us)
        self._active.remove(device)
        self._recount_contenders()
        self._refresh_free_at()
        return device

    def _warm_residency(self) -> tuple[bool, ...]:
        """Per ResBlock, whether a warm device's cache holds its weights:
        the blocks no larger than the cache, if they fit in it together.
        """
        capacity = 0
        if self.mem.enable_weight_cache:
            capacity = (
                int(self.mem.weight_cache_kib * 1024)
                if self.mem.weight_cache_kib is not None
                else default_weight_cache_bytes(self.cost.model, self.acc)
            )
        sizes = [nbytes for _, nbytes in self.cost.block_units]
        if sum(n for n in sizes if n <= capacity) > capacity:
            return (False,) * len(sizes)
        return tuple(n <= capacity for n in sizes)

    def _recount_contenders(self) -> None:
        """Re-derive link contention, its reload table and ``run_us``."""
        if self.placement == "layer_shard":
            return
        mem = self.mem
        # Without a memory system each device has its own port.
        contenders = 1 if mem is None else contenders_per_channel(
            max(1, len(self._active)), mem.shared_channels
        )
        if contenders not in self._reload_tables:
            self._reload_tables[contenders] = self._price_reloads(contenders)
        self._reload_table = self._reload_tables[contenders]
        self._refresh_run_us()

    def _price_reloads(self, contenders: int) -> tuple:
        """The cold and warm ``(exposed_cycles, hits, misses)`` of a run."""
        mem = self.mem
        if mem is None:
            # The Weight Memory port: one bank (no prefetch), no cache.
            bits = self.acc.weight_bits
            run = (sum(port_fetch_cycles(nbytes, bits)
                       for _, nbytes in self.cost.block_units), None, None)
            return run, run
        clock_mhz = self.acc.clock_mhz
        cold = [(mem.transfer_cycles(nbytes, clock_mhz, contenders), compute)
                for compute, nbytes in self.cost.block_units]
        resident = self._warm_residency()
        warm = [(0 if hit else fetch, compute)
                for (fetch, compute), hit in zip(cold, resident)]
        prefetch = mem.double_buffered_prefetch
        hits = sum(resident)
        return (
            (exposed_reload_cycles(cold, prefetch), 0, len(cold)),
            (exposed_reload_cycles(warm, prefetch), hits, len(cold) - hits),
        )

    def _refresh_run_us(self) -> None:
        cold, warm = self._reload_table
        all_warm = all(d.weights_warm for d in self._active)
        reload_cycles = (warm if all_warm else cold)[0]
        self.run_us = self.acc.cycles_to_us(
            self.cost.compute_cycles + reload_cycles
        )

    def fail_device(self, device_id: int, at_us: float) -> None:
        """Fail-stop ``device_id`` at ``at_us`` (no effect if dead)."""
        if not 0 <= device_id < self.num_devices:
            raise ServingError(f"no device {device_id} in the pool")
        device = self.devices[device_id]
        if device.alive:
            device.fail(at_us)
            if not device.draining:
                self._active.remove(device)
                self._recount_contenders()
                self._refresh_free_at()

    def _refresh_free_at(self) -> None:
        if not self.pool_alive:
            self.free_at_us = float("inf")
        elif self.placement == "replicate":
            self.free_at_us = min(d.free_at_us for d in self._active)
        else:
            self.free_at_us = self.devices[0].free_at_us

    def next_free_us(self) -> float:
        """Earliest time the pool can accept another batch."""
        return self.free_at_us

    def can_accept(self, now_us: float) -> bool:
        return self.free_at_us <= now_us

    def dispatch(self, batch: Batch, now_us: float) -> DispatchOutcome:
        """Run ``batch`` starting no earlier than ``now_us``."""
        if not self.pool_alive:
            raise ServingError("dispatch to a dead pool")
        if self.placement == "replicate":
            device = min(
                self._active, key=lambda d: (d.free_at_us, d.device_id)
            )
            start = max(now_us, device.free_at_us)
            reload_cycles, hits, misses = self._memsys_reload_cycles(
                device.device_id
            )
            cycles = self.cost.compute_cycles + reload_cycles
            duration = self.acc.cycles_to_us(cycles)
            device.occupy(start, duration)
            self._refresh_free_at()
            return DispatchOutcome(
                start, start + duration,
                ((device.device_id, start, duration),),
                cycles, reload_cycles, hits, misses,
            )
        # layer_shard: stage i runs on device i after stage i-1 drains.
        occupied = []
        ready = now_us
        for device, stage_us in zip(self.devices, self._stage_us):
            start = max(ready, device.free_at_us)
            device.occupy(start, stage_us)
            occupied.append((device.device_id, start, stage_us))
            ready = start + stage_us
        self._refresh_free_at()
        return DispatchOutcome(
            occupied[0][1], ready, tuple(occupied), None, None, None, None
        )

    def _memsys_reload_cycles(
        self, device_id: int
    ) -> tuple[int, Optional[int], Optional[int]]:
        """``(exposed_cycles, hits, misses)`` of one run on ``device_id``.

        A device's first run is cold and leaves it warm (see the module
        docstring); an ABFT retry on it runs warm.  Warming the last
        cold device turns the pool's ``run_us`` warm.
        """
        device = self.devices[device_id]
        cold, warm = self._reload_table
        if device.weights_warm:
            return warm
        device.weights_warm = True
        self._refresh_run_us()
        return cold

    def busy_fraction(self, makespan_us: float) -> float:
        """Pool-wide fraction of device-time spent running batches."""
        if makespan_us <= 0:
            return 0.0
        busy = sum(d.busy_us for d in self.devices)
        return busy / (self.num_devices * makespan_us)

    def device_time_us(self, end_us: float) -> float:
        """Total device-time provisioned up to ``end_us``.

        Counts each device from its activation to its retirement (or
        ``end_us`` while it is still provisioned) — the denominator a
        pool with autoscaled membership needs for its busy fraction.
        """
        total = 0.0
        for device in self.devices:
            stop = device.retired_us if device.retired_us is not None else end_us
            total += max(0.0, stop - device.activated_us)
        return total
