"""Per-pool runtime state: queue + batcher + workers + cost model.

Each :class:`~repro.config.PoolConfig` becomes one :class:`PoolRuntime`
wrapping the existing serving primitives — an
:class:`~repro.serving.admission.AdmissionQueue`, a
:class:`~repro.serving.batching.DynamicBatcher` and a
:class:`~repro.serving.devices.WorkerPool` whose trace tracks are
prefixed with the pool name, so one Chrome trace renders every pool's
devices side by side.

Heterogeneity enters through the cost model:

* ``"fpga"`` pools price batches with the cycle-accurate
  :class:`~repro.serving.batching.BatchCostModel`, and their workers
  price each ResBlock's weight fetch over a
  :class:`~repro.config.MemoryConfig`, or without one over the Weight
  Memory port;
* ``"gpu"`` pools price batches with :class:`GpuBatchCostModel`, which
  duck-types the same interface on top of the ``repro.gpu_model``
  roofline kernels (V100 by default) and fetches nothing.

The router's expected run of a pool is the run its workers price next
(:attr:`~repro.serving.devices.WorkerPool.run_us`).
"""

from __future__ import annotations

from collections import deque
from typing import Union

from ..config import AcceleratorConfig, ClusterConfig, ModelConfig, PoolConfig
from ..gpu_model.kernels import ffn_resblock_kernels, mha_resblock_kernels
from ..gpu_model.v100 import GpuSpec, v100_batched
from ..serving.admission import AdmissionQueue
from ..serving.batching import BatchCostModel, DynamicBatcher
from ..serving.devices import WorkerPool
from ..serving.kernel import PoolState
from ..telemetry.registry import percentile

#: Time base of GPU-pool "cycles": 1000 MHz -> one cycle is one
#: nanosecond, so roofline microsecond latencies convert losslessly.
GPU_TIME_BASE_MHZ = 1000.0

#: Smoothing factor of the router's per-pool latency EWMA.
EWMA_ALPHA = 0.2

#: Width of the completed-latency window the autoscaler's p99 signal
#: is computed over (200 ms).
P99_WINDOW_US = 200_000.0


class GpuBatchCostModel:
    """Roofline batch cost in :class:`BatchCostModel`'s interface.

    The GPU runs the same packed ``s``-row batch the FPGA pools do (the
    batcher's geometry is the unit of work cluster-wide), priced as the
    serial kernel sequence of the full model: every encoder layer is
    one MHA + one FFN ResBlock, every decoder layer two MHA (self +
    cross) + one FFN.  Latencies come from
    :meth:`~repro.gpu_model.v100.GpuSpec.sequence_latency_us` and are
    expressed as nanosecond "cycles" (``acc.clock_mhz`` = 1000) so the
    :class:`~repro.serving.devices.WorkerPool` machinery needs no
    special-casing.  GPUs keep weights in HBM — the roofline already
    prices that traffic — so every ResBlock's ``block_units`` entry
    carries zero weight bytes and a run fetches nothing.
    """

    def __init__(self, model: ModelConfig, spec: GpuSpec, seq_len: int) -> None:
        self.model = model
        self.spec = spec
        self.acc = AcceleratorConfig(
            seq_len=seq_len, clock_mhz=GPU_TIME_BASE_MHZ
        )
        mha_us = spec.sequence_latency_us(mha_resblock_kernels(model, seq_len))
        ffn_us = spec.sequence_latency_us(ffn_resblock_kernels(model, seq_len))
        self.mha_cycles = round(mha_us * GPU_TIME_BASE_MHZ)
        self.ffn_cycles = round(ffn_us * GPU_TIME_BASE_MHZ)
        # The roofline has no padding waste of its own, so a layer's
        # "ideal" cycles equal its compute cycles: GPU pools report
        # utilization 1.0 and the cluster's utilization stories stay
        # FPGA-side.  Every field is fixed, so each is computed once.
        enc = self.mha_cycles + self.ffn_cycles
        dec = 2 * self.mha_cycles + self.ffn_cycles
        #: Per-layer ``(name, compute_cycles, ideal_cycles)`` entries.
        self.layer_units: tuple[tuple[str, int, int], ...] = (
            (("enc", enc, enc),) * model.num_encoder_layers
            + (("dec", dec, dec),) * model.num_decoder_layers
        )
        #: Per-ResBlock ``(compute_cycles, weight_bytes)``: no fetches.
        mha, ffn = (self.mha_cycles, 0), (self.ffn_cycles, 0)
        self.block_units: tuple[tuple[int, int], ...] = (
            (mha, ffn) * model.num_encoder_layers
            + (mha, mha, ffn) * model.num_decoder_layers
        )
        self.compute_cycles = sum(c for _, c, _ in self.layer_units)
        self.ideal_cycles = self.compute_cycles


def build_cost_model(
    pool: PoolConfig, model: ModelConfig, seq_len: int
) -> Union[BatchCostModel, GpuBatchCostModel]:
    """Instantiate the pool's cost model from its config."""
    if pool.kind == "gpu":
        return GpuBatchCostModel(model, v100_batched(), seq_len)
    acc = AcceleratorConfig(
        seq_len=seq_len,
        clock_mhz=pool.clock_mhz,
        abft_protected=pool.abft_protected,
    )
    return BatchCostModel(model, acc, compression=pool.compression)


class PoolRuntime(PoolState):
    """One cluster pool: a kernel :class:`PoolState` with no fault rates.

    Adds the router/autoscaler bookkeeping (latency EWMA, completed-
    latency window, busy-time snapshots, cooldown stamps) that the
    cluster-level policies read.
    """

    def __init__(
        self, config: PoolConfig, cluster: ClusterConfig, model: ModelConfig,
        seq_len: int,
    ) -> None:
        self.config = config
        self.name = config.name
        self.cost = build_cost_model(config, model, seq_len)
        super().__init__(
            AdmissionQueue(cluster.queue_capacity, cluster.queue_timeout_us),
            DynamicBatcher(
                seq_len, cluster.max_batch_requests, cluster.max_wait_us
            ),
            WorkerPool(
                config.num_devices, config.placement, self.cost,
                self.cost.acc,
                mem=config.memory if config.kind == "fpga" else None,
            ),
        )
        # Router state: latency EWMA seeded with the pool's first priced
        # run so the first routing decisions already see its speed.
        self.ewma_us = self.workers.run_us
        # Autoscaler state.
        self.last_scale_up_us = float("-inf")
        self.last_scale_down_us = float("-inf")
        self.busy_us_snapshot = 0.0
        self.completions: deque[tuple[float, float]] = deque()

    @property
    def run_us(self) -> float:
        """The pool's next priced run (:attr:`WorkerPool.run_us`)."""
        return self.workers.run_us

    @property
    def active_device_count(self) -> int:
        return len(self.workers.active_devices)

    def depth_per_device(self) -> float:
        """Queued requests per active device (the scale-up signal)."""
        return len(self.queue) / max(1, self.active_device_count)

    def predicted_completion_us(self, now_us: float) -> float:
        """Estimated completion time of a request admitted at ``now_us``.

        Device availability, plus the backlog ahead of the request in
        full batches, plus the request's own run.  Deliberately ignores
        the batcher's max-wait hold (small against ``run_us``) — a
        cheap, honest-at-dispatch estimate, not an oracle.
        """
        wait_for_device = max(0.0, self.workers.free_at_us - now_us)
        backlog_batches = len(self.queue) / self.batcher.max_requests
        return (now_us + wait_for_device
                + (backlog_batches + 1.0) * self.workers.run_us)

    def observe_completion(self, completion_us: float, latency_us: float) -> None:
        """Fold one completed request into the EWMA and the p99 window."""
        self.ewma_us += EWMA_ALPHA * (latency_us - self.ewma_us)
        self.completions.append((completion_us, latency_us))

    def windowed_p99_us(self, now_us: float) -> float:
        """Nearest-rank p99 of latencies completed in the last window."""
        horizon = now_us - P99_WINDOW_US
        while self.completions and self.completions[0][0] < horizon:
            self.completions.popleft()
        if not self.completions:
            return 0.0
        return percentile([lat for _, lat in self.completions], 99)

    def interval_busy_fraction(self, interval_us: float) -> float:
        """Busy fraction since the last snapshot; advances the snapshot.

        Busy time is credited at dispatch for the whole run, so a pool
        mid-batch looks busy — which is exactly the conservatism the
        scale-down signal wants.
        """
        busy = sum(d.busy_us for d in self.workers.devices)
        delta = busy - self.busy_us_snapshot
        self.busy_us_snapshot = busy
        capacity = max(1, self.active_device_count) * interval_us
        return min(1.0, delta / capacity) if capacity > 0 else 0.0
