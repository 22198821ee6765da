"""Dynamic batching into the systolic array's ``s x 64`` geometry.

The accelerator always processes its full ``s`` SA rows — shorter
sequences are zero padded (Section III), so a batch-1 run over a
20-token request wastes ``s - 20`` rows of every pass.  The batcher
exploits exactly that: several variable-length requests are packed into
the ``s`` rows of *one* run (each with its own attention mask, which
changes nothing about the cycle count), so the run's fixed cost is
amortized and the padding waste becomes real, accounted throughput.

The cost of a run comes straight from the cycle-accurate models:
:func:`~repro.core.scheduler.schedule_mha` / ``schedule_ffn`` per
ResBlock — including the Eq. (3) irregular ``Q K^T`` handling and the
softmax/LayerNorm tails — and each ResBlock's weight bytes, which the
:class:`~repro.serving.devices.WorkerPool` prices as reload traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..compress.footprint import ffn_weight_bytes, mha_weight_bytes
from ..config import AcceleratorConfig, CompressionSpec, ModelConfig
from ..core.cycle_model import DENSE
from ..core.scheduler import schedule_ffn, schedule_mha
from ..errors import ServingError
from .admission import AdmissionQueue
from .workload import Request


@dataclass(frozen=True)
class Batch:
    """One packed SA run's worth of requests.

    Attributes:
        batch_id: Dense id in dispatch order.
        requests: The packed requests, oldest first.
        formed_us: Time the batch was cut.

    Slotted: a run's log keeps every batch alive.
    """

    __slots__ = ("batch_id", "requests", "formed_us")
    batch_id: int
    requests: tuple[Request, ...]
    formed_us: float

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def total_tokens(self) -> int:
        return sum(r.seq_len for r in self.requests)

    def occupancy(self, seq_len: int) -> float:
        """Fraction of the SA's ``seq_len`` rows holding real tokens."""
        return self.total_tokens / seq_len

    def padding_rows(self, seq_len: int) -> int:
        return seq_len - self.total_tokens


class BatchCostModel:
    """Cycle cost of one batch run, shared by every batch.

    Because the SA always runs its full ``s`` rows, the cost of a run is
    independent of how many requests it carries — which is precisely why
    packing pays.  The model pre-computes:

    * per-ResBlock schedule totals (``schedule_mha`` / ``schedule_ffn``);
    * full-model compute cycles (encoder + decoder stacks);
    * per-ResBlock weight bytes, the unit the pool's reload price works
      at (:class:`~repro.serving.devices.WorkerPool`);
    * the ideal-MAC cycle count used for utilization accounting.

    With a ``compression`` spec the per-ResBlock schedules price their
    weight passes under it and the ResBlock weight sets shrink to their
    compressed footprint (:mod:`repro.compress.footprint`), so the
    reload/cache traffic and throughput both feel the compression.
    """

    def __init__(
        self,
        model: ModelConfig,
        acc: AcceleratorConfig,
        compression: Optional[CompressionSpec] = None,
    ) -> None:
        self.model = model
        self.acc = acc
        self.compression = compression
        spec = DENSE if compression is None else compression
        mha = schedule_mha(model, acc, spec=spec)
        ffn = schedule_ffn(model, acc, spec=spec)
        mha_bytes = mha_weight_bytes(model, acc, spec)
        ffn_bytes = ffn_weight_bytes(model, acc, spec)
        self.mha_cycles = mha.total_cycles
        self.ffn_cycles = ffn.total_cycles
        self.mha_ideal = mha.ideal_sa_cycles
        self.ffn_ideal = ffn.ideal_sa_cycles
        # Every field below is fixed for the model's lifetime, so each
        # is computed here once rather than on every dispatch.
        enc = ("enc", self.mha_cycles + self.ffn_cycles,
               self.mha_ideal + self.ffn_ideal)
        dec = ("dec", 2 * self.mha_cycles + self.ffn_cycles,
               2 * self.mha_ideal + self.ffn_ideal)
        #: Per-layer ``(name, compute_cycles, ideal_cycles)`` entries.
        self.layer_units: tuple[tuple[str, int, int], ...] = (
            (enc,) * model.num_encoder_layers
            + (dec,) * model.num_decoder_layers
        )
        # Per-ResBlock ``(compute_cycles, weight_bytes)`` in execution
        # order: the unit the memory system works at.  Each ResBlock's
        # weight set is one off-chip fetch (MHA blocks carry the four
        # ``d_model x d_model`` projections, FFN blocks ``W1`` + ``W2``).
        mha = (self.mha_cycles, mha_bytes)
        ffn = (self.ffn_cycles, ffn_bytes)
        self.block_units: tuple[tuple[int, int], ...] = (
            (mha, ffn) * model.num_encoder_layers
            + (mha, mha, ffn) * model.num_decoder_layers
        )
        #: Pure compute cycles of one full-model run.
        self.compute_cycles = sum(c for _, c, _ in self.layer_units)
        #: 100%-utilization MAC cycles of one full-model run.
        self.ideal_cycles = sum(i for _, _, i in self.layer_units)

    def stage_cycles(self, num_stages: int) -> list[int]:
        """Split the layer sequence into ``num_stages`` pipeline stages.

        Contiguous layers are distributed as evenly as the layer count
        allows; weights stay resident per stage, so no reload cycles are
        charged.  Stages beyond the layer count get zero work.
        """
        if num_stages <= 0:
            raise ServingError("num_stages must be positive")
        units = self.layer_units
        per, extra = divmod(len(units), num_stages)
        stages = []
        index = 0
        for stage in range(num_stages):
            count = per + (1 if stage < extra else 0)
            stages.append(
                sum(c for _, c, _ in units[index:index + count])
            )
            index += count
        return stages


class DynamicBatcher:
    """FIFO packer with max-batch / max-wait cut-off policy.

    A batch is cut when any of these holds:

    * ``max_requests`` head requests are packed (count-full);
    * the next waiter no longer fits the remaining SA rows
      (geometry-full);
    * the oldest waiter has waited at least ``max_wait_us``;
    * the caller forces a flush (end of workload).

    Otherwise the batcher holds the queue for more arrivals, trading a
    little latency for occupancy — the classic dynamic-batching deal.
    ``max_requests=1`` reproduces the paper's batch-1 operating point.
    """

    def __init__(
        self, seq_len: int, max_requests: int, max_wait_us: float
    ) -> None:
        if seq_len <= 0:
            raise ServingError("seq_len must be positive")
        if max_requests <= 0:
            raise ServingError("max_requests must be positive")
        if max_wait_us < 0:
            raise ServingError("max_wait_us must be non-negative")
        self.seq_len = seq_len
        self.max_requests = max_requests
        self.max_wait_us = max_wait_us
        self._next_batch_id = 0

    def _packable(self, queue: AdmissionQueue) -> int:
        """How many head requests fit the SA rows and the count cap."""
        count = 0
        tokens = 0
        while count < min(self.max_requests, len(queue)):
            next_len = queue.peek(count).seq_len
            if tokens + next_len > self.seq_len:
                break
            tokens += next_len
            count += 1
        return count

    def try_form(
        self,
        queue: AdmissionQueue,
        now_us: float,
        force: bool = False,
    ) -> Optional[Batch]:
        """Cut and return a batch if the policy says so, else ``None``."""
        if not len(queue):
            return None
        count = self._packable(queue)
        if count == 0:
            raise ServingError(
                f"head request {queue.peek(0).req_id} ({queue.peek(0).seq_len} "
                f"tokens) exceeds the SA's {self.seq_len} rows"
            )
        count_full = count == self.max_requests
        geometry_full = count < len(queue) and not count_full
        # Compare against the exact float the simulator schedules its
        # wakeup at (arrival + max_wait); re-deriving the wait as
        # now - arrival can round below max_wait and livelock the loop.
        waited_out = now_us >= self.next_deadline_us(queue)
        if not (count_full or geometry_full or waited_out or force):
            return None
        requests = tuple(queue.pop_front(count, now_us))
        batch = Batch(self._next_batch_id, requests, now_us)
        self._next_batch_id += 1
        return batch

    def next_deadline_us(self, queue: AdmissionQueue) -> float:
        """When the oldest waiter's max-wait cut-off fires (inf if empty)."""
        if not len(queue):
            return float("inf")
        return queue.peek(0).arrival_us + self.max_wait_us
