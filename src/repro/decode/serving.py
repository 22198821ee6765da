"""Mixed prefill/decode serving over the fused and decode-step models.

:func:`simulate_decode` drives seeded generation streams — a long
prompt prefill followed by per-token decode — through a small device
pool, interleaving the two phases under one of two policies:

* ``"decode_priority"`` — pending decode steps always dispatch before
  any queued prefill, protecting inter-token latency at the cost of
  time-to-first-token under prefill bursts;
* ``"prefill_chunk"`` — each prefill is split into its 64-row tiles and
  chunks round-robin with decode batches, bounding how long a prompt
  can monopolize the array.

The run is hooks on the :class:`~repro.serving.kernel.EventKernel` over
one pool: the queue holds each admitted stream until it finishes, the
batcher is the policy, the workers are the devices, and ``dispatched``
applies each unit's progress and K/V residency.  Records, token gaps,
spans and stream traces are views of the kernel log
(:mod:`repro.serving.views`).

Costs come from the closed-form decode models (property-tested against
the event timelines): :func:`~repro.decode.cycle_model.prefill_layer_cycles`
per layer for prompts, :func:`~repro.decode.cycle_model.decode_step_breakdown`
plus the FFN per layer for steps, and
:class:`~repro.decode.kvcache.KVCacheModel` refetch cycles for K/V
pages that fell out of the BRAM budget.  Generation is modeled
decoder-only-style: prompt and generated tokens share one
self-attention context per layer, so a step at context ``t`` reads
``t`` cached K/V positions.  The run is exactly reproducible from its
:class:`~repro.config.DecodeConfig` and emits ``repro_decode_*``
telemetry plus Chrome-trace spans (``repro decode-sim``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..config import AcceleratorConfig, DecodeConfig, ModelConfig
from ..core.cycle_model import ffn_cycle_breakdown
from ..core.trace import TraceSpan, counter_tracks, write_span_trace
from ..errors import ServingError
from ..serving.devices import DispatchOutcome
from ..serving.kernel import Dispatch, EventKernel, PoolState
from ..serving.views import (
    StreamRecord,
    add_stream_traces,
    hit_rate_samples,
    stream_records,
)
from ..telemetry.registry import sample_stats
from .cycle_model import decode_step_breakdown, prefill_layer_cycles
from .kvcache import KVCacheModel

if TYPE_CHECKING:
    from ..obs.spans import TraceCollector
    from ..telemetry.registry import MetricsRegistry

__all__ = [
    "DecodeMetrics",
    "DecodeResult",
    "DecodeStream",
    "StreamRecord",
    "sample_decode_streams",
    "simulate_decode",
]

_INF = float("inf")


@dataclass(frozen=True)
class DecodeStream:
    """One generation stream: a prompt, then autoregressive tokens."""

    stream_id: int
    arrival_us: float
    prefill_len: int
    decode_tokens: int


@dataclass(frozen=True)
class DecodeMetrics:
    """Summary of one mixed prefill/decode run.

    ``tokens_per_s`` counts every emitted token (the prefill's first
    plus each decode step's) over the makespan;
    ``mean_token_latency_us`` is the mean decode-step wall time
    including any wait for a device.
    """

    offered: int
    completed: int
    rejected: int
    decode_steps: int
    decode_batches: int
    prefill_chunks: int
    decoded_tokens: int
    tokens_per_s: float
    prefill_p50_us: float
    prefill_p99_us: float
    mean_token_latency_us: float
    kv_hit_rate: float
    kv_refetch_cycles: int
    makespan_us: float

    def as_rows(self) -> list[list[str]]:
        """Two-column rows for :func:`repro.analysis.render_table`."""
        return [
            ["streams offered / completed / rejected",
             f"{self.offered} / {self.completed} / {self.rejected}"],
            ["decode steps / batches",
             f"{self.decode_steps} / {self.decode_batches}"],
            ["prefill chunks", str(self.prefill_chunks)],
            ["decoded tokens", str(self.decoded_tokens)],
            ["throughput", f"{self.tokens_per_s:.1f} tok/s"],
            ["prefill latency p50 / p99",
             f"{self.prefill_p50_us:.0f} / {self.prefill_p99_us:.0f} us"],
            ["mean inter-token latency",
             f"{self.mean_token_latency_us:.1f} us"],
            ["KV-cache hit rate", f"{self.kv_hit_rate:.1%}"],
            ["KV refetch cycles", f"{self.kv_refetch_cycles:,}"],
            ["makespan", f"{self.makespan_us:.0f} us"],
        ]


@dataclass
class DecodeResult:
    """Everything one simulated mixed run produced."""

    decode: DecodeConfig
    metrics: DecodeMetrics
    records: list[StreamRecord]
    spans: list[TraceSpan] = field(default_factory=list)
    kv_samples: list[tuple] = field(default_factory=list)

    def write_trace(self, path: str) -> int:
        """Write spans + the KV hit-rate counter as Chrome JSON."""
        return write_span_trace(
            self.spans, path,
            counters=counter_tracks([("kv_cache_hit_rate", self.kv_samples)]),
            other_data={
                "completed": self.metrics.completed,
                "tokens_per_s": self.metrics.tokens_per_s,
                "kv_hit_rate": self.metrics.kv_hit_rate,
                "policy": self.decode.policy,
            },
        )


def sample_decode_streams(decode: DecodeConfig) -> list[DecodeStream]:
    """Seeded Poisson stream workload for :func:`simulate_decode`."""
    rng = np.random.default_rng(decode.seed)
    gap_us = 1e6 / decode.arrival_rate_rps
    streams = []
    now = 0.0
    for sid in range(decode.num_streams):
        now += float(rng.exponential(gap_us))
        streams.append(DecodeStream(
            stream_id=sid,
            arrival_us=now,
            prefill_len=int(rng.integers(
                decode.prefill_len_min, decode.prefill_len_max + 1
            )),
            decode_tokens=int(rng.integers(
                decode.decode_tokens_min, decode.decode_tokens_max + 1
            )),
        ))
    return streams


class _CostModel:
    """Memoized prefill/step cycle costs for one (model, acc, mem)."""

    def __init__(
        self,
        model: ModelConfig,
        acc: AcceleratorConfig,
        decode: DecodeConfig,
    ) -> None:
        self.model = model
        self.acc = acc
        self.mem = decode.memory
        # Generation runs decoder-only-style through one stack; an
        # encoder-only preset (BERT) generates through its encoder
        # layers rather than refusing to run.
        self.num_layers = (
            model.num_decoder_layers or model.num_encoder_layers
        )
        self._prefill: dict[int, int] = {}
        self._step: dict[int, int] = {}

    def prefill_cycles(self, s: int) -> int:
        if s not in self._prefill:
            self._prefill[s] = self.num_layers * prefill_layer_cycles(
                self.model, self.acc, s, self.mem
            )
        return self._prefill[s]

    def step_cycles(self, context_len: int) -> int:
        """One layer-stack decode step at ``context_len`` (no refetch)."""
        if context_len not in self._step:
            layer = (
                decode_step_breakdown(
                    self.model, self.acc, context_len, self.mem
                ).total_cycles
                + ffn_cycle_breakdown(
                    self.model, self.acc, self.mem
                ).total_cycles
            )
            self._step[context_len] = self.num_layers * layer
        return self._step[context_len]


@dataclass(eq=False)
class _Active:
    """Mutable progress of one admitted stream."""

    stream: DecodeStream
    chunks: int               # prefill dispatches in all
    tokens_left: int
    busy_until: float         # serializes the stream across devices
    chunks_done: int = 0
    context: int = 0          # K/V positions cached so far


class _StreamQueue:
    """Decode's pool queue: every admitted stream until it finishes.

    ``pending`` holds the streams still in prefill (FIFO), ``active``
    those decoding.  ``offer`` rejects a stream while ``pending`` is
    full; streams never time out.
    """

    def __init__(self, capacity: int, chunk_rows: Optional[int]) -> None:
        # chunk_rows None: one prefill dispatch per prompt.
        self.capacity, self.chunk_rows = capacity, chunk_rows
        self.pending: list[_Active] = []
        self.active: list[_Active] = []

    def __len__(self) -> int:
        return len(self.pending) + len(self.active)

    def offer(self, stream: DecodeStream, now_us: float) -> bool:
        if len(self.pending) >= self.capacity:
            return False
        chunks = (1 if self.chunk_rows is None
                  else -(-stream.prefill_len // self.chunk_rows))
        self.pending.append(_Active(
            stream, chunks, stream.decode_tokens, stream.arrival_us
        ))
        return True

    def expire(self, now_us: float) -> tuple:
        return ()

    def next_expiry_us(self) -> float:
        return _INF


class _Interleaver:
    """Decode's pool batcher: the interleaving policy.

    ``try_form`` returns a decode batch (the first ``max_batch`` idle
    decoding streams, as a list) or the first idle prefill stream:
    decode first under ``decode_priority``, kinds alternating whenever
    both wait under the ``prefill_chunk`` round robin.  When it finds
    nothing, every stream is busy and ``next_deadline_us`` is the
    earliest ``busy_until`` (the kernel keeps one wakeup pending).
    """

    def __init__(self, round_robin: bool, max_batch: int) -> None:
        self.round_robin, self.max_batch = round_robin, max_batch
        self.last_decode = True

    def try_form(self, queue: _StreamQueue, now_us: float, force=False):
        ready = [a for a in queue.active if a.busy_until <= now_us]
        prefill = next(
            (a for a in queue.pending if a.busy_until <= now_us), None
        )
        if ready and not (
            self.round_robin and self.last_decode and prefill is not None
        ):
            self.last_decode = True
            return ready[:self.max_batch]
        if prefill is not None:
            self.last_decode = False
        return prefill

    def next_deadline_us(self, queue: _StreamQueue) -> float:
        return min(a.busy_until for a in queue.pending + queue.active)


class _Devices:
    """Decode's pool workers: they price and run each unit.

    The lowest-index device free at dispatch (``free_us``) runs a unit.
    A decode step adds the stream's new K/V row, then reads every
    layer's pages; a batch costs its slowest step plus all refetch,
    which its outcome logs as ``reload_cycles`` next to its page
    ``hits`` / ``misses`` (a prefill chunk refetches nothing and looks
    nothing up).
    """

    pool_alive = True

    def __init__(self, num_devices: int, cost: _CostModel,
                 kv: KVCacheModel) -> None:
        self.acc, self.cost, self.kv = cost.acc, cost, kv
        self.free_us = [0.0] * num_devices

    def can_accept(self, now_us: float) -> bool:
        return min(self.free_us) <= now_us

    def next_free_us(self) -> float:
        return min(self.free_us)

    def dispatch(self, unit, at_us: float) -> DispatchOutcome:
        device = next(i for i, t in enumerate(self.free_us) if t <= at_us)
        cost = self.cost
        if isinstance(unit, _Active):
            cycles = (cost.prefill_cycles(unit.stream.prefill_len)
                      // unit.chunks)
            refetch, hits, misses = 0, None, None
        else:
            step = refetch = hits = misses = 0
            for item in unit:
                item.context += 1
                step = max(step, cost.step_cycles(item.context))
                for layer in range(cost.num_layers):
                    look = self.kv.lookup(
                        item.stream.stream_id, layer, item.context
                    )
                    refetch += look.refetch_cycles
                    hits += look.hits
                    misses += look.misses
            cycles = step + refetch
        duration_us = cycles / self.acc.clock_mhz
        self.free_us[device] = end_us = at_us + duration_us
        return DispatchOutcome(at_us, end_us, ((device, at_us, duration_us),),
                               cycles, refetch, hits, misses)


class _DecodeRun(EventKernel):
    """:func:`simulate_decode`'s hooks over its one pool."""

    def __init__(self, arrivals, decode, cost, kv) -> None:
        self.chunked = decode.policy == "prefill_chunk"
        self.queue = _StreamQueue(
            decode.queue_capacity, cost.acc.seq_len if self.chunked else None
        )
        super().__init__(arrivals, [PoolState(
            self.queue, _Interleaver(self.chunked, decode.max_decode_batch),
            _Devices(decode.num_devices, cost, kv),
        )])
        self.cost, self.kv = cost, kv

    def dispatched(self, entry) -> None:
        unit, end_us = entry.batch, entry.runs[0].completion_us
        if isinstance(unit, _Active):
            unit.chunks_done += 1
            unit.busy_until = end_us
            if unit.chunks_done < unit.chunks:
                return
            # The prompt's last tile drained: its first token is out,
            # and its K/V pages land in the budget as they are produced
            # (residency, not lookups: the hit rate counts decode reads).
            self.queue.pending.remove(unit)
            unit.context = unit.stream.prefill_len
            for layer in range(self.cost.num_layers):
                self.kv.populate(unit.stream.stream_id, layer, unit.context)
            if unit.tokens_left:
                self.queue.active.append(unit)
            else:
                self.kv.evict_stream(unit.stream.stream_id)
            return
        for item in unit:
            item.busy_until = end_us
            item.tokens_left -= 1
            if item.tokens_left == 0:
                self.queue.active.remove(item)
                self.kv.evict_stream(item.stream.stream_id)


def simulate_decode(
    model: ModelConfig,
    acc: AcceleratorConfig,
    decode: Optional[DecodeConfig] = None,
    streams: Optional[list[DecodeStream]] = None,
    registry: Optional["MetricsRegistry"] = None,
    tracer: Optional["TraceCollector"] = None,
) -> DecodeResult:
    """Simulate mixed prefill/decode serving (seeded, deterministic).

    Args:
        model / acc: Model and accelerator under test; prompt and step
            costs come from the decode cycle models.
        decode: Workload/policy parameters (default
            :class:`~repro.config.DecodeConfig`).
        streams: Explicit stream list (unique ids, ``decode_tokens >=
            0``); overrides the generated one.
        registry: Optional metrics registry; the run's
            ``repro_decode_*`` series are recorded for export.
        tracer: Optional :class:`~repro.obs.spans.TraceCollector`;
            every stream gets one span tree (waits, prefill chunks,
            decode steps) whose hops sum exactly to arrival →
            completion.  Strictly passive.
    """
    decode = DecodeConfig() if decode is None else decode
    workload = (
        list(streams) if streams is not None
        else sample_decode_streams(decode)
    )
    if not workload:
        raise ServingError("decode simulation needs at least one stream")
    if len({s.stream_id for s in workload}) < len(workload):
        raise ServingError("decode stream ids must be unique")
    if any(s.decode_tokens < 0 for s in workload):
        raise ServingError("decode streams need decode_tokens >= 0")
    cost = _CostModel(model, acc, decode)
    kv = KVCacheModel(model, acc, decode.kv_capacity_bytes, decode.memory)
    arrivals = sorted(workload, key=lambda s: s.arrival_us)
    run = _DecodeRun(arrivals, decode, cost, kv)
    makespan_us = run.run()

    intervals = {} if tracer is not None else None
    records, prefill_latencies, token_gaps, spans = stream_records(
        arrivals, run.log, run.chunked, intervals
    )
    dispatches = [e for e in run.log if type(e) is Dispatch]
    steps = [e for e in dispatches if isinstance(e.batch, list)]
    prefill_p50, prefill_p99, _ = sample_stats(prefill_latencies, (50, 99))
    # Each finished prefill emits a first token, each decode step one.
    decoded_tokens = len(prefill_latencies) + len(token_gaps)
    metrics = DecodeMetrics(
        offered=len(workload),
        completed=sum(r.status == "completed" for r in records),
        rejected=sum(r.status == "rejected" for r in records),
        decode_steps=len(token_gaps),
        decode_batches=len(steps),
        prefill_chunks=len(dispatches) - len(steps),
        decoded_tokens=decoded_tokens,
        tokens_per_s=(
            decoded_tokens / (makespan_us / 1e6) if makespan_us else 0.0
        ),
        prefill_p50_us=prefill_p50,
        prefill_p99_us=prefill_p99,
        mean_token_latency_us=(
            sum(token_gaps) / len(token_gaps) if token_gaps else 0.0
        ),
        kv_hit_rate=kv.hit_rate,
        kv_refetch_cycles=sum(e.runs[0].reload_cycles for e in steps),
        makespan_us=makespan_us,
    )
    if registry is not None:
        from ..telemetry.instrument import record_decode

        record_decode(
            registry,
            policy=decode.policy,
            metrics=metrics,
            prefill_latencies_us=prefill_latencies,
            token_gaps_us=token_gaps,
            kv_hits=kv.hits,
            kv_misses=kv.misses,
        )
    if tracer is not None:
        add_stream_traces(tracer, records, intervals)
    return DecodeResult(
        decode=decode,
        metrics=metrics,
        records=records,
        spans=spans,
        kv_samples=hit_rate_samples(steps),
    )
