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
from ..obs.spans import stream_trace
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


@dataclass(frozen=True)
class DecodeStream:
    """One generation stream: a prompt, then autoregressive tokens."""

    stream_id: int
    arrival_us: float
    prefill_len: int
    decode_tokens: int


@dataclass
class StreamRecord:
    """Final outcome of one stream.

    ``status`` is ``"completed"`` or ``"rejected"`` (pending-stream
    queue full on arrival).  ``first_token_us`` is when the prefill's
    last layer drained — the time-to-first-token reference point.
    """

    stream: DecodeStream
    status: str
    first_token_us: Optional[float] = None
    completed_us: Optional[float] = None

    @property
    def ttft_us(self) -> Optional[float]:
        if self.first_token_us is None:
            return None
        return self.first_token_us - self.stream.arrival_us


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


@dataclass
class _Active:
    """Mutable progress of one admitted stream."""

    stream: DecodeStream
    record: StreamRecord
    chunks_left: int          # prefill tiles still to run
    tokens_left: int
    context: int = 0          # K/V positions cached so far
    busy_until: float = 0.0   # serializes the stream across devices


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
        streams: Explicit stream list; overrides the generated one.
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
    cost = _CostModel(model, acc, decode)
    kv = KVCacheModel(
        model, acc,
        capacity_bytes=decode.kv_capacity_bytes,
        mem=decode.memory,
        page_tokens=decode.kv_page_tokens,
    )
    chunk_rows = acc.seq_len
    clock = acc.clock_mhz

    records: dict[int, StreamRecord] = {}
    spans: list[TraceSpan] = []
    kv_samples: list[tuple] = []
    # stream_id -> [(label, kind, start_us, end_us, attrs)], tracer-only
    trace_intervals: dict[int, list] = {}
    prefill_latencies: list[float] = []
    token_gaps: list[float] = []
    decode_steps = 0
    decode_batches = 0
    prefill_chunks = 0
    decoded_tokens = 0
    refetch_cycles_total = 0

    arrivals = sorted(workload, key=lambda s: s.arrival_us)
    next_arrival = 0
    device_free = [0.0] * decode.num_devices
    pending: list[_Active] = []       # prefill queue (FIFO)
    active: list[_Active] = []        # streams past prefill, mid-decode
    last_kind = "decode"              # prefill_chunk round-robin state

    def admit(now_us: float) -> None:
        nonlocal next_arrival
        while (next_arrival < len(arrivals)
               and arrivals[next_arrival].arrival_us <= now_us):
            stream = arrivals[next_arrival]
            next_arrival += 1
            record = StreamRecord(stream, "rejected")
            records[stream.stream_id] = record
            if len(pending) >= decode.queue_capacity:
                continue
            record.status = "queued"
            chunks = -(-stream.prefill_len // chunk_rows)
            pending.append(_Active(
                stream=stream, record=record,
                chunks_left=(
                    chunks if decode.policy == "prefill_chunk" else 1
                ),
                tokens_left=stream.decode_tokens,
                busy_until=stream.arrival_us,
            ))

    def sample_hit_rate(ts_us: float) -> None:
        if kv.lookups:
            kv_samples.append((ts_us, kv.hit_rate))

    def complete(item: _Active, end_us: float) -> None:
        item.record.status = "completed"
        item.record.completed_us = end_us
        kv.evict_stream(item.stream.stream_id)
        if item in active:
            active.remove(item)

    def finish_prefill(item: _Active, end_us: float) -> None:
        nonlocal decoded_tokens
        item.context = item.stream.prefill_len
        item.record.first_token_us = end_us
        prefill_latencies.append(end_us - item.stream.arrival_us)
        # The prefill's K/V pages land in the budget as they are
        # produced — residency, not lookups, so the hit rate counts
        # only decode-step reads.
        for layer in range(cost.num_layers):
            kv.populate(item.stream.stream_id, layer, item.context)
        decoded_tokens += 1          # the prefill emits the first token
        if item.tokens_left == 0:
            complete(item, end_us)

    def decode_candidates(now_us: float) -> list[_Active]:
        return [
            a for a in active
            if a.tokens_left > 0 and a.busy_until <= now_us
        ]

    def prefill_candidate(now_us: float) -> Optional[_Active]:
        for item in pending:
            if item.busy_until <= now_us:
                return item
        return None

    def run_decode_batch(
        device: int, now_us: float, batch: list[_Active]
    ) -> float:
        nonlocal decode_steps, decode_batches, decoded_tokens
        nonlocal refetch_cycles_total
        step_cycles = 0
        refetch = 0
        for item in batch:
            item.context += 1        # the new token's K/V row
            step_cycles = max(step_cycles, cost.step_cycles(item.context))
            for layer in range(cost.num_layers):
                lookup = kv.lookup(
                    item.stream.stream_id, layer, item.context
                )
                refetch += lookup.refetch_cycles
        total_cycles = step_cycles + refetch
        refetch_cycles_total += refetch
        end_us = now_us + total_cycles / clock
        if tracer is not None:
            for item in batch:
                trace_intervals.setdefault(
                    item.stream.stream_id, []
                ).append((
                    f"s{item.stream.stream_id}.decode.b{decode_batches}",
                    "decode_step", now_us, end_us,
                    {"device": device, "batch_streams": len(batch)},
                ))
        spans.append(TraceSpan(
            name=f"decode.batch{decode_batches}",
            track=f"device{device}",
            start_us=now_us, duration_us=total_cycles / clock,
            args={"streams": len(batch), "refetch_cycles": refetch},
        ))
        decode_batches += 1
        decode_steps += len(batch)
        for item in batch:
            item.busy_until = end_us
            item.tokens_left -= 1
            decoded_tokens += 1
            first_step = item.context == item.stream.prefill_len + 1
            gap_from = (
                item.record.first_token_us if first_step else now_us
            )
            token_gaps.append(end_us - gap_from)
            if item.tokens_left == 0:
                complete(item, end_us)
        sample_hit_rate(end_us)
        return end_us

    def run_prefill_chunk(
        device: int, now_us: float, item: _Active
    ) -> float:
        nonlocal prefill_chunks
        total_chunks = -(-item.stream.prefill_len // chunk_rows)
        if decode.policy == "prefill_chunk":
            chunk_cycles = cost.prefill_cycles(
                item.stream.prefill_len
            ) // total_chunks
            label = (
                f"prefill.s{item.stream.stream_id}."
                f"c{total_chunks - item.chunks_left}"
            )
        else:
            chunk_cycles = cost.prefill_cycles(item.stream.prefill_len)
            label = f"prefill.s{item.stream.stream_id}"
        end_us = now_us + chunk_cycles / clock
        if tracer is not None:
            trace_intervals.setdefault(
                item.stream.stream_id, []
            ).append((
                label,
                ("prefill_chunk" if decode.policy == "prefill_chunk"
                 else "prefill"),
                now_us, end_us, {"device": device},
            ))
        spans.append(TraceSpan(
            name=label,
            track=f"device{device}",
            start_us=now_us, duration_us=chunk_cycles / clock,
            args={"prefill_len": item.stream.prefill_len},
        ))
        prefill_chunks += 1
        item.chunks_left -= 1
        item.busy_until = end_us
        if item.chunks_left == 0:
            pending.remove(item)
            active.append(item)
            finish_prefill(item, end_us)
        return end_us

    def dispatch(device: int, now_us: float) -> Optional[float]:
        """Pick and run one unit of work; returns its end time."""
        nonlocal last_kind
        ready = decode_candidates(now_us)
        prefill = prefill_candidate(now_us)
        if decode.policy == "decode_priority":
            run_decode = bool(ready)
        else:
            # Round-robin: alternate kinds whenever both are pending.
            run_decode = bool(ready) and (
                prefill is None or last_kind != "decode"
            )
        if run_decode:
            last_kind = "decode"
            return run_decode_batch(
                device, now_us, ready[:decode.max_decode_batch]
            )
        if prefill is not None:
            last_kind = "prefill"
            return run_prefill_chunk(device, now_us, prefill)
        return None

    # Event loop: the earliest-free device repeatedly grabs work; when
    # nothing is runnable *now*, it advances to the next event time
    # (arrival, a stream freeing up, or another device finishing).
    while True:
        device = min(
            range(len(device_free)), key=device_free.__getitem__
        )
        now_us = device_free[device]
        admit(now_us)
        end_us = dispatch(device, now_us)
        if end_us is not None:
            device_free[device] = end_us
            continue
        horizon = []
        if next_arrival < len(arrivals):
            horizon.append(arrivals[next_arrival].arrival_us)
        horizon.extend(
            a.busy_until for a in pending + active
            if a.busy_until > now_us
        )
        horizon.extend(t for t in device_free if t > now_us)
        if not horizon:
            break
        device_free[device] = min(horizon)

    if any(r.status == "queued" for r in records.values()):
        raise ServingError("decode simulation ended with streams queued")

    offered = len(workload)
    completed = sum(r.status == "completed" for r in records.values())
    rejected = sum(r.status == "rejected" for r in records.values())
    first_arrival = arrivals[0].arrival_us
    last_completion = max(
        (r.completed_us for r in records.values()
         if r.completed_us is not None),
        default=first_arrival,
    )
    makespan_us = last_completion - first_arrival
    prefill_p50, prefill_p99, _ = sample_stats(prefill_latencies, (50, 99))
    metrics = DecodeMetrics(
        offered=offered,
        completed=completed,
        rejected=rejected,
        decode_steps=decode_steps,
        decode_batches=decode_batches,
        prefill_chunks=prefill_chunks,
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
        kv_refetch_cycles=refetch_cycles_total,
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
    ordered = [records[s.stream_id] for s in arrivals]
    if tracer is not None:
        for record in ordered:
            sid = record.stream.stream_id
            tracer.add(stream_trace(
                stream_id=sid,
                status=record.status,
                arrival_us=record.stream.arrival_us,
                intervals=tuple(trace_intervals.get(sid, ())),
                attrs={
                    "prefill_len": record.stream.prefill_len,
                    "decode_tokens": record.stream.decode_tokens,
                },
            ))
    return DecodeResult(
        decode=decode,
        metrics=metrics,
        records=ordered,
        spans=spans,
        kv_samples=kv_samples,
    )
