"""Views of the kernel log: records, counters, Chrome spans, request traces.

Every simulator on the :class:`~repro.serving.kernel.EventKernel` builds
its per-run outputs here after ``run()``, walking the run's ``log`` in
event order.  Devices log only what each run did (a
:class:`~repro.serving.devices.DispatchOutcome`), so device spans are
drawn and cache and stall counters folded here; request traces are
sampled at the root before they grow.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Optional

from ..config import AcceleratorConfig
from ..core.trace import TraceSpan
from ..obs.spans import (
    AttemptSpan,
    grow_request,
    grow_stream,
    request_root,
    stream_root,
)
from .devices import DispatchOutcome
from .kernel import Complete, Dispatch, Drop
from .workload import Request

if TYPE_CHECKING:
    from ..cluster.workload import ClusterRequest
    from ..decode.serving import DecodeStream
    from ..obs.spans import RequestTrace, TraceCollector


class _Latency:
    """Arrival-to-completion latency of a record (``None`` until done)."""

    @property
    def latency_us(self) -> Optional[float]:
        if self.completed_us is None:
            return None
        return self.completed_us - self.request.arrival_us


@dataclass
class RequestRecord(_Latency):
    """Final outcome of one request.

    ``status`` is ``"completed"``, ``"rejected"`` (queue full on
    arrival), ``"expired"`` (timed out while queued) or ``"failed"``
    (the batch kept faulting past the retry budget, or the request was
    stranded when the worker pool died).  A completed request whose
    batch took an *undetected* fault additionally carries
    ``corrupted=True`` — the silent-corruption outcome ABFT exists to
    prevent.
    """

    request: Request
    status: str
    batch_id: Optional[int] = None
    dispatched_us: Optional[float] = None
    completed_us: Optional[float] = None
    corrupted: bool = False


@dataclass
class ClusterRecord(_Latency):
    """Final outcome of one request in a cluster run.

    ``status`` is ``"completed"``, ``"shed"`` (refused by the SLO
    router), ``"rejected"`` (pool queue full) or ``"expired"`` (pool
    queue timeout).  ``attained`` is True only for completions within
    the request's tenant SLO.
    """

    request: ClusterRequest
    status: str
    pool: Optional[str] = None
    dispatched_us: Optional[float] = None
    completed_us: Optional[float] = None
    attained: bool = False


@dataclass
class StreamRecord:
    """Final outcome of one decode stream.

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


def _end_us(entry: Dispatch) -> float:
    return entry.runs[-1].completion_us


def _runs(entry: Dispatch):
    """``(start_us, outcome, victim)`` of each run of a dispatch."""
    start_us = entry.at_us
    for index, outcome in enumerate(entry.runs):
        yield (start_us, outcome,
               entry.victims[index] if entry.victims else None)
        start_us = outcome.completion_us


def _ends(log: list, cluster: bool):
    """``(request, entry)`` in the order the run ended each request: its
    :class:`Drop`, or its batch's :class:`Dispatch` in serving (the
    completion is known at dispatch) and ``Complete`` in a cluster."""
    for entry in log:
        kind = type(entry)
        if kind is Drop:
            yield entry.request, entry
        elif kind is (Complete if cluster else Dispatch):
            dispatch = entry.dispatch if cluster else entry
            for request in dispatch.batch.requests:
                yield request, dispatch


def serving_records(
    requests: Sequence[Request], log: list
) -> tuple[list[RequestRecord], list[float]]:
    """Records in request order, and completed latencies in log order."""
    records: dict[int, RequestRecord] = {}
    latencies: list[float] = []
    for request, entry in _ends(log, cluster=False):
        if type(entry) is Drop:
            records[request.req_id] = RequestRecord(request, entry.status)
            continue
        record = records[request.req_id] = RequestRecord(
            request, "failed" if entry.failed else "completed",
            entry.batch.batch_id, entry.at_us,
            None if entry.failed else _end_us(entry), entry.corrupted,
        )
        if not entry.failed:
            latencies.append(record.latency_us)
    return [records[r.req_id] for r in requests], latencies


def util_samples(dispatches: list[Dispatch], ideal_cycles: int,
                 compute_cycles: int, seq_len: int) -> list[tuple]:
    """Per batch, at its last run's end: its useful-MAC share times row
    occupancy.  The share is ``ideal_cycles`` over that run's cycles,
    or over ``compute_cycles`` for a sharded run, which reloads
    nothing."""
    samples: list[tuple] = []
    for entry in dispatches:
        cycles = entry.runs[-1].cycles
        share = ideal_cycles / (compute_cycles if cycles is None else cycles)
        samples.append((_end_us(entry),
                        share * (entry.batch.total_tokens / seq_len)))
    return samples


def cache_totals(dispatches: list[Dispatch]) -> tuple[int, int, int]:
    """Weight-cache hits, misses and exposed reload cycles summed over
    the runs that looked weights up (flat-reload runs look up none)."""
    hits = misses = stall = 0
    for entry in dispatches:
        for outcome in entry.runs:
            if outcome.hits is not None:
                hits += outcome.hits
                misses += outcome.misses
                stall += outcome.reload_cycles
    return hits, misses, stall


def hit_rate_samples(dispatches: list[Dispatch]) -> list[tuple]:
    """Per dispatch, at its last run's end: the cumulative cache hit
    rate of its runs and all before, once anything was looked up."""
    samples: list[tuple] = []
    hits = lookups = 0
    for entry in dispatches:
        for outcome in entry.runs:
            if outcome.hits is not None:
                hits += outcome.hits
                lookups += outcome.hits + outcome.misses
        if lookups:
            samples.append((_end_us(entry), hits / lookups))
    return samples


def cluster_records(
    requests: Sequence[ClusterRequest], log: list
) -> list[ClusterRecord]:
    """Records in request order."""
    records: dict[int, ClusterRecord] = {}
    for request, entry in _ends(log, cluster=True):
        if type(entry) is Drop:
            records[request.req_id] = ClusterRecord(
                request, entry.status,
                None if entry.pool is None else entry.pool.name,
            )
        else:
            end_us = _end_us(entry)
            records[request.req_id] = ClusterRecord(
                request, "completed", entry.pool.name, entry.at_us, end_us,
                end_us <= request.deadline_us,
            )
    return [records[r.req_id] for r in requests]


def device_samples(log: list, pools: list) -> dict[str, list[tuple]]:
    """Per cluster pool, ``(time, active devices)`` at the start and after
    each scale action (cluster pools take no faults)."""
    samples = {p.name: [(0.0, p.config.num_devices)] for p in pools}
    for entry in log:
        if type(entry) not in (Dispatch, Drop, Complete):
            count = samples[entry.pool][-1][1]
            samples[entry.pool].append(
                (entry.at_us, count + (1 if entry.direction == "up" else -1))
            )
    return samples


def stream_records(
    arrivals: Sequence[DecodeStream], log: list, chunked: bool,
    intervals: Optional[dict] = None,
) -> tuple[list[StreamRecord], list[float], list[float], list[TraceSpan]]:
    """Records in arrival order, then prefill latencies, token gaps and
    device spans (``prefill.sN[.cK]``, ``decode.batchN``) in log order;
    ``intervals``, when given, gets each stream's ``(label, kind,
    start_us, end_us, attrs)`` execution segments.

    A unit is a prefill chunk of one stream (``chunked``: one of its
    64-row tiles), or a list of streams taking a decode step each.  A
    prompt's first token is out when its last chunk drains; a step's
    gap runs from it (first step) or from the step's dispatch.
    """
    dropped: dict[int, str] = {}
    prefill: list[float] = []
    gaps: list[float] = []
    spans: list[TraceSpan] = []
    chunks: Counter = Counter()
    first_token: dict[int, float] = {}
    last_end: dict[int, float] = {}
    batch_no = 0
    for entry in log:
        if type(entry) is Drop:
            dropped[entry.request.stream_id] = entry.status
            continue
        at_us, outcome, unit = entry.at_us, entry.runs[0], entry.batch
        end_us = outcome.completion_us
        (device_id, _, duration_us), = outcome.occupied
        track = f"device{device_id}"
        device = {"device": device_id}
        if not isinstance(unit, list):
            stream = unit.stream
            sid = stream.stream_id
            name = f"prefill.s{sid}" + (f".c{chunks[sid]}" if chunked else "")
            spans.append(TraceSpan(name, track, at_us, duration_us,
                                   args={"prefill_len": stream.prefill_len}))
            chunks[sid] += 1
            if chunks[sid] == unit.chunks:
                first_token[sid] = end_us
                prefill.append(end_us - stream.arrival_us)
            last_end[sid] = end_us
            if intervals is not None:
                intervals.setdefault(sid, []).append((
                    name, "prefill_chunk" if chunked else "prefill",
                    at_us, end_us, device,
                ))
            continue
        spans.append(TraceSpan(
            f"decode.batch{batch_no}", track, at_us, duration_us,
            args={"streams": len(unit),
                  "refetch_cycles": outcome.reload_cycles},
        ))
        for item in unit:
            sid = item.stream.stream_id
            first_step = last_end[sid] == first_token[sid]
            gaps.append(end_us - (first_token[sid] if first_step else at_us))
            last_end[sid] = end_us
            if intervals is not None:
                intervals.setdefault(sid, []).append((
                    f"s{sid}.decode.b{batch_no}", "decode_step", at_us,
                    end_us, {**device, "batch_streams": len(unit)},
                ))
        batch_no += 1
    records = [
        StreamRecord(s, dropped[s.stream_id]) if s.stream_id in dropped
        else StreamRecord(s, "completed", first_token[s.stream_id],
                          last_end[s.stream_id])
        for s in arrivals
    ]
    return records, prefill, gaps, spans


def _device_spans(entry: Dispatch, outcome: DispatchOutcome,
                  prefix: str) -> list[TraceSpan]:
    """The device spans of one run: ``batchN`` on its device, or
    ``batchN.stageD`` per stage of a sharded run (no cycles args)."""
    batch = entry.batch
    name = f"batch{batch.batch_id}"
    args = {
        "batch": batch.batch_id,
        "requests": batch.num_requests,
        "tokens": batch.total_tokens,
        "occupancy": round(
            batch.occupancy(entry.pool.workers.acc.seq_len), 4
        ),
    }
    sharded = outcome.cycles is None
    if not sharded:
        args["cycles"] = outcome.cycles
        args["reload_cycles"] = outcome.reload_cycles
        if outcome.hits is not None:
            args["cache_hits"] = outcome.hits
            args["cache_misses"] = outcome.misses
    return [
        TraceSpan(f"{name}.stage{device_id}" if sharded else name,
                  f"{prefix}device{device_id}", start_us, duration_us,
                  args=args)
        for device_id, start_us, duration_us in outcome.occupied
    ]


def chrome_spans(log: list, cluster: bool = False) -> list[TraceSpan]:
    """The run's Chrome spans in order: per dispatch, each run's device
    spans with ABFT retry and device-failure markers, then its requests'
    queue waits unless it failed (per pool, with tenants, in a
    ``cluster``); sheds and scale actions are zero-width markers."""
    spans: list[TraceSpan] = []
    for entry in log:
        kind = type(entry)
        if kind is Drop and entry.status == "shed":
            request = entry.request
            spans.append(TraceSpan(
                f"req{request.req_id}.shed", "router", entry.at_us, 0.0,
                args={"tenant": request.tenant,
                      "deadline_us": request.deadline_us},
            ))
        elif kind not in (Dispatch, Drop, Complete):
            spans.append(TraceSpan(
                f"{entry.pool}.scale_{entry.direction}"
                f".device{entry.device_id}", "autoscaler", entry.at_us, 0.0,
                args={"pool": entry.pool, "direction": entry.direction,
                      "reason": entry.reason, "device": entry.device_id},
            ))
        if kind is not Dispatch:
            continue
        batch = entry.batch
        prefix = f"{entry.pool.name}." if cluster else ""
        for retry, (at_us, outcome, victim) in enumerate(_runs(entry)):
            if retry:
                spans.append(TraceSpan(
                    f"batch{batch.batch_id}.retry{retry}", "faults", at_us,
                    0.0, args={"event": "abft_retry", "attempt": retry},
                ))
            spans.extend(_device_spans(entry, outcome, prefix))
            if victim is not None:
                spans.append(TraceSpan(
                    f"device{victim}.failure", "faults",
                    outcome.completion_us, 0.0,
                    args={"event": "device_failure", "device": victim},
                ))
        if entry.failed:
            continue
        for request in batch.requests:
            wait = entry.at_us - request.arrival_us
            if wait <= 0:
                continue
            name = f"req{request.req_id}.wait"
            args = {"seq_len": request.seq_len, "batch": batch.batch_id}
            spans.append(
                TraceSpan(name, f"{entry.pool.name}.queue",
                          request.arrival_us, wait,
                          args={"tenant": request.tenant, **args})
                if cluster else
                TraceSpan(name, "queue", request.arrival_us, wait, args=args)
            )
    return spans


def attempt_span(
    acc: AcceleratorConfig, dispatched_us: float, outcome: DispatchOutcome
) -> AttemptSpan:
    """Trace view of one run.  Only a single-device (replicated) run's
    cycles split compute from the exposed reload stall; layer-sharded
    pipelines interleave stages and leave the boundary ``None``."""
    boundary = None
    if outcome.cycles is not None:
        boundary = outcome.start_us + acc.cycles_to_us(
            outcome.cycles - outcome.reload_cycles
        )
    return AttemptSpan(
        dispatched_us, outcome.start_us, outcome.completion_us, boundary,
        attrs={"devices": ",".join(map(str, outcome.device_ids))},
    )


def add_request_traces(tracer: TraceCollector, log: list,
                       cluster: bool = False) -> None:
    """Add each request's trace to ``tracer`` where the run ended it."""
    for request, entry in _ends(log, cluster):
        tenant = request.tenant if cluster else None
        if type(entry) is Drop:
            pool, status = entry.pool, entry.status
            attrs = {"pool": pool.name} if cluster and pool is not None else {}
            if status == "failed":
                attrs["reason"] = "pool_dead"
            tracer.add(request_root(
                req_id=request.req_id, status=status,
                arrival_us=request.arrival_us,
                end_us=(request.arrival_us + pool.queue.timeout_us
                        if status == "expired" else
                        entry.at_us if status == "failed"
                        else request.arrival_us),
                tenant=tenant, attrs=attrs,
            ), grow_request)
            continue
        end_us, batch_id = _end_us(entry), entry.batch.batch_id
        if cluster:
            attained = end_us <= request.deadline_us
            attrs = {"pool": entry.pool.name, "batch": batch_id,
                     "deadline_us": request.deadline_us,
                     "attained": attained, "slo_violated": not attained}
        elif entry.failed:
            attrs = {"batch": batch_id, "reason": "retries_exhausted"}
        else:
            attrs = {"batch": batch_id, "corrupted": entry.corrupted}
        tracer.add(request_root(
            req_id=request.req_id,
            status="failed" if entry.failed else "completed",
            arrival_us=request.arrival_us, end_us=end_us,
            retries=len(entry.runs) - 1, tenant=tenant, attrs=attrs,
        ), partial(_grow_batch, entry))


def _grow_batch(entry: Dispatch, trace: RequestTrace) -> None:
    acc = entry.pool.workers.acc
    grow_request(trace, entry.at_us, [
        attempt_span(acc, at_us, outcome)
        for at_us, outcome, _ in _runs(entry)
    ])


def add_stream_traces(tracer: TraceCollector, records: list[StreamRecord],
                      intervals: dict) -> None:
    """Add each stream's trace, in record order: its ``intervals`` (from
    :func:`stream_records`) with waits between them."""
    grow = partial(_grow_stream, intervals)
    for record in records:
        stream = record.stream
        tracer.add(stream_root(
            stream_id=stream.stream_id, status=record.status,
            arrival_us=stream.arrival_us,
            end_us=(record.completed_us if record.status == "completed"
                    else stream.arrival_us),
            attrs={"prefill_len": stream.prefill_len,
                   "decode_tokens": stream.decode_tokens},
        ), grow)


def _grow_stream(intervals: dict, trace: RequestTrace) -> None:
    grow_stream(trace, intervals.get(trace.req_id, ()))
