"""Views of the kernel log: records, Chrome spans, request traces.

Every simulator on the :class:`~repro.serving.kernel.EventKernel` builds
its per-run outputs here after ``run()``, walking the run's ``log`` in
event order; request traces are sampled at the root before they grow.
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
from .batching import Batch
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


def batch_samples(dispatches: list[Dispatch], useful_share: float,
                  seq_len: int) -> tuple[list[tuple], list[tuple]]:
    """Per batch, at its last run's end: its useful-MAC share times row
    occupancy, and the cumulative weight-cache hit rate (from the runs'
    span args) once weights were looked up."""
    util: list[tuple] = []
    cache: list[tuple] = []
    hits = lookups = 0
    for entry in dispatches:
        util.append((_end_us(entry),
                     useful_share * (entry.batch.total_tokens / seq_len)))
        for outcome in entry.runs:
            for span in outcome.spans:
                run_hits = span.args.get("cache_hits", 0)
                hits += run_hits
                lookups += run_hits + span.args.get("cache_misses", 0)
        if lookups:
            cache.append((_end_us(entry), hits / lookups))
    return util, cache


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
) -> tuple[list[StreamRecord], list[float], list[float]]:
    """Records in arrival order, then prefill latencies and token gaps
    in log order; ``intervals``, when given, gets each stream's
    ``(label, kind, start_us, end_us, attrs)`` execution segments.

    A unit is a prefill chunk of one stream (``chunked``: one of its
    64-row tiles), or a list of streams taking a decode step each.  A
    prompt's first token is out when its last chunk drains; a step's
    gap runs from it (first step) or from the step's dispatch.
    """
    dropped: dict[int, str] = {}
    prefill: list[float] = []
    gaps: list[float] = []
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
        device = {"device": outcome.device_ids[0]}
        if not isinstance(unit, list):
            sid = unit.stream.stream_id
            chunks[sid] += 1
            if chunks[sid] == unit.chunks:
                first_token[sid] = end_us
                prefill.append(end_us - unit.stream.arrival_us)
            last_end[sid] = end_us
            if intervals is not None:
                intervals.setdefault(sid, []).append((
                    outcome.spans[0].name,
                    "prefill_chunk" if chunked else "prefill",
                    at_us, end_us, device,
                ))
            continue
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
    return records, prefill, gaps


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
        for retry, (at_us, outcome, victim) in enumerate(_runs(entry)):
            if retry:
                spans.append(TraceSpan(
                    f"batch{batch.batch_id}.retry{retry}", "faults", at_us,
                    0.0, args={"event": "abft_retry", "attempt": retry},
                ))
            spans.extend(outcome.spans)
            if victim is not None:
                spans.append(TraceSpan(
                    f"device{victim}.failure", "faults",
                    outcome.completion_us, 0.0,
                    args={"event": "device_failure", "device": victim},
                ))
        if entry.failed or not isinstance(batch, Batch):
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
    """Trace view of one run.  Only a single-span (replicated) run's
    args split compute from the exposed reload stall; layer-sharded
    pipelines interleave stages and leave the boundary ``None``."""
    args = outcome.spans[0].args if len(outcome.spans) == 1 else {}
    boundary = None
    if args.get("cycles") is not None and args.get("reload_cycles") is not None:
        boundary = outcome.start_us + acc.cycles_to_us(
            args["cycles"] - args["reload_cycles"]
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
