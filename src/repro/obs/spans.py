"""Causal request traces: span trees that exactly partition wall time.

A :class:`RequestTrace` is the per-request analogue of the profiler's
cycle attribution: one root span covering the request's whole lifetime,
whose children split that interval into contiguous, non-overlapping
hops (queue wait, device wait, compute, memsys stall, retry, terminal
markers).  The partition is *exact* — children share their boundary
timestamps with each other and with the parent, so summing leaf
durations telescopes back to the end-to-end latency with no float
slack.  :meth:`Span.validate` enforces that structurally.

Builders:

* :func:`request_trace` — batch-serving requests (serving + cluster
  simulators): admission → queue wait → per-attempt device wait /
  compute / memsys stall → completion, with ``failed`` / ``expired`` /
  ``rejected`` / ``shed`` as zero-width terminal markers.
* :func:`stream_trace` — decode streams: the stream's execution
  intervals (prefill chunks, decode batches) with explicit ``wait``
  spans filling every gap.

Each is a root (:func:`request_root`, :func:`stream_root`) plus the
hops (:func:`grow_request`, :func:`grow_stream`).  :class:`TraceCollector`
applies a tail-based :class:`~repro.obs.sampling.TraceSampler` to each
root and grows only the traces it keeps (unsampled traces keep only their
root span), and counts retention into a metrics registry
(``repro_obs_traces_total`` / ``repro_obs_traces_retained_total``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from ..errors import ObsError

if TYPE_CHECKING:
    from ..telemetry.registry import MetricsRegistry
    from .sampling import TraceSampler

@dataclass
class Span:
    """One node in a trace tree.

    ``start_us``/``end_us`` are absolute sim timestamps.  When a span
    has children they must tile its interval exactly: the first child
    starts at ``start_us``, each child ends where the next begins, and
    the last child ends at ``end_us``.  Zero-width spans are legal and
    keep the contiguity chain intact (marker spans use this).
    """

    name: str
    kind: str
    start_us: float
    end_us: float
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def child(self, name: str, kind: str, start_us: float, end_us: float,
              **attrs) -> "Span":
        """Append and return a child span."""
        node = Span(name, kind, start_us, end_us, dict(attrs))
        self.children.append(node)
        return node

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal (self first)."""
        yield self
        for c in self.children:
            yield from c.walk()

    def leaves(self) -> list["Span"]:
        """The leaf spans, left to right — the exact partition."""
        if not self.children:
            return [self]
        out: list[Span] = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def validate(self) -> None:
        """Check interval sanity and the exact-partition invariant."""
        if self.end_us < self.start_us:
            raise ObsError(
                f"span {self.name!r} ends before it starts "
                f"({self.end_us} < {self.start_us})"
            )
        if not self.children:
            return
        if self.children[0].start_us != self.start_us:
            raise ObsError(
                f"span {self.name!r}: first child "
                f"{self.children[0].name!r} starts at "
                f"{self.children[0].start_us}, parent at {self.start_us}"
            )
        for prev, nxt in zip(self.children, self.children[1:]):
            if prev.end_us != nxt.start_us:
                raise ObsError(
                    f"span {self.name!r}: child {prev.name!r} ends at "
                    f"{prev.end_us} but {nxt.name!r} starts at "
                    f"{nxt.start_us}"
                )
        if self.children[-1].end_us != self.end_us:
            raise ObsError(
                f"span {self.name!r}: last child "
                f"{self.children[-1].name!r} ends at "
                f"{self.children[-1].end_us}, parent at {self.end_us}"
            )
        for c in self.children:
            c.validate()


@dataclass
class RequestTrace:
    """The full causal trace of one request (or decode stream)."""

    req_id: int
    status: str
    root: Span
    tenant: Optional[str] = None
    attrs: dict = field(default_factory=dict)
    sampled: bool = True

    @property
    def latency_us(self) -> float:
        return self.root.duration_us

    def hops(self) -> list[Span]:
        """The leaf spans partitioning the request's wall time."""
        return self.root.leaves()

    def validate(self) -> None:
        self.root.validate()


@dataclass(frozen=True)
class AttemptSpan:
    """One dispatch attempt of a batch, as seen by a single request.

    ``dispatched_us`` is when the scheduler handed the batch to the
    pool; ``start_us``/``end_us`` bracket the device run.  When the
    dispatcher can split compute from memory stalls,
    ``compute_boundary_us`` marks where compute ends and the exposed
    memsys stall begins (``None`` for shapes where the split is not
    attributable, e.g. layer-sharded pipelines).
    """

    dispatched_us: float
    start_us: float
    end_us: float
    compute_boundary_us: Optional[float] = None
    attrs: dict = field(default_factory=dict)


def _add_attempt(parent: Span, idx: int, att: AttemptSpan) -> None:
    label = "run" if idx == 0 else f"retry{idx}"
    if att.start_us > att.dispatched_us:
        parent.child(
            f"{label}.device_wait", "device_wait",
            att.dispatched_us, att.start_us,
        )
    boundary = att.compute_boundary_us
    if boundary is not None:
        # Clamp into the run interval; float rounding in the cycle →
        # microsecond conversion may land a hair outside.
        boundary = min(max(boundary, att.start_us), att.end_us)
    if boundary is not None and att.start_us < boundary < att.end_us:
        parent.child(
            f"{label}.compute", "compute",
            att.start_us, boundary, **att.attrs,
        )
        parent.child(
            f"{label}.memsys_stall", "memsys_stall", boundary, att.end_us
        )
    else:
        parent.child(
            f"{label}.compute", "compute",
            att.start_us, att.end_us, **att.attrs,
        )


def request_root(*, req_id: int, status: str, arrival_us: float,
                 end_us: float, retries: int = 0,
                 tenant: Optional[str] = None,
                 attrs: Optional[dict] = None) -> RequestTrace:
    """A request's root-only trace: all a sampler reads, no hops yet."""
    if status not in ("completed", "failed", "expired", "rejected", "shed"):
        raise ObsError(f"unknown request status {status!r}")
    attrs = dict(attrs or {})
    attrs["retries"] = retries
    root = Span(f"req{req_id}", "request", arrival_us, end_us)
    return RequestTrace(req_id, status, root, tenant=tenant, attrs=attrs)


def grow_request(trace: RequestTrace, dispatched_us: Optional[float] = None,
                 attempts: tuple = ()) -> None:
    """Add the hops of a :func:`request_root` trace.

    * ``completed`` — queue wait up to ``dispatched_us``, then a
      ``service`` span holding each :class:`AttemptSpan` (device wait /
      compute / memsys stall, retries included).
    * ``failed`` with attempts — same shape plus a zero-width
      ``failed`` marker at the final attempt's end.
    * ``failed`` (stranded) / ``expired`` — queue wait up to the root's
      end plus a zero-width terminal marker.
    * ``rejected`` / ``shed`` — a zero-width terminal marker (the
      request never held any wall time).
    """
    root, status = trace.root, trace.status
    start_us, end_us = root.start_us, root.end_us
    if attempts and status in ("completed", "failed"):
        _fill_service(root, trace.req_id, start_us, dispatched_us,
                      attempts, end_us)
        if status == "completed":
            return
    elif status not in ("rejected", "shed") and end_us > start_us:
        root.child(f"{root.name}.queue_wait", "queue_wait", start_us,
                   end_us)
    root.child(f"{root.name}.{status}", status, end_us, end_us)


def request_trace(
    *,
    req_id: int,
    status: str,
    arrival_us: float,
    end_us: Optional[float] = None,
    dispatched_us: Optional[float] = None,
    attempts: tuple = (),
    tenant: Optional[str] = None,
    attrs: Optional[dict] = None,
) -> RequestTrace:
    """Build and validate one batch-serving request's tree: it ends with
    its last attempt when it ran, at arrival when rejected or shed, else
    at ``end_us``."""
    if attempts and status in ("completed", "failed"):
        end_us = attempts[-1].end_us
    elif status in ("rejected", "shed"):
        end_us = arrival_us
    elif status == "completed" or end_us is None and status in (
            "failed", "expired"):
        raise ObsError(f"{status} request {req_id} needs attempts or an "
                       "explicit end_us")
    trace = request_root(
        req_id=req_id, status=status, arrival_us=arrival_us, end_us=end_us,
        retries=max(0, len(attempts) - 1), tenant=tenant, attrs=attrs,
    )
    grow_request(trace, dispatched_us, attempts)
    trace.validate()
    return trace


def _fill_service(root: Span, req_id: int, arrival_us: float,
                  dispatched_us: Optional[float],
                  attempts: tuple, final_end: float) -> None:
    if dispatched_us is None:
        dispatched_us = attempts[0].dispatched_us
    if dispatched_us > arrival_us:
        root.child(
            f"req{req_id}.queue_wait", "queue_wait",
            arrival_us, dispatched_us,
        )
    service = root.child(
        f"req{req_id}.service", "service", dispatched_us, final_end
    )
    for idx, att in enumerate(attempts):
        _add_attempt(service, idx, att)


def stream_root(*, stream_id: int, status: str, arrival_us: float,
                end_us: float, attrs: Optional[dict] = None) -> RequestTrace:
    """A decode stream's root-only trace (see :func:`grow_stream`)."""
    if status not in ("completed", "rejected"):
        raise ObsError(f"unknown stream status {status!r}")
    root = Span(f"stream{stream_id}", "stream", arrival_us, end_us)
    return RequestTrace(stream_id, status, root, attrs=dict(attrs or {}))


def grow_stream(trace: RequestTrace, intervals: tuple = ()) -> None:
    """Add the hops of a :func:`stream_root` trace.

    ``intervals`` is the stream's time-ordered execution segments as
    ``(label, kind, start_us, end_us, attrs)`` tuples; gaps between
    them (and before the first) become explicit ``wait`` spans so the
    tree still partitions arrival → completion exactly.  A rejected
    stream gets a zero-width ``rejected`` marker.
    """
    root = trace.root
    cursor = root.start_us
    if trace.status == "rejected":
        root.child(f"{root.name}.rejected", "rejected", cursor, cursor)
    for label, kind, seg_start, seg_end, seg_attrs in intervals:
        if seg_start < cursor:
            raise ObsError(
                f"stream {trace.req_id}: interval {label!r} starts at "
                f"{seg_start} before cursor {cursor}"
            )
        if seg_start > cursor:
            root.child(f"{root.name}.wait", "wait", cursor, seg_start)
        root.child(label, kind, seg_start, seg_end, **(seg_attrs or {}))
        cursor = seg_end


def stream_trace(
    *,
    stream_id: int,
    status: str,
    arrival_us: float,
    intervals: tuple = (),
    attrs: Optional[dict] = None,
) -> RequestTrace:
    """Build and validate one decode stream's tree (it ends with its
    last interval, which a completed stream must have)."""
    if status == "completed" and not intervals:
        raise ObsError(f"completed stream {stream_id} has no intervals")
    trace = stream_root(
        stream_id=stream_id, status=status, arrival_us=arrival_us,
        end_us=intervals[-1][3] if status == "completed" else arrival_us,
        attrs=attrs,
    )
    grow_stream(trace, intervals)
    trace.validate()
    return trace


class TraceCollector:
    """Collects validated request traces of a simulation.

    Strictly passive: the simulators call :meth:`add` after their run,
    so instrumented runs stay bit-identical to plain ones.  With a
    sampler attached, traces the tail-based policy drops are reduced to
    their root span (the request id still appears exactly once, and a
    root-only tree trivially satisfies the partition invariant);
    without one every tree is kept whole.
    """

    def __init__(self, sampler: Optional["TraceSampler"] = None,
                 registry: Optional["MetricsRegistry"] = None):
        self.sampler = sampler
        self.registry = registry
        self._traces: dict[int, RequestTrace] = {}

    def add(self, trace: RequestTrace,
            grow: Optional[Callable[[RequestTrace], None]] = None) -> None:
        """Add one trace, sampled and validated once; ``grow(trace)``
        adds a root-only trace's hops if the sampler keeps it."""
        if trace.req_id in self._traces:
            raise ObsError(
                f"duplicate trace for request {trace.req_id}"
            )
        keep = self.sampler is None or self.sampler.keep(trace)
        if keep and grow is not None:
            grow(trace)
        trace.validate()
        if not keep:
            trace.sampled = False
            trace.root.children.clear()
        self._traces[trace.req_id] = trace
        if self.registry is not None:
            self.registry.counter(
                "repro_obs_traces_total",
                "Request traces observed by the collector",
            ).inc(status=trace.status)
            if keep:
                self.registry.counter(
                    "repro_obs_traces_retained_total",
                    "Request traces retained in full by tail-based "
                    "sampling",
                ).inc()

    def get(self, req_id: int) -> Optional[RequestTrace]:
        return self._traces.get(req_id)

    @property
    def traces(self) -> list[RequestTrace]:
        """All traces in request-id order."""
        return [self._traces[k] for k in sorted(self._traces)]

    def retained(self) -> list[RequestTrace]:
        """Only the fully-sampled traces, in request-id order."""
        return [t for t in self.traces if t.sampled]

    def __len__(self) -> int:
        return len(self._traces)
