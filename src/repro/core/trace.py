"""Export scheduler timelines as Chrome trace-event JSON.

``chrome://tracing`` / Perfetto can open the emitted file and show the
Algorithm 1 schedule — SA passes, softmax activity and the LayerNorm tail
on separate tracks — which is the easiest way to *see* the overlap the
paper describes.

Two pathways share the format:

* :func:`schedule_to_trace_events` / :func:`write_trace` — one ResBlock's
  :class:`~repro.core.scheduler.ScheduleResult` on the three hardware
  unit tracks;
* :func:`spans_to_trace_events` / :func:`write_span_trace` — arbitrary
  :class:`TraceSpan` lists on named tracks, used by the serving
  simulator to show requests queueing, batches forming and devices
  executing across a whole simulated run.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ScheduleError
from .scheduler import ScheduleResult

#: Track (tid) assignment per hardware unit.
_UNIT_TRACKS = {"sa": 0, "softmax": 1, "layernorm": 2, "dram": 3}

#: Registry of every track name a :class:`TraceSpan` may be emitted on,
#: as fnmatch patterns.  ``repro.statcheck``'s REP003 lint statically
#: checks each ``TraceSpan(track=...)`` site against this list, so a new
#: track must be registered here (keeping the viewer's row inventory,
#: and any tooling keyed on track names, in one place).
KNOWN_TRACK_PATTERNS = tuple(_UNIT_TRACKS) + (
    "queue",      # serving: per-request admission-to-dispatch waits
    "faults",     # serving: ABFT retries and device-failure markers
    "device*",    # serving: one row per simulated accelerator
    "batch*",     # serving: optional per-batch breakout rows
    "queue_depth",            # serving: admission-queue depth counter
    "sa_utilization",         # serving: per-batch useful-MAC share
    "weight_cache_hit_rate",  # serving: cumulative cache hit rate
    "repro_*",    # telemetry: registry timeseries exported as counters
    "*device*",   # cluster: pool-prefixed device rows (<pool>.deviceN)
    "*.queue",    # cluster: per-pool admission-wait rows
    "router",     # cluster: shed-decision markers
    "autoscaler",  # cluster: scale-up/down action markers
    "*.queue_depth",  # cluster: per-pool queue-depth counters
    "*.devices",      # cluster: per-pool active-replica counters
    "prefill",        # decode: per-stream prefill waits and runs
    "decode",         # decode: per-batch token-generation steps
    "kv_cache_hit_rate",  # decode: cumulative KV residency counter
    "compress.*",     # compress: one row per swept spec + counter rows
    "slo_alerts",     # obs: burn-rate alert intervals per tenant
)


@dataclass(frozen=True)
class TraceSpan:
    """One complete ("X") event on a named track.

    Attributes:
        name: Event label (e.g. ``"batch3"``, ``"req17.queued"``).
        track: Track name; each distinct track becomes one ``tid`` row.
        start_us / duration_us: Interval in microseconds.
        category: Trace-event ``cat`` (defaults to ``"serving"``).
        args: Extra key/values shown in the viewer's detail pane.
    """

    name: str
    track: str
    start_us: float
    duration_us: float
    category: str = "serving"
    args: dict = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


def spans_to_trace_events(spans: Sequence[TraceSpan]) -> list[dict]:
    """Convert spans to trace-event dicts with stable track numbering.

    Tracks get ``tid`` values in first-appearance order and a matching
    ``thread_name`` metadata record, so the viewer shows the rows in the
    order the caller emitted them (queue first, then devices, ...).
    """
    if not spans:
        raise ScheduleError("no spans to trace")
    tracks: dict[str, int] = {}
    events = []
    for span in spans:
        if span.duration_us < 0:
            raise ScheduleError(
                f"span {span.name!r} has negative duration"
            )
        tid = tracks.setdefault(span.track, len(tracks))
        events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start_us,
            "dur": span.duration_us,
            "pid": 0,
            "tid": tid,
            "args": dict(span.args),
        })
    for track, tid in tracks.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": track},
        })
    return events


def counter_events(
    name: str,
    samples: Sequence[tuple],
    category: str = "serving",
) -> list[dict]:
    """Build Chrome counter ("C") events from ``(ts_us, value)`` samples.

    Counters render as a stacked area chart in the viewer — the natural
    way to show queue depth over a serving run.  The sample list must be
    non-empty and its timestamps non-decreasing (the viewer renders a
    counter track as-given, so an out-of-order series silently draws a
    wrong chart): violations raise :class:`ScheduleError`.  Callers with
    event-ordered samples (e.g. serving retries landing at past
    completion times) must sort by timestamp first.
    """
    if not samples:
        raise ScheduleError(f"counter {name!r} has no samples")
    events = []
    prev_ts: Optional[float] = None
    for ts_us, value in samples:
        ts_us = float(ts_us)
        if prev_ts is not None and ts_us < prev_ts:
            raise ScheduleError(
                f"counter {name!r} samples are not time-ordered: "
                f"{ts_us} after {prev_ts}"
            )
        prev_ts = ts_us
        events.append({
            "name": name,
            "cat": category,
            "ph": "C",
            "ts": float(ts_us),
            "pid": 0,
            "args": {name: value},
        })
    return events


def counter_tracks(tracks: Iterable[tuple[str, Sequence[tuple]]]) -> list[dict]:
    """:func:`counter_events` of every non-empty ``(name, samples)`` track.

    Each track is sorted by timestamp first: simulators sample at event
    times (e.g. batch completions, which retries push past the next
    dispatch), not in time order.
    """
    return [
        event for name, samples in tracks if samples
        for event in counter_events(name, sorted(samples, key=lambda s: s[0]))
    ]


def write_span_trace(
    spans: Sequence[TraceSpan],
    path: str,
    counters: Optional[list[dict]] = None,
    other_data: Optional[dict] = None,
) -> int:
    """Write spans (plus optional counter events) to ``path``.

    Returns the total event count, mirroring :func:`write_trace`.
    """
    events = spans_to_trace_events(spans)
    if counters:
        events.extend(counters)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(other_data or {}),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    return len(events)


def schedule_to_trace_events(
    result: ScheduleResult, clock_mhz: float = 200.0
) -> list[dict]:
    """Convert a :class:`ScheduleResult` to trace-event dicts.

    Cycle counts become microsecond timestamps at ``clock_mhz`` so the
    viewer's time axis reads in real time.
    """
    if not result.events:
        raise ScheduleError("schedule has no events to trace")
    scale = 1.0 / clock_mhz  # cycles -> us
    events = []
    used_units = set()
    for event in result.events:
        if event.unit not in _UNIT_TRACKS:
            raise ScheduleError(f"unknown unit {event.unit!r}")
        used_units.add(event.unit)
        events.append({
            "name": event.name,
            "cat": event.unit,
            "ph": "X",                       # complete event
            "ts": event.start * scale,
            "dur": event.duration * scale,
            "pid": 0,
            "tid": _UNIT_TRACKS[event.unit],
            "args": {
                "cycles": event.duration,
                "active_cycles": event.active_cycles,
            },
        })
    # Name only the tracks that carry events: the dram track exists
    # solely when a memory system put fetches on the timeline.
    for unit, tid in _UNIT_TRACKS.items():
        if unit not in used_units:
            continue
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": unit},
        })
    return events


def write_trace(
    result: ScheduleResult, path: str, clock_mhz: float = 200.0
) -> int:
    """Write the trace JSON to ``path``; returns the event count."""
    events = schedule_to_trace_events(result, clock_mhz)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "block": result.block,
            "total_cycles": result.total_cycles,
        },
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    return len(events)
