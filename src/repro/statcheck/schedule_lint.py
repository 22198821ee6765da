"""Structural linter for scheduler timelines and trace spans.

Checks the contracts every :class:`~repro.core.scheduler.ScheduleResult`
and :class:`~repro.core.trace.TraceSpan` stream must obey:

* ``SCH001`` — no double-booking: each hardware unit (SA, softmax,
  LayerNorm, DRAM channel) executes at most one event at a time.
* ``SCH002`` — well-formed events: positive duration, ``active_cycles``
  inside the occupied interval, unit known to the trace exporter.
* ``SCH003`` — the reported ``total_cycles`` equals the timeline's
  makespan (last event end).
* ``SCH004`` — cycle conservation against the closed-form model: the
  scheduler's total and memsys stalls equal the analytic
  :class:`~repro.core.cycle_model.CycleBreakdown`, and the SA events'
  active cycles equal the breakdown's ``active_cycles`` term.
* ``SCH005`` — pinned paper points: the Transformer-base schedules
  reproduce the frozen 21578 / 39052 / 21834 cycle totals, plus the
  decode-subsystem points (fused s=512 prefill, one decode step).
* ``SPN001``/``SPN002`` — the same exclusivity / well-formedness checks
  for :class:`TraceSpan` streams (serving traces), with exclusive
  tracks selected by fnmatch patterns.
"""

from __future__ import annotations

from collections.abc import Sequence
from fnmatch import fnmatch
from typing import Optional

from ..config import (
    AcceleratorConfig,
    ModelConfig,
    circulant_spec,
    nm_sparse_spec,
    paper_accelerator,
    transformer_base,
)
from ..core.cycle_model import (
    DENSE,
    CycleBreakdown,
    ffn_cycle_breakdown,
    mha_cycle_breakdown,
)
from ..core.scheduler import (
    ScheduleResult,
    TimelineEvent,
    schedule_ffn,
    schedule_mha,
)
from ..core.trace import _UNIT_TRACKS, TraceSpan
from .findings import Finding

#: Hardware units a timeline may book (the trace exporter's tracks).
KNOWN_UNITS = tuple(_UNIT_TRACKS)

#: Frozen Transformer-base cycle totals (seed values; see
#: tests/core/test_scheduler.py).  Each entry: (label, accelerator
#: overrides, block, pinned total).
PINNED_PAPER_POINTS: tuple[tuple[str, dict[str, int], str, int], ...] = (
    ("paper", {}, "mha", 21_578),
    ("paper", {}, "ffn", 39_052),
    ("wl8", {"weight_load_cycles": 8}, "mha", 21_834),
    ("wl8", {"weight_load_cycles": 8}, "ffn", 39_372),
    ("wl64", {"weight_load_cycles": 64}, "mha", 23_626),
    ("wl64", {"weight_load_cycles": 64}, "ffn", 41_612),
    # Decode-subsystem points: the fused online-softmax prefill at
    # s = 512 and one autoregressive decode step at context 64 (which
    # is structurally the base MHA schedule, hence the shared total).
    ("paper", {}, "fused512", 312_538),
    ("paper", {}, "decode64", 21_578),
    # Compress-subsystem points: block-circulant b=8 pays the
    # row-generator setup on every weight pass (slower without a
    # memory system, the bytes win shows up in memsys stalls); 2:4
    # sparsity halves the weight-pass chains net of index decode.
    ("paper", {}, "circ8_mha", 23_626),
    ("paper", {}, "circ8_ffn", 43_148),
    ("paper", {}, "nm24_mha", 17_482),
    ("paper", {}, "nm24_ffn", 30_860),
)

#: Weight-pass pricing of each pinned MHA/FFN block, keyed by the
#: block's prefix (``"circ8_mha"`` -> ``"circ8"``, ``"mha"`` -> ``""``).
_PINNED_SPECS = {"": DENSE, "circ8": circulant_spec(8),
                "nm24": nm_sparse_spec(2, 4)}

#: Span tracks that model an exclusive resource in serving traces.
DEFAULT_EXCLUSIVE_TRACKS = ("device*", "sa", "softmax", "layernorm", "dram")


def _overlap_findings(
    code: str,
    check: str,
    resource: str,
    events: Sequence[tuple[str, float, float]],
) -> list[Finding]:
    """Findings for overlapping ``(name, start, end)`` intervals."""
    findings: list[Finding] = []
    ordered = sorted(events, key=lambda item: (item[1], item[2]))
    for (prev_name, _, prev_end), (name, start, end) in zip(
        ordered, ordered[1:]
    ):
        if start < prev_end:
            findings.append(Finding(
                code=code,
                check=check,
                message=(
                    f"double-booked {resource!r}: {name!r} starts at "
                    f"{start} before {prev_name!r} ends at {prev_end}"
                ),
                details={
                    "resource": resource,
                    "first": prev_name,
                    "second": name,
                    "overlap": prev_end - start,
                },
            ))
    return findings


def lint_schedule(
    result: ScheduleResult,
    breakdown: Optional[CycleBreakdown] = None,
) -> list[Finding]:
    """Lint one ResBlock timeline (SCH001-SCH004)."""
    findings: list[Finding] = []
    for event in result.events:
        problems = []
        if event.end <= event.start:
            problems.append(
                f"empty/negative interval [{event.start}, {event.end})"
            )
        if event.active_cycles < 0:
            problems.append(f"negative active_cycles {event.active_cycles}")
        elif event.active_cycles > event.duration:
            problems.append(
                f"active_cycles {event.active_cycles} exceed duration "
                f"{event.duration}"
            )
        if event.unit not in KNOWN_UNITS:
            problems.append(
                f"unit {event.unit!r} is not a trace track "
                f"{sorted(KNOWN_UNITS)}"
            )
        for problem in problems:
            findings.append(Finding(
                code="SCH002",
                check="schedule",
                message=f"malformed event {event.name!r}: {problem}",
                details={"event": event.name, "unit": event.unit},
            ))

    by_unit: dict[str, list[TimelineEvent]] = {}
    for event in result.events:
        by_unit.setdefault(event.unit, []).append(event)
    for unit, events in sorted(by_unit.items()):
        findings.extend(_overlap_findings(
            "SCH001", "schedule", unit,
            [(e.name, e.start, e.end) for e in events],
        ))

    if result.events:
        makespan = max(e.end for e in result.events)
        if result.total_cycles != makespan:
            findings.append(Finding(
                code="SCH003",
                check="schedule",
                message=(
                    f"{result.block} total_cycles={result.total_cycles} "
                    f"!= timeline makespan {makespan}"
                ),
                details={"total_cycles": result.total_cycles,
                         "makespan": makespan},
            ))

    if breakdown is not None:
        sa_active = sum(
            e.active_cycles for e in result.events if e.unit == "sa"
        )
        checks = (
            ("total_cycles", result.total_cycles, breakdown.total_cycles),
            ("memsys_stall_cycles", result.memsys_stall_cycles,
             breakdown.memsys_stall_cycles),
            ("sa active cycles", sa_active, breakdown.active_cycles),
            ("ideal_cycles", result.ideal_sa_cycles, breakdown.ideal_cycles),
        )
        for label, scheduled, analytic in checks:
            if scheduled != analytic:
                findings.append(Finding(
                    code="SCH004",
                    check="schedule",
                    message=(
                        f"{result.block} {label} conservation violated: "
                        f"scheduler says {scheduled}, closed-form model "
                        f"says {analytic}"
                    ),
                    details={"quantity": label, "scheduler": scheduled,
                             "cycle_model": analytic},
                ))
    return findings


def lint_paper_points(
    model: Optional[ModelConfig] = None,
    acc: Optional[AcceleratorConfig] = None,
) -> tuple[int, list[Finding]]:
    """Lint the pinned Transformer-base schedules (SCH001-SCH005).

    Builds each frozen operating point, lints its timeline, checks
    scheduler/closed-form agreement, and pins the totals to the seed
    values.  Returns ``(points_checked, findings)``.
    """
    model = model or transformer_base()
    base_acc = acc or paper_accelerator()
    findings: list[Finding] = []
    checked = 0
    for label, overrides, block, pinned in PINNED_PAPER_POINTS:
        point_acc = (
            base_acc.with_updates(**overrides) if overrides else base_acc
        )
        if block == "fused512":
            # Lazy import: repro.decode builds on repro.core; pulling
            # it in at module scope would make the core lint depend on
            # the decode subsystem even when it is never checked.
            from ..decode import fused_mha_breakdown, schedule_fused_mha
            result = schedule_fused_mha(model, point_acc, 512)
            breakdown = fused_mha_breakdown(model, point_acc, 512)
        elif block == "decode64":
            from ..decode import (
                decode_step_breakdown,
                schedule_decode_step,
            )
            result = schedule_decode_step(model, point_acc, 64)
            breakdown = decode_step_breakdown(model, point_acc, 64)
        else:
            prefix, _, kind = block.rpartition("_")
            spec = _PINNED_SPECS[prefix]
            if kind == "mha":
                result = schedule_mha(model, point_acc, spec=spec)
                breakdown = mha_cycle_breakdown(model, point_acc, spec=spec)
            else:
                result = schedule_ffn(model, point_acc, spec=spec)
                breakdown = ffn_cycle_breakdown(model, point_acc, spec=spec)
        findings.extend(lint_schedule(result, breakdown))
        if result.total_cycles != pinned:
            findings.append(Finding(
                code="SCH005",
                check="schedule",
                message=(
                    f"pinned point drifted: {label}/{block} now totals "
                    f"{result.total_cycles} cycles, seed pinned {pinned}"
                ),
                details={"point": label, "block": block,
                         "expected": pinned,
                         "actual": result.total_cycles},
            ))
        checked += 1
    return checked, findings


def lint_spans(
    spans: Sequence[TraceSpan],
    exclusive_tracks: Sequence[str] = DEFAULT_EXCLUSIVE_TRACKS,
) -> list[Finding]:
    """Lint a serving-trace span stream (SPN001/SPN002).

    Tracks matching any fnmatch pattern in ``exclusive_tracks`` model a
    physical resource and must not carry overlapping spans; every span
    must have a non-negative duration.
    """
    findings: list[Finding] = []
    by_track: dict[str, list[TraceSpan]] = {}
    for span in spans:
        if span.duration_us < 0:
            findings.append(Finding(
                code="SPN002",
                check="schedule",
                message=(
                    f"span {span.name!r} on track {span.track!r} has "
                    f"negative duration {span.duration_us}"
                ),
                details={"span": span.name, "track": span.track},
            ))
        by_track.setdefault(span.track, []).append(span)
    for track, track_spans in sorted(by_track.items()):
        if not any(fnmatch(track, pat) for pat in exclusive_tracks):
            continue
        findings.extend(_overlap_findings(
            "SPN001", "schedule", track,
            [(s.name, s.start_us, s.end_us) for s in track_spans],
        ))
    return findings
