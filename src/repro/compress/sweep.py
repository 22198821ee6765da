"""Compression sweep: ratio x cycles x stalls x quality x throughput.

The measurement the whole subsystem exists for — for each candidate
:class:`~repro.config.CompressionSpec` at one operating point it
reports, side by side:

* the storage story (value compression ratio, weight-bytes ratio with
  index metadata, encoder-layer sets resident in the Table II BRAM);
* the cycle story (compressed MHA/FFN totals from the event timeline,
  savings vs dense, paid index/setup overhead, memsys stall share);
* optionally the quality story (BLEU proxy on the synthetic NMT task
  through the dense-expansion equivalence path) and the serving story
  (simulated throughput with the compressed cost model).

``repro compress`` drives this from the CLI; the A8 bench pins three
of its headline numbers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..config import (
    AcceleratorConfig,
    CompressionSpec,
    MemoryConfig,
    ModelConfig,
    ServingConfig,
    circulant_spec,
    nm_sparse_spec,
)
from ..core.cycle_model import ffn_cycle_breakdown, mha_cycle_breakdown
from ..core.scheduler import schedule_ffn, schedule_mha
from ..errors import ScheduleError
from .footprint import FootprintReport, footprint_report

if TYPE_CHECKING:
    from ..telemetry.registry import MetricsRegistry


def default_sweep_specs() -> list[CompressionSpec]:
    """The canonical sweep: dense reference, circulant and N:M ladders."""
    return [
        CompressionSpec(),
        circulant_spec(4),
        circulant_spec(8),
        circulant_spec(16),
        nm_sparse_spec(2, 4),
        nm_sparse_spec(1, 4),
    ]


@dataclass(frozen=True)
class CompressPoint:
    """One compression spec's full-stack measurement.

    Attributes:
        spec: The spec measured.
        compression_ratio: Dense / stored weight-value count.
        weight_bytes_ratio: Compressed / dense layer weight bytes
            (index metadata included).
        mha_cycles / ffn_cycles: Event-timeline ResBlock totals.
        dense_mha_cycles / dense_ffn_cycles: Dense references.
        cycle_savings_frac: ``1 - compressed / dense`` over one
            MHA + FFN layer (negative when overhead outweighs savings,
            e.g. circulant on an unconstrained memory system).
        index_overhead_cycles: Paid row-generator/index-decode cycles
            over one MHA + FFN layer.
        skipped_cycles: SA active cycles the sparsity skipped vs dense
            (zero for circulant — it compresses bytes, not MACs).
        memsys_stall_cycles: Layer memsys stall at this point.
        stall_share: Memsys stall / layer total.
        footprint: The BRAM/bandwidth accounting
            (:class:`~repro.compress.footprint.FootprintReport`).
        bleu: BLEU proxy of the compressed NMT model (None when no
            trained model was supplied).
        bleu_drop: Dense-model BLEU minus compressed BLEU (None as
            above).
        throughput_rps: Simulated serving throughput with the
            compressed cost model (None when serving was not swept).
    """

    spec: CompressionSpec
    compression_ratio: float
    weight_bytes_ratio: float
    mha_cycles: int
    ffn_cycles: int
    dense_mha_cycles: int
    dense_ffn_cycles: int
    cycle_savings_frac: float
    index_overhead_cycles: int
    skipped_cycles: int
    memsys_stall_cycles: int
    stall_share: float
    footprint: FootprintReport
    bleu: Optional[float] = None
    bleu_drop: Optional[float] = None
    throughput_rps: Optional[float] = None

    @property
    def label(self) -> str:
        return self.spec.label

    def as_dict(self) -> dict:
        """JSON-friendly flat view (CLI / CI artifact format)."""
        return {
            "spec": self.label,
            "scheme": self.spec.scheme,
            "compression_ratio": self.compression_ratio,
            "weight_bytes_ratio": self.weight_bytes_ratio,
            "mha_cycles": self.mha_cycles,
            "ffn_cycles": self.ffn_cycles,
            "dense_mha_cycles": self.dense_mha_cycles,
            "dense_ffn_cycles": self.dense_ffn_cycles,
            "cycle_savings_frac": self.cycle_savings_frac,
            "index_overhead_cycles": self.index_overhead_cycles,
            "skipped_cycles": self.skipped_cycles,
            "memsys_stall_cycles": self.memsys_stall_cycles,
            "stall_share": self.stall_share,
            "layers_resident": self.footprint.layers_resident,
            "bleu": self.bleu,
            "bleu_drop": self.bleu_drop,
            "throughput_rps": self.throughput_rps,
        }


def sweep_point(
    model: ModelConfig,
    acc: AcceleratorConfig,
    spec: CompressionSpec,
    mem: Optional[MemoryConfig] = None,
) -> CompressPoint:
    """Price one spec (cycles + footprint; no quality/serving terms)."""
    mha = schedule_mha(model, acc, mem, spec=spec)
    ffn = schedule_ffn(model, acc, mem, spec=spec)
    dense_mha = schedule_mha(model, acc, mem)
    dense_ffn = schedule_ffn(model, acc, mem)
    # Cross-check the closed form at every swept point (the property
    # tests do this across random configs; the sweep asserts it on the
    # exact points it reports).
    bd_mha = mha_cycle_breakdown(model, acc, mem, spec)
    bd_ffn = ffn_cycle_breakdown(model, acc, mem, spec)
    assert bd_mha.total_cycles == mha.total_cycles
    assert bd_ffn.total_cycles == ffn.total_cycles
    layer = mha.total_cycles + ffn.total_cycles
    dense_layer = dense_mha.total_cycles + dense_ffn.total_cycles
    skipped = (
        (dense_mha.sa_active_cycles + dense_ffn.sa_active_cycles)
        - (mha.sa_active_cycles + ffn.sa_active_cycles)
    )
    fp = footprint_report(model, acc, spec)
    return CompressPoint(
        spec=spec,
        compression_ratio=spec.compression_ratio,
        weight_bytes_ratio=fp.weight_bytes_ratio,
        mha_cycles=mha.total_cycles,
        ffn_cycles=ffn.total_cycles,
        dense_mha_cycles=dense_mha.total_cycles,
        dense_ffn_cycles=dense_ffn.total_cycles,
        cycle_savings_frac=1.0 - layer / dense_layer,
        index_overhead_cycles=(mha.compress_overhead_cycles
                               + ffn.compress_overhead_cycles),
        skipped_cycles=skipped,
        memsys_stall_cycles=(mha.memsys_stall_cycles
                             + ffn.memsys_stall_cycles),
        stall_share=(mha.memsys_stall_cycles + ffn.memsys_stall_cycles)
        / layer,
        footprint=fp,
    )


def compress_trace_spans(
    points: list[CompressPoint], clock_mhz: float = 200.0
) -> tuple[list, list[dict]]:
    """Chrome-trace view of a sweep: one row per spec, side by side.

    Each spec's compressed MHA + FFN passes become two spans on a
    ``compress.<label>`` track, laid left to right in sweep order so the
    rows' lengths *are* the cycle comparison.  Counter tracks chart the
    paid index/setup overhead, the MAC cycles the sparsity skipped and
    the weight-bytes ratio across the sweep.  Returns ``(spans,
    counter_events)`` for :func:`repro.core.trace.write_span_trace`.
    """
    from ..core.trace import TraceSpan, counter_events

    if not points:
        raise ScheduleError("no sweep points to trace")
    scale = 1.0 / clock_mhz
    spans = []
    overhead, skipped, ratio = [], [], []
    cursor = 0.0
    for point in points:
        track = f"compress.{point.label}"
        mha_us = point.mha_cycles * scale
        ffn_us = point.ffn_cycles * scale
        spans.append(TraceSpan(
            name="mha", track=track, start_us=cursor, duration_us=mha_us,
            category="compress",
            args={"cycles": point.mha_cycles,
                  "dense_cycles": point.dense_mha_cycles},
        ))
        spans.append(TraceSpan(
            name="ffn", track=track, start_us=cursor + mha_us,
            duration_us=ffn_us, category="compress",
            args={"cycles": point.ffn_cycles,
                  "dense_cycles": point.dense_ffn_cycles},
        ))
        overhead.append((cursor, point.index_overhead_cycles))
        skipped.append((cursor, point.skipped_cycles))
        ratio.append((cursor, point.weight_bytes_ratio))
        cursor += mha_us + ffn_us
    counters = (
        counter_events("compress.index_overhead_cycles", overhead, "compress")
        + counter_events("compress.skipped_cycles", skipped, "compress")
        + counter_events("compress.weight_bytes_ratio", ratio, "compress")
    )
    return spans, counters


def compression_sweep(
    model: ModelConfig,
    acc: AcceleratorConfig,
    specs: Optional[list[CompressionSpec]] = None,
    mem: Optional[MemoryConfig] = None,
    nmt: Optional[tuple] = None,
    serving: Optional[ServingConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> list[CompressPoint]:
    """Measure every spec across the axes the caller enabled.

    Args:
        model / acc: Operating point for the cycle/footprint pricing.
        specs: Candidate specs (default :func:`default_sweep_specs`);
            a dense entry anchors the comparisons.
        mem: Finite memory system for the stall terms (None = the
            paper's free-weights assumption, stall share 0).
        nmt: Optional ``(trained_model, task, eval_pairs)`` triple; when
            given, each spec's BLEU proxy is measured through the
            dense-expansion path (the trained model is snapshotted and
            restored around each projection).
        serving: Optional :class:`ServingConfig`; when given, each spec
            runs the serving simulator with ``compression=spec`` and
            reports its throughput.
        registry: Optional metrics registry; each point is recorded as
            ``repro_compress_*`` families
            (:func:`repro.telemetry.instrument.record_compress`).
    """
    points: list[CompressPoint] = []
    dense_bleu: Optional[float] = None
    if nmt is not None:
        from ..nmt import evaluate_bleu

        trained, task, pairs = nmt
        dense_bleu = evaluate_bleu(trained, task, pairs)
    for spec in (default_sweep_specs() if specs is None else specs):
        point = sweep_point(model, acc, spec, mem)
        bleu = bleu_drop = None
        if nmt is not None:
            from ..nmt import evaluate_bleu

            from .apply import compress_model, restore_weights, snapshot_weights

            trained, task, pairs = nmt
            if spec.is_dense:
                bleu = dense_bleu
            else:
                snapshot = snapshot_weights(trained)
                try:
                    compress_model(trained, spec)
                    bleu = evaluate_bleu(trained, task, pairs)
                finally:
                    restore_weights(trained, snapshot)
            bleu_drop = dense_bleu - bleu
        throughput = None
        if serving is not None:
            from ..serving import simulate_serving

            result = simulate_serving(
                model, acc, serving.with_updates(compression=spec)
            )
            throughput = result.metrics.throughput_rps
        point = dataclasses.replace(
            point, bleu=bleu, bleu_drop=bleu_drop,
            throughput_rps=throughput,
        )
        points.append(point)
        if registry is not None:
            from ..telemetry.instrument import record_compress

            record_compress(registry, point=point)
    return points
