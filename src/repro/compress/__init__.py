"""Structured weight compression as a first-class scenario.

Block-circulant (FTRANS-style) and N:M structured-sparse weight
representations, aligned to the SA's 64-column tiles and priced through
the whole stack:

* :mod:`formats <repro.compress.formats>` — the numeric containers
  with INT8 quantization and the dense-expansion equivalence path;
* pricing — a compressed weight pass is the dense SA pass priced under
  the spec, so the core event scheduler and closed form take it
  directly (``schedule_mha(..., spec=)``, ``mha_cycle_breakdown(...,
  spec=)`` and the FFN pair: zero row-groups skipped, index/setup
  overhead charged, smaller tiles fetched).
  :mod:`schedule <repro.compress.schedule>` and
  :mod:`cycle_model <repro.compress.cycle_model>` hold only spec-first
  forwards to them;
* :mod:`footprint <repro.compress.footprint>` — BRAM residency and
  off-chip bandwidth relief (:mod:`repro.memsys` terms);
* :mod:`apply <repro.compress.apply>` — project a trained Transformer
  onto a spec's family for the BLEU proxy;
* :mod:`sweep <repro.compress.sweep>` — the full
  ratio x cycles x stalls x BLEU x throughput measurement behind
  ``repro compress``.

The spec itself (:class:`repro.config.CompressionSpec`) lives in
:mod:`repro.config` so serving/cluster configs can carry one without
importing this package.
"""

from ..config import CompressionSpec, circulant_spec, nm_sparse_spec
from .apply import (
    RESBLOCK_WEIGHT_LEAVES,
    compress_model,
    resblock_weight_keys,
    restore_weights,
    snapshot_weights,
)
from .cycle_model import compressed_ffn_breakdown, compressed_mha_breakdown
from .footprint import (
    FootprintReport,
    ffn_weight_bytes,
    footprint_report,
    layer_weight_bytes,
    mha_weight_bytes,
)
from .formats import BlockCirculantMatrix, NMSparseMatrix, compress_dense
from .schedule import schedule_compressed_ffn, schedule_compressed_mha
from .sweep import (
    CompressPoint,
    compress_trace_spans,
    compression_sweep,
    default_sweep_specs,
    sweep_point,
)

__all__ = [
    "BlockCirculantMatrix",
    "CompressPoint",
    "CompressionSpec",
    "FootprintReport",
    "NMSparseMatrix",
    "RESBLOCK_WEIGHT_LEAVES",
    "circulant_spec",
    "compress_dense",
    "compress_model",
    "compressed_ffn_breakdown",
    "compressed_mha_breakdown",
    "compress_trace_spans",
    "compression_sweep",
    "default_sweep_specs",
    "ffn_weight_bytes",
    "footprint_report",
    "layer_weight_bytes",
    "mha_weight_bytes",
    "nm_sparse_spec",
    "resblock_weight_keys",
    "restore_weights",
    "schedule_compressed_ffn",
    "schedule_compressed_mha",
    "snapshot_weights",
    "sweep_point",
]
