"""Compressed MHA/FFN closed forms: forwards to :mod:`repro.core.cycle_model`.

:func:`~repro.core.cycle_model.mha_cycle_breakdown` /
``ffn_cycle_breakdown`` price compressed weight passes under their
``spec`` argument.  These names keep the spec-first call order.
"""

from __future__ import annotations

from typing import Optional

from ..config import (
    AcceleratorConfig,
    CompressionSpec,
    MemoryConfig,
    ModelConfig,
)
from ..core.cycle_model import (
    CycleBreakdown,
    ffn_cycle_breakdown,
    mha_cycle_breakdown,
)


def compressed_mha_breakdown(
    model: ModelConfig,
    acc: AcceleratorConfig,
    spec: CompressionSpec,
    mem: Optional[MemoryConfig] = None,
) -> CycleBreakdown:
    """``mha_cycle_breakdown(model, acc, mem, spec)``."""
    return mha_cycle_breakdown(model, acc, mem, spec)


def compressed_ffn_breakdown(
    model: ModelConfig,
    acc: AcceleratorConfig,
    spec: CompressionSpec,
    mem: Optional[MemoryConfig] = None,
) -> CycleBreakdown:
    """``ffn_cycle_breakdown(model, acc, mem, spec)``."""
    return ffn_cycle_breakdown(model, acc, mem, spec)
