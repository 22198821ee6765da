"""Compressed MHA/FFN timelines: forwards to :mod:`repro.core.scheduler`.

A compressed weight pass is the dense pass priced under a
:class:`~repro.config.CompressionSpec`, so
:func:`~repro.core.scheduler.schedule_mha` / ``schedule_ffn`` take the
spec directly.  These names keep the spec-first call order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..config import (
    AcceleratorConfig,
    CompressionSpec,
    MemoryConfig,
    ModelConfig,
)
from ..core.scheduler import ScheduleResult, schedule_ffn, schedule_mha

if TYPE_CHECKING:
    from ..telemetry.registry import MetricsRegistry


def schedule_compressed_mha(
    model: ModelConfig,
    acc: AcceleratorConfig,
    spec: CompressionSpec,
    mem: Optional[MemoryConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ScheduleResult:
    """``schedule_mha(model, acc, mem, registry, spec)``."""
    return schedule_mha(model, acc, mem, registry, spec)


def schedule_compressed_ffn(
    model: ModelConfig,
    acc: AcceleratorConfig,
    spec: CompressionSpec,
    mem: Optional[MemoryConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ScheduleResult:
    """``schedule_ffn(model, acc, mem, registry, spec)``."""
    return schedule_ffn(model, acc, mem, registry, spec)
