"""Closed-form cycle model for the fused and decode-step schedules.

Both are shapes of the one attention closed form,
:func:`repro.core.cycle_model._attention_breakdown`: pass-count algebra
for the active/issue/skew/ABFT components, plus one scalar walk over
the pass sequence for the two *coupled* idle terms — softmax-tail waits
and prefetch stalls — which in the fused pipeline depend on each other
and on the running position of the softmax module.  The property suite
holds every breakdown to EXACT agreement with its event-timeline twin
in :mod:`repro.decode.fused`; the conservation identity

    total = active + issue + skew + abft + softmax_stall
            + memsys_stall + layernorm

is the fused analogue of the SCH004 lint.
"""

from __future__ import annotations

from typing import Optional

from ..config import AcceleratorConfig, MemoryConfig, ModelConfig
from ..core.cycle_model import (
    DENSE,
    CycleBreakdown,
    _attention_breakdown,
    _attention_macs,
    _require_positive,
    ffn_cycle_breakdown,
    mha_tile_bytes,
)

__all__ = [
    "decode_step_breakdown",
    "decode_step_macs",
    "fused_mha_breakdown",
    "mha_tile_bytes",
    "prefill_layer_cycles",
]


def decode_step_macs(
    model: ModelConfig, context_len: int, new_kv: bool = True
) -> int:
    """Useful MACs of one MHA ResBlock for a single decode token.

    One valid query row: the new token's Q (and, for self-attention,
    K/V) projections, a 1 x ``t`` score row against the cached K, a
    1 x ``d_k`` reduction against the cached V, and the output
    projection.  The ``s^2`` attention terms of the prefill count
    collapse to ``t`` — the arithmetic the KV cache saves.
    """
    _require_positive("context_len", context_len)
    return _attention_macs(model, 1, context_len, new_kv)


def fused_mha_breakdown(
    model: ModelConfig,
    acc: AcceleratorConfig,
    s: int,
    mem: Optional[MemoryConfig] = None,
) -> CycleBreakdown:
    """Analytic cycle count of one fused MHA ResBlock at length ``s``.

    The shape ``(s, s, new_kv=True)``: ``T = ceil(s / seq_len)`` query
    row tiles and ``C = ceil(s / 64)`` key chunks give ``hT(5 + C)``
    passes, of which ``4h`` load weights, exactly as in the base model.
    At ``T = 1`` every count reduces to
    :func:`repro.core.cycle_model.mha_cycle_breakdown`'s.  The
    ``s + pipeline_depth`` softmax tail of each tile is hidden by the V
    row tiles (tile 0) or the next tile's ``Q K^T`` chunks (software
    pipelining); what leaks — plus tiles serializing on the one softmax
    module — is ``softmax_stall_cycles``, coupled with the prefetch
    stalls.
    """
    _require_positive("s", s)
    return _attention_breakdown(model, acc, s, s, True, DENSE, mem)


def decode_step_breakdown(
    model: ModelConfig,
    acc: AcceleratorConfig,
    context_len: int,
    mem: Optional[MemoryConfig] = None,
    new_kv: bool = True,
) -> CycleBreakdown:
    """Analytic cycle count of one decode-token MHA ResBlock.

    The shape ``(1, t, new_kv)``: the base MHA pass skeleton with the
    score product ``ceil(t/64)`` chunks against the *cached* K, a
    ``t``-column softmax row and a ``t``-deep ``P V`` reduction, while
    every projection still costs its full ``d_model`` streaming cycles
    for one valid row.  With ``new_kv=False`` (cross-attention) the
    K/V projections drop out.  ``ideal_cycles`` counts only the valid
    row's MACs, so utilization here *is* the padding-waste story
    ``repro profile`` reports.
    """
    _require_positive("context_len", context_len)
    return _attention_breakdown(
        model, acc, 1, context_len, new_kv, DENSE, mem
    )


def prefill_layer_cycles(
    model: ModelConfig,
    acc: AcceleratorConfig,
    s: int,
    mem: Optional[MemoryConfig] = None,
) -> int:
    """Cycles of one encoder layer's prefill at sequence length ``s``.

    Fused MHA plus the FFN run once per 64-row tile (the FFN is
    row-parallel, so tiling it is exact in arithmetic; re-streaming the
    W1/W2 tiles per row tile is the conservative simplification — a
    weight-stationary FFN would amortize them like the fused
    projections do).
    """
    num_tiles = -(-s // acc.seq_len)
    mha = fused_mha_breakdown(model, acc, s, mem).total_cycles
    ffn = ffn_cycle_breakdown(model, acc, mem).total_cycles
    return mha + num_tiles * ffn
