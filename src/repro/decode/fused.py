"""Fused-attention prefill and decode-step schedules on the event timeline.

Two shapes of the one attention timeline builder,
:func:`repro.core.scheduler._schedule_attention`, beyond the one-tile
shape :func:`~repro.core.scheduler.schedule_mha` uses:

* :func:`schedule_fused_mha` — long-sequence prefill (``s`` may exceed
  the SA's ``seq_len`` rows).  ``Q``/``K``/``V`` row tiles stream
  through the array weight-stationary (each projection tile loads its
  64-column weight block once, then replays it over ``ceil(s/rows)``
  row tiles), ``Q_tau K^T`` runs as ``ceil(s/64)`` chunk passes per
  query tile, and the softmax module consumes each tile's score block
  with the *online* running-max normalization of
  :class:`~repro.core.streaming.StreamingSoftmax` — so the full
  ``s x s`` score matrix never exists in Data Memory.  The schedule is
  software-pipelined: tile ``tau``'s softmax tail hides behind tile
  ``tau+1``'s ``Q K^T`` passes, and ``P_tau V`` dispatches as soon as
  its tile's normalization lands.
* :func:`schedule_decode_step` — one autoregressive token.  A single
  valid query row projects through Q (and optionally the new token's
  K/V rows), multiplies against the *cached* ``K`` (``ceil(t/64)``
  chunk passes), normalizes a ``t``-column row, and reduces against the
  cached ``V`` (one ``t``-deep pass).  The array still fills/drains all
  ``seq_len`` rows — the padding waste `repro profile` reports as the
  gap between padded and effective utilization.

Each has a closed-form twin in :mod:`repro.decode.cycle_model`, the
same shape of the one attention closed form, that the property suite
holds to exact agreement (the SCH004 conservation pattern).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..config import AcceleratorConfig, MemoryConfig, ModelConfig
from ..core.cycle_model import DENSE, _require_positive
from ..core.scheduler import ScheduleResult, _schedule_attention

if TYPE_CHECKING:
    from ..telemetry.registry import MetricsRegistry


def schedule_fused_mha(
    model: ModelConfig,
    acc: AcceleratorConfig,
    s: int,
    mem: Optional[MemoryConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ScheduleResult:
    """Timeline of one fused-attention MHA ResBlock at sequence length ``s``.

    The shape ``(s, s, new_kv=True)``: ``s`` is a *workload* parameter
    independent of the SA's physical ``acc.seq_len`` rows, and the
    sequence is processed as ``T = ceil(s / seq_len)`` query row tiles
    (events carry a ``.t{tau}`` suffix when ``T > 1``).  With
    ``s <= seq_len`` (one tile) the pass structure is exactly
    :func:`repro.core.scheduler.schedule_mha`'s, and at
    ``s == seq_len`` so is every event.
    """
    _require_positive("s", s)
    return _schedule_attention(
        model, acc, s, s, True, DENSE, mem, registry, "fused_mha"
    )


def schedule_decode_step(
    model: ModelConfig,
    acc: AcceleratorConfig,
    context_len: int,
    mem: Optional[MemoryConfig] = None,
    registry: Optional[MetricsRegistry] = None,
    new_kv: bool = True,
) -> ScheduleResult:
    """Timeline of one MHA ResBlock for a single decode token.

    The shape ``(1, context_len, new_kv)``: one valid query row attends
    over ``context_len`` cached key/value positions.  Per head: the new
    token's Q projection (and, for self-attention, its K and V rows —
    ``new_kv=False`` models cross attention, whose K/V were cached at
    prefill), ``ceil(t/64)`` ``q K^T`` chunk passes against the cached
    K, a ``t``-column single-row online softmax, and one ``t``-deep
    ``p V`` pass against the cached V; then the ``h`` output passes and
    the LayerNorm tail.

    KV-cache *residency* is deliberately not on this timeline: hit/miss
    refetch traffic depends on the serving-level interleaving, so
    :class:`~repro.decode.kvcache.KVCacheModel` prices it per lookup
    and the serving simulator adds it to the step cost.

    The array still fills and drains all ``acc.seq_len`` rows for every
    pass — ``ideal_sa_cycles`` counts only the one valid row's MACs, so
    ``sa_utilization`` is the *effective* number while
    ``padded_sa_utilization`` shows what the array streamed.
    """
    _require_positive("context_len", context_len)
    return _schedule_attention(
        model, acc, 1, context_len, new_kv, DENSE, mem, registry,
        "decode_step",
    )
