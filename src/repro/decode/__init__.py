"""Long-sequence and autoregressive-decode workloads (`repro.decode`).

The paper's accelerator is an encoder-style fixed-length design: the SA
processes exactly ``seq_len`` rows and the softmax module sees at most
one 64-column ``Q K^T`` drain per head.  This package opens the two
workload families that design cannot natively express:

* **Fused long-sequence prefill** — :func:`schedule_fused_mha` runs
  ``s >> seq_len`` attention as tiled ``Q K^T -> online softmax -> P V``
  passes (SystolicAttention-style streaming normalization, built on the
  running-max machinery of :class:`~repro.core.streaming.StreamingSoftmax`)
  without ever materializing the full ``s x s`` score matrix, priced on
  the event timeline *and* by the closed-form
  :func:`fused_mha_breakdown` with property-tested exact agreement.
* **Per-token decode** — :func:`schedule_decode_step` prices one
  KV-cached autoregressive step (single valid query row against cached
  K/V), with :class:`KVCacheModel` charging off-chip refetch through
  :mod:`repro.memsys` when evicted from the Table II BRAM budget.

Both are shapes ``(rows, keys, new_kv)`` of the one attention schedule
and closed form in :mod:`repro.core` — ``(s, s, True)`` and
``(1, t, new_kv)`` — whose one-tile shape is the stock
:func:`~repro.core.scheduler.schedule_mha`; at ``s == seq_len`` (or a
fresh-K/V step at ``t == seq_len``) each timeline is that schedule's,
event for event.
* **Mixed prefill/decode serving** — :func:`simulate_decode` interleaves
  long-prefill streams with per-token decode under decode-priority or
  prefill-chunking policies, exporting ``repro_decode_*`` telemetry and
  Chrome-trace tracks (``repro decode-sim``).
"""

from .cycle_model import (
    decode_step_breakdown,
    decode_step_macs,
    fused_mha_breakdown,
    prefill_layer_cycles,
)
from .fused import schedule_decode_step, schedule_fused_mha
from .kvcache import (
    KVCacheModel,
    KVLookup,
    default_kv_cache_bytes,
    kv_bytes_per_token,
)
from .serving import (
    DecodeMetrics,
    DecodeResult,
    DecodeStream,
    sample_decode_streams,
    simulate_decode,
)

__all__ = [
    "DecodeMetrics",
    "DecodeResult",
    "DecodeStream",
    "KVCacheModel",
    "KVLookup",
    "decode_step_breakdown",
    "decode_step_macs",
    "default_kv_cache_bytes",
    "fused_mha_breakdown",
    "kv_bytes_per_token",
    "prefill_layer_cycles",
    "sample_decode_streams",
    "schedule_decode_step",
    "schedule_fused_mha",
    "simulate_decode",
]
