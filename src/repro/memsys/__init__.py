"""Off-chip memory system: bandwidth, weight prefetch, residency.

The paper's accelerator keeps every weight tile on-chip; this package
models what it costs to get them there over a DDR/AXI link:

* :class:`~repro.config.MemoryConfig` presets and
  :func:`contenders_per_channel` — the link itself (GB/s, burst
  efficiency, per-transfer latency, channel sharing);
* :class:`TilePrefetcher` — double-buffered 64-column weight-tile
  prefetch used by the core scheduler and the analytic cycle model;
* :class:`WeightCache` — LRU over sized blocks, the page walk decode's
  run-length K/V cache is tested against;
  :func:`default_weight_cache_bytes` — the Table II BRAM budget that
  sizes a serving replica's cold-or-warm weight cache;
* :func:`analyze_memory_system` / :class:`MemorySystemReport` — stall
  shares, the accelerator-side roofline ceiling, and the
  compute/memory-bound crossover bandwidth.

``report`` is loaded lazily: it depends on :mod:`repro.core`, which
itself imports this package (the scheduler uses the prefetcher), so an
eager import here would be circular.
"""

from ..config import MemoryConfig
from .bandwidth import (
    MEMORY_PRESETS,
    contenders_per_channel,
    ddr4_2400,
    ddr4_3200,
    hbm2_pc,
    lpddr4_2133,
    memory_preset,
    unlimited,
)
from .cache import WeightCache, default_weight_cache_bytes
from .prefetch import PrefetchEvent, TilePrefetcher

_REPORT_EXPORTS = (
    "BlockMemoryStats",
    "MemorySystemReport",
    "analyze_memory_system",
    "steady_state_crossover_gbps",
)

__all__ = [
    "MEMORY_PRESETS",
    "MemoryConfig",
    "PrefetchEvent",
    "TilePrefetcher",
    "WeightCache",
    "contenders_per_channel",
    "ddr4_2400",
    "ddr4_3200",
    "default_weight_cache_bytes",
    "hbm2_pc",
    "lpddr4_2133",
    "memory_preset",
    "unlimited",
    *_REPORT_EXPORTS,
]


def __getattr__(name: str):
    if name in _REPORT_EXPORTS:
        from . import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
