"""KV-cache residency model, priced through :mod:`repro.memsys`.

Autoregressive decode re-reads every past token's K and V rows each
step.  On this accelerator those rows live in the same BRAM pool the
Table II budget sizes (:func:`default_kv_cache_bytes` reuses the
Weight-Memory estimate — the decode datapath repurposes the idle weight
banks, since cached K/V *are* the weights of the ``q K^T`` and ``p V``
passes).  What doesn't fit on chip is refetched over the off-chip link
at :meth:`~repro.config.MemoryConfig.transfer_cycles` prices.

Residency is tracked per 64-token *page* (one SA pass worth of K or V
rows) as an exact run-length LRU.  Every page has one size, so the
budget holds a whole number of pages.  A decode step or prefill reads
pages ``0..n-1`` of one *segment* ``(stream, layer, kind)`` in order,
so afterwards those pages are the most recent, in page order; evictions
take the oldest pages first.  Each segment's resident pages therefore
stay one range ``[first, end)`` lying in one piece in LRU order, and
the LRU is an ordered map from segment to range, oldest first: a touch
costs one entry plus the runs it trims, not one entry per page.  Only a
touch with fewer pages than its segment already holds could split a
range; decode never issues one (a live stream's context only grows),
so it is refused.  Each stream keeps the set of its segments, so
freeing a finished stream touches only its own runs.

A zero-capacity cache is the always-refetch mode: every lookup misses
in full and nothing is retained — the upper bound a host-DRAM-resident
KV cache would pay.  Any other capacity must hold at least one page; a
smaller one would retain nothing just the same, so it is refused rather
than run as a silent always-refetch.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..config import AcceleratorConfig, MemoryConfig, ModelConfig
from ..errors import MemoryModelError
from ..memsys.cache import default_weight_cache_bytes

__all__ = [
    "KVCacheModel",
    "KVLookup",
    "default_kv_cache_bytes",
    "kv_bytes_per_token",
]

#: Tokens per residency page — one zero-padded SA pass worth of rows.
DEFAULT_PAGE_TOKENS = 64

#: Attention kind -> the int that stands for it in a segment key.
_KINDS = {"self": 0, "cross": 1}


def kv_bytes_per_token(model: ModelConfig, acc: AcceleratorConfig) -> int:
    """Bytes of one token's K and V rows across all heads (one layer)."""
    return 2 * model.d_model * acc.act_bits // 8


def default_kv_cache_bytes(
    model: ModelConfig, acc: AcceleratorConfig
) -> int:
    """KV capacity implied by the Table II BRAM budget (456 banks)."""
    return default_weight_cache_bytes(model, acc)


@dataclass(frozen=True)
class KVLookup:
    """Outcome of one decode step's K/V residency check.

    Attributes:
        pages: Pages the step touched (``ceil(context_len / 64)``).
        hits / misses: Page-granular outcome split
            (``hits + misses == pages`` always — the conservation law
            the telemetry tests pin).
        missed_bytes: Off-chip bytes behind the misses.
        refetch_cycles: Link cycles to re-read them (0 with unlimited
            memory — residency still tracked, refetch free).
    """

    pages: int
    hits: int
    misses: int
    missed_bytes: int
    refetch_cycles: int


class KVCacheModel:
    """Page-granular LRU residency of per-layer K/V in the BRAM budget.

    Args:
        model / acc: Shapes and word widths (page size in bytes).
        capacity_bytes: On-chip budget; ``None`` uses the Table II
            default, ``0`` selects always-refetch mode, and any other
            value must be at least one page.
        mem: Off-chip link pricing misses; ``None``/unlimited makes
            refetch free while still tracking residency.
    """

    def __init__(
        self,
        model: ModelConfig,
        acc: AcceleratorConfig,
        capacity_bytes: Optional[int] = None,
        mem: Optional[MemoryConfig] = None,
    ) -> None:
        self.page_bytes = DEFAULT_PAGE_TOKENS * kv_bytes_per_token(model, acc)
        if capacity_bytes is None:
            capacity_bytes = default_kv_cache_bytes(model, acc)
        if capacity_bytes < 0:
            raise MemoryModelError("capacity_bytes must be non-negative")
        if 0 < capacity_bytes < self.page_bytes:
            raise MemoryModelError(
                f"capacity_bytes={capacity_bytes} holds no "
                f"{DEFAULT_PAGE_TOKENS}-token K/V page of "
                f"{self.page_bytes} bytes; use 0 to select always-refetch"
            )
        self.model = model
        self.acc = acc
        self.mem = mem
        # The refetch link, or None when refetch is free (no memory
        # system, or an unlimited one): decided once, not per lookup.
        self._link = None if mem is None or mem.is_unlimited else mem
        self.capacity_bytes = int(capacity_bytes)
        self._capacity_pages = self.capacity_bytes // self.page_bytes
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._used_pages = 0
        # Segment -> its resident page range (first, end), oldest first.
        self._runs: OrderedDict[tuple[int, int, int], tuple[int, int]] = (
            OrderedDict()
        )
        # Live stream -> page count of each segment it touched.
        self._streams: dict[int, dict[tuple[int, int, int], int]] = {}
        # Refetch prices by missed bytes: a handful of page multiples.
        self._refetch_memo: dict[int, int] = {}

    @property
    def used_bytes(self) -> int:
        return self._used_pages * self.page_bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def layer_set_bytes(self, context_len: int) -> int:
        """On-chip bytes of one layer's full K/V set at ``context_len``."""
        if context_len <= 0:
            raise MemoryModelError("context_len must be positive")
        pages = -(-context_len // DEFAULT_PAGE_TOKENS)
        return pages * self.page_bytes

    def _refetch_cycles(self, missed_bytes: int) -> int:
        if missed_bytes == 0 or self._link is None:
            return 0
        cycles = self._refetch_memo.get(missed_bytes)
        if cycles is None:
            cycles = self._link.transfer_cycles(missed_bytes,
                                                self.acc.clock_mhz)
            self._refetch_memo[missed_bytes] = cycles
        return cycles

    def _segment(self, stream: int, layer: int, context_len: int,
                 kind: str) -> tuple[tuple[int, int, int], int]:
        """Validate a lookup or populate; return its segment and pages."""
        if kind not in _KINDS:
            raise MemoryModelError(
                f"kind {kind!r} is not 'self' or 'cross'"
            )
        if context_len <= 0:
            raise MemoryModelError("context_len must be positive")
        pages = -(-context_len // DEFAULT_PAGE_TOKENS)
        segment = (stream, layer, _KINDS[kind])
        counts = self._streams.setdefault(stream, {})
        if pages < counts.get(segment, 0):
            raise MemoryModelError(
                f"stream {stream} layer {layer} {kind} K/V would shrink "
                f"from {counts[segment]} to {pages} pages; a live "
                f"stream's context only grows"
            )
        counts[segment] = pages
        return segment, pages

    def _touch(self, segment: tuple[int, int, int], pages: int) -> int:
        """Access pages ``0..pages-1`` oldest-first; return the hits."""
        runs = self._runs
        cap = self._capacity_pages
        used = self._used_pages
        held = hits = 0
        run = runs.get(segment)
        if run is not None:
            first, end = run
            held = end - first
            # Trims take the oldest pages and a segment longer than the
            # cache fills it alone, so only the oldest run can start
            # past page 0.  Its touch misses pages 0..first-1 first; if
            # those overflow the cache they evict into the run, each of
            # its pages just before it is read, and nothing hits.
            hits = held if used + first <= cap else 0
            runs.move_to_end(segment)
        misses = pages - hits
        kept = min(pages, cap)
        used_after = min(cap, used + misses)
        self.evictions += used + misses - used_after
        # Trim the other segments from the oldest end down to what
        # still fits beside this segment's last ``kept`` pages.
        trim = used - held - (used_after - kept)
        while trim > 0:
            key, (older_first, older_end) = next(iter(runs.items()))
            if older_end - older_first > trim:
                runs[key] = (older_first + trim, older_end)
                break
            del runs[key]
            trim -= older_end - older_first
        runs[segment] = (pages - kept, pages)
        self._used_pages = used_after
        return hits

    def lookup(
        self,
        stream: int,
        layer: int,
        context_len: int,
        kind: str = "self",
    ) -> KVLookup:
        """Touch every K/V page one decode step at ``context_len`` reads.

        Pages are touched oldest-first (the order the ``q K^T`` chunk
        passes consume them), so under pressure the LRU keeps the tail
        of the context — the pages the *next* step reads last.

        A live segment never shrinks: a ``context_len`` with fewer
        pages than an earlier lookup or populate of the same stream,
        layer and kind raises :class:`MemoryModelError` (at every
        capacity, 0 included) and changes nothing.  Freeing the stream
        with :meth:`evict_stream` resets it.
        """
        segment, pages = self._segment(stream, layer, context_len, kind)
        hits = self._touch(segment, pages) if self._capacity_pages else 0
        misses = pages - hits
        self.lookups += pages
        self.hits += hits
        self.misses += misses
        missed_bytes = misses * self.page_bytes
        return KVLookup(
            pages=pages,
            hits=hits,
            misses=misses,
            missed_bytes=missed_bytes,
            refetch_cycles=self._refetch_cycles(missed_bytes),
        )

    def populate(
        self, stream: int, layer: int, context_len: int, kind: str = "self"
    ) -> None:
        """Insert a prefill's K/V pages without counting lookups.

        Prefill *produces* the pages (writes), so residency is seeded
        but the hit/miss statistics — which describe decode-step
        *reads* — are left untouched.  Arguments are checked as in
        :meth:`lookup`, the never-shrink rule included; otherwise a
        no-op in zero-capacity mode.
        """
        segment, pages = self._segment(stream, layer, context_len, kind)
        if self._capacity_pages:
            self._touch(segment, pages)

    def evict_stream(self, stream: int) -> None:
        """Drop a finished stream's pages (frees capacity immediately).

        Freed pages are the owner releasing storage, not the cache
        running out of room, so they are not counted as evictions.
        """
        for segment in self._streams.pop(stream, ()):
            run = self._runs.pop(segment, None)
            if run is not None:
                self._used_pages -= run[1] - run[0]
