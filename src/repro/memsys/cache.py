"""An LRU over sized blocks, and the Table II weight-memory budget.

:class:`WeightCache` keeps whole blocks (a hashable key and a byte
size) in LRU order.  No simulator walks it.  Serving replicas need no
LRU: every run touches the same ResBlock weight sets in the same
order, so a replica's weight cache is either cold or warm, and
:class:`~repro.serving.devices.WorkerPool` prices both states from a
capacity that defaults to the Table II BRAM budget the paper
synthesizes (:func:`default_weight_cache_bytes`).  Decode's K/V pages
do need an LRU, but :mod:`repro.decode.kvcache` keeps one entry per
segment of pages, not per page.  This page-granular walk remains as
the K/V tests' oracle and a profiling hook of the repo benchmark.

A block larger than the whole cache counts as a miss and is *not*
inserted (it would only evict everything for nothing — the hardware
streams it through the double-buffered banks instead).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable

from ..config import AcceleratorConfig, ModelConfig
from ..errors import MemoryModelError

# Imported as a submodule path on purpose: this module loads while
# repro.core's own __init__ may still be executing (the scheduler pulls
# in repro.memsys), so it must not depend on repro.core's re-exports.
from ..core.memory import BRAM36_BITS
from ..core.resource_model import estimate_weight_memory


def default_weight_cache_bytes(
    model: ModelConfig, acc: AcceleratorConfig
) -> int:
    """Cache capacity implied by the Table II weight-memory BRAM budget.

    The synthesized Weight Memory holds the largest layer's weights
    (456 BRAM36 banks for Transformer-base); that same storage is what
    a device can keep warm across batches.
    """
    banks = estimate_weight_memory(model, acc).bram
    return int(banks * BRAM36_BITS) // 8


class WeightCache:
    """LRU cache of sized blocks under a byte capacity.

    Any hashable key works: the K/V tests key pages by strings and
    check :class:`~repro.decode.kvcache.KVCacheModel` against this walk.

    ``used_bytes`` is a running counter, kept current on insert, on
    each LRU eviction and in :meth:`remove`, so every access is O(1).
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise MemoryModelError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.evictions = 0
        self.used_bytes = 0
        self._entries: "OrderedDict[Hashable, int]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: Hashable) -> bool:
        return block in self._entries

    def __iter__(self):
        """Resident block names, least-recently-used first."""
        return iter(self._entries)

    def access(self, block: Hashable, num_bytes: int) -> bool:
        """Touch ``block``; return True on a hit, else insert (LRU).

        A miss evicts least-recently-used blocks until the new one
        fits; blocks larger than the whole cache are never inserted.
        """
        if num_bytes <= 0:
            raise MemoryModelError(
                f"block {block!r} has non-positive size {num_bytes}"
            )
        if block in self._entries:
            self._entries.move_to_end(block)
            return True
        if num_bytes <= self.capacity_bytes:
            while self.used_bytes + num_bytes > self.capacity_bytes:
                self.used_bytes -= self._entries.popitem(last=False)[1]
                self.evictions += 1
            self._entries[block] = num_bytes
            self.used_bytes += num_bytes
        return False

    def remove(self, block: Hashable) -> bool:
        """Drop ``block`` without counting an eviction (owner freed it).

        Returns True if the block was resident.  Capacity-pressure
        evictions stay in :attr:`evictions`; explicit removal is the
        owner releasing storage (e.g. a finished decode stream's KV
        pages), not the cache running out of room.
        """
        num_bytes = self._entries.pop(block, 0)
        self.used_bytes -= num_bytes
        return num_bytes > 0
