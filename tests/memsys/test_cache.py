"""WeightCache LRU behavior and the Table II default capacity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_accelerator, transformer_base
from repro.errors import MemoryModelError
from repro.memsys import WeightCache, default_weight_cache_bytes


class TestWeightCache:
    def test_miss_then_hit(self):
        cache = WeightCache(100)
        assert not cache.access("a", 40)
        assert cache.access("a", 40)
        assert "a" in cache and len(cache) == 1
        assert cache.used_bytes == 40

    def test_lru_eviction_order(self):
        cache = WeightCache(100)
        cache.access("a", 40)
        cache.access("b", 40)
        cache.access("a", 40)  # refresh a; b is now LRU
        cache.access("c", 40)  # evicts b only
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_eviction_frees_enough_for_large_block(self):
        cache = WeightCache(100)
        cache.access("a", 40)
        cache.access("b", 40)
        cache.access("big", 90)  # needs both slots gone
        assert len(cache) == 1 and "big" in cache
        assert cache.evictions == 2

    def test_oversized_block_never_inserted(self):
        cache = WeightCache(100)
        cache.access("a", 40)
        assert not cache.access("huge", 101)
        # The resident entry survived and the giant one was not kept.
        assert "a" in cache and "huge" not in cache
        assert cache.evictions == 0
        assert not cache.access("huge", 101)

    def test_rejects_bad_sizes(self):
        with pytest.raises(MemoryModelError):
            WeightCache(0)
        with pytest.raises(MemoryModelError):
            WeightCache(100).access("a", 0)


    def test_remove_frees_bytes_without_an_eviction(self):
        cache = WeightCache(100)
        cache.access("a", 40)
        cache.access("b", 30)
        assert cache.remove("a")
        assert not cache.remove("a")
        assert cache.used_bytes == 30 and cache.evictions == 0


#: One cache operation: ``("access", block, size)`` or ``("remove",
#: block, None)``.  Sizes reach past the 100-byte capacity.
cache_ops = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.sampled_from("abcdef"),
                  st.integers(1, 150)),
        st.tuples(st.just("remove"), st.sampled_from("abcdef"),
                  st.none()),
    ),
    max_size=60,
)


class TestUsedBytesCounter:
    @settings(max_examples=200, deadline=None)
    @given(cache_ops)
    def test_counter_matches_resident_sizes(self, ops):
        cache = WeightCache(100)
        sizes: dict[str, int] = {}
        for op, block, size in ops:
            if op == "access":
                if not cache.access(block, size) and size <= 100:
                    sizes[block] = size
            else:
                cache.remove(block)
            sizes = {b: n for b, n in sizes.items() if b in cache}
            assert set(sizes) == set(cache)
            assert cache.used_bytes == sum(sizes.values())
            assert cache.used_bytes <= cache.capacity_bytes


class TestDefaultCapacity:
    def test_matches_table2_weight_memory_budget(self):
        model, acc = transformer_base(), paper_accelerator()
        capacity = default_weight_cache_bytes(model, acc)
        # 456 BRAM36 banks at the paper point -> ~2 MiB of weights.
        assert capacity == 456 * 36 * 1024 // 8

    def test_default_holds_one_mha_weight_set(self):
        model, acc = transformer_base(), paper_accelerator()
        capacity = default_weight_cache_bytes(model, acc)
        mha_bytes = 4 * model.d_model * model.d_model * acc.weight_bits // 8
        assert capacity >= mha_bytes
