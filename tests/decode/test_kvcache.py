"""KV-cache residency model: capacity edges and conservation laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    AcceleratorConfig,
    DecodeConfig,
    MemoryConfig,
    ModelConfig,
    transformer_base,
)
from repro.decode import (
    KVCacheModel,
    KVLookup,
    default_kv_cache_bytes,
    kv_bytes_per_token,
    simulate_decode,
)
from repro.decode.kvcache import DEFAULT_PAGE_TOKENS
from repro.errors import MemoryModelError
from repro.memsys import WeightCache


def base_model() -> ModelConfig:
    return ModelConfig(
        "base", d_model=512, d_ff=2048, num_heads=8,
        num_encoder_layers=6, num_decoder_layers=6, max_seq_len=64,
    )


def cache_page_bytes() -> int:
    return DEFAULT_PAGE_TOKENS * kv_bytes_per_token(
        base_model(), AcceleratorConfig()
    )


def make_cache(capacity_bytes=None, mem=None):
    return KVCacheModel(
        base_model(), AcceleratorConfig(), capacity_bytes=capacity_bytes,
        mem=mem,
    )


class TestCapacityEdges:
    def test_capacity_of_exactly_one_layer_set(self):
        # The sharpest capacity edge: room for exactly one layer's K/V.
        # One stream looping over two layers then always evicts the
        # other layer's pages — every lookup after the first pass of a
        # layer misses in full.
        cache = make_cache()
        cap = cache.layer_set_bytes(256)
        cache = make_cache(capacity_bytes=cap)
        first = cache.lookup(stream=0, layer=0, context_len=256)
        assert first.misses == first.pages == 4
        # Same layer again: everything resident.
        again = cache.lookup(stream=0, layer=0, context_len=256)
        assert again.hits == again.pages
        # The second layer displaces the first entirely...
        other = cache.lookup(stream=0, layer=1, context_len=256)
        assert other.misses == other.pages
        # ...so revisiting layer 0 misses in full again.
        back = cache.lookup(stream=0, layer=0, context_len=256)
        assert back.misses == back.pages
        assert cache.evictions > 0

    def test_zero_capacity_is_always_refetch(self):
        mem = MemoryConfig(bandwidth_gbps=10.0)
        cache = make_cache(capacity_bytes=0, mem=mem)
        for _ in range(3):
            look = cache.lookup(stream=0, layer=0, context_len=128)
            assert look.hits == 0
            assert look.misses == look.pages
            assert look.refetch_cycles > 0
        assert cache.hit_rate == 0.0
        assert cache.used_bytes == 0
        # populate() is a no-op without capacity.
        cache.populate(stream=0, layer=0, context_len=128)
        assert cache.lookup(0, 0, 128).hits == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(MemoryModelError):
            make_cache(capacity_bytes=-1)

    @pytest.mark.parametrize("capacity", [1, 40_000, 65_535])
    def test_capacity_below_one_page_rejected(self, capacity):
        # A page is 64 tokens x 1,024 K/V bytes = 65,536 bytes; a cache
        # that cannot hold one would silently retain nothing.
        with pytest.raises(MemoryModelError, match="65536 bytes") as info:
            make_cache(capacity_bytes=capacity)
        assert "use 0 to select always-refetch" in str(info.value)

    def test_capacity_of_exactly_one_page(self):
        cache = make_cache(capacity_bytes=cache_page_bytes())
        cache.lookup(stream=0, layer=0, context_len=64)
        assert cache.lookup(stream=0, layer=0, context_len=64).hits == 1

    def test_simulation_refuses_a_sub_page_capacity(self):
        decode = DecodeConfig(num_streams=2, kv_capacity_bytes=40_000)
        with pytest.raises(MemoryModelError, match="always-refetch"):
            simulate_decode(transformer_base(), AcceleratorConfig(), decode)

    def test_default_capacity_holds_a_working_set(self):
        cache = make_cache()  # Table II BRAM budget (~2 MiB at base)
        assert cache.capacity_bytes == default_kv_cache_bytes(
            base_model(), AcceleratorConfig()
        )
        cache.populate(stream=0, layer=0, context_len=256)
        look = cache.lookup(stream=0, layer=0, context_len=256)
        assert look.hits == look.pages


class TestConservation:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(0, 3),      # stream
            st.integers(0, 5),      # layer
            st.integers(1, 512),    # context_len
        ),
        min_size=1, max_size=40,
    ), st.sampled_from([0, 64 * 1024, None]))
    def test_hits_plus_misses_equals_lookups(self, steps, capacity):
        # A live segment's context only grows, as in decode: each step
        # reads at least the context its segment last read.
        cache = make_cache(capacity_bytes=capacity)
        total_pages = 0
        contexts = {}
        for stream, layer, context in steps:
            context = max(context, contexts.get((stream, layer), 0))
            contexts[stream, layer] = context
            look = cache.lookup(stream, layer, context)
            assert look.hits + look.misses == look.pages
            assert look.missed_bytes == look.misses * cache.page_bytes
            total_pages += look.pages
        assert cache.hits + cache.misses == cache.lookups == total_pages

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 512))
    def test_layer_set_bytes_matches_page_math(self, context):
        cache = make_cache()
        pages = -(-context // DEFAULT_PAGE_TOKENS)
        assert cache.layer_set_bytes(context) == pages * cache_page_bytes()


class TestStreamLifecycle:
    def test_populate_seeds_residency_without_stats(self):
        cache = make_cache()
        cache.populate(stream=0, layer=0, context_len=128)
        assert cache.lookups == cache.hits == cache.misses == 0
        look = cache.lookup(stream=0, layer=0, context_len=128)
        assert look.hits == look.pages

    def test_evict_stream_frees_only_that_stream(self):
        cache = make_cache()
        cache.populate(stream=0, layer=0, context_len=128)
        cache.populate(stream=1, layer=0, context_len=128)
        used = cache.used_bytes
        cache.evict_stream(0)
        assert cache.used_bytes == used // 2
        assert cache.lookup(1, 0, 128).hits == 2   # stream 1 intact
        assert cache.lookup(0, 0, 128).misses == 2  # stream 0 gone

    def test_populate_rejects_an_unknown_kind(self):
        # A page seeded under a kind no lookup reads would sit in the
        # budget forever; populate refuses it exactly as lookup does.
        for capacity in (None, 0):
            cache = make_cache(capacity_bytes=capacity)
            with pytest.raises(MemoryModelError, match="is not 'self'"):
                cache.populate(0, 0, 128, kind="bogus")
            assert cache.used_bytes == 0

    def test_refetch_free_without_memory_system(self):
        cache = make_cache(capacity_bytes=0, mem=None)
        look = cache.lookup(0, 0, 256)
        assert look.misses == look.pages
        assert look.refetch_cycles == 0


class TestShrinkingSegmentRefused:
    """A live segment never shrinks: one range per segment stays exact."""

    @pytest.mark.parametrize("capacity", [0, None])
    @pytest.mark.parametrize("op", ["lookup", "populate"])
    def test_fewer_pages_than_held_is_refused(self, capacity, op):
        cache = make_cache(capacity_bytes=capacity)
        cache.populate(stream=3, layer=2, context_len=300, kind="cross")
        cache.lookup(stream=3, layer=2, context_len=310, kind="cross")
        before = (cache.lookups, cache.hits, cache.misses,
                  cache.evictions, cache.used_bytes)
        with pytest.raises(
            MemoryModelError,
            match=r"stream 3 layer 2 cross K/V would shrink from 5 to 4 "
                  r"pages",
        ):
            getattr(cache, op)(3, 2, 256, kind="cross")
        assert (cache.lookups, cache.hits, cache.misses, cache.evictions,
                cache.used_bytes) == before
        # The same page count, another segment, or the stream freed
        # first are all accepted.
        cache.lookup(3, 2, 257, kind="cross")
        cache.lookup(3, 2, 64, kind="self")
        cache.evict_stream(3)
        getattr(cache, op)(3, 2, 64, kind="cross")

    def test_segment_longer_than_the_cache_misses_in_full(self):
        # Five pages through a three-page cache: each touch evicts the
        # front of its own segment before reading it, so nothing hits,
        # and the last three pages stay resident.
        cache = make_cache(capacity_bytes=3 * cache_page_bytes())
        cache.populate(0, 0, 5 * DEFAULT_PAGE_TOKENS)
        look = cache.lookup(0, 0, 5 * DEFAULT_PAGE_TOKENS)
        assert (look.hits, look.misses) == (0, 5)
        assert cache.evictions == 2 + 5
        assert cache.used_bytes == 3 * cache_page_bytes()


class _ReferenceKVCache:
    """The page walk over :class:`WeightCache`, kept as an oracle.

    Every page is its own LRU entry, keyed
    ``s{stream}.l{layer}.{kind}.p{page}``, and a finished stream is
    freed by scanning every resident key for its ``s{stream}.`` prefix.
    Slow, but plainly correct.
    """

    page_tokens = 64

    def __init__(self, model, acc, capacity_bytes, mem):
        self.acc, self.mem = acc, mem
        self.page_bytes = self.page_tokens * kv_bytes_per_token(model, acc)
        self.hits = self.misses = 0
        self.lru = WeightCache(capacity_bytes) if capacity_bytes else None

    @property
    def evictions(self):
        return self.lru.evictions if self.lru is not None else 0

    @property
    def used_bytes(self):
        return (sum(self.lru._entries.values())
                if self.lru is not None else 0)

    def lookup(self, stream, layer, context_len, kind="self"):
        pages = -(-context_len // self.page_tokens)
        hits = 0
        if self.lru is not None:
            for page in range(pages):
                key = f"s{stream}.l{layer}.{kind}.p{page}"
                if self.lru.access(key, self.page_bytes):
                    hits += 1
        misses = pages - hits
        self.hits += hits
        self.misses += misses
        missed = misses * self.page_bytes
        refetch = (
            0 if missed == 0 or self.mem is None
            else self.mem.transfer_cycles(missed, self.acc.clock_mhz)
        )
        return KVLookup(pages, hits, misses, missed, refetch)

    def populate(self, stream, layer, context_len, kind="self"):
        if self.lru is None:
            return
        for page in range(-(-context_len // self.page_tokens)):
            self.lru.access(f"s{stream}.l{layer}.{kind}.p{page}",
                            self.page_bytes)

    def evict_stream(self, stream):
        if self.lru is None:
            return
        prefix = f"s{stream}."
        for key in [k for k in self.lru if k.startswith(prefix)]:
            self.lru.remove(key)


#: Context lengths at a page edge: 64k - 1, 64k and 64k + 1 tokens.
page_edges = st.integers(1, 11).flatmap(
    lambda k: st.sampled_from([64 * k - 1, 64 * k, 64 * k + 1])
)

#: Streams 1, 10 and 11 share string prefixes ("s1" / "s10" / "s11"):
#: freeing one must never free another.
kv_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["lookup", "populate"]),
            st.sampled_from([0, 1, 10, 11]),    # stream
            st.integers(0, 2),                  # layer
            st.one_of(st.integers(1, 700), page_edges),  # context_len
            st.sampled_from(["self", "cross"]),
        ),
        st.tuples(st.just("evict"), st.sampled_from([0, 1, 10, 11])),
    ),
    max_size=50,
)

PAGE = cache_page_bytes()


class TestMatchesStringKeyedReference:
    @settings(max_examples=300, deadline=None)
    @given(kv_ops, st.sampled_from([0, PAGE, 3 * PAGE, 10 * PAGE, None]))
    def test_every_operation_agrees(self, ops, capacity):
        mem = MemoryConfig(bandwidth_gbps=10.0)
        cache = make_cache(capacity_bytes=capacity, mem=mem)
        ref = _ReferenceKVCache(
            base_model(), AcceleratorConfig(), cache.capacity_bytes, mem
        )
        held = {}
        for op in ops:
            if op[0] == "evict":
                cache.evict_stream(op[1])
                ref.evict_stream(op[1])
                held = {k: v for k, v in held.items() if k[0] != op[1]}
            else:
                name, stream, layer, context, kind = op
                segment = (stream, layer, kind)
                pages = -(-context // DEFAULT_PAGE_TOKENS)
                if pages < held.get(segment, 0):
                    # It would split the segment's run: refused,
                    # changing nothing, and the page walk skips it.
                    with pytest.raises(MemoryModelError, match="shrink"):
                        getattr(cache, name)(*op[1:])
                elif name == "lookup":
                    held[segment] = pages
                    assert cache.lookup(*op[1:]) == ref.lookup(*op[1:])
                else:
                    held[segment] = pages
                    cache.populate(*op[1:])
                    ref.populate(*op[1:])
            assert (cache.hits, cache.misses, cache.evictions,
                    cache.used_bytes) == (ref.hits, ref.misses,
                                          ref.evictions, ref.used_bytes)
