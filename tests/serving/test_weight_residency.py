"""A replica's weight cache reaches two states; the pool prices both.

Every run of a replicated pool touches the same ResBlock weight sets in
the same order, so a per-device LRU over them is either cold (its first
run, or forever when the cacheable blocks do not fit together) or warm
(every block no larger than the cache hits).  ``WorkerPool`` keeps one
warm bit per device instead of walking an LRU.  The property below
replays random membership histories against the per-device LRU walk
the pool used to run, kept here as the oracle.  A pool without a
memory system runs through the same check: it fetches every block over
the Weight Memory port, 64 words a cycle, and has no cache to look up.
"""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    circulant_spec,
    nm_sparse_spec,
    paper_accelerator,
    transformer_base,
)
from repro.memsys import (
    WeightCache,
    contenders_per_channel,
    ddr4_2400,
    default_weight_cache_bytes,
)
from repro.serving.batching import Batch, BatchCostModel
from repro.serving.devices import WorkerPool

#: Transformer-base's 30 dense int8 ResBlock weight sets, in KiB.
DENSE_MODEL_KIB = 43_008

#: Transformer-base, and one encoder layer: its lone MHA block is the
#: only cacheable block in a cache of exactly its size.
MODELS = {
    "base": transformer_base(),
    "one-layer": transformer_base().with_updates(
        num_encoder_layers=1, num_decoder_layers=0
    ),
}

SPECS = {
    "dense": None,
    "circ16": circulant_spec(16),
    "1:4": nm_sparse_spec(1, 4),
}


@cache
def cost_model(model_name, spec_name):
    return BatchCostModel(
        MODELS[model_name], paper_accelerator(),
        compression=SPECS[spec_name],
    )


def edge_capacities(cost):
    """Cache sizes in bytes at which the warm state appears or vanishes."""
    model_bytes = sum(n for _, n in cost.block_units)
    sizes = sorted({n for _, n in cost.block_units})
    return [
        model_bytes - 1, model_bytes, model_bytes + 1,
        DENSE_MODEL_KIB * 1024 - 1, DENSE_MODEL_KIB * 1024,
        DENSE_MODEL_KIB * 1024 + 1, 1_100 * 1024, *sizes,
    ]


class _ReferencePool:
    """The per-device LRU walk: one ``WeightCache`` per device."""

    def __init__(self, pool):
        self.pool = pool
        mem = pool.mem
        self.capacity = None
        if mem is not None and mem.enable_weight_cache:
            self.capacity = (
                int(mem.weight_cache_kib * 1024)
                if mem.weight_cache_kib is not None
                else default_weight_cache_bytes(pool.cost.model, pool.acc)
            )
        self.caches = [self._cache() for _ in pool.devices]

    def _cache(self):
        if self.capacity is None:
            return None
        return WeightCache(self.capacity)

    def add_device(self):
        self.caches.append(self._cache())

    def run(self, device_id):
        """``(cycles, exposed, hits, misses)`` of one run on a device."""
        pool, mem = self.pool, self.pool.mem
        if mem is None:
            exposed = sum(-(-8 * nbytes // (64 * pool.acc.weight_bits))
                          for _, nbytes in pool.cost.block_units)
            return pool.cost.compute_cycles + exposed, exposed, None, None
        contenders = contenders_per_channel(
            max(1, len(pool.active_devices)), mem.shared_channels
        )
        cache = self.caches[device_id]
        exposed = prev_compute = hits = misses = 0
        for block, (compute, nbytes) in enumerate(pool.cost.block_units):
            if cache is not None and cache.access(block, nbytes):
                hits += 1
                fetch = 0
            else:
                misses += 1
                fetch = mem.transfer_cycles(
                    nbytes, pool.acc.clock_mhz, contenders
                )
            if mem.double_buffered_prefetch:
                exposed += max(0, fetch - prev_compute)
            else:
                exposed += fetch
            prev_compute = compute
        return pool.cost.compute_cycles + exposed, exposed, hits, misses


#: One pool operation, dispatches drawn twice as often as each other
#: kind; the int picks a device among the active ones.
pool_ops = st.lists(
    st.one_of(
        st.just(("dispatch", 0)),
        st.just(("dispatch", 0)),
        st.just(("add", 0)),
        st.tuples(st.sampled_from(["drain", "fail"]), st.integers(0, 5)),
    ),
    min_size=1, max_size=24,
)


@st.composite
def memory_configs(draw):
    cost = cost_model(draw(st.sampled_from(sorted(MODELS))),
                      draw(st.sampled_from(sorted(SPECS))))
    capacity = draw(st.sampled_from(
        [None, "disabled", "no memory system", *edge_capacities(cost)]
    ))
    if capacity == "no memory system":
        return cost, None
    mem = ddr4_2400().with_updates(
        double_buffered_prefetch=draw(st.booleans()),
        shared_channels=draw(st.sampled_from([1, 2])),
    )
    if capacity == "disabled":
        mem = mem.with_updates(enable_weight_cache=False)
    elif capacity is not None:
        mem = mem.with_updates(weight_cache_kib=capacity / 1024)
    return cost, mem


class TestMatchesTheLRUWalk:
    @settings(max_examples=150, deadline=None)
    @given(memory_configs(), st.integers(1, 3), pool_ops)
    def test_every_outcome_agrees(self, config, num_devices, ops):
        cost, mem = config
        pool = WorkerPool(num_devices, "replicate", cost, cost.acc, mem=mem)
        ref = _ReferencePool(pool)
        batch = Batch(batch_id=0, requests=(), formed_us=0.0)
        for op, pick in ops:
            active = pool.active_devices
            if op == "add":
                pool.add_device(0.0)
                ref.add_device()
            elif op == "dispatch":
                if not pool.pool_alive:
                    continue
                outcome = pool.dispatch(batch, 0.0)
                (device_id, _, _), = outcome.occupied
                assert (outcome.cycles, outcome.reload_cycles,
                        outcome.hits, outcome.misses) == ref.run(device_id)
            elif active:
                device_id = active[pick % len(active)].device_id
                if op == "drain":
                    pool.drain_device(device_id, 0.0)
                else:
                    pool.fail_device(device_id, 0.0)


class TestTwoStates:
    @pytest.fixture(scope="class")
    def cost(self):
        return cost_model("base", "dense")

    def _runs(self, cost, kib, count=3):
        mem = ddr4_2400().with_updates(weight_cache_kib=kib)
        pool = WorkerPool(1, "replicate", cost, cost.acc, mem=mem)
        batch = Batch(batch_id=0, requests=(), formed_us=0.0)
        return [pool.dispatch(batch, 0.0) for _ in range(count)]

    def test_a_cache_that_holds_the_model_warms_after_one_run(self, cost):
        first, *later = self._runs(cost, DENSE_MODEL_KIB)
        assert (first.hits, first.misses) == (0, 30)
        assert all((o.hits, o.misses, o.reload_cycles) == (30, 0, 0)
                   for o in later)

    def test_one_byte_short_thrashes_forever(self, cost):
        runs = self._runs(cost, (DENSE_MODEL_KIB * 1024 - 1) / 1024)
        assert all((o.hits, o.misses) == (0, 30) for o in runs)
        assert len({o.reload_cycles for o in runs}) == 1

    def test_a_block_the_exact_size_of_the_cache_stays_warm(self):
        cost = cost_model("one-layer", "dense")
        (_, mha_bytes), (_, ffn_bytes) = cost.block_units
        runs = self._runs(cost, mha_bytes / 1024)
        assert mha_bytes < ffn_bytes
        assert [(o.hits, o.misses) for o in runs] == [(0, 2), (1, 1), (1, 1)]
