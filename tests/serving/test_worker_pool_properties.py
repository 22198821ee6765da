"""WorkerPool keeps its active-device list and earliest free time current.

``WorkerPool`` maintains the alive, non-draining devices and their
earliest free time (``free_at_us``) incrementally in ``dispatch`` /
``add_device`` / ``drain_device`` / ``fail_device`` instead of
rebuilding them on every query.  After any random sequence of pool
operations, every query must still equal its definition over the raw
device flags.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import paper_accelerator, transformer_base
from repro.errors import ServingError
from repro.memsys import ddr4_2400
from repro.serving import Batch, BatchCostModel, WorkerPool
from repro.serving.workload import Request

ACC = paper_accelerator()
COST = BatchCostModel(transformer_base(), ACC)


def defined_active(pool):
    return [d for d in pool.devices if d.alive and not d.draining]


def defined_pool_alive(pool):
    if pool.placement == "replicate":
        return bool(defined_active(pool))
    return all(d.alive for d in pool.devices)


def defined_next_free_us(pool):
    if not defined_pool_alive(pool):
        return float("inf")
    if pool.placement == "replicate":
        return min(d.free_at_us for d in defined_active(pool))
    return pool.devices[0].free_at_us


operations = st.lists(
    st.tuples(
        st.sampled_from(["dispatch", "add", "drain", "fail"]),
        st.integers(0, 7),
        st.floats(0.0, 50_000.0),
    ),
    max_size=30,
)


class TestActiveListProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        placement=st.sampled_from(["replicate", "layer_shard"]),
        num_devices=st.integers(1, 4),
        with_memory=st.booleans(),
        ops=operations,
    )
    def test_queries_match_their_definitions(
        self, placement, num_devices, with_memory, ops
    ):
        mem = ddr4_2400() if with_memory else None
        pool = WorkerPool(num_devices, placement, COST, ACC, mem=mem)
        self._check(pool)
        now_us = 0.0
        for step, (op, index, advance) in enumerate(ops):
            now_us += advance
            device = pool.devices[index % pool.num_devices]
            replicate = placement == "replicate"
            if op == "dispatch":
                free_before = defined_next_free_us(pool)
                batch = Batch(step, (Request(step, 0.0, 8),), now_us)
                if not defined_pool_alive(pool):
                    with pytest.raises(ServingError):
                        pool.dispatch(batch, now_us)
                else:
                    outcome = pool.dispatch(batch, now_us)
                    assert outcome.start_us == max(now_us, free_before)
            elif op == "add" and replicate:
                pool.add_device(now_us)
            elif (op == "drain" and replicate and device.alive
                  and not device.draining):
                pool.drain_device(device.device_id, now_us)
            elif op == "fail":
                pool.fail_device(device.device_id, now_us)
            else:
                # add/drain on a layer-sharded pool, or a second drain.
                with pytest.raises(ServingError):
                    if op == "add":
                        pool.add_device(now_us)
                    else:
                        pool.drain_device(device.device_id, now_us)
            self._check(pool)

    @staticmethod
    def _check(pool):
        assert pool.active_devices == defined_active(pool)
        assert pool.pool_alive == defined_pool_alive(pool)
        assert pool.free_at_us == defined_next_free_us(pool)
        assert pool.next_free_us() == pool.free_at_us
        assert pool.device_failures == sum(
            not d.alive for d in pool.devices
        )
