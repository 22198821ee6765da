"""Dynamic-batcher and cost-model tests: geometry, policy, cycle costs."""

import pytest

from repro.config import (
    AcceleratorConfig,
    ServingConfig,
    paper_accelerator,
    transformer_base,
)
from repro.core import schedule_ffn, schedule_mha
from repro.errors import ServingError
from repro.serving import (
    AdmissionQueue,
    BatchCostModel,
    DynamicBatcher,
    Request,
    WorkerPool,
)


def _queue_with(lengths, arrival=0.0):
    queue = AdmissionQueue(capacity=64)
    for i, length in enumerate(lengths):
        queue.offer(Request(i, arrival, length), arrival)
    return queue


class TestGeometryPacking:
    def test_packs_until_sa_rows_full(self):
        # 30 + 30 fits s=64; the third 30-token request does not.
        queue = _queue_with([30, 30, 30])
        batcher = DynamicBatcher(64, max_requests=8, max_wait_us=1e9)
        batch = batcher.try_form(queue, now_us=0.0)
        assert batch is not None           # geometry-full cut
        assert [r.req_id for r in batch.requests] == [0, 1]
        assert batch.total_tokens == 60
        assert batch.padding_rows(64) == 4
        assert batch.occupancy(64) == pytest.approx(60 / 64)

    def test_count_cap_cuts(self):
        queue = _queue_with([8, 8, 8, 8])
        batcher = DynamicBatcher(64, max_requests=2, max_wait_us=1e9)
        batch = batcher.try_form(queue, now_us=0.0)
        assert batch.num_requests == 2

    def test_holds_for_more_arrivals(self):
        queue = _queue_with([8, 8])
        batcher = DynamicBatcher(64, max_requests=8, max_wait_us=1e9)
        assert batcher.try_form(queue, now_us=1.0) is None
        assert len(queue) == 2             # nothing consumed

    def test_max_wait_cuts_partial_batch(self):
        queue = _queue_with([8], arrival=0.0)
        batcher = DynamicBatcher(64, max_requests=8, max_wait_us=100.0)
        assert batcher.try_form(queue, now_us=50.0) is None
        batch = batcher.try_form(queue, now_us=100.0)
        assert batch is not None and batch.num_requests == 1

    def test_force_flushes(self):
        queue = _queue_with([8])
        batcher = DynamicBatcher(64, max_requests=8, max_wait_us=1e9)
        assert batcher.try_form(queue, 0.0, force=True).num_requests == 1

    def test_batch1_policy_always_cuts(self):
        queue = _queue_with([8, 8])
        batcher = DynamicBatcher(64, max_requests=1, max_wait_us=1e9)
        assert batcher.try_form(queue, 0.0).num_requests == 1

    def test_oversized_head_raises(self):
        queue = _queue_with([65])
        batcher = DynamicBatcher(64, max_requests=8, max_wait_us=0.0)
        with pytest.raises(ServingError):
            batcher.try_form(queue, 0.0)

    def test_deadline(self):
        queue = _queue_with([8], arrival=10.0)
        batcher = DynamicBatcher(64, max_requests=8, max_wait_us=100.0)
        assert batcher.next_deadline_us(queue) == 110.0
        assert batcher.next_deadline_us(_queue_with([])) == float("inf")


class TestBatchCostModel:
    def test_run_cycles_match_schedules(self):
        model, acc = transformer_base(), paper_accelerator()
        cost = BatchCostModel(model, acc)
        mha = schedule_mha(model, acc).total_cycles
        ffn = schedule_ffn(model, acc).total_cycles
        layers = (model.num_encoder_layers * (mha + ffn)
                  + model.num_decoder_layers * (2 * mha + ffn))
        assert cost.compute_cycles == layers
        assert sum(c for c, _ in cost.block_units) == layers

    def test_stage_partition_conserves_cycles(self):
        cost = BatchCostModel(transformer_base(), paper_accelerator())
        for stages in (1, 2, 3, 4, 6, 12):
            assert sum(cost.stage_cycles(stages)) == cost.compute_cycles

    def test_cost_independent_of_batch_contents(self):
        # The SA always runs its full s rows: one run costs the same
        # whether it carries 1 request or 8 — the entire batching win.
        cost = BatchCostModel(transformer_base(), paper_accelerator())
        pool = WorkerPool(2, "replicate", cost, cost.acc)
        batcher = DynamicBatcher(64, max_requests=8, max_wait_us=0.0)
        batches = [batcher.try_form(_queue_with([8] * n), 0.0)
                   for n in (1, 8)]
        assert [b.num_requests for b in batches] == [1, 8]
        one, eight = (pool.dispatch(b, 0.0) for b in batches)
        assert one.cycles == eight.cycles

    def test_seq_len_raises_cost(self):
        model = transformer_base()
        small = BatchCostModel(model, AcceleratorConfig(seq_len=32))
        big = BatchCostModel(model, AcceleratorConfig(seq_len=64))
        assert big.compute_cycles > small.compute_cycles


class TestServingConfigValidation:
    def test_defaults_valid(self):
        ServingConfig()

    @pytest.mark.parametrize("overrides", [
        {"arrival_rate_rps": 0.0},
        {"num_requests": 0},
        {"max_retries": -1},
        {"min_len": 0},
        {"min_len": 20, "max_len": 10},
        {"queue_capacity": 0},
        {"queue_timeout_us": 0.0},
        {"max_batch_requests": 0},
        {"max_wait_us": -1.0},
        {"num_devices": 0},
        {"placement": "mesh"},
    ])
    def test_rejects_bad_values(self, overrides):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ServingConfig(**overrides)

    def test_with_updates(self):
        serving = ServingConfig().with_updates(max_batch_requests=3)
        assert serving.max_batch_requests == 3
