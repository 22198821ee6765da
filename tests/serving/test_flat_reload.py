"""A pool without a memory system fetches over the Weight Memory port.

Its link is the port, one SA row of words per cycle, and its cache
never holds a block: every replicated run fetches each ResBlock's
weights from the block's own (possibly compressed) bytes, cold and warm
alike, and counts no cache lookups.
"""

import pytest

from repro.config import (
    TABLE1_PRESETS,
    circulant_spec,
    nm_sparse_spec,
    paper_accelerator,
    transformer_base,
)
from repro.serving.batching import Batch, BatchCostModel
from repro.serving.devices import WorkerPool

BATCH = Batch(batch_id=0, requests=(), formed_us=0.0)


def dense_word_reload_cycles(model):
    """The dense-word flat reload the pool charged before it priced
    each block from its bytes: ``W_Q/W_K/W_V/W_G`` per MHA ResBlock and
    ``W_1``/``W_2`` per FFN ResBlock, 64 words per cycle."""
    mha = -(-4 * model.d_model * model.d_model // 64)
    ffn = -(-2 * model.d_model * model.d_ff // 64)
    return (model.num_encoder_layers * (mha + ffn)
            + model.num_decoder_layers * (2 * mha + ffn))


def flat_runs(model, acc, compression=None, count=2):
    cost = BatchCostModel(model, acc, compression=compression)
    pool = WorkerPool(1, "replicate", cost, acc)
    return cost, [pool.dispatch(BATCH, 0.0) for _ in range(count)]


class TestDenseKeepsItsPrice:
    @pytest.mark.parametrize("weight_bits", [4, 8, 16])
    @pytest.mark.parametrize("name", sorted(TABLE1_PRESETS))
    def test_equals_the_dense_word_count(self, name, weight_bits):
        model = TABLE1_PRESETS[name]
        acc = paper_accelerator().with_updates(weight_bits=weight_bits)
        cost, runs = flat_runs(model, acc)
        for outcome in runs:
            assert outcome.reload_cycles == dense_word_reload_cycles(model)
            assert outcome.cycles == (
                cost.compute_cycles + outcome.reload_cycles
            )


class TestCompressionShrinksTheFetch:
    @pytest.mark.parametrize(("spec", "reload_cycles"), [
        (None, 688_128),
        (circulant_spec(16), 43_008),
        (nm_sparse_spec(1, 4), 172_704),
    ], ids=["dense", "circ16", "1:4"])
    def test_transformer_base_reload(self, spec, reload_cycles):
        _, runs = flat_runs(transformer_base(), paper_accelerator(), spec)
        assert [o.reload_cycles for o in runs] == [reload_cycles] * 2


class TestNoCache:
    def test_cold_and_warm_price_alike_and_count_no_lookups(self):
        _, runs = flat_runs(transformer_base(), paper_accelerator(),
                            count=3)
        assert len({(o.cycles, o.reload_cycles) for o in runs}) == 1
        assert all((o.hits, o.misses) == (None, None) for o in runs)

    def test_replicas_do_not_contend_for_the_port(self):
        cost = BatchCostModel(transformer_base(), paper_accelerator())
        alone = WorkerPool(1, "replicate", cost, cost.acc)
        crowd = WorkerPool(3, "replicate", cost, cost.acc)
        crowd.add_device(0.0)
        assert (crowd.dispatch(BATCH, 0.0).reload_cycles
                == alone.dispatch(BATCH, 0.0).reload_cycles)
