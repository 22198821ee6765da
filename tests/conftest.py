"""Shared fixtures: tiny configs, a trained toy model, calibrated quant model.

Expensive artifacts (the trained synthetic-NMT model) are session-scoped so
the whole suite pays for training once.
"""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np
import pytest

from repro.config import AcceleratorConfig, ModelConfig
from repro.nmt import SyntheticTranslationTask, train_model
from repro.quant import QuantizedTransformer
from repro.transformer import Transformer


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_model_config() -> ModelConfig:
    """One 64-wide head, one layer each — fastest valid config."""
    return ModelConfig(
        "tiny", d_model=64, d_ff=256, num_heads=1,
        num_encoder_layers=1, num_decoder_layers=1,
        max_seq_len=16, dropout=0.0,
    )


@pytest.fixture
def small_model_config() -> ModelConfig:
    """Two 64-wide heads — exercises head partitioning."""
    return ModelConfig(
        "small", d_model=128, d_ff=512, num_heads=2,
        num_encoder_layers=1, num_decoder_layers=1,
        max_seq_len=16, dropout=0.0,
    )


@pytest.fixture
def small_acc_config() -> AcceleratorConfig:
    return AcceleratorConfig(seq_len=12)


@pytest.fixture
def small_transformer(small_model_config, rng) -> Transformer:
    return Transformer(small_model_config, src_vocab_size=30,
                       tgt_vocab_size=30, rng=rng).eval()


@pytest.fixture
def calibrated_quant(small_transformer, rng):
    """A calibrated QuantizedTransformer over the small random model."""
    qt = QuantizedTransformer(small_transformer)
    src = rng.integers(1, 30, size=(2, 12))
    tgt = rng.integers(1, 30, size=(2, 12))
    qt.calibrate([(src, tgt, np.array([12, 9]))])
    return qt


@pytest.fixture(scope="session")
def counted_run():
    """``counted_run(run, *args)`` -> ``(run(*args), pops by event kind)``.

    The event kernel under every simulator pops its heap once per
    simulated event, and an event's kind is its second field.  Session-scoped so
    hypothesis tests may use it.
    """
    def run_counted(run, *args):
        kinds: Counter = Counter()
        pop = heapq.heappop

        def counting_pop(heap):
            event = pop(heap)
            kinds[event[1]] += 1
            return event

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heapq, "heappop", counting_pop)
            result = run(*args)
        return result, kinds

    return run_counted


@pytest.fixture(scope="session")
def nmt_task() -> SyntheticTranslationTask:
    return SyntheticTranslationTask(num_words=16, min_len=3, max_len=7)


@pytest.fixture(scope="session")
def trained_nmt(nmt_task):
    """A small Transformer trained on the synthetic task (session cached).

    Trained just enough to beat chance decisively — the quantization tests
    compare relative BLEU, not absolute mastery.
    """
    rng = np.random.default_rng(7)
    config = ModelConfig(
        "nmt-test", d_model=64, d_ff=256, num_heads=1,
        num_encoder_layers=1, num_decoder_layers=1,
        max_seq_len=16, dropout=0.0,
    )
    model = Transformer(
        config, len(nmt_task.src_vocab), len(nmt_task.tgt_vocab), rng=rng
    )
    train, _, test = nmt_task.splits(train=1200, valid=40, test=60, seed=11)
    train_model(model, nmt_task, train, epochs=20, batch_size=32,
                warmup=200, lr_factor=2.0, seed=5)
    return model, nmt_task, test
