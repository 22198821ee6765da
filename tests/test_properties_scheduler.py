"""Hypothesis fuzzing of the scheduler/analytic-model agreement.

The closed-form cycle model must equal the event-timeline scheduler for
*every* configuration, not just the paper's point — this suite drives the
equivalence across randomized models and accelerator knobs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AcceleratorConfig, ModelConfig
from repro.core import (
    ffn_cycle_breakdown,
    mha_cycle_breakdown,
    pass_busy_cycles,
    schedule_ffn,
    schedule_mha,
)

model_configs = st.builds(
    lambda h, enc, dec, ff_mult: ModelConfig(
        "fuzz", d_model=64 * h, d_ff=64 * h * ff_mult, num_heads=h,
        num_encoder_layers=enc, num_decoder_layers=dec, max_seq_len=64,
    ),
    h=st.integers(1, 16),
    enc=st.integers(1, 6),
    dec=st.integers(0, 6),
    ff_mult=st.integers(1, 8),
)

acc_configs = st.builds(
    AcceleratorConfig,
    seq_len=st.sampled_from([8, 16, 32, 64, 128]),
    sa_cols=st.just(64),
    clock_mhz=st.sampled_from([100.0, 200.0, 300.0]),
    sa_drain_cycles=st.integers(0, 32),
    weight_load_cycles=st.integers(0, 64),
    pass_issue_cycles=st.integers(0, 8),
    softmax_pipeline_depth=st.integers(0, 64),
    layernorm_pipeline_depth=st.integers(0, 64),
    layernorm_mode=st.sampled_from(
        ["straightforward", "step_one", "step_two"]
    ),
    pass_overlap=st.booleans(),
    single_ported_buffers=st.booleans(),
    abft_protected=st.booleans(),
    abft_check_cycles=st.integers(0, 32),
)


class TestSchedulerAnalyticAgreement:
    @settings(max_examples=60, deadline=None)
    @given(model=model_configs, acc=acc_configs)
    def test_mha_always_matches(self, model, acc):
        assert (schedule_mha(model, acc).total_cycles
                == mha_cycle_breakdown(model, acc).total_cycles)

    def test_mha_matches_on_q_partitioned_softmax_stall(self):
        # Regression: at seq_len > sa_cols the softmax tail (s + depth)
        # outlasts the VWv pass for small d_model and the PV pass stalls;
        # the analytic model used to omit that term entirely.
        model = ModelConfig(
            "fuzz", d_model=64, d_ff=64, num_heads=1,
            num_encoder_layers=1, num_decoder_layers=0, max_seq_len=64,
        )
        acc = AcceleratorConfig(
            seq_len=128, sa_cols=64, sa_drain_cycles=0,
            weight_load_cycles=0, pass_issue_cycles=0,
            softmax_pipeline_depth=0, layernorm_pipeline_depth=0,
        )
        sched = schedule_mha(model, acc)
        breakdown = mha_cycle_breakdown(model, acc)
        assert breakdown.softmax_stall_cycles == 64
        assert sched.total_cycles == breakdown.total_cycles

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("abft", [False, True])
    def test_mha_softmax_stall_under_abft_and_overlap(self, overlap, abft):
        # The V projection is the only SA work hiding the softmax tail;
        # a deep softmax pipeline makes that tail outlast it in every
        # overlap / ABFT mode, so the closed form's V-pass busy time
        # must match the timeline's drain and comparator exposure.
        model = ModelConfig(
            "fuzz", d_model=128, d_ff=128, num_heads=2,
            num_encoder_layers=1, num_decoder_layers=0, max_seq_len=64,
        )
        acc = AcceleratorConfig(
            seq_len=128, sa_cols=64, sa_drain_cycles=4,
            weight_load_cycles=3, pass_issue_cycles=2,
            softmax_pipeline_depth=400, pass_overlap=overlap,
            abft_protected=abft, abft_check_cycles=8,
        )
        breakdown = mha_cycle_breakdown(model, acc)
        exposed = acc.seq_len + acc.softmax_pipeline_depth
        v_busy = pass_busy_cycles(acc, model.d_model, True, False)
        assert breakdown.softmax_stall_cycles == 2 * (exposed - v_busy) > 0
        assert schedule_mha(model, acc).total_cycles == breakdown.total_cycles

    @settings(max_examples=60, deadline=None)
    @given(model=model_configs, acc=acc_configs)
    def test_ffn_always_matches(self, model, acc):
        assert (schedule_ffn(model, acc).total_cycles
                == ffn_cycle_breakdown(model, acc).total_cycles)

    @settings(max_examples=40, deadline=None)
    @given(model=model_configs, acc=acc_configs)
    def test_sa_events_never_overlap(self, model, acc):
        result = schedule_mha(model, acc)
        events = sorted(result.sa_events, key=lambda e: e.start)
        for prev, cur in zip(events, events[1:]):
            assert cur.start >= prev.end

    @settings(max_examples=40, deadline=None)
    @given(model=model_configs, acc=acc_configs)
    def test_utilization_bounded(self, model, acc):
        for result in (schedule_mha(model, acc), schedule_ffn(model, acc)):
            assert 0.0 < result.sa_utilization <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(model=model_configs, acc=acc_configs)
    def test_overlap_never_slower(self, model, acc):
        import dataclasses

        with_overlap = dataclasses.replace(acc, pass_overlap=True)
        without = dataclasses.replace(acc, pass_overlap=False)
        assert (schedule_mha(model, with_overlap).total_cycles
                <= schedule_mha(model, without).total_cycles)
        assert (schedule_ffn(model, with_overlap).total_cycles
                <= schedule_ffn(model, without).total_cycles)
