"""Decode on the event kernel: outcome invariants and a linear loop.

Pops of the one event heap are counted by kind.  With ``S`` offered
streams and ``U`` dispatched units (decode batches plus prefill
dispatches), the push sites listed in :mod:`repro.serving.kernel`
bound them:

* ``ARRIVAL`` — ``S``;
* ``POOL_FREE`` — at most one pending for the one pool, and a new one
  only after a dispatch: at most ``U + 1``;
* ``WAKEUP`` — streams never time out, so only the batcher's deadline:
  the earliest ``busy_until`` of a busy stream, pushed only when it is
  earlier than the wakeup still pending.  Pushes so land at distinct
  times, each the end of some unit: at most ``U``;
* ``COMPLETION`` / ``SCALER`` — decode pushes none.

Summing the sites gives ``events <= S + 2U + 1``; runs measure about
``S + U``.  Pushing a wakeup on every attempt that finds every stream
busy reaches about ``2(S + U)`` on four devices under sparse arrivals.
"""

import dataclasses
import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AcceleratorConfig, DecodeConfig, ModelConfig
from repro.decode import simulate_decode
from repro.memsys import memory_preset
from repro.serving.kernel import ARRIVAL, COMPLETION, POOL_FREE, SCALER, WAKEUP

MODEL = ModelConfig(
    "small", d_model=256, d_ff=1024, num_heads=4,
    num_encoder_layers=2, num_decoder_layers=2, max_seq_len=64,
)


@st.composite
def decode_configs(draw):
    prefill_min = draw(st.integers(1, 200))
    tokens_min = draw(st.integers(1, 8))
    return DecodeConfig(
        arrival_rate_rps=draw(st.sampled_from([20.0, 400.0, 20_000.0])),
        num_streams=draw(st.integers(1, 12)),
        prefill_len_min=prefill_min,
        prefill_len_max=prefill_min + draw(st.integers(0, 200)),
        decode_tokens_min=tokens_min,
        decode_tokens_max=tokens_min + draw(st.integers(0, 8)),
        policy=draw(st.sampled_from(["decode_priority", "prefill_chunk"])),
        max_decode_batch=draw(st.sampled_from([1, 2, 16])),
        kv_capacity_bytes=draw(st.sampled_from([None, 0, 32 * 1024])),
        num_devices=draw(st.integers(1, 4)),
        queue_capacity=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**16)),
        memory=draw(st.sampled_from([None, memory_preset("ddr4-2400")])),
    )


class TestKernelInvariants:
    @settings(max_examples=60, deadline=None)
    @given(decode=decode_configs())
    def test_outcomes_conserved_and_events_linear(self, decode,
                                                  counted_run):
        result, kinds = counted_run(
            simulate_decode, MODEL, AcceleratorConfig(), decode
        )
        m = result.metrics
        ids = [r.stream.stream_id for r in result.records]
        assert sorted(ids) == list(range(decode.num_streams))
        tally = Counter(r.status for r in result.records)
        assert set(tally) <= {"completed", "rejected"}
        assert m.offered == m.completed + m.rejected == decode.num_streams
        assert (m.completed, m.rejected) == (
            tally["completed"], tally["rejected"]
        )
        assert not any(
            isinstance(v, float) and math.isnan(v)
            for v in dataclasses.astuple(m)
        )
        assert m.decoded_tokens == sum(
            r.stream.decode_tokens + 1
            for r in result.records if r.status == "completed"
        )

        units = m.decode_batches + m.prefill_chunks
        assert kinds[ARRIVAL] == m.offered
        assert kinds[COMPLETION] == kinds[SCALER] == 0
        assert kinds[POOL_FREE] <= units + 1
        assert kinds[WAKEUP] <= units
        assert sum(kinds.values()) <= m.offered + 2 * units + 1
