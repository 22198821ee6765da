"""Mixed prefill/decode serving simulator: determinism, policies, spans."""

import dataclasses
import gc
import json
from collections import Counter
from fnmatch import fnmatch

import pytest

from repro.config import AcceleratorConfig, DecodeConfig, MemoryConfig, ModelConfig
from repro.core.trace import KNOWN_TRACK_PATTERNS
from repro.decode import DecodeStream, simulate_decode
from repro.errors import ServingError
from repro.obs import TraceCollector
from repro.statcheck import lint_spans
from repro.telemetry import MetricsRegistry, to_json


def base_model() -> ModelConfig:
    return ModelConfig(
        "base", d_model=512, d_ff=2048, num_heads=8,
        num_encoder_layers=6, num_decoder_layers=6, max_seq_len=64,
    )


def loaded_config(**overrides) -> DecodeConfig:
    base = dict(
        arrival_rate_rps=400.0,
        num_streams=10,
        prefill_len_min=96,
        prefill_len_max=256,
        decode_tokens_min=8,
        decode_tokens_max=24,
        kv_capacity_bytes=256 * 1024,
        memory=MemoryConfig(bandwidth_gbps=10.0),
        seed=0,
    )
    base.update(overrides)
    return DecodeConfig(**base)


class TestDeterminism:
    def test_identical_runs_identical_metrics(self):
        acc = AcceleratorConfig()
        a = simulate_decode(base_model(), acc, loaded_config())
        b = simulate_decode(base_model(), acc, loaded_config())
        assert a.metrics == b.metrics
        assert [dataclasses.astuple(s) for s in a.spans] == \
            [dataclasses.astuple(s) for s in b.spans]

    def test_seed_changes_the_run(self):
        acc = AcceleratorConfig()
        a = simulate_decode(base_model(), acc, loaded_config(seed=0))
        b = simulate_decode(base_model(), acc, loaded_config(seed=7))
        assert a.metrics != b.metrics


class TestPolicies:
    def test_prefill_chunking_protects_ttft(self):
        acc = AcceleratorConfig()
        prio = simulate_decode(
            base_model(), acc, loaded_config(policy="decode_priority")
        ).metrics
        chunk = simulate_decode(
            base_model(), acc, loaded_config(policy="prefill_chunk")
        ).metrics
        # Chunked prefills interleave with decode, so queued prompts
        # start (and finish) dramatically earlier under load.
        assert chunk.prefill_p99_us < prio.prefill_p99_us
        assert chunk.prefill_chunks > prio.prefill_chunks
        # Both complete every stream and emit every token.
        assert prio.completed == chunk.completed == 10
        assert prio.decoded_tokens == chunk.decoded_tokens

    def test_queue_pressure_rejects_streams(self):
        cfg = loaded_config(
            num_streams=16, queue_capacity=1, arrival_rate_rps=100000.0
        )
        result = simulate_decode(base_model(), AcceleratorConfig(), cfg)
        assert result.metrics.rejected > 0
        assert result.metrics.offered == 16
        assert result.metrics.completed + result.metrics.rejected == 16
        rejected = [r for r in result.records if r.status == "rejected"]
        assert len(rejected) == result.metrics.rejected


class TestSpansAndTelemetry:
    def test_all_tracks_are_registered_patterns(self):
        result = simulate_decode(
            base_model(), AcceleratorConfig(), loaded_config()
        )
        tracks = {span.track for span in result.spans}
        assert tracks   # prefill + decode + device rows at minimum
        for track in tracks:
            assert any(
                fnmatch(track, pattern)
                for pattern in KNOWN_TRACK_PATTERNS
            ), f"track {track!r} not in KNOWN_TRACK_PATTERNS"

    def test_device_tracks_lint_clean(self):
        result = simulate_decode(
            base_model(), AcceleratorConfig(),
            loaded_config(num_devices=2),
        )
        assert lint_spans(result.spans) == []

    def test_registry_exports_decode_schema(self):
        registry = MetricsRegistry()
        result = simulate_decode(
            base_model(), AcceleratorConfig(), loaded_config(),
            registry=registry,
        )
        names = {m["name"] for m in to_json(registry)["metrics"]}
        assert {
            "repro_decode_streams_total",
            "repro_decode_steps_total",
            "repro_decode_tokens_total",
            "repro_decode_kv_lookups_total",
            "repro_decode_tokens_per_s",
            "repro_decode_kv_hit_rate",
            "repro_decode_prefill_latency_us",
            "repro_decode_token_latency_us",
        } <= names
        assert result.metrics.decoded_tokens > 0

    def test_trace_round_trips_as_chrome_json(self, tmp_path):
        result = simulate_decode(
            base_model(), AcceleratorConfig(), loaded_config()
        )
        path = tmp_path / "decode_trace.json"
        count = result.write_trace(str(path))
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert "X" in phases and "C" in phases  # spans + KV counter
        assert payload["otherData"]["policy"] == "decode_priority"


class TestMemory:
    def test_run_needs_no_cycle_collector(self):
        # A reference cycle through the run would keep its K/V cache,
        # spans and records alive until a full collection: repeated runs
        # then stack up in peak RSS.
        gc.collect()
        gc.disable()
        try:
            simulate_decode(
                base_model(), AcceleratorConfig(),
                loaded_config(num_devices=2, policy="prefill_chunk"),
            )
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestExactOutcomePins:
    """Exact outcomes of four runs, pinned before decode moved loops.

    Every field of :class:`DecodeMetrics`, the status tallies, the
    Chrome span count and (traced) the tracer's tree count must stay
    bit-identical while the event loop under them changes.
    """

    @staticmethod
    def run(cfg, traced=False):
        tracer = TraceCollector() if traced else None
        registry = MetricsRegistry() if traced else None
        result = simulate_decode(
            base_model(), AcceleratorConfig(), cfg,
            tracer=tracer, registry=registry,
        )
        tallies = Counter(r.status for r in result.records)
        return result, dict(tallies), tracer

    def test_prefill_chunk_on_two_devices(self):
        result, tallies, _ = self.run(
            loaded_config(policy="prefill_chunk", num_devices=2)
        )
        assert dataclasses.astuple(result.metrics) == (
            10, 10, 0, 144, 53, 32, 154, 1449.6881038228162,
            21262.728780261656, 31000.69629083531, 2873.461458333337,
            0.0, 3948258, 106229.74665647265,
        )
        assert tallies == {"completed": 10}
        assert len(result.spans) == 85

    def test_decode_priority_on_three_devices(self):
        result, tallies, _ = self.run(
            loaded_config(policy="decode_priority", num_devices=3, seed=7)
        )
        assert dataclasses.astuple(result.metrics) == (
            10, 10, 0, 170, 170, 10, 180, 1056.1647177155526,
            59255.30404250346, 126498.43463046808, 2326.7514705882354,
            0.0, 4632606, 170427.96164345814,
        )
        assert tallies == {"completed": 10}
        assert len(result.spans) == 180

    def test_queue_pressure_rejections(self):
        result, tallies, _ = self.run(loaded_config(
            num_streams=16, queue_capacity=1, arrival_rate_rps=100000.0
        ))
        assert dataclasses.astuple(result.metrics) == (
            16, 2, 14, 20, 20, 2, 22, 396.46926101734016, 6495.3,
            38068.96193337411, 2241.4979999999996, 0.0, 409032,
            55489.799999999996,
        )
        assert tallies == {"completed": 2, "rejected": 14}
        assert len(result.spans) == 22

    def test_traced_run_with_registry(self):
        result, tallies, tracer = self.run(loaded_config(
            policy="prefill_chunk", num_devices=2, seed=7,
            queue_capacity=3, arrival_rate_rps=1000.0,
            kv_capacity_bytes=None,
        ), traced=True)
        assert dataclasses.astuple(result.metrics) == (
            10, 5, 5, 90, 40, 18, 95, 1118.5308474526253,
            14869.562786876364, 23616.089194803993, 2625.5136666666676,
            0.09554140127388536, 2233698, 84932.83865738327,
        )
        assert tallies == {"completed": 5, "rejected": 5}
        assert len(result.spans) == 58
        assert len(tracer) == 10


class TestExplicitStreams:
    @staticmethod
    def run(streams, **overrides):
        return simulate_decode(
            base_model(), AcceleratorConfig(), DecodeConfig(**overrides),
            streams=streams,
        )

    def test_nan_arrival_is_refused(self):
        streams = [DecodeStream(0, 0.0, 100, 3),
                   DecodeStream(1, float("nan"), 100, 3)]
        with pytest.raises(ServingError, match="finite"):
            self.run(streams)

    def test_duplicate_stream_ids_are_refused(self):
        streams = [DecodeStream(0, 0.0, 100, 3),
                   DecodeStream(0, 10.0, 100, 3)]
        with pytest.raises(ServingError, match="unique"):
            self.run(streams)

    def test_negative_decode_tokens_are_refused(self):
        with pytest.raises(ServingError, match="decode_tokens"):
            self.run([DecodeStream(0, 0.0, 100, -1)])

    def test_same_instant_arrivals_dispatch_as_offered(self):
        # Each arrival is offered, then dispatched, before the next one
        # at the same instant: the first stream has left the 2-deep
        # prefill queue when the third arrives, so none is rejected.
        result = self.run(
            [DecodeStream(i, 0.0, 100, 3) for i in range(3)],
            queue_capacity=2, policy="decode_priority",
        )
        assert dataclasses.astuple(result.metrics) == (
            3, 3, 0, 9, 9, 3, 12, 423.8671091839287, 13240.02, 22676.94,
            1877.9399999999998, 1.0, 0, 28310.76,
        )
        assert [r.status for r in result.records] == ["completed"] * 3
