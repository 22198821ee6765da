"""Registry-backed serving metrics: equivalence with the plain path."""

import json

import pytest

from repro.cluster import pinned_cluster, simulate_cluster
from repro.config import (
    DecodeConfig,
    ServingConfig,
    paper_accelerator,
    transformer_base,
)
from repro.decode import simulate_decode
from repro.memsys import ddr4_2400
from repro.serving import simulate_serving
from repro.serving.metrics import compute_metrics
from repro.telemetry import MetricsRegistry
from repro.telemetry.instrument import record_serving


@pytest.fixture(scope="module")
def model():
    return transformer_base()


@pytest.fixture(scope="module")
def acc():
    return paper_accelerator()


def _serving(**overrides):
    base = dict(
        arrival_rate_rps=1200.0, num_requests=60,
        min_len=8, max_len=32, seed=13,
        max_batch_requests=8, max_wait_us=1000.0,
    )
    base.update(overrides)
    return ServingConfig(**base)


class TestSimulatorRegistry:
    def test_metrics_identical_with_and_without_registry(self, model, acc):
        plain = simulate_serving(model, acc, _serving())
        inst = simulate_serving(
            model, acc, _serving(), registry=MetricsRegistry()
        )
        assert inst.metrics == plain.metrics

    def test_registry_counters_match_metrics(self, model, acc):
        reg = MetricsRegistry()
        result = simulate_serving(model, acc, _serving(), registry=reg)
        m = result.metrics
        outcomes = reg.get("repro_serving_requests_total")
        assert outcomes.value(outcome="completed") == m.completed
        assert outcomes.value(outcome="rejected") == m.rejected
        assert reg.get(
            "repro_serving_requests_offered_total"
        ).value() == m.offered
        assert reg.get("repro_serving_batches_total").value() == (
            m.num_batches
        )
        latency = reg.get("repro_serving_latency_us")
        assert latency.count() == m.completed
        assert latency.percentile(99) == m.latency_p99_us
        assert reg.get("repro_serving_sa_utilization").value() == (
            pytest.approx(m.sa_utilization)
        )
        depth = reg.get("repro_serving_queue_depth")
        assert len(depth.samples()) == len(result.depth_samples)

    def test_trace_has_utilization_and_cache_tracks(
        self, model, acc, tmp_path
    ):
        # The weight-cache track needs a memory system (lookups only
        # happen when weights actually move off-chip).
        result = simulate_serving(
            model, acc, _serving(memory=ddr4_2400())
        )
        path = tmp_path / "serving.json"
        result.write_trace(str(path))
        events = json.loads(path.read_text())["traceEvents"]
        tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert {"queue_depth", "sa_utilization",
                "weight_cache_hit_rate"} <= tracks
        # Cumulative hit rate and per-batch utilization live in [0, 1].
        for e in events:
            if e["ph"] != "C" or e["name"] == "queue_depth":
                continue
            assert 0.0 <= e["args"][e["name"]] <= 1.0

    def test_utilization_samples_cover_every_batch(self, model, acc):
        result = simulate_serving(model, acc, _serving())
        assert len(result.util_samples) == result.metrics.num_batches


class TestRegistryOnlyWhenPassed:
    def test_shared_registry_keeps_each_summary_its_own(self, model, acc):
        # Two runs into one registry: the registry holds their union,
        # while the second run's summary still covers only itself.
        plain = simulate_serving(model, acc, _serving())
        reg = MetricsRegistry()
        simulate_serving(model, acc, _serving(), registry=reg)
        second = simulate_serving(model, acc, _serving(), registry=reg)
        assert second.metrics == plain.metrics
        assert reg.get(
            "repro_serving_requests_offered_total"
        ).value() == 2 * plain.metrics.offered == 120
        assert reg.get("repro_serving_batches_total").value() == (
            2 * plain.metrics.num_batches
        )

    def test_runs_without_registry_build_none(self, model, acc,
                                              monkeypatch):
        built = []
        init = MetricsRegistry.__init__

        def counting_init(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(MetricsRegistry, "__init__", counting_init)
        simulate_serving(model, acc, _serving())
        simulate_cluster(model, pinned_cluster(requests_per_tenant=20))
        simulate_decode(model, acc, DecodeConfig(num_streams=6))
        assert built == []


class TestComputeMetricsCompat:
    ARGS = dict(
        latencies_us=[100.0, 250.0, 900.0],
        batch_sizes=[2, 1],
        batch_tokens=[40, 16],
        seq_len=64,
        offered=5,
        rejected=1,
        expired=1,
        makespan_us=1000.0,
        device_busy_fraction=0.5,
        ideal_cycles_per_run=800,
        run_cycles=1000,
        num_devices=1,
        depth_samples=[(0.0, 1), (100.0, 0)],
    )

    def test_external_registry_matches_private_one(self):
        reg = MetricsRegistry()
        with_reg = compute_metrics(**self.ARGS, registry=reg)
        without = compute_metrics(**self.ARGS)
        assert with_reg == without
        assert reg.get("repro_serving_requests_total").value(
            outcome="completed"
        ) == 3

    def test_record_serving_accumulates_across_runs(self):
        # Counters are monotonic by design: a registry shared by
        # several runs holds the union of their outcomes.
        reg = MetricsRegistry()
        args = {k: v for k, v in self.ARGS.items() if k in (
            "latencies_us", "batch_sizes", "batch_tokens", "depth_samples",
        )}
        metrics = compute_metrics(**self.ARGS)
        record_serving(reg, metrics=metrics, **args)
        record_serving(reg, metrics=metrics, **args)
        assert reg.get(
            "repro_serving_requests_offered_total"
        ).value() == 10
        assert reg.get("repro_serving_latency_us").count() == 6
