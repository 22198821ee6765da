"""End-to-end cluster simulation tests (repro.cluster.simulator).

Covers the pinned heterogeneous scenario, same-seed reproducibility,
registry instrumentation, the Chrome-trace export, and the admission
edge cases under bursty arrivals: a queue timeout landing exactly on
its deadline, a full queue at the burst peak, and zero-completion runs
(metrics must stay finite — no division by zero).
"""

import json

import pytest

from repro.cluster import (
    ClusterRequest,
    PoolRuntime,
    pinned_cluster,
    simulate_cluster,
)
from repro.config import (
    AutoscalerConfig,
    ClusterConfig,
    PoolConfig,
    TenantConfig,
    transformer_base,
)
from repro.core.trace import KNOWN_TRACK_PATTERNS
from repro.errors import ServingError
from repro.telemetry import MetricsRegistry


@pytest.fixture(scope="module")
def model():
    return transformer_base()


@pytest.fixture(scope="module")
def pinned_result(model):
    return simulate_cluster(model, pinned_cluster(requests_per_tenant=60))


def _edge_cluster(**overrides):
    base = dict(
        pools=(PoolConfig(name="p0", num_devices=1, min_devices=1,
                          max_devices=1),),
        tenants=(TenantConfig(name="a"), TenantConfig(name="b")),
        router_policy="round_robin",
        autoscaler=AutoscalerConfig(enabled=False),
        queue_capacity=8,
        max_batch_requests=1,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def _req(req_id, arrival=0.0, tenant="a", slo_us=1e9, seq_len=16):
    return ClusterRequest(
        req_id=req_id, arrival_us=arrival, seq_len=seq_len,
        tenant=tenant, slo_us=slo_us, weight=1.0,
    )


class TestPinnedScenario:
    def test_shape(self, pinned_result):
        cm = pinned_result.metrics
        assert set(cm.pools) == {"fpga-a", "fpga-b", "gpu-0"}
        assert set(cm.tenants) == {"interactive", "batch", "bursty"}
        assert cm.router_policy == "slo"

    def test_conservation(self, pinned_result):
        cm = pinned_result.metrics
        assert cm.offered == 180
        assert cm.offered == (
            cm.completed + cm.shed + cm.rejected + cm.expired
        )
        for tenant in cm.tenants.values():
            assert tenant.offered == (
                tenant.completed + tenant.shed + tenant.rejected
                + tenant.expired
            )
        assert sum(p.routed for p in cm.pools.values()) == (
            cm.offered - cm.shed
        )
        assert sum(p.completed for p in cm.pools.values()) == cm.completed

    def test_serves_and_measures(self, pinned_result):
        cm = pinned_result.metrics
        assert cm.completed > 0
        assert cm.throughput_rps > 0
        assert cm.makespan_us > 0
        assert 0.0 <= cm.slo_attainment <= 1.0
        assert cm.latency_p50_us <= cm.latency_p99_us

    def test_every_span_track_is_registered(self, pinned_result):
        from fnmatch import fnmatch

        for span in pinned_result.spans:
            assert any(
                fnmatch(span.track, pattern)
                for pattern in KNOWN_TRACK_PATTERNS
            ), f"unregistered track {span.track!r}"

    def test_unknown_tenant_in_workload_rejected(self, model):
        cluster = _edge_cluster()
        with pytest.raises(ServingError):
            simulate_cluster(
                model, cluster, workload=[_req(0, tenant="ghost")]
            )


class TestDeterminism:
    def test_same_seed_same_run(self, model):
        cluster = pinned_cluster(requests_per_tenant=40)
        a = simulate_cluster(model, cluster)
        b = simulate_cluster(model, cluster)
        assert a.metrics == b.metrics
        assert a.spans == b.spans
        assert a.actions == b.actions
        assert [r.completed_us for r in a.records] == [
            r.completed_us for r in b.records
        ]

    def test_seed_changes_the_run(self, model):
        a = simulate_cluster(
            model, pinned_cluster(requests_per_tenant=40, seed=0)
        )
        b = simulate_cluster(
            model, pinned_cluster(requests_per_tenant=40, seed=1)
        )
        assert [r.request.arrival_us for r in a.records] != [
            r.request.arrival_us for r in b.records
        ]

    def test_registry_does_not_perturb_the_run(self, model):
        cluster = pinned_cluster(requests_per_tenant=40)
        registry = MetricsRegistry()
        instrumented = simulate_cluster(model, cluster, registry=registry)
        plain = simulate_cluster(model, cluster)
        assert instrumented.metrics == plain.metrics
        cm = instrumented.metrics
        assert registry.counter(
            "repro_cluster_requests_offered_total"
        ).total() == cm.offered
        assert registry.counter(
            "repro_cluster_requests_total"
        ).total() == cm.offered
        assert registry.counter(
            "repro_cluster_routing_decisions_total"
        ).total() == cm.offered - cm.shed


class TestPolicyValue:
    def test_slo_routing_beats_static_round_robin(self, model):
        """The acceptance headline: smarter routing + autoscaling wins.

        Same workload, same per-pool device budget (the static baseline
        runs every pool at max_devices throughout).
        """
        smart = simulate_cluster(
            model,
            pinned_cluster(requests_per_tenant=120, router_policy="slo",
                           autoscale=True),
        ).metrics
        naive = simulate_cluster(
            model,
            pinned_cluster(requests_per_tenant=120,
                           router_policy="round_robin", autoscale=False),
        ).metrics
        assert smart.slo_attainment > naive.slo_attainment
        assert smart.latency_p99_us < naive.latency_p99_us


class TestTraceExport:
    def test_single_trace_with_per_pool_tracks(self, pinned_result,
                                               tmp_path):
        path = tmp_path / "cluster.json"
        count = pinned_result.write_trace(str(path))
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        tracks = {
            e["args"]["name"] for e in payload["traceEvents"]
            if e["name"] == "thread_name"
        }
        for pool, summary in pinned_result.metrics.pools.items():
            if summary.completed:
                assert any(t.startswith(f"{pool}.device") for t in tracks)
        counters = {
            e["name"] for e in payload["traceEvents"] if e["ph"] == "C"
        }
        for pool in ("fpga-a", "fpga-b", "gpu-0"):
            assert f"{pool}.queue_depth" in counters
            assert f"{pool}.devices" in counters
        assert payload["otherData"]["router_policy"] == "slo"


class TestAdmissionEdgeCases:
    def test_timeout_exactly_at_deadline_expires(self, model):
        cluster = _edge_cluster(queue_timeout_us=400.0)
        run_us = PoolRuntime(cluster.pools[0], cluster, model, 64).run_us
        assert run_us > 400.0  # premise: the device is still busy
        result = simulate_cluster(
            model, cluster, workload=[_req(0), _req(1)]
        )
        first, second = result.records
        # Request 0 takes the only device; request 1's expiry wakeup
        # fires at exactly arrival + timeout and must drop it (the
        # queue compares with >=, so the boundary is never missed).
        assert first.status == "completed"
        assert second.status == "expired"
        assert result.metrics.expired == 1

    def test_queue_full_at_burst_peak_rejects(self, model):
        cluster = _edge_cluster(queue_capacity=2)
        burst = [_req(i) for i in range(10)]
        result = simulate_cluster(model, cluster, workload=burst)
        cm = result.metrics
        # One request dispatches immediately, two wait in the bounded
        # queue, the remaining seven hit a full queue and are rejected.
        assert cm.rejected == 7
        assert cm.completed == 3
        assert cm.offered == cm.completed + cm.rejected

    def test_empty_workload_keeps_metrics_finite(self, model):
        registry = MetricsRegistry()
        result = simulate_cluster(
            model, _edge_cluster(), workload=[], registry=registry
        )
        cm = result.metrics
        assert cm.offered == 0
        assert cm.slo_attainment == 0.0
        assert cm.throughput_rps == 0.0
        # Empty-safe: zero-admission summaries report 0.0, never NaN.
        assert cm.latency_p50_us == 0.0
        assert cm.latency_p99_us == 0.0
        assert cm.latency_mean_us == 0.0
        for pool in cm.pools.values():
            assert pool.mean_batch_size == 0.0
            assert pool.occupancy == 0.0
            assert pool.weight_cache_hit_rate == 0.0
        # The report renderer must survive the all-zero case too, and
        # print "n/a" rather than a bogus 0.0 us latency.
        rows = cm.as_rows()
        assert ["p50 latency", "n/a"] in rows

    def test_tenant_with_zero_completions(self, model):
        cluster = _edge_cluster(queue_timeout_us=100.0)
        run_us = PoolRuntime(cluster.pools[0], cluster, model, 64).run_us
        assert run_us > 100.0
        workload = [_req(0, tenant="a")] + [
            _req(i, tenant="b") for i in range(1, 4)
        ]
        result = simulate_cluster(model, cluster, workload=workload)
        b = result.metrics.tenants["b"]
        assert b.completed == 0
        assert b.expired == 3
        assert b.slo_attainment == 0.0
        # Zero-admission tenant window: explicit zeros, never NaN.
        assert b.latency_p50_us == 0.0
        assert b.latency_p99_us == 0.0
        assert b.latency_mean_us == 0.0
        assert result.metrics.as_rows()
