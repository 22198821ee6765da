"""Multi-tenant workload generation tests (repro.cluster.workload)."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import (
    ClusterRequest,
    cluster_workload,
    simulate_cluster,
    tenant_workload,
)
from repro.config import ClusterConfig, PoolConfig, TenantConfig, transformer_base
from repro.errors import ServingError
from repro.serving import validate_workload


def _tenant(**overrides):
    base = dict(
        name="t0", arrival="poisson", rate_rps=800.0, num_requests=200,
        min_len=8, max_len=32, slo_us=30_000.0,
    )
    base.update(overrides)
    return TenantConfig(**base)


def _cluster(tenants, **overrides):
    base = dict(
        pools=(PoolConfig(name="p0"),),
        tenants=tuple(tenants),
    )
    base.update(overrides)
    return ClusterConfig(**base)


class TestTenantWorkload:
    def test_deterministic_per_seed(self):
        a = tenant_workload(_tenant(), master_seed=7)
        b = tenant_workload(_tenant(), master_seed=7)
        assert a == b

    def test_master_seed_changes_stream(self):
        a = tenant_workload(_tenant(), master_seed=1)
        b = tenant_workload(_tenant(), master_seed=2)
        assert a != b

    def test_tenants_draw_independent_streams(self):
        a = tenant_workload(_tenant(name="alpha"), master_seed=0)
        b = tenant_workload(_tenant(name="beta"), master_seed=0)
        assert [r.arrival_us for r in a] != [r.arrival_us for r in b]

    @pytest.mark.parametrize("arrival", ["poisson", "diurnal", "mmpp"])
    def test_arrivals_sorted_and_lengths_bounded(self, arrival):
        requests = tenant_workload(_tenant(arrival=arrival), master_seed=3)
        times = [r.arrival_us for r in requests]
        assert times == sorted(times)
        assert all(8 <= r.seq_len <= 32 for r in requests)
        assert all(r.slo_us == 30_000.0 for r in requests)

    @pytest.mark.parametrize("arrival", ["poisson", "diurnal", "mmpp"])
    def test_long_run_rate_near_mean(self, arrival):
        # All three processes share the same configured long-run mean;
        # over a long stream the empirical rate should land near it.
        tenant = _tenant(arrival=arrival, num_requests=4000)
        requests = tenant_workload(tenant, master_seed=11)
        span_s = requests[-1].arrival_us / 1e6
        rate = len(requests) / span_s
        assert rate == pytest.approx(tenant.rate_rps, rel=0.25)

    def test_diurnal_rate_actually_varies(self):
        tenant = _tenant(
            arrival="diurnal", num_requests=3000,
            diurnal_period_us=1_000_000.0, diurnal_amplitude=0.9,
        )
        requests = tenant_workload(tenant, master_seed=5)
        times = np.array([r.arrival_us for r in requests])
        # Compare arrivals landing in the sinusoid's peak half-period
        # against the trough half-period, phase-aligned over whole
        # periods: the peak half must carry clearly more traffic.
        phase = np.mod(times, tenant.diurnal_period_us)
        peak = int(np.sum(phase < tenant.diurnal_period_us / 2))
        trough = len(times) - peak
        assert peak > 1.5 * trough

    def test_mmpp_is_burstier_than_poisson(self):
        n = 4000
        poisson = tenant_workload(
            _tenant(arrival="poisson", num_requests=n), master_seed=9
        )
        mmpp = tenant_workload(
            _tenant(arrival="mmpp", num_requests=n, burst_multiplier=10.0,
                    burst_fraction=0.1), master_seed=9
        )

        def cv2(requests):
            gaps = np.diff([r.arrival_us for r in requests])
            return float(np.var(gaps) / np.mean(gaps) ** 2)

        # A Poisson process has squared coefficient of variation 1; the
        # MMPP's calm/burst alternation must push it well above.
        assert cv2(poisson) == pytest.approx(1.0, abs=0.3)
        assert cv2(mmpp) > 1.5


class TestClusterWorkload:
    def test_merged_stream_is_dense_and_sorted(self):
        cluster = _cluster([
            _tenant(name="a", seed=1),
            _tenant(name="b", arrival="mmpp", seed=2),
            _tenant(name="c", arrival="diurnal", seed=3),
        ])
        merged = cluster_workload(cluster)
        assert [r.req_id for r in merged] == list(range(600))
        times = [r.arrival_us for r in merged]
        assert times == sorted(times)
        assert {r.tenant for r in merged} == {"a", "b", "c"}
        validate_workload(merged, max_seq_len=64)

    def test_requests_carry_their_tenant_contract(self):
        cluster = _cluster([
            _tenant(name="gold", slo_us=10_000.0, weight=5.0),
            _tenant(name="bulk", slo_us=90_000.0, weight=1.0),
        ])
        for request in cluster_workload(cluster):
            if request.tenant == "gold":
                assert request.slo_us == 10_000.0
                assert request.weight == 5.0
            else:
                assert request.slo_us == 90_000.0
                assert request.weight == 1.0
            assert request.deadline_us == (
                request.arrival_us + request.slo_us
            )

    def test_cluster_seed_pins_everything(self):
        tenants = [_tenant(name="a"), _tenant(name="b", arrival="mmpp")]
        one = cluster_workload(_cluster(tenants, seed=42))
        two = cluster_workload(_cluster(tenants, seed=42))
        other = cluster_workload(_cluster(tenants, seed=43))
        assert one == two
        assert one != other

    def test_validation_rejects_bad_streams(self):
        request = ClusterRequest(
            req_id=0, arrival_us=0.0, seq_len=16,
            tenant="t", slo_us=1000.0, weight=1.0,
        )
        with pytest.raises(ServingError):
            validate_workload([dataclasses.replace(request, req_id=5)], 64)
        with pytest.raises(ServingError):
            validate_workload([dataclasses.replace(request, seq_len=65)], 64)
        # Arrival order is the event kernel's check.
        with pytest.raises(ServingError, match="non-decreasing"):
            simulate_cluster(
                transformer_base(), _cluster([_tenant(name="t")]),
                workload=[request, dataclasses.replace(
                    request, req_id=1, arrival_us=-1.0
                )],
            )
