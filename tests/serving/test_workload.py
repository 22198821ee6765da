"""Workload generator tests: determinism, statistics, trace replay."""

import hashlib
from dataclasses import astuple

import pytest

from repro.config import ServingConfig
from repro.errors import ServingError
from repro.serving import poisson_workload, trace_workload, validate_workload


class TestPoissonWorkload:
    def test_deterministic_under_seed(self):
        serving = ServingConfig(seed=42)
        assert poisson_workload(serving) == poisson_workload(serving)

    def test_seed_changes_workload(self):
        a = poisson_workload(ServingConfig(seed=1))
        b = poisson_workload(ServingConfig(seed=2))
        assert a != b

    def test_count_ids_and_ordering(self):
        requests = poisson_workload(ServingConfig(num_requests=50))
        assert len(requests) == 50
        assert [r.req_id for r in requests] == list(range(50))
        arrivals = [r.arrival_us for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)

    def test_mean_rate_roughly_matches(self):
        serving = ServingConfig(
            arrival_rate_rps=1000.0, num_requests=2000, seed=0
        )
        requests = poisson_workload(serving)
        mean_gap_us = requests[-1].arrival_us / len(requests)
        assert mean_gap_us == pytest.approx(1000.0, rel=0.1)

    def test_lengths_respect_bounds(self):
        serving = ServingConfig(min_len=5, max_len=9, num_requests=300)
        lengths = [r.seq_len for r in poisson_workload(serving)]
        assert min(lengths) >= 5
        assert max(lengths) <= 9
        assert len(set(lengths)) > 1          # actually varies

    def test_fixed_distribution(self):
        # Equal bounds fix every length; the request list is the one the
        # former ``length_dist="fixed"`` run drew at min_len=8, max_len=48.
        serving = ServingConfig(min_len=48, max_len=48, num_requests=20)
        requests = poisson_workload(serving)
        assert all(r.seq_len == 48 for r in requests)
        assert requests[0].arrival_us == 339.96595198445476
        digest = hashlib.sha256(
            repr([astuple(r) for r in requests]).encode()
        ).hexdigest()
        assert digest == (
            "dacc4ddd9e9541268723152853e2226be03e0a761b33c975de4e318dbc6277c7"
        )


class TestTraceWorkload:
    def test_replay(self):
        requests = trace_workload([(0.0, 10), (5.0, 20), (5.0, 30)])
        assert [r.seq_len for r in requests] == [10, 20, 30]
        assert [r.req_id for r in requests] == [0, 1, 2]

    def test_rejects_unsorted(self):
        with pytest.raises(ServingError):
            trace_workload([(10.0, 4), (5.0, 4)])

    def test_rejects_bad_length(self):
        with pytest.raises(ServingError):
            trace_workload([(0.0, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ServingError):
            trace_workload([])


class TestValidateWorkload:
    def test_too_long_for_sa(self):
        requests = trace_workload([(0.0, 65)])
        with pytest.raises(ServingError):
            validate_workload(requests, 64)
        validate_workload(requests, 128)
