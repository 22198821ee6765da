"""End-to-end serving-simulation tests.

Covers the ISSUE's acceptance criteria: determinism under a fixed seed,
the full metrics surface (p50/p95/p99, throughput, SA utilization,
rejection rate), dynamic batching beating the batch-1 baseline at the
same arrival rate, and Chrome-trace export through ``core/trace.py``.
"""

import dataclasses
import json
import math

import pytest

from repro.config import (
    AcceleratorConfig,
    ServingConfig,
    paper_accelerator,
    transformer_base,
)
from repro.errors import ServingError
from repro.memsys import memory_preset
from repro.serving import (
    WorkerPool,
    BatchCostModel,
    Request,
    percentile,
    simulate_serving,
    trace_workload,
)


@pytest.fixture(scope="module")
def model():
    return transformer_base()


@pytest.fixture(scope="module")
def acc():
    return paper_accelerator()


def _serving(**overrides):
    base = dict(
        arrival_rate_rps=1200.0, num_requests=80,
        min_len=8, max_len=32, seed=13,
        max_batch_requests=8, max_wait_us=1000.0,
    )
    base.update(overrides)
    return ServingConfig(**base)


class TestDeterminism:
    def test_identical_runs(self, model, acc):
        a = simulate_serving(model, acc, _serving())
        b = simulate_serving(model, acc, _serving())
        assert a.metrics == b.metrics
        assert a.spans == b.spans
        assert a.depth_samples == b.depth_samples
        assert [r.completed_us for r in a.records] == [
            r.completed_us for r in b.records
        ]

    def test_seed_changes_outcome(self, model, acc):
        a = simulate_serving(model, acc, _serving(seed=1))
        b = simulate_serving(model, acc, _serving(seed=2))
        assert a.metrics != b.metrics


class TestMetricsSurface:
    def test_reports_everything(self, model, acc):
        m = simulate_serving(model, acc, _serving()).metrics
        assert m.offered == 80
        assert (m.completed + m.rejected + m.expired + m.failed
                == m.offered)
        assert 0.0 <= m.rejection_rate <= 1.0
        assert (m.latency_p50_us <= m.latency_p95_us
                <= m.latency_p99_us)
        assert m.throughput_rps > 0
        assert 0.0 < m.occupancy <= 1.0
        assert 0.0 < m.device_busy_fraction <= 1.0
        assert 0.0 < m.sa_utilization < 1.0
        assert m.max_queue_depth >= 1
        assert len(m.as_rows()) == 25

    def test_every_request_accounted(self, model, acc):
        result = simulate_serving(model, acc, _serving())
        statuses = {r.status for r in result.records}
        assert statuses <= {"completed", "rejected", "expired", "failed"}
        completed = [r for r in result.records if r.status == "completed"]
        for record in completed:
            assert record.completed_us > record.request.arrival_us
            assert record.latency_us > 0
            assert record.batch_id is not None
        batched = sum(b.num_requests for b in result.batches)
        assert batched == len(completed)

    def test_latency_matches_percentile_definition(self, model, acc):
        result = simulate_serving(model, acc, _serving())
        lats = [r.latency_us for r in result.records
                if r.status == "completed"]
        assert result.metrics.latency_p50_us == percentile(lats, 50)
        assert result.metrics.latency_p99_us == percentile(lats, 99)


class TestUtilizationTrack:
    """The ``sa_utilization`` counter prices each batch like the summary:
    ideal cycles over compute for a sharded pipeline (no reloads) and
    over that run's own cycles with a memory system."""

    def _shares(self, model, acc, **overrides):
        cfg = ServingConfig(arrival_rate_rps=300, num_requests=200,
                            num_devices=2, seed=3, **overrides)
        result = simulate_serving(model, acc, cfg)
        return result, [
            sample / (batch.total_tokens / acc.seq_len)
            for (_, sample), batch in zip(result.util_samples,
                                          result.batches)
        ]

    def test_flat_replicate_charges_flat_reload(self, model, acc):
        _, shares = self._shares(model, acc)
        assert {round(s, 4) for s in shares} == {0.4573}

    def test_layer_shard_charges_compute_only(self, model, acc):
        _, shares = self._shares(model, acc, placement="layer_shard")
        cost = BatchCostModel(model, acc)
        assert {round(s, 4) for s in shares} == {0.8244}
        assert shares == pytest.approx(
            [cost.ideal_cycles / cost.compute_cycles] * len(shares)
        )

    def test_memory_system_charges_each_run(self, model, acc):
        result, shares = self._shares(
            model, acc, memory=memory_preset("ddr4-2400")
        )
        cost = BatchCostModel(model, acc)
        run_cycles = [s.args["cycles"] for s in result.spans
                      if s.track.startswith("device")]
        assert shares == pytest.approx(
            [cost.ideal_cycles / c for c in run_cycles]
        )
        assert {round(s, 4) for s in shares} == {0.5371}


class TestBatchingBeatsBatch1:
    def test_throughput_and_tail_latency(self, model, acc):
        # Same arrival process, same devices: only the policy differs.
        dyn = simulate_serving(model, acc, _serving()).metrics
        base = simulate_serving(
            model, acc, _serving(max_batch_requests=1)
        ).metrics
        assert dyn.throughput_rps > base.throughput_rps
        assert dyn.mean_batch_size > 1.0
        assert dyn.occupancy > base.occupancy

    def test_batch1_is_one_request_per_batch(self, model, acc):
        result = simulate_serving(
            model, acc, _serving(max_batch_requests=1)
        )
        assert all(b.num_requests == 1 for b in result.batches)


class TestOverloadAndTimeouts:
    def test_overload_rejects(self, model, acc):
        m = simulate_serving(
            model, acc,
            _serving(arrival_rate_rps=20000.0, num_requests=200,
                     queue_capacity=8, max_batch_requests=1),
        ).metrics
        assert m.rejected > 0
        assert m.rejection_rate > 0.3

    def test_timeouts_expire_waiters(self, model, acc):
        m = simulate_serving(
            model, acc,
            _serving(arrival_rate_rps=20000.0, num_requests=100,
                     queue_timeout_us=2000.0, max_batch_requests=1),
        ).metrics
        assert m.expired > 0
        assert m.completed + m.rejected + m.expired == 100

    def test_light_load_completes_everything(self, model, acc):
        m = simulate_serving(
            model, acc,
            _serving(arrival_rate_rps=50.0, num_requests=30),
        ).metrics
        assert m.completed == 30
        assert m.rejection_rate == 0.0


class TestMultiDevice:
    def test_second_device_raises_throughput(self, model, acc):
        one = simulate_serving(model, acc, _serving()).metrics
        two = simulate_serving(
            model, acc, _serving(num_devices=2)
        ).metrics
        assert two.throughput_rps > one.throughput_rps

    def test_layer_shard_pipelines(self, model, acc):
        shard = simulate_serving(
            model, acc,
            _serving(num_devices=4, placement="layer_shard"),
        ).metrics
        replicate = simulate_serving(model, acc, _serving()).metrics
        assert shard.throughput_rps > replicate.throughput_rps
        assert shard.completed == 80

    def test_shard_needs_enough_layers(self, model, acc):
        cost = BatchCostModel(model, acc)
        with pytest.raises(ServingError):
            WorkerPool(13, "layer_shard", cost, acc)


class TestTraceExport:
    def test_spans_open_as_chrome_trace(self, model, acc, tmp_path):
        result = simulate_serving(model, acc, _serving())
        path = tmp_path / "serving.json"
        count = result.write_trace(str(path))
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert count == len(events)
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        counters = [e for e in events if e["ph"] == "C"]
        assert complete and meta and counters
        tracks = {e["args"]["name"] for e in meta}
        assert "device0" in tracks
        assert "queue" in tracks
        # every complete event references a named track
        tids = {e["tid"] for e in meta}
        assert all(e["tid"] in tids for e in complete)
        assert payload["otherData"]["completed"] == (
            result.metrics.completed
        )


class TestExplicitWorkload:
    def test_trace_driven_run(self, model, acc):
        workload = trace_workload([(0.0, 16), (10.0, 16), (20.0, 32)])
        result = simulate_serving(
            model, acc, _serving(max_wait_us=0.0), workload=workload
        )
        assert result.metrics.completed == 3

    def test_rejects_oversized_request(self, model, acc):
        workload = trace_workload([(0.0, 100)])
        with pytest.raises(ServingError):
            simulate_serving(model, acc, _serving(), workload=workload)

    def test_rejects_unsorted_arrivals(self, model, acc):
        # Taken as given, the first listed arrival would anchor the
        # makespan 100 us late.
        workload = [Request(0, 100.0, 32), Request(1, 0.0, 32)]
        with pytest.raises(ServingError, match="non-decreasing"):
            simulate_serving(model, acc, _serving(), workload=workload)

    def test_rejects_max_len_beyond_sa(self, model):
        small_acc = AcceleratorConfig(seq_len=32)
        with pytest.raises(ServingError):
            simulate_serving(
                transformer_base(), small_acc, _serving(max_len=64)
            )

    def test_empty_queue_metrics_are_sane(self, model, acc):
        workload = trace_workload([(0.0, 16)])
        m = simulate_serving(
            model, acc, _serving(max_wait_us=0.0), workload=workload
        ).metrics
        assert m.completed == 1
        assert not math.isnan(m.latency_p50_us)

    def test_zero_completions_read_zero_latency(self, model, acc):
        # Every run faults and ABFT gets no retries: nothing completes.
        m = simulate_serving(
            model, acc.with_updates(abft_protected=True),
            _serving(batch_fault_rate=1.0, max_retries=0),
        ).metrics
        assert m.completed == 0 and m.failed == m.offered
        assert (m.latency_p50_us, m.latency_p95_us, m.latency_p99_us,
                m.latency_mean_us) == (0.0, 0.0, 0.0, 0.0)
        json.dumps(dataclasses.asdict(m), allow_nan=False)
