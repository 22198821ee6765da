"""The kernel log is the one record of a run; every view is built from it.

``EventKernel.log`` holds, in event order, a ``Dispatch`` per batch and
a ``Drop`` per request that never ran, plus the cluster hooks' sheds,
``Complete`` entries and autoscaler actions.  Records, metrics, Chrome
spans and request traces are functions of it after the run, so the
hooks build none of them.
"""

import ast
import dataclasses
import inspect
from collections import Counter

import pytest

import repro.cluster.simulator as cluster_sim
import repro.decode.serving as decode_sim
import repro.serving.simulator as serving_sim
from repro.cluster import pinned_cluster
from repro.cluster.autoscaler import ScaleAction
from repro.cluster.pools import PoolRuntime
from repro.cluster.simulator import _ClusterRun
from repro.cluster.workload import cluster_workload
from repro.config import (
    DecodeConfig,
    ServingConfig,
    paper_accelerator,
    transformer_base,
)
from repro.core.trace import TraceSpan
from repro.decode import simulate_decode
from repro.memsys import ddr4_2400
from repro.serving import poisson_workload, simulate_serving
from repro.serving.kernel import Complete, Dispatch, Drop, EventKernel

#: Builders no hook may call: the views build spans and trees.
VIEW_BUILDERS = {"TraceSpan", "Span", "request_trace", "stream_trace",
                 "request_root", "stream_root"}


def _hook_classes(module):
    return [
        cls for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, EventKernel) and cls is not EventKernel
        and cls.__module__ == module.__name__
    ]


class TestHooksBuildNoViews:
    def test_no_hook_constructs_spans_or_traces(self):
        hooks = [cls for module in (serving_sim, cluster_sim, decode_sim)
                 for cls in _hook_classes(module)]
        assert {cls.__name__ for cls in hooks} == {"_ClusterRun",
                                                    "_DecodeRun"}
        for cls in hooks + [EventKernel]:
            tree = ast.parse(inspect.getsource(cls).lstrip())
            called = {
                node.func.id if isinstance(node.func, ast.Name)
                else node.func.attr
                for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Name, ast.Attribute))
            }
            assert not called & VIEW_BUILDERS, cls.__name__

    def test_kernel_keeps_no_span_list(self):
        kernel = EventKernel([], [])
        assert not hasattr(kernel, "spans")
        assert kernel.log == []


class TestNoSpanDuringRun:
    """Devices log what each run did; every ``TraceSpan`` is drawn by the
    views after ``EventKernel.run`` returns.  Serving and cluster results
    draw theirs from the log only when ``spans`` is first read."""

    @pytest.fixture
    def counted_spans(self, monkeypatch):
        counts: Counter = Counter()
        running = []
        span_init, kernel_run = TraceSpan.__init__, EventKernel.run

        def counting_init(self, *args, **kwargs):
            counts["run" if running else "views"] += 1
            span_init(self, *args, **kwargs)

        def flagged_run(self):
            running.append(self)
            try:
                return kernel_run(self)
            finally:
                running.pop()

        monkeypatch.setattr(TraceSpan, "__init__", counting_init)
        monkeypatch.setattr(EventKernel, "run", flagged_run)
        return counts

    @pytest.mark.parametrize("overrides", [
        dict(memory=ddr4_2400(), batch_fault_rate=0.2,
             device_failure_rate=0.02, max_retries=2),
        dict(placement="layer_shard", queue_timeout_us=20_000.0),
    ])
    def test_serving(self, counted_spans, overrides):
        cfg = ServingConfig(arrival_rate_rps=1200.0, num_requests=120,
                            num_devices=3, seed=5, **overrides)
        acc = paper_accelerator().with_updates(abft_protected=True)
        result = simulate_serving(transformer_base(), acc, cfg)
        self._drawn_on_first_read(counted_spans, result)

    def test_cluster(self, counted_spans):
        result = cluster_sim.simulate_cluster(
            transformer_base(), pinned_cluster(requests_per_tenant=60)
        )
        self._drawn_on_first_read(counted_spans, result)

    @staticmethod
    def _drawn_on_first_read(counted_spans, result):
        assert counted_spans["run"] == counted_spans["views"] == 0
        spans = result.spans
        assert counted_spans["views"] == len(spans) > 0
        assert result.spans is spans
        assert counted_spans["views"] == len(spans)
        assert counted_spans["run"] == 0

    def test_decode(self, counted_spans):
        decode = DecodeConfig(num_streams=16, policy="prefill_chunk",
                              memory=ddr4_2400(), seed=2)
        result = simulate_decode(transformer_base(), paper_accelerator(),
                                 decode)
        assert counted_spans["run"] == 0
        assert counted_spans["views"] == len(result.spans) > 0


class TestLogAccounting:
    def test_serving_log_ends_every_request_once_in_time_order(self):
        cfg = ServingConfig(
            arrival_rate_rps=2400.0, num_requests=150, queue_capacity=8,
            queue_timeout_us=20_000.0, batch_fault_rate=0.3,
            max_retries=1, num_devices=2, device_failure_rate=0.02,
            seed=5,
        )
        acc = paper_accelerator().with_updates(abft_protected=True)
        seen = []
        kernel_init = EventKernel.__init__

        def keep_kernel(self, *args):
            seen.append(self)
            kernel_init(self, *args)

        EventKernel.__init__ = keep_kernel
        try:
            result = simulate_serving(transformer_base(), acc, cfg)
        finally:
            EventKernel.__init__ = kernel_init
        log = seen[0].log
        ended = [e.request.req_id for e in log if type(e) is Drop] + [
            r.req_id for e in log if type(e) is Dispatch
            for r in e.batch.requests
        ]
        assert sorted(ended) == [r.req_id for r in poisson_workload(cfg)]
        times = [e.at_us for e in log]
        assert times == sorted(times)
        assert {type(e) for e in log} <= {Dispatch, Drop}
        assert len(result.batches) == sum(type(e) is Dispatch for e in log)

    def test_cluster_log_holds_every_entry_kind(self):
        model = transformer_base()
        # A 5 ms queue timeout makes the pinned fleet expire a request.
        cluster = dataclasses.replace(
            pinned_cluster(requests_per_tenant=120, seed=0),
            queue_timeout_us=5_000.0,
        )
        requests = cluster_workload(cluster)
        pools = [PoolRuntime(p, cluster, model, 64) for p in cluster.pools]
        run = _ClusterRun(requests, pools, cluster, None)
        run.run()
        kinds = {type(e) for e in run.log}
        assert kinds == {Dispatch, Drop, Complete, ScaleAction}
        ended = [e.request.req_id for e in run.log if type(e) is Drop] + [
            r.req_id for e in run.log if type(e) is Complete
            for r in e.dispatch.batch.requests
        ]
        assert sorted(ended) == [r.req_id for r in requests]
        # Each completion follows its own dispatch.
        position = {id(e): i for i, e in enumerate(run.log)}
        assert all(position[id(e.dispatch)] < i
                   for i, e in enumerate(run.log) if type(e) is Complete)
