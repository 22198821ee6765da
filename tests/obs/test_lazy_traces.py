"""Request traces are sampled before they are built.

The simulators add their traces after a run, from the kernel log: each
request gets a root-only tree holding what the sampler reads, and only
a kept trace grows its hops.  So the span nodes constructed equal the
nodes the collector keeps, every dropped trace is a bare root, each
tree is validated once, and the retained set is exactly what the
sampler's rules pick: every non-completion, retry, corruption and SLO
violation, plus the head sample of the rest.
"""

import re
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import pinned_cluster, simulate_cluster
from repro.config import ServingConfig, paper_accelerator, transformer_base
from repro.obs import (
    RequestTrace,
    SamplingPolicy,
    Span,
    TraceCollector,
    TraceSampler,
)
from repro.serving import simulate_serving

MODEL = transformer_base()


@contextmanager
def counted_spans():
    """Counts ``Span`` constructions and ``Span.validate`` calls."""
    counts = {"built": 0, "validated": 0}
    init, validate = Span.__init__, Span.validate

    def counting_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counting_validate(self):
        counts["validated"] += 1
        validate(self)

    Span.__init__, Span.validate = counting_init, counting_validate
    try:
        yield counts
    finally:
        Span.__init__, Span.validate = init, validate


def head_sampled(sampler, req_id):
    """The sampler's verdict on a boring completion with this id."""
    boring = RequestTrace(req_id, "completed", Span("r", "request", 0, 0))
    return sampler.keep(boring)


def check_lazy(tracer, counts, offered, interesting, sampler):
    """The four properties, given the ids the tail rules must keep."""
    traces = tracer.traces
    kept_nodes = sum(1 for t in traces for _ in t.root.walk())
    assert counts["built"] == kept_nodes
    assert counts["validated"] == kept_nodes
    assert len(tracer) == offered
    for trace in traces:
        if not trace.sampled:
            assert trace.root.children == []
        expected = (trace.req_id in interesting
                    or head_sampled(sampler, trace.req_id))
        assert trace.sampled == expected, trace.req_id
        assert trace.sampled == bool(trace.root.children)


@st.composite
def serving_configs(draw):
    return ServingConfig(
        arrival_rate_rps=draw(st.sampled_from([300.0, 900.0, 2400.0])),
        num_requests=draw(st.integers(1, 80)),
        min_len=8,
        max_len=32,
        queue_capacity=draw(st.integers(2, 32)),
        queue_timeout_us=draw(st.sampled_from(
            [float("inf"), 4_000.0, 30_000.0]
        )),
        max_batch_requests=draw(st.integers(1, 8)),
        max_wait_us=draw(st.sampled_from([0.0, 500.0])),
        num_devices=draw(st.integers(1, 3)),
        placement=draw(st.sampled_from(["replicate", "layer_shard"])),
        batch_fault_rate=draw(st.sampled_from([0.0, 0.3])),
        device_failure_rate=draw(st.sampled_from([0.0, 0.05])),
        max_retries=draw(st.integers(0, 2)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestLazyBuild:
    @settings(max_examples=40, deadline=None)
    @given(serving=serving_configs(), abft=st.booleans(),
           head_rate=st.sampled_from([0.0, 0.05, 1.0]))
    def test_serving_builds_only_kept_trees(self, serving, abft,
                                            head_rate):
        acc = paper_accelerator().with_updates(abft_protected=abft)
        sampler = TraceSampler(SamplingPolicy(head_rate=head_rate))
        tracer = TraceCollector(sampler=sampler)
        with counted_spans() as counts:
            result = simulate_serving(MODEL, acc, serving, tracer=tracer)
        # Retried batches leave "batch<id>.retry<n>" markers.
        retried = {
            int(re.match(r"batch(\d+)\.retry", s.name).group(1))
            for s in result.spans if s.track == "faults"
            and ".retry" in s.name
        }
        interesting = {
            r.request.req_id for r in result.records
            if r.status != "completed" or r.corrupted
            or r.batch_id in retried
        }
        check_lazy(tracer, counts, result.metrics.offered, interesting,
                   sampler)

    def test_pinned_cluster_builds_only_kept_trees(self):
        cluster = pinned_cluster(requests_per_tenant=120, seed=0)
        sampler = TraceSampler(SamplingPolicy())
        tracer = TraceCollector(sampler=sampler)
        with counted_spans() as counts:
            result = simulate_cluster(MODEL, cluster, tracer=tracer)
        interesting = {
            r.request.req_id for r in result.records
            if r.status != "completed" or not r.attained
        }
        check_lazy(tracer, counts, result.metrics.offered, interesting,
                   sampler)
        # 360 roots plus the 63 hops of the 20 trees kept in full.
        assert counts["built"] == 423
