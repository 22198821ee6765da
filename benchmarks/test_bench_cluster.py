"""[A6] Cluster: SLO-aware routing + autoscaling vs static round-robin.

Runs the pinned heterogeneous scenario (two FPGA pools with different
memory systems + one V100 roofline pool, three tenants with diurnal /
steady / bursty arrivals) under the deadline-aware router with
autoscaling, and under static round-robin at the same per-pool device
budget.  Records the fleet's SLO attainment and throughput as the A6
headlines `repro bench-diff` gates on, and asserts the subsystem's
acceptance criterion: the smart policy beats the naive baseline on the
same workload at equal budget.  The timed region is one full smart run.
A sampled traced run pins the span nodes a tracer builds per request.
"""

import time

from repro.analysis import render_table
from repro.cluster import pinned_cluster, simulate_cluster
from repro.core.trace import TraceSpan
from repro.obs import SamplingPolicy, Span, TraceCollector, TraceSampler
from repro.serving.kernel import Dispatch, EventKernel

REQUESTS_PER_TENANT = 120
SEED = 0


def _run(model, policy, autoscale):
    cluster = pinned_cluster(
        requests_per_tenant=REQUESTS_PER_TENANT,
        router_policy=policy,
        autoscale=autoscale,
        seed=SEED,
    )
    return simulate_cluster(model, cluster).metrics


def test_bench_cluster_slo_routing(benchmark, base_model, bench_headline,
                                   heap_events, call_count, monkeypatch):
    smart = _run(base_model, "slo", autoscale=True)
    naive = _run(base_model, "round_robin", autoscale=False)

    bench_headline("cluster.slo_attainment", smart.slo_attainment)
    bench_headline("cluster.throughput_rps", smart.throughput_rps)
    bench_headline("cluster.p99_us", smart.latency_p99_us)
    bench_headline(
        "cluster.attainment_gain_vs_rr",
        smart.slo_attainment - naive.slo_attainment,
    )

    rows = []
    for label, cm in (("slo/autoscaled", smart),
                      ("round_robin/static", naive)):
        rows.append([
            label,
            f"{cm.slo_attainment:.1%}",
            f"{cm.latency_p99_us / 1e3:.1f}",
            f"{cm.throughput_rps:.0f}",
            f"{cm.shed}/{cm.rejected}/{cm.expired}",
        ])
    print()
    print(render_table(
        "cluster: 3 pools / 3 tenants at equal device budget",
        ["policy", "SLO attain", "p99 ms", "req/s", "shed/rej/exp"],
        rows,
    ))

    # Every request resolves, under both policies.
    for cm in (smart, naive):
        assert cm.offered == 3 * REQUESTS_PER_TENANT
        assert cm.offered == (
            cm.completed + cm.shed + cm.rejected + cm.expired
        )
    # The acceptance criterion: deadline-aware routing + autoscaling
    # measurably beats static round-robin at the same device budget.
    assert smart.slo_attainment > naive.slo_attainment
    assert smart.latency_p99_us < naive.latency_p99_us

    # Simulator wall-clock throughput, events per request, dispatch
    # attempts per batch and spans built without a reader (see the
    # serving bench for the loose rel_tol 0.9 band and the exact pins).
    events_before = heap_events()
    attempts = call_count(EventKernel, "attempt_dispatch")
    spans = call_count(TraceSpan, "__init__")
    t0 = time.perf_counter()
    timed = simulate_cluster(
        base_model,
        pinned_cluster(requests_per_tenant=REQUESTS_PER_TENANT,
                       router_policy="slo", autoscale=True, seed=SEED),
    )
    elapsed = time.perf_counter() - t0
    bench_headline("cluster.sim_requests_per_s",
                   len(timed.records) / elapsed)
    bench_headline("cluster.events_per_request",
                   (heap_events() - events_before) / len(timed.records))
    bench_headline("cluster.dispatch_attempts_per_batch",
                   attempts() / sum(type(e) is Dispatch for e in timed.log))
    bench_headline("cluster.spans_per_untraced_run", spans())

    # Span nodes a sampled tracer constructs per request, pinned exactly:
    # traces are sampled at the root and only kept trees grow hops, so
    # this equals the nodes kept (a regression that builds every tree
    # and prunes it after sampling reads about 4).
    built = 0
    init = Span.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting_init)
    traced = simulate_cluster(
        base_model,
        pinned_cluster(requests_per_tenant=REQUESTS_PER_TENANT,
                       router_policy="slo", autoscale=True, seed=SEED),
        tracer=TraceCollector(sampler=TraceSampler(SamplingPolicy())),
    )
    monkeypatch.setattr(Span, "__init__", init)
    bench_headline("obs.span_nodes_per_request",
                   built / len(traced.records))

    result = benchmark(
        simulate_cluster, base_model,
        pinned_cluster(requests_per_tenant=REQUESTS_PER_TENANT,
                       router_policy="slo", autoscale=True, seed=SEED),
    )
    assert result.metrics.completed > 0
