"""[A3] Serving: delivered throughput and tail latency under load.

Simulates the serving tier (Poisson traffic, dynamic batching, one
device) at three arrival rates and records throughput and p99 latency
for the dynamic policy against the batch-1 baseline — the trajectory
future scaling/caching/sharding PRs are measured against.  The timed
region is one full mid-load simulation.
"""

import time

from repro.analysis import render_table
from repro.config import ServingConfig
from repro.core.trace import TraceSpan
from repro.serving import simulate_serving
from repro.serving.kernel import EventKernel

RATES_RPS = (400.0, 1200.0, 2400.0)
SEED = 11


def _serving(rate, **overrides):
    return ServingConfig(
        arrival_rate_rps=rate, num_requests=160,
        min_len=8, max_len=32, seed=SEED, **overrides,
    )


def sweep(model, acc):
    rows = []
    stats = []
    for rate in RATES_RPS:
        dyn = simulate_serving(
            model, acc, _serving(rate, max_batch_requests=8,
                                 max_wait_us=1000.0)
        ).metrics
        base = simulate_serving(
            model, acc, _serving(rate, max_batch_requests=1)
        ).metrics
        rows.append([
            f"{rate:.0f}",
            f"{dyn.throughput_rps:.0f} / {base.throughput_rps:.0f}",
            f"{dyn.latency_p99_us / 1e3:.1f} / "
            f"{base.latency_p99_us / 1e3:.1f}",
            f"{dyn.rejection_rate:.0%} / {base.rejection_rate:.0%}",
            f"{dyn.occupancy:.0%}",
        ])
        stats.append((rate, dyn, base))
    return rows, stats


def test_bench_serving_throughput(benchmark, base_model, paper_acc,
                                  bench_headline, heap_events, call_count):
    rows, stats = sweep(base_model, paper_acc)
    _, mid_dyn, _ = stats[1]
    bench_headline("serving.throughput_rps_at_1200", mid_dyn.throughput_rps)
    bench_headline("serving.p99_us_at_1200", mid_dyn.latency_p99_us)
    print()
    print(render_table(
        "serving under Poisson load (dynamic x8 / batch-1, 1 device)",
        ["offered req/s", "throughput req/s", "p99 ms", "rejection",
         "occupancy"],
        rows,
    ))
    for rate, dyn, base in stats:
        # Dynamic batching never loses, and wins clearly once the
        # batch-1 design saturates (its capacity is ~185 req/s here).
        assert dyn.throughput_rps >= base.throughput_rps
        if rate >= RATES_RPS[1]:
            assert dyn.throughput_rps > 1.5 * base.throughput_rps
            assert dyn.latency_p99_us < base.latency_p99_us

    # Simulator wall-clock throughput: how many simulated requests the
    # serving simulator itself resolves per real second.  Gated loosely
    # (rel_tol 0.9) — it guards against order-of-magnitude slowdowns
    # from instrumentation, not against machine-to-machine jitter.
    # Its events per request, dispatch attempts per batch and spans
    # built without a reader are deterministic and pinned exactly: a
    # loop that goes back to redundant wakeups, or a result that draws
    # its spans eagerly, fails a pin.
    events_before = heap_events()
    attempts = call_count(EventKernel, "attempt_dispatch")
    spans = call_count(TraceSpan, "__init__")
    t0 = time.perf_counter()
    timed = simulate_serving(
        base_model, paper_acc,
        _serving(RATES_RPS[1], max_batch_requests=8, max_wait_us=1000.0),
    )
    elapsed = time.perf_counter() - t0
    bench_headline("serving.sim_requests_per_s",
                   len(timed.records) / elapsed)
    bench_headline("serving.events_per_request",
                   (heap_events() - events_before) / len(timed.records))
    bench_headline("serving.dispatch_attempts_per_batch",
                   attempts() / len(timed.batches))
    bench_headline("serving.spans_per_untraced_run", spans())

    result = benchmark(
        simulate_serving, base_model, paper_acc,
        _serving(RATES_RPS[1], max_batch_requests=8, max_wait_us=1000.0),
    )
    assert result.metrics.completed > 0
