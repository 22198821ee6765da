"""[A5] Memory system: DDR4 stall shares and cross-batch weight caching.

Two claims the memsys subsystem is built around:

* at the paper point on a realistic DDR4-2400 link, double-buffered
  tile prefetch hides nearly all the weight traffic (SA stall share
  below 5% per ResBlock) while turning prefetch off exposes a large,
  measurable share;
* in serving, a cross-batch LRU weight cache big enough for the model
  turns reloads into hits (hit rate > 0) and moves p95 latency away
  from the flat-reload baseline.

The timed region is one full memory-system analysis of the paper point.
A third bench pins how often serving prices a DRAM transfer per
dispatch: each fixed ResBlock fetch is priced once per contender count,
so a thrashing cache must not re-price its misses on every run.  The
same run makes no ``WeightCache.access`` call: a replica's weight cache
is cold or warm, priced per pool, not an LRU walked per dispatch.
"""

from repro.analysis import render_table
from repro.config import MemoryConfig, ServingConfig
from repro.memsys import WeightCache, analyze_memory_system, ddr4_2400
from repro.serving import simulate_serving

# Transformer-base is ~42 MiB of int8 weights; 44 MiB of cache holds
# the whole model so steady-state batches run fully warm.
WHOLE_MODEL_CACHE_KIB = 44 * 1024


def _serving(**overrides):
    return ServingConfig(
        arrival_rate_rps=1200.0, num_requests=120,
        min_len=8, max_len=32, seed=11, **overrides,
    )


def test_bench_memsys_stall_shares(
    benchmark, base_model, paper_acc, bench_headline
):
    mem = ddr4_2400()
    report = benchmark(analyze_memory_system, base_model, paper_acc, mem)
    no_db = analyze_memory_system(
        base_model, paper_acc,
        mem.with_updates(double_buffered_prefetch=False),
    )
    rows = [
        [name, f"{db.total_cycles:,}", f"{db.stall_share:.1%}",
         f"{serial.total_cycles:,}", f"{serial.stall_share:.1%}"]
        for name, db, serial in (
            ("MHA", report.mha, no_db.mha),
            ("FFN", report.ffn, no_db.ffn),
        )
    ]
    print()
    print(render_table(
        "DDR4-2400 at the paper point (double-buffered / serialized)",
        ["block", "cycles (db)", "stall (db)",
         "cycles (serial)", "stall (serial)"],
        rows,
    ))
    print(f"steady-state crossover: {report.crossover_gbps:.2f} GB/s "
          f"peak -> {report.bound}-bound at {mem.bandwidth_gbps:g} GB/s")
    bench_headline("memsys.ddr4_mha_stall_share", report.mha.stall_share)
    bench_headline("memsys.ddr4_ffn_stall_share", report.ffn.stall_share)
    bench_headline("memsys.crossover_gbps", report.crossover_gbps)
    # Double buffering keeps the paper point compute-bound on DDR4...
    assert report.mha.stall_share < 0.05
    assert report.ffn.stall_share < 0.05
    assert report.bound == "compute"
    # ...and without it the same link exposes a large stall share.
    assert no_db.mha.stall_share > 0.20
    assert no_db.ffn.stall_share > 0.20


def test_bench_memsys_weight_cache(base_model, paper_acc, bench_headline):
    flat = simulate_serving(base_model, paper_acc, _serving()).metrics
    mem = ddr4_2400().with_updates(weight_cache_kib=WHOLE_MODEL_CACHE_KIB)
    cached = simulate_serving(
        base_model, paper_acc, _serving(memory=mem)
    ).metrics
    uncached = simulate_serving(
        base_model, paper_acc,
        _serving(memory=mem.with_updates(enable_weight_cache=False)),
    ).metrics
    rows = [
        ["flat reload", f"{flat.latency_p95_us:,.0f}", "-", "-"],
        ["LRU cache", f"{cached.latency_p95_us:,.0f}",
         f"{cached.weight_cache_hit_rate:.1%}",
         f"{cached.reload_stall_cycles:,}"],
        ["no cache", f"{uncached.latency_p95_us:,.0f}",
         f"{uncached.weight_cache_hit_rate:.1%}",
         f"{uncached.reload_stall_cycles:,}"],
    ]
    print()
    print(render_table(
        "serving on DDR4-2400 (whole-model cache vs none vs flat reload)",
        ["reload model", "p95 us", "hit rate", "reload stall cycles"],
        rows,
    ))
    bench_headline("memsys.serving_hit_rate", cached.weight_cache_hit_rate)
    bench_headline("memsys.serving_p95_flat_us", flat.latency_p95_us)
    bench_headline("memsys.serving_p95_cached_us", cached.latency_p95_us)
    # A warm cache serves hits and its p95 departs the flat baseline.
    assert cached.weight_cache_hit_rate > 0.0
    assert cached.latency_p95_us != flat.latency_p95_us
    # The cache is the reason: disabling it multiplies exposed traffic.
    assert uncached.weight_cache_hit_rate == 0.0
    assert uncached.reload_stall_cycles > cached.reload_stall_cycles


def test_bench_memsys_transfer_calls(
    base_model, paper_acc, bench_headline, monkeypatch
):
    # The default (Table II) cache holds one layer, so this run misses
    # on nearly every block of every dispatch.
    calls = 0
    transfer_cycles = MemoryConfig.transfer_cycles

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return transfer_cycles(self, *args)

    lru_accesses = 0

    def no_lru(self, *args):
        nonlocal lru_accesses
        lru_accesses += 1
        return access(self, *args)

    access = WeightCache.access
    monkeypatch.setattr(MemoryConfig, "transfer_cycles", counted)
    monkeypatch.setattr(WeightCache, "access", no_lru)
    metrics = simulate_serving(
        base_model, paper_acc, _serving(memory=ddr4_2400())
    ).metrics
    per_dispatch = calls / metrics.num_batches
    print(f"\n{calls} transfer_cycles calls over {metrics.num_batches} "
          f"dispatches ({metrics.weight_cache_misses} cache misses)")
    bench_headline("memsys.transfer_calls_per_dispatch", per_dispatch)
    # Pricing is per block and contender count, not per miss.
    assert calls < metrics.weight_cache_misses
    # No dispatch walks an LRU.
    assert lru_accesses == 0
