"""[A7] Decode: mixed prefill/decode serving over the KV-cache model.

Runs the pinned generation scenario (24 Poisson streams, 96-256-token
prompts, 8-32 generated tokens each, DDR4-2400 KV refetch) under both
interleaving policies and records the A7 headlines `repro bench-diff`
gates on:

* ``decode.tokens_per_s`` — generation throughput under
  ``prefill_chunk`` (the throughput-oriented policy);
* ``decode.prefill_p99_us`` — time-to-first-token tail under
  ``prefill_chunk`` (what chunking exists to protect);
* ``decode.kv_hit_rate`` — KV residency under ``decode_priority``
  (streams drain serially, so the Table II BRAM budget holds each
  stream's working set);
* ``decode.events_per_request`` — event-kernel heap pops per stream of
  the ``prefill_chunk`` run, deterministic and pinned exactly: a loop
  that goes back to redundant wakeups fails it;
* ``decode.kv_lru_ops_per_lookup`` — LRU entries the K/V cache inserts
  or removes per ``lookup`` / ``populate`` call on the same run, pinned
  exactly: a segment is one LRU entry, so a cache that goes back to one
  entry per page fails it.  The run makes no ``WeightCache.access``
  call.

The acceptance criteria double as assertions: chunking beats
decode-priority on both prefill tail and token throughput for this
workload, while decode-priority keeps the KV cache hot.  The timed
region is one full mixed run.
"""

import dataclasses
from collections import OrderedDict

import repro.decode.kvcache
import repro.memsys.cache
from repro.analysis import render_table
from repro.config import AcceleratorConfig, DecodeConfig
from repro.decode import KVCacheModel, simulate_decode
from repro.memsys import WeightCache, memory_preset

SEED = 0


def pinned_decode_config(policy: str) -> DecodeConfig:
    return DecodeConfig(
        arrival_rate_rps=400.0,
        num_streams=24,
        prefill_len_min=96,
        prefill_len_max=256,
        decode_tokens_min=8,
        decode_tokens_max=32,
        policy=policy,
        max_decode_batch=8,
        memory=memory_preset("ddr4-2400"),
        seed=SEED,
    )


def test_bench_decode_mixed_serving(benchmark, base_model, bench_headline,
                                   heap_events):
    acc = AcceleratorConfig()
    events_before = heap_events()
    chunk_run = simulate_decode(
        base_model, acc, pinned_decode_config("prefill_chunk")
    )
    bench_headline("decode.events_per_request",
                   (heap_events() - events_before) / len(chunk_run.records))
    chunk = chunk_run.metrics
    prio = simulate_decode(
        base_model, acc, pinned_decode_config("decode_priority")
    ).metrics

    bench_headline("decode.tokens_per_s", chunk.tokens_per_s)
    bench_headline("decode.prefill_p99_us", chunk.prefill_p99_us)
    bench_headline("decode.kv_hit_rate", prio.kv_hit_rate)

    rows = []
    for label, m in (("prefill_chunk", chunk), ("decode_priority", prio)):
        rows.append([
            label,
            f"{m.tokens_per_s:.0f}",
            f"{m.prefill_p99_us / 1e3:.1f}",
            f"{m.mean_token_latency_us:.0f}",
            f"{m.kv_hit_rate:.1%}",
        ])
    print()
    print(render_table(
        "mixed prefill/decode: 24 streams at 400/s, DDR4-2400 KV",
        ["policy", "tok/s", "prefill p99 ms", "inter-token us",
         "KV hit"],
        rows,
    ))

    # Both policies complete the same workload.
    for m in (chunk, prio):
        assert m.offered == 24
        assert m.completed + m.rejected == m.offered
    assert chunk.decoded_tokens == prio.decoded_tokens
    # Acceptance criteria: chunking protects the prefill tail AND wins
    # on throughput for this workload; serial draining keeps KV hot.
    assert chunk.prefill_p99_us < prio.prefill_p99_us
    assert chunk.tokens_per_s > prio.tokens_per_s
    assert prio.kv_hit_rate > 0.9

    result = benchmark(
        simulate_decode, base_model, acc,
        dataclasses.replace(pinned_decode_config("prefill_chunk")),
    )
    assert result.metrics.decoded_tokens > 0


def test_bench_decode_kv_lru_ops(base_model, bench_headline, monkeypatch):
    ops = calls = lru_accesses = 0

    class CountedLRU(OrderedDict):
        """An LRU's ordered map that counts entry insertions and removals."""

        def __setitem__(self, key, value):
            nonlocal ops
            ops += key not in self
            super().__setitem__(key, value)

        def __delitem__(self, key):
            nonlocal ops
            ops += 1
            super().__delitem__(key)

        def pop(self, key, *default):
            nonlocal ops
            ops += key in self
            return super().pop(key, *default)

        def popitem(self, last=True):
            nonlocal ops
            ops += 1
            return super().popitem(last)

    def counted(method):
        def call(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return method(self, *args, **kwargs)
        return call

    def no_walk(self, *args):
        nonlocal lru_accesses
        lru_accesses += 1
        return access(self, *args)

    access = WeightCache.access
    # WeightCache's page map counts too (the K/V cache may not import
    # OrderedDict at all), so a cache that walks pages again fails the
    # pin as well as the assert below.
    monkeypatch.setattr(repro.decode.kvcache, "OrderedDict", CountedLRU,
                        raising=False)
    monkeypatch.setattr(repro.memsys.cache, "OrderedDict", CountedLRU)
    for name in ("lookup", "populate"):
        monkeypatch.setattr(KVCacheModel, name,
                            counted(getattr(KVCacheModel, name)))
    monkeypatch.setattr(WeightCache, "access", no_walk)
    simulate_decode(base_model, AcceleratorConfig(),
                    pinned_decode_config("prefill_chunk"))
    print(f"\n{ops} K/V LRU entry insertions and removals over {calls} "
          f"lookup/populate calls")
    bench_headline("decode.kv_lru_ops_per_lookup", ops / calls)
    assert calls > 0
    # No K/V lookup walks WeightCache page by page.
    assert lru_accesses == 0
