"""The output-equivalence corpus: nineteen simulator runs and their digests.

Each run is one seeded simulation made with a metrics registry and a
sampled :class:`~repro.obs.TraceCollector` attached.  Its outputs are
reduced to four sha256 digests, one per part:

* ``records`` — ``repr`` of ``astuple`` of the metrics and every record;
* ``trace`` — the ``write_trace`` Chrome JSON (with the burn-rate alert
  track for the monitored cluster run);
* ``prometheus`` — the registry's Prometheus text;
* ``otlp`` — the collected traces as OTLP JSON.

``digests.json`` pins every part of every run at every seed in
:data:`SEEDS`.  ``regenerate.py`` rewrites it; a change that moves a
digest must say which run moved and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Callable
from dataclasses import astuple
from typing import Any

from repro.cluster import pinned_cluster, simulate_cluster
from repro.cluster.scenario import bursty_obs_cluster
from repro.config import (
    AutoscalerConfig,
    ClusterConfig,
    DecodeConfig,
    ServingConfig,
    circulant_spec,
    paper_accelerator,
    transformer_base,
)
from repro.decode import simulate_decode
from repro.memsys import ddr4_2400
from repro.obs import (
    BurnRateMonitor,
    SamplingPolicy,
    TraceCollector,
    TraceSampler,
    traces_to_otlp,
)
from repro.serving import simulate_serving
from repro.telemetry import MetricsRegistry, to_prometheus_text

SEEDS = (0, 7)

DIGESTS_PATH = os.path.join(os.path.dirname(__file__), "digests.json")

PARTS = ("records", "trace", "prometheus", "otlp")


def _serving(config: ServingConfig, abft: bool = False) -> Callable:
    acc = paper_accelerator().with_updates(abft_protected=abft)

    def run(registry, tracer):
        result = simulate_serving(
            transformer_base(), acc, config,
            registry=registry, tracer=tracer,
        )
        return result, result.write_trace

    return run


def _cluster(config, monitored: bool = False) -> Callable:
    def run(registry, tracer):
        monitor = BurnRateMonitor() if monitored else None
        result = simulate_cluster(
            transformer_base(), config,
            registry=registry, tracer=tracer, monitor=monitor,
        )
        extra = monitor.alert_spans() if monitor is not None else None
        return result, lambda path: result.write_trace(path, extra)

    return run


def _with_autoscaler(config: ClusterConfig, **changes) -> ClusterConfig:
    return config.with_updates(
        autoscaler=config.autoscaler.with_updates(**changes)
    )


def _squeezed(config: ClusterConfig, rate: float,
              slo: float) -> ClusterConfig:
    return config.with_updates(tenants=tuple(
        t.with_updates(rate_rps=t.rate_rps * rate, slo_us=t.slo_us * slo)
        for t in config.tenants
    ))


def _warm_cache(config: ClusterConfig) -> ClusterConfig:
    """Give every FPGA pool a weight cache that holds the whole model."""
    return config.with_updates(pools=tuple(
        p.with_updates(memory=p.memory.with_updates(weight_cache_kib=45_000))
        if p.memory is not None else p
        for p in config.pools
    ))


def _flat(config: ClusterConfig) -> ClusterConfig:
    """Take every FPGA pool off its memory system."""
    return config.with_updates(pools=tuple(
        p.with_updates(memory=None) for p in config.pools
    ))


def _decode(config: DecodeConfig, model=None) -> Callable:
    def run(registry, tracer):
        result = simulate_decode(
            model or transformer_base(), paper_accelerator(), config,
            registry=registry, tracer=tracer,
        )
        return result, result.write_trace

    return run


def runs(seed: int) -> dict[str, Callable]:
    """The corpus at one seed: run name -> ``run(registry, tracer)``."""
    return {
        # bench/workloads.py's serving-memsys inputs at 2,000 requests.
        "serving-memsys": _serving(ServingConfig(
            arrival_rate_rps=250.0, num_requests=2000, min_len=8,
            max_len=64, num_devices=2, batch_fault_rate=0.02,
            memory=ddr4_2400(), seed=seed,
        ), abft=True),
        "serving-layer-shard": _serving(ServingConfig(
            num_requests=400, num_devices=3, placement="layer_shard",
            queue_timeout_us=20_000.0, seed=seed,
        )),
        "serving-abft-faults": _serving(ServingConfig(
            arrival_rate_rps=600.0, num_requests=400, num_devices=3,
            batch_fault_rate=0.05, device_failure_rate=0.005,
            max_retries=1, seed=seed,
        ), abft=True),
        "serving-circ8-ddr4": _serving(ServingConfig(
            arrival_rate_rps=400.0, num_requests=400,
            memory=ddr4_2400(), compression=circulant_spec(8), seed=seed,
        )),
        # A weight cache that holds all 30 ResBlocks: each device misses
        # its first run only, and device failures leave the rest warm.
        "serving-warm-cache": _serving(ServingConfig(
            num_requests=400, num_devices=2,
            memory=ddr4_2400().with_updates(weight_cache_kib=45_000),
            device_failure_rate=0.01, seed=seed,
        )),
        # Compressed weights without a memory system: the flat reload
        # is priced from the circ16 footprint.
        "serving-circ16-flat": _serving(ServingConfig(
            num_requests=400, num_devices=2,
            compression=circulant_spec(16), seed=seed,
        )),
        # Queue timeouts on replicas that fail-stop: most requests
        # expire, at their deadlines, while the pool is busy.
        "serving-replicas-expire": _serving(ServingConfig(
            arrival_rate_rps=900.0, num_requests=400, num_devices=2,
            queue_timeout_us=15_000.0, device_failure_rate=0.01,
            seed=seed,
        )),
        "cluster-slo-autoscaled": _cluster(
            pinned_cluster(requests_per_tenant=120, seed=seed)
        ),
        "cluster-round-robin-static": _cluster(pinned_cluster(
            requests_per_tenant=120, router_policy="round_robin",
            seed=seed,
        ).with_updates(autoscaler=AutoscalerConfig(enabled=False))),
        # The ewma router and the autoscaler's p99 signal.
        "cluster-ewma-p99": _cluster(_with_autoscaler(
            pinned_cluster(requests_per_tenant=120, router_policy="ewma",
                           seed=seed),
            scale_up_queue_depth=50.0, scale_up_p99_us=12_000.0,
        )),
        # Three times the pinned traffic against 0.3x the SLOs: the slo
        # router sheds over-share tenants.
        "cluster-slo-shedding": _cluster(_squeezed(
            pinned_cluster(requests_per_tenant=120, seed=seed),
            rate=3.0, slo=0.3,
        )),
        # Three times the pinned traffic through round-robin with a
        # queue timeout: requests expire on pools the autoscaler grows.
        "cluster-timeouts-expire": _cluster(_squeezed(
            pinned_cluster(requests_per_tenant=120,
                           router_policy="round_robin", seed=seed),
            rate=3.0, slo=1.0,
        ).with_updates(queue_timeout_us=15_000.0)),
        # Warm FPGA pools: devices the autoscaler adds join cold.
        "cluster-warm-cache": _cluster(_warm_cache(
            pinned_cluster(requests_per_tenant=120, seed=seed)
        )),
        # Dense FPGA pools without a memory system: the flat reload.
        "cluster-flat-fpga": _cluster(_flat(
            pinned_cluster(requests_per_tenant=120, seed=seed)
        )),
        "cluster-bursty-monitored": _cluster(
            bursty_obs_cluster(requests_per_tenant=200, seed=seed),
            monitored=True,
        ),
        "decode-default": _decode(DecodeConfig(seed=seed)),
        "decode-kv0": _decode(DecodeConfig(
            kv_capacity_bytes=0, memory=ddr4_2400(), seed=seed,
        )),
        "decode-ddr4-prefill-chunk": _decode(DecodeConfig(
            policy="prefill_chunk", num_devices=2, memory=ddr4_2400(),
            seed=seed,
        )),
        # Four K/V pages against segments of up to nine: the touch that
        # evicts the front of its own segment, next to real hits.
        "decode-kv-tight": _decode(DecodeConfig(
            num_streams=40, prefill_len_min=96, prefill_len_max=512,
            policy="prefill_chunk", num_devices=2, memory=ddr4_2400(),
            kv_capacity_bytes=262_144, seed=seed,
        ), model=transformer_base().with_updates(
            num_encoder_layers=1, num_decoder_layers=1,
        )),
    }


def _sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def digest(run: Callable[[Any, Any], tuple], seed: int) -> dict[str, str]:
    """Make one instrumented run and digest each of its parts."""
    registry = MetricsRegistry()
    tracer = TraceCollector(
        sampler=TraceSampler(SamplingPolicy(head_rate=0.05, seed=seed))
    )
    result, write_trace = run(registry, tracer)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        write_trace(path)
        with open(path, "rb") as handle:
            trace = handle.read()
    otlp = json.dumps(
        traces_to_otlp(tracer.traces, seed=seed), sort_keys=True,
        allow_nan=False,
    )
    records = (astuple(result.metrics),
               tuple(astuple(r) for r in result.records))
    return {
        "records": _sha(repr(records)),
        "trace": _sha(trace),
        "prometheus": _sha(to_prometheus_text(registry)),
        "otlp": _sha(otlp),
    }


def run_ids() -> list[tuple[str, int]]:
    """Every ``(run, seed)`` pair, in the order ``digests.json`` lists."""
    return [(name, seed) for seed in SEEDS for name in runs(seed)]


def key(name: str, seed: int) -> str:
    return f"{name}/seed{seed}"


def load_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)
