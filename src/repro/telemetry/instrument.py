"""Recording helpers: fold simulation results into a registry.

These helpers define the repo's metric-name schema in one place, so the
scheduler, the reliability campaign, the simulators and the CLI all
emit the same series.  They only *read* the result objects handed to
them (duck typed) and run only when a caller passes a registry, which
no summary ever reads back: the scheduler imports this module lazily,
and the simulators fold their summaries from their own run's records
first.  So instrumentation can never perturb the model, and a registry
shared by several runs holds their union.

Schema (all labels are optional-by-construction; ``block`` is the
ResBlock, ``unit`` the hardware unit):

* ``repro_schedule_runs_total{block}`` — instrumented schedule builds;
* ``repro_schedule_cycles_total{block}`` — end-to-end latency cycles;
* ``repro_schedule_unit_busy_cycles_total{block,unit}`` — per-unit
  event time on the timeline;
* ``repro_schedule_sa_active_cycles_total{block}`` — useful MAC
  streaming cycles;
* ``repro_schedule_sa_passes_total{block}`` — SA passes issued;
* ``repro_schedule_memsys_stall_cycles_total{block}`` — SA cycles
  exposed to off-chip weight fetches;
* ``repro_reliability_trials_total{site,mode}`` /
  ``..._injected_total`` / ``..._detections_total`` /
  ``..._corrections_total`` / ``..._silent_total`` — fault-campaign
  outcome counters.

Cluster schema (:mod:`repro.cluster`; ``tenant`` is the traffic
source, ``pool`` the device pool, ``policy`` the router policy):

* ``repro_cluster_requests_offered_total{tenant}`` — arrivals;
* ``repro_cluster_requests_total{tenant,outcome}`` — final outcomes
  (``completed`` / ``shed`` / ``rejected`` / ``expired``);
* ``repro_cluster_slo_attained_total{tenant}`` — completions within
  the tenant's SLO;
* ``repro_cluster_latency_us{tenant}`` — completion-latency histogram;
* ``repro_cluster_routing_decisions_total{pool,policy}`` — requests
  the router sent to each pool;
* ``repro_cluster_shed_total`` — requests the SLO router refused;
* ``repro_cluster_autoscaler_actions_total{pool,direction,reason}`` —
  scale-ups/downs by trigger signal;
* ``repro_cluster_batches_total{pool}`` /
  ``..._batch_requests_total{pool}`` / ``..._batch_tokens_total{pool}``
  — per-pool dispatch accounting;
* ``repro_cluster_weight_cache_lookups_total{pool,outcome}`` —
  ResBlock weight-cache hits/misses;
* ``repro_cluster_queue_depth{pool}`` / ``repro_cluster_devices{pool}``
  — timeseries of queue pressure and replica count;
* gauges set at summary time: ``repro_cluster_slo_attainment{tenant}``
  (plus the unlabeled cluster-wide series),
  ``repro_cluster_pool_busy_fraction{pool}``,
  ``repro_cluster_throughput_rps``, ``repro_cluster_makespan_us``.

Decode schema (:mod:`repro.decode`; ``policy`` is the interleaving
policy, ``outcome`` a KV-residency hit/miss):

* ``repro_decode_streams_total{outcome}`` — stream outcomes
  (``completed`` / ``rejected``);
* ``repro_decode_steps_total{policy}`` — per-token decode steps run;
* ``repro_decode_batches_total{policy}`` /
  ``repro_decode_prefill_chunks_total{policy}`` — dispatch accounting;
* ``repro_decode_tokens_total`` — tokens emitted (prefill first token
  plus decode steps);
* ``repro_decode_kv_lookups_total{outcome}`` — page-granular KV
  residency reads (hits + misses == lookups, by construction);
* ``repro_decode_kv_refetch_cycles_total`` — off-chip cycles re-reading
  evicted K/V pages;
* ``repro_decode_prefill_latency_us`` — arrival-to-first-token
  histogram;
* ``repro_decode_token_latency_us`` — per-step inter-token histogram;
* gauges set at summary time: ``repro_decode_tokens_per_s``,
  ``repro_decode_kv_hit_rate``, ``repro_decode_makespan_us``.

Compress schema (:mod:`repro.compress`; ``spec`` is the compression
spec label — ``dense``, ``circ8``, ``2:4`` — and ``scheme`` its
family):

* ``repro_compress_points_total{scheme}`` — sweep points measured;
* ``repro_compress_layer_cycles_total{spec}`` — compressed MHA + FFN
  layer cycles at the swept operating point;
* ``repro_compress_index_overhead_cycles_total{spec}`` — paid
  circulant row-generator / N:M index-decode cycles;
* ``repro_compress_skipped_cycles_total{spec}`` — SA active cycles the
  sparsity skipped vs the dense schedule;
* ``repro_compress_memsys_stall_cycles_total{spec}`` — layer memsys
  stall at the swept point;
* gauges set per point: ``repro_compress_cycle_savings_frac{spec}``,
  ``repro_compress_weight_bytes_ratio{spec}``,
  ``repro_compress_layers_resident{spec}``, and — when the sweep
  measured them — ``repro_compress_bleu{spec}`` and
  ``repro_compress_throughput_rps{spec}``.

Serving schema (:mod:`repro.serving`; ``outcome``/``reason`` label the
request disposition):

* ``repro_serving_requests_offered_total`` /
  ``repro_serving_requests_total{outcome}`` /
  ``repro_serving_retries_total`` — request accounting;
* ``repro_serving_batches_total`` / ``..._batch_requests_total`` /
  ``..._batch_tokens_total`` — dispatch accounting;
* ``repro_serving_device_failures_total`` /
  ``repro_serving_corrupted_total`` /
  ``repro_serving_reload_stall_cycles_total`` — fault handling;
* ``repro_serving_weight_cache_lookups_total{outcome}`` — ResBlock
  weight-cache hits/misses;
* ``repro_serving_latency_us`` / ``repro_serving_queue_depth`` —
  latency histogram and queue-pressure series;
* gauges set at summary time: ``repro_serving_makespan_us``,
  ``repro_serving_device_busy_fraction``,
  ``repro_serving_sa_utilization``, ``repro_serving_occupancy``.

Observability schema (:mod:`repro.obs`; ``tenant`` labels the traffic
source and ``window`` the burn-rate lookback):

* ``repro_obs_traces_total{status}`` — request traces the collector
  observed, by terminal status;
* ``repro_obs_traces_retained_total`` — traces kept in full by the
  tail-based sampler (violations/retries/sheds always, plus the seeded
  head-sample);
* ``repro_obs_slo_good_total{tenant}`` / ``repro_obs_slo_bad_total{tenant}``
  — terminal request events the SLO monitor scored;
* ``repro_obs_burn_rate{tenant,window}`` — windowed burn-rate
  timeseries (bad fraction over the error budget, long + short
  windows);
* ``repro_obs_alerts_total{tenant}`` — burn-rate alert firings;
* ``repro_obs_alert_active{tenant}`` — 1 while a tenant's alert is
  firing, 0 once the short window clears.

Device-level schema (emitted by the instrumented units themselves):

* ``repro_sa_passes_total`` / ``repro_sa_compute_cycles_total`` /
  ``repro_sa_useful_macs_total`` —
  :class:`repro.core.systolic_array.SystolicArray` pass accounting;
* ``repro_memsys_prefetch_tiles_total`` /
  ``repro_memsys_prefetch_bytes_total`` /
  ``repro_memsys_stall_cycles_total`` —
  :class:`repro.memsys.prefetch.WeightPrefetcher` traffic.

:data:`METRIC_FAMILIES` below is the machine-readable form of this
schema; the statcheck PRC engine proves every emission site in the
package names one of these families, and every family is emitted
somewhere.
"""

from __future__ import annotations

from .registry import MetricsRegistry

#: Scheduler units recorded per block (mirrors core.trace._UNIT_TRACKS).
SCHEDULE_UNITS = ("sa", "softmax", "layernorm", "dram")

#: The canonical metric-family registry — every ``repro_*`` name any
#: module may emit.  Adding an emission site without registering its
#: family here fails ``repro check`` (PRC002); registering a family no
#: site emits warns (PRC003).  Keep sorted.
METRIC_FAMILIES: tuple[str, ...] = (
    "repro_cluster_autoscaler_actions_total",
    "repro_cluster_batch_requests_total",
    "repro_cluster_batch_tokens_total",
    "repro_cluster_batches_total",
    "repro_cluster_devices",
    "repro_cluster_latency_us",
    "repro_cluster_makespan_us",
    "repro_cluster_pool_busy_fraction",
    "repro_cluster_queue_depth",
    "repro_cluster_requests_offered_total",
    "repro_cluster_requests_total",
    "repro_cluster_routing_decisions_total",
    "repro_cluster_shed_total",
    "repro_cluster_slo_attained_total",
    "repro_cluster_slo_attainment",
    "repro_cluster_throughput_rps",
    "repro_cluster_weight_cache_lookups_total",
    "repro_compress_bleu",
    "repro_compress_cycle_savings_frac",
    "repro_compress_index_overhead_cycles_total",
    "repro_compress_layer_cycles_total",
    "repro_compress_layers_resident",
    "repro_compress_memsys_stall_cycles_total",
    "repro_compress_points_total",
    "repro_compress_skipped_cycles_total",
    "repro_compress_throughput_rps",
    "repro_compress_weight_bytes_ratio",
    "repro_decode_batches_total",
    "repro_decode_kv_hit_rate",
    "repro_decode_kv_lookups_total",
    "repro_decode_kv_refetch_cycles_total",
    "repro_decode_makespan_us",
    "repro_decode_prefill_chunks_total",
    "repro_decode_prefill_latency_us",
    "repro_decode_steps_total",
    "repro_decode_streams_total",
    "repro_decode_token_latency_us",
    "repro_decode_tokens_per_s",
    "repro_decode_tokens_total",
    "repro_memsys_prefetch_bytes_total",
    "repro_memsys_prefetch_tiles_total",
    "repro_memsys_stall_cycles_total",
    "repro_obs_alert_active",
    "repro_obs_alerts_total",
    "repro_obs_burn_rate",
    "repro_obs_slo_bad_total",
    "repro_obs_slo_good_total",
    "repro_obs_traces_retained_total",
    "repro_obs_traces_total",
    "repro_reliability_corrections_total",
    "repro_reliability_detections_total",
    "repro_reliability_injected_total",
    "repro_reliability_silent_total",
    "repro_reliability_trials_total",
    "repro_sa_compute_cycles_total",
    "repro_sa_passes_total",
    "repro_sa_useful_macs_total",
    "repro_schedule_cycles_total",
    "repro_schedule_memsys_stall_cycles_total",
    "repro_schedule_runs_total",
    "repro_schedule_sa_active_cycles_total",
    "repro_schedule_sa_passes_total",
    "repro_schedule_unit_busy_cycles_total",
    "repro_serving_batch_requests_total",
    "repro_serving_batch_tokens_total",
    "repro_serving_batches_total",
    "repro_serving_corrupted_total",
    "repro_serving_device_busy_fraction",
    "repro_serving_device_failures_total",
    "repro_serving_latency_us",
    "repro_serving_makespan_us",
    "repro_serving_occupancy",
    "repro_serving_queue_depth",
    "repro_serving_reload_stall_cycles_total",
    "repro_serving_requests_offered_total",
    "repro_serving_requests_total",
    "repro_serving_retries_total",
    "repro_serving_sa_utilization",
    "repro_serving_weight_cache_lookups_total",
)

#: Where each CycleBreakdown field surfaces in telemetry — the last hop
#: of the pricing chain (scheduler unit -> UNIT_PRICING -> breakdown
#: field -> metric family).  ``ideal_cycles`` is MACs / PE count, so it
#: surfaces through the useful-MAC counter rather than a latency family.
CYCLE_FIELD_FAMILIES: dict[str, str] = {
    "active_cycles": "repro_schedule_sa_active_cycles_total",
    "issue_cycles": "repro_schedule_unit_busy_cycles_total",
    "skew_cycles": "repro_schedule_unit_busy_cycles_total",
    "softmax_stall_cycles": "repro_schedule_unit_busy_cycles_total",
    "layernorm_cycles": "repro_schedule_unit_busy_cycles_total",
    "abft_cycles": "repro_schedule_unit_busy_cycles_total",
    "memsys_stall_cycles": "repro_schedule_memsys_stall_cycles_total",
    "total_cycles": "repro_schedule_cycles_total",
    "ideal_cycles": "repro_sa_useful_macs_total",
}


def record_schedule(result, registry: MetricsRegistry) -> None:
    """Record one :class:`~repro.core.scheduler.ScheduleResult`."""
    block = result.block
    registry.counter(
        "repro_schedule_runs_total",
        "Instrumented schedule builds",
    ).inc(1, block=block)
    registry.counter(
        "repro_schedule_cycles_total",
        "End-to-end ResBlock latency in cycles",
    ).inc(result.total_cycles, block=block)
    busy = registry.counter(
        "repro_schedule_unit_busy_cycles_total",
        "Cycles each hardware unit spends busy on the timeline",
    )
    for unit in SCHEDULE_UNITS:
        cycles = result.unit_busy_cycles(unit)
        if cycles:
            busy.inc(cycles, block=block, unit=unit)
    registry.counter(
        "repro_schedule_sa_active_cycles_total",
        "Useful MAC-streaming cycles on the systolic array",
    ).inc(result.sa_active_cycles, block=block)
    registry.counter(
        "repro_schedule_sa_passes_total",
        "Systolic-array passes issued",
    ).inc(len(result.sa_events), block=block)
    if result.memsys_stall_cycles:
        registry.counter(
            "repro_schedule_memsys_stall_cycles_total",
            "SA cycles exposed to off-chip weight-tile fetches",
        ).inc(result.memsys_stall_cycles, block=block)


def record_campaign(result, registry: MetricsRegistry) -> None:
    """Record a :class:`~repro.reliability.campaign.CampaignResult`."""
    trials = registry.counter(
        "repro_reliability_trials_total",
        "Fault-campaign trials run",
    )
    injected = registry.counter(
        "repro_reliability_injected_total",
        "Trials in which a fault was actually injected",
    )
    detections = registry.counter(
        "repro_reliability_detections_total",
        "Injected faults flagged by a checker (ABFT syndrome)",
    )
    corrections = registry.counter(
        "repro_reliability_corrections_total",
        "Injected faults repaired to the golden output",
    )
    silent = registry.counter(
        "repro_reliability_silent_total",
        "Injected faults that corrupted the output undetected",
    )
    for outcome in result.outcomes:
        labels = {"site": outcome.site, "mode": outcome.mode}
        trials.inc(1, **labels)
        if outcome.injected:
            injected.inc(1, **labels)
        if outcome.detected:
            detections.inc(1, **labels)
        if outcome.corrected:
            corrections.inc(1, **labels)
        if outcome.silent:
            silent.inc(1, **labels)


def record_serving(
    registry: MetricsRegistry,
    *,
    metrics,
    latencies_us,
    batch_sizes,
    batch_tokens,
    depth_samples=(),
) -> None:
    """Record one serving run into ``registry``, summary gauges last.

    ``metrics`` is the run's :class:`~repro.serving.metrics.ServingMetrics`
    (duck typed).  Defines the serving schema in one place, mirroring
    :func:`record_cluster`; counters accumulate across calls.
    """
    registry.counter(
        "repro_serving_requests_offered_total",
        "Requests that arrived at the admission queue",
    ).inc(metrics.offered)
    outcomes = registry.counter(
        "repro_serving_requests_total",
        "Requests by final outcome",
    )
    for outcome in ("completed", "rejected", "expired", "failed"):
        if getattr(metrics, outcome):
            outcomes.inc(getattr(metrics, outcome), outcome=outcome)
    registry.counter(
        "repro_serving_retries_total",
        "Batch re-runs triggered by ABFT-detected faults",
    ).inc(metrics.retried)
    registry.counter(
        "repro_serving_corrupted_total",
        "Completed requests whose batch took a silent fault",
    ).inc(metrics.corrupted)
    registry.counter(
        "repro_serving_device_failures_total",
        "Devices that fail-stopped during the run",
    ).inc(metrics.device_failures)
    registry.counter(
        "repro_serving_batches_total", "Batches dispatched",
    ).inc(len(batch_sizes))
    registry.counter(
        "repro_serving_batch_requests_total",
        "Requests summed over dispatched batches",
    ).inc(sum(batch_sizes))
    registry.counter(
        "repro_serving_batch_tokens_total",
        "Valid tokens summed over dispatched batches",
    ).inc(sum(batch_tokens))
    cache = registry.counter(
        "repro_serving_weight_cache_lookups_total",
        "ResBlock weight-set lookups by outcome",
    )
    if metrics.weight_cache_hits:
        cache.inc(metrics.weight_cache_hits, outcome="hit")
    if metrics.weight_cache_misses:
        cache.inc(metrics.weight_cache_misses, outcome="miss")
    registry.counter(
        "repro_serving_reload_stall_cycles_total",
        "Exposed weight-fetch cycles charged across batch runs",
    ).inc(metrics.reload_stall_cycles)
    latency = registry.histogram(
        "repro_serving_latency_us",
        "Arrival-to-completion latency of completed requests (us)",
    )
    for value in latencies_us:
        latency.observe(value)
    depth = registry.series(
        "repro_serving_queue_depth",
        "Admission-queue depth at each change",
    )
    for ts_us, value in depth_samples:
        depth.sample(ts_us, value)
    registry.gauge(
        "repro_serving_makespan_us", "Run makespan (us)",
    ).set(metrics.makespan_us)
    registry.gauge(
        "repro_serving_device_busy_fraction",
        "Busy device-time / total device-time",
    ).set(metrics.device_busy_fraction)
    registry.gauge(
        "repro_serving_sa_utilization",
        "Pool-wide useful-MAC utilization",
    ).set(metrics.sa_utilization)
    registry.gauge(
        "repro_serving_occupancy",
        "Valid tokens / (batches x SA rows)",
    ).set(metrics.occupancy)


def record_decode(
    registry: MetricsRegistry,
    *,
    policy: str,
    metrics,
    prefill_latencies_us: list,
    token_gaps_us: list,
    kv_hits: int,
    kv_misses: int,
) -> None:
    """Record one mixed prefill/decode run's ``repro_decode_*`` series.

    ``metrics`` is a :class:`~repro.decode.serving.DecodeMetrics` (duck
    typed).  Defines the decode schema (see the module docstring) in
    one place, mirroring :func:`record_cluster`.
    """
    streams = registry.counter(
        "repro_decode_streams_total",
        "Generation streams by final outcome",
    )
    if metrics.completed:
        streams.inc(metrics.completed, outcome="completed")
    if metrics.rejected:
        streams.inc(metrics.rejected, outcome="rejected")
    if metrics.decode_steps:
        registry.counter(
            "repro_decode_steps_total",
            "Per-token decode steps run",
        ).inc(metrics.decode_steps, policy=policy)
    if metrics.decode_batches:
        registry.counter(
            "repro_decode_batches_total",
            "Decode-step batch dispatches",
        ).inc(metrics.decode_batches, policy=policy)
    if metrics.prefill_chunks:
        registry.counter(
            "repro_decode_prefill_chunks_total",
            "Prefill dispatches (whole prompts or 64-row chunks)",
        ).inc(metrics.prefill_chunks, policy=policy)
    if metrics.decoded_tokens:
        registry.counter(
            "repro_decode_tokens_total",
            "Tokens emitted (first token per prefill + decode steps)",
        ).inc(metrics.decoded_tokens)
    lookups = registry.counter(
        "repro_decode_kv_lookups_total",
        "Page-granular KV residency reads by outcome",
    )
    if kv_hits:
        lookups.inc(kv_hits, outcome="hit")
    if kv_misses:
        lookups.inc(kv_misses, outcome="miss")
    if metrics.kv_refetch_cycles:
        registry.counter(
            "repro_decode_kv_refetch_cycles_total",
            "Off-chip cycles re-reading evicted K/V pages",
        ).inc(metrics.kv_refetch_cycles)
    prefill_hist = registry.histogram(
        "repro_decode_prefill_latency_us",
        "Arrival-to-first-token latency of completed prefills (us)",
    )
    for value in prefill_latencies_us:
        prefill_hist.observe(value)
    token_hist = registry.histogram(
        "repro_decode_token_latency_us",
        "Inter-token latency of decode steps (us)",
    )
    for value in token_gaps_us:
        token_hist.observe(value)
    registry.gauge(
        "repro_decode_tokens_per_s",
        "Decode-run token throughput over the makespan",
    ).set(metrics.tokens_per_s)
    registry.gauge(
        "repro_decode_kv_hit_rate",
        "Cumulative KV-cache page hit rate of the run",
    ).set(metrics.kv_hit_rate)
    registry.gauge(
        "repro_decode_makespan_us",
        "First arrival to last completion (us)",
    ).set(metrics.makespan_us)


def record_compress(registry: MetricsRegistry, *, point) -> None:
    """Record one compression sweep point's ``repro_compress_*`` series.

    ``point`` is a :class:`~repro.compress.sweep.CompressPoint` (duck
    typed).  Defines the compress schema (see the module docstring) in
    one place, mirroring :func:`record_decode`.
    """
    spec = point.label
    registry.counter(
        "repro_compress_points_total",
        "Compression sweep points measured",
    ).inc(1, scheme=point.spec.scheme)
    registry.counter(
        "repro_compress_layer_cycles_total",
        "Compressed MHA + FFN layer cycles at the swept point",
    ).inc(point.mha_cycles + point.ffn_cycles, spec=spec)
    if point.index_overhead_cycles:
        registry.counter(
            "repro_compress_index_overhead_cycles_total",
            "Paid circulant row-generator / N:M index-decode cycles",
        ).inc(point.index_overhead_cycles, spec=spec)
    if point.skipped_cycles:
        registry.counter(
            "repro_compress_skipped_cycles_total",
            "SA active cycles skipped vs the dense schedule",
        ).inc(point.skipped_cycles, spec=spec)
    if point.memsys_stall_cycles:
        registry.counter(
            "repro_compress_memsys_stall_cycles_total",
            "Layer memsys stall cycles at the swept point",
        ).inc(point.memsys_stall_cycles, spec=spec)
    registry.gauge(
        "repro_compress_cycle_savings_frac",
        "Layer cycle savings vs dense (negative = overhead dominates)",
    ).set(point.cycle_savings_frac, spec=spec)
    registry.gauge(
        "repro_compress_weight_bytes_ratio",
        "Compressed / dense layer weight bytes (metadata included)",
    ).set(point.weight_bytes_ratio, spec=spec)
    registry.gauge(
        "repro_compress_layers_resident",
        "Encoder-layer weight sets fitting the Table II BRAM budget",
    ).set(point.footprint.layers_resident, spec=spec)
    if point.bleu is not None:
        registry.gauge(
            "repro_compress_bleu",
            "BLEU proxy of the compressed NMT model",
        ).set(point.bleu, spec=spec)
    if point.throughput_rps is not None:
        registry.gauge(
            "repro_compress_throughput_rps",
            "Simulated serving throughput with the compressed cost model",
        ).set(point.throughput_rps, spec=spec)


def record_cluster(
    registry: MetricsRegistry,
    *,
    metrics,
    tenant_latencies_us: dict,
    routing_decisions: dict,
    actions: list,
    pools: list,
    pool_dispatches: dict,
    pool_device_samples: dict,
) -> None:
    """Record one cluster run into ``registry``, summary gauges last.

    Defines the ``repro_cluster_*`` schema (see the module docstring)
    in one place, mirroring :func:`record_serving`.
    ``metrics`` is the run's :class:`~repro.cluster.metrics.ClusterMetrics`
    and ``pools`` its :class:`~repro.cluster.pools.PoolRuntime` pools
    (both duck typed); ``actions`` its ``ScaleAction`` objects;
    ``pool_dispatches`` maps pool -> its logged dispatches.
    """
    from ..serving.views import cache_totals

    offered = registry.counter(
        "repro_cluster_requests_offered_total",
        "Requests each tenant's workload generated",
    )
    outcomes = registry.counter(
        "repro_cluster_requests_total",
        "Requests by tenant and final outcome",
    )
    attained = registry.counter(
        "repro_cluster_slo_attained_total",
        "Requests completed within their tenant's SLO",
    )
    latency = registry.histogram(
        "repro_cluster_latency_us",
        "Arrival-to-completion latency of completed requests (us)",
    )
    for tenant, summary in metrics.tenants.items():
        offered.inc(summary.offered, tenant=tenant)
        for outcome in ("completed", "shed", "rejected", "expired"):
            if getattr(summary, outcome):
                outcomes.inc(getattr(summary, outcome), tenant=tenant,
                             outcome=outcome)
        if summary.slo_attained:
            attained.inc(summary.slo_attained, tenant=tenant)
        for value in tenant_latencies_us[tenant]:
            latency.observe(value, tenant=tenant)
    decisions = registry.counter(
        "repro_cluster_routing_decisions_total",
        "Requests the router sent to each pool",
    )
    for pool, count in routing_decisions.items():
        if count:
            decisions.inc(count, pool=pool, policy=metrics.router_policy)
    registry.counter(
        "repro_cluster_shed_total",
        "Requests the SLO router refused at the door",
    ).inc(metrics.shed)
    scaled = registry.counter(
        "repro_cluster_autoscaler_actions_total",
        "Autoscaler scale-ups/downs by pool and trigger signal",
    )
    for action in actions:
        scaled.inc(1, pool=action.pool, direction=action.direction,
                   reason=action.reason)
    batches = registry.counter(
        "repro_cluster_batches_total", "Batches dispatched per pool",
    )
    batch_requests = registry.counter(
        "repro_cluster_batch_requests_total",
        "Requests summed over each pool's batches",
    )
    batch_tokens = registry.counter(
        "repro_cluster_batch_tokens_total",
        "Valid tokens summed over each pool's batches",
    )
    cache = registry.counter(
        "repro_cluster_weight_cache_lookups_total",
        "ResBlock weight-set lookups by pool and outcome",
    )
    depth = registry.series(
        "repro_cluster_queue_depth",
        "Per-pool admission-queue depth at each change",
    )
    devices = registry.series(
        "repro_cluster_devices",
        "Per-pool active replica count at each change",
    )
    for pool in pools:
        name = pool.name
        if pool_dispatches[name]:
            dispatched = [entry.batch for entry in pool_dispatches[name]]
            batches.inc(len(dispatched), pool=name)
            batch_requests.inc(sum(b.num_requests for b in dispatched),
                               pool=name)
            batch_tokens.inc(sum(b.total_tokens for b in dispatched),
                             pool=name)
        hits, misses, _ = cache_totals(pool_dispatches[name])
        if hits:
            cache.inc(hits, pool=name, outcome="hit")
        if misses:
            cache.inc(misses, pool=name, outcome="miss")
        for ts_us, value in pool.queue.depth_samples:
            depth.sample(ts_us, value, pool=name)
        for ts_us, value in pool_device_samples[name]:
            devices.sample(ts_us, value, pool=name)
    attainment = registry.gauge(
        "repro_cluster_slo_attainment",
        "SLO-attained fraction of offered requests",
    )
    for tenant, summary in metrics.tenants.items():
        attainment.set(summary.slo_attainment, tenant=tenant)
    busy = registry.gauge(
        "repro_cluster_pool_busy_fraction",
        "Busy device-time over provisioned device-time",
    )
    for name, summary in metrics.pools.items():
        busy.set(summary.busy_fraction, pool=name)
    attainment.set(metrics.slo_attainment)
    registry.gauge(
        "repro_cluster_throughput_rps",
        "Completed requests per second of makespan",
    ).set(metrics.throughput_rps)
    registry.gauge(
        "repro_cluster_makespan_us", "Run makespan (us)",
    ).set(metrics.makespan_us)
