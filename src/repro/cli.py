"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``schedule`` — Algorithm 1 cycle counts / latency for a model preset.
* ``resources`` — the Table II analytic estimate.
* ``power`` — the Section V-B power split.
* ``tables`` — every paper comparison at once (the EXPERIMENTS.md view).
* ``trace`` — write a Chrome trace JSON of a ResBlock schedule.
* ``memsys`` — off-chip bandwidth sweep: per-link stall shares,
  utilization and the compute/memory-bound crossover bandwidth.
* ``serve-sim`` — discrete-event serving simulation with dynamic
  batching over the accelerator's cycle models (optionally with an
  off-chip memory system: ``--bandwidth-gbps`` / ``--memory-preset``,
  ``--weight-cache-kib``, ``--no-weight-cache``).
* ``cluster-sim`` — fleet-scale serving over the pinned heterogeneous
  scenario (2 FPGA pools + 1 GPU pool, 3 tenants): SLO-aware routing
  (``--policy``), threshold autoscaling (``--no-autoscale`` to freeze
  the budget), seeded end to end (``--seed``), with Chrome-trace and
  JSON-report outputs and an equal-budget round-robin comparison
  (``--compare-round-robin``).
* ``decode-sim`` — mixed prefill/decode serving over the fused
  attention and KV-cache models: autoregressive streams arrive, prefill
  (fused row-tiled schedule), then generate tokens step by step while
  new prefills compete for the device (``--policy decode_priority`` or
  ``prefill_chunk``), with KV residency priced through the memory
  system (``--kv-capacity-kib``, ``--memory-preset``).
* ``fault-campaign`` — sweep fault site x mode over seeded injection
  trials, report ABFT detection/correction/silent-corruption rates and
  the protection's cycle overhead.
* ``profile`` — cycle-attribution profiler: per-unit self-time/stall
  tables over the instrumented schedules (totals match the closed-form
  cycle model exactly), with collapsed-stack / JSON / Prometheus
  outputs; ``--compression`` profiles the compressed weight passes and
  splits the cycles the sparsity skipped from the index/row-generator
  overhead it paid.
* ``compress`` — block-circulant / N:M structured-sparsity sweep:
  compression ratio x cycle savings x memsys stall share per spec,
  optionally with the BLEU proxy on the synthetic NMT task
  (``--bleu``) and simulated serving throughput (``--serving``).
* ``bench-diff`` — perf-regression gate: compare ``BENCH_*.json``
  headlines against ``benchmarks/baseline.json`` tolerance bands;
  nonzero exit on any regression.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .analysis import deviation_row, render_table
from .config import AcceleratorConfig, preset
from .core import (
    PAPER_FFN_CYCLES,
    PAPER_FFN_SPEEDUP,
    PAPER_MHA_CYCLES,
    PAPER_MHA_SPEEDUP,
    PAPER_TABLE2,
    estimate_power,
    estimate_top,
    schedule_ffn,
    schedule_mha,
)
from .core.trace import write_trace
from .errors import ConfigError
from .gpu_model import ffn_latency_us, mha_latency_us, v100_batch1


#: The global flags' defaults; a command that ignores a flag refuses any
#: other value (:func:`_refuse_ignored`).
_GLOBAL_DEFAULTS = {
    "model": "transformer-base", "seq_len": 64, "clock_mhz": 200.0,
}


def _refuse_ignored(args, flags, why: str) -> None:
    """Raise :class:`ConfigError` if a global flag in ``flags`` that
    this command ignores was given a value other than its default."""
    for name in flags:
        if getattr(args, name) != _GLOBAL_DEFAULTS[name]:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} has no effect on {args.command}: {why}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SOCC 2020 Transformer-accelerator reproduction tools",
    )
    parser.add_argument(
        "--model", default=_GLOBAL_DEFAULTS["model"],
        help="Table I preset (default: transformer-base)",
    )
    parser.add_argument(
        "--seq-len", type=int, default=_GLOBAL_DEFAULTS["seq_len"],
        help="systolic-array rows / max sequence length (default: 64)",
    )
    parser.add_argument(
        "--clock-mhz", type=float, default=_GLOBAL_DEFAULTS["clock_mhz"],
        help="target clock (default: 200)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    schedule = sub.add_parser("schedule", help="cycle counts and latency")
    schedule.add_argument(
        "--gantt", action="store_true",
        help="also draw ASCII Gantt charts of both ResBlock timelines",
    )
    sub.add_parser("resources", help="Table II resource estimate")
    sub.add_parser("power", help="power split")
    sub.add_parser("tables", help="all paper comparisons")
    sub.add_parser("selftest", help="run the numerical-contract checks")
    check = sub.add_parser(
        "check",
        help="static checks: overflow certifier, schedule linter, AST/"
             "determinism lints, Q-format dataflow, pricing coverage",
        description=(
            "Run the statcheck gate: overflow certification, schedule "
            "lints, REP/DET source lints, the Q-format dataflow graph "
            "and pricing/telemetry coverage.  Exit codes: 0 = no "
            "error-severity findings (warnings never fail the gate); "
            "1 = at least one unsuppressed error finding; 2 = usage "
            "error (bad flags, malformed baseline file)."
        ),
    )
    check.add_argument(
        "--point", default="paper", metavar="NAME",
        help="configuration point to certify: 'paper' or a Table I "
             "preset name (default: paper)",
    )
    check.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="also write the findings/certified-bounds JSON artifact",
    )
    check.add_argument(
        "--sarif", dest="sarif_path", metavar="PATH",
        help="also write a SARIF 2.1.0 artifact (code-scanning upload)",
    )
    check.add_argument(
        "--baseline", dest="baseline_path", metavar="FILE",
        help="reviewed suppression file; matched findings are reported "
             "but do not fail the gate, stale entries warn (BAS001)",
    )
    check.add_argument(
        "--changed", action="store_true",
        help="incremental mode: replay cached results for source-"
             "scanning passes whose inputs are content-identical "
             "(cache file: --cache-file)",
    )
    check.add_argument(
        "--cache-file", default=".repro-check-cache.json", metavar="PATH",
        help="incremental cache location (default: "
             ".repro-check-cache.json; only used with --changed)",
    )
    check.add_argument(
        "--sa-acc-bits", type=int, default=None,
        help="override the declared SA accumulator width",
    )
    check.add_argument(
        "--seed-bug",
        choices=("sa-acc-width", "double-book", "unseeded-rng",
                 "set-order", "orphan-bound", "port-width",
                 "unpriced-cycle", "unregistered-metric"),
        help="deliberately break the run (gate self-proof; never "
             "touches the cache)",
    )
    check.add_argument(
        "--skip", action="append", default=[],
        choices=("overflow", "schedule", "ast", "det", "qformat",
                 "pricing"),
        help="skip one pass (repeatable)",
    )
    trace = sub.add_parser(
        "trace",
        help="write a Chrome trace JSON for one ResBlock schedule, or "
             "(with --requests) report causal request traces from a "
             "simulated serving/cluster/decode run",
    )
    trace.add_argument("--block", choices=("mha", "ffn"), default="mha")
    trace.add_argument(
        "--out", help="output .json path (required in block mode)"
    )
    trace.add_argument(
        "--requests", choices=("serving", "cluster", "decode"),
        default=None,
        help="trace a simulated run instead of one ResBlock schedule",
    )
    trace.add_argument(
        "--top", type=int, default=10,
        help="slowest requests to list in the report (default: 10)",
    )
    trace.add_argument(
        "--req-id", type=int, default=None,
        help="print the per-hop waterfall of one request id instead of "
             "the top-N summary",
    )
    trace.add_argument(
        "--otlp-out", metavar="PATH",
        help="also export the collected traces as OTLP-JSON",
    )
    trace.add_argument(
        "--requests-per-tenant", type=int, default=120,
        help="requests (serving), requests per tenant (cluster) or "
             "streams (decode) to simulate (default: 120)",
    )
    trace.add_argument(
        "--head-rate", type=float, default=0.05,
        help="head-sampling rate for unremarkable completed requests; "
             "SLO-violating/retried/shed traces are always kept in "
             "full (default: 0.05)",
    )
    trace.add_argument(
        "--seed", type=int, default=0,
        help="workload + sampling seed (default: 0)",
    )
    slo = sub.add_parser(
        "slo-report",
        help="per-tenant multi-window SLO burn-rate report over a "
             "simulated cluster run (timeline, violations, alert "
             "firings)",
    )
    slo.add_argument(
        "--scenario", choices=("pinned", "bursty"), default="pinned",
        help="cluster scenario: the pinned 3-pool/3-tenant mix, or the "
             "single-pool bursty tenant whose only scale-up signal is "
             "the burn-rate hook (default: pinned)",
    )
    slo.add_argument(
        "--requests-per-tenant", type=int, default=120,
        help="requests each tenant contributes (default: 120)",
    )
    slo.add_argument(
        "--objective", type=float, default=None,
        help="SLO objective to monitor against, e.g. 0.95 "
             "(default: the SloPolicy default)",
    )
    slo.add_argument(
        "--seed", type=int, default=0,
        help="cluster master RNG seed (default: 0)",
    )
    slo.add_argument(
        "--trace-out", metavar="PATH",
        help="optional Chrome trace with the slo_alerts track overlaid "
             "on the cluster timeline",
    )
    slo.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="write the burn-rate timeline + alert log as JSON",
    )
    memsys = sub.add_parser(
        "memsys",
        help="off-chip bandwidth sweep with stall shares and crossover",
    )
    memsys.add_argument(
        "--bandwidths", nargs="+", type=float, default=None,
        metavar="GBPS",
        help="peak GB/s values to sweep (default: the named presets)",
    )
    memsys.add_argument(
        "--burst-efficiency", type=float, default=0.8,
        help="sustained fraction of peak for --bandwidths (default: 0.8)",
    )
    memsys.add_argument(
        "--latency-cycles", type=int, default=24,
        help="per-transfer latency for --bandwidths (default: 24)",
    )
    memsys.add_argument(
        "--no-double-buffer", action="store_true",
        help="serialize every weight fetch instead of prefetching",
    )
    serve = sub.add_parser(
        "serve-sim", help="simulate inference serving with dynamic batching"
    )
    serve.add_argument(
        "--rate", type=float, default=2000.0,
        help="mean Poisson arrival rate, requests/s (default: 2000)",
    )
    serve.add_argument(
        "--requests", type=int, default=200,
        help="number of requests to simulate (default: 200)",
    )
    serve.add_argument(
        "--min-len", type=int, default=8,
        help="minimum request length in tokens (default: 8)",
    )
    serve.add_argument(
        "--max-len", type=int, default=None,
        help="maximum request length (default: the SA's seq-len)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8,
        help="dynamic-batching request cap; 1 = batch-1 (default: 8)",
    )
    serve.add_argument(
        "--max-wait-us", type=float, default=500.0,
        help="batch cut-off wait in microseconds (default: 500)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=64,
        help="admission-queue bound (default: 64)",
    )
    serve.add_argument(
        "--timeout-us", type=float, default=None,
        help="queue timeout in microseconds (default: none)",
    )
    serve.add_argument(
        "--devices", type=int, default=1,
        help="simulated accelerator count (default: 1)",
    )
    serve.add_argument(
        "--placement", choices=("replicate", "layer_shard"),
        default="replicate",
        help="model placement across devices (default: replicate)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="workload RNG seed (default: 0)",
    )
    serve.add_argument(
        "--compare-batch1", action="store_true",
        help="also run the batch-1 baseline on the same workload",
    )
    serve.add_argument(
        "--trace-out", help="optional Chrome trace JSON output path"
    )
    serve.add_argument(
        "--batch-fault-rate", type=float, default=0.0,
        help="per-batch-run fault probability (default: 0)",
    )
    serve.add_argument(
        "--device-failure-rate", type=float, default=0.0,
        help="per-batch-run device fail-stop probability (default: 0)",
    )
    serve.add_argument(
        "--max-retries", type=int, default=1,
        help="re-runs per batch after an ABFT-detected fault (default: 1)",
    )
    serve.add_argument(
        "--abft", action="store_true",
        help="protect the accelerator with ABFT checksums (faults are "
             "detected and retried instead of corrupting silently)",
    )
    serve.add_argument(
        "--bandwidth-gbps", type=float, default=None,
        help="model the off-chip link at this peak GB/s (default: "
             "weights are free to reload, the flat-reload accounting)",
    )
    serve.add_argument(
        "--memory-preset", default=None, metavar="NAME",
        help="named off-chip link (lpddr4-2133, ddr4-2400, ddr4-3200, "
             "hbm2-pc, unlimited); --bandwidth-gbps overrides its rate",
    )
    serve.add_argument(
        "--weight-cache-kib", type=float, default=None,
        help="per-device LRU weight-cache capacity in KiB (default: "
             "the Table II BRAM weight-memory budget)",
    )
    serve.add_argument(
        "--no-weight-cache", action="store_true",
        help="refetch every ResBlock's weights on every batch run",
    )
    cluster = sub.add_parser(
        "cluster-sim",
        help="fleet-scale serving: SLO routing + autoscaling over "
             "heterogeneous pools (the pinned 3-pool/3-tenant scenario)",
    )
    cluster.add_argument(
        "--requests-per-tenant", type=int, default=400,
        help="requests each tenant contributes (default: 400)",
    )
    cluster.add_argument(
        "--policy",
        choices=("round_robin", "least_queue", "ewma", "slo"),
        default="slo",
        help="router policy (default: slo)",
    )
    cluster.add_argument(
        "--no-autoscale", action="store_true",
        help="freeze every pool at its max_devices budget (static run)",
    )
    cluster.add_argument(
        "--seed", type=int, default=0,
        help="cluster master RNG seed (default: 0)",
    )
    cluster.add_argument(
        "--compare-round-robin", action="store_true",
        help="also run static round-robin at the same device budget "
             "and report the SLO-attainment delta",
    )
    cluster.add_argument(
        "--trace-out", help="optional Chrome trace JSON output path"
    )
    cluster.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="write the full cluster report (summary + per-tenant + "
             "per-pool + registry series) as JSON",
    )
    decode = sub.add_parser(
        "decode-sim",
        help="mixed prefill/decode serving over the fused-attention "
             "and KV-cache models",
    )
    decode.add_argument(
        "--policy", choices=("decode_priority", "prefill_chunk"),
        default="decode_priority",
        help="prefill/decode interleaving policy (default: "
             "decode_priority)",
    )
    decode.add_argument(
        "--streams", type=int, default=32,
        help="generation streams to simulate (default: 32)",
    )
    decode.add_argument(
        "--rate", type=float, default=200.0,
        help="mean Poisson stream arrival rate, streams/s (default: 200)",
    )
    decode.add_argument(
        "--prefill-min", type=int, default=96,
        help="minimum prompt length in tokens (default: 96)",
    )
    decode.add_argument(
        "--prefill-max", type=int, default=256,
        help="maximum prompt length in tokens (default: 256)",
    )
    decode.add_argument(
        "--decode-min", type=int, default=8,
        help="minimum generated tokens per stream (default: 8)",
    )
    decode.add_argument(
        "--decode-max", type=int, default=32,
        help="maximum generated tokens per stream (default: 32)",
    )
    decode.add_argument(
        "--max-decode-batch", type=int, default=8,
        help="decode streams stepped together per dispatch (default: 8)",
    )
    decode.add_argument(
        "--kv-capacity-kib", type=float, default=None,
        help="on-chip KV budget per device in KiB; 0 = always-refetch "
             "(default: the Table II BRAM weight-memory budget)",
    )
    decode.add_argument(
        "--devices", type=int, default=1,
        help="simulated accelerator count (default: 1)",
    )
    decode.add_argument(
        "--queue-capacity", type=int, default=256,
        help="pending-stream bound before rejection (default: 256)",
    )
    decode.add_argument(
        "--seed", type=int, default=0,
        help="workload RNG seed (default: 0)",
    )
    decode.add_argument(
        "--memory-preset", default=None, metavar="NAME",
        help="named off-chip link pricing KV refetch (lpddr4-2133, "
             "ddr4-2400, ddr4-3200, hbm2-pc, unlimited)",
    )
    decode.add_argument(
        "--bandwidth-gbps", type=float, default=None,
        help="override the off-chip link's peak GB/s",
    )
    decode.add_argument(
        "--compare-policies", action="store_true",
        help="also run the other policy on the same workload and show "
             "the prefill-p99 / tokens-per-s trade",
    )
    decode.add_argument(
        "--trace-out", help="optional Chrome trace JSON output path"
    )
    decode.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="write the repro_decode_* metrics registry as JSON",
    )
    profile = sub.add_parser(
        "profile",
        help="cycle-attribution profiler over the instrumented schedules",
    )
    profile.add_argument(
        "--point", default="paper", metavar="NAME",
        help="configuration point: 'paper' or a Table I preset name "
             "(default: paper)",
    )
    profile.add_argument(
        "--block", choices=("mha", "ffn", "both"), default="both",
        help="which ResBlock timelines to profile (default: both)",
    )
    profile.add_argument(
        "--bandwidth-gbps", type=float, default=None,
        help="profile with a finite off-chip link at this peak GB/s "
             "(adds the dram track's stall attribution)",
    )
    profile.add_argument(
        "--compression", default=None, metavar="SPEC",
        help="profile compressed weight passes: 'circN' "
             "(block-circulant, block size N) or 'N:M' (structured "
             "sparse); adds the skipped-vs-paid-overhead split",
    )
    profile.add_argument(
        "--collapsed", metavar="PATH",
        help="write collapsed-stack lines for flamegraph tooling",
    )
    profile.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="write the metrics registry as structured JSON",
    )
    profile.add_argument(
        "--prom", metavar="PATH",
        help="write the metrics registry as Prometheus text exposition",
    )
    bench_diff = sub.add_parser(
        "bench-diff",
        help="compare BENCH_*.json headlines against the committed "
             "baseline (nonzero exit on regression)",
    )
    bench_diff.add_argument(
        "--current", action="append", metavar="PATH", default=None,
        help="bench artifact(s) to gate (repeatable; default: every "
             "BENCH_*.json in the working directory)",
    )
    bench_diff.add_argument(
        "--baseline", default="benchmarks/baseline.json", metavar="PATH",
        help="pinned baseline document (default: benchmarks/baseline.json)",
    )
    bench_diff.add_argument(
        "--seed-slowdown", type=float, default=None, metavar="FACTOR",
        help="self-proof: perturb every current headline this many "
             "times in the bad direction and show the gate fails",
    )
    bench_diff.add_argument(
        "--only", action="append", metavar="PREFIX", default=None,
        help="gate only pinned headlines with this name prefix "
             "(repeatable; for suite-scoped runs, e.g. --only cluster.)",
    )
    bench_diff.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="also write the comparison report as JSON",
    )
    compress = sub.add_parser(
        "compress",
        help="block-circulant / N:M sparsity sweep: ratio x cycles x "
             "stalls x quality x throughput",
    )
    compress.add_argument(
        "--specs", nargs="+", default=None, metavar="SPEC",
        help="specs to sweep: 'dense', 'circN' or 'N:M' (default: "
             "dense circ4 circ8 circ16 2:4 1:4)",
    )
    compress.add_argument(
        "--memory-preset", default=None, metavar="NAME",
        help="named off-chip link for the stall terms (lpddr4-2133, "
             "ddr4-2400, ddr4-3200, hbm2-pc, unlimited)",
    )
    compress.add_argument(
        "--bandwidth-gbps", type=float, default=None,
        help="override the off-chip link's peak GB/s",
    )
    compress.add_argument(
        "--bleu", action="store_true",
        help="also train the synthetic-NMT toy model and report each "
             "spec's BLEU proxy through the dense-expansion path "
             "(slower)",
    )
    compress.add_argument(
        "--epochs", type=int, default=12,
        help="training epochs for the --bleu proxy model (default: 12)",
    )
    compress.add_argument(
        "--serving", action="store_true",
        help="also run the serving simulator per spec and report "
             "throughput with the compressed cost model",
    )
    compress.add_argument(
        "--seed", type=int, default=7,
        help="RNG seed for the --bleu proxy model (default: 7)",
    )
    compress.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="write the sweep points as JSON",
    )
    compress.add_argument(
        "--trace-out",
        help="optional Chrome trace JSON: one row per spec plus "
             "overhead/skipped/bytes counter tracks",
    )
    campaign = sub.add_parser(
        "fault-campaign",
        help="seeded fault-injection sweep with ABFT coverage report",
    )
    campaign.add_argument(
        "--trials", type=int, default=32,
        help="trials per (site, mode, rate) cell (default: 32)",
    )
    campaign.add_argument(
        "--sites", nargs="+", default=None, metavar="SITE",
        help="fault sites to sweep (default: all)",
    )
    campaign.add_argument(
        "--rates", nargs="+", type=float, default=[1.0], metavar="RATE",
        help="per-pass fault probabilities to sweep (default: 1.0)",
    )
    campaign.add_argument(
        "--depth", type=int, default=64,
        help="GEMM inner dimension k of each trial (default: 64)",
    )
    campaign.add_argument(
        "--no-abft", action="store_true",
        help="run the GEMM trials unprotected (baseline sweep)",
    )
    campaign.add_argument(
        "--seed", type=int, default=0,
        help="campaign master seed (default: 0)",
    )
    campaign.add_argument(
        "--end-to-end", action="store_true",
        help="also measure one stuck-PE fault through a full quantized "
             "MHA ResBlock vs the golden model (slower)",
    )
    return parser


def _configs(args):
    model = preset(args.model)
    acc = AcceleratorConfig(seq_len=args.seq_len, clock_mhz=args.clock_mhz)
    return model, acc


def _point_configs(args):
    """``(model, acc)`` of check's and profile's ``--point``."""
    if args.point == "paper":
        _refuse_ignored(args, _GLOBAL_DEFAULTS,
                        "--point paper fixes the configuration")
        return preset("transformer-base"), AcceleratorConfig()
    _refuse_ignored(args, ("model",), "--point names the preset")
    return preset(args.point), AcceleratorConfig(
        seq_len=args.seq_len, clock_mhz=args.clock_mhz
    )


def _cmd_schedule(args) -> None:
    model, acc = _configs(args)
    results = (("MHA", schedule_mha(model, acc)),
               ("FFN", schedule_ffn(model, acc)))
    rows = []
    for name, result in results:
        rows.append([
            name, result.total_cycles,
            f"{result.latency_us(acc.clock_mhz):.1f}",
            f"{result.sa_utilization:.1%}",
        ])
    print(render_table(
        f"{model.name} @ s={acc.seq_len}, {acc.clock_mhz:.0f} MHz",
        ["block", "cycles", "latency us", "SA util"], rows,
    ))
    if getattr(args, "gantt", False):
        from .core.gantt import render_gantt

        for _, result in results:
            print()
            print(render_gantt(result))


def _cmd_resources(args) -> None:
    model, acc = _configs(args)
    estimates = estimate_top(model, acc)
    rows = []
    for key in ("top", "sa", "softmax", "layernorm", "weight_memory"):
        e = estimates[key].as_dict()
        rows.append([key, int(e["lut"]), int(e["registers"]),
                     round(e["bram"], 1), int(e["dsp"])])
    print(render_table(
        f"resource estimate — {model.name}, s={acc.seq_len}",
        ["module", "LUT", "registers", "BRAM", "DSP"], rows,
    ))


def _cmd_power(args) -> None:
    model, acc = _configs(args)
    p = estimate_power(model, acc).as_dict()
    print(render_table(
        f"power estimate — {model.name} @ {acc.clock_mhz:.0f} MHz (W)",
        ["total", "dynamic", "static", "SA", "memory", "clock"],
        [[f"{p['total_w']:.1f}", f"{p['dynamic_w']:.1f}",
          f"{p['static_w']:.1f}", f"{p['sa_w']:.1f}",
          f"{p['memory_w']:.1f}", f"{p['clock_w']:.1f}"]],
    ))


def _cmd_tables(args) -> None:
    model, acc = _configs(args)
    mha = schedule_mha(model, acc)
    ffn = schedule_ffn(model, acc)
    is_paper_point = (
        model.name == "Transformer-base" and acc.seq_len == 64
    )
    if is_paper_point:
        print(render_table(
            "cycle counts vs paper",
            ["block", "measured", "paper", "deviation"],
            [deviation_row("MHA", mha.total_cycles, PAPER_MHA_CYCLES),
             deviation_row("FFN", ffn.total_cycles, PAPER_FFN_CYCLES)],
        ))
        print()
        spec = v100_batch1()
        gpu_mha = mha_latency_us(model, acc.seq_len, spec)
        gpu_ffn = ffn_latency_us(model, acc.seq_len, spec)
        fpga_mha = mha.latency_us(acc.clock_mhz)
        fpga_ffn = ffn.latency_us(acc.clock_mhz)
        print(render_table(
            "Table III vs paper",
            ["block", "speed-up", "paper"],
            [["MHA", f"{gpu_mha / fpga_mha:.1f}x", f"{PAPER_MHA_SPEEDUP}x"],
             ["FFN", f"{gpu_ffn / fpga_ffn:.1f}x", f"{PAPER_FFN_SPEEDUP}x"]],
        ))
        print()
        estimates = estimate_top(model, acc)
        rows = []
        for key in ("top", "sa", "softmax", "layernorm", "weight_memory"):
            ours = estimates[key].as_dict()
            paper = PAPER_TABLE2[key]
            rows.append([
                key, f"{int(ours['lut']):,} / {paper['lut']:,}",
                f"{ours['bram']:.1f} / {paper['bram']}",
                f"{int(ours['dsp'])} / {paper['dsp']}",
            ])
        print(render_table(
            "Table II vs paper (ours / paper)",
            ["module", "LUT", "BRAM", "DSP"], rows,
        ))
    else:
        _cmd_schedule(args)
        _cmd_resources(args)
        _cmd_power(args)


def _cmd_selftest(args) -> None:
    from .core.verification import run_selftest, selftest_passed

    _refuse_ignored(args, _GLOBAL_DEFAULTS, "it checks fixed contracts")
    results = run_selftest()
    rows = [[r.name, "PASS" if r.passed else "FAIL", r.detail]
            for r in results]
    print(render_table("numerical-contract self-test",
                       ["check", "status", "detail"], rows))
    if not selftest_passed(results):
        raise RuntimeError("self-test failed")


def _cmd_check(args) -> int:
    from .statcheck import CheckCache, OverflowPoint, run_check

    cache = None
    if args.changed and not args.seed_bug:
        cache = CheckCache.load(args.cache_file)
    try:
        model, acc = _point_configs(args)
        _refuse_ignored(args, ("clock_mhz",), "no check reads a clock")
        point = (OverflowPoint() if args.point == "paper"
                 else OverflowPoint.from_configs(model, acc))
        report = run_check(
            point=point,
            sa_acc_bits=args.sa_acc_bits,
            seed_bug=args.seed_bug,
            skip=tuple(args.skip),
            json_path=args.json_path,
            sarif_path=args.sarif_path,
            baseline_path=args.baseline_path,
            cache=cache,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render_text())
    if args.json_path:
        print(f"wrote findings artifact to {args.json_path}")
    if args.sarif_path:
        print(f"wrote SARIF artifact to {args.sarif_path}")
    return 0 if report.passed else 1


def _cmd_memsys(args) -> None:
    from .config import MemoryConfig
    from .memsys import (
        MEMORY_PRESETS,
        analyze_memory_system,
        steady_state_crossover_gbps,
    )

    model, acc = _configs(args)
    if args.bandwidths is not None:
        links = [
            (
                f"{bw:g} GB/s",
                MemoryConfig(
                    bandwidth_gbps=bw,
                    burst_efficiency=args.burst_efficiency,
                    transfer_latency_cycles=args.latency_cycles,
                    double_buffered_prefetch=not args.no_double_buffer,
                ),
            )
            for bw in args.bandwidths
        ]
    else:
        links = [
            (name, mem.with_updates(
                double_buffered_prefetch=not args.no_double_buffer,
            ))
            for name, mem in MEMORY_PRESETS.items()
            if name != "unlimited"
        ]
    rows = []
    for name, mem in links:
        report = analyze_memory_system(model, acc, mem)
        rows.append([
            name, f"{mem.bandwidth_gbps:g}",
            f"{report.mha.total_cycles:,}",
            f"{report.mha.stall_share:.1%}",
            f"{report.ffn.total_cycles:,}",
            f"{report.ffn.stall_share:.1%}",
            f"{report.ffn.utilization:.1%}",
            report.bound,
        ])
    prefetch = "off" if args.no_double_buffer else "on"
    print(render_table(
        f"memory system — {model.name}, s={acc.seq_len}, "
        f"{acc.clock_mhz:.0f} MHz, double-buffered prefetch {prefetch}",
        ["link", "GB/s", "MHA cycles", "MHA stall",
         "FFN cycles", "FFN stall", "FFN util", "bound"],
        rows,
    ))
    crossover = steady_state_crossover_gbps(
        model, acc,
        burst_efficiency=args.burst_efficiency,
        transfer_latency_cycles=args.latency_cycles,
    )
    print(f"\nsteady-state crossover: {crossover:.2f} GB/s peak "
          f"(at {args.burst_efficiency:.0%} burst efficiency) — links "
          f"below it starve the SA on weight fetches even with "
          f"double buffering")


def _memory(args):
    """Fold a command's memory flags into a MemoryConfig (or None).

    Reads whichever of ``--memory-preset``, ``--bandwidth-gbps``,
    ``--weight-cache-kib`` and ``--no-weight-cache`` the command takes;
    with none of them given the command runs without a memory system.
    """
    from .config import MemoryConfig
    from .memsys import memory_preset

    name = getattr(args, "memory_preset", None)
    updates = {}
    if args.bandwidth_gbps is not None:
        updates["bandwidth_gbps"] = args.bandwidth_gbps
    if getattr(args, "weight_cache_kib", None) is not None:
        updates["weight_cache_kib"] = args.weight_cache_kib
    if getattr(args, "no_weight_cache", False):
        updates["enable_weight_cache"] = False
    if name is None and not updates:
        return None
    mem = memory_preset(name) if name is not None else MemoryConfig()
    return mem.with_updates(**updates)


def _cmd_serve_sim(args) -> None:
    from .config import ServingConfig
    from .serving import simulate_serving

    model, acc = _configs(args)
    if args.abft:
        acc = acc.with_updates(abft_protected=True)
    serving = ServingConfig(
        arrival_rate_rps=args.rate,
        num_requests=args.requests,
        min_len=args.min_len,
        max_len=acc.seq_len if args.max_len is None else args.max_len,
        queue_capacity=args.queue_capacity,
        queue_timeout_us=(
            float("inf") if args.timeout_us is None else args.timeout_us
        ),
        max_batch_requests=args.max_batch,
        max_wait_us=args.max_wait_us,
        num_devices=args.devices,
        placement=args.placement,
        batch_fault_rate=args.batch_fault_rate,
        device_failure_rate=args.device_failure_rate,
        max_retries=args.max_retries,
        seed=args.seed,
        memory=_memory(args),
    )
    result = simulate_serving(model, acc, serving)
    print(render_table(
        f"serving — {model.name}, {args.devices} device(s), "
        f"{args.rate:.0f} req/s, max batch {args.max_batch}",
        ["metric", "value"], result.metrics.as_rows(),
    ))
    if args.compare_batch1:
        base = simulate_serving(
            model, acc, serving.with_updates(max_batch_requests=1)
        )
        speedup = (result.metrics.throughput_rps
                   / base.metrics.throughput_rps
                   if base.metrics.throughput_rps else float("inf"))
        print()
        print(render_table(
            "dynamic batching vs batch-1 (same workload)",
            ["metric", "dynamic", "batch-1"],
            [["throughput",
              f"{result.metrics.throughput_rps:.1f} req/s",
              f"{base.metrics.throughput_rps:.1f} req/s"],
             ["p99 latency",
              f"{result.metrics.latency_p99_us:.0f} us",
              f"{base.metrics.latency_p99_us:.0f} us"],
             ["rejection rate",
              f"{result.metrics.rejection_rate:.1%}",
              f"{base.metrics.rejection_rate:.1%}"],
             ["speed-up", f"{speedup:.2f}x", "1.00x"]],
        ))
    if args.trace_out:
        count = result.write_trace(args.trace_out)
        print(f"\nwrote {count} trace events to {args.trace_out}")


def _cmd_cluster_sim(args) -> None:
    import dataclasses
    import json

    from .cluster import pinned_cluster, simulate_cluster
    from .telemetry import MetricsRegistry, to_json

    _refuse_ignored(args, ("clock_mhz",), "each pool sets its own clock")
    model = preset(args.model)
    cluster = pinned_cluster(
        requests_per_tenant=args.requests_per_tenant,
        router_policy=args.policy,
        autoscale=not args.no_autoscale,
        seed=args.seed,
    )
    registry = MetricsRegistry()
    result = simulate_cluster(
        model, cluster, registry=registry, seq_len=args.seq_len
    )
    metrics = result.metrics
    mode = "static" if args.no_autoscale else "autoscaled"
    print(render_table(
        f"cluster — {model.name}, {len(cluster.pools)} pools / "
        f"{len(cluster.tenants)} tenants, policy {args.policy}, {mode}, "
        f"seed {args.seed}",
        ["metric", "value"], metrics.as_rows(),
    ))
    if args.compare_round_robin:
        baseline_cfg = pinned_cluster(
            requests_per_tenant=args.requests_per_tenant,
            router_policy="round_robin",
            autoscale=False,
            seed=args.seed,
        )
        baseline = simulate_cluster(
            model, baseline_cfg, seq_len=args.seq_len
        ).metrics
        delta = metrics.slo_attainment - baseline.slo_attainment
        print()
        print(render_table(
            "vs static round-robin at equal device budget",
            ["metric", f"{args.policy}/{mode}", "round_robin/static"],
            [["SLO attainment",
              f"{metrics.slo_attainment:.1%}",
              f"{baseline.slo_attainment:.1%}"],
             ["p99 latency",
              f"{metrics.latency_p99_us:.0f} us",
              f"{baseline.latency_p99_us:.0f} us"],
             ["throughput",
              f"{metrics.throughput_rps:.1f} req/s",
              f"{baseline.throughput_rps:.1f} req/s"],
             ["attainment delta", f"{delta:+.1%}", "—"]],
        ))
    if args.trace_out:
        count = result.write_trace(args.trace_out)
        print(f"\nwrote {count} trace events to {args.trace_out}")
    if args.json_path:
        report = {
            "policy": args.policy,
            "autoscale": not args.no_autoscale,
            "seed": args.seed,
            "summary": {
                k: v for k, v in dataclasses.asdict(metrics).items()
                if k not in ("tenants", "pools")
            },
            "tenants": {
                name: dataclasses.asdict(t)
                for name, t in metrics.tenants.items()
            },
            "pools": {
                name: dataclasses.asdict(p)
                for name, p in metrics.pools.items()
            },
            "registry": to_json(registry),
        }
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True,
                      allow_nan=False)
        print(f"wrote cluster report to {args.json_path}")


def _cmd_decode_sim(args) -> None:
    from .config import DecodeConfig
    from .decode import simulate_decode
    from .telemetry import MetricsRegistry, write_json

    model, acc = _configs(args)
    decode = DecodeConfig(
        arrival_rate_rps=args.rate,
        num_streams=args.streams,
        prefill_len_min=args.prefill_min,
        prefill_len_max=args.prefill_max,
        decode_tokens_min=args.decode_min,
        decode_tokens_max=args.decode_max,
        policy=args.policy,
        max_decode_batch=args.max_decode_batch,
        kv_capacity_bytes=(
            None if args.kv_capacity_kib is None
            else int(args.kv_capacity_kib * 1024)
        ),
        num_devices=args.devices,
        queue_capacity=args.queue_capacity,
        seed=args.seed,
        memory=_memory(args),
    )
    registry = MetricsRegistry()
    result = simulate_decode(model, acc, decode, registry=registry)
    m = result.metrics

    print(render_table(
        f"decode — {model.name}, {args.devices} device(s), "
        f"policy {args.policy}, {args.streams} streams, seed {args.seed}",
        ["metric", "value"], m.as_rows(),
    ))
    if args.compare_policies:
        other_policy = ("prefill_chunk" if args.policy == "decode_priority"
                        else "decode_priority")
        other = simulate_decode(
            model, acc, decode.with_updates(policy=other_policy)
        ).metrics
        print()
        print(render_table(
            "policy comparison (same workload)",
            ["metric", args.policy, other_policy],
            [["tokens/s", f"{m.tokens_per_s:.1f}",
              f"{other.tokens_per_s:.1f}"],
             ["prefill p99", f"{m.prefill_p99_us:.0f} us",
              f"{other.prefill_p99_us:.0f} us"],
             ["mean inter-token", f"{m.mean_token_latency_us:.1f} us",
              f"{other.mean_token_latency_us:.1f} us"],
             ["KV hit rate", f"{m.kv_hit_rate:.1%}",
              f"{other.kv_hit_rate:.1%}"]],
        ))
    if args.trace_out:
        count = result.write_trace(args.trace_out)
        print(f"\nwrote {count} trace events to {args.trace_out}")
    if args.json_path:
        write_json(registry, args.json_path)
        print(f"wrote decode metrics JSON to {args.json_path}")


def _cmd_fault_campaign(args) -> None:
    from .reliability import (
        CampaignSpec,
        abft_cycle_overhead,
        resblock_fault_impact,
        run_campaign,
    )

    model, acc = _configs(args)
    spec = CampaignSpec(
        seq_len=acc.seq_len,
        depth=args.depth,
        trials=args.trials,
        rates=tuple(args.rates),
        sites=(tuple(args.sites) if args.sites
               else CampaignSpec().sites),
        abft=not args.no_abft,
        seed=args.seed,
    )
    result = run_campaign(spec)
    rows = [
        [site, mode, f"{rate:g}", str(injected),
         f"{detect:.1%}", f"{correct:.1%}", f"{silent:.1%}",
         f"{err:g}"]
        for site, mode, rate, injected, detect, correct, silent, err
        in result.summary_rows()
    ]
    protection = "ABFT on" if spec.abft else "unprotected"
    print(render_table(
        f"fault campaign — s={spec.seq_len}, k={spec.depth}, "
        f"{spec.trials} trials/cell, {protection}, seed {spec.seed}",
        ["site", "mode", "rate", "inj", "detect", "correct",
         "silent", "max err"],
        rows,
    ))
    overhead = abft_cycle_overhead(model, acc)
    print()
    print(render_table(
        "ABFT schedule overhead (MHA + FFN ResBlock pair)",
        ["metric", "value"],
        [["baseline cycles", f"{overhead.baseline_cycles:,}"],
         ["protected cycles", f"{overhead.protected_cycles:,}"],
         ["overhead", f"{overhead.overhead_cycles:,} cycles "
                      f"({overhead.overhead_fraction:.2%})"]],
    ))
    if args.end_to_end:
        impact = resblock_fault_impact(seed=args.seed)
        print()
        print(render_table(
            "stuck-PE impact on one quantized MHA ResBlock",
            ["metric", "value"],
            [["max |error|", f"{impact.max_abs_error:.4f}"],
             ["mean |error|", f"{impact.mean_abs_error:.6f}"],
             ["rows affected", str(impact.rows_affected)]],
        ))


def _cmd_profile(args) -> int:
    from .core.cycle_model import (
        DENSE,
        ffn_cycle_breakdown,
        mha_cycle_breakdown,
    )
    from .telemetry import (
        MetricsRegistry,
        profile_schedule,
        to_prometheus_text,
        write_collapsed,
        write_json,
    )

    model, acc = _point_configs(args)
    mem = _memory(args)
    registry = MetricsRegistry()
    blocks = ("mha", "ffn") if args.block == "both" else (args.block,)
    schedulers = {"mha": schedule_mha, "ffn": schedule_ffn}
    closed_forms = {"mha": mha_cycle_breakdown, "ffn": ffn_cycle_breakdown}
    spec = (_parse_compression(args.compression)
            if getattr(args, "compression", None) else None)
    priced = DENSE if spec is None else spec
    results = []
    mismatch = False
    for block in blocks:
        result = schedulers[block](model, acc, mem, registry=registry,
                                   spec=priced)
        results.append(result)
        prof = profile_schedule(result)
        closed = closed_forms[block](model, acc, mem, priced).total_cycles
        title = f"{block.upper()} cycle attribution — {model.name}, "
        if spec is not None:
            title += f"compression {spec.label}, "
        print(render_table(
            title + f"s={acc.seq_len}",
            ["unit", "busy", "active", "overhead", "exclusive", "share"],
            prof.rows(),
        ))
        agree = prof.attributed_cycles == closed == result.total_cycles
        print(
            f"attributed {prof.attributed_cycles:,} cycles; closed-form "
            f"model says {closed:,} — "
            + ("exact match" if agree else "MISMATCH")
        )
        # Padding waste: streamed cycles count every SA column the
        # array clocked, effective cycles only the useful MACs — the
        # gap is the zero-padding of partial tiles (near-zero at full
        # prefill rows, ~(s-1)/s for a one-row decode pass).
        # Under compression the effective number stays on the dense MAC
        # roofline so it reads as speedup-vs-dense-ideal: >100% means
        # pruned MACs let the array outrun its own dense peak.
        roofline = " of the dense roofline" if spec is not None else ""
        print(
            f"SA utilization: {result.sa_utilization:.1%} effective "
            f"(useful MACs{roofline}) vs {result.padded_sa_utilization:.1%} "
            f"streamed (incl. zero-padded rows)"
        )
        if spec is not None:
            # The compressed split: the paid overhead is on the wall
            # clock (inside the sa row's overhead attribution, so the
            # partition above still sums exactly); the skipped MACs
            # never ran, so they are reported as avoided cycles next
            # to the dense reference rather than folded into a row.
            dense_result = schedulers[block](model, acc, mem)
            skipped = (dense_result.sa_active_cycles
                       - result.sa_active_cycles)
            savings = 1.0 - result.total_cycles / dense_result.total_cycles
            print(
                f"compressed split ({spec.label}): paid "
                f"{result.compress_overhead_cycles:,} index/row-gen "
                f"overhead cycles on the wall clock; skipped "
                f"{skipped:,} MAC cycles vs dense "
                f"({dense_result.total_cycles:,} -> "
                f"{result.total_cycles:,}, {savings:+.1%})"
            )
        print()
        if not agree:
            mismatch = True
    if args.collapsed:
        count = write_collapsed(results, args.collapsed)
        print(f"wrote {count} collapsed-stack lines to {args.collapsed}")
    if args.json_path:
        write_json(registry, args.json_path)
        print(f"wrote metrics JSON to {args.json_path}")
    if args.prom:
        with open(args.prom, "w") as handle:
            handle.write(to_prometheus_text(registry))
        print(f"wrote Prometheus exposition to {args.prom}")
    return 1 if mismatch else 0


def _parse_compression(text: str):
    """Parse a CLI spec string: ``dense``, ``circN`` or ``N:M``."""
    from .config import CompressionSpec, circulant_spec, nm_sparse_spec
    from .errors import ConfigError

    token = text.strip().lower()
    if token == "dense":
        return CompressionSpec()
    if token.startswith("circ") and token[4:].isdigit():
        return circulant_spec(int(token[4:]))
    if ":" in token:
        n_text, _, m_text = token.partition(":")
        if n_text.isdigit() and m_text.isdigit():
            return nm_sparse_spec(int(n_text), int(m_text))
    raise ConfigError(
        f"unrecognized compression spec {text!r} "
        "(expected 'dense', 'circN' or 'N:M')"
    )


def _cmd_compress(args) -> None:
    from .compress import compress_trace_spans, compression_sweep
    from .config import ServingConfig
    from .core.trace import write_span_trace
    from .telemetry import MetricsRegistry

    model, acc = _configs(args)
    mem = _memory(args)
    specs = (None if args.specs is None
             else [_parse_compression(s) for s in args.specs])
    nmt = None
    if args.bleu:
        import numpy as np

        from .config import ModelConfig
        from .nmt import SyntheticTranslationTask, train_model
        from .transformer import Transformer

        task = SyntheticTranslationTask(num_words=16, min_len=3, max_len=7)
        nmt_config = ModelConfig(
            "nmt-proxy", d_model=64, d_ff=256, num_heads=1,
            num_encoder_layers=1, num_decoder_layers=1,
            max_seq_len=16, dropout=0.0,
        )
        proxy = Transformer(
            nmt_config, len(task.src_vocab), len(task.tgt_vocab),
            rng=np.random.default_rng(args.seed),
        )
        train, _, test = task.splits(train=1200, valid=40, test=60,
                                     seed=args.seed + 4)
        print(f"training the BLEU proxy model ({args.epochs} epochs)...")
        train_model(proxy, task, train, epochs=args.epochs, batch_size=32,
                    warmup=200, lr_factor=2.0, seed=args.seed + 2)
        nmt = (proxy, task, test)
    serving = ServingConfig() if args.serving else None
    registry = MetricsRegistry()
    points = compression_sweep(
        model, acc, specs=specs, mem=mem, nmt=nmt, serving=serving,
        registry=registry,
    )
    headers = ["spec", "ratio", "bytes", "mha", "ffn", "savings",
               "overhead", "skipped", "stall", "resident"]
    if args.bleu:
        headers += ["BLEU", "drop"]
    if args.serving:
        headers += ["req/s"]
    rows = []
    for p in points:
        row = [
            p.label, f"{p.compression_ratio:.1f}x",
            f"{p.weight_bytes_ratio:.3f}", f"{p.mha_cycles:,}",
            f"{p.ffn_cycles:,}", f"{p.cycle_savings_frac:+.1%}",
            f"{p.index_overhead_cycles:,}", f"{p.skipped_cycles:,}",
            f"{p.stall_share:.1%}", str(p.footprint.layers_resident),
        ]
        if args.bleu:
            row += [f"{p.bleu:.1f}", f"{p.bleu_drop:+.1f}"]
        if args.serving:
            row += [f"{p.throughput_rps:.1f}"]
        rows.append(row)
    mem_label = (f"{mem.bandwidth_gbps:g} GB/s" if mem is not None
                 else "free weights")
    print(render_table(
        f"compression sweep — {model.name} @ s={acc.seq_len}, "
        f"{mem_label} (per-layer MHA+FFN cycles; savings vs dense)",
        headers, rows,
    ))
    print(
        "overhead = paid row-generator/index-decode cycles; skipped = "
        "MAC cycles pruned vs dense; resident = encoder layer sets in "
        "the Table II weight cache"
    )
    if args.json_path:
        import json as json_module

        payload = {
            "model": model.name,
            "seq_len": acc.seq_len,
            "bandwidth_gbps": mem.bandwidth_gbps if mem else None,
            "points": [p.as_dict() for p in points],
        }
        with open(args.json_path, "w") as handle:
            json_module.dump(payload, handle, indent=1)
        print(f"wrote sweep JSON to {args.json_path}")
    if args.trace_out:
        spans, counters = compress_trace_spans(points, acc.clock_mhz)
        count = write_span_trace(
            spans, args.trace_out, counters=counters,
            other_data={"model": model.name, "seq_len": acc.seq_len},
        )
        print(f"wrote {count} trace events to {args.trace_out}")


def _cmd_bench_diff(args) -> int:
    import glob
    import json

    from .telemetry import diff_benchmarks, load_json

    _refuse_ignored(args, _GLOBAL_DEFAULTS, "it compares bench artifacts")
    paths = args.current or sorted(glob.glob("BENCH_*.json"))
    if not paths:
        raise RuntimeError(
            "no bench artifacts found (run the benchmarks suite or pass "
            "--current)"
        )
    current: dict = {"headlines": {}}
    suites = []
    for path in paths:
        doc = load_json(path)
        suites.append(str(doc.get("suite", path)))
        current["headlines"].update(doc.get("headlines", {}))
        for key in ("git_sha", "generated_utc", "config_fingerprint"):
            if key in doc:
                current.setdefault(key, doc[key])
    current["suite"] = ",".join(suites)
    baseline = load_json(args.baseline)
    report = diff_benchmarks(
        current, baseline, seed_slowdown=args.seed_slowdown,
        only=args.only,
    )
    seeded = (
        f", seeded slowdown x{args.seed_slowdown:g}"
        if args.seed_slowdown is not None else ""
    )
    print(render_table(
        f"bench-diff — {len(paths)} artifact(s) vs {args.baseline}"
        + seeded,
        ["headline", "baseline", "current", "delta", "dir", "tol",
         "status"],
        report.table_rows(),
    ))
    base_fp = report.baseline_meta.get("config_fingerprint")
    cur_fp = report.current_meta.get("config_fingerprint")
    if base_fp and cur_fp and base_fp != cur_fp:
        print(
            f"warning: config fingerprint changed ({base_fp} -> "
            f"{cur_fp}); the baseline pins a different operating point"
        )
    if args.json_path:
        with open(args.json_path, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
        print(f"wrote comparison report to {args.json_path}")
    if report.passed:
        print("gate passed: every pinned headline is inside its band")
        return 0
    names = ", ".join(r.name for r in report.regressions)
    print(f"gate FAILED: {len(report.regressions)} regression(s): {names}")
    return 1


def _cmd_trace(args) -> int:
    if args.requests is not None:
        return _cmd_trace_requests(args)
    if args.out is None:
        print("error: --out is required in block mode (or pass "
              "--requests to trace a simulated run)", file=sys.stderr)
        return 1
    model, acc = _configs(args)
    result = (schedule_mha if args.block == "mha" else schedule_ffn)(
        model, acc
    )
    count = write_trace(result, args.out, acc.clock_mhz)
    print(f"wrote {count} events ({result.total_cycles:,} cycles) to "
          f"{args.out}")
    return 0


def _run_traced(args):
    """Run the chosen simulator with a tail-sampling trace collector."""
    from .obs import SamplingPolicy, TraceCollector, TraceSampler

    # A requested waterfall must be full regardless of sampling luck.
    head_rate = 1.0 if args.req_id is not None else args.head_rate
    sampler = TraceSampler(
        SamplingPolicy(head_rate=head_rate, seed=args.seed)
    )
    tracer = TraceCollector(sampler=sampler)
    model, acc = _configs(args)
    if args.requests == "serving":
        from .config import ServingConfig
        from .serving import simulate_serving

        serving = ServingConfig(
            num_requests=args.requests_per_tenant,
            max_len=acc.seq_len,
            seed=args.seed,
        )
        simulate_serving(model, acc, serving, tracer=tracer)
    elif args.requests == "cluster":
        from .cluster import pinned_cluster, simulate_cluster

        _refuse_ignored(args, ("clock_mhz",), "each pool sets its own clock")
        cluster = pinned_cluster(
            requests_per_tenant=args.requests_per_tenant, seed=args.seed
        )
        simulate_cluster(
            model, cluster, seq_len=args.seq_len, tracer=tracer
        )
    else:
        from .config import DecodeConfig
        from .decode import simulate_decode

        decode = DecodeConfig(
            num_streams=args.requests_per_tenant, seed=args.seed
        )
        simulate_decode(model, acc, decode, tracer=tracer)
    return tracer


def _cmd_trace_requests(args) -> int:
    from .obs import render_trace_report, render_waterfall, write_otlp

    tracer = _run_traced(args)
    if args.req_id is not None:
        trace = tracer.get(args.req_id)
        if trace is None:
            print(f"error: no trace for request id {args.req_id} "
                  f"({len(tracer)} traces collected)", file=sys.stderr)
            return 1
        print(render_waterfall(trace))
    else:
        print(render_trace_report(tracer.traces, top=args.top))
    if args.otlp_out:
        count = write_otlp(tracer.traces, args.otlp_out, seed=args.seed)
        print(f"\nwrote {count} OTLP spans "
              f"({len(tracer.retained())} full traces of {len(tracer)}) "
              f"to {args.otlp_out}")
    if args.out:
        print("note: --out is ignored in --requests mode "
              "(use --otlp-out)", file=sys.stderr)
    return 0


def _cmd_slo_report(args) -> None:
    import json

    from .cluster import pinned_cluster, simulate_cluster
    from .cluster.scenario import bursty_obs_cluster
    from .obs import (
        BurnRateMonitor,
        SloPolicy,
        render_slo_report,
        slo_report_data,
    )

    _refuse_ignored(args, ("clock_mhz",), "each pool sets its own clock")
    model = preset(args.model)
    if args.scenario == "bursty":
        cluster = bursty_obs_cluster(
            requests_per_tenant=args.requests_per_tenant, seed=args.seed
        )
    else:
        cluster = pinned_cluster(
            requests_per_tenant=args.requests_per_tenant, seed=args.seed
        )
    policy = (SloPolicy() if args.objective is None
              else SloPolicy(objective=args.objective))
    monitor = BurnRateMonitor(policy=policy)
    result = simulate_cluster(
        model, cluster, seq_len=args.seq_len, monitor=monitor
    )
    metrics = result.metrics
    print(render_table(
        f"cluster — scenario {args.scenario}, seed {args.seed}",
        ["metric", "value"],
        [["offered", str(metrics.offered)],
         ["completed", str(metrics.completed)],
         ["SLO attainment", f"{metrics.slo_attainment:.1%}"],
         ["scale-ups (slo_burn)", str(sum(
             1 for a in result.actions
             if a.direction == "up" and a.reason == "slo_burn"
         ))]],
    ))
    print()
    print(render_slo_report(monitor))
    if args.trace_out:
        count = result.write_trace(
            args.trace_out, extra_spans=monitor.alert_spans()
        )
        print(f"\nwrote {count} trace events to {args.trace_out}")
    if args.json_path:
        payload = slo_report_data(monitor)
        payload["scenario"] = args.scenario
        payload["seed"] = args.seed
        payload["slo_attainment"] = metrics.slo_attainment
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True,
                      allow_nan=False)
        print(f"wrote slo report to {args.json_path}")


_COMMANDS = {
    "bench-diff": _cmd_bench_diff,
    "check": _cmd_check,
    "cluster-sim": _cmd_cluster_sim,
    "compress": _cmd_compress,
    "decode-sim": _cmd_decode_sim,
    "profile": _cmd_profile,
    "fault-campaign": _cmd_fault_campaign,
    "memsys": _cmd_memsys,
    "schedule": _cmd_schedule,
    "resources": _cmd_resources,
    "power": _cmd_power,
    "selftest": _cmd_selftest,
    "serve-sim": _cmd_serve_sim,
    "slo-report": _cmd_slo_report,
    "tables": _cmd_tables,
    "trace": _cmd_trace,
}


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        ret = _COMMANDS[args.command](args)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return int(ret or 0)


if __name__ == "__main__":
    sys.exit(main())
