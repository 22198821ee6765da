"""Per-layer tracing from outside the simulator.

:class:`LayerTracer` installs timing wrappers on the public functions
listed in :data:`TARGETS`.  Class methods are patched on their class;
module functions are patched at every ``repro.*`` attribute bound to
the same function object, so re-exports and ``from x import f`` copies
are wrapped too.  ``heapq.heappop`` is counted (not timed): it is the
event loops' one pop per simulated event.

Each wrapped call becomes a span (name, start, end, parent) tagged
with the trace id of the rep that made it.  Spans stay in memory, the
first :data:`SPANS_PER_NAME` per name, and are written as Chrome-trace
JSON at the end; call counts and times are aggregated over every call.
A layer's self time is its spans' time minus their wrapped children.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from importlib import import_module
from typing import Optional

from measure import attempt, reference_time, timed

from repro.cluster.pools import PoolRuntime
from repro.obs import TraceCollector
from repro.telemetry import MetricsRegistry

#: Spans kept per wrapped function name; counts and times cover all calls.
SPANS_PER_NAME = 1000

#: ``(layer, module, attribute, count key)``; a count key of ``None``
#: reports only the layer's self share (entry points and summaries).
TARGETS: tuple[tuple[str, str, str, Optional[str]], ...] = (
    ("serving.simulator", "repro.serving.simulator", "simulate_serving",
     None),
    ("serving.devices", "repro.serving.devices", "WorkerPool.dispatch",
     "dispatch_calls"),
    ("serving.devices", "repro.serving.devices", "WorkerPool.can_accept",
     "query_calls"),
    ("serving.devices", "repro.serving.devices", "WorkerPool.next_free_us",
     "query_calls"),
    ("serving.admission", "repro.serving.admission", "AdmissionQueue.offer",
     "calls"),
    ("serving.admission", "repro.serving.admission", "AdmissionQueue.expire",
     "calls"),
    ("serving.admission", "repro.serving.admission",
     "AdmissionQueue.pop_front", "calls"),
    ("serving.batching", "repro.serving.batching", "DynamicBatcher.try_form",
     "calls"),
    ("serving.metrics", "repro.serving.metrics", "compute_metrics", None),
    ("cluster.simulator", "repro.cluster.simulator", "simulate_cluster",
     None),
    ("cluster.router", "repro.cluster.router", "Router.route", "calls"),
    ("cluster.autoscaler", "repro.cluster.autoscaler", "Autoscaler.evaluate",
     "calls"),
    ("cluster.metrics", "repro.cluster.metrics", "compute_cluster_metrics",
     None),
    ("memsys.cache", "repro.memsys.cache", "WeightCache.access", "calls"),
    ("memsys.bandwidth", "repro.config", "MemoryConfig.transfer_cycles",
     "calls"),
    ("decode.serving", "repro.decode.serving", "simulate_decode", None),
    ("decode.kvcache", "repro.decode.kvcache", "KVCacheModel.lookup",
     "calls"),
    ("decode.kvcache", "repro.decode.kvcache", "KVCacheModel.populate",
     "calls"),
    ("decode.cycle_model", "repro.decode.cycle_model",
     "prefill_layer_cycles", "calls"),
    ("decode.cycle_model", "repro.decode.cycle_model",
     "decode_step_breakdown", "calls"),
    ("decode.fused", "repro.decode.fused", "schedule_fused_mha", "calls"),
    ("decode.fused", "repro.decode.cycle_model", "fused_mha_breakdown",
     "calls"),
    ("core.scheduler", "repro.core.scheduler", "schedule_mha", "calls"),
    ("core.scheduler", "repro.core.scheduler", "schedule_ffn", "calls"),
    ("core.cycle_model", "repro.core.cycle_model", "mha_cycle_breakdown",
     "calls"),
    ("core.cycle_model", "repro.core.cycle_model", "ffn_cycle_breakdown",
     "calls"),
    ("compress", "repro.compress.schedule", "schedule_compressed_mha",
     "calls"),
    ("compress", "repro.compress.schedule", "schedule_compressed_ffn",
     "calls"),
    ("compress", "repro.compress.cycle_model", "compressed_mha_breakdown",
     "calls"),
    ("compress", "repro.compress.cycle_model", "compressed_ffn_breakdown",
     "calls"),
)


def targets() -> tuple[tuple[str, str, str, Optional[str]], ...]:
    """:data:`TARGETS` plus every public ``PoolRuntime`` method."""
    return TARGETS + tuple(
        ("cluster.pools", "repro.cluster.pools", f"PoolRuntime.{name}",
         "calls")
        for name, value in vars(PoolRuntime).items()
        if inspect.isfunction(value) and not name.startswith("_")
    )


def layer_metric_names() -> list[str]:
    """Every host per-layer metric the tracer reports."""
    names = []
    for layer, _, _, count in targets():
        for name in (f"{layer}.{count}" if count else None,
                     f"{layer}.self_share"):
            if name and name not in names:
                names.append(name)
    return names


class LayerTracer:
    """Context manager wrapping :func:`targets` for one traced call.

    ``with LayerTracer(trace_id) as tracer: ...`` patches on entry and
    restores every original on exit.  ``tracer.heap_events`` counts
    ``heapq.heappop`` calls; :meth:`layer_metrics` turns the aggregate
    times into shares of a given traced call time.
    """

    def __init__(self, trace_id: int) -> None:
        self.trace_id = trace_id
        self.heap_events = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: dict[str, list[tuple]] = defaultdict(list)
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------
    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> LayerTracer:
        for layer, module_name, attr, count in targets():
            module = import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[method]
                self._patch(cls, method,
                            self._wrap(original, attr, layer, count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, attr, layer, count)
            for name, loaded in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, key, wrapper)
        pop = heapq.heappop

        def counted_heappop(heap):
            self.heap_events += 1
            return pop(heap)

        self._patch(heapq, "heappop", counted_heappop)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, layer: str, count: Optional[str]):
        stack = self._stack
        spans = self.spans[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [0.0, self._next_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.self_s[layer] += duration - frame[0]
                if count:
                    self.counts[f"{layer}.{count}"] += 1
                if len(spans) < SPANS_PER_NAME:
                    spans.append((start, end, frame[1], parent, layer))

        return wrapper

    # -- results -------------------------------------------------------
    def layer_metrics(self, call_s: float) -> dict[str, float]:
        """Counts and self shares of ``call_s`` for every layer."""
        metrics: dict[str, float] = {}
        for name in layer_metric_names():
            if name.endswith(".self_share"):
                layer = name[: -len(".self_share")]
                metrics[name] = self.self_s.get(layer, 0.0) / call_s
            else:
                metrics[name] = self.counts.get(name, 0)
        return metrics

    def chrome_events(self, origin: float) -> list[dict]:
        """Kept spans as Chrome-trace complete (``X``) events."""
        events = []
        for name, spans in self.spans.items():
            for start, end, span_id, parent, layer in spans:
                events.append({
                    "name": name, "cat": layer, "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1, "tid": self.trace_id,
                    "args": {"trace_id": self.trace_id, "span_id": span_id,
                             "parent_id": parent},
                })
        return events


def write_chrome_trace(path, tracers: list[LayerTracer],
                       origin: float, other: dict) -> None:
    """Write every tracer's spans as one Chrome-trace JSON file."""
    events = [e for t in tracers for e in t.chrome_events(origin)]
    events.sort(key=lambda e: e["ts"])
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "otherData": other}, handle)


def traced_run(workload, seed: int, size: float, calib_iterations: int,
               trace_path=None) -> dict:
    """The traced protocol: per-layer metrics of one workload.

    Reps, in order: one untraced; one traced at full size; when the
    event loop popped heap events, one traced at half size (events per
    request at N over N/2 is ``loop.events_growth``, 1.0 = linear);
    and for ``observed`` workloads one rep each with a
    ``TraceCollector`` and a ``MetricsRegistry`` attached.  Every rep
    at full size is in group ``"full"``, whose simulated metrics must
    all be identical.  Overheads compare reference-loop-normalised
    times, so machine drift between reps cancels.
    """
    inputs = workload.build(seed, size)
    reps: list[dict] = []
    origin = time.perf_counter()
    before = reference_time(calib_iterations)

    def rep(label: str, group: str, op, tracer=None) -> float:
        nonlocal before
        # Only the call runs patched: the reference loop after it must
        # not pay for wrapped heap pops.
        with tracer or contextlib.nullcontext():
            outcome, raw, wall = timed(lambda: attempt(op))
        after = reference_time(calib_iterations)
        reps.append({"label": label, "group": group, "raw_s": raw,
                     "wall_s": wall, "calib_s": [before, after], **outcome})
        normalised = raw / statistics.fmean([before, after])
        before = after
        return normalised

    base = rep("untraced", "full", lambda: workload.run(inputs))
    tracer = LayerTracer(trace_id=1)
    traced = rep("traced", "full", lambda: workload.run(inputs), tracer)
    # Spans are wall-clock (perf_counter), so shares are of wall time.
    metrics = tracer.layer_metrics(reps[-1]["wall_s"])
    per_request = tracer.heap_events / max(1, reps[-1]["items"])
    tracers = [tracer]
    growth = 0.0
    if tracer.heap_events:
        half_inputs = workload.build(seed, size / 2)
        half = LayerTracer(trace_id=2)
        rep("traced-half", "half", lambda: workload.run(half_inputs), half)
        tracers.append(half)
        half_per_request = half.heap_events / max(1, reps[-1]["items"])
        growth = per_request / half_per_request if half_per_request else 0.0
    obs_frac = registry_frac = 0.0
    if workload.observed:
        obs_frac = rep("obs-tracer", "full", lambda: workload.run(
            inputs, tracer=TraceCollector())) / base - 1.0
        registry_frac = rep("registry", "full", lambda: workload.run(
            inputs, registry=MetricsRegistry())) / base - 1.0
    metrics.update({
        "loop.events": tracer.heap_events,
        "loop.events_per_request": per_request,
        "loop.events_growth": growth,
        "obs.tracer_overhead_frac": obs_frac,
        "telemetry.registry_overhead_frac": registry_frac,
        "bench.trace_overhead_frac": traced / base - 1.0,
    })
    if trace_path is not None:
        write_chrome_trace(trace_path, tracers, origin, {
            "workload": workload.name, "seed": seed,
            "traces": {"1": "full size", "2": "half size"},
        })
    return {"reps": reps, "layers": metrics}
