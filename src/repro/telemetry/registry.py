"""Label-aware metrics registry (counters, gauges, histograms, series).

The registry is the repo's single metrics surface: the scheduler, the
systolic-array model, the memory system, the reliability layer and the
serving simulator all record into one :class:`MetricsRegistry`, and the
exporters (:mod:`repro.telemetry.exporters`) turn it into Prometheus
text exposition, structured JSON, or Chrome-trace counter tracks.

Design notes:

* **Instruments are get-or-create.**  ``registry.counter(name)`` returns
  the existing instrument when one is already registered under ``name``
  (and raises :class:`~repro.errors.TelemetryError` on a kind clash), so
  independently instrumented components share series without plumbing.
* **Labels are keyword arguments.**  ``c.inc(3, block="mha", unit="sa")``
  keys one series per distinct label set; the empty label set is just
  another series.  Label values are stringified, Prometheus-style.
* **Histograms are fixed-bucket plus exact percentiles.**  The bucket
  counters feed the Prometheus exposition (cumulative ``le`` buckets);
  the raw samples are retained as well so :meth:`Histogram.percentile`
  returns the same deterministic nearest-rank p50/p95/p99 the serving
  metrics always reported (and tests can pin against a NumPy
  reference).
* **Deterministic output.**  Instruments iterate in registration order
  and series in first-use order, so exports are reproducible.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections.abc import Sequence
from typing import Optional

from ..errors import TelemetryError

#: One series key: labels sorted by name, values stringified.
LabelKey = tuple[tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:.]*$")

#: Default histogram buckets: 1-2-5 decades covering everything from a
#: single cycle to a full multi-second serving run in microseconds.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    m * 10.0 ** e for e in range(9) for m in (1.0, 2.0, 5.0)
)

#: Trace exemplars kept per histogram bucket (largest values win).
MAX_EXEMPLARS_PER_BUCKET = 4


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in (0, 100]).

    The smallest observed value with at least ``pct%`` of the sample at
    or below it, so every reported percentile is an actual observation
    and runs are exactly reproducible.
    """
    if not values:
        raise TelemetryError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise TelemetryError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def sample_stats(
    values: Sequence[float],
    pcts: Sequence[float],
    total: Optional[float] = None,
) -> tuple[float, ...]:
    """Nearest-rank ``(*percentiles, mean)``; all 0.0 (never NaN) if empty.

    The mean divides ``total`` (a :class:`Histogram`'s running sum) when
    given, else the sum of the sorted sample.
    """
    if not values:
        return (0.0,) * (len(pcts) + 1)
    ordered = sorted(values)
    mean = (sum(ordered) if total is None else total) / len(ordered)
    return (*(percentile(ordered, pct) for pct in pcts), mean)


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise TelemetryError(f"invalid metric name {name!r}")
    return name


class Instrument:
    """Common base: a named instrument holding one series per label set."""

    kind = "instrument"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help

    def label_keys(self) -> list[LabelKey]:
        """Series keys in first-use order."""
        raise NotImplementedError

    def series_value(self, key: LabelKey) -> object:
        """JSON-ready value of one series (scalar or dict)."""
        raise NotImplementedError


class Counter(Instrument):
    """Monotonically increasing count (events, cycles, bytes)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: object) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``labels``."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        """Current count of one series (0 if never incremented)."""
        return self._values.get(_label_key(labels), 0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())

    def label_keys(self) -> list[LabelKey]:
        return list(self._values)

    def series_value(self, key: LabelKey) -> object:
        return self._values[key]


class Gauge(Instrument):
    """Point-in-time value (utilization, makespan, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[_label_key(labels)] = value

    def inc(self, amount: float = 1, **labels: object) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        key = _label_key(labels)
        if key not in self._values:
            raise TelemetryError(
                f"gauge {self.name} has no series for labels {dict(key)}"
            )
        return self._values[key]

    def label_keys(self) -> list[LabelKey]:
        return list(self._values)

    def series_value(self, key: LabelKey) -> object:
        return self._values[key]


class _HistogramSeries:
    __slots__ = ("bucket_counts", "total", "samples", "exemplars")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts = [0] * (num_buckets + 1)  # + overflow
        self.total = 0.0
        self.samples: list[float] = []
        # bucket index -> [(value, ref)] kept sorted by value desc
        self.exemplars: dict[int, list[tuple[float, str]]] = {}


class Histogram(Instrument):
    """Fixed-bucket distribution with exact nearest-rank percentiles.

    ``buckets`` are the finite upper bounds (strictly increasing); an
    implicit ``+Inf`` bucket catches the overflow.  Bucket counts are
    kept per label set for the Prometheus exposition, and every observed
    sample is retained so percentiles are exact (nearest rank — the
    smallest observed value with at least ``pct%`` of the sample at or
    below it; :func:`percentile`).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError(f"histogram {name} needs >= 1 bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name} buckets must strictly increase"
            )
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise TelemetryError(
                f"histogram {name} buckets must be finite (+Inf is "
                "implicit)"
            )
        self.buckets = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def _get(self, labels: dict) -> _HistogramSeries:
        key = _label_key(labels)
        if key not in self._series:
            self._series[key] = _HistogramSeries(len(self.buckets))
        return self._series[key]

    def observe(self, value: float, **labels: object) -> None:
        """Record one sample."""
        value = float(value)
        if math.isnan(value):
            raise TelemetryError(f"histogram {self.name}: NaN sample")
        series = self._get(labels)
        series.bucket_counts[bisect_left(self.buckets, value)] += 1
        series.total += value
        series.samples.append(value)

    def attach_exemplar(
        self, value: float, ref: str, **labels: object
    ) -> None:
        """Link a trace reference to the bucket ``value`` falls in.

        Exemplars are the histogram-to-trace bridge: a p99 bucket can
        point at the ids of the slowest traces that landed in it.  At
        most :data:`MAX_EXEMPLARS_PER_BUCKET` refs are kept per bucket,
        preferring the largest values (the interesting tail).
        """
        value = float(value)
        if math.isnan(value):
            raise TelemetryError(f"histogram {self.name}: NaN exemplar")
        series = self._get(labels)
        idx = bisect_left(self.buckets, value)
        bucket = series.exemplars.setdefault(idx, [])
        bucket.append((value, ref))
        bucket.sort(key=lambda e: (-e[0], e[1]))
        del bucket[MAX_EXEMPLARS_PER_BUCKET:]

    def exemplars(
        self, **labels: object
    ) -> dict[int, list[tuple[float, str]]]:
        """Exemplars of one series, keyed by bucket index."""
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            return {}
        return {idx: list(refs) for idx, refs in series.exemplars.items()}

    def count(self, **labels: object) -> int:
        key = _label_key(labels)
        return len(self._series[key].samples) if key in self._series else 0

    def sum(self, **labels: object) -> float:
        key = _label_key(labels)
        return self._series[key].total if key in self._series else 0.0

    def mean(self, **labels: object) -> float:
        n = self.count(**labels)
        return self.sum(**labels) / n if n else float("nan")

    def samples(self, **labels: object) -> list[float]:
        """Raw samples of one series, in observation order."""
        series = self._series.get(_label_key(labels))
        return list(series.samples) if series is not None else []

    def percentile(self, pct: float, **labels: object) -> float:
        """Nearest-rank :func:`percentile` of one series."""
        series = self._series.get(_label_key(labels))
        return percentile(series.samples if series is not None else (), pct)

    def cumulative_buckets(
        self, **labels: object
    ) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs (+Inf last)."""
        key = _label_key(labels)
        series = self._series.get(key)
        counts = (series.bucket_counts if series is not None
                  else [0] * (len(self.buckets) + 1))
        out = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def label_keys(self) -> list[LabelKey]:
        return list(self._series)

    def series_value(self, key: LabelKey) -> object:
        series = self._series[key]
        value: dict[str, object] = {
            "count": len(series.samples),
            "sum": series.total,
            # The overflow bound renders as the string "+Inf" so the
            # JSON export stays loadable under allow_nan=False.
            "buckets": [
                {"le": "+Inf" if math.isinf(le) else le, "count": count}
                for le, count in self.cumulative_buckets(**dict(key))
            ],
        }
        if series.exemplars:
            # "+Inf" stays a string so json.dump(..., allow_nan=False)
            # callers survive the overflow bucket.
            value["exemplars"] = [
                {
                    "le": (self.buckets[idx] if idx < len(self.buckets)
                           else "+Inf"),
                    "refs": [
                        {"value": v, "trace": ref}
                        for v, ref in series.exemplars[idx]
                    ],
                }
                for idx in sorted(series.exemplars)
            ]
        return value


class Timeseries(Instrument):
    """Timestamped value samples — the Chrome counter-track instrument.

    Samples may arrive out of order (retries complete in the future
    relative to the next dispatch); :meth:`samples` returns them sorted
    by timestamp so the exported counter track is always monotonic.
    """

    kind = "timeseries"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._samples: dict[LabelKey, list[tuple[float, float]]] = {}
        self._sorted: dict[LabelKey, bool] = {}

    def sample(self, ts_us: float, value: float, **labels: object) -> None:
        """Record ``value`` at ``ts_us`` (microseconds)."""
        key = _label_key(labels)
        bucket = self._samples.setdefault(key, [])
        if bucket and ts_us < bucket[-1][0]:
            self._sorted[key] = False
        bucket.append((float(ts_us), value))

    def samples(self, **labels: object) -> list[tuple[float, float]]:
        """Samples of one series, sorted by timestamp (stable)."""
        key = _label_key(labels)
        bucket = self._samples.get(key, [])
        if not self._sorted.get(key, True):
            bucket.sort(key=lambda s: s[0])
            self._sorted[key] = True
        return list(bucket)

    def last(self, **labels: object) -> float:
        """Value of the latest sample (by timestamp)."""
        ordered = self.samples(**labels)
        if not ordered:
            raise TelemetryError(
                f"timeseries {self.name} has no samples for these labels"
            )
        return ordered[-1][1]

    def label_keys(self) -> list[LabelKey]:
        return list(self._samples)

    def series_value(self, key: LabelKey) -> object:
        return {
            "samples": [
                {"ts_us": ts, "value": v}
                for ts, v in self.samples(**dict(key))
            ]
        }


class MetricsRegistry:
    """Collection of named instruments with get-or-create semantics."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    def _get_or_create(
        self, cls: type, name: str, help: str, **kwargs: object
    ) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TelemetryError(
                    f"metric {name!r} is a {existing.kind}, not a "
                    f"{cls.kind}"  # type: ignore[attr-defined]
                )
            return existing
        instrument = cls(name, help, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        inst = self._get_or_create(Counter, name, help)
        assert isinstance(inst, Counter)
        return inst

    def gauge(self, name: str, help: str = "") -> Gauge:
        inst = self._get_or_create(Gauge, name, help)
        assert isinstance(inst, Gauge)
        return inst

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        inst = self._get_or_create(Histogram, name, help, buckets=buckets)
        assert isinstance(inst, Histogram)
        return inst

    def series(self, name: str, help: str = "") -> Timeseries:
        inst = self._get_or_create(Timeseries, name, help)
        assert isinstance(inst, Timeseries)
        return inst

    def get(self, name: str) -> Instrument:
        """Look up an instrument; raises if it was never registered."""
        if name not in self._instruments:
            raise TelemetryError(f"no metric named {name!r}")
        return self._instruments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def instruments(self) -> list[Instrument]:
        """Instruments in registration order."""
        return list(self._instruments.values())
