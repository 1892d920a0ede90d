"""Allocation-light metrics: counters, gauges, fixed-bucket histograms.

The registry is the stack's single metric namespace.  Instrumented code
resolves a handle once (at construction time) and then pays one attribute
add per observation -- no locks, no label-set hashing on the hot path, no
allocation after the handle exists.  Metric names follow the convention
``repro_<subsystem>_<name>_<unit>`` (see DESIGN.md "Observability
architecture").

Two export surfaces:

* :meth:`MetricsRegistry.render_prometheus` -- the Prometheus text
  exposition format (``# HELP``/``# TYPE`` + samples, histograms with
  cumulative ``_bucket{le=...}`` series), for scraping or one-shot dumps;
* :meth:`MetricsRegistry.write_snapshot` -- one JSON object per call
  appended to a JSONL sink, for post-hoc analysis of a run's trajectory.

A registry constructed with ``enabled=False`` hands out shared null
handles whose methods do nothing, so a disabled stack pays only a no-op
method call per would-be observation.
"""

from __future__ import annotations

import json
import math
import os
import re
from bisect import bisect_left

from repro.errors import ConfigurationError

#: default histogram bucket upper bounds, in seconds -- spans from
#: sub-millisecond probe builds up to multi-second training cycles
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(f"invalid metric name {name!r}")
    return name


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    Buckets are upper bounds (Prometheus ``le`` semantics) with an
    implicit ``+Inf`` overflow bucket.  Quantiles are estimated by linear
    interpolation inside the bucket containing the target rank -- exact
    enough for p50/p95/p99 latency reporting, and allocation-free to
    update.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ConfigurationError("histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(edges, edges[1:])):
            raise ConfigurationError(
                f"histogram buckets must be strictly increasing, got {edges}"
            )
        if any(not math.isfinite(b) for b in edges):
            raise ConfigurationError(
                f"histogram buckets must be finite, got {edges}"
            )
        self.name = name
        self.help = help
        self.buckets = edges
        # one slot per finite bucket + the +Inf overflow
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1] (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                if i >= len(self.buckets):
                    # Overflow bucket: no finite upper edge to interpolate
                    # toward; report the largest finite edge.
                    return self.buckets[-1]
                upper = self.buckets[i]
                within = (target - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * within
        return self.buckets[-1]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _NullCounter:
    """Shared do-nothing counter handed out by a disabled registry."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    sum = 0.0
    count = 0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    p50 = p95 = p99 = p999 = mean = 0.0


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Get-or-create registry of named counters/gauges/histograms."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(_check_name(name), help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
    ) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._get_or_create(
            Histogram, name, help,
            buckets=tuple(buckets) if buckets is not None else DEFAULT_BUCKETS,
        )

    def get(self, name: str):
        """The registered metric, or None."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def subsystems(self) -> set[str]:
        """Distinct ``<subsystem>`` components of registered metric names."""
        found = set()
        for name in self._metrics:
            parts = name.split("_")
            if len(parts) >= 2 and parts[0] == "repro":
                found.add(parts[1])
        return found

    # -- export ----------------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition format, metrics in name order."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                cumulative = 0
                for edge, bucket_count in zip(metric.buckets, metric.counts):
                    cumulative += bucket_count
                    lines.append(
                        f'{name}_bucket{{le="{edge}"}} {cumulative}'
                    )
                lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{name}_sum {_format_value(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
            else:
                lines.append(f"{name} {_format_value(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-serializable state of every registered metric."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "p50": metric.p50,
                    "p95": metric.p95,
                    "p99": metric.p99,
                    "p999": metric.p999,
                    "buckets": {
                        str(edge): count
                        for edge, count in zip(metric.buckets, metric.counts)
                    },
                    "overflow": metric.counts[-1],
                }
        return out

    def write_snapshot(self, path: str | os.PathLike, **labels) -> None:
        """Append one snapshot (plus caller labels) as a JSONL line."""
        record = dict(labels)
        record["metrics"] = self.snapshot()
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(json.dumps(record, sort_keys=True) + "\n")
