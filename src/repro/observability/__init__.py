"""Unified observability: metrics, tracing, events, logs, profiling.

One :class:`Observability` object bundles the three always-on telemetry
surfaces the stack instruments against:

* :class:`~repro.observability.metrics.MetricsRegistry` -- counters,
  gauges, fixed-bucket histograms (Prometheus text + JSONL snapshots);
* :class:`~repro.observability.tracing.Tracer` -- nested spans with
  per-tick trace ids and Chrome-trace export;
* :class:`~repro.observability.events.EventBus` -- typed structured
  events with a subscriber API (the recovery ``EventLog`` rides on it).

Instrumented modules resolve the *installed* instance through
:func:`get_observability` at construction time and cache the handles
they need.  The process default is a **disabled** instance whose handles
are shared no-ops, so an uninstrumented run pays a few no-op method
calls and nothing else -- and, because no instrument ever touches an RNG
or the simulated clock, experiment outputs are bit-for-bit identical
with observability on or off.

Enable per run with::

    with observability.use(Observability()) as obs:
        ...build and drive the system...
        print(obs.metrics.render_prometheus())
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.observability.events import Event, EventBus
from repro.observability.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.observability.tracing import Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "Event",
    "EventBus",
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "get_observability",
    "install",
    "uninstall",
    "use",
]


class Observability:
    """Metrics + tracer + event bus behind one enable switch."""

    def __init__(
        self,
        *,
        enabled: bool = True,
        trace_sample_rate: float = 1.0,
    ) -> None:
        self.enabled = bool(enabled)
        self.metrics = MetricsRegistry(enabled=self.enabled)
        self.tracer = Tracer(
            enabled=self.enabled, sample_rate=trace_sample_rate
        )
        self.tracer._drop_counter = self.metrics.counter(
            "repro_trace_spans_dropped_total",
            "spans discarded after the tracer hit its retention cap",
        )
        # A disabled instance keeps no history: every default-constructed
        # EventLog bridges here, and the process-global default must not
        # accumulate events across runs.
        self.bus = EventBus(max_history=None if self.enabled else 0)

    # Convenience pass-throughs so call sites read tersely.
    def counter(self, name: str, help: str = ""):
        return self.metrics.counter(name, help)

    def gauge(self, name: str, help: str = ""):
        return self.metrics.gauge(name, help)

    def histogram(self, name: str, help: str = "", buckets=None):
        return self.metrics.histogram(name, help, buckets)

    def span(self, name: str, **args):
        return self.tracer.span(name, **args)

    def tick(self, tick_id: int):
        return self.tracer.tick(tick_id)

    def emit(self, kind: str, *, t: float, step: int, **detail) -> Event:
        return self.bus.emit(kind, t=t, step=step, **detail)

    @classmethod
    def from_config(cls, config) -> "Observability":
        """Build from the :class:`~repro.core.config.GeomancyConfig` knobs."""
        return cls(
            enabled=config.observability_enabled,
            trace_sample_rate=config.trace_sample_rate,
        )


#: the process-wide disabled default; never mutated, always reusable
_DISABLED = Observability(enabled=False)
_current: Observability = _DISABLED


def get_observability() -> Observability:
    """The currently installed instance (a disabled no-op by default)."""
    return _current


def install(obs: Observability) -> Observability:
    """Install ``obs`` as the process-wide instance; returns the previous.

    Components cache their metric handles at construction, so install the
    instance *before* building the system it should observe.
    """
    global _current
    previous = _current
    _current = obs
    return previous


def uninstall() -> None:
    """Restore the disabled default."""
    global _current
    _current = _DISABLED


@contextmanager
def use(obs: Observability):
    """Scoped :func:`install`: restores the previous instance on exit."""
    previous = install(obs)
    try:
        yield obs
    finally:
        install(previous)
