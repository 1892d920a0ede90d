"""The fully observed Geomancy control loop.

``run_instrumented`` drives the standard warm-up + measured Belle II
loop with a live :class:`~repro.observability.Observability` instance
installed process-wide, so every subsystem's cached metric handles are
real and every control-loop stage runs under a span:

* each measured run is one **tick** (the per-tick trace root), with
  ``simulator_advance`` -> ``telemetry_collect`` -> ``telemetry_flush``
  (containing the daemon's ``replaydb_write``) -> the Geomancy decision
  spans (``train_step``/``model_fit``, ``propose_layout``/
  ``model_predict``, ``action_check``, ``movement_dispatch``) nested
  beneath it;
* counters/gauges/histograms from every subsystem land in one
  :class:`~repro.observability.metrics.MetricsRegistry`, exportable as
  Prometheus text or appended as JSONL snapshots every
  ``snapshot_every`` runs;
* the event bus carries fault injections, circuit-breaker transitions,
  rescues and movement dispatches through one subscriber API.

Instrumentation never touches an RNG or the simulated clock, so the
run's *outputs* (layout, movements, throughput) are bit-for-bit
identical whether observability is enabled or not -- the overhead
benchmark and the integration tests both lean on that.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.harness import make_experiment_config
from repro.experiments.loop import (
    MovementHistory,
    build_system,
    install_faults,
    serve_run,
    warm_up,
)
from repro.experiments.reporting import ascii_table
from repro.experiments.spec import ExperimentScale, TEST_SCALE
from repro.faults.schedule import FaultSchedule
from repro.observability import Observability, use
from repro.observability.profiling import (
    ProfileReport,
    SpanAttribution,
    profile_call,
    span_attribution,
)
from repro.observability.slo import ControlPlaneSLOFeed, SLOMonitor
from repro.replaydb.records import MovementRecord


@dataclass
class InstrumentedRunResult(MovementHistory):
    """Outcome of one observed control loop, plus its telemetry."""

    seed: int
    scale_name: str
    runs_completed: int
    accesses: int
    mean_gbps: float
    final_layout: dict[int, str]
    movements: list[MovementRecord]
    #: full Prometheus text exposition captured at run end
    prometheus: str
    #: per-metric snapshot dict captured at run end
    metrics: dict
    #: bus events as dicts, in publish order
    events: list[dict] = field(default_factory=list)
    #: finished span count (0 when tracing was off)
    spans_recorded: int = 0
    #: files the exports landed in (absent keys were not requested)
    artifacts: dict[str, str] = field(default_factory=dict)
    profile: ProfileReport | None = None
    attribution: SpanAttribution | None = None
    #: final SLO burn-rate statuses (None when SLO monitoring was off)
    slo: list[dict] | None = None

    def to_text(self, profile_top: int = 15) -> str:
        rows = [
            ("runs completed", self.runs_completed),
            ("accesses measured", self.accesses),
            ("mean GB/s", f"{self.mean_gbps:.3f}"),
            ("files moved",
             sum(1 for m in self.movements if m.succeeded)),
            ("spans recorded", self.spans_recorded),
            ("bus events", len(self.events)),
            ("metrics registered",
             sum(len(group) for group in self.metrics.values())),
        ]
        table = ascii_table(
            ["metric", "value"], rows,
            title=f"Instrumented run (seed {self.seed}, "
                  f"{self.scale_name} scale)",
        )
        for kind, path in sorted(self.artifacts.items()):
            table += f"\n{kind}: {path}"
        if self.attribution is not None:
            table += "\n\n" + self.attribution.to_text()
        if self.profile is not None:
            table += "\n" + self.profile.top_table(profile_top)
        return table


def run_instrumented(
    *,
    scale: ExperimentScale = TEST_SCALE,
    seed: int = 0,
    obs: Observability | None = None,
    metrics_path: str | os.PathLike | None = None,
    metrics_snapshot_path: str | os.PathLike | None = None,
    snapshot_every: int = 1,
    trace_path: str | os.PathLike | None = None,
    profile: bool = False,
    schedule_specs: tuple[str, ...] = (),
    migration_failure_rate: float = 0.0,
    **config_overrides,
) -> InstrumentedRunResult:
    """One warm-up + measured loop under full observability.

    ``obs`` defaults to a fully enabled instance built from the run's
    config knobs; pass ``Observability(enabled=False)`` to measure the
    disabled baseline through the *identical* code path (the overhead
    benchmark does exactly that).  ``metrics_path`` receives the final
    Prometheus dump, ``metrics_snapshot_path`` a JSONL snapshot every
    ``snapshot_every`` measured runs, ``trace_path`` the Chrome-trace
    JSON.  ``profile=True`` additionally wraps the measured phase in
    cProfile.
    """
    if snapshot_every < 1:
        raise ExperimentError(
            f"snapshot_every must be >= 1, got {snapshot_every}"
        )
    specs = tuple(schedule_specs)
    if specs and FaultSchedule.from_specs(specs).has_fractional_times:
        raise ExperimentError(
            "the instrumented harness needs absolute fault times "
            "(fractional '@N%' times depend on a baseline twin run)"
        )
    config = make_experiment_config(
        scale,
        seed=seed,
        observability_enabled=True,
        fault_schedule=specs,
        **config_overrides,
    )
    if obs is None:
        obs = Observability.from_config(config)
    with use(obs):
        # Components cache their handles at construction, so the system is
        # built *after* the instance is installed.
        geo, runner = build_system(seed, config, obs=obs)
        geo.place_initial()
        # Warm-up is not traced per tick (ticks number the *measured* runs,
        # matching the other harnesses' run indices).
        warm_up(geo, runner, scale.warmup_accesses)

        slo_feed = None
        if config.slo_enabled:
            monitor = SLOMonitor(
                ControlPlaneSLOFeed.default_specs(), bus=obs.bus
            )
            slo_feed = ControlPlaneSLOFeed(
                monitor,
                geo,
                queue_delay_threshold_s=config.slo_queue_delay_threshold_s,
                throughput_floor_gbps=config.slo_throughput_floor_gbps,
            )

        injector = install_faults(
            geo.cluster,
            FaultSchedule.from_specs(specs),
            phase_start=runner.clock.now,
            migration_failure_rate=migration_failure_rate,
            seed=seed,
        )

        throughput: list[float] = []

        def measured_phase() -> None:
            for run_number in range(1, scale.runs + 1):
                with obs.tick(run_number):
                    run_gbps = [
                        float(r.throughput_gbps)
                        for r in serve_run(geo, runner, injector)
                    ]
                    throughput.extend(run_gbps)
                    geo.after_run(run_number, runner.clock.now)
                    if slo_feed is not None:
                        now = runner.clock.now
                        slo_feed.tick(now, run_index=run_number)
                        slo_feed.observe_run(
                            now,
                            float(np.mean(run_gbps)) if run_gbps else 0.0,
                            run_index=run_number,
                        )
                        slo_feed.monitor.evaluate(now, run_index=run_number)
                if (
                    metrics_snapshot_path is not None
                    and run_number % snapshot_every == 0
                ):
                    obs.metrics.write_snapshot(
                        metrics_snapshot_path, run=run_number, seed=seed
                    )

        report: ProfileReport | None = None
        if profile:
            report = profile_call(measured_phase)
        else:
            measured_phase()
        if injector is not None:
            injector.uninstall()

        artifacts: dict[str, str] = {}
        prometheus = obs.metrics.render_prometheus()
        if metrics_path is not None:
            path = Path(metrics_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(prometheus)
            artifacts["metrics"] = str(path)
        if metrics_snapshot_path is not None:
            artifacts["metrics_snapshots"] = str(Path(metrics_snapshot_path))
        if trace_path is not None:
            path = Path(trace_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            # The provenance ledger contributes a causal track (batches and
            # decisions as linked spans) alongside the tracer's own spans.
            extra = geo.ledger.chrome_events() if geo.ledger is not None else None
            obs.tracer.export_chrome(path, extra_events=extra)
            artifacts["trace"] = str(path)
        if geo.ledger is not None and geo.ledger.path is not None:
            artifacts["provenance"] = str(geo.ledger.path)

        layout = geo.cluster.layout()
        return InstrumentedRunResult(
            seed=seed,
            scale_name=scale.name,
            runs_completed=scale.runs,
            accesses=len(throughput),
            mean_gbps=float(np.mean(throughput)) if throughput else 0.0,
            final_layout={spec.fid: layout[spec.fid] for spec in geo.files},
            movements=geo.db.movements(),
            prometheus=prometheus,
            metrics=obs.metrics.snapshot(),
            events=[event.to_dict() for event in obs.bus],
            spans_recorded=len(obs.tracer.spans),
            artifacts=artifacts,
            profile=report,
            attribution=(
                span_attribution(obs.tracer) if obs.tracer.spans else None
            ),
            slo=(
                [
                    status.to_dict()
                    for status in slo_feed.monitor.evaluate(runner.clock.now)
                ]
                if slo_feed is not None
                else None
            ),
        )
