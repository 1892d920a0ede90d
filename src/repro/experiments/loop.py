"""The shared steps of the facade-driven control loop.

The instrumented, chaos and recoverable harnesses drive the Geomancy
facade over Belle II on a Bluesky cluster with these steps; each keeps
its own loop body for what is its own (spans per tick, guardrail,
checkpoints, SLOs, invariant checks).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.replaydb.records import AccessRecord, MovementRecord
from repro.simulation.bluesky import make_bluesky_cluster
from repro.simulation.cluster import StorageCluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner

#: the workload access stream seed every control-loop harness shares
WORKLOAD_SEED = 1


class MovementHistory:
    """Base for loop results that carry the run's ``movements``."""

    movements: list[MovementRecord]

    def movement_fingerprint(self) -> tuple:
        """Hashable history for bit-for-bit determinism comparisons."""
        return tuple(
            (m.timestamp, m.fid, m.src_device, m.dst_device, m.succeeded)
            for m in self.movements
        )


def build_system(
    seed: int, config: GeomancyConfig, *, batched: bool = True, **geo_kwargs
) -> tuple[Geomancy, WorkloadRunner]:
    """The seeded Bluesky cluster, Geomancy over it, and the Belle II runner.

    Files are not placed: a fresh run calls ``geo.place_initial()``, a
    resumed one restores the checkpointed placements instead.
    ``geo_kwargs`` go to :class:`Geomancy` (telemetry, journal, ...).
    """
    cluster = make_bluesky_cluster(seed=seed)
    files = belle2_file_population(seed=seed)
    geo = Geomancy(cluster, files, config, **geo_kwargs)
    runner = WorkloadRunner(
        cluster,
        Belle2Workload(files, seed=WORKLOAD_SEED),
        tolerate_offline=True,
        batched=batched,
    )
    return geo, runner


def warm_up(geo: Geomancy, runner: WorkloadRunner, min_accesses: int) -> None:
    """Run until the facade's ReplayDB holds ``min_accesses`` rows.

    Telemetry lands through the agents but is not measured.
    """
    while geo.db.access_count() < min_accesses:
        geo.observe_run(runner.run_once().records)


def install_faults(
    cluster: StorageCluster,
    schedule: FaultSchedule,
    *,
    phase_start: float,
    migration_failure_rate: float,
    seed: int,
) -> FaultInjector | None:
    """Install ``schedule`` with its times shifted by ``phase_start``.

    Schedule times are relative to the start of the measured phase.
    Returns None when there is nothing to inject.
    """
    if not schedule and not migration_failure_rate:
        return None
    shifted = FaultSchedule(
        replace(event, at=event.at + phase_start) for event in schedule
    )
    return FaultInjector(
        cluster,
        shifted,
        migration_failure_rate=migration_failure_rate,
        seed=seed,
    ).install()


def serve_run(
    geo: Geomancy, runner: WorkloadRunner, injector: FaultInjector | None
) -> list[AccessRecord]:
    """Serve the next run, fire due faults, and land its telemetry.

    The injector advances after every served access (``run_once`` calls
    the hook at the clock values the scalar loop shows) and once more at
    the end of the run; the records then flow through the monitoring
    agents into the ReplayDB.  Returns the run's records.
    """
    obs = geo.obs
    with obs.span("simulator_advance"):
        run = runner.run_once(
            advance_hook=injector.advance if injector is not None else None
        )
        if injector is not None:
            injector.advance(runner.clock.now)
    with obs.span("telemetry_collect", records=len(run.records)):
        geo.observe_records(run.records)
    with obs.span("telemetry_flush"):
        geo.flush_telemetry(at=runner.clock.now)
    return run.records
