"""The crash-recoverable Geomancy control loop.

``run_recoverable`` drives the same warm-up + measured Belle II loop as
the chaos harness, but wired through the :mod:`repro.recovery` stack:

* every layout dispatch is bracketed by write-ahead journal records;
* every ``checkpoint_every`` measured runs the full system state --
  ReplayDB snapshot, model weights, layout, scheduler position, every
  RNG stream -- is committed as an atomic checkpoint generation;
* the safe-mode :class:`~repro.recovery.guardrail.Guardrail` (optional)
  watches training health and realized-vs-predicted throughput, rolling
  the layout back to the last known-good checkpoint and demoting the
  learner to a fallback policy when it trips.

``resume_recoverable`` restarts a killed run from its checkpoint
directory alone (all parameters travel inside the checkpoint) and
continues deterministically: a run killed at any supported point and
resumed produces the *bit-for-bit identical* final layout, movement
history and throughput metrics as the same run left uninterrupted.

Crash injection for tests rides on ``kill_at_run``/``kill_point``:
``pre-commit`` dies before that run's checkpoint commits, ``mid-
checkpoint`` dies between staging the files and publishing the
manifest (exercising torn-checkpoint fallback), ``post-commit`` dies
just after the commit.  All raise :class:`~repro.errors.SimulatedCrash`.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy
from repro.errors import ConfigurationError, ExperimentError, SimulatedCrash
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
from repro.faults.injector import FaultInjector
from repro.faults.invariants import cluster_invariant_violations
from repro.faults.schedule import FaultSchedule
from repro.nn.serialization import load_weights
from repro.policies.lru import LRUPolicy
from repro.recovery.checkpoint import CheckpointManager
from repro.recovery.guardrail import Guardrail
from repro.recovery.journal import LayoutJournal
from repro.recovery.snapshot import capture_system, restore_system
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import MovementRecord
from repro.workloads.runner import WorkloadRunner

#: file name of the write-ahead layout journal inside the checkpoint dir
JOURNAL_NAME = "layout.journal"

KILL_POINTS = ("pre-commit", "mid-checkpoint", "post-commit")


@dataclass
class RecoverableRunResult(MovementHistory):
    """Outcome of one (possibly resumed) recoverable control loop."""

    seed: int
    scale_name: str
    runs_completed: int
    accesses: int
    mean_gbps: float
    final_layout: dict[int, str]
    movements: list[MovementRecord]
    checkpoints_written: int
    #: step of the checkpoint generation this process restored from
    #: (None for an uninterrupted run)
    resumed_from_step: int | None
    rolled_back_txns: int
    rescued_files: int
    fallback_runs: int
    guardrail_trips: list[dict] = field(default_factory=list)
    guardrail_mode: str | None = None
    events: list[dict] = field(default_factory=list)
    invariant_violations: list[str] = field(default_factory=list)
    #: torn/corrupt-checkpoint fallbacks and other recovery notes
    warnings: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        rows = [
            ("runs completed", self.runs_completed),
            ("accesses measured", self.accesses),
            ("mean GB/s", f"{self.mean_gbps:.3f}"),
            ("checkpoints written", self.checkpoints_written),
            ("resumed from step",
             self.resumed_from_step
             if self.resumed_from_step is not None else "(not resumed)"),
            ("journal txns rolled back", self.rolled_back_txns),
            ("files rescued", self.rescued_files),
            ("guardrail trips", len(self.guardrail_trips)),
            ("runs under fallback policy", self.fallback_runs),
            ("recovery events", len(self.events)),
            ("invariant violations", len(self.invariant_violations)),
        ]
        table = ascii_table(
            ["metric", "value"], rows,
            title=f"Recoverable run (seed {self.seed}, "
                  f"{self.scale_name} scale)",
        )
        if self.warnings:
            table += "\nWARNINGS:\n" + "\n".join(self.warnings)
        if self.invariant_violations:
            table += "\nVIOLATIONS:\n" + "\n".join(self.invariant_violations)
        return table


@dataclass
class _Session:
    """Everything the measured loop needs, fresh-built or restored."""

    scale: ExperimentScale
    seed: int
    geo: Geomancy
    runner: WorkloadRunner
    mgr: CheckpointManager
    injector: FaultInjector | None
    guardrail: Guardrail | None
    meta: dict
    loop: dict
    resumed_from: int | None = None
    warnings: list[str] = field(default_factory=list)


def _current_layout(geo: Geomancy) -> dict[str, str]:
    layout = geo.cluster.layout()
    return {str(spec.fid): layout[spec.fid] for spec in geo.files}


def _compose_state(s: _Session) -> dict:
    return {
        "meta": s.meta,
        "system": capture_system(s.geo, s.runner),
        "loop": s.loop,
        "guardrail": (
            s.guardrail.state_dict() if s.guardrail is not None else None
        ),
        "injector": (
            s.injector.state_dict() if s.injector is not None else None
        ),
        "events": s.geo.event_log.state_dict(),
    }


def _build_guardrail(geo: Geomancy) -> Guardrail | None:
    config = geo.config
    if not config.guardrail_enabled:
        return None
    return Guardrail(
        window=config.guardrail_window,
        cooldown_runs=config.guardrail_cooldown_runs,
        fallback=config.fallback_policy,
        event_log=geo.event_log,
        weight_rollback=geo.engine.rollback_weights,
    )


def _build_injector(
    cluster,
    meta: dict,
    seed: int,
) -> FaultInjector | None:
    return install_faults(
        cluster,
        FaultSchedule.from_specs(meta["schedule_specs"]),
        phase_start=meta["phase_start"],
        migration_failure_rate=meta["migration_failure_rate"],
        seed=seed,
    )


def run_recoverable(
    *,
    checkpoint_dir: str | os.PathLike,
    scale: ExperimentScale = TEST_SCALE,
    seed: int = 0,
    checkpoint_every: int = 1,
    keep: int = 3,
    guardrail: bool = False,
    fallback_policy: str = "static",
    schedule_specs: tuple[str, ...] = (),
    migration_failure_rate: float = 0.0,
    kill_at_run: int | None = None,
    kill_point: str | None = None,
    **config_overrides,
) -> RecoverableRunResult:
    """One warm-up + measured loop under the durability stack.

    Every parameter is persisted inside each checkpoint, so
    :func:`resume_recoverable` needs only the directory.
    """
    if kill_point is not None and kill_point not in KILL_POINTS:
        raise ExperimentError(
            f"kill_point must be one of {KILL_POINTS}, got {kill_point!r}"
        )
    if (kill_at_run is None) != (kill_point is None):
        raise ExperimentError(
            "kill_at_run and kill_point must be given together"
        )
    specs = tuple(schedule_specs)
    if specs and FaultSchedule.from_specs(specs).has_fractional_times:
        raise ExperimentError(
            "the recoverable harness needs absolute fault times "
            "(fractional '@N%' times depend on a baseline twin run)"
        )
    config = make_experiment_config(
        scale,
        seed=seed,
        checkpoint_every=checkpoint_every,
        checkpoint_keep=keep,
        guardrail_enabled=guardrail,
        fallback_policy=fallback_policy,
        **config_overrides,
    )
    checkpoint_dir = Path(checkpoint_dir)
    geo, runner = build_system(
        seed, config, journal=LayoutJournal(checkpoint_dir / JOURNAL_NAME)
    )
    geo.place_initial()
    # Checkpoints only cover the measured phase; a kill during warm-up
    # means starting over (warm-up is cheap and fully deterministic).
    warm_up(geo, runner, scale.warmup_accesses)

    meta = {
        "seed": seed,
        "scale": asdict(scale),
        "config": asdict(config),
        "schedule_specs": list(specs),
        "migration_failure_rate": float(migration_failure_rate),
        "phase_start": runner.clock.now,
    }
    injector = _build_injector(geo.cluster, meta, seed)
    rail = _build_guardrail(geo)
    mgr = CheckpointManager(checkpoint_dir, keep=config.checkpoint_keep)
    session = _Session(
        scale=scale,
        seed=seed,
        geo=geo,
        runner=runner,
        mgr=mgr,
        injector=injector,
        guardrail=rail,
        meta=meta,
        loop={
            "next_run": 1,
            "throughput": [],
            "fail_start": runner.failed_accesses,
            "rescued": 0,
            "violations": [],
            "pending_predicted": None,
            "known_good": {"step": 0, "layout": _current_layout(geo)},
            "fallback_runs": 0,
            "checkpoints_written": 0,
        },
    )
    if config.checkpoint_every > 0:
        # Generation 0: the post-warm-up baseline every resume can fall
        # back to even if every later generation is torn.
        geo.event_log.emit(
            "checkpoint-saved", t=runner.clock.now, step=0, generation="gen-0"
        )
        session.loop["checkpoints_written"] += 1
        mgr.save(0, _compose_state(session), db=geo.db)
    return _measured_loop(
        session, kill_at_run=kill_at_run, kill_point=kill_point
    )


def resume_recoverable(
    checkpoint_dir: str | os.PathLike,
    *,
    kill_at_run: int | None = None,
    kill_point: str | None = None,
) -> RecoverableRunResult:
    """Restore the newest valid checkpoint and finish the run.

    Needs no parameters beyond the directory: seed, scale, config and
    fault schedule all travel inside the checkpoint.  Corrupt or torn
    generations are skipped (newest first) with a recorded warning;
    in-flight journal transactions are rolled back before the loop
    continues.
    """
    checkpoint_dir = Path(checkpoint_dir)
    mgr = CheckpointManager(checkpoint_dir)
    loaded = mgr.latest_valid()
    # Anything newer than the restored generation failed verification;
    # drop it so the deterministic replay can re-publish those steps.
    for name in mgr.discard_newer(loaded.step):
        loaded.warnings.append(
            f"discarded unverifiable checkpoint {name} newer than "
            f"restored generation"
        )
    state = loaded.state
    meta = state["meta"]
    scale = ExperimentScale(**meta["scale"])
    config_raw = dict(meta["config"])
    known = {f.name for f in fields(GeomancyConfig)}
    unknown = sorted(set(config_raw) - known)
    if unknown:
        raise ConfigurationError(
            f"checkpoint config has fields GeomancyConfig does not know: "
            f"{unknown}; it was written by an incompatible version"
        )
    config_raw["features"] = tuple(config_raw["features"])
    config_raw["fault_schedule"] = tuple(config_raw["fault_schedule"])
    config = GeomancyConfig(**config_raw)
    mgr.keep = config.checkpoint_keep
    seed = int(meta["seed"])

    db = (
        ReplayDB.from_snapshot(loaded.replay_path)
        if loaded.replay_path is not None
        else ReplayDB()
    )
    journal = LayoutJournal(checkpoint_dir / JOURNAL_NAME)
    geo, runner = build_system(seed, config, db=db, journal=journal)
    event_log = geo.event_log
    event_log.load_state_dict(state["events"])
    restore_system(geo, runner, state["system"])
    if loaded.model_path is not None and geo.engine.model.built:
        load_weights(geo.engine.model, loaded.model_path)
    rolled = journal.resolve_pending(
        geo.cluster, geo.files, event_log, t=runner.clock.now, step=loaded.step
    )
    for warning in loaded.warnings:
        event_log.emit(
            "checkpoint-corrupt", t=runner.clock.now, step=loaded.step,
            warning=warning,
        )
    event_log.emit(
        "resume",
        t=runner.clock.now,
        step=loaded.step,
        generation=loaded.path.name,
        rolled_back_txns=rolled,
    )
    injector = _build_injector(geo.cluster, meta, seed)
    if injector is not None:
        injector.load_state_dict(state["injector"])
    rail = _build_guardrail(geo)
    if rail is not None:
        rail.load_state_dict(state["guardrail"])
    session = _Session(
        scale=scale,
        seed=seed,
        geo=geo,
        runner=runner,
        mgr=mgr,
        injector=injector,
        guardrail=rail,
        meta=meta,
        loop=dict(state["loop"]),
        resumed_from=loaded.step,
        warnings=list(loaded.warnings),
    )
    session.loop["rolled_back"] = (
        session.loop.get("rolled_back", 0) + rolled
    )
    return _measured_loop(
        session, kill_at_run=kill_at_run, kill_point=kill_point
    )


# -- the measured loop ----------------------------------------------------


def _rollback_to_known_good(s: _Session, *, t: float, run_number: int) -> None:
    """Return the layout to the last known-good checkpoint's placements."""
    target = {
        int(fid): device
        for fid, device in s.loop["known_good"]["layout"].items()
    }
    current = s.geo.cluster.layout()
    diff = {
        fid: device
        for fid, device in target.items()
        if current.get(fid) != device
    }
    movements = s.geo._dispatch(diff, t, kind="rollback") if diff else []
    s.loop["pending_predicted"] = None
    s.geo.event_log.emit(
        "guardrail-rollback",
        t=t,
        step=run_number,
        checkpoint_step=s.loop["known_good"]["step"],
        files_targeted=len(diff),
        files_moved=sum(1 for m in movements if m.succeeded),
    )


def _fallback_cycle(s: _Session, *, t: float, run_number: int) -> None:
    """Safety duties (and the fallback policy) while the learner is benched."""
    geo = s.geo
    outcome, available = geo.begin_cycle(run_number, t)
    if available is None:
        return
    s.loop["rescued"] += outcome.rescued_files
    if geo.config.fallback_policy == "lru" and available:
        fids = {spec.fid for spec in geo.files}
        current = {
            fid: device
            for fid, device in geo.cluster.layout().items()
            if fid in fids
        }
        proposal = LRUPolicy().update_layout(
            geo.db, geo.files, available, current
        )
        if proposal:
            diff = {
                fid: device
                for fid, device in proposal.items()
                if current.get(fid) != device
            }
            if diff:
                outcome.movements.extend(
                    geo._dispatch(diff, t, kind="fallback")
                )
    geo.drive_retries(outcome, t)


def _measured_loop(
    s: _Session,
    *,
    kill_at_run: int | None,
    kill_point: str | None,
) -> RecoverableRunResult:
    geo, runner, loop = s.geo, s.runner, s.loop
    cluster = geo.cluster
    checkpoint_every = geo.config.checkpoint_every
    for run_number in range(loop["next_run"], s.scale.runs + 1):
        run_gbps = [
            float(r.throughput_gbps)
            for r in serve_run(geo, runner, s.injector)
        ]
        loop["throughput"].extend(run_gbps)
        t = runner.clock.now
        realized = float(np.mean(run_gbps)) if run_gbps else None

        # The prediction made at the end of an earlier cycle describes
        # the throughput the engine expected from its own placements;
        # this run just measured what those placements actually deliver.
        trip = None
        if (
            s.guardrail is not None
            and not s.guardrail.in_fallback
            and realized is not None
        ):
            trip = s.guardrail.observe_throughput(
                realized,
                loop["pending_predicted"],
                run_index=run_number,
                t=t,
            )
        if s.guardrail is not None and s.guardrail.in_fallback:
            if trip is not None:
                # Tripped on this very run: roll back first; the
                # fallback policy takes over from the next cycle.
                _rollback_to_known_good(s, t=t, run_number=run_number)
            else:
                loop["fallback_runs"] += 1
                _fallback_cycle(s, t=t, run_number=run_number)
                s.guardrail.tick(run_index=run_number, t=t)
        else:
            outcome = geo.after_run(run_number, t)
            loop["rescued"] += outcome.rescued_files
            if s.guardrail is not None and outcome.trained:
                trip = s.guardrail.check_training(
                    outcome.training, run_index=run_number, t=t
                )
            if trip is not None:
                _rollback_to_known_good(s, t=t, run_number=run_number)
            elif outcome.predicted_gbps is not None:
                loop["pending_predicted"] = outcome.predicted_gbps
        loop["violations"].extend(
            cluster_invariant_violations(cluster, geo.files)
        )
        loop["next_run"] = run_number + 1

        due = checkpoint_every > 0 and run_number % checkpoint_every == 0
        killing = kill_at_run == run_number
        if killing and (
            kill_point == "pre-commit"
            or (kill_point == "mid-checkpoint" and not due)
        ):
            raise SimulatedCrash(
                f"injected kill before checkpoint at run {run_number}"
            )
        if due:
            if s.guardrail is None or not s.guardrail.in_fallback:
                loop["known_good"] = {
                    "step": run_number,
                    "layout": _current_layout(geo),
                }
            geo.event_log.emit(
                "checkpoint-saved",
                t=t,
                step=run_number,
                generation=f"gen-{run_number:08d}",
            )
            loop["checkpoints_written"] += 1
            if killing and kill_point == "mid-checkpoint":

                def _die(barrier: str) -> None:
                    if barrier == "staged":
                        raise SimulatedCrash(
                            f"injected kill mid-checkpoint at run {run_number}"
                        )

                s.mgr.fault_hook = _die
            try:
                s.mgr.save(
                    run_number,
                    _compose_state(s),
                    db=geo.db,
                    model=geo.engine.model if geo.engine.model.built else None,
                )
            finally:
                s.mgr.fault_hook = None
        if killing and kill_point == "post-commit":
            raise SimulatedCrash(
                f"injected kill after checkpoint at run {run_number}"
            )

    if s.injector is not None:
        s.injector.uninstall()
    layout = cluster.layout()
    return RecoverableRunResult(
        seed=s.seed,
        scale_name=s.scale.name,
        runs_completed=loop["next_run"] - 1,
        accesses=len(loop["throughput"]),
        mean_gbps=(
            float(np.mean(loop["throughput"])) if loop["throughput"] else 0.0
        ),
        final_layout={
            spec.fid: layout[spec.fid] for spec in geo.files
        },
        movements=geo.db.movements(),
        checkpoints_written=loop["checkpoints_written"],
        resumed_from_step=s.resumed_from,
        rolled_back_txns=loop.get("rolled_back", 0),
        rescued_files=loop["rescued"],
        fallback_runs=loop["fallback_runs"],
        guardrail_trips=(
            [trip.to_dict() for trip in s.guardrail.trips]
            if s.guardrail is not None
            else []
        ),
        guardrail_mode=(
            s.guardrail.mode if s.guardrail is not None else None
        ),
        events=[event.to_dict() for event in geo.event_log],
        invariant_violations=list(loop["violations"]),
        warnings=list(s.warnings),
    )
