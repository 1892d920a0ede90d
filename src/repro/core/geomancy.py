"""The Geomancy facade: the full observe -> train -> predict -> move loop.

Wires together the paper's Fig. 2 components around one target cluster:

* per-device **monitoring agents** stream access telemetry over a
  transport to the **Interface Daemon**, which lands it in the **ReplayDB**;
* every cooldown period the **DRL engine** retrains on the most recent
  telemetry and proposes a per-file layout;
* the **Action Checker** validates targets (and explores randomly 10% of
  the time), the move cap bounds transfer volume, and the **control
  agent** executes the surviving moves on the cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.control import ControlAgent
from repro.agents.daemon import InterfaceDaemon
from repro.agents.messages import LayoutCommand
from repro.agents.monitoring import MonitoringAgent
from repro.agents.transport import InMemoryTransport
from repro.core.action_checker import ActionChecker
from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine, TrainingReport
from repro.core.layout import as_layout, cap_moves, layout_diff
from repro.core.scheduler import AccessGapScheduler, CooldownScheduler
from repro.errors import AgentError, ConfigurationError
from repro.faults.health import HealthTracker
from repro.observability import Observability, get_observability
from repro.observability.provenance import (
    CausalContext,
    DecisionProvenance,
    ProvenanceLedger,
)
from repro.policies.static import EvenSpreadPolicy
from repro.recovery.events import EventLog
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import BYTES_PER_GB, AccessRecord, MovementRecord
from repro.simulation.cluster import StorageCluster
from repro.workloads.files import FileSpec


@dataclass
class StepOutcome:
    """What one control cycle (``after_run`` or a fallback cycle) did."""

    run_index: int
    #: the cycle's training report (None when the engine did not train)
    training: TrainingReport | None = None
    movements: list[MovementRecord] = field(default_factory=list)
    #: files rescued off offline devices this cycle
    rescued_files: int = 0
    #: mean predicted throughput (GB/s) at the engine's chosen placements
    #: this cycle, or None when the engine made no prediction; the
    #: recovery guardrail compares realized throughput against this
    predicted_gbps: float | None = None

    @property
    def trained(self) -> bool:
        return self.training is not None

    @property
    def moved_files(self) -> int:
        return sum(1 for move in self.movements if move.succeeded)


class Geomancy:
    """Geomancy attached to one target cluster and one workload file set."""

    def __init__(
        self,
        cluster: StorageCluster,
        files: list[FileSpec],
        config: GeomancyConfig | None = None,
        *,
        db: ReplayDB | None = None,
        telemetry: InMemoryTransport | None = None,
        journal=None,
        event_log: EventLog | None = None,
        obs: Observability | None = None,
    ) -> None:
        if not files:
            raise ConfigurationError("Geomancy needs a workload file set")
        self.cluster = cluster
        self.files = list(files)
        self.config = config if config is not None else GeomancyConfig()
        #: the observability instance the whole control plane reports to;
        #: defaults to whatever is installed process-wide (a no-op unless
        #: a run enabled it)
        self.obs = obs if obs is not None else get_observability()
        self.db = db if db is not None else ReplayDB()
        # The telemetry channel is injectable so chaos runs can swap in a
        # lossy transport (or overload runs a bounded one); the command
        # channel stays internal.
        self.telemetry = (
            telemetry if telemetry is not None else InMemoryTransport()
        )
        #: optional write-ahead :class:`repro.recovery.journal.LayoutJournal`;
        #: when set, every dispatched layout is bracketed by intent/commit
        #: records so a crash mid-movement is resolvable on restore
        self.journal = journal
        #: structured recovery telemetry (rescues, rollbacks, trips),
        #: bridged onto the observability event bus
        self.event_log = (
            event_log if event_log is not None else EventLog(bus=self.obs.bus)
        )
        self.commands = InMemoryTransport()
        self.daemon = InterfaceDaemon(
            self.db, self.telemetry, self.commands, obs=self.obs
        )
        self.monitors = {
            name: MonitoringAgent(name, self.telemetry)
            for name in cluster.device_names
        }
        self.health = HealthTracker()
        self.control = ControlAgent(
            cluster, seed=self.config.seed, health=self.health
        )
        self.engine = DRLEngine(self.config, obs=self.obs)
        self.checker = ActionChecker(
            self.config.exploration_rate, seed=self.config.seed
        )
        self.scheduler = CooldownScheduler(self.config.cooldown_runs)
        self.gap_scheduler = (
            AccessGapScheduler() if self.config.use_gap_scheduler else None
        )
        self.outcomes: list[StepOutcome] = []
        #: optional guardrail a recovery harness may attach; decision
        #: provenance records its mode when present
        self.guardrail = None
        # -- causal tracing + decision provenance (all off by default) ----
        self.causal: CausalContext | None = None
        self.ledger: ProvenanceLedger | None = None
        self._decision_seq = 0
        self._movement_rows = 0
        if self.config.causal_tracing_enabled:
            self.ledger = ProvenanceLedger(self.config.provenance_path)
            self.causal = CausalContext(self.ledger)
            self.telemetry.causal = self.causal
            self.commands.causal = self.causal
            self.daemon.attach_causal(self.causal)
            for monitor in self.monitors.values():
                monitor.causal = self.causal
            # Movements-table rowids are 1-based insert order; seed the
            # counter so decision entries name real rowids even when the
            # DB already holds movements (a resumed run).
            self._movement_rows = len(self.db.movements())
        if self.config.provenance_enabled:
            self.engine.capture_provenance = True
        metrics = self.obs.metrics
        self._m_ticks = metrics.counter(
            "repro_engine_ticks_total", "control-loop consultations"
        )
        self._m_acted = metrics.counter(
            "repro_engine_acted_cycles_total",
            "cycles that dispatched a model-proposed layout",
        )
        self._m_skipped = metrics.counter(
            "repro_engine_skipped_cycles_total",
            "trained cycles vetoed by skill/sanity/gain gates",
        )
        self._m_moves_ok = metrics.counter(
            "repro_engine_moves_succeeded_total", "file moves that completed"
        )
        self._m_moves_failed = metrics.counter(
            "repro_engine_moves_failed_total", "file moves that aborted"
        )
        self._m_rescued = metrics.counter(
            "repro_engine_files_rescued_total",
            "files rescued off offline devices",
        )
        self._g_predicted = metrics.gauge(
            "repro_engine_predicted_gbps",
            "mean predicted throughput at the latest chosen placements",
        )

    # -- placement -----------------------------------------------------------
    def place_initial(self, layout: dict[int, str] | None = None) -> dict[int, str]:
        """Register the workload files, spread evenly unless told otherwise."""
        if layout is None:
            layout = EvenSpreadPolicy().initial_layout(
                self.files, self.cluster.device_names
            )
        existing = {info.fid for info in self.cluster.files}
        for spec in self.files:
            if spec.fid not in existing:
                self.cluster.add_file(
                    spec.fid, spec.path, spec.size_bytes, layout[spec.fid]
                )
        return layout

    # -- telemetry -----------------------------------------------------------
    def observe(self, record: AccessRecord) -> None:
        """Route one access through its device's monitoring agent.

        Devices added to the cluster after construction get a monitoring
        agent lazily, so clusters can grow mid-experiment; telemetry for
        devices the cluster has never heard of is still rejected.
        """
        monitor = self._monitor_for(record.device)
        monitor.observe(record)

    def _monitor_for(self, device: str) -> MonitoringAgent:
        monitor = self.monitors.get(device)
        if monitor is None:
            if device not in self.cluster.device_names:
                raise AgentError(
                    f"no monitoring agent for device {device!r}"
                )
            monitor = MonitoringAgent(device, self.telemetry)
            monitor.causal = self.causal
            self.monitors[device] = monitor
        return monitor

    def observe_records(self, records: list[AccessRecord]) -> None:
        """Route a batch of telemetry without a trailing flush.

        Consecutive same-device records (the common case -- BELLE II
        accesses each file in bursts) are handed to the monitoring agent
        as one chunk, which preserves the exact flush boundaries and send
        order of per-record :meth:`observe` calls while skipping the
        per-record dispatch overhead.
        """
        n = len(records)
        i = 0
        while i < n:
            device = records[i].device
            j = i + 1
            while j < n and records[j].device == device:
                j += 1
            self._monitor_for(device).observe_many(records[i:j])
            i = j

    def observe_run(self, records: list[AccessRecord]) -> None:
        """Route a whole run's telemetry and land it in the ReplayDB."""
        self.observe_records(records)
        self.flush_telemetry(
            at=records[-1].close_time if records else 0.0
        )

    def flush_telemetry(self, at: float) -> int:
        """Flush every agent's buffer and pump the daemon.

        ``at`` doubles as the drain time, so each batch's queue delay
        (``at - sent_at``) lands in the daemon's delay histogram and in
        the causal ledger.
        """
        for monitor in self.monitors.values():
            monitor.flush(at=at)
        return self.daemon.pump_telemetry(drained_at=at)

    # -- the decision loop -----------------------------------------------------
    def _dispatch(
        self, layout: dict[int, str], t: float, kind: str = "decision"
    ) -> list[MovementRecord]:
        """Push a layout through the daemon/command path and execute it.

        With a journal attached the dispatch is a write-ahead
        transaction: the intent is durably logged before any file moves,
        the commit after every movement has settled, so a crash in
        between leaves a pending intent the recovery path rolls back.
        On a causal plane the command is stamped with a trace id that
        flows onto every resulting movement record, and the dispatch is
        journaled in the provenance ledger as one decision entry.
        """
        trace_id = (
            self.causal.stamp_command() if self.causal is not None else None
        )
        with self.obs.span("movement_dispatch", files=len(layout)):
            txn = (
                self.journal.log_intent(layout, t=t)
                if self.journal is not None
                else None
            )
            self.daemon.send_layout(layout, at=t, trace_id=trace_id)
            command = self.commands.receive()
            if not isinstance(command, LayoutCommand):
                raise AgentError(
                    f"command channel carried {type(command).__name__}"
                )
            movements = self.control.execute(command)
            self.daemon.record_movements(movements)
            if txn is not None:
                self.journal.log_commit(txn, movements, t=t)
        movement_ids: list[int] = []
        if self.causal is not None:
            # record_movements is the only movements-table writer on this
            # plane, so insert order names the rowids just written.
            movement_ids = list(
                range(
                    self._movement_rows + 1,
                    self._movement_rows + 1 + len(movements),
                )
            )
            self._movement_rows += len(movements)
        if self.config.provenance_enabled and trace_id is not None:
            self._record_decision(
                trace_id, kind, t, layout, movements, movement_ids
            )
        succeeded = sum(1 for m in movements if m.succeeded)
        failed = len(movements) - succeeded
        self._m_moves_ok.inc(succeeded)
        self._m_moves_failed.inc(failed)
        if movements and self.obs.enabled:
            self.obs.emit(
                "movement-dispatched",
                t=t,
                step=len(self.outcomes) - 1,
                attempted=len(movements),
                succeeded=succeeded,
                failed=failed,
            )
        return movements

    def _record_decision(
        self,
        trace_id: str,
        kind: str,
        t: float,
        layout: dict[int, str],
        movements: list[MovementRecord],
        movement_ids: list[int],
    ) -> None:
        """Append one decision-epoch entry to the provenance ledger."""
        self._decision_seq += 1
        run_index = self.outcomes[-1].run_index if self.outcomes else 0
        engine = self.engine
        report = engine.last_report
        entry = DecisionProvenance(
            decision_id=f"d:{self._decision_seq}",
            trace_id=trace_id,
            kind=kind,
            run_index=run_index,
            t=t,
            chosen={int(fid): str(dst) for fid, dst in layout.items()},
            movement_ids=movement_ids,
            guardrail_mode=(
                self.guardrail.mode if self.guardrail is not None else None
            ),
            movement_duration_s=sum(m.duration for m in movements),
        )
        if kind == "decision":
            # Rescue/retry dispatches are not model decisions: the
            # engine's captured window/digest/candidates describe the
            # *last* training epoch and would mislead there.
            if engine.last_window is not None:
                entry.window_lo, entry.window_hi = engine.last_window
            entry.feature_digest = engine.last_feature_digest
            entry.candidates = {
                int(fid): dict(scores)
                for fid, scores in engine.last_candidates.items()
                if fid in layout
            }
            if report is not None:
                entry.train_mode = report.mode
                entry.train_seconds = report.train_seconds
                entry.test_mare = report.test_mare
                entry.skillful = report.skillful
                entry.drift_detected = report.drift_detected
        self.ledger.record_decision(entry)

    def _rescue_layout(self, available: list[str]) -> dict[int, str]:
        """Targets for files stranded on offline devices.

        Each stranded file goes to the live device with the most free
        space (greedily, so one rescue wave cannot overfill a target);
        rescues share the per-cycle move cap to bound the churn, leaving
        any remainder for the next cycle.
        """
        stranded = self.cluster.files_stranded()
        if not stranded or not available:
            return {}
        free = {
            name: self.cluster.device(name).spec.capacity_bytes
            - self.cluster.stored_bytes(name)
            for name in available
        }
        layout: dict[int, str] = {}
        for info in sorted(stranded, key=lambda i: i.fid):
            if len(layout) >= self.config.max_files_per_move:
                break
            target = min(sorted(free), key=lambda n: (-free[n], n))
            if free[target] < info.size_bytes:
                continue
            layout[info.fid] = target
            free[target] -= info.size_bytes
        return layout

    def begin_cycle(
        self, run_index: int, t: float
    ) -> tuple[StepOutcome, list[str] | None]:
        """Open control cycle ``run_index`` and do its safety duties.

        Records the cycle's outcome and, when the cooldown scheduler lets
        this cycle act, rescues files stranded on offline devices before
        (and regardless of) any layout change.  Returns the outcome and
        the devices eligible for new placements -- None when the
        scheduler skips the cycle.  The facade's own decision step and a
        recovery harness's fallback policy both start here.
        """
        outcome = StepOutcome(run_index=run_index)
        self.outcomes.append(outcome)
        self._m_ticks.inc()
        if not self.scheduler.should_move(run_index):
            return outcome, None
        # Only devices currently accepting placements -- and not
        # quarantined by the health tracker -- are candidates; the Action
        # Checker is the final filter in case availability changed between
        # prediction and application (paper section V-H).
        available = self.health.healthy(
            self.cluster.available_device_names, t
        )
        rescue = self._rescue_layout(available)
        if rescue:
            with self.obs.span("rescue", files=len(rescue)):
                rescued = self._dispatch(rescue, t, kind="rescue")
            outcome.movements.extend(rescued)
            outcome.rescued_files = sum(1 for m in rescued if m.succeeded)
            self._m_rescued.inc(outcome.rescued_files)
            self.event_log.emit(
                "stranded-file-rescued",
                t=t,
                step=run_index,
                rescued=outcome.rescued_files,
                attempted=len(rescue),
                targets={str(fid): dst for fid, dst in sorted(rescue.items())},
            )
        return outcome, available

    def drive_retries(self, outcome: StepOutcome, t: float) -> None:
        """Give backed-off failed moves another chance this cycle."""
        if self.control.has_due_retries(t):
            outcome.movements.extend(self._dispatch({}, t, kind="retry"))

    def after_run(self, run_index: int, t: float) -> StepOutcome:
        """Consult Geomancy after workload run ``run_index`` finished at ``t``.

        Trains + moves only when the cooldown scheduler allows it and
        enough telemetry has accumulated.  Independent of training, every
        eligible cycle first rescues files stranded on offline devices and
        re-attempts failed moves whose retry backoff has expired.
        """
        outcome, available = self.begin_cycle(run_index, t)
        if available is None:
            return outcome
        changes = self._checked_changes(outcome, available)
        if not changes:
            self.drive_retries(outcome, t)
            return outcome
        self._m_acted.inc()
        outcome.movements.extend(self._dispatch(as_layout(changes), t))
        return outcome

    def _checked_changes(self, outcome: StepOutcome, available: list[str]):
        """The engine's gated proposal, filtered down to the moves to make."""
        fids = [spec.fid for spec in self.files]
        decision = self.engine.decide(
            self.db,
            fids,
            {self.cluster.device(name).fsid: name for name in available},
        )
        outcome.training = decision.training
        if decision.proposal is None:
            if decision.vetoed:
                self._m_skipped.inc()
            return []
        if self.engine.last_predicted_mean is not None:
            outcome.predicted_gbps = (
                self.engine.last_predicted_mean / BYTES_PER_GB
            )
            self._g_predicted.set(outcome.predicted_gbps)
        fidset = set(fids)
        current = {
            fid: device for fid, device in self.cluster.layout().items()
            if fid in fidset
        }
        with self.obs.span("action_check", proposals=len(decision.proposal)):
            checked = self.checker.check(
                decision.proposal, set(available), current
            )
            changes = layout_diff(current, checked)
            changes = cap_moves(
                changes, self.config.max_files_per_move, decision.gains
            )
        if self.gap_scheduler is not None:
            # Section X extension: only move files whose observed access
            # gaps accommodate the transfer ("We will not consider moving
            # files that are always accessed and never released").
            changes = [
                change for change in changes
                if self.gap_scheduler.can_move(
                    self.db,
                    change.fid,
                    self.cluster.link.transfer_time(
                        self.cluster.file(change.fid).size_bytes
                    ),
                )
            ]
        if not changes:
            self._m_skipped.inc()
        return changes

    # -- reporting -----------------------------------------------------------
    @property
    def total_moves(self) -> int:
        return sum(outcome.moved_files for outcome in self.outcomes)

    def movement_history(self) -> list[tuple[float, int]]:
        """(timestamp, files moved) clusters for the Fig. 5 bar charts."""
        return self.db.movement_clusters(gap=5.0)
