"""Geomancy configuration.

Defaults follow the paper's live experiment: Table-I model 1, the six live
features, 12,000 training rows, 200 epochs of plain SGD, a moving-average
smoothing window, 10% random exploration, data movement every 5 workload
runs, and at most 14 files moved at once ("On average, Geomancy moves
between 1-14 files in one movement").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.faults.schedule import parse_fault_event
from repro.features.pipeline import DEFAULT_LIVE_FEATURES
from repro.nn.model_zoo import ARCHITECTURES, is_recurrent


@dataclass
class GeomancyConfig:
    """The Geomancy tunables a caller sets.

    Components keep their own defaults for everything else (retry
    backoff, quarantine, replay prioritization, drift detection,
    provenance retention, guardrail thresholds).
    """

    model_number: int = 1
    features: tuple[str, ...] = field(default=DEFAULT_LIVE_FEATURES)
    training_rows: int = 12_000
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 0.2
    optimizer: str = "sgd"
    smoothing_window: int = 50
    #: window length for the recurrent Table-I models
    timesteps: int = 8
    #: recent accesses per file averaged in the per-location probe
    probe_samples: int = 8
    #: a move is proposed only when the predicted throughput at the best
    #: location exceeds the current location's by this fraction ("it only
    #: applies layouts that the NN predicts will increase throughput")
    min_gain_fraction: float = 0.10
    exploration_rate: float = 0.10
    cooldown_runs: int = 5
    max_files_per_move: int = 14
    #: apply the section V-G MAE-sign adjustment to predictions
    adjust_predictions: bool = True
    #: act only on cycles whose model out-predicts a constant baseline
    #: (skip the layout otherwise; see TrainingReport.skillful)
    require_skill: bool = True
    #: act only when the model's per-device ranking agrees with observed
    #: telemetry (Spearman >= 0); blocks inverted models whose layout
    #: would herd files onto the worst devices
    require_ranking_sanity: bool = True
    #: backstop: never act on a model whose held-out error exceeds this
    #: (percent), regardless of its skill against the constant baseline
    max_actionable_mare: float = 300.0
    #: only move files whose observed inter-access gap accommodates the
    #: estimated transfer (the section X future-work gap model,
    #: implemented by repro.core.scheduler.AccessGapScheduler)
    use_gap_scheduler: bool = False
    #: fault-schedule entries for chaos runs, in the spec-string grammar of
    #: :mod:`repro.faults.schedule` (e.g. "kill:file0@40%"); consumed by
    #: the chaos harness, ignored by ordinary runs
    fault_schedule: tuple[str, ...] = ()
    #: modeling target: "throughput" (the paper's live system) or
    #: "latency" (the sensitivity the paper defers to future work)
    target: str = "throughput"
    #: -- durability & safe mode (repro.recovery) -------------------------
    #: checkpoint the full system state every N measured runs (0 disables;
    #: consumed by the recoverable harness, ignored by ordinary runs)
    checkpoint_every: int = 0
    #: rotated checkpoint generations kept on disk
    checkpoint_keep: int = 3
    #: wrap the learning policy in the safe-mode guardrail
    guardrail_enabled: bool = False
    #: realized-vs-predicted throughput pairs per regression check window
    guardrail_window: int = 4
    #: control cycles the policy stays demoted to the fallback after a trip
    guardrail_cooldown_runs: int = 3
    #: policy used while demoted: "static" (hold layout) or "lru"
    fallback_policy: str = "static"
    #: -- online continual learning (DRLEngine.train_incremental) ---------
    #: train incrementally on rows appended since the last decision point
    #: (plus prioritized replay) instead of from scratch on the window;
    #: keeps decision-epoch cost flat as ReplayDB grows
    online_learning: bool = False
    #: SGD epochs per incremental update (vs ``epochs`` from scratch)
    online_epochs: int = 8
    #: most recent new rows consumed per incremental update (burst bound)
    online_max_new_rows: int = 2_048
    #: replayed history rows mixed into each incremental update
    replay_sample_rows: int = 256
    #: frozen-weight snapshot cadence in incremental updates (0 disables);
    #: the guardrail rolls back to the newest snapshot on loss explosion
    target_snapshot_every: int = 10
    #: directory for weight snapshots (None = private temp dir)
    weight_snapshot_dir: str | None = None
    #: -- observability (repro.observability) -----------------------------
    #: master switch for the metrics/tracing/event instrumentation; off by
    #: default so ordinary experiment runs pay only no-op handles
    observability_enabled: bool = False
    #: fraction of control ticks whose spans are recorded; sampling is
    #: deterministic in the tick index, never an RNG draw
    trace_sample_rate: float = 1.0
    #: JSONL sink the instrumented harness appends metric snapshots to
    #: (None disables the sink)
    metrics_snapshot_path: str | None = None
    #: Chrome-trace JSON path the instrumented harness exports spans to
    #: (None disables the export)
    trace_path: str | None = None
    #: -- causal tracing / provenance / SLOs (PR 9) ------------------------
    #: stamp trace ids on telemetry batches, layout commands and movement
    #: records and resolve every message's fate through a CausalContext;
    #: off by default -- the legacy plane carries no ids at all
    causal_tracing_enabled: bool = False
    #: record per-decision provenance (training window rowids, feature
    #: digest, per-candidate predictions, chosen layout, movement ids);
    #: requires causal_tracing_enabled for the movement -> decision join
    provenance_enabled: bool = False
    #: JSONL flight-recorder path for the provenance ledger (None keeps
    #: the ledger in memory only)
    provenance_path: str | None = None
    #: evaluate control-plane SLOs (delivery ratio, queue-delay, throughput
    #: floor) with multi-window burn-rate alerting on the event bus
    slo_enabled: bool = False
    #: queue delay (seconds) above which a drained batch burns the
    #: queue-delay SLO's error budget
    slo_queue_delay_threshold_s: float = 0.05
    #: measured-run throughput (GB/s) below which the throughput-floor
    #: SLO's budget burns (0 = any positive throughput is good)
    slo_throughput_floor_gbps: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model_number not in ARCHITECTURES:
            raise ConfigurationError(
                f"model_number must be one of {sorted(ARCHITECTURES)}, "
                f"got {self.model_number}"
            )
        if not self.features:
            raise ConfigurationError("features must be non-empty")
        if self.training_rows < 10:
            raise ConfigurationError(
                f"training_rows must be >= 10, got {self.training_rows}"
            )
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.smoothing_window < 1:
            raise ConfigurationError(
                f"smoothing_window must be >= 1, got {self.smoothing_window}"
            )
        if self.timesteps < 1:
            raise ConfigurationError(
                f"timesteps must be >= 1, got {self.timesteps}"
            )
        if self.probe_samples < 1:
            raise ConfigurationError(
                f"probe_samples must be >= 1, got {self.probe_samples}"
            )
        if self.min_gain_fraction < 0:
            raise ConfigurationError(
                f"min_gain_fraction must be >= 0, got {self.min_gain_fraction}"
            )
        if not 0.0 <= self.exploration_rate <= 1.0:
            raise ConfigurationError(
                f"exploration_rate must be in [0, 1], got {self.exploration_rate}"
            )
        if self.cooldown_runs < 1:
            raise ConfigurationError(
                f"cooldown_runs must be >= 1, got {self.cooldown_runs}"
            )
        if self.max_files_per_move < 1:
            raise ConfigurationError(
                f"max_files_per_move must be >= 1, got {self.max_files_per_move}"
            )
        if self.max_actionable_mare <= 0:
            raise ConfigurationError(
                f"max_actionable_mare must be positive, "
                f"got {self.max_actionable_mare}"
            )
        if self.target not in ("throughput", "latency"):
            raise ConfigurationError(
                f"target must be 'throughput' or 'latency', got {self.target!r}"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_keep < 1:
            raise ConfigurationError(
                f"checkpoint_keep must be >= 1, got {self.checkpoint_keep}"
            )
        if self.guardrail_window < 1:
            raise ConfigurationError(
                f"guardrail_window must be >= 1, got {self.guardrail_window}"
            )
        if self.guardrail_cooldown_runs < 1:
            raise ConfigurationError(
                f"guardrail_cooldown_runs must be >= 1, "
                f"got {self.guardrail_cooldown_runs}"
            )
        if self.fallback_policy not in ("static", "lru"):
            raise ConfigurationError(
                f"fallback_policy must be 'static' or 'lru', "
                f"got {self.fallback_policy!r}"
            )
        if self.online_learning and is_recurrent(self.model_number):
            raise ConfigurationError(
                "online_learning supports the feed-forward Table-I models "
                "only; recurrent windows need contiguous chronology that "
                f"replay mixing breaks (model {self.model_number} is "
                "recurrent)"
            )
        if self.online_epochs < 1:
            raise ConfigurationError(
                f"online_epochs must be >= 1, got {self.online_epochs}"
            )
        if self.online_max_new_rows < 1:
            raise ConfigurationError(
                f"online_max_new_rows must be >= 1, "
                f"got {self.online_max_new_rows}"
            )
        if self.replay_sample_rows < 0:
            raise ConfigurationError(
                f"replay_sample_rows must be >= 0, "
                f"got {self.replay_sample_rows}"
            )
        if self.target_snapshot_every < 0:
            raise ConfigurationError(
                f"target_snapshot_every must be >= 0, "
                f"got {self.target_snapshot_every}"
            )
        if not 0.0 < self.trace_sample_rate <= 1.0:
            raise ConfigurationError(
                f"trace_sample_rate must be in (0, 1], "
                f"got {self.trace_sample_rate}"
            )
        if self.provenance_enabled and not self.causal_tracing_enabled:
            raise ConfigurationError(
                "provenance_enabled requires causal_tracing_enabled "
                "(decisions join to telemetry through trace ids)"
            )
        if self.slo_queue_delay_threshold_s <= 0:
            raise ConfigurationError(
                f"slo_queue_delay_threshold_s must be positive, "
                f"got {self.slo_queue_delay_threshold_s}"
            )
        if self.slo_throughput_floor_gbps < 0:
            raise ConfigurationError(
                f"slo_throughput_floor_gbps must be >= 0, "
                f"got {self.slo_throughput_floor_gbps}"
            )
        for spec in self.fault_schedule:
            # Raises ConfigurationError on a malformed entry.
            parse_fault_event(spec)

    @property
    def z(self) -> int:
        """Number of input features (the paper's Z)."""
        return len(self.features)
