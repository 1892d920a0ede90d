"""The DRL engine (paper sections V-A, V-B, V-C).

"the Deep Reinforcement Learning (DRL) engine determines any updates needed
to be done to the target system's data layout.  The DRL engine re-trains a
neural network using the most recent values stored in the ReplayDB to
calculate future values of the throughput."

The engine's prediction surface is per-location: for a file's most recent
access, it builds a probe batch whose rows differ only in the location
column (including the current location) and picks the location with the
highest predicted throughput.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.adjustment import PredictionAdjuster
from repro.core.config import GeomancyConfig
from repro.core.drift import PageHinkley
from repro.errors import ModelError
from repro.features.pipeline import FeaturePipeline, make_windows
from repro.nn.metrics import is_diverged, mean_absolute_relative_error
from repro.nn.model_zoo import build_model, is_recurrent
from repro.nn.network import train_val_test_split
from repro.nn.optimizers import get_optimizer
from repro.observability import Observability, get_observability
from repro.recovery.weight_snapshots import WeightSnapshotStore
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord
from repro.replaydb.replay_buffer import PrioritizedReplay

#: telemetry rows the ReplayDB must hold before the engine first trains
MIN_TRAINING_ROWS = 50
#: ReplayDB row ids the online prioritized replay buffer tracks
REPLAY_CAPACITY = 20_000
#: online_epochs multiplier for the re-adaptation burst after drift
DRIFT_BURST_MULTIPLIER = 4


def _spearman(a: list[float], b: list[float]) -> float:
    """Spearman rank correlation for two small equal-length lists."""
    if len(a) != len(b):
        raise ModelError(f"length mismatch: {len(a)} vs {len(b)}")

    def ranks(values: list[float]) -> np.ndarray:
        order = np.argsort(values)
        out = np.empty(len(values))
        out[order] = np.arange(len(values), dtype=np.float64)
        return out

    ra, rb = ranks(a), ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)


def _digest(matrix: np.ndarray) -> str:
    """Short content digest of a feature matrix, for provenance records."""
    return hashlib.sha256(
        np.ascontiguousarray(matrix).tobytes()
    ).hexdigest()[:16]


def _ordered_column_sum(matrix: np.ndarray) -> np.ndarray:
    """Column sums accumulated row-by-row, in order.

    ``matrix.sum(axis=0)`` uses pairwise summation whose grouping can
    differ from the reference path's sequential ``total += score``
    additions by an ulp; accumulating rows in order keeps the batched
    decision path bit-for-bit equal to the per-file loop.  Blocks are at
    most ``probe_samples`` rows, so this short loop costs nothing next to
    the forward passes it replaced.
    """
    total = np.zeros(matrix.shape[1], dtype=np.float64)
    for row in matrix:
        total += row
    return total


@dataclass
class TrainingReport:
    """Outcome of one engine (re)training cycle."""

    samples: int
    epochs: int
    train_seconds: float
    #: mean/std absolute relative error (%) on the held-out test split
    test_mare: float
    test_mare_std: float
    #: error of a predict-the-training-mean baseline on the same split
    constant_mare: float
    diverged: bool
    #: calibrated adjustment parameters (fractions)
    adjustment_mae: float
    adjustment_sign: int
    #: "scratch" (full-window retrain) or "incremental" (online update);
    #: defaults keep reports from older checkpoints loadable
    mode: str = "scratch"
    #: telemetry rows newly consumed this cycle (incremental mode)
    new_rows: int = 0
    #: prioritized-replay rows mixed into the update batch
    replayed_rows: int = 0
    #: whether the drift detector fired this cycle
    drift_detected: bool = False

    @property
    def accuracy_percent(self) -> float:
        """The paper's "accuracy" reading: 100 - MARE, floored at 0."""
        return max(0.0, 100.0 - self.test_mare)

    @property
    def skillful(self) -> bool:
        """Whether the model out-predicts a constant (train-mean) baseline.

        Used as the act/skip gate: a cycle whose model carries no skill
        proposes noise, and the paper only applies "layouts that the NN
        predicts will increase throughput performance".
        """
        return not self.diverged and self.test_mare < self.constant_mare


@dataclass
class Decision:
    """What one gated decision step (:meth:`DRLEngine.decide`) concluded."""

    #: None when the ReplayDB held too few rows to train
    training: TrainingReport | None = None
    #: fid -> proposed device; None when the step stopped before proposing
    proposal: dict[int, str] | None = None
    #: fid -> predicted gain over staying put (bytes/s)
    gains: dict[int, float] = field(default_factory=dict)
    #: a skill, divergence, error-ceiling or ranking gate stopped the step
    vetoed: bool = False


class DRLEngine:
    """Trains on ReplayDB telemetry; predicts throughput per location."""

    def __init__(
        self,
        config: GeomancyConfig | None = None,
        *,
        obs: Observability | None = None,
    ) -> None:
        self.config = config if config is not None else GeomancyConfig()
        self.obs = obs if obs is not None else get_observability()
        self.pipeline = FeaturePipeline(
            self.config.features,
            smoothing_window=self.config.smoothing_window,
            target=self.config.target,
            # Online mode cannot afford refit-on-window normalization, and
            # frozen first-window bounds go stale under drift; running
            # mean/var statistics track the stream at O(batch) cost.
            normalization=(
                "running" if self.config.online_learning else "minmax"
            ),
        )
        #: for throughput targets higher predictions are better; for
        #: latency targets (paper V-C future work) lower is better
        self._maximize = self.config.target == "throughput"
        self._recurrent = is_recurrent(self.config.model_number)
        self.model = self._fresh_model()
        self.adjuster = PredictionAdjuster()
        self.last_report: TrainingReport | None = None
        # -- decision provenance capture (off unless the causal layer asks) --
        #: when True, each train/propose call records what it consumed:
        #: the ReplayDB rowid window, a digest of the transformed feature
        #: matrix, and every candidate's predicted throughput
        self.capture_provenance = False
        #: inclusive rowid span of the last training window
        self.last_window: tuple[int, int] | None = None
        #: short sha256 of the last transformed feature matrix
        self.last_feature_digest: str | None = None
        #: fid -> {fsid: predicted bytes/s} from the last propose_layout
        self.last_candidates: dict[int, dict[int, float]] = {}
        #: fid -> predicted bytes/s at the placement the last propose call
        #: chose.  Always captured (one float per probed file): the
        #: sharding coordinator selects cross-shard export candidates from
        #: it -- the files a shard serves worst even at their best device.
        self.last_chosen_scores: dict[int, float] = {}
        #: mean predicted throughput (bytes/s) at the placements chosen by
        #: the most recent propose_layout call -- the "promise" the safe-mode
        #: guardrail compares realized throughput against
        self.last_predicted_mean: float | None = None
        # -- online continual learning state --------------------------------
        #: ReplayDB high-water-mark cursor: rows at or below it have been
        #: consumed by training; train_incremental fits on what is above
        self._hwm = 0
        #: incremental updates applied since the from-scratch base epoch
        self._updates = 0
        #: running mean of physical-unit targets (the constant baseline
        #: the skill gate compares against, maintained prequentially)
        self._target_mean = 0.0
        self._target_count = 0
        self.replay: PrioritizedReplay | None = None
        self.snapshots: WeightSnapshotStore | None = None
        self.drift_detector: PageHinkley | None = None
        if self.config.online_learning:
            self.replay = PrioritizedReplay(
                REPLAY_CAPACITY, seed=self.config.seed
            )
            if self.config.target_snapshot_every > 0:
                self.snapshots = WeightSnapshotStore(
                    self.config.weight_snapshot_dir
                )
            self.drift_detector = PageHinkley()
        metrics = self.obs.metrics
        self._m_train_rows = metrics.counter(
            "repro_engine_train_rows_total",
            "telemetry rows consumed by training cycles",
        )
        self._h_engine_train = metrics.histogram(
            "repro_engine_train_seconds",
            "wall seconds per decision-epoch training step",
        )
        self._m_trainings = metrics.counter(
            "repro_nn_trainings_total", "engine (re)training cycles"
        )
        self._m_predictions = metrics.counter(
            "repro_nn_predictions_total",
            "probe rows scored by forward passes",
        )
        self._h_train = metrics.histogram(
            "repro_nn_train_seconds", "wall seconds per training cycle"
        )
        self._g_test_mare = metrics.gauge(
            "repro_nn_test_mare_percent",
            "held-out mean absolute relative error of the latest training",
        )
        self._g_skillful = metrics.gauge(
            "repro_nn_skillful",
            "1 when the latest model out-predicts the constant baseline",
        )

    def _fresh_model(self):
        return build_model(
            self.config.model_number, self.config.z, seed=self.config.seed
        )

    @property
    def trained(self) -> bool:
        return self.last_report is not None

    # -- training ----------------------------------------------------------
    def train_on_records(self, records: list[AccessRecord]) -> TrainingReport:
        """Retrain from scratch on a chronological record batch.

        The paper's protocol: 60/20/20 chronological split, N epochs of
        plain SGD, MAE-sign adjustment calibrated on the validation split,
        accuracy reported on the test split.
        """
        return self._train_window(len(records), self._records_xy, records)

    def _records_xy(
        self, records: list[AccessRecord]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Data step of the record path: records -> normalized ``x, y``."""
        self.pipeline.ensure_fitted(records)
        return (
            self.pipeline.transform_features(records),
            self.pipeline.transform_target(records),
        )

    def _columns_xy(
        self, columns: dict[str, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Data step of the columnar path: the same ``x, y`` from columns."""
        self.pipeline.ensure_fitted_from_columns(columns)
        return (
            self.pipeline.transform_features_from_columns(columns),
            self.pipeline.transform_target_from_columns(columns),
        )

    def _train_window(self, samples: int, data_step, window) -> TrainingReport:
        """Fit, calibrate and score on one training window.

        ``data_step(window)`` turns the window (records or columns) into
        normalized ``x, y``; everything after it is shared by both paths.
        """
        if samples < 10:
            raise ModelError(
                f"need at least 10 records to train, got {samples}"
            )
        with self.obs.span("train_step", samples=samples):
            # Normalization bounds are learned once and then frozen: a
            # warm-started model must see consistently scaled inputs/targets
            # across cycles (later values beyond the bounds extrapolate
            # linearly, which the normalizer supports).
            with self.obs.span("feature_pipeline"):
                x, y = data_step(window)
                if self.capture_provenance:
                    self.last_feature_digest = _digest(x)
                if self._recurrent:
                    x, y = make_windows(x, y, self.config.timesteps)
                xt, yt, xv, yv, xs, ys = train_val_test_split(x, y)
            if not self.trained:
                self.model = self._fresh_model()
            optimizer = get_optimizer(
                self.config.optimizer, learning_rate=self.config.learning_rate
            )
            start = time.perf_counter()
            with self.obs.span("model_fit", epochs=self.config.epochs):
                history = self.model.fit(
                    xt, yt,
                    epochs=self.config.epochs,
                    batch_size=self.config.batch_size,
                    optimizer=optimizer,
                    validation_data=(xv, yv) if len(xv) else None,
                )
            elapsed = time.perf_counter() - start
            # Calibrate and score in physical units (bytes/s): relative
            # error on the normalized [0, 1] scale explodes near its zero
            # point, while the paper's Table II/III errors are on measured
            # throughput.
            calib_x, calib_y = (xv, yv) if len(xv) else (xt, yt)
            self.adjuster.fit(
                self.pipeline.inverse_transform_target(
                    self.model.predict(calib_x).ravel()
                ),
                self.pipeline.inverse_transform_target(calib_y),
            )
            test_x, test_y = (xs, ys) if len(xs) else (xt, yt)
            test_pred = self.pipeline.inverse_transform_target(
                self.model.predict(test_x).ravel()
            )
            test_true = self.pipeline.inverse_transform_target(test_y)
            mare, mare_std = mean_absolute_relative_error(test_pred, test_true)
            train_mean = float(
                np.mean(self.pipeline.inverse_transform_target(yt))
            )
            constant_mare, _ = mean_absolute_relative_error(
                np.full_like(test_true, train_mean), test_true
            )
            report = TrainingReport(
                samples=samples,
                epochs=history.epochs_run,
                train_seconds=elapsed,
                test_mare=mare,
                test_mare_std=mare_std,
                constant_mare=constant_mare,
                diverged=(
                    history.diverged or is_diverged(test_pred, test_true)
                ),
                adjustment_mae=self.adjuster.mae,
                adjustment_sign=self.adjuster.sign,
            )
        return self._finish_training(report, samples, elapsed)

    def _finish_training(
        self, report: TrainingReport, rows: int, elapsed: float
    ) -> TrainingReport:
        """Publish a training cycle's report and metrics."""
        self.last_report = report
        self._m_trainings.inc()
        self._m_train_rows.inc(rows)
        self._h_train.observe(elapsed)
        self._h_engine_train.observe(elapsed)
        self._g_test_mare.set(report.test_mare)
        self._g_skillful.set(1.0 if report.skillful else 0.0)
        return report

    def train(self, db: ReplayDB) -> TrainingReport:
        """Retrain on the most recent ``training_rows`` ReplayDB accesses.

        When every feature derives from the numeric access columns the
        window is read as columns and never becomes AccessRecords; an
        ``extra``-feature pipeline reads records.  Both give the same
        ``x, y`` and hence the same model.
        """
        limit = self.config.training_rows
        if self.pipeline.columnar:
            window = db.recent_access_columns(limit)
            samples, data_step = len(window["fid"]), self._columns_xy
        else:
            window = db.recent_accesses(limit)
            samples, data_step = len(window), self._records_xy
        if self.capture_provenance and samples:
            # Both reads flush the write-behind buffer, so the max rowid
            # now names the newest row in the window.
            hi = db.max_rowid()
            self.last_window = (hi - samples + 1, hi)
        return self._train_window(samples, data_step, window)

    # -- online continual learning ------------------------------------------
    def _update_target_mean(self, targets: np.ndarray) -> None:
        """Fold a batch of physical-unit targets into the running mean."""
        for value in targets:
            self._target_count += 1
            self._target_mean += (
                float(value) - self._target_mean
            ) / self._target_count

    def _bootstrap_online_state(self, db: ReplayDB) -> None:
        """Initialize the cursor/replay/baseline after the base epoch."""
        ids, records = db.accesses_since(
            0, limit=self.config.training_rows
        )
        if ids:
            self._hwm = max(self._hwm, ids[-1], db.max_rowid())
            self.replay.add(ids)
            self._update_target_mean(self.pipeline.target_vector(records))
        self._updates = 0
        if self.snapshots is not None and self.model.built:
            self.snapshots.save(self.model, 0)

    def rollback_weights(self) -> int | None:
        """Restore the newest frozen-weight snapshot into the live model.

        The guardrail's loss-explosion hook: returns the restored
        snapshot's step, or ``None`` when online snapshots are disabled
        or none exists yet.
        """
        if self.snapshots is None or not self.model.built:
            return None
        return self.snapshots.restore_latest(self.model)

    def train_incremental(self, db: ReplayDB) -> TrainingReport:
        """Online update: fit on rows appended since the last decision point.

        The flat-cost decision epoch.  The first call delegates to the
        from-scratch oracle :meth:`train` (bit-for-bit: the pinned-seed
        equivalence test holds the two paths together), then seeds the
        high-water-mark cursor and the prioritized replay buffer.  Every
        later call:

        1. fetches the (burst-bounded) rows above the cursor -- O(new),
           not O(history);
        2. scores them *prequentially* (predict-then-train), which yields
           an honest held-out error for the report and feeds the
           Page-Hinkley drift detector with the cycle's mean relative
           residual;
        3. merges the rows into the running normalization statistics;
        4. mixes them with a prioritized sample of buffered history
           (TD-style error x recency weighting, importance-weight
           corrected in the loss) and runs a few warm-start SGD epochs --
           a drift detection multiplies the epoch budget for the cycle's
           re-adaptation burst;
        5. re-scores the batch to refresh replay priorities, and
           periodically snapshots the weights for the guardrail's
           loss-explosion rollback.

        Every step is O(new + replay_sample + capacity) regardless of
        ReplayDB size, which is what ``benchmarks/bench_online.py`` gates.
        """
        if not self.config.online_learning:
            raise ModelError(
                "train_incremental requires config.online_learning=True; "
                "use train() for the from-scratch path"
            )
        if not self.trained:
            with self.obs.span("train_incremental", bootstrap=True):
                report = self.train(db)
                self._bootstrap_online_state(db)
            return report
        with self.obs.span("train_incremental"):
            ids, fresh = db.accesses_since(
                self._hwm, limit=self.config.online_max_new_rows
            )
            if not ids:
                # Nothing new arrived: the model is unchanged, the last
                # report still describes it.
                return self.last_report
            if self.capture_provenance:
                self.last_window = (ids[0], ids[-1])
            self._hwm = ids[-1]
            start = time.perf_counter()
            # -- prequential evaluation (predict before training) ----------
            fresh_true = self.pipeline.target_vector(fresh)
            fresh_pred = self.pipeline.inverse_transform_target(
                self.model.predict(
                    self.pipeline.transform_features(fresh)
                ).ravel()
            )
            mare, mare_std = mean_absolute_relative_error(
                fresh_pred, fresh_true
            )
            constant_mare, _ = mean_absolute_relative_error(
                np.full_like(fresh_true, self._target_mean), fresh_true
            )
            drift = False
            if np.isfinite(mare):
                drift = self.drift_detector.update(mare / 100.0)
            if drift:
                statistic = self.drift_detector.statistic
                self.drift_detector.reset()
                self.obs.emit(
                    "drift-detected",
                    t=fresh[-1].close_time,
                    step=self._updates,
                    mean_relative_error=mare / 100.0,
                    statistic=statistic,
                )
            # -- incremental normalization + replay mixing -----------------
            self._update_target_mean(fresh_true)
            self.pipeline.partial_fit(fresh)
            replay_ids = np.empty(0, dtype=np.int64)
            replay_weights = np.empty(0, dtype=np.float64)
            if self.config.replay_sample_rows > 0 and len(self.replay):
                replay_ids, replay_weights = self.replay.sample(
                    self.config.replay_sample_rows
                )
                order = np.argsort(replay_ids)
                replay_ids = replay_ids[order]
                replay_weights = replay_weights[order]
            self.replay.add(ids)
            replayed = db.accesses_by_id(replay_ids)
            if len(replayed) != len(replay_ids):
                raise ModelError(
                    f"replay sample fetched {len(replayed)} rows for "
                    f"{len(replay_ids)} buffered ids; ReplayDB rows must "
                    "never disappear under the buffer"
                )
            records = replayed + fresh
            batch_ids = np.concatenate(
                (replay_ids, np.asarray(ids, dtype=np.int64))
            )
            weights = np.concatenate(
                (replay_weights, np.ones(len(fresh), dtype=np.float64))
            )
            x = self.pipeline.transform_features(records)
            y = self.pipeline.transform_target(records)
            if self.capture_provenance:
                self.last_feature_digest = _digest(x)
            epochs = self.config.online_epochs * (
                DRIFT_BURST_MULTIPLIER if drift else 1
            )
            optimizer = get_optimizer(
                self.config.optimizer, learning_rate=self.config.learning_rate
            )
            with self.obs.span(
                "model_fit", epochs=epochs, rows=len(records)
            ):
                history = self.model.fit(
                    x, y,
                    epochs=epochs,
                    batch_size=self.config.batch_size,
                    optimizer=optimizer,
                    sample_weight=weights,
                )
            # -- refresh priorities and calibration ------------------------
            post_pred = self.pipeline.inverse_transform_target(
                self.model.predict(x).ravel()
            )
            post_true = self.pipeline.inverse_transform_target(y)
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.maximum(np.abs(post_true), 1e-12)
                residuals = np.abs(post_pred - post_true) / scale
            self.replay.update_priorities(batch_ids, residuals)
            fresh_post_pred = post_pred[len(replayed):]
            fresh_post_true = post_true[len(replayed):]
            self.adjuster.fit(fresh_post_pred, fresh_post_true)
            diverged = bool(
                history.diverged
                or is_diverged(fresh_post_pred, fresh_post_true)
            )
            elapsed = time.perf_counter() - start
            self._updates += 1
            if (
                self.snapshots is not None
                and not diverged
                and self.config.target_snapshot_every > 0
                and self._updates % self.config.target_snapshot_every == 0
            ):
                self.snapshots.save(self.model, self._updates)
            report = TrainingReport(
                samples=len(records),
                epochs=history.epochs_run,
                train_seconds=elapsed,
                test_mare=mare,
                test_mare_std=mare_std,
                constant_mare=constant_mare,
                diverged=diverged,
                adjustment_mae=self.adjuster.mae,
                adjustment_sign=self.adjuster.sign,
                mode="incremental",
                new_rows=len(fresh),
                replayed_rows=len(replayed),
                drift_detected=drift,
            )
        return self._finish_training(report, len(records), elapsed)

    # -- the gated decision step --------------------------------------------
    def decide(
        self,
        db: ReplayDB,
        fids: list[int],
        device_by_fsid: dict[int, str],
    ) -> Decision:
        """One gated decision step: train, check the gates, propose.

        Trains (incrementally in online mode) once the ReplayDB holds
        :data:`MIN_TRAINING_ROWS` rows, then vetoes the cycle when the
        model lacks skill, diverged, errs above ``max_actionable_mare``,
        or ranks the devices opposite to the telemetry; otherwise
        proposes a layout for ``fids`` over ``device_by_fsid``.  The
        caller filters the proposal (Action Checker, move cap) itself.
        """
        if db.access_count() < MIN_TRAINING_ROWS:
            return Decision()
        report = (
            self.train_incremental(db)
            if self.config.online_learning
            else self.train(db)
        )
        if (
            (self.config.require_skill and not report.skillful)
            or report.diverged
            or report.test_mare > self.config.max_actionable_mare
        ):
            # A diverged or skill-less model's layout would be noise; skip
            # this cycle and let the next retraining try again.
            return Decision(training=report, vetoed=True)
        if not device_by_fsid:
            return Decision(training=report)
        with self.obs.span("ranking_check"):
            inverted = (
                self.config.require_ranking_sanity
                and self.ranking_correlation(db, device_by_fsid) < 0.0
            )
        if inverted:
            # Acting on an inverted ranking would herd files onto the
            # worst devices.
            return Decision(training=report, vetoed=True)
        proposal, gains = self.propose_layout(db, fids, device_by_fsid)
        return Decision(training=report, proposal=proposal, gains=gains)

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable engine state, *excluding* model weights.

        Weights are large binary arrays and are checkpointed separately
        through :mod:`repro.nn.serialization` (with their own checksums);
        this dict covers everything else a restored engine needs to behave
        identically: normalization bounds, the calibrated adjuster, the
        last training report, and the model's RNG stream.
        """
        return {
            "pipeline": self.pipeline.state_dict(),
            "adjuster": self.adjuster.state_dict(),
            "last_report": (
                asdict(self.last_report)
                if self.last_report is not None else None
            ),
            "last_predicted_mean": self.last_predicted_mean,
            "model_built": self.model.built,
            "model_rng": self.model._rng.bit_generator.state,
            "online": {
                "hwm": self._hwm,
                "updates": self._updates,
                "target_mean": self._target_mean,
                "target_count": self._target_count,
                "replay": (
                    self.replay.state_dict()
                    if self.replay is not None else None
                ),
                "drift": (
                    self.drift_detector.state_dict()
                    if self.drift_detector is not None else None
                ),
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output.

        Builds the model if it was built at capture time (the caller then
        loads the weight file over the freshly initialized parameters) and
        restores the RNG stream *after* building, so the stream position
        matches the original process exactly.
        """
        self.pipeline.load_state_dict(state["pipeline"])
        self.adjuster.load_state_dict(state["adjuster"])
        self.last_report = (
            TrainingReport(**state["last_report"])
            if state["last_report"] is not None else None
        )
        self.last_predicted_mean = state["last_predicted_mean"]
        if state["model_built"] and not self.model.built:
            self.model.build(self.config.z)
        self.model._rng.bit_generator.state = state["model_rng"]
        # Checkpoints from before the online-learning mode carry no
        # "online" section; the zero-state defaults already apply.
        online = state.get("online")
        if online is not None:
            self._hwm = int(online["hwm"])
            self._updates = int(online["updates"])
            self._target_mean = float(online["target_mean"])
            self._target_count = int(online["target_count"])
            if online["replay"] is not None and self.replay is not None:
                self.replay.load_state_dict(online["replay"])
            if online["drift"] is not None and self.drift_detector is not None:
                self.drift_detector.load_state_dict(online["drift"])

    # -- prediction --------------------------------------------------------
    def predict_location_throughputs(
        self, base: AccessRecord, fsids: list[int]
    ) -> dict[int, float]:
        """Predicted throughput (bytes/s) of ``base``'s file per location.

        Applies the MAE-sign adjustment when configured.  Raw (normalized)
        model outputs are inverse-transformed into physical units so
        locations are compared on bytes/s.
        """
        if not self.trained:
            raise ModelError("engine must be trained before predicting")
        probe = self.pipeline.build_location_probe(base, fsids)
        predictions = self.model.predict(probe).ravel()
        throughput = self.pipeline.inverse_transform_target(predictions)
        if self.config.adjust_predictions:
            throughput = self.adjuster.adjust(throughput)
        return dict(zip(fsids, (float(v) for v in throughput)))

    def predict_throughput_matrix(
        self, bases: list[AccessRecord], fsids: list[int]
    ) -> np.ndarray:
        """Predicted throughput for every (base access, location) pair.

        The batched decision-path core: one probe tensor covering all
        ``len(bases) * len(fsids)`` candidate placements, one forward pass,
        one vectorized inverse-transform/adjustment.  Returns an array of
        shape ``(len(bases), len(fsids))`` where entry ``(i, j)`` equals
        ``predict_location_throughputs(bases[i], fsids)[fsids[j]]`` -- the
        per-base path survives as the numeric reference, and the
        equivalence is regression-tested bit-for-bit.
        """
        if not self.trained:
            raise ModelError("engine must be trained before predicting")
        probe = self.pipeline.build_location_probe_batch(bases, fsids)
        return self._predict_probe(probe, len(bases), len(fsids))

    def _predict_probe(
        self, probe: np.ndarray, n_bases: int, n_fsids: int
    ) -> np.ndarray:
        """One forward pass + vectorized post-processing over a probe."""
        with self.obs.span("model_predict", rows=len(probe)):
            predictions = self.model.predict(probe).ravel()
            throughput = self.pipeline.inverse_transform_target(predictions)
            if self.config.adjust_predictions:
                throughput = self.adjuster.adjust(throughput)
        self._m_predictions.inc(len(probe))
        return throughput.reshape(n_bases, n_fsids)

    def _gather_probe_bases(
        self, db: ReplayDB, fids: list[int]
    ) -> tuple[dict[int, tuple[int, int, int]], np.ndarray | None]:
        """Recent telemetry for the probed files as one raw feature matrix.

        One window-function ReplayDB query replaces the per-file loop.
        When every feature derives from the numeric access columns the
        telemetry never materializes AccessRecords at all (columnar fast
        path); extra-telemetry feature sets fall back to record batches.
        Returns ``(per_fid, raw)`` where ``per_fid`` maps each probed fid
        to its ``(start, stop, current_fsid)`` row span into ``raw``.
        """
        limit = self.config.probe_samples
        if self.pipeline.columnar:
            spans, columns = db.recent_access_columns_per_file(
                limit, fids=fids
            )
            if not spans:
                return {}, None
            per_fid = {
                fid: (start, stop, int(columns["fsid"][stop - 1]))
                for fid, start, stop in spans
            }
            return per_fid, self.pipeline.feature_matrix_from_columns(columns)
        recent_by_fid = db.recent_accesses_per_file(limit, fids=fids)
        if not recent_by_fid:
            return {}, None
        bases: list[AccessRecord] = []
        per_fid = {}
        for fid in sorted(recent_by_fid):
            recent = recent_by_fid[fid]
            per_fid[fid] = (
                len(bases), len(bases) + len(recent), recent[-1].fsid
            )
            bases.extend(recent)
        return per_fid, self.pipeline.feature_matrix(bases)

    def ranking_correlation(
        self,
        db: ReplayDB,
        device_by_fsid: dict[int, str],
        *,
        probe_bases: int = 32,
    ) -> float:
        """Agreement between predicted and observed device orderings.

        Spearman rank correlation between (a) the model's mean per-device
        prediction over a sample of recent accesses and (b) each device's
        mean observed target in the ReplayDB.  +1 means the model ranks
        devices exactly as the telemetry does; negative means the model is
        *inverted* and acting on it would move files toward the worst
        devices.  Returns 1.0 when fewer than two devices have telemetry.
        """
        if not self.trained:
            raise ModelError("engine must be trained before predicting")
        # One grouped AVG query; devices without telemetry are absent.  A
        # failing ReplayDB raises here instead of leaving every device
        # out (which would read as "fewer than two devices": pass).
        averages = dict(db.device_throughput_ranking())
        # For latency targets lower observed *throughput* still means a
        # worse device, so the observed ordering is the same.
        observed = {
            fsid: averages[device]
            for fsid, device in device_by_fsid.items()
            if device in averages
        }
        if len(observed) < 2:
            return 1.0
        fsids = sorted(observed)
        if self.pipeline.columnar:
            raw = self.pipeline.feature_matrix_from_columns(
                db.recent_access_columns(probe_bases)
            )
        else:
            bases = db.recent_accesses(probe_bases)
            raw = (
                self.pipeline.feature_matrix(bases) if bases
                else np.empty((0, self.pipeline.z))
            )
        if len(raw):
            # One batched forward pass over every (base, device) probe
            # instead of a model call per base: correlation checks run
            # every training cycle, so they ride the same fast path as
            # propose_layout.
            probe = self.pipeline.build_location_probe_from_matrix(raw, fsids)
            matrix = self._predict_probe(probe, len(raw), len(fsids))
            predicted = [float(v) for v in _ordered_column_sum(matrix)]
        else:
            predicted = [0.0 for _ in fsids]
        if not self._maximize:
            # Latency predictions: smaller is better, so invert for the
            # comparison against observed throughput.
            predicted = [-p for p in predicted]
        return _spearman(predicted, [observed[fsid] for fsid in fsids])

    def _choose_placement(
        self, scores: dict[int, float], current_fsid: int
    ) -> tuple[int, float]:
        """The act/skip rule shared by the batched and reference paths."""
        if self._maximize:
            best = max(scores, key=lambda fsid: scores[fsid])
        else:
            best = min(scores, key=lambda fsid: scores[fsid])
        if current_fsid in scores:
            current_score = scores[current_fsid]
            gain = (
                scores[best] - current_score
                if self._maximize
                else current_score - scores[best]
            )
            # Propose a move only when the model predicts a clear win
            # at the new location; flat or marginal predictions keep
            # the file where it is ("it only applies layouts that the
            # NN predicts will increase throughput performance", VI).
            threshold = self.config.min_gain_fraction * abs(current_score)
            if best != current_fsid and gain <= threshold:
                best = current_fsid
                gain = 0.0
        else:
            # The file's current device is not a candidate (it stopped
            # accepting placements): moving to the best available
            # location is always proposed.
            gain = abs(scores[best])
        return best, gain

    def propose_layout(
        self,
        db: ReplayDB,
        fids: list[int],
        device_by_fsid: dict[int, str],
    ) -> tuple[dict[int, str], dict[int, float]]:
        """Highest-predicted-throughput device for every file.

        Returns ``(layout, gains)``: the proposed fid -> device mapping and
        each file's predicted throughput improvement over staying put
        (bytes/s), which the move cap uses to prioritise.  Files with no
        telemetry yet are skipped (nothing to probe from).

        Batched decision path: one window-function ReplayDB query fetches
        every file's recent accesses, one forward pass scores every
        (file, access, location) probe, and the per-file aggregation
        reduces the prediction matrix.  Bit-for-bit equivalent to
        :meth:`propose_layout_reference` (regression-tested), which remains
        as the readable per-file specification.
        """
        if not self.trained:
            raise ModelError("engine must be trained before predicting")
        if not device_by_fsid:
            raise ModelError("no candidate locations supplied")
        with self.obs.span("propose_layout", files=len(fids)):
            fsids = sorted(device_by_fsid)
            per_fid, raw = self._gather_probe_bases(db, fids)
            layout: dict[int, str] = {}
            gains: dict[int, float] = {}
            chosen_scores: list[float] = []
            self.last_chosen_scores = {}
            if self.capture_provenance:
                self.last_candidates = {}
            if raw is None:
                self.last_predicted_mean = None
                return layout, gains
            probe = self.pipeline.build_location_probe_from_matrix(
                raw, fsids
            )
            matrix = self._predict_probe(probe, len(raw), len(fsids))
            for fid in fids:
                span = per_fid.get(fid)
                if span is None:
                    continue
                start, stop, current_fsid = span
                # Average the per-location scores over several recent
                # accesses: a single access's features carry noise (burst
                # position, request size) that would otherwise whipsaw
                # placements.
                totals = _ordered_column_sum(matrix[start:stop])
                scores = {
                    fsid: float(total) / (stop - start)
                    for fsid, total in zip(fsids, totals)
                }
                best, gain = self._choose_placement(scores, current_fsid)
                layout[fid] = device_by_fsid[best]
                gains[fid] = gain
                chosen_scores.append(scores[best])
                self.last_chosen_scores[fid] = scores[best]
                if self.capture_provenance:
                    self.last_candidates[fid] = scores
            self.last_predicted_mean = (
                float(np.mean(chosen_scores)) if chosen_scores else None
            )
            return layout, gains

    def propose_layout_reference(
        self,
        db: ReplayDB,
        fids: list[int],
        device_by_fsid: dict[int, str],
    ) -> tuple[dict[int, str], dict[int, float]]:
        """The legacy per-file decision loop, kept as the numeric reference.

        Issues one ReplayDB query and ``probe_samples`` model calls per
        file -- O(files x probe_samples) forward passes against the batched
        path's one.  :meth:`propose_layout` must match this bit-for-bit;
        the equivalence test and the decision-epoch micro-benchmark both
        run the two side by side.
        """
        if not device_by_fsid:
            raise ModelError("no candidate locations supplied")
        fsids = sorted(device_by_fsid)
        layout: dict[int, str] = {}
        gains: dict[int, float] = {}
        chosen_scores: list[float] = []
        self.last_chosen_scores = {}
        for fid in fids:
            recent = db.recent_accesses(self.config.probe_samples, fid=fid)
            if not recent:
                continue
            totals = {fsid: 0.0 for fsid in fsids}
            for base in recent:
                scores = self.predict_location_throughputs(base, fsids)
                for fsid in fsids:
                    totals[fsid] += scores[fsid]
            scores = {
                fsid: total / len(recent) for fsid, total in totals.items()
            }
            best, gain = self._choose_placement(scores, recent[-1].fsid)
            layout[fid] = device_by_fsid[best]
            gains[fid] = gain
            chosen_scores.append(scores[best])
            self.last_chosen_scores[fid] = scores[best]
        self.last_predicted_mean = (
            float(np.mean(chosen_scores)) if chosen_scores else None
        )
        return layout, gains
