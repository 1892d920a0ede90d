"""Online continual-learning engine: oracle equivalence, cursors,
replay mixing, drift bursts, snapshots, checkpointing, telemetry."""

import numpy as np
import pytest

from repro.core.config import GeomancyConfig
from repro.core.drift import PageHinkley
from repro.core.engine import DRLEngine
from repro.errors import ConfigurationError, ModelError
from repro.experiments.decision_bench import synthetic_decision_records
from repro.nn.serialization import _weight_arrays, load_weights, save_weights
from repro.observability import Observability
from repro.replaydb.db import ReplayDB


def make_config(**overrides):
    base = dict(
        model_number=1,
        epochs=6,
        training_rows=400,
        batch_size=32,
        smoothing_window=5,
        learning_rate=0.05,
        seed=3,
        probe_samples=4,
        online_learning=True,
        online_epochs=3,
        online_max_new_rows=256,
        replay_sample_rows=64,
    )
    base.update(overrides)
    return GeomancyConfig(**base)


def shifted_records(rows, *, seed, start_t, invert=False):
    """Synthetic telemetry; ``invert=True`` flips the location signal."""
    rng = np.random.default_rng(seed)
    from repro.replaydb.records import AccessRecord

    records, t = [], start_t
    for _ in range(rows):
        fid = int(rng.integers(0, 32))
        fsid = int(rng.integers(1, 7))
        rb = int(rng.integers(1 << 18, 1 << 22))
        speed = 50e6 * ((7 - fsid) if invert else fsid)
        duration = max(rb / (speed * (1 + 0.05 * rng.standard_normal())), 1e-4)
        t += 2
        records.append(
            AccessRecord(
                fid=fid, fsid=fsid, device=f"dev{fsid}", path=f"/f{fid}",
                rb=rb, wb=0, ots=t, otms=0, cts=t + int(duration),
                ctms=max(1, int((duration % 1) * 1000)),
            )
        )
    return records


def weights_equal(a, b):
    wa, wb = _weight_arrays(a.model), _weight_arrays(b.model)
    return wa.keys() == wb.keys() and all(
        np.array_equal(wa[k], wb[k]) for k in wa
    )


@pytest.fixture
def db():
    with ReplayDB() as db:
        db.insert_accesses(synthetic_decision_records(rows=500, seed=0))
        yield db


class TestModeGates:
    def test_requires_online_config(self, db):
        engine = DRLEngine(make_config(online_learning=False))
        with pytest.raises(ModelError):
            engine.train_incremental(db)

    def test_online_rejects_recurrent_models(self):
        with pytest.raises(ConfigurationError):
            make_config(model_number=12)

    def test_train_still_works_under_online_config(self, db):
        report = DRLEngine(make_config()).train(db)
        assert report.mode == "scratch"


class TestOracleEquivalence:
    def test_first_incremental_epoch_is_from_scratch_train(self, db):
        config = make_config()
        scratch, online = DRLEngine(config), DRLEngine(config)
        report_a = scratch.train(db)
        report_b = online.train_incremental(db)
        assert report_a.test_mare == report_b.test_mare
        assert report_a.test_mare_std == report_b.test_mare_std
        assert weights_equal(scratch, online)
        fids = db.files()
        device_by_fsid = {k: f"dev{k}" for k in range(1, 7)}
        layout_a, gains_a = scratch.propose_layout(db, fids, device_by_fsid)
        layout_b, gains_b = online.propose_layout(db, fids, device_by_fsid)
        assert layout_a == layout_b
        assert gains_a == gains_b


class TestIncrementalCycle:
    def test_cursor_advances_and_fits_only_new_rows(self, db):
        engine = DRLEngine(make_config())
        engine.train_incremental(db)
        assert engine._hwm == db.max_rowid()
        db.insert_accesses(
            shifted_records(100, seed=1, start_t=1_600_010_000)
        )
        report = engine.train_incremental(db)
        assert report.mode == "incremental"
        assert report.new_rows == 100
        assert 0 < report.replayed_rows <= 64
        assert report.samples == report.new_rows + report.replayed_rows
        assert engine._hwm == db.max_rowid()

    def test_no_new_rows_is_a_noop(self, db):
        engine = DRLEngine(make_config())
        first = engine.train_incremental(db)
        again = engine.train_incremental(db)
        assert again is first

    def test_burst_bound_caps_consumed_rows(self, db):
        engine = DRLEngine(make_config(online_max_new_rows=50))
        engine.train_incremental(db)
        db.insert_accesses(
            shifted_records(300, seed=2, start_t=1_600_010_000)
        )
        report = engine.train_incremental(db)
        assert report.new_rows == 50
        # Skipped older rows are never revisited: cursor is at the head.
        assert engine._hwm == db.max_rowid()

    def test_replay_disabled_when_sample_rows_zero(self, db):
        engine = DRLEngine(make_config(replay_sample_rows=0))
        engine.train_incremental(db)
        db.insert_accesses(
            shifted_records(80, seed=3, start_t=1_600_010_000)
        )
        report = engine.train_incremental(db)
        assert report.replayed_rows == 0
        assert report.samples == 80


class TestDrift:
    def test_distribution_shift_detected_with_burst(self):
        obs = Observability()
        engine = DRLEngine(make_config(), obs=obs)
        engine.drift_detector = PageHinkley(threshold=0.2, min_samples=2)
        db = ReplayDB()
        t = 1_600_000_000
        # Bootstrap and stationary cycles draw from the same generator,
        # so the detector's running mean settles on the in-distribution
        # residual level before the shift arrives.
        db.insert_accesses(shifted_records(500, seed=9, start_t=t))
        t += 1_000
        engine.train_incremental(db)
        for i in range(3):
            db.insert_accesses(
                shifted_records(120, seed=10 + i, start_t=t)
            )
            t += 240
            report = engine.train_incremental(db)
            assert not report.drift_detected
        # ...then the location signal inverts: residuals jump.
        drift_reports = []
        for i in range(6):
            db.insert_accesses(
                shifted_records(
                    120, seed=20 + i, start_t=t, invert=True
                )
            )
            t += 240
            drift_reports.append(engine.train_incremental(db))
        fired = [r for r in drift_reports if r.drift_detected]
        assert fired
        # The re-adaptation burst multiplied the epoch budget.
        assert fired[0].epochs > 3
        events = obs.bus.of_kind("drift-detected")
        assert events
        assert events[0].detail["mean_relative_error"] > 0


class TestSnapshotsAndRollback:
    def test_periodic_snapshots_and_rollback(self, db):
        engine = DRLEngine(make_config(target_snapshot_every=2))
        engine.train_incremental(db)
        assert engine.snapshots.steps() == [0]
        t = 1_600_010_000
        for i in range(2):
            db.insert_accesses(shifted_records(60, seed=30 + i, start_t=t))
            t += 10_000
            engine.train_incremental(db)
        assert engine.snapshots.steps() == [0, 2]
        frozen = _weight_arrays(engine.model)
        frozen = {k: v.copy() for k, v in frozen.items()}
        for layer in engine.model.layers:
            for param in layer.params.values():
                param += 5.0  # poison the live weights
        assert engine.rollback_weights() == 2
        restored = _weight_arrays(engine.model)
        for key in frozen:
            np.testing.assert_array_equal(restored[key], frozen[key])

    def test_rollback_without_snapshots_is_none(self, db):
        engine = DRLEngine(make_config(target_snapshot_every=0))
        engine.train_incremental(db)
        assert engine.snapshots is None
        assert engine.rollback_weights() is None


class TestCheckpointing:
    def test_state_round_trip_resumes_identically(self, db, tmp_path):
        config = make_config()
        a = DRLEngine(config)
        a.train_incremental(db)
        db.insert_accesses(
            shifted_records(90, seed=40, start_t=1_600_010_000)
        )
        a.train_incremental(db)

        save_weights(a.model, tmp_path / "w.npz")
        state = a.state_dict()
        b = DRLEngine(config)
        b.model.build(a.model.layers[0].params["W"].shape[0])
        load_weights(b.model, tmp_path / "w.npz")
        b.load_state_dict(state)
        assert b._hwm == a._hwm
        assert b._updates == a._updates

        db.insert_accesses(
            shifted_records(90, seed=41, start_t=1_600_020_000)
        )
        report_a = a.train_incremental(db)
        report_b = b.train_incremental(db)
        assert report_a.test_mare == report_b.test_mare
        assert report_a.replayed_rows == report_b.replayed_rows
        assert weights_equal(a, b)

    def test_legacy_state_without_online_section_loads(self, db):
        engine = DRLEngine(make_config())
        engine.train_incremental(db)
        state = engine.state_dict()
        del state["online"]
        fresh = DRLEngine(make_config())
        fresh.train(db)
        fresh.load_state_dict(state)  # must not raise


class TestTelemetry:
    def test_training_metrics_move(self, db):
        obs = Observability()
        engine = DRLEngine(make_config(), obs=obs)
        engine.train_incremental(db)
        db.insert_accesses(
            shifted_records(70, seed=50, start_t=1_600_010_000)
        )
        report = engine.train_incremental(db)
        rows = obs.metrics.counter("repro_engine_train_rows_total")
        seconds = obs.metrics.histogram("repro_engine_train_seconds")
        assert rows.value >= 400 + report.samples
        assert seconds.count >= 1

    def test_incremental_cycle_traced(self, db):
        obs = Observability()
        engine = DRLEngine(make_config(), obs=obs)
        engine.train_incremental(db)
        db.insert_accesses(
            shifted_records(70, seed=51, start_t=1_600_010_000)
        )
        engine.train_incremental(db)
        names = {span["name"] for span in obs.tracer.spans}
        assert "train_incremental" in names
        assert "model_fit" in names
