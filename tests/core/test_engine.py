"""Tests for the DRL engine."""

import numpy as np
import pytest

from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine
from repro.errors import ModelError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord


def synthetic_records(n=400, n_devices=3, seed=0):
    """Telemetry where device fsid determines throughput cleanly:
    fsid 0 slow, fsid 2 fast."""
    rng = np.random.default_rng(seed)
    records = []
    t = 100
    for i in range(n):
        fsid = i % n_devices
        rate = (fsid + 1) * 1e8  # bytes/s
        rb = int(rng.uniform(0.5, 1.5) * 1e8)
        duration = rb / rate
        cts = t + int(duration)
        ctms = int((duration - int(duration)) * 1000)
        if cts == t and ctms == 0:
            ctms = 1
        records.append(
            AccessRecord(
                fid=i % 6, fsid=fsid, device=f"dev{fsid}", path=f"f{i % 6}",
                rb=rb, wb=0, ots=t, otms=0, cts=cts, ctms=ctms,
            )
        )
        t = cts + 1
    return records


def small_config(**overrides):
    base = dict(
        epochs=60, training_rows=400, batch_size=32,
        smoothing_window=5, learning_rate=0.05, seed=1,
    )
    base.update(overrides)
    return GeomancyConfig(**base)


@pytest.fixture(scope="module")
def trained_engine():
    engine = DRLEngine(small_config())
    records = synthetic_records()
    report = engine.train_on_records(records)
    return engine, records, report


class TestTraining:
    def test_report_fields(self, trained_engine):
        _, records, report = trained_engine
        assert report.samples == len(records)
        assert report.epochs == 60
        assert report.train_seconds > 0.0
        assert not report.diverged

    def test_learns_device_speed_signal(self, trained_engine):
        # fsid determines throughput 1:3 here; the model should land well
        # under a constant predictor's error.
        _, _, report = trained_engine
        assert report.test_mare < 40.0

    def test_accuracy_percent_reading(self, trained_engine):
        _, _, report = trained_engine
        assert report.accuracy_percent == pytest.approx(
            100.0 - report.test_mare
        )

    def test_train_from_db(self):
        engine = DRLEngine(small_config())
        db = ReplayDB()
        db.insert_accesses(synthetic_records(200))
        report = engine.train(db)
        assert report.samples == 200
        assert engine.trained

    def test_too_few_records_rejected(self):
        engine = DRLEngine(small_config())
        with pytest.raises(ModelError, match="at least 10"):
            engine.train_on_records(synthetic_records(5))

    def test_recurrent_model_trains(self):
        engine = DRLEngine(small_config(model_number=14, timesteps=4, epochs=20))
        report = engine.train_on_records(synthetic_records(200))
        assert report.epochs == 20

    def test_warm_start_keeps_model_instance(self):
        engine = DRLEngine(small_config(epochs=5))
        records = synthetic_records(100)
        engine.train_on_records(records)
        first = engine.model
        engine.train_on_records(records)
        assert engine.model is first

    def test_warm_start_freezes_normalization(self):
        engine = DRLEngine(small_config(epochs=5))
        records = synthetic_records(100)
        engine.train_on_records(records)
        norm_min = engine.pipeline._x_norm._min.copy()
        engine.train_on_records(synthetic_records(150, seed=9))
        import numpy as np
        np.testing.assert_array_equal(engine.pipeline._x_norm._min, norm_min)


class TestPrediction:
    def test_per_location_predictions(self, trained_engine):
        engine, records, _ = trained_engine
        scores = engine.predict_location_throughputs(records[-1], [0, 1, 2])
        assert set(scores) == {0, 1, 2}
        assert all(np.isfinite(v) for v in scores.values())

    def test_faster_device_predicted_faster(self, trained_engine):
        engine, records, _ = trained_engine
        scores = engine.predict_location_throughputs(records[-1], [0, 2])
        # fsid 2 serves 3x the throughput of fsid 0 in the training data.
        assert scores[2] > scores[0]

    def test_predict_before_train_rejected(self):
        engine = DRLEngine(small_config())
        with pytest.raises(ModelError, match="trained before"):
            engine.predict_location_throughputs(
                synthetic_records(1)[0], [0, 1]
            )

    def test_adjustment_toggle_changes_predictions(self):
        records = synthetic_records(300)
        on = DRLEngine(small_config(adjust_predictions=True))
        off = DRLEngine(small_config(adjust_predictions=False))
        on.train_on_records(records)
        off.train_on_records(records)
        s_on = on.predict_location_throughputs(records[-1], [0])
        s_off = off.predict_location_throughputs(records[-1], [0])
        if on.adjuster.mae > 1e-9:
            assert s_on[0] != pytest.approx(s_off[0])


class TestProposeLayout:
    def test_prefers_fast_device(self, trained_engine):
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        layout, gains = engine.propose_layout(
            db, [0, 1, 2], {0: "dev0", 1: "dev1", 2: "dev2"}
        )
        assert set(layout.values()) == {"dev2"}
        assert all(g >= 0.0 for g in gains.values())

    def test_unseen_files_skipped(self, trained_engine):
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        layout, _ = engine.propose_layout(
            db, [0, 999], {0: "dev0", 1: "dev1", 2: "dev2"}
        )
        assert 999 not in layout and 0 in layout

    def test_empty_candidates_rejected(self, trained_engine):
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        with pytest.raises(ModelError):
            engine.propose_layout(db, [0], {})


class TestLatencyTarget:
    def test_latency_engine_prefers_fast_device(self):
        # fsid 2 is 3x faster, so its (smoothed) per-access latency is
        # lowest; a latency-target engine must pick it via argmin.
        records = synthetic_records(400)
        engine = DRLEngine(small_config(target="latency"))
        engine.train_on_records(records)
        db = ReplayDB()
        db.insert_accesses(records)
        layout, gains = engine.propose_layout(
            db, [0, 1, 2], {0: "dev0", 1: "dev1", 2: "dev2"}
        )
        assert set(layout.values()) == {"dev2"}
        assert all(g >= 0.0 for g in gains.values())

    def test_latency_pipeline_target_is_duration(self):
        from repro.features.pipeline import FeaturePipeline
        records = synthetic_records(50)
        pipeline = FeaturePipeline(
            features=("rb", "fsid"), smoothing_window=1, target="latency"
        )
        pipeline.fit(records)
        raw = pipeline.inverse_transform_target(
            pipeline.transform_target(records)
        )
        expected = np.array([r.duration for r in records])
        np.testing.assert_allclose(raw, expected, rtol=1e-9)


class TestRankingCorrelation:
    def test_spearman_helper(self):
        from repro.core.engine import _spearman
        assert _spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0
        assert _spearman([1.0, 2.0, 3.0], [30.0, 20.0, 10.0]) == -1.0

    def test_spearman_length_mismatch(self):
        from repro.core.engine import _spearman
        with pytest.raises(ModelError):
            _spearman([1.0], [1.0, 2.0])

    def test_well_trained_model_positively_correlated(self, trained_engine):
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        corr = engine.ranking_correlation(
            db, {0: "dev0", 1: "dev1", 2: "dev2"}
        )
        # fsid determines throughput 1:2:3 in the synthetic telemetry and
        # the model learned it, so rankings must agree.
        assert corr > 0.5

    def test_single_device_returns_one(self, trained_engine):
        engine, records, _ = trained_engine
        db = ReplayDB()
        db.insert_accesses(records)
        assert engine.ranking_correlation(db, {0: "dev0"}) == 1.0

    def test_untrained_engine_rejected(self):
        engine = DRLEngine(small_config())
        with pytest.raises(ModelError):
            engine.ranking_correlation(ReplayDB(), {0: "a", 1: "b"})
