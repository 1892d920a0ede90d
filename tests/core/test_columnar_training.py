"""The columnar training window against the record path.

``DRLEngine.train(db)`` reads its window as columns when every feature
derives from the numeric access fields.  It must train exactly the model
``train_on_records(db.recent_accesses(n))`` trains: the same report
(bar the wall time) and the same weight bytes.
"""

import sqlite3
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine, _ordered_column_sum, _spearman
from repro.errors import ModelError, ReplayDBError
from repro.experiments.decision_bench import synthetic_decision_records
from repro.features.schema import EOS_MODEL_FEATURES
from repro.replaydb.db import ReplayDB
from repro.workloads.eos import EOSTraceSynthesizer

LOCATIONS = 4


def _config(**overrides):
    params = dict(
        epochs=6,
        training_rows=300,
        batch_size=32,
        smoothing_window=5,
        learning_rate=0.05,
        seed=1,
        probe_samples=4,
    )
    params.update(overrides)
    return GeomancyConfig(**params)


def _db(rows=400, seed=3):
    db = ReplayDB()
    db.insert_accesses(
        synthetic_decision_records(
            rows=rows, files=16, locations=LOCATIONS, seed=seed
        )
    )
    return db


def _report(report):
    fields = asdict(report)
    del fields["train_seconds"]
    return fields


def _weights(engine):
    return [
        (name, param.tobytes())
        for layer in engine.model.layers
        for name, param in sorted(layer.params.items())
    ]


def _train_both(config, db, rounds=1, more_rows=None):
    """Train a columnar and a record-path engine side by side."""
    columnar, records = DRLEngine(config), DRLEngine(config)
    assert columnar.pipeline.columnar
    pairs = []
    for round_ in range(rounds):
        if round_ and more_rows is not None:
            db.insert_accesses(more_rows(round_))
        got = columnar.train(db)
        want = records.train_on_records(
            db.recent_accesses(config.training_rows)
        )
        pairs.append((got, want))
    return columnar, records, pairs


def _assert_same(columnar, records, pairs):
    for got, want in pairs:
        assert _report(got) == _report(want)
    assert _weights(columnar) == _weights(records)
    assert (
        columnar.pipeline.state_dict() == records.pipeline.state_dict()
    )


class TestColumnarTrainingMatchesRecords:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"target": "latency"},
            {"smoothing_window": 1},
            {"model_number": 14, "timesteps": 3},
            {"model_number": 5},
        ],
        ids=["throughput", "latency", "unsmoothed", "recurrent", "linear"],
    )
    def test_first_training(self, overrides):
        _assert_same(*_train_both(_config(**overrides), _db()))

    def test_warm_start_retraining(self):
        def more(round_):
            return synthetic_decision_records(
                rows=120, files=16, locations=LOCATIONS, seed=10 + round_
            )

        config = _config()
        columnar, records, pairs = _train_both(
            config, _db(), rounds=3, more_rows=more
        )
        _assert_same(columnar, records, pairs)

    def test_window_shorter_than_training_rows(self):
        config = _config(training_rows=5_000)
        columnar, records, pairs = _train_both(config, _db(rows=150))
        _assert_same(columnar, records, pairs)
        assert pairs[0][0].samples == 150

    def test_provenance_matches(self):
        config = _config()
        db = _db()
        columnar, records = DRLEngine(config), DRLEngine(config)
        columnar.capture_provenance = records.capture_provenance = True
        columnar.train(db)
        records.train_on_records(db.recent_accesses(config.training_rows))
        assert columnar.last_feature_digest == records.last_feature_digest
        hi = db.max_rowid()
        assert columnar.last_window == (hi - config.training_rows + 1, hi)

    def test_too_few_rows_rejected_like_records(self):
        engine = DRLEngine(_config())
        with pytest.raises(ModelError, match="at least 10 records"):
            engine.train(_db(rows=5))

    def test_extra_feature_pipeline_reads_records(self, monkeypatch):
        config = GeomancyConfig(
            features=EOS_MODEL_FEATURES,
            epochs=3,
            training_rows=200,
            smoothing_window=10,
            learning_rate=0.05,
            seed=0,
        )
        engine = DRLEngine(config)
        assert not engine.pipeline.columnar

        def forbidden(self, limit):
            raise AssertionError("extra features need the record path")

        monkeypatch.setattr(ReplayDB, "recent_access_columns", forbidden)
        db = ReplayDB()
        db.insert_accesses(EOSTraceSynthesizer(seed=3).records(300))
        report = engine.train(db)
        assert report.samples == 200


def _corrupt(db, **values):
    """Append one row by raw SQL, bypassing AccessRecord's checks."""
    row = dict(
        fid=1, fsid=1, device="dev1", path="/f1", rb=10, wb=0,
        ots=2_000_000_000, otms=0, cts=2_000_000_001, ctms=0,
        throughput=10.0,
    )
    row.update(values)
    db.max_rowid()  # land the buffered rows first: the bad row is newest
    db._conn.execute(
        f"INSERT INTO accesses ({', '.join(row)}) "
        f"VALUES ({', '.join('?' for _ in row)})",
        tuple(row.values()),
    )
    db._conn.commit()


CORRUPTIONS = {
    "ctms_out_of_range": dict(ctms=1000),
    "close_not_after_open": dict(cts=2_000_000_000, ctms=0),
    "negative_rb": dict(rb=-1),
}


class TestCorruptRowsFailBothPaths:
    @pytest.mark.parametrize("values", CORRUPTIONS.values(), ids=CORRUPTIONS)
    def test_columnar_and_record_paths_raise(self, values):
        db = _db()
        _corrupt(db, **values)
        with pytest.raises(ReplayDBError):
            DRLEngine(_config()).train(db)
        with pytest.raises(ReplayDBError):
            DRLEngine(_config()).train_on_records(db.recent_accesses(300))
        with pytest.raises(ReplayDBError):
            db.recent_access_columns_per_file(4)

    def test_corrupt_row_in_loaded_snapshot_fails(self, tmp_path):
        path = tmp_path / "snap.db"
        _db().snapshot_to(path)
        raw = sqlite3.connect(path)
        raw.execute(
            "UPDATE accesses SET ctms = 1000 WHERE id = (SELECT MAX(id) "
            "FROM accesses)"
        )
        raw.commit()
        raw.close()
        db = ReplayDB.from_snapshot(path)
        with pytest.raises(ReplayDBError, match="millisecond"):
            DRLEngine(_config()).train(db)


@pytest.fixture(scope="module")
def trained():
    db = _db()
    engine = DRLEngine(_config())
    engine.train(db)
    return engine, db


def _devices():
    return {k: f"dev{k}" for k in range(1, LOCATIONS + 1)}


class TestRankingCorrelation:
    def test_columnar_equals_record_reference(self, trained):
        """Bit for bit the per-device AVG + record-probe computation."""
        engine, db = trained
        fsids = sorted(_devices())
        observed = [db.average_throughput(device=_devices()[k]) for k in fsids]
        matrix = engine.predict_throughput_matrix(db.recent_accesses(32), fsids)
        predicted = [float(v) for v in _ordered_column_sum(matrix)]
        assert engine.ranking_correlation(db, _devices()) == _spearman(
            predicted, observed
        )

    def test_devices_without_rows_skipped(self, trained):
        engine, db = trained
        with_ghost = {**_devices(), 99: "ghost"}
        assert engine.ranking_correlation(
            db, with_ghost
        ) == engine.ranking_correlation(db, _devices())
        assert engine.ranking_correlation(db, {99: "ghost", 1: "dev1"}) == 1.0

    def test_closed_db_raises(self):
        db = _db()
        engine = DRLEngine(_config())
        engine.train(db)
        db.close()
        with pytest.raises(ReplayDBError, match="closed"):
            engine.ranking_correlation(db, _devices())

    def test_grouped_average_equals_per_device_average(self, trained):
        _, db = trained
        grouped = dict(db.device_throughput_ranking())
        for device in db.devices():
            assert grouped[device] == db.average_throughput(device=device)


def test_no_access_record_built_on_columnar_decision_path(
    trained, monkeypatch
):
    """Train, rank and propose without materializing an AccessRecord."""
    engine, db = trained

    def forbidden(*args, **kwargs):
        raise AssertionError("AccessRecord built on the columnar path")

    monkeypatch.setattr(ReplayDB, "_to_record", staticmethod(forbidden))
    engine.train(db)
    engine.ranking_correlation(db, _devices())
    layout, _ = engine.propose_layout(db, db.files(), _devices())
    assert layout
    assert np.isfinite(engine.last_predicted_mean)
