"""Tests for the SQLite ReplayDB."""

import pytest

from repro.errors import ReplayDBError
from repro.replaydb.db import ReplayDB
from repro.replaydb.records import AccessRecord, MovementRecord


def make_access(fid=1, fsid=0, device="file0", t=100, rb=1000, **overrides):
    base = dict(
        fid=fid, fsid=fsid, device=device, path=f"data/f{fid}.root",
        rb=rb, wb=0, ots=t, otms=0, cts=t + 1, ctms=0,
    )
    base.update(overrides)
    return AccessRecord(**base)


@pytest.fixture
def db():
    with ReplayDB() as db:
        yield db


class TestInsertAndQuery:
    def test_insert_returns_increasing_ids(self, db):
        first = db.insert_access(make_access(t=1))
        second = db.insert_access(make_access(t=2))
        assert second > first

    def test_round_trip_preserves_fields(self, db):
        record = make_access(fid=7, fsid=3, device="pic", t=50,
                             extra={"rt": 1.5})
        db.insert_access(record)
        got = db.recent_accesses(1)[0]
        assert got == record

    def test_bulk_insert(self, db):
        n = db.insert_accesses(make_access(t=i + 1) for i in range(10))
        assert n == 10
        assert db.access_count() == 10

    def test_recent_returns_chronological_order(self, db):
        for t in (1, 2, 3, 4):
            db.insert_access(make_access(t=t))
        got = db.recent_accesses(3)
        assert [r.ots for r in got] == [2, 3, 4]

    def test_recent_filters_by_device(self, db):
        db.insert_access(make_access(device="var", t=1))
        db.insert_access(make_access(device="file0", t=2))
        got = db.recent_accesses(10, device="var")
        assert len(got) == 1 and got[0].device == "var"

    def test_recent_filters_by_fid(self, db):
        db.insert_access(make_access(fid=1, t=1))
        db.insert_access(make_access(fid=2, t=2))
        got = db.recent_accesses(10, fid=2)
        assert len(got) == 1 and got[0].fid == 2

    def test_recent_limit_zero_rejected(self, db):
        with pytest.raises(ReplayDBError):
            db.recent_accesses(0)

    def test_recent_per_device(self, db):
        for device in ("var", "file0", "var"):
            db.insert_access(make_access(device=device, t=1))
        per_device = db.recent_per_device(10)
        assert set(per_device) == {"var", "file0"}
        assert len(per_device["var"]) == 2

    def test_devices_and_files(self, db):
        db.insert_access(make_access(fid=1, device="var", t=1))
        db.insert_access(make_access(fid=2, device="file0", t=2))
        assert db.devices() == ["file0", "var"]
        assert db.files() == [1, 2]


class TestPerFileWindowQueries:
    """The single-query decision-path telemetry requests."""

    def _populate(self, db, *, files=5, rows=40):
        for i in range(rows):
            db.insert_access(
                make_access(
                    fid=i % files, fsid=i % 3, device=f"dev{i % 3}",
                    t=i + 1, rb=1000 + i,
                )
            )

    def test_matches_per_file_loop(self, db):
        self._populate(db)
        per_file = db.recent_accesses_per_file(4)
        assert set(per_file) == set(db.files())
        for fid in db.files():
            assert per_file[fid] == db.recent_accesses(4, fid=fid)

    def test_limit_and_chronological_order(self, db):
        self._populate(db, files=2, rows=10)
        per_file = db.recent_accesses_per_file(3)
        for fid, records in per_file.items():
            assert len(records) == 3
            assert [r.ots for r in records] == sorted(r.ots for r in records)

    def test_fids_filter(self, db):
        self._populate(db)
        assert set(db.recent_accesses_per_file(4, fids=[1, 3])) == {1, 3}
        assert db.recent_accesses_per_file(4, fids=[]) == {}
        assert db.recent_accesses_per_file(4, fids=[999]) == {}

    def test_limit_zero_rejected(self, db):
        with pytest.raises(ReplayDBError):
            db.recent_accesses_per_file(0)
        with pytest.raises(ReplayDBError):
            db.recent_access_columns_per_file(0)

    def test_empty_db(self, db):
        assert db.recent_accesses_per_file(4) == {}
        assert db.recent_access_columns_per_file(4) == ([], {})

    def test_columns_match_record_query(self, db):
        from repro.replaydb.db import PROBE_FIELDS

        self._populate(db)
        spans, columns = db.recent_access_columns_per_file(4)
        per_file = db.recent_accesses_per_file(4)
        assert set(columns) == set(PROBE_FIELDS)
        assert [fid for fid, _, _ in spans] == sorted(per_file)
        for fid, start, stop in spans:
            records = per_file[fid]
            assert stop - start == len(records)
            for name in PROBE_FIELDS:
                expected = [float(getattr(r, name)) for r in records]
                assert list(columns[name][start:stop]) == expected

    def test_recent_per_device_matches_per_device_loop(self, db):
        self._populate(db)
        per_device = db.recent_per_device(4)
        assert set(per_device) == set(db.devices())
        for device in db.devices():
            assert per_device[device] == db.recent_accesses(4, device=device)


class TestRecentAccessColumns:
    """The columnar training-window read."""

    def test_matches_recent_accesses(self, db):
        from repro.replaydb.db import PROBE_FIELDS

        for i in range(30):
            db.insert_access(
                make_access(fid=i % 4, fsid=i % 3, t=i + 1, rb=7 + i, otms=i)
            )
        for limit in (1, 12, 30, 100):
            columns = db.recent_access_columns(limit)
            records = db.recent_accesses(limit)
            assert set(columns) == set(PROBE_FIELDS)
            for name in PROBE_FIELDS:
                assert list(columns[name]) == [
                    float(getattr(r, name)) for r in records
                ]

    def test_sees_buffered_rows(self, db):
        db.insert_accesses([make_access(t=t) for t in (1, 2, 3)])
        assert list(db.recent_access_columns(2)["ots"]) == [2.0, 3.0]

    def test_empty_db_gives_empty_columns(self, db):
        columns = db.recent_access_columns(5)
        assert all(len(column) == 0 for column in columns.values())

    def test_limit_validated(self, db):
        with pytest.raises(ReplayDBError):
            db.recent_access_columns(0)

    @pytest.mark.parametrize(
        "values, message",
        [
            (dict(rb=-5), "non-negative"),
            (dict(wb=-1), "non-negative"),
            (dict(otms=1000), "millisecond"),
            (dict(ctms=-1), "millisecond"),
            (dict(cts=100, ctms=0), "after open"),
        ],
    )
    def test_corrupt_row_raises_like_records(self, db, values, message):
        db.insert_access(make_access(t=99))
        row = dict(
            fid=1, fsid=0, device="file0", path="p", rb=1, wb=0, ots=100,
            otms=0, cts=101, ctms=0, throughput=1.0,
        )
        row.update(values)
        db._conn.execute(
            f"INSERT INTO accesses ({', '.join(row)}) "
            f"VALUES ({', '.join('?' for _ in row)})",
            tuple(row.values()),
        )
        with pytest.raises(ReplayDBError, match=message):
            db.recent_accesses(2)
        with pytest.raises(ReplayDBError, match=message):
            db.recent_access_columns(2)
        # with the bad row gone the window reads again
        db._conn.execute("DELETE FROM accesses WHERE path = 'p'")
        assert len(db.recent_access_columns(2)["fid"]) == 1


class TestAggregates:
    def test_access_count_per_file(self, db):
        for fid in (1, 1, 2):
            db.insert_access(make_access(fid=fid, t=fid))
        assert db.access_count_per_file() == {1: 2, 2: 1}

    def test_last_access_time_per_file(self, db):
        db.insert_access(make_access(fid=1, t=10))
        db.insert_access(make_access(fid=1, t=20))
        times = db.last_access_time_per_file()
        assert times[1] == pytest.approx(21.0)  # cts = t + 1

    def test_average_throughput(self, db):
        db.insert_access(make_access(rb=1000, t=1))  # 1000 B/s
        db.insert_access(make_access(rb=3000, t=2))  # 3000 B/s
        assert db.average_throughput() == pytest.approx(2000.0)

    def test_average_throughput_per_device(self, db):
        db.insert_access(make_access(device="fast", rb=5000, t=1))
        db.insert_access(make_access(device="slow", rb=100, t=2))
        assert db.average_throughput(device="fast") == pytest.approx(5000.0)

    def test_average_throughput_empty_raises(self, db):
        with pytest.raises(ReplayDBError, match="no accesses"):
            db.average_throughput()
        with pytest.raises(ReplayDBError):
            db.average_throughput(device="ghost")

    def test_device_ranking_fastest_first(self, db):
        db.insert_access(make_access(device="slow", rb=100, t=1))
        db.insert_access(make_access(device="fast", rb=9000, t=2))
        db.insert_access(make_access(device="mid", rb=1000, t=3))
        ranking = [name for name, _ in db.device_throughput_ranking()]
        assert ranking == ["fast", "mid", "slow"]


class TestMovements:
    def test_round_trip(self, db):
        move = MovementRecord(5.0, 1, "var", "file0", 1024, 0.25)
        db.insert_movement(move)
        assert db.movements() == [move]

    def test_time_window_filter(self, db):
        for t in (1.0, 5.0, 9.0):
            db.insert_movement(MovementRecord(t, 1, "a", "b", 10, 0.1))
        got = db.movements(since=2.0, until=9.0)
        assert [m.timestamp for m in got] == [5.0]

    def test_clusters_group_nearby_moves(self, db):
        for t in (1.0, 1.2, 1.4, 10.0, 10.1):
            db.insert_movement(MovementRecord(t, 1, "a", "b", 10, 0.1))
        clusters = db.movement_clusters(gap=1.0)
        assert clusters == [(1.0, 3), (10.0, 2)]

    def test_cluster_chains_extend_past_gap_from_start(self, db):
        # Moves at 0.0, 0.8, 1.6 chain into one cluster even though the
        # last is more than `gap` after the first.
        for t in (0.0, 0.8, 1.6):
            db.insert_movement(MovementRecord(t, 1, "a", "b", 10, 0.1))
        assert db.movement_clusters(gap=1.0) == [(0.0, 3)]

    def test_invalid_gap_rejected(self, db):
        with pytest.raises(ReplayDBError):
            db.movement_clusters(gap=0.0)

    def test_empty_movements(self, db):
        assert db.movements() == []
        assert db.movement_clusters() == []

    def test_failed_move_round_trips(self, db):
        failed = MovementRecord(5.0, 1, "var", "file0", 512, 0.25,
                                succeeded=False)
        db.insert_movement(failed)
        (got,) = db.movements()
        assert got == failed and not got.succeeded

    def test_succeeded_only_filters_failures(self, db):
        db.insert_movement(MovementRecord(1.0, 1, "a", "b", 10, 0.1))
        db.insert_movement(
            MovementRecord(2.0, 2, "a", "b", 10, 0.1, succeeded=False)
        )
        assert len(db.movements()) == 2
        assert [m.fid for m in db.movements(succeeded_only=True)] == [1]

    def test_clusters_count_only_successful_moves(self, db):
        db.insert_movement(MovementRecord(1.0, 1, "a", "b", 10, 0.1))
        db.insert_movement(
            MovementRecord(1.1, 2, "a", "b", 10, 0.1, succeeded=False)
        )
        assert db.movement_clusters(gap=1.0) == [(1.0, 1)]


class TestPersistence:
    def test_file_backed_database(self, tmp_path):
        path = str(tmp_path / "replay.sqlite")
        with ReplayDB(path) as db:
            db.insert_access(make_access(t=1))
        with ReplayDB(path) as db:
            assert db.access_count() == 1
