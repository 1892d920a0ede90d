"""SQLite-backed ReplayDB.

The DRL engine trains on "the most recent X accesses for each of the storage
devices" (paper section V-E), so the query surface is built around
most-recent-N retrieval per device and per file, plus the movement log used
to cluster file migrations for the Fig. 5 bar charts.
"""

from __future__ import annotations

import json
import os
import sqlite3
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro.errors import ReplayDBError
from repro.observability import get_observability
from repro.replaydb.records import (
    AccessRecord,
    MovementRecord,
    validate_access_columns,
)

#: the documented default: a private in-memory database (fast, unshared,
#: gone when the process exits -- simulation runs that need durability
#: pass a real path or use :meth:`ReplayDB.snapshot_to`)
MEMORY = ":memory:"

#: numeric access fields served by the columnar probe query, in SELECT order
PROBE_FIELDS: tuple[str, ...] = (
    "fid", "fsid", "rb", "wb", "ots", "otms", "cts", "ctms",
)


def _probe_columns(rows: list[tuple]) -> dict[str, np.ndarray]:
    """:data:`PROBE_FIELDS` rows as checked float64 columns.

    Runs the record read-time checks, so a corrupt row fails a columnar
    read just as it fails :meth:`ReplayDB.recent_accesses`.
    """
    data = np.array(rows, dtype=np.float64).reshape(len(rows), len(PROBE_FIELDS))
    columns = {name: data[:, i] for i, name in enumerate(PROBE_FIELDS)}
    validate_access_columns(columns)
    return columns


#: SQL shared by the eager single-row and deferred bulk insert paths
_INSERT_ACCESS_SQL = (
    "INSERT INTO accesses (fid, fsid, device, path, rb, wb, ots, "
    "otms, cts, ctms, throughput, extra) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS accesses (
    id      INTEGER PRIMARY KEY,
    fid     INTEGER NOT NULL,
    fsid    INTEGER NOT NULL,
    device  TEXT    NOT NULL,
    path    TEXT    NOT NULL,
    rb      INTEGER NOT NULL,
    wb      INTEGER NOT NULL,
    ots     INTEGER NOT NULL,
    otms    INTEGER NOT NULL,
    cts     INTEGER NOT NULL,
    ctms    INTEGER NOT NULL,
    throughput REAL NOT NULL,
    extra   TEXT    NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_accesses_device ON accesses(device, id);
CREATE INDEX IF NOT EXISTS idx_accesses_fid    ON accesses(fid, id);
CREATE TABLE IF NOT EXISTS movements (
    id         INTEGER PRIMARY KEY,
    timestamp  REAL    NOT NULL,
    fid        INTEGER NOT NULL,
    src_device TEXT    NOT NULL,
    dst_device TEXT    NOT NULL,
    bytes_moved INTEGER NOT NULL,
    duration   REAL    NOT NULL,
    succeeded  INTEGER NOT NULL DEFAULT 1,
    trace_id   TEXT
);
CREATE INDEX IF NOT EXISTS idx_movements_ts ON movements(timestamp);
"""


class ReplayDB:
    """Access/movement telemetry store.

    Defaults to :data:`MEMORY` -- a private in-memory database, the common
    case for simulation runs, which costs nothing to create and vanishes
    with the process.  Pass a filesystem path (``str`` or
    :class:`~pathlib.Path`) for persistence across processes; on-disk
    databases run in WAL mode so readers never block the writer and a
    crash can roll back at most the last uncommitted transaction.  Usable
    as a context manager; :meth:`close` releases the file handle (and is
    idempotent), after which any further operation raises
    :class:`~repro.errors.ReplayDBError`.

    ``max_pending_accesses`` bounds the write-behind buffer: a bulk
    insert that would grow it past the threshold lands the buffered rows
    in sqlite immediately, so long fused runs with no intervening reads
    cannot grow the buffer without limit.
    """

    #: default write-behind buffer bound (rows)
    DEFAULT_MAX_PENDING_ACCESSES = 50_000

    def __init__(
        self,
        path: str | os.PathLike = MEMORY,
        *,
        max_pending_accesses: int | None = None,
    ) -> None:
        if isinstance(path, os.PathLike):
            path = os.fspath(path)
        if not isinstance(path, str) or not path:
            raise ReplayDBError(
                f"path must be a non-empty string or Path (or the "
                f"{MEMORY!r} default), got {path!r}"
            )
        if max_pending_accesses is None:
            max_pending_accesses = self.DEFAULT_MAX_PENDING_ACCESSES
        if max_pending_accesses < 1:
            raise ReplayDBError(
                "max_pending_accesses must be >= 1, "
                f"got {max_pending_accesses}"
            )
        self.max_pending_accesses = int(max_pending_accesses)
        self.path = path
        self._closed = False
        #: write-behind buffer for bulk access inserts: rows wait here
        #: until a reader (or snapshot/close) needs the table, so the
        #: sqlite work happens once per read boundary instead of once per
        #: workload run.  Observationally identical to eager writes --
        #: every query path flushes first.
        self._pending_accesses: list[tuple] = []
        self._raw_conn = sqlite3.connect(path)
        if not self.in_memory:
            # WAL survives crashes with at most the last transaction lost
            # and lets checkpoint readers run alongside the writer;
            # synchronous=NORMAL is WAL's intended durability pairing.
            self._raw_conn.execute("PRAGMA journal_mode=WAL")
            self._raw_conn.execute("PRAGMA synchronous=NORMAL")
        self._raw_conn.executescript(_SCHEMA)
        self._raw_conn.commit()
        metrics = get_observability().metrics
        self._m_rows_written = metrics.counter(
            "repro_replaydb_rows_written_total",
            "access and movement rows inserted",
        )
        self._m_queries = metrics.counter(
            "repro_replaydb_queries_total", "read queries served"
        )

    # -- lifecycle -----------------------------------------------------------
    @property
    def in_memory(self) -> bool:
        """Whether this database lives only in process memory."""
        return self.path == MEMORY or self.path.startswith("file::memory:")

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def _conn(self) -> sqlite3.Connection:
        if self._closed:
            raise ReplayDBError("ReplayDB is closed")
        return self._raw_conn

    def _flush_accesses(self) -> None:
        """Land buffered access rows in sqlite (in arrival order)."""
        if self._pending_accesses:
            rows = self._pending_accesses
            self._pending_accesses = []
            self._conn.executemany(_INSERT_ACCESS_SQL, rows)
            self._conn.commit()

    def close(self) -> None:
        if not self._closed:
            self._flush_accesses()
            self._raw_conn.close()
            self._closed = True

    def __enter__(self) -> "ReplayDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- snapshots -----------------------------------------------------------
    def snapshot_to(self, path: str | os.PathLike) -> Path:
        """Export a consistent point-in-time copy of the whole database.

        Uses sqlite's online backup API, so it works for in-memory
        databases and does not block other readers; the copy is staged
        beside ``path`` and renamed into place, so a crash mid-export
        never leaves a torn snapshot at the destination.
        """
        self._flush_accesses()
        dest = Path(path)
        tmp = dest.with_name(f".{dest.name}.tmp")
        if tmp.exists():
            tmp.unlink()
        try:
            target = sqlite3.connect(tmp)
            try:
                self._conn.backup(target)
            finally:
                target.close()
            os.replace(tmp, dest)
        except sqlite3.Error as exc:
            raise ReplayDBError(f"snapshot to {dest} failed: {exc}") from exc
        finally:
            if tmp.exists():
                tmp.unlink()
        return dest

    def load_snapshot(self, path: str | os.PathLike) -> "ReplayDB":
        """Replace this database's entire contents with a snapshot's."""
        self._flush_accesses()
        source_path = os.fspath(path)
        if not os.path.exists(source_path):
            raise ReplayDBError(f"no snapshot at {source_path!r}")
        try:
            source = sqlite3.connect(source_path)
            try:
                source.backup(self._conn)
            finally:
                source.close()
        except sqlite3.Error as exc:
            raise ReplayDBError(
                f"restoring snapshot {source_path!r} failed: {exc}"
            ) from exc
        return self

    @classmethod
    def from_snapshot(
        cls, snapshot: str | os.PathLike, path: str | os.PathLike = MEMORY
    ) -> "ReplayDB":
        """A new database (in-memory by default) filled from a snapshot."""
        return cls(path).load_snapshot(snapshot)

    # -- writes ----------------------------------------------------------
    def insert_access(self, record: AccessRecord) -> int:
        """Store one access immediately; returns its row id."""
        self._flush_accesses()  # keep arrival order with buffered rows
        cur = self._conn.execute(
            _INSERT_ACCESS_SQL,
            (
                record.fid, record.fsid, record.device, record.path,
                record.rb, record.wb, record.ots, record.otms,
                record.cts, record.ctms, record.throughput,
                json.dumps(record.extra),
            ),
        )
        self._conn.commit()
        self._m_rows_written.inc()
        return int(cur.lastrowid)

    def insert_accesses(self, records: Iterable[AccessRecord]) -> int:
        """Bulk insert; returns the number of rows accepted.

        Rows are staged in the write-behind buffer and land in sqlite at
        the next read boundary (any query, snapshot, or close), so
        back-to-back workload runs pay one ``executemany`` per boundary
        instead of one per run.  When the buffer reaches
        ``max_pending_accesses`` rows it is flushed immediately, bounding
        the memory held between read boundaries.
        """
        if self._closed:
            raise ReplayDBError("ReplayDB is closed")
        dumps = json.dumps
        rows = [
            (
                r.fid, r.fsid, r.device, r.path, r.rb, r.wb, r.ots, r.otms,
                r.cts, r.ctms, r.throughput,
                dumps(r.extra) if r.extra else "{}",
            )
            for r in records
        ]
        self._pending_accesses.extend(rows)
        if len(self._pending_accesses) >= self.max_pending_accesses:
            self._flush_accesses()
        self._m_rows_written.inc(len(rows))
        return len(rows)

    def insert_movements(self, records: Iterable[MovementRecord]) -> int:
        """Bulk insert movements; returns the number of rows written."""
        rows = [
            (
                r.timestamp, r.fid, r.src_device, r.dst_device,
                r.bytes_moved, r.duration, int(r.succeeded), r.trace_id,
            )
            for r in records
        ]
        self._conn.executemany(
            "INSERT INTO movements (timestamp, fid, src_device, dst_device, "
            "bytes_moved, duration, succeeded, trace_id) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        self._conn.commit()
        self._m_rows_written.inc(len(rows))
        return len(rows)

    def insert_movement(self, record: MovementRecord) -> int:
        cur = self._conn.execute(
            "INSERT INTO movements (timestamp, fid, src_device, dst_device, "
            "bytes_moved, duration, succeeded, trace_id) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.timestamp, record.fid, record.src_device,
                record.dst_device, record.bytes_moved, record.duration,
                int(record.succeeded), record.trace_id,
            ),
        )
        self._conn.commit()
        self._m_rows_written.inc()
        return int(cur.lastrowid)

    # -- reads -----------------------------------------------------------
    @staticmethod
    def _to_record(row: tuple) -> AccessRecord:
        return AccessRecord(
            fid=row[1], fsid=row[2], device=row[3], path=row[4],
            rb=row[5], wb=row[6], ots=row[7], otms=row[8],
            cts=row[9], ctms=row[10], extra=json.loads(row[12]),
        )

    def recent_accesses(
        self,
        limit: int,
        *,
        device: str | None = None,
        fid: int | None = None,
    ) -> list[AccessRecord]:
        """The most recent ``limit`` accesses, in chronological order.

        Optionally restricted to one device or one file.
        """
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._flush_accesses()
        self._m_queries.inc()
        clauses, params = [], []
        if device is not None:
            clauses.append("device = ?")
            params.append(device)
        if fid is not None:
            clauses.append("fid = ?")
            params.append(fid)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT * FROM (SELECT * FROM accesses {where} "
            f"ORDER BY id DESC LIMIT ?) ORDER BY id ASC",
            (*params, limit),
        ).fetchall()
        return [self._to_record(row) for row in rows]

    def recent_access_columns(self, limit: int) -> dict[str, np.ndarray]:
        """Columnar twin of :meth:`recent_accesses` (no device/fid filter).

        The from-scratch training window: the same chronological last
        ``limit`` rows, as one float64 array per :data:`PROBE_FIELDS`
        name, from one query and without building AccessRecords (no JSON
        decode, no dataclass).  The records' read-time checks still run
        (vectorized), so a corrupt row raises :class:`ReplayDBError` here
        too.  An empty table gives zero-length arrays.
        """
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._flush_accesses()
        self._m_queries.inc()
        rows = self._conn.execute(
            f"SELECT {', '.join(PROBE_FIELDS)} FROM accesses "
            "ORDER BY id DESC LIMIT ?",
            (limit,),
        ).fetchall()
        rows.reverse()
        return _probe_columns(rows)

    def max_rowid(self) -> int:
        """The largest access row id written so far (0 when empty).

        Row ids are assigned in arrival order, so this is the
        high-water-mark cursor the online-learning engine keeps between
        decision points.
        """
        self._flush_accesses()
        row = self._conn.execute("SELECT MAX(id) FROM accesses").fetchone()
        return int(row[0]) if row[0] is not None else 0

    def accesses_since(
        self, rowid: int, *, limit: int | None = None
    ) -> tuple[list[int], list[AccessRecord]]:
        """Accesses appended after the ``rowid`` cursor, chronological.

        The incremental-training query: rides the primary key, so the
        cost is O(new rows) regardless of how large the table has grown.
        Returns ``(ids, records)`` aligned element for element; the last
        id is the caller's next cursor.  ``limit`` keeps only the most
        recent ``limit`` of the new rows (a burst-bound for the online
        path), still returned in chronological order.
        """
        if rowid < 0:
            raise ReplayDBError(f"rowid must be non-negative, got {rowid}")
        if limit is not None and limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._flush_accesses()
        self._m_queries.inc()
        if limit is None:
            rows = self._conn.execute(
                "SELECT * FROM accesses WHERE id > ? ORDER BY id ASC",
                (rowid,),
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM (SELECT * FROM accesses WHERE id > ? "
                "ORDER BY id DESC LIMIT ?) ORDER BY id ASC",
                (rowid, limit),
            ).fetchall()
        ids = [int(row[0]) for row in rows]
        return ids, [self._to_record(row) for row in rows]

    def accesses_by_id(self, ids: Iterable[int]) -> list[AccessRecord]:
        """Fetch specific access rows by id, in ascending-id order.

        Serves the prioritized replay buffer: sampled row ids come back
        as records in chronological order (duplicates collapse; unknown
        ids are silently absent).  Point lookups on the primary key, so
        the cost is O(k log n) for k ids.
        """
        wanted = sorted(set(int(i) for i in ids))
        if not wanted:
            return []
        self._flush_accesses()
        self._m_queries.inc()
        placeholders = ", ".join("?" for _ in wanted)
        rows = self._conn.execute(
            f"SELECT * FROM accesses WHERE id IN ({placeholders}) "
            "ORDER BY id ASC",
            wanted,
        ).fetchall()
        return [self._to_record(row) for row in rows]

    def recent_per_device(
        self, limit: int, *, fids: Iterable[int] | None = None
    ) -> dict[str, list[AccessRecord]]:
        """Most recent ``limit`` accesses for each device seen so far.

        This is the paper's training-batch request: "All requests for data
        contain the X most recent accesses for each of the storage devices."
        One window-function query (riding ``idx_accesses_device``) replaces
        the former one-query-per-device loop; devices are keyed in sorted
        order with each device's records chronological, exactly as before.

        ``fids`` restricts the window to accesses of the given files --
        the shard-slice view: a shard asking for its devices' recent
        history never ranks (or returns) other shards' rows.
        """
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._flush_accesses()
        self._m_queries.inc()
        where, params = "", []
        if fids is not None:
            wanted = sorted(set(fids))
            if not wanted:
                return {}
            placeholders = ", ".join("?" for _ in wanted)
            where = f"WHERE fid IN ({placeholders})"
            params = wanted
        rows = self._conn.execute(
            "SELECT * FROM ("
            "  SELECT a.*, ROW_NUMBER() OVER "
            "    (PARTITION BY device ORDER BY id DESC) AS rn"
            f"  FROM accesses AS a {where}"
            ") WHERE rn <= ? ORDER BY device ASC, id ASC",
            (*params, limit),
        ).fetchall()
        out: dict[str, list[AccessRecord]] = {}
        for row in rows:
            out.setdefault(row[3], []).append(self._to_record(row))
        return out

    def _fids_with_rows(self, wanted: list[int]) -> list[int]:
        """The subset of ``wanted`` (sorted) that has access rows at all.

        The sharded decision path asks for *every* file in its shard,
        most of which may have no telemetry yet; one loose index scan
        over the distinct fids beats probing thousands of absent files
        one query at a time.  Small requests skip the scan -- the probes
        themselves are cheaper than reading the distinct list.
        """
        if len(wanted) <= 64:
            return wanted
        rows = self._conn.execute("SELECT DISTINCT fid FROM accesses")
        present = {int(row[0]) for row in rows}
        return [fid for fid in wanted if fid in present]

    def recent_accesses_per_file(
        self, limit: int, fids: Iterable[int] | None = None
    ) -> dict[int, list[AccessRecord]]:
        """Most recent ``limit`` accesses for each file, in one query.

        The batched decision path's telemetry request: instead of issuing
        one ``recent_accesses(fid=...)`` query per probed file, a single
        window-function scan (riding ``idx_accesses_fid``) ranks every
        file's accesses newest-first and keeps the top ``limit`` per file.
        Each file's list is chronological; files without telemetry are
        absent from the result (the engine skips them).

        ``fids`` narrows the result to the given ids and switches to one
        indexed top-N probe per present file, so a shard slice costs
        O(shard files x limit) however large the access log has grown --
        no full-window pass over other shards' rows.
        """
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._flush_accesses()
        self._m_queries.inc()
        out: dict[int, list[AccessRecord]] = {}
        if fids is not None:
            wanted = sorted(set(fids))
            if not wanted:
                return out
            execute = self._conn.execute
            for fid in self._fids_with_rows(wanted):
                rows = execute(
                    "SELECT * FROM accesses WHERE fid = ? "
                    "ORDER BY id DESC LIMIT ?",
                    (fid, limit),
                ).fetchall()
                if rows:
                    out[fid] = [
                        self._to_record(row) for row in reversed(rows)
                    ]
            return out
        rows = self._conn.execute(
            "SELECT * FROM ("
            "  SELECT a.*, ROW_NUMBER() OVER "
            "    (PARTITION BY fid ORDER BY id DESC) AS rn"
            "  FROM accesses AS a"
            ") WHERE rn <= ? ORDER BY fid ASC, id ASC",
            (limit,),
        ).fetchall()
        for row in rows:
            out.setdefault(int(row[1]), []).append(self._to_record(row))
        return out

    def recent_access_columns_per_file(
        self, limit: int, fids: Iterable[int] | None = None
    ) -> tuple[list[tuple[int, int, int]], dict[str, np.ndarray]]:
        """Columnar variant of :meth:`recent_accesses_per_file`.

        The decision path only consumes the numeric access fields, so this
        skips AccessRecord materialization entirely (no JSON decode, no
        dataclass validation) and returns flat float64 arrays ready for
        the feature pipeline.  Returns ``(spans, columns)`` where
        ``spans`` lists ``(fid, start, stop)`` row ranges in fid-ascending
        order (each file's rows chronological) and ``columns`` maps every
        :data:`PROBE_FIELDS` name to one array over all rows.
        """
        if limit <= 0:
            raise ReplayDBError(f"limit must be positive, got {limit}")
        self._flush_accesses()
        self._m_queries.inc()
        fields = ", ".join(PROBE_FIELDS)
        if fids is not None:
            # Explicit fid list: one indexed top-N probe per file
            # (``idx_accesses_fid``, ORDER BY id DESC LIMIT k) instead of
            # the whole-table window scan, so the decision epoch's
            # telemetry read costs O(files x limit) however large the
            # access log has grown.  The distinct-fid prefilter keeps a
            # shard asking about its whole (mostly untouched) file slice
            # at O(files with telemetry) probes.  Row content and
            # ordering are identical to the window query below.
            wanted = sorted(set(fids))
            if not wanted:
                return [], {}
            rows = []
            execute = self._conn.execute
            for fid in self._fids_with_rows(wanted):
                per_fid = execute(
                    f"SELECT {fields} FROM accesses WHERE fid = ? "
                    "ORDER BY id DESC LIMIT ?",
                    (fid, limit),
                ).fetchall()
                rows.extend(reversed(per_fid))
        else:
            rows = self._conn.execute(
                f"SELECT {fields} FROM ("
                f"  SELECT id, {fields}, ROW_NUMBER() OVER "
                "    (PARTITION BY fid ORDER BY id DESC) AS rn"
                "  FROM accesses"
                ") WHERE rn <= ? ORDER BY fid ASC, id ASC",
                (limit,),
            ).fetchall()
        if not rows:
            return [], {}
        columns = _probe_columns(rows)
        fid_col = columns["fid"]
        starts = np.concatenate(
            ([0], np.flatnonzero(np.diff(fid_col)) + 1)
        )
        stops = np.concatenate((starts[1:], [len(fid_col)]))
        spans = [
            (int(fid_col[start]), int(start), int(stop))
            for start, stop in zip(starts, stops)
        ]
        return spans, columns

    def devices(self) -> list[str]:
        """Distinct device names present in the access log."""
        self._flush_accesses()
        rows = self._conn.execute(
            "SELECT DISTINCT device FROM accesses ORDER BY device"
        ).fetchall()
        return [row[0] for row in rows]

    def files(self) -> list[int]:
        """Distinct file ids present in the access log."""
        self._flush_accesses()
        rows = self._conn.execute(
            "SELECT DISTINCT fid FROM accesses ORDER BY fid"
        ).fetchall()
        return [row[0] for row in rows]

    def access_count(self, *, device: str | None = None) -> int:
        self._flush_accesses()
        self._m_queries.inc()
        if device is None:
            row = self._conn.execute("SELECT COUNT(*) FROM accesses").fetchone()
        else:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM accesses WHERE device = ?", (device,)
            ).fetchone()
        return int(row[0])

    def access_count_per_file(self) -> dict[int, int]:
        """Access frequency by file id (drives the LFU baseline)."""
        self._flush_accesses()
        rows = self._conn.execute(
            "SELECT fid, COUNT(*) FROM accesses GROUP BY fid"
        ).fetchall()
        return {int(fid): int(count) for fid, count in rows}

    def last_access_time_per_file(self) -> dict[int, float]:
        """Most recent close time by file id (drives LRU/MRU baselines)."""
        self._flush_accesses()
        rows = self._conn.execute(
            "SELECT fid, MAX(cts + ctms / 1000.0) FROM accesses GROUP BY fid"
        ).fetchall()
        return {int(fid): float(t) for fid, t in rows}

    def average_throughput(self, *, device: str | None = None) -> float:
        """Mean per-access throughput (bytes/s), optionally for one device."""
        self._flush_accesses()
        self._m_queries.inc()
        if device is None:
            row = self._conn.execute(
                "SELECT AVG(throughput) FROM accesses"
            ).fetchone()
        else:
            row = self._conn.execute(
                "SELECT AVG(throughput) FROM accesses WHERE device = ?",
                (device,),
            ).fetchone()
        if row[0] is None:
            raise ReplayDBError(
                "no accesses recorded"
                + (f" for device {device!r}" if device else "")
            )
        return float(row[0])

    def device_throughput_ranking(self) -> list[tuple[str, float]]:
        """Devices ordered fastest-first by mean observed throughput.

        The heuristic baselines (LRU/MRU/LFU) "start by taking the current
        total average throughput at each storage device using data collected
        in the ReplayDB" (section VI).
        """
        self._flush_accesses()
        rows = self._conn.execute(
            "SELECT device, AVG(throughput) FROM accesses "
            "GROUP BY device ORDER BY AVG(throughput) DESC"
        ).fetchall()
        return [(row[0], float(row[1])) for row in rows]

    # -- movement log ------------------------------------------------------
    def movements(
        self,
        *,
        since: float | None = None,
        until: float | None = None,
        succeeded_only: bool = False,
    ) -> list[MovementRecord]:
        clauses, params = [], []
        if since is not None:
            clauses.append("timestamp >= ?")
            params.append(since)
        if until is not None:
            clauses.append("timestamp < ?")
            params.append(until)
        if succeeded_only:
            clauses.append("succeeded = 1")
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT timestamp, fid, src_device, dst_device, bytes_moved, "
            f"duration, succeeded, trace_id FROM movements {where} "
            f"ORDER BY id ASC",
            params,
        ).fetchall()
        return [
            MovementRecord(*row[:6], succeeded=bool(row[6]), trace_id=row[7])
            for row in rows
        ]

    def movement_clusters(self, gap: float = 1.0) -> list[tuple[float, int]]:
        """Group movements into bursts separated by more than ``gap`` seconds.

        Returns ``(cluster start timestamp, files moved)`` pairs -- the data
        behind the bar charts under the Fig. 5 performance curves.
        """
        if gap <= 0:
            raise ReplayDBError(f"gap must be positive, got {gap}")
        clusters: list[list[float]] = []  # [start, last_seen, count]
        for move in self.movements(succeeded_only=True):
            if clusters and move.timestamp - clusters[-1][1] <= gap:
                clusters[-1][1] = move.timestamp
                clusters[-1][2] += 1
            else:
                clusters.append([move.timestamp, move.timestamp, 1])
        return [(start, int(count)) for start, _, count in clusters]
