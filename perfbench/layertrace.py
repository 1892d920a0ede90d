"""Layer tracing from outside the program.

:class:`LayerTracer` replaces public methods of each layer's classes (and
a few module-level functions the control loop calls by name) with thin
wrappers that record a span -- name, start, end, parent -- and the
layer's work counts.  Spans are kept in memory and written out when the
benchmark ends.  Nothing under ``src/`` changes: :meth:`install` patches
attributes and :meth:`uninstall` restores the originals.

A span's *self time* is its duration minus the durations of its direct
children (children nest strictly inside their parent in this
single-threaded loop).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Patches:
    """Attribute replacements on classes and modules, undone in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class LayerTracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches = Patches()
        self.paused = False
        #: the Sequential whose predict() is running, for Dense indices
        self._model = None

    # -- spans ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def inside(self, prefix: str, *, exact: bool = False) -> bool:
        """Whether an open span's name starts with (or is) ``prefix``."""
        for index in self._stack:
            name = self.spans[index][0]
            if name == prefix or (not exact and name.startswith(prefix)):
                return True
        return False

    def _current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- patching ------------------------------------------------------------
    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Record a span around ``owner.attr``.

        ``name`` is a span name, or a callable
        ``(args, kwargs) -> name | None``
        deciding per call (None runs the original untraced).  A call made
        while a span of the same name is open is not traced again, so
        recursive and delegating calls are counted once.  ``count`` is
        called as ``count(counts, args, result)`` after the call.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if tracer.paused:
                    return original(*args, **kwargs)
                span = name(args, kwargs) if callable(name) else name
                if span is None or tracer.inside(span, exact=True):
                    return original(*args, **kwargs)
                index = tracer._open(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
                if count is not None:
                    count(tracer.counts, args, result)
                return result

            wrapper.__name__ = getattr(original, "__name__", attr)
            wrapper.__doc__ = getattr(original, "__doc__", None)
            return wrapper

        self._patches.patch(owner, attr, make)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- the layer map ---------------------------------------------------------
    def install(self) -> "LayerTracer":
        """Wrap the public entry points of every layer."""
        import repro.core.geomancy as geomancy_mod
        import repro.experiments.scale as scale_mod
        import repro.policies.geomancy_policy as policy_mod
        from repro.core.action_checker import ActionChecker
        from repro.core.engine import DRLEngine
        from repro.core.geomancy import Geomancy
        from repro.features.pipeline import FeaturePipeline
        from repro.nn.layers import Dense
        from repro.nn.network import Sequential
        from repro.policies.geomancy_policy import GeomancyDynamicPolicy
        from repro.replaydb.db import ReplayDB
        from repro.sharding.coordinator import ShardCoordinator
        from repro.simulation.cluster import StorageCluster
        from repro.workloads.runner import WorkloadRunner

        # simulation ---------------------------------------------------------
        self.wrap(
            StorageCluster, "access_batch", "simulation.access_batch",
            count=_count("simulation.accesses", lambda a, r: len(r.records)),
        )
        self.wrap(
            StorageCluster, "migrate", "simulation.migrate", count=_moved
        )
        # workloads ----------------------------------------------------------
        self.wrap(WorkloadRunner, "run_many", "workloads.run_many")
        # agents (the facade's telemetry entry points) -------------------------
        self.wrap(
            Geomancy, "observe_records", "agents.observe",
            count=_count("agents.records_in", lambda a, r: len(a[1])),
        )
        self.wrap(
            Geomancy, "flush_telemetry", "agents.flush",
            count=_count("agents.rows_landed", lambda a, r: r),
        )
        # replaydb -------------------------------------------------------------
        for attr in ("insert_accesses", "insert_movements"):
            self.wrap(
                ReplayDB, attr, "replaydb.write",
                count=_count("replaydb.write_rows", lambda a, r: r),
            )
        for attr in ("insert_access", "insert_movement"):
            self.wrap(
                ReplayDB, attr, "replaydb.write",
                count=_count("replaydb.write_rows", lambda a, r: 1),
            )
        for attr in _DB_READS:
            self.wrap(ReplayDB, attr, "replaydb.read", count=_db_read)
        # features: named by the decision phase that asked for them ------------
        for attr in _FEATURE_METHODS:
            self.wrap(
                FeaturePipeline, attr, self._feature_span,
                count=(
                    _count("features.probe_rows", lambda a, r: len(r))
                    if attr.startswith("build_location_probe")
                    else None
                ),
            )
        # nn -------------------------------------------------------------------
        self.wrap(
            Sequential, "fit", "nn.fit",
            count=_count("nn.fit_rows", lambda a, r: len(a[1])),
        )
        self.wrap(Sequential, "predict", self._predict_span, count=_predicted)
        self.wrap(Dense, "forward", self._dense_span)
        # core -----------------------------------------------------------------
        self.wrap(Geomancy, "after_run", "core.after_run")
        self.wrap(GeomancyDynamicPolicy, "update_layout", "core.after_run")
        self.wrap(DRLEngine, "train", "core.train")
        self.wrap(DRLEngine, "train_incremental", "core.train")
        self.wrap(DRLEngine, "ranking_correlation", "core.ranking_check")
        self.wrap(DRLEngine, "propose_layout", "core.propose")
        self.wrap(ActionChecker, "check", "core.action_check")
        for module in (geomancy_mod, policy_mod):
            self.wrap(module, "layout_diff", "core.action_check")
            self.wrap(module, "cap_moves", "core.action_check")
        # sharding -------------------------------------------------------------
        self.wrap(ShardCoordinator, "arbitrate", "sharding.arbitrate")
        self.wrap(scale_mod, "verify_moves", "sharding.verify")
        self.wrap(scale_mod, "run_shard_span", "sharding.span")
        return self

    def _feature_span(self, args, kwargs) -> str | None:
        if self.inside("features."):
            return None
        if self.inside("core.propose") or self.inside("core.ranking_check"):
            return "features.probe_build"
        return "features.train_set"

    def _predict_span(self, args, kwargs) -> str | None:
        # Validation passes inside fit() belong to the fit.
        if self.inside("nn.fit"):
            return None
        self._model = args[0]
        return "nn.predict"

    def _dense_span(self, args, kwargs) -> str | None:
        layer = args[0]
        training = args[2] if len(args) > 2 else kwargs.get("training")
        if training or self._current() != "nn.predict" or self._model is None:
            return None
        from repro.nn.layers import Dense

        dense = [l for l in self._model.layers if isinstance(l, Dense)]
        for index, candidate in enumerate(dense):
            if candidate is layer:
                return f"nn.dense{index}_forward"
        return None

    # -- attribution ---------------------------------------------------------
    def totals(self) -> tuple[dict[str, float], dict[str, float], dict]:
        """Per span name: total duration, self time, and every duration."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for index, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            durations[name].append(end - start)
        return total, self_time, durations

    def write(self, path: Path, meta: dict) -> None:
        """Write every span (times relative to tracer start) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            [name, round(start - self.t0, 9), round(end - self.t0, 9), parent]
            for name, start, end, parent in self.spans
        ]
        payload = {"meta": meta, "fields": ["name", "start_s", "end_s",
                                            "parent"], "spans": spans}
        path.write_text(json.dumps(payload, separators=(",", ":")))


#: ReplayDB query methods (each may first flush the write-behind buffer)
_DB_READS = (
    "recent_accesses",
    "max_rowid",
    "accesses_since",
    "accesses_by_id",
    "recent_per_device",
    "recent_accesses_per_file",
    "recent_access_columns_per_file",
    "devices",
    "files",
    "access_count",
    "access_count_per_file",
    "last_access_time_per_file",
    "average_throughput",
    "device_throughput_ranking",
    "movements",
    "movement_clusters",
)

_FEATURE_METHODS = (
    "fit",
    "ensure_fitted",
    "partial_fit",
    "transform_features",
    "transform_target",
    "feature_matrix",
    "feature_matrix_from_columns",
    "target_vector",
    "build_training_set",
    "build_location_probe",
    "build_location_probe_batch",
    "build_location_probe_from_matrix",
)


def _count(key: str, amount):
    def count(counts, args, result) -> None:
        counts[key] += amount(args, result)

    return count


def _rows(result) -> int:
    if isinstance(result, (list, dict)):
        return len(result)
    if isinstance(result, tuple) and len(result) == 2:
        # recent_access_columns_per_file: (spans, columns)
        columns = result[1]
        if isinstance(columns, dict) and columns:
            return len(next(iter(columns.values())))
    return 1 if result is not None else 0


def _db_read(counts, args, result) -> None:
    counts["replaydb.read_calls"] += 1
    counts["replaydb.read_rows"] += _rows(result)


def _moved(counts, args, result) -> None:
    if result is not None and result.succeeded:
        counts["simulation.files_moved"] += 1
        counts["simulation.moved_bytes"] += result.bytes_moved


def _predicted(counts, args, result) -> None:
    counts["nn.predict_rows"] += len(result)
    counts["nn.nonfinite_outputs"] += int(
        np.count_nonzero(~np.isfinite(result))
    )
