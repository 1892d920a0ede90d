"""From ReplayDB rows to model-ready batches (paper sections V-C and V-E).

The live experiment's feature vector has Z = 6 entries drawn from the
paper's feature list: bytes read/written, the open timestamp's second and
millisecond parts, the file id, and the file-system id.  The location
(fsid) must be an input because the engine predicts throughput *per
candidate location* by varying only that column ("a batch of data contains
the information of the data with every row only having the location varying
between each locations", V-C).

Reproduction note: the paper's bullet list also includes the close
timestamp (cts/ctms).  Feeding the model both endpoints of the access lets
it reconstruct the access duration, and since the training target is
``(rb+wb)/duration`` the network then learns that identity instead of the
location signal -- per-location probes (where only fsid varies and the
timestamps are cloned) come out flat and placement degenerates to noise.
We therefore default to the open timestamp only; ``cts``/``ctms`` remain
available as optional features for ablation.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import FeatureError
from repro.features.normalize import MinMaxNormalizer, RunningNormalizer
from repro.features.smoothing import moving_average
from repro.features.throughput import access_throughput
from repro.observability import get_observability

if TYPE_CHECKING:  # records imports this package; avoid the import cycle
    from repro.replaydb.records import AccessRecord

#: The Z = 6 live feature set (see the reproduction note above).
DEFAULT_LIVE_FEATURES: tuple[str, ...] = (
    "rb", "wb", "ots", "otms", "fid", "fsid",
)

#: Column accessors: feature name -> value extractor over an AccessRecord.
_ACCESSORS: dict[str, Callable[["AccessRecord"], float]] = {
    "rb": lambda r: float(r.rb),
    "wb": lambda r: float(r.wb),
    "ots": lambda r: float(r.ots),
    "otms": lambda r: float(r.otms),
    "cts": lambda r: float(r.cts),
    "ctms": lambda r: float(r.ctms),
    "open_time": lambda r: r.open_time,
    "close_time": lambda r: r.close_time,
    "duration": lambda r: r.duration,
    "fid": lambda r: float(r.fid),
    "fsid": lambda r: float(r.fsid),
    "total_bytes": lambda r: float(r.total_bytes),
}


#: Vectorized builders for the columnar probe path: feature name -> array
#: expression over the numeric column arrays served by
#: ``ReplayDB.recent_access_columns_per_file``.  Each mirrors its
#: ``_ACCESSORS`` twin operation-for-operation so the columnar and
#: record-based paths produce bit-identical matrices.
_COLUMN_BUILDERS: dict[str, Callable[[dict[str, np.ndarray]], np.ndarray]] = {
    "rb": lambda c: c["rb"],
    "wb": lambda c: c["wb"],
    "ots": lambda c: c["ots"],
    "otms": lambda c: c["otms"],
    "cts": lambda c: c["cts"],
    "ctms": lambda c: c["ctms"],
    "open_time": lambda c: c["ots"] + c["otms"] / 1000.0,
    "close_time": lambda c: c["cts"] + c["ctms"] / 1000.0,
    "duration": lambda c: (c["cts"] + c["ctms"] / 1000.0)
    - (c["ots"] + c["otms"] / 1000.0),
    "fid": lambda c: c["fid"],
    "fsid": lambda c: c["fsid"],
    "total_bytes": lambda c: c["rb"] + c["wb"],
}


#: access fields a target is computed from: the throughput formula's
#: arguments in order, then the device id smoothing groups by
_TARGET_FIELDS: tuple[str, ...] = (
    "rb", "wb", "ots", "otms", "cts", "ctms", "fsid",
)


def _extra_accessor(name: str) -> Callable[["AccessRecord"], float]:
    """Accessor for telemetry living in a record's ``extra`` dict."""

    def accessor(record: "AccessRecord") -> float:
        try:
            return float(record.extra[name])
        except KeyError:
            known = ", ".join(sorted(_ACCESSORS))
            raise FeatureError(
                f"feature {name!r} is neither a built-in column ({known}) "
                "nor present in every record's extra telemetry"
            ) from None

    return accessor


def resolve_accessor(name: str) -> Callable[["AccessRecord"], float]:
    """Value extractor for a feature name (built-in column or ``extra``)."""
    accessor = _ACCESSORS.get(name)
    return accessor if accessor is not None else _extra_accessor(name)


def record_column(records: "Sequence[AccessRecord]", name: str) -> np.ndarray:
    """Extract one feature column from a record list.

    Unknown names fall back to each record's ``extra`` dict (EOS-style
    telemetry like ``rt``/``wt``/``nrc`` lives there).
    """
    accessor = _ACCESSORS.get(name)
    if accessor is not None:
        return np.array([accessor(r) for r in records], dtype=np.float64)
    try:
        return np.array([r.extra[name] for r in records], dtype=np.float64)
    except KeyError:
        known = ", ".join(sorted(_ACCESSORS))
        raise FeatureError(
            f"feature {name!r} is neither a built-in column ({known}) nor "
            "present in every record's extra telemetry"
        ) from None


class FeaturePipeline:
    """Stateful feature/target preparation shared by training and probing.

    ``fit`` learns normalization bounds; ``transform_features`` /
    ``transform_target`` map raw telemetry into [0, 1];
    ``inverse_transform_target`` maps model outputs back to bytes/s so
    predictions at different locations can be compared in physical units.

    ``normalization`` selects between the paper's frozen min-max scaling
    (``"minmax"``, the default) and incrementally updated standardization
    (``"running"``) whose statistics :meth:`partial_fit` merges batch by
    batch -- the online-learning path, where refitting bounds on a full
    window every cycle would defeat the flat-cost goal.
    """

    def __init__(
        self,
        features: Sequence[str] = DEFAULT_LIVE_FEATURES,
        *,
        smoothing_window: int = 10,
        target: str = "throughput",
        normalization: str = "minmax",
    ) -> None:
        if not features:
            raise FeatureError("need at least one feature")
        if smoothing_window < 1:
            raise FeatureError(
                f"smoothing_window must be >= 1, got {smoothing_window}"
            )
        if target not in ("throughput", "latency"):
            raise FeatureError(
                f"target must be 'throughput' or 'latency', got {target!r}"
            )
        if normalization not in ("minmax", "running"):
            raise FeatureError(
                "normalization must be 'minmax' or 'running', "
                f"got {normalization!r}"
            )
        self.features = tuple(features)
        self.smoothing_window = int(smoothing_window)
        self.target = target
        self.normalization = normalization
        if normalization == "running":
            self._x_norm = RunningNormalizer()
            self._y_norm = RunningNormalizer()
        else:
            self._x_norm = MinMaxNormalizer()
            self._y_norm = MinMaxNormalizer()
        # Column accessors are resolved once here instead of per
        # feature_matrix call: the decision path extracts features for
        # every probed access each epoch, and the per-call dict lookups
        # plus one full pass over the records per column dominated it.
        self._accessors = tuple(resolve_accessor(name) for name in features)
        self._fitted_features: tuple[str, ...] | None = None
        metrics = get_observability().metrics
        self._m_rows = metrics.counter(
            "repro_features_rows_transformed_total",
            "telemetry rows turned into feature vectors",
        )
        self._m_probe_rows = metrics.counter(
            "repro_features_probe_rows_total",
            "per-location probe rows built for prediction",
        )

    @property
    def z(self) -> int:
        """The paper's Z: number of input features."""
        return len(self.features)

    @property
    def fitted(self) -> bool:
        return self._x_norm.fitted and self._y_norm.fitted

    @property
    def columnar(self) -> bool:
        """Whether every feature derives from the numeric access columns.

        True for the live (and Table) feature sets; False once an
        ``extra``-dict feature (EOS ``rt``/``wt``/...) is configured, in
        which case the engine falls back to record-based probe batches.
        """
        return all(name in _COLUMN_BUILDERS for name in self.features)

    # -- raw extraction ----------------------------------------------------
    def feature_matrix(self, records: "Sequence[AccessRecord]") -> np.ndarray:
        """Raw (unnormalized) feature matrix, one row per record.

        Built in a single pass over the records using the accessors cached
        at construction time (one pass per *column* otherwise).
        """
        if not records:
            raise FeatureError("no records supplied")
        return np.array(
            [[accessor(r) for accessor in self._accessors] for r in records],
            dtype=np.float64,
        )

    def feature_matrix_from_columns(
        self, columns: dict[str, np.ndarray]
    ) -> np.ndarray:
        """Raw feature matrix straight from columnar telemetry arrays.

        The no-record fast path: consumes the flat arrays returned by
        ``ReplayDB.recent_access_columns_per_file`` and evaluates each
        feature as one vectorized expression.  Bit-identical to
        ``feature_matrix`` over the corresponding AccessRecords.
        """
        if not columns:
            raise FeatureError("no columns supplied")
        try:
            return np.column_stack(
                [_COLUMN_BUILDERS[name](columns) for name in self.features]
            )
        except KeyError as exc:
            raise FeatureError(
                f"feature {exc.args[0]!r} is not derivable from columnar "
                "telemetry; use the record-based path"
            ) from None

    def target_vector(self, records: "Sequence[AccessRecord]") -> np.ndarray:
        """Raw throughput targets in bytes/s, smoothed with a moving average.

        The paper smooths ReplayDB data "to mitigate outliers" before
        training (section V-E), and batches telemetry per storage device
        ("each batch contains performance information for the data over
        all available storage devices").  Smoothing is therefore applied
        *within* each device's subsequence: averaging across the
        interleaved multi-device stream would blend fast and slow mounts
        into one target level and erase the location signal the engine
        ranks candidate placements by.

        The records' fields are gathered into columns and the target is
        computed by :meth:`target_vector_from_columns`: one vectorized
        :func:`access_throughput` call, whose elementwise result is the
        bits of each record's scalar ``throughput`` property.
        """
        if not records:
            raise FeatureError("no records supplied")
        data = np.array(
            [(r.rb, r.wb, r.ots, r.otms, r.cts, r.ctms, r.fsid)
             for r in records],
            dtype=np.float64,
        )
        return self.target_vector_from_columns(
            {name: data[:, i] for i, name in enumerate(_TARGET_FIELDS)}
        )

    def target_vector_from_columns(
        self, columns: dict[str, np.ndarray]
    ) -> np.ndarray:
        """:meth:`target_vector` straight from columnar telemetry arrays."""
        if not columns or not len(columns["fsid"]):
            raise FeatureError("no columns supplied")
        if self.target == "throughput":
            values = access_throughput(
                *(columns[name] for name in _TARGET_FIELDS[:6])
            )
        else:
            # Latency target (paper V-C: "there exist workloads that are
            # more latency sensitive, we will explore modeling latency of
            # the system in the future"): the per-access duration.
            values = _COLUMN_BUILDERS["duration"](columns)
        if self.smoothing_window == 1:
            return values
        fsids = columns["fsid"]
        out = np.empty_like(values)
        for fsid in np.unique(fsids):
            idx = np.flatnonzero(fsids == fsid)
            out[idx] = moving_average(values[idx], self.smoothing_window)
        return out

    # -- normalization -----------------------------------------------------
    def fit(self, records: "Sequence[AccessRecord]") -> "FeaturePipeline":
        return self._fit_raw(
            self.feature_matrix(records), self.target_vector(records)
        )

    def _fit_raw(self, x: np.ndarray, y: np.ndarray) -> "FeaturePipeline":
        self._x_norm.fit(x)
        self._y_norm.fit(y)
        self._fitted_features = self.features
        return self

    @property
    def _stale(self) -> bool:
        """Unfitted, or fitted for a different feature tuple."""
        return not self.fitted or self._fitted_features != self.features

    def ensure_fitted(self, records: "Sequence[AccessRecord]") -> "FeaturePipeline":
        """Fit normalization bounds once, then keep them frozen.

        Retrain cycles call this instead of ``fit``: as long as the feature
        schema is unchanged the learned bounds are reused, so a warm-started
        model keeps seeing consistently scaled inputs and the per-cycle
        fit cost disappears.  A schema change (different feature tuple)
        forces a refit because the column bounds no longer line up.
        """
        if self._stale:
            self.fit(records)
        return self

    def ensure_fitted_from_columns(
        self, columns: dict[str, np.ndarray]
    ) -> "FeaturePipeline":
        """:meth:`ensure_fitted` with the bounds fitted from columns."""
        if self._stale:
            self._fit_raw(
                self.feature_matrix_from_columns(columns),
                self.target_vector_from_columns(columns),
            )
        return self

    def partial_fit(self, records: "Sequence[AccessRecord]") -> "FeaturePipeline":
        """Merge new telemetry into the running normalization statistics.

        The online-learning update: each batch of fresh rows nudges the
        running mean/variance so normalization tracks the workload without
        an O(window) refit.  A no-op under frozen ``"minmax"``
        normalization (the from-scratch path owns those bounds via
        ``fit``/``ensure_fitted``).
        """
        if self.normalization != "running" or not records:
            return self
        x = self.feature_matrix(records)
        y = self.target_vector(records)
        if self._stale:
            self._fit_raw(x, y)
        else:
            self._x_norm.partial_fit(x)
            self._y_norm.partial_fit(y)
        return self

    def transform_features(self, records: "Sequence[AccessRecord]") -> np.ndarray:
        self._require_fitted()
        self._m_rows.inc(len(records))
        return self._x_norm.transform(self.feature_matrix(records))

    def transform_target(self, records: "Sequence[AccessRecord]") -> np.ndarray:
        self._require_fitted()
        return self._y_norm.transform(self.target_vector(records)).ravel()

    def transform_features_from_columns(
        self, columns: dict[str, np.ndarray]
    ) -> np.ndarray:
        """:meth:`transform_features` over columnar telemetry arrays."""
        self._require_fitted()
        x = self.feature_matrix_from_columns(columns)
        self._m_rows.inc(len(x))
        return self._x_norm.transform(x)

    def transform_target_from_columns(
        self, columns: dict[str, np.ndarray]
    ) -> np.ndarray:
        """:meth:`transform_target` over columnar telemetry arrays."""
        self._require_fitted()
        return self._y_norm.transform(
            self.target_vector_from_columns(columns)
        ).ravel()

    def inverse_transform_target(self, y: np.ndarray) -> np.ndarray:
        """Map normalized model outputs back to bytes/s."""
        self._require_fitted()
        return self._y_norm.inverse_transform(np.asarray(y)).ravel()

    def build_training_set(
        self, records: "Sequence[AccessRecord]"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fit on ``records`` and return normalized ``(X, y)``."""
        self.fit(records)
        return self.transform_features(records), self.transform_target(records)

    # -- per-location probe batches ------------------------------------------
    def build_location_probe(
        self, base: "AccessRecord", fsids: Sequence[int]
    ) -> np.ndarray:
        """One normalized row per candidate location.

        Every row replicates ``base``'s features with only the ``fsid``
        column varying -- including the file's current location so "the
        possibility that moving the data will not improve the performance"
        is always on the menu (section V-C).
        """
        self._require_fitted()
        if not fsids:
            raise FeatureError("no candidate locations supplied")
        if "fsid" not in self.features:
            raise FeatureError(
                "per-location probing varies the 'fsid' column (paper "
                "section V-C); include it in the feature set"
            )
        raw = self.feature_matrix([base])
        probe = np.repeat(raw, len(fsids), axis=0)
        fsid_col = self.features.index("fsid")
        probe[:, fsid_col] = np.asarray(fsids, dtype=np.float64)
        return self._x_norm.transform(probe)

    def build_location_probe_batch(
        self, bases: "Sequence[AccessRecord]", fsids: Sequence[int]
    ) -> np.ndarray:
        """The whole decision epoch's probe tensor in one array.

        Row ``i * len(fsids) + j`` replicates ``bases[i]``'s features with
        the ``fsid`` column set to ``fsids[j]`` -- the batched equivalent
        of ``build_location_probe`` called once per base.  Building every
        (access, candidate location) probe up front lets the engine run a
        single forward pass and a single inverse transform per decision
        epoch instead of one per access, which is what keeps decision
        latency small relative to the workload (paper Table IV).
        """
        if not bases:
            raise FeatureError("no base records supplied")
        return self.build_location_probe_from_matrix(
            self.feature_matrix(bases), fsids
        )

    def build_location_probe_from_matrix(
        self, raw: np.ndarray, fsids: Sequence[int]
    ) -> np.ndarray:
        """Probe tensor from an already-extracted raw feature matrix.

        Shared tail of the record-based and columnar batch builders: each
        of the ``len(raw)`` base rows is replicated once per candidate
        location with only the ``fsid`` column varying.  Both normalizers
        work elementwise per column, so the base rows and the candidate
        fsids are normalized once each and the normalized values are
        repeated: the same bits as normalizing the full tensor, with
        ``len(fsids)`` times less normalization work.
        """
        self._require_fitted()
        if not fsids:
            raise FeatureError("no candidate locations supplied")
        if "fsid" not in self.features:
            raise FeatureError(
                "per-location probing varies the 'fsid' column (paper "
                "section V-C); include it in the feature set"
            )
        fsid_col = self.features.index("fsid")
        candidates = np.zeros((len(fsids), raw.shape[1]))
        candidates[:, fsid_col] = fsids
        fsid_norm = self._x_norm.transform(candidates)[:, fsid_col]
        probe = np.repeat(self._x_norm.transform(raw), len(fsids), axis=0)
        probe[:, fsid_col] = np.tile(fsid_norm, len(raw))
        self._m_probe_rows.inc(len(probe))
        return probe

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise FeatureError("pipeline used before fit()")

    # -- checkpointing -----------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable normalization state.

        The frozen bounds are the pipeline's only mutable state; the
        feature tuple/accessors are reconstructed from config at restore.
        """
        return {
            "normalization": self.normalization,
            "x_norm": self._x_norm.state_dict(),
            "y_norm": self._y_norm.state_dict(),
            "fitted_features": (
                list(self._fitted_features)
                if self._fitted_features is not None else None
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        # Checkpoints predating the online-learning mode carry no
        # normalization tag; they are all min-max.
        saved_mode = state.get("normalization", "minmax")
        if saved_mode != self.normalization:
            raise FeatureError(
                f"checkpoint normalization {saved_mode!r} does not match "
                f"this pipeline's {self.normalization!r}; rebuild the "
                "pipeline with the checkpoint's configuration"
            )
        self._x_norm.load_state_dict(state["x_norm"])
        self._y_norm.load_state_dict(state["y_norm"])
        self._fitted_features = (
            tuple(state["fitted_features"])
            if state["fitted_features"] is not None else None
        )


def make_windows(
    x: np.ndarray, y: np.ndarray, timesteps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows for the recurrent Table-I models.

    Window ``i`` covers rows ``i .. i+timesteps-1`` and is labelled with the
    target of its final row, so the model predicts the present from the
    recent past.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if timesteps < 1:
        raise FeatureError(f"timesteps must be >= 1, got {timesteps}")
    if x.ndim != 2:
        raise FeatureError(f"x must be 2-D, got shape {x.shape}")
    if len(x) != len(y):
        raise FeatureError(f"x has {len(x)} rows but y has {len(y)}")
    if len(x) < timesteps:
        raise FeatureError(
            f"need at least timesteps={timesteps} rows, got {len(x)}"
        )
    n = len(x) - timesteps + 1
    windows = np.stack([x[i : i + timesteps] for i in range(n)])
    return windows, y[timesteps - 1 :]
