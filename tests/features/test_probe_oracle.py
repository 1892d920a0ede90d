"""The probe build against its repeat-then-normalize reference.

``FeaturePipeline.build_location_probe_from_matrix`` normalizes the base
rows and the candidate fsids once each and repeats the normalized values.
The reference below is the direct construction: replicate every raw base
row once per candidate, overwrite the ``fsid`` column, then normalize the
whole ``n_bases * L`` tensor.  Both normalizers work elementwise per
column, so the two must agree bit for bit.
"""

import numpy as np
import pytest

from repro.features.pipeline import FeaturePipeline
from repro.replaydb.records import AccessRecord


def reference_probe(pipeline, raw, fsids):
    """Repeat every raw row per candidate fsid, then normalize the tensor."""
    probe = np.repeat(raw, len(fsids), axis=0)
    fsid_col = pipeline.features.index("fsid")
    probe[:, fsid_col] = np.tile(np.asarray(fsids, dtype=np.float64), len(raw))
    return pipeline._x_norm.transform(probe)


def make_records(n, n_devices, seed):
    rng = np.random.default_rng(seed)
    return [
        AccessRecord(
            fid=i % 7,
            fsid=i % n_devices,
            device=f"dev{i % n_devices}",
            path=f"data/f{i % 7}.root",
            rb=int(rng.integers(1, 10**9)),
            wb=int(rng.integers(0, 10**6)),
            ots=1000 + i,
            otms=int(rng.integers(0, 1000)),
            cts=1001 + i + int(rng.integers(0, 5)),
            ctms=int(rng.integers(0, 1000)),
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("normalization", ["minmax", "running"])
@pytest.mark.parametrize("n_devices", [1, 5], ids=["constant-fsid", "five-fsids"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_probe_matches_repeat_then_normalize(normalization, n_devices, seed):
    train = make_records(80, n_devices, seed)
    pipeline = FeaturePipeline(normalization=normalization)
    pipeline.fit(train)
    raw = pipeline.feature_matrix(make_records(23, n_devices, seed + 100))
    # Candidates inside and outside the fitted fsid range (extrapolation).
    fsids = [0, 3, 1, 9, 2, 4, 17]
    got = pipeline.build_location_probe_from_matrix(raw, fsids)
    assert got.shape == (len(raw) * len(fsids), pipeline.z)
    assert np.array_equal(got, reference_probe(pipeline, raw, fsids))


@pytest.mark.parametrize("normalization", ["minmax", "running"])
def test_constant_fsid_column_maps_to_center(normalization):
    pipeline = FeaturePipeline(normalization=normalization)
    pipeline.fit(make_records(40, 1, seed=3))
    raw = pipeline.feature_matrix(make_records(4, 1, seed=4))
    probe = pipeline.build_location_probe_from_matrix(raw, [0, 5, 11])
    center = 0.5 if normalization == "minmax" else 0.0
    fsid_col = pipeline.features.index("fsid")
    assert np.all(probe[:, fsid_col] == center)


def test_columnar_probe_matches_reference():
    """Integer-valued columnar matrices take the same path, bit for bit."""
    from repro.replaydb.db import PROBE_FIELDS

    train = make_records(60, 4, seed=5)
    pipeline = FeaturePipeline()
    pipeline.fit(train)
    columns = {
        name: np.array([getattr(r, name) for r in train[:9]])
        for name in PROBE_FIELDS
    }
    raw = pipeline.feature_matrix_from_columns(columns)
    fsids = list(range(6))
    got = pipeline.build_location_probe_from_matrix(raw, fsids)
    assert np.array_equal(got, reference_probe(pipeline, raw, fsids))
