"""The vectorized training target against the per-record scalar one.

``FeaturePipeline.target_vector`` computes every record's throughput (or
duration) in one array expression; the earlier code read each record's
scalar ``throughput``/``duration`` property.  Both must give the same
bits -- for records read back from the ReplayDB, and for records the
simulator built with their ``throughput`` cache pre-seeded.
"""

import numpy as np
import pytest

from repro.features.pipeline import FeaturePipeline
from repro.features.smoothing import moving_average
from repro.replaydb.db import ReplayDB
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner


def reference_target(pipeline, records):
    """The per-record loop ``target_vector`` replaced."""
    if pipeline.target == "throughput":
        values = np.array([r.throughput for r in records], dtype=np.float64)
    else:
        values = np.array([r.duration for r in records], dtype=np.float64)
    if pipeline.smoothing_window == 1:
        return values
    fsids = np.array([r.fsid for r in records])
    out = np.empty_like(values)
    for fsid in np.unique(fsids):
        idx = np.flatnonzero(fsids == fsid)
        out[idx] = moving_average(values[idx], pipeline.smoothing_window)
    return out


@pytest.fixture(scope="module")
def simulated():
    """Simulator records (cache pre-seeded) and the same rows read back."""
    files = belle2_file_population(seed=0)
    runner = WorkloadRunner(
        make_bluesky_cluster(seed=0), Belle2Workload(files, seed=1)
    )
    devices = runner.cluster.device_names
    runner.ensure_files_placed(
        {f.fid: devices[i % len(devices)] for i, f in enumerate(files)}
    )
    records = [r for run in runner.run_many(6) for r in run.records]
    assert all("throughput" in r.__dict__ for r in records)
    read_back = runner.db.recent_accesses(len(records))
    assert [r.throughput for r in read_back] == [
        r.throughput for r in records
    ]
    return records, read_back


@pytest.mark.parametrize("target", ["throughput", "latency"])
@pytest.mark.parametrize("window", [1, 3, 10])
def test_target_vector_matches_per_record_reference(simulated, target, window):
    pipeline = FeaturePipeline(smoothing_window=window, target=target)
    for records in simulated:
        got = pipeline.target_vector(records)
        want = reference_target(pipeline, records)
        assert got.tobytes() == want.tobytes()


def test_columns_target_matches_records(simulated):
    _, read_back = simulated
    db = ReplayDB()
    db.insert_accesses(read_back)
    columns = db.recent_access_columns(len(read_back))
    for target in ("throughput", "latency"):
        pipeline = FeaturePipeline(smoothing_window=10, target=target)
        assert (
            pipeline.target_vector_from_columns(columns).tobytes()
            == pipeline.target_vector(read_back).tobytes()
        )
        pipeline.ensure_fitted_from_columns(columns)
        twin = FeaturePipeline(smoothing_window=10, target=target)
        twin.ensure_fitted(read_back)
        assert pipeline.state_dict() == twin.state_dict()
        assert (
            pipeline.transform_features_from_columns(columns).tobytes()
            == twin.transform_features(read_back).tobytes()
        )
        assert (
            pipeline.transform_target_from_columns(columns).tobytes()
            == twin.transform_target(read_back).tobytes()
        )
