"""The facade and the policy adapter gate their decisions identically.

``Geomancy.after_run`` and ``GeomancyDynamicPolicy.update_layout`` drive
the same engine decision step; on the same ReplayDB and seed each gate
must make both skip, and with every gate open both must act.
"""

import dataclasses

import pytest

from repro.core.config import GeomancyConfig
from repro.core.engine import MIN_TRAINING_ROWS, DRLEngine
from repro.core.geomancy import Geomancy
from repro.experiments.harness import random_warm_up
from repro.experiments.spec import TEST_SCALE
from repro.policies.geomancy_policy import GeomancyDynamicPolicy
from repro.replaydb.db import ReplayDB
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner

OPEN = dict(
    require_skill=False, require_ranking_sanity=False,
    max_actionable_mare=1e18,
)

#: gate name -> (config overrides, training-report overrides, rows,
#: ranking correlation the engine reports)
GATES = {
    "too-few-rows": (OPEN, {}, MIN_TRAINING_ROWS - 1, 1.0),
    "skill-less": (
        dict(OPEN, require_skill=True), {"test_mare": 1e9}, None, 1.0
    ),
    "diverged": (OPEN, {"diverged": True}, None, 1.0),
    "mare-ceiling": (
        dict(OPEN, max_actionable_mare=50.0), {"test_mare": 51.0}, None, 1.0
    ),
    "inverted-ranking": (
        dict(OPEN, require_ranking_sanity=True), {}, None, -0.5
    ),
}


def _telemetry(rows: int | None):
    """Shuffled-layout warm-up records (``rows`` caps them)."""
    files = belle2_file_population(seed=0)
    runner = WorkloadRunner(
        make_bluesky_cluster(seed=0), Belle2Workload(files, seed=1)
    )
    random_warm_up(runner, files, scale=TEST_SCALE, seed=0)
    records = runner.db.recent_accesses(TEST_SCALE.warmup_accesses)
    return records if rows is None else records[:rows]


def _decisions(monkeypatch, config_overrides, report_overrides, rows, rho):
    """(trained, acted) for the facade and for the policy, same inputs."""
    train = DRLEngine.train

    def doctored_train(engine, db):
        return dataclasses.replace(train(engine, db), **report_overrides)

    monkeypatch.setattr(DRLEngine, "train", doctored_train)
    monkeypatch.setattr(
        DRLEngine, "ranking_correlation", lambda engine, db, devices: rho
    )
    config = GeomancyConfig(
        epochs=5, training_rows=TEST_SCALE.warmup_accesses,
        cooldown_runs=1, seed=0,
        min_gain_fraction=0.0, **config_overrides,
    )
    records = _telemetry(rows)

    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    db = ReplayDB()
    db.insert_accesses(records)
    geo = Geomancy(cluster, files, config, db=db)
    geo.place_initial()
    current = dict(cluster.layout())
    outcome = geo.after_run(1, t=1e6)
    facade = (outcome.trained, bool(outcome.movements))

    db = ReplayDB()
    db.insert_accesses(records)
    policy = GeomancyDynamicPolicy(
        {cluster.device(n).fsid: n for n in cluster.device_names}, config
    )
    reports = policy.engine.last_report
    layout = policy.update_layout(db, files, cluster.device_names, current)
    adapter = (policy.engine.last_report is not reports, layout is not None)
    return facade, adapter


@pytest.mark.parametrize("gate", sorted(GATES))
def test_each_gate_makes_both_callers_skip(monkeypatch, gate):
    facade, adapter = _decisions(monkeypatch, *GATES[gate])
    assert facade == adapter
    assert facade[1] is False
    assert facade[0] is (gate != "too-few-rows")


def test_with_every_gate_open_both_callers_act(monkeypatch):
    facade, adapter = _decisions(monkeypatch, OPEN, {}, None, 1.0)
    assert facade == adapter == (True, True)
