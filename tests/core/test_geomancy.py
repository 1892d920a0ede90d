"""Integration tests for the Geomancy facade on the Bluesky testbed."""

import pytest

from repro.core.config import GeomancyConfig
from repro.core.geomancy import Geomancy
from repro.errors import AgentError, ConfigurationError
from repro.simulation.bluesky import make_bluesky_cluster
from repro.workloads.belle2 import Belle2Workload
from repro.workloads.files import belle2_file_population
from repro.workloads.runner import WorkloadRunner


def quick_config(**overrides):
    # Gates off by default: these tests exercise the decision-loop
    # mechanics at a scale where the model has no real skill.
    base = dict(
        epochs=10, training_rows=800, batch_size=64,
        smoothing_window=20, cooldown_runs=5, seed=0,
        require_skill=False, require_ranking_sanity=False,
    )
    base.update(overrides)
    return GeomancyConfig(**base)


@pytest.fixture
def setup():
    cluster = make_bluesky_cluster(seed=0)
    files = belle2_file_population(seed=0)
    geo = Geomancy(cluster, files, quick_config())
    geo.place_initial()
    workload = Belle2Workload(files, seed=1)
    runner = WorkloadRunner(cluster, workload, geo.db)
    return cluster, geo, runner


class TestPlacement:
    def test_initial_layout_registers_files(self, setup):
        cluster, geo, _ = setup
        assert len(cluster.files) == 24

    def test_custom_initial_layout(self):
        cluster = make_bluesky_cluster(seed=0)
        files = belle2_file_population(seed=0)
        geo = Geomancy(cluster, files, quick_config())
        layout = geo.place_initial({f.fid: "file0" for f in files})
        assert set(layout.values()) == {"file0"}
        assert cluster.file(0).device == "file0"

    def test_empty_files_rejected(self):
        with pytest.raises(ConfigurationError):
            Geomancy(make_bluesky_cluster(), [], quick_config())


class TestTelemetryPath:
    def test_observe_run_lands_in_db(self, setup):
        _, geo, runner = setup
        result = runner.run_once()
        before = geo.db.access_count()
        geo.observe_run(result.records)
        # Note the runner also wrote directly into geo.db; observe_run
        # routes through the agents, so the count at least doubles.
        assert geo.db.access_count() > before

    def test_observe_unknown_device_rejected(self, setup):
        _, geo, _ = setup
        from repro.replaydb.records import AccessRecord
        bad = AccessRecord(
            fid=0, fsid=0, device="ghost", path="p", rb=1, wb=0,
            ots=0, otms=0, cts=1, ctms=0,
        )
        with pytest.raises(AgentError):
            geo.observe(bad)

    def test_monitoring_agents_per_device(self, setup):
        cluster, geo, _ = setup
        assert set(geo.monitors) == set(cluster.device_names)


class TestDecisionLoop:
    def test_no_move_before_cooldown(self, setup):
        _, geo, runner = setup
        runner.run_once()
        outcome = geo.after_run(1, runner.clock.now)
        assert not outcome.trained and not outcome.movements

    def test_no_training_without_telemetry(self, setup):
        _, geo, _ = setup
        outcome = geo.after_run(5, 100.0)
        assert not outcome.trained

    def test_trains_and_may_move_on_cooldown_boundary(self, setup):
        _, geo, runner = setup
        for _ in range(5):
            runner.run_once()
        outcome = geo.after_run(5, runner.clock.now)
        assert outcome.trained
        assert outcome.training is not None
        # Moves (if any) must respect the per-movement cap.
        assert outcome.moved_files <= geo.config.max_files_per_move

    def test_movements_recorded_in_db(self, setup):
        _, geo, runner = setup
        for run in range(1, 11):
            runner.run_once()
            geo.after_run(run, runner.clock.now)
        assert len(geo.db.movements()) == geo.total_moves

    def test_outcomes_accumulate(self, setup):
        _, geo, runner = setup
        for run in range(1, 4):
            runner.run_once()
            geo.after_run(run, runner.clock.now)
        assert [o.run_index for o in geo.outcomes] == [1, 2, 3]

    def test_movement_history_clusters(self, setup):
        _, geo, runner = setup
        for run in range(1, 11):
            runner.run_once()
            geo.after_run(run, runner.clock.now)
        history = geo.movement_history()
        assert sum(count for _, count in history) == geo.total_moves


class TestEndToEnd:
    def test_layout_changes_over_time(self):
        """Over enough runs Geomancy actually reshapes the layout."""
        cluster = make_bluesky_cluster(seed=3)
        files = belle2_file_population(seed=0)
        geo = Geomancy(cluster, files, quick_config(seed=3))
        initial = dict(geo.place_initial())
        runner = WorkloadRunner(
            cluster, Belle2Workload(files, seed=1), geo.db
        )
        for run in range(1, 16):
            runner.run_once()
            geo.after_run(run, runner.clock.now)
        final = cluster.layout()
        assert geo.total_moves > 0
        assert any(initial[fid] != final[fid] for fid in initial)


class TestAvailability:
    def test_moves_avoid_unavailable_devices(self, setup):
        cluster, geo, runner = setup
        # file0 (and two more mounts) stop accepting new placements.
        for name in ("file0", "pic", "tmp"):
            cluster.set_device_available(name, False)
        for run in range(1, 16):
            runner.run_once()
            geo.after_run(run, runner.clock.now)
        for move in geo.db.movements():
            assert move.dst_device in ("USBtmp", "var", "people")

    def test_no_available_devices_skips_cycle(self, setup):
        cluster, geo, runner = setup
        for name in cluster.device_names:
            cluster.set_device_available(name, False)
        for _ in range(5):
            runner.run_once()
        outcome = geo.after_run(5, runner.clock.now)
        assert outcome.movements == []


class TestGapScheduler:
    def test_gap_scheduler_filters_hot_files(self):
        """With use_gap_scheduler, constantly accessed files stay put."""
        cluster = make_bluesky_cluster(seed=0)
        files = belle2_file_population(seed=0)
        geo = Geomancy(
            cluster, files,
            quick_config(use_gap_scheduler=True, require_skill=False),
        )
        geo.place_initial()
        runner = WorkloadRunner(
            cluster, Belle2Workload(files, seed=1), geo.db,
            think_time_s=0.0,  # back-to-back accesses: gaps ~ 0
        )
        for run in range(1, 11):
            runner.run_once()
            geo.after_run(run, runner.clock.now)
        # Bursty back-to-back re-reads leave no gap large enough for a
        # multi-hundred-MB transfer, so movements are rare or absent.
        untuned = Geomancy(
            make_bluesky_cluster(seed=0), files,
            quick_config(require_skill=False),
        )
        assert geo.total_moves <= untuned.config.max_files_per_move


class TestQosWiring:
    def test_defaults_leave_legacy_plane_intact(self):
        cluster = make_bluesky_cluster(seed=0)
        files = belle2_file_population(seed=0)
        geo = Geomancy(cluster, files, quick_config())
        from repro.agents.transport import BoundedTransport, InMemoryTransport

        assert type(geo.telemetry) is InMemoryTransport
        assert geo.telemetry.maxsize is None
        assert not isinstance(geo.telemetry, BoundedTransport)
        assert geo.daemon.admission is None
        assert geo.daemon.dead_letter_store is None

    def test_qos_knobs_wire_through(self):
        from repro.agents.transport import BoundedTransport

        bounded = BoundedTransport(capacity=16, policy="reject")
        geo = Geomancy(
            make_bluesky_cluster(seed=0), belle2_file_population(seed=0),
            quick_config(), telemetry=bounded,
        )
        assert geo.telemetry is bounded
        assert geo.daemon.telemetry is bounded
        assert all(m.transport is bounded for m in geo.monitors.values())

    def test_qos_off_runs_are_bit_identical(self):
        def outcome():
            cluster = make_bluesky_cluster(seed=0)
            files = belle2_file_population(seed=0)
            geo = Geomancy(cluster, files, quick_config())
            geo.place_initial()
            runner = WorkloadRunner(
                cluster, Belle2Workload(files, seed=1), geo.db,
            )
            for i in range(6):
                geo.observe_run(runner.run_once().records)
                geo.after_run(i, float(i))
            return (
                cluster.layout(),
                geo.db.access_count(),
                geo.daemon.records_ingested,
            )

        assert outcome() == outcome()


class TestComponentDefaults:
    """Components built by the facade carry their own defaults."""

    def test_defaults_match_the_paper_configuration(self):
        geo = Geomancy(
            make_bluesky_cluster(seed=0), belle2_file_population(seed=0),
            GeomancyConfig(online_learning=True, causal_tracing_enabled=True),
        )
        control = geo.control
        assert control.max_move_retries == 3
        assert control.retry_backoff_s == 5.0
        assert control.retry_backoff_max_s == 300.0
        assert not control.retry_jitter
        assert geo.health.quarantine_threshold == 3
        assert geo.health.quarantine_duration_s == 600.0
        replay = geo.engine.replay
        assert replay.capacity == 20_000
        assert replay.alpha == 0.6
        assert replay.beta == 0.4
        assert replay.recency_half_life == 10_000.0
        drift = geo.engine.drift_detector
        assert drift.delta == 0.05
        assert drift.threshold == 1.0
        assert drift.min_samples == 8
        assert geo.engine.snapshots.keep == 3
        assert geo.ledger.max_entries == 4096
        assert geo.ledger.rotate_bytes == 4_000_000
        assert geo.daemon.admission is None
        assert geo.daemon.dead_letter_store is None
