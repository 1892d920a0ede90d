"""Tests for GeomancyConfig validation."""

import pytest

from repro.core.config import GeomancyConfig
from repro.errors import ConfigurationError


class TestDefaults:
    def test_paper_defaults(self):
        config = GeomancyConfig()
        assert config.model_number == 1
        assert config.z == 6
        assert config.training_rows == 12_000
        assert config.epochs == 200
        assert config.optimizer == "sgd"
        assert config.exploration_rate == 0.10
        assert config.cooldown_runs == 5
        assert config.max_files_per_move == 14

    def test_z_follows_features(self):
        config = GeomancyConfig(features=("rb", "wb", "fsid"))
        assert config.z == 3


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model_number": 0},
            {"model_number": 24},
            {"features": ()},
            {"training_rows": 5},
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"smoothing_window": 0},
            {"timesteps": 0},
            {"exploration_rate": -0.1},
            {"exploration_rate": 1.5},
            {"cooldown_runs": 0},
            {"max_files_per_move": 0},
            {"probe_samples": 0},
            {"min_gain_fraction": -0.1},
            {"max_actionable_mare": 0.0},
            {"online_epochs": 0},
            {"online_max_new_rows": 0},
            {"replay_sample_rows": -1},
            {"trace_sample_rate": 0.0},
            {"slo_queue_delay_threshold_s": 0.0},
            {"slo_throughput_floor_gbps": -1.0},
            {"provenance_enabled": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GeomancyConfig(**kwargs)

    def test_all_model_numbers_accepted(self):
        for number in range(1, 24):
            assert GeomancyConfig(model_number=number).model_number == number


class TestExtensionKnobs:
    def test_latency_target_accepted(self):
        assert GeomancyConfig(target="latency").target == "latency"

    def test_invalid_target_rejected(self):
        with pytest.raises(ConfigurationError):
            GeomancyConfig(target="iops")

    def test_gap_scheduler_flag(self):
        assert GeomancyConfig(use_gap_scheduler=True).use_gap_scheduler
        assert not GeomancyConfig().use_gap_scheduler


class TestResilienceKnobs:
    def test_defaults(self):
        assert GeomancyConfig().fault_schedule == ()

    def test_fault_schedule_specs_validated(self):
        config = GeomancyConfig(
            fault_schedule=("kill:file0@40%", "outage:pic@60+30")
        )
        assert len(config.fault_schedule) == 2
        with pytest.raises(ConfigurationError):
            GeomancyConfig(fault_schedule=("reboot:file0@10",))


class TestRecoveryKnobs:
    def test_defaults(self):
        config = GeomancyConfig()
        assert config.checkpoint_every == 0
        assert config.checkpoint_keep == 3
        assert not config.guardrail_enabled
        assert config.guardrail_window == 4
        assert config.guardrail_cooldown_runs == 3
        assert config.fallback_policy == "static"

    def test_checkpointing_disabled_by_zero(self):
        assert GeomancyConfig(checkpoint_every=0).checkpoint_every == 0
        assert GeomancyConfig(checkpoint_every=5).checkpoint_every == 5

    def test_lru_fallback_accepted(self):
        config = GeomancyConfig(fallback_policy="lru")
        assert config.fallback_policy == "lru"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"checkpoint_every": -1},
            {"checkpoint_keep": 0},
            {"guardrail_window": 0},
            {"target_snapshot_every": -1},
            {"fallback_policy": ""},
            {"guardrail_cooldown_runs": -1},
            {"guardrail_cooldown_runs": 0},
            {"fallback_policy": "random"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GeomancyConfig(**kwargs)
