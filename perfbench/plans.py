"""The benchmark's workloads: what each one runs and why it was chosen.

Every workload is a fixed *plan* of episodes.  An episode builds a fresh
cluster, file set and Geomancy control plane from one sub-seed, warms it
up to the training threshold and runs a fixed number of workload runs, so
its outputs (layout, movements, throughput) are a pure function of the
sub-seed.  A benchmark run with ``--seed s`` executes the episodes for
the sub-seeds ``sub_seeds(s)``: several independent workload instances
per run, so a run's medians describe the workload rather than one lucky
or unlucky access stream.

``HELD_OUT_SEED`` is the seed a later gain claim must also hold on; it is
not used while tuning a change.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

#: benchmark seed reserved for confirming a gain after the change is written
HELD_OUT_SEED = 9001

#: spacing between the sub-seed blocks of consecutive benchmark seeds
_SEED_STRIDE = 1009

#: episodes a traced run replays (each twice: untraced, then traced)
TRACED_EPISODES = 3


@dataclass(frozen=True)
class Plan:
    """One workload: its episode shape, sub-seed count and reason."""

    name: str
    why: str
    #: "facade" drives repro.core.geomancy.Geomancy from outside;
    #: "sharded" calls repro.experiments.scale.run_scale_point
    driver: str
    #: episodes (distinct sub-seeds) in one run; a traced run uses at
    #: most ``TRACED_EPISODES`` of them
    episodes: int
    #: "bluesky" (the paper's 6-mount testbed) or "scaled"
    topology: str = "bluesky"
    devices: int = 6
    files: int = 24
    files_per_run: int = 4
    #: unmeasured runs before the measured phase (at least; the warm-up
    #: also continues until the ReplayDB holds ``training_rows`` rows)
    warmup_runs: int = 1
    #: measured workload runs per episode (per fusion round when sharded)
    runs: int = 100
    #: GeomancyConfig overrides (seed is the episode's sub-seed)
    config: dict = field(default_factory=dict)
    #: repro.experiments.scale.ScalePoint fields for the sharded driver
    point: dict = field(default_factory=dict)

    def sub_seeds(self, seed: int, *, traced: bool = False) -> list[int]:
        count = min(self.episodes, TRACED_EPISODES) if traced else (
            self.episodes
        )
        base = seed * _SEED_STRIDE
        return [base + i for i in range(count)]

    def describe(self) -> dict:
        return asdict(self)


_SCALED_GATES_OFF = dict(
    training_rows=400,
    epochs=2,
    probe_samples=4,
    cooldown_runs=5,
    require_skill=False,
    require_ranking_sanity=False,
    max_actionable_mare=1e18,
)

PLANS: dict[str, Plan] = {
    plan.name: plan
    for plan in (
        Plan(
            name="paper-bluesky",
            why=(
                "the paper's 6 Bluesky mounts and 24 BELLE II files, gates "
                "on, 2,000 rows x 20 epochs: nn.fit dominates each decision "
                "epoch"
            ),
            driver="facade",
            episodes=6,
            topology="bluesky",
            files=24,
            files_per_run=4,
            runs=100,
            config=dict(training_rows=2_000, epochs=20, cooldown_runs=5),
        ),
        Plan(
            name="scaled-probe",
            why=(
                "512 devices x 4,096 files through the facade with gates "
                "off: nn.predict over a ~0.5M-row probe dominates the epoch "
                "and peak RSS"
            ),
            driver="facade",
            episodes=5,
            topology="scaled",
            devices=512,
            files=4_096,
            files_per_run=32,
            warmup_runs=3,
            # one decision epoch (after run 5) and four runs on its layout
            runs=9,
            config=dict(_SCALED_GATES_OFF),
        ),
        # Runnable but not listed in BENCHMARK.json: nearly every epoch
        # diverges, and a diverged epoch's cost depends on where its fit
        # stopped, so epoch latency here spreads across seeds far beyond
        # any regression bound (see perfbench/README.md).
        Plan(
            name="ingest-online",
            why=(
                "512 files, ~1k accesses per run, online learning: the "
                "ReplayDB write path runs beside incremental-training reads"
            ),
            driver="facade",
            episodes=1,
            topology="bluesky",
            files=512,
            files_per_run=64,
            runs=300,
            config=dict(
                training_rows=2_000,
                epochs=20,
                cooldown_runs=20,
                online_learning=True,
            ),
        ),
        Plan(
            name="sharded-8x",
            why=(
                "the scaled-probe cluster, files and workload through "
                "run_scale_point with 8 shards and 3 fusion rounds: the only "
                "path into sharding/"
            ),
            driver="sharded",
            episodes=3,
            point=dict(
                devices=512,
                files=4_096,
                shards=8,
                warmup_runs=3,
                runs=10,
                update_every=5,
                rounds=3,
                files_per_run=32,
                training_rows=400,
                epochs=2,
                probe_samples=4,
                gates=False,
            ),
        ),
    )
}
