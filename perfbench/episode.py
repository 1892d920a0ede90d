"""Run one benchmark workload's episodes in this (fresh) process.

``run.py`` starts this script as a child, so the peak RSS it reports is
the workload's own.  The child prints one JSON line: the run's metrics.

An episode drives the real control loop from outside:

* ``facade`` plans: ``WorkloadRunner.run_many`` -> ``Geomancy.observe_records``
  -> ``Geomancy.flush_telemetry`` -> ``Geomancy.after_run`` for every run,
  one closed-loop client, the runs between two decision points fused into
  one ``run_many`` call;
* ``sharded`` plans: ``repro.experiments.scale.run_scale_point`` with the
  shard spans in-process (``workers=1``).

A decision epoch is an ``after_run`` / ``update_layout`` call that
trained.  It fails when its ``TrainingReport.diverged`` is set, or when
the proposal it made holds a non-finite score in
``engine.last_chosen_scores``.  Every episode checks its outputs: all
telemetry landed in the ReplayDB, every file sits on exactly one existing
device within capacity, and replaying the successful movements from the
initial layout yields the final layout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from layertrace import LayerTracer, Patches  # noqa: E402
from plans import PLANS, Plan  # noqa: E402

#: scratch space for the episode's own files (weight snapshots)
WORK = HERE / "out" / "work"


# -- epochs -------------------------------------------------------------------
def classify_epoch(
    seconds: float, diverged: bool, scores: dict | None, acted: bool
) -> list:
    """``[seconds, failed, acted, negative]`` for one trained epoch.

    ``scores`` is the engine's ``last_chosen_scores`` when this epoch
    made a proposal, else None.
    """
    values = list(scores.values()) if scores else []
    nonfinite = any(not math.isfinite(v) for v in values)
    negative = any(math.isfinite(v) and v < 0.0 for v in values)
    return [seconds, int(diverged or nonfinite), int(acted), int(negative)]


# -- output checks --------------------------------------------------------------
def check_layout(cluster, fids, layout: dict, problems: list) -> None:
    """Every file on exactly one existing device, within its capacity.

    ``layout`` maps each file to one device by construction; the check is
    that every workload file is in it, on a device the cluster has, and
    that each device's stored-bytes counter equals the bytes placed on
    it and fits its capacity.
    """
    names = set(cluster.device_names)
    missing = [fid for fid in fids if fid not in layout]
    if missing:
        problems.append(f"{len(missing)} workload files not placed")
    placed = dict.fromkeys(names, 0)
    for fid, device in layout.items():
        if device not in names:
            problems.append(f"file {fid} on unknown device {device!r}")
            continue
        placed[device] += cluster.file(fid).size_bytes
    for name in names:
        stored = cluster.stored_bytes(name)
        capacity = cluster.device(name).spec.capacity_bytes
        if stored != placed[name] or stored > capacity:
            problems.append(
                f"{name}: counter {stored}, placed {placed[name]}, "
                f"capacity {capacity}"
            )


def check_replay(initial: dict, movements, final: dict, problems: list) -> None:
    """Successful movements replayed over ``initial`` must give ``final``."""
    layout = dict(initial)
    for move in movements:
        if not move.succeeded:
            continue
        if layout.get(move.fid) != move.src_device:
            problems.append(
                f"move of file {move.fid} from {move.src_device} but it "
                f"was on {layout.get(move.fid)}"
            )
        layout[move.fid] = move.dst_device
    if layout != {fid: final.get(fid) for fid in layout}:
        problems.append("replayed movements do not give the final layout")


def movement_history(movements) -> list:
    return [
        (m.timestamp, m.fid, m.src_device, m.dst_device, m.succeeded)
        for m in movements
    ]


# -- the facade driver -----------------------------------------------------------
def build_inputs(plan: Plan, sub_seed: int):
    """The episode's cluster, file set and BELLE II access stream."""
    from repro.simulation.bluesky import make_bluesky_cluster
    from repro.simulation.topologies import make_scaled_cluster
    from repro.workloads.belle2 import Belle2Workload
    from repro.workloads.files import belle2_file_population

    if plan.topology == "bluesky":
        cluster = make_bluesky_cluster(seed=sub_seed)
    else:
        cluster = make_scaled_cluster(plan.devices, seed=sub_seed)
    files = belle2_file_population(plan.files, seed=sub_seed)
    workload = Belle2Workload(
        files, seed=sub_seed + 1, files_per_run=plan.files_per_run
    )
    return cluster, files, workload


def facade_episode(plan: Plan, sub_seed: int, tracer=None) -> dict:
    from repro.core.config import GeomancyConfig
    from repro.core.geomancy import Geomancy
    from repro.replaydb.db import ReplayDB
    from repro.workloads.runner import WorkloadRunner

    t0 = time.perf_counter()
    cluster, files, workload = build_inputs(plan, sub_seed)
    overrides = dict(plan.config)
    if overrides.get("online_learning"):
        overrides["weight_snapshot_dir"] = str(WORK / f"snapshots-{sub_seed}")
    config = GeomancyConfig(seed=sub_seed, **overrides)
    geo = Geomancy(cluster, files, config)
    initial = dict(geo.place_initial())
    runner = WorkloadRunner(cluster, workload, ReplayDB())
    observed = 0
    warm = 0
    # Warm-up to the training threshold: the first measured epoch trains
    # on a full window.
    while warm < plan.warmup_runs or (
        geo.db.access_count() < config.training_rows
    ):
        records = runner.run_many(1)[0].records
        geo.observe_records(records)
        geo.flush_telemetry(at=runner.clock.now)
        observed += len(records)
        warm += 1
    setup_s = time.perf_counter() - t0

    epochs: list[list] = []
    throughput: list[np.ndarray] = []
    ingest_s = 0.0
    run = 0
    cooldown = config.cooldown_runs
    engine = geo.engine
    while run < plan.runs:
        group = min(cooldown - run % cooldown, plan.runs - run)
        t1 = time.perf_counter()
        batch = runner.run_many(group)
        records = [record for result in batch for record in result.records]
        geo.observe_records(records)
        geo.flush_telemetry(at=runner.clock.now)
        ingest_s += time.perf_counter() - t1
        observed += len(records)
        throughput.append(
            np.fromiter(
                (r.throughput_gbps for r in records), float, len(records)
            )
        )
        now = runner.clock.now
        for index in range(run + 1, run + group + 1):
            before = engine.last_chosen_scores
            t2 = time.perf_counter()
            outcome = geo.after_run(index, now)
            seconds = time.perf_counter() - t2
            if outcome.trained:
                scores = engine.last_chosen_scores
                epochs.append(
                    classify_epoch(
                        seconds,
                        outcome.training.diverged,
                        scores if scores is not before else None,
                        bool(outcome.movements),
                    )
                )
        run += group
    wall_s = time.perf_counter() - t0

    if tracer is not None:
        tracer.paused = True
    problems: list[str] = []
    landed = geo.db.access_count()
    mirrored = runner.db.access_count()
    if landed != observed or mirrored != observed:
        problems.append(
            f"{observed} accesses simulated, {landed} in Geomancy's "
            f"ReplayDB, {mirrored} in the runner's"
        )
    fids = [spec.fid for spec in files]
    layout = cluster.layout()
    check_layout(cluster, fids, layout, problems)
    movements = geo.db.movements()
    check_replay(initial, movements, layout, problems)
    tp = np.concatenate(throughput)
    if not (np.all(np.isfinite(tp)) and np.all(tp > 0.0)):
        problems.append("non-finite or non-positive access throughput")
    digest = hashlib.sha256()
    digest.update(repr(sorted((fid, layout[fid]) for fid in fids)).encode())
    digest.update(repr(movement_history(movements)).encode())
    digest.update(tp.tobytes())
    static = static_twin(plan, sub_seed, warm)
    if tracer is not None:
        tracer.paused = False
    return {
        "sub_seed": sub_seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ingest_s": ingest_s,
        "measured_accesses": int(len(tp)),
        "throughput_sum": float(tp.sum()),
        "static_gbps": static,
        "epochs": epochs,
        "records_in": observed,
        "rows_landed": landed,
        "rows_end": landed,
        "cross_shard_moves": 0,
        "cross_shard_bytes": 0,
        "shards": 0,
        "problems": problems,
        "fingerprint": digest.hexdigest(),
    }


class _DiscardDB:
    """Telemetry sink for the static twin, which only needs throughput."""

    def insert_access(self, record) -> int:
        return 0

    def insert_accesses(self, records) -> int:
        return 0


def static_twin(plan: Plan, sub_seed: int, warm_runs: int) -> float:
    """Mean GB/s of the same inputs left on the initial even spread.

    The twin replays the episode's cluster, files and access stream --
    the same warm-up runs, then the same measured runs -- with no
    decisions, so ``layout_gain`` compares two layouts on identical
    inputs.
    """
    from repro.policies.static import EvenSpreadPolicy
    from repro.workloads.runner import WorkloadRunner

    cluster, files, workload = build_inputs(plan, sub_seed)
    runner = WorkloadRunner(cluster, workload, _DiscardDB())
    runner.ensure_files_placed(
        EvenSpreadPolicy().initial_layout(files, cluster.device_names)
    )
    runner.run_many(warm_runs)
    records = [r for run in runner.run_many(plan.runs) for r in run.records]
    return sum(r.throughput_gbps for r in records) / len(records)


# -- the sharded driver ------------------------------------------------------------
class ShardProbe:
    """Timing and output checks around ``run_scale_point``'s internals.

    ``run_scale_point`` keeps each shard's cluster, runner and ReplayDB
    inside the span, so the probe watches them from the calls it makes:
    the first ``run_many`` of a runner is its warm-up (and the moment to
    snapshot the initial layout), every ``update_layout`` that trained is
    a decision epoch, and each finished ``run_shard_span`` is checked.
    """

    def __init__(self, tracer: LayerTracer | None = None) -> None:
        #: paused while the probe's own checks query the shard's ReplayDB
        self.tracer = tracer
        self.epochs: list[list] = []
        self.measured_run_s = 0.0
        self.measured_accesses = 0
        self.problems: list[str] = []
        self.span_files: list[set[int]] = []
        self.histories: list = []
        self._span: dict | None = None
        self._patches = Patches()

    def install(self) -> "ShardProbe":
        import repro.experiments.scale as scale_mod
        from repro.policies.geomancy_policy import GeomancyDynamicPolicy
        from repro.workloads.runner import WorkloadRunner

        self._patches.patch(WorkloadRunner, "run_many", self._run_many)
        self._patches.patch(
            GeomancyDynamicPolicy, "update_layout", self._update_layout
        )
        self._patches.patch(scale_mod, "run_shard_span", self._shard_span)
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def _run_many(self, original):
        def run_many(runner, count):
            span = self._span
            first = span is not None and span.get("runner") is None
            if first:
                span["runner"] = runner
                span["initial"] = dict(runner.cluster.layout())
            t0 = time.perf_counter()
            results = original(runner, count)
            seconds = time.perf_counter() - t0
            if not first:
                self.measured_run_s += seconds
                self.measured_accesses += sum(
                    len(result.records) for result in results
                )
            return results

        return run_many

    def _update_layout(self, original):
        def update_layout(policy, *args, **kwargs):
            engine = policy.engine
            report, scores = engine.last_report, engine.last_chosen_scores
            t0 = time.perf_counter()
            layout = original(policy, *args, **kwargs)
            seconds = time.perf_counter() - t0
            if engine.last_report is not report:
                fresh = engine.last_chosen_scores
                self.epochs.append(
                    classify_epoch(
                        seconds,
                        engine.last_report.diverged,
                        fresh if fresh is not scores else None,
                        bool(layout),
                    )
                )
            return layout

        return update_layout

    def _shard_span(self, original):
        def run_shard_span(spec):
            self._span = {}
            result = original(spec)
            span, self._span = self._span, None
            if self.tracer is not None:
                self.tracer.paused = True
            try:
                self._check_span(spec, result, span["runner"], span["initial"])
            finally:
                if self.tracer is not None:
                    self.tracer.paused = False
            return result

        return run_shard_span

    def _check_span(self, spec, result, runner, initial: dict) -> None:
        cluster = runner.cluster
        if runner.db.access_count() != result.accesses:
            self.problems.append(
                f"shard {spec.shard}: {result.accesses} accesses, "
                f"{runner.db.access_count()} in the ReplayDB"
            )
        layout = cluster.layout()
        check_layout(cluster, list(layout), layout, self.problems)
        movements = runner.db.movements()
        check_replay(initial, movements, layout, self.problems)
        self.span_files.append(set(layout))
        self.histories.append(movement_history(movements))


def sharded_episode(plan: Plan, sub_seed: int, tracer=None) -> dict:
    from dataclasses import replace

    from repro.experiments.scale import ScalePoint, run_scale_point

    point = ScalePoint(seed=sub_seed, **plan.point)
    probe = ShardProbe(tracer).install()
    try:
        t0 = time.perf_counter()
        result = run_scale_point(point, workers=1)
        wall_s = time.perf_counter() - t0
    finally:
        probe.uninstall()
    if tracer is not None:
        tracer.paused = True
    # The static twin: the same point with no decision epoch.
    static = run_scale_point(
        replace(point, update_every=point.runs + 1), workers=1
    ).mean_throughput_gbps
    if tracer is not None:
        tracer.paused = False
    problems = probe.problems
    everything = set(range(point.files))
    for start in range(0, len(probe.span_files), point.shards):
        round_files = probe.span_files[start : start + point.shards]
        if sum(map(len, round_files)) != point.files or (
            set().union(*round_files) != everything
        ):
            problems.append(f"round {start // point.shards}: files not "
                            "partitioned across shards")
    if probe.measured_accesses != result.measured_accesses:
        problems.append("measured access count disagrees with the result")
    if not (math.isfinite(result.mean_throughput_gbps)
            and result.mean_throughput_gbps > 0.0):
        problems.append("non-finite or non-positive mean throughput")
    epoch_s = sum(epoch[0] for epoch in probe.epochs)
    digest = hashlib.sha256(result.fingerprint.encode())
    digest.update(repr(probe.histories).encode())
    digest.update(
        repr((result.cross_shard_moves, result.cross_shard_bytes)).encode()
    )
    return {
        "sub_seed": sub_seed,
        # everything that is neither a measured run nor a decision epoch:
        # shard cluster rebuilds, placement, agent wiring and warm-up
        "setup_s": wall_s - probe.measured_run_s - epoch_s,
        "wall_s": wall_s,
        "ingest_s": probe.measured_run_s,
        "measured_accesses": result.measured_accesses,
        "throughput_sum": (
            result.mean_throughput_gbps * result.measured_accesses
        ),
        "static_gbps": static,
        "epochs": probe.epochs,
        "records_in": result.accesses,
        "rows_landed": result.accesses,
        "rows_end": result.accesses,
        "cross_shard_moves": result.cross_shard_moves,
        "cross_shard_bytes": result.cross_shard_bytes,
        "shards": point.shards,
        "problems": problems,
        "fingerprint": digest.hexdigest(),
    }


def run_episode(plan: Plan, sub_seed: int, tracer=None) -> dict:
    gc.collect()
    drive = sharded_episode if plan.driver == "sharded" else facade_episode
    if tracer is not None:
        tracer.install()
    try:
        episode = drive(plan, sub_seed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return episode


# -- run-level metrics --------------------------------------------------------------
def epoch_latency(epochs: list[list], first_pass: list[list]) -> dict:
    """Median and tail wall time of the epochs that did not fail.

    Failed epochs are left out, so a fix that makes more epochs succeed
    does not read as a slowdown.  When most epochs failed (a workload
    whose epochs nearly all diverge, leaving too few successes for a
    steady median) the sample is every trained epoch instead, and
    ``basis`` says so.

    The tail is the highest whole percentile with at least ten epochs
    beyond it in the first pass over the run's sub-seeds, read from the
    whole sample, so the percentile does not drift with how many repeats
    fitted in the run.  Below twenty first-pass epochs that percentile
    would fall under the median, so the median stands in (``tail_pct``
    50).
    """
    basis = "succeeded"
    if 2 * sum(1 for epoch in epochs if not epoch[1]) < len(epochs):
        basis = "all"

    def keep(epoch: list) -> bool:
        return basis == "all" or not epoch[1]

    sample = sorted(epoch[0] for epoch in epochs if keep(epoch))
    planned = sum(1 for epoch in first_pass if keep(epoch))
    n = len(sample)
    p50 = statistics.median(sample)
    if planned >= 20:
        pct = math.floor(100 * (planned - 10) / planned)
        tail = sample[max(0, math.ceil(pct / 100 * n) - 1)]
    else:
        tail, pct = p50, 50
    return {"p50": p50, "tail": tail, "tail_pct": pct,
            "samples": n, "basis": basis}


def outcomes(episode: dict) -> list:
    """Each epoch's ``[failed, acted, negative]``, without its timing."""
    return [epoch[1:] for epoch in episode["epochs"]]


def layout_gbps(episode: dict) -> float:
    """Mean simulated GB/s over the episode's measured accesses."""
    return episode["throughput_sum"] / episode["measured_accesses"]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(first_pass: list[dict], everything: list[dict]) -> tuple:
    epochs = [epoch for ep in everything for epoch in ep["epochs"]]
    latency = epoch_latency(
        epochs, [epoch for ep in first_pass for epoch in ep["epochs"]]
    )
    metrics = {
        "setup_s": (statistics.median(ep["setup_s"] for ep in everything),
                    "s"),
        "layout_gain": (
            statistics.fmean(layout_gbps(ep) / ep["static_gbps"]
                             for ep in first_pass),
            "ratio",
        ),
        "epoch_p50_s": (latency["p50"], "s"),
        "epoch_tail_s": (latency["tail"], "s"),
        # the median episode, so one collector pause in a short ingest
        # phase does not move the run's figure
        "ingest_accesses_per_s": (
            statistics.median(ep["measured_accesses"] / ep["ingest_s"]
                              for ep in everything),
            "1/s",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, latency


def per_layer(tracer: LayerTracer, traced: list[dict], *,
              untraced_s: float, traced_s: float) -> dict:
    from repro.features.throughput import BYTES_PER_GB

    total, own, durations = tracer.totals()
    counts = tracer.counts
    epochs = [epoch for ep in traced for epoch in ep["epochs"]]
    latency = epoch_latency(epochs, epochs) if epochs else None
    acted = sum(epoch[2] for epoch in epochs)
    spans = durations.get("sharding.span", [])
    shards = max((ep["shards"] for ep in traced), default=0)
    round_max = [
        max(spans[i : i + shards]) for i in range(0, len(spans), shards)
    ] if shards else []
    metrics = {
        "simulation.layout_gbps": (
            statistics.fmean(layout_gbps(ep) for ep in traced), "GB/s"),
        "simulation.static_gbps": (
            statistics.fmean(ep["static_gbps"] for ep in traced), "GB/s"),
        "simulation.access_batch_s": (total["simulation.access_batch"], "s"),
        "simulation.accesses": (counts["simulation.accesses"], "count"),
        "simulation.files_moved": (counts["simulation.files_moved"], "count"),
        "simulation.moved_gb": (
            counts["simulation.moved_bytes"] / BYTES_PER_GB, "GB"),
        "workloads.run_many_self_s": (own["workloads.run_many"], "s"),
        "agents.observe_s": (total["agents.observe"], "s"),
        "agents.flush_s": (total["agents.flush"], "s"),
        "agents.records_in": (counts["agents.records_in"], "count"),
        "agents.rows_landed": (counts["agents.rows_landed"], "count"),
        "agents.records_lost": (
            sum(ep["records_in"] - ep["rows_landed"] for ep in traced),
            "count"),
        "replaydb.write_s": (total["replaydb.write"], "s"),
        "replaydb.write_rows": (counts["replaydb.write_rows"], "count"),
        "replaydb.read_s": (total["replaydb.read"], "s"),
        "replaydb.read_calls": (counts["replaydb.read_calls"], "count"),
        "replaydb.read_rows": (counts["replaydb.read_rows"], "count"),
        "replaydb.rows_end": (max(ep["rows_end"] for ep in traced), "count"),
        "features.train_set_s": (total["features.train_set"], "s"),
        "features.probe_build_s": (total["features.probe_build"], "s"),
        "features.probe_rows": (counts["features.probe_rows"], "count"),
        "nn.fit_s": (total["nn.fit"], "s"),
        "nn.fit_rows": (counts["nn.fit_rows"], "count"),
        "nn.predict_s": (total["nn.predict"], "s"),
        "nn.predict_rows": (counts["nn.predict_rows"], "count"),
        **{
            f"nn.dense{i}_forward_s": (total[f"nn.dense{i}_forward"], "s")
            for i in range(4)
        },
        "nn.nonfinite_outputs": (counts["nn.nonfinite_outputs"], "count"),
        "core.train_self_s": (own["core.train"], "s"),
        "core.ranking_check_s": (total["core.ranking_check"], "s"),
        "core.propose_self_s": (own["core.propose"], "s"),
        "core.action_check_s": (total["core.action_check"], "s"),
        "core.after_run_s": (total["core.after_run"], "s"),
        "core.after_run_self_s": (own["core.after_run"], "s"),
        "core.epochs": (len(epochs), "count"),
        "core.epochs_failed": (sum(e[1] for e in epochs), "count"),
        "core.epochs_skipped": (len(epochs) - acted, "count"),
        "core.epochs_acted": (acted, "count"),
        "core.acted_ratio": (acted / len(epochs) if epochs else 0.0, "ratio"),
        "core.epochs_negative_prediction": (sum(e[3] for e in epochs),
                                            "count"),
        "core.epoch_samples": (latency["samples"] if latency else 0, "count"),
        "core.epoch_tail_pct": (latency["tail_pct"] if latency else 0.0, "%"),
        "sharding.span_s_median": (
            statistics.median(spans) if spans else 0.0, "s"),
        "sharding.span_s_max": (
            statistics.median(round_max) if round_max else 0.0, "s"),
        "sharding.arbitrate_s": (total["sharding.arbitrate"], "s"),
        "sharding.verify_s": (total["sharding.verify"], "s"),
        "sharding.cross_shard_moves": (
            sum(ep["cross_shard_moves"] for ep in traced), "count"),
        "sharding.cross_shard_gb": (
            sum(ep["cross_shard_bytes"] for ep in traced) / BYTES_PER_GB,
            "GB"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "trace.traced_wall_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    return metrics


# -- entry point -------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    plan = PLANS[args.workload]
    sub_seeds = plan.sub_seeds(args.seed, traced=bool(args.trace))
    WORK.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    t_start = time.perf_counter()
    try:
        if args.trace:
            # Untraced/traced pairs per sub-seed, the traced side first on
            # even pairs: a cold process start then counts against
            # tracing, so the overhead is not understated.
            tracer = LayerTracer()
            first_pass, repeats = [], []
            for i, s in enumerate(sub_seeds):
                if i % 2 == 0:
                    repeats.append(run_episode(plan, s, tracer))
                    first_pass.append(run_episode(plan, s))
                else:
                    first_pass.append(run_episode(plan, s))
                    repeats.append(run_episode(plan, s, tracer))
        else:
            first_pass = [run_episode(plan, s) for s in sub_seeds]
            # Repeat episodes (at least one) until the time is used up;
            # each repeat must reproduce its first run exactly.
            repeats = []
            while not repeats or time.perf_counter() - t_start < args.seconds:
                seed = sub_seeds[len(repeats) % len(sub_seeds)]
                repeats.append(run_episode(plan, seed))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    everything = first_pass + repeats
    expected = {ep["sub_seed"]: ep for ep in first_pass}
    for ep in everything:
        problems.extend(f"sub-seed {ep['sub_seed']}: {p}"
                        for p in ep["problems"])
        first = expected[ep["sub_seed"]]
        if ep["fingerprint"] != first["fingerprint"]:
            problems.append(
                f"sub-seed {ep['sub_seed']}: a repeat changed the fingerprint"
            )
        if outcomes(ep) != outcomes(first):
            problems.append(
                f"sub-seed {ep['sub_seed']}: a repeat changed which epochs "
                "failed or acted"
            )
    # Operations are the first pass's epochs: how many repeats fit in
    # ``--seconds`` depends on the host's speed, the planned episodes do
    # not, so a seed always attempts (and fails) the same epochs.
    epochs = [epoch for ep in first_pass for epoch in ep["epochs"]]
    if args.trace:
        metrics = per_layer(
            tracer, repeats,
            untraced_s=sum(ep["wall_s"] for ep in first_pass),
            traced_s=sum(ep["wall_s"] for ep in repeats),
        )
        tracer.write(
            HERE / "out" / f"trace-{plan.name}-seed{args.seed}.json",
            {"workload": plan.name, "seed": args.seed,
             "sub_seeds": sub_seeds},
        )
        latency = None
    else:
        metrics, latency = end_to_end(first_pass, everything)
    fingerprint = hashlib.sha256(
        "".join(ep["fingerprint"] for ep in first_pass).encode()
    ).hexdigest()
    info = {
        "workload": plan.name,
        "seed": args.seed,
        "sub_seeds": sub_seeds,
        "episodes_run": len(everything),
        "epochs_timed": sum(len(ep["epochs"]) for ep in everything),
        "fingerprint": fingerprint,
        "epochs": len(epochs),
        "epochs_failed": sum(epoch[1] for epoch in epochs),
        "epoch_latency": latency,
        "problems": problems[:20],
    }
    result = {
        "correct": not problems,
        "attempted": len(epochs),
        "failed": sum(epoch[1] for epoch in epochs),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
