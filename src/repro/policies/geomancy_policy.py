"""Policy adapters exposing Geomancy through the PlacementPolicy interface.

``GeomancyStaticPolicy`` is the paper's *Geomancy static* baseline: "uses
one prediction of Geomancy when trained with a database of past performance
metrics.  This prediction assigns files to their storage points, and never
moves them again."

``GeomancyDynamicPolicy`` is the full system driven through the policy
interface (the experiment harness can also drive the
:class:`~repro.core.geomancy.Geomancy` facade directly for agent-level
fidelity; this adapter exists so Geomancy slots into the same comparison
loop as every baseline).
"""

from __future__ import annotations

from repro.core.action_checker import ActionChecker
from repro.core.config import GeomancyConfig
from repro.core.engine import DRLEngine
from repro.core.layout import as_layout, cap_moves, layout_diff
from repro.core.scheduler import AccessGapScheduler
from repro.errors import PolicyError
from repro.policies.base import PlacementPolicy, spread_in_groups
from repro.replaydb.db import ReplayDB
from repro.workloads.files import FileSpec


class GeomancyStaticPolicy(PlacementPolicy):
    """One-shot engine prediction, then frozen."""

    name = "Geomancy static"
    dynamic = False

    def __init__(
        self,
        warmup_db: ReplayDB,
        device_by_fsid: dict[int, str],
        config: GeomancyConfig | None = None,
    ) -> None:
        if not device_by_fsid:
            raise PolicyError("device_by_fsid must not be empty")
        self.engine = DRLEngine(config)
        self.warmup_db = warmup_db
        self.device_by_fsid = dict(device_by_fsid)

    def initial_layout(
        self, files: list[FileSpec], devices: list[str]
    ) -> dict[int, str]:
        self._require(files, devices)
        self.engine.train(self.warmup_db)
        layout, _ = self.engine.propose_layout(
            self.warmup_db, [f.fid for f in files], self.device_by_fsid
        )
        # Files the warm-up never touched fall back to an even spread.
        missing = [f.fid for f in files if f.fid not in layout]
        if missing:
            fallback = spread_in_groups(sorted(missing), list(devices))
            layout.update(fallback)
        return layout


class GeomancyDynamicPolicy(PlacementPolicy):
    """Retrains and relayouts every time the harness consults it.

    Applies the full decision path: engine proposal, Action Checker
    validity filter + 10% exploration, and the 1-14-file move cap.
    """

    name = "Geomancy dynamic"
    dynamic = True

    def __init__(
        self,
        device_by_fsid: dict[int, str],
        config: GeomancyConfig | None = None,
    ) -> None:
        if not device_by_fsid:
            raise PolicyError("device_by_fsid must not be empty")
        self.config = config if config is not None else GeomancyConfig()
        self.engine = DRLEngine(self.config)
        self.device_by_fsid = dict(device_by_fsid)
        self.checker = ActionChecker(
            self.config.exploration_rate, seed=self.config.seed
        )
        self.gap_scheduler = (
            AccessGapScheduler() if self.config.use_gap_scheduler else None
        )
        #: assumed migration bandwidth for gap estimation (10 GbE); the
        #: policy interface has no cluster handle to measure the real link
        self.assumed_link_bytes_per_s = 1.25e9

    def initial_layout(
        self, files: list[FileSpec], devices: list[str]
    ) -> dict[int, str]:
        self._require(files, devices)
        return spread_in_groups(sorted(f.fid for f in files), list(devices))

    def update_layout(
        self,
        db: ReplayDB,
        files: list[FileSpec],
        devices: list[str],
        current: dict[int, str] | None = None,
    ) -> dict[int, str] | None:
        self._require(files, devices)
        decision = self.engine.decide(
            db, [f.fid for f in files], self.device_by_fsid
        )
        proposal = decision.proposal
        if proposal is None:
            return None
        if current is None:
            return proposal or None
        checked = self.checker.check(proposal, set(devices), dict(current))
        changes = layout_diff(dict(current), checked)
        changes = cap_moves(
            changes, self.config.max_files_per_move, decision.gains
        )
        if self.gap_scheduler is not None:
            # Section X extension: only move files whose observed access
            # gaps accommodate the (estimated) transfer time.
            sizes = {f.fid: f.size_bytes for f in files}
            changes = [
                change for change in changes
                if self.gap_scheduler.can_move(
                    db,
                    change.fid,
                    sizes.get(change.fid, 0) / self.assumed_link_bytes_per_s,
                )
            ]
        return as_layout(changes) or None
