"""The repository benchmark: one command for every workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-bluesky --seed 0 --seconds 20 --trace 0

Runs the workload's episodes (see ``perfbench/plans.py``) in a fresh child
process, so the reported peak RSS is the workload's own and not this
process's high-water mark.  Prints a line describing the host and the
workload, then one JSON line::

    {"correct": ..., "attempted": <decision epochs>, "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
reruns the episodes with every layer's public methods wrapped and reports
the per-layer metrics, writing the spans to ``perfbench/out/``.
Exits non-zero without a result when the program under ``src/`` is
missing or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: a run must finish well inside the harness's per-run limit
CHILD_TIMEOUT_S = 170.0


def host_fingerprint() -> dict:
    """Cores, BLAS, numpy and source revision of the measured program."""
    info = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    try:
        import numpy as np

        info["numpy"] = np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the fingerprint must not stop a run
        info["blas"] = f"unknown ({type(exc).__name__})"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            ref = target.read_text().strip() if target.is_file() else ref
        info["git_sha"] = ref
    else:
        info["git_sha"] = None
    return info


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from plans import HELD_OUT_SEED, PLANS

    parser = argparse.ArgumentParser(description="Geomancy repo benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "geomancy.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    plan = PLANS[args.workload]
    print(json.dumps({
        "host": host_fingerprint(),
        "workload": plan.describe(),
        "held_out_seed": HELD_OUT_SEED,
    }))
    sys.stdout.flush()
    env = dict(os.environ)
    tmp = HERE / "out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    command = [
        sys.executable, str(HERE / "episode.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # A terminated benchmark stops its child too (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or len(lines) < 2:
        print(f"perfbench: {args.workload} child exited "
              f"{child.returncode}", file=sys.stderr)
        return child.returncode or 4
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
