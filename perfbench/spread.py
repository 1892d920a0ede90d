"""Run one workload over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload paper-bluesky --seeds 0-9 [--record]

Each seed is one ``run.py`` invocation with the ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric it prints the median of
the runs and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  It also checks that every run
passed its output checks.  ``--record`` stores the summary, with the
host fingerprint and the decision-epoch failure share, under the
workload's name in ``perfbench/BASELINE.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        t0 = time.perf_counter()
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True)
        elapsed = time.perf_counter() - t0
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or len(lines) < 3:
            print(f"seed {seed}: exit {child.returncode}\n{child.stderr}",
                  file=sys.stderr)
            return 1
        host = json.loads(lines[0])["host"]
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "elapsed_s": elapsed, "info": info,
                     "result": result})
        values = {k: round(v["value"], 4)
                  for k, v in result["metrics"].items()}
        print(f"seed {seed} {elapsed:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {values}",
              flush=True)
    summary = {}
    for name, bound in bounds.items():
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": median,
            "spread": (q3 - q1) / median,
            "bound": bound,
            "unit": runs[0]["result"]["metrics"][name]["unit"],
        }
        print(f"{name:24s} median {median:12.5g}  spread "
              f"{summary[name]['spread']:.4f}  bound {bound}")
    attempted = sum(run["result"]["attempted"] for run in runs)
    failed = sum(run["result"]["failed"] for run in runs)
    correct = all(run["result"]["correct"] for run in runs)
    print(f"all correct: {correct}; failed epochs {failed}/{attempted}")
    if args.record:
        path = HERE / "BASELINE.json"
        baseline = json.loads(path.read_text()) if path.is_file() else {}
        baseline[args.workload] = {
            "host": host,
            "seeds": [run["seed"] for run in runs],
            "run_seconds": bench["run_seconds"],
            "all_correct": correct,
            "epochs_attempted": attempted,
            "epochs_failed": failed,
            "failed_share": failed / attempted if attempted else 0.0,
            "fingerprints": {run["seed"]: run["info"]["fingerprint"]
                             for run in runs},
            "metrics": summary,
        }
        path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
