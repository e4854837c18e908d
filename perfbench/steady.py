"""Steadiness check: run one workload with several seeds and report, for each
end-to-end metric, the median, the quartiles and their distance as a share of
the median (the spread), next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload decompose-plane --runs 10

Each run measures for BENCHMARK.json's run_seconds. Runs are made one after
another, never in parallel, so they do not disturb each other's timings. A
spread at or above a third of the bound is marked.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import scoring

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {done.returncode}: {done.stderr[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="repeat a workload and report metric spreads")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("need at least two runs for quartiles")

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed)
        runs.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", flush=True)

    print(f"all runs: attempted {sum(r['attempted'] for r in runs)} "
          f"failed {sum(r['failed'] for r in runs)}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        s = scoring.spread([r["metrics"][name]["value"] for r in runs])
        mark = "  <-- at least a third of the bound" if s["spread"] >= bound / 3 else ""
        print(f"{name:32} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.4f} {bound:>6}{mark}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
