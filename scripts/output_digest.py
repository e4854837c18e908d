"""Digest of everything the program prints on one benchmark workload.

Generates the inputs of a perfbench workload and seed into a temporary
directory (or --workdir), runs each operation of the first K cycles through
this checkout's `conicrig.cli.main` in-process, and prints one line per
operation: the input file, the exit code, and a hash of its stdout, stderr
and logged warnings, plus the written file for `design`. Paths under the
work directory are hashed as "<workdir>", so runs in different directories
compare. Two checkouts give the same lines exactly when they print the same
output on that workload:

    python3 scripts/output_digest.py --workload decompose-plane --seed 77 --cycles 2

Inputs come from `perfbench/workloads.generate`, which is imported, not edited.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import conicrig.cli  # noqa: E402
import workloads  # noqa: E402


def digest(workload: str, seed: int, cycles: int | None, workdir: Path) -> list[str]:
    ops = [op for cycle in workloads.generate(workload, seed, workdir)[:cycles] for op in cycle]
    log = workloads.FlagLog()
    # before the first call, so the CLI adds no stderr handler of its own
    logging.getLogger().addHandler(log)
    try:
        lines = []
        for op in ops:
            stdout, code, err = workloads.run_op(conicrig.cli.main, op, log)
            parts = [stdout, err, log.messages]
            if op["command"] == "design":
                parts.append((workdir / op["file"]).read_text())
            text = json.dumps(parts).replace(json.dumps(str(workdir))[1:-1], "<workdir>")
            lines.append(f"{op['file']} {code} {hashlib.sha256(text.encode()).hexdigest()[:16]}")
        return lines
    finally:
        logging.getLogger().removeHandler(log)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cycles", type=int, default=None, help="first K cycles (default all)")
    p.add_argument("--workdir", type=Path, default=None,
                   help="where the inputs are written (default a temporary directory)")
    args = p.parse_args(argv)
    if args.cycles is not None and args.cycles < 1:
        p.error("--cycles must be positive")
    if args.workdir is not None:
        workdir = args.workdir.resolve()
        if workdir == ROOT or ROOT in workdir.parents:
            p.error("--workdir must lie outside the checkout")
        lines = digest(args.workload, args.seed, args.cycles, workdir)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = digest(args.workload, args.seed, args.cycles, Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
