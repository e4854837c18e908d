"""conicrig benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload check-fleet --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` tree. The inputs are generated from the seed into `.perfbench_work/`,
every operation's output is checked against the verdict the generator
derived, and the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
`attempted` and `failed` count distinct inputs, not calls: every generated
input runs at least once, a run that has time left repeats them for timing,
and an input that failed in any of its calls counts as failed once. So for one
seed and one program they are the same on every run, however fast the machine.
"""

import os
import sys

# One BLAS thread, set before numpy loads, here and in the set-up probes: the
# benchmark stays single-threaded, so its timings do not depend on core count.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import scoring  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 12  # fewest probes a run makes; a longer run probes twice per cycle


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup_probes(workdir: Path, count: int) -> list[tuple[float, float]]:
    """Fresh interpreters that import conicrig and read the inputs.

    Returns (seconds, scale) per probe, the scale from the machine-speed
    reference timed just before it (the "python" task of calibrate.py).
    """
    probes = []
    for _ in range(count):
        ref = statistics.median(calibrate.reference_seconds() for _ in range(3))
        t = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        probes.append((time.perf_counter() - t, calibrate.REFERENCE_S / ref))
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return probes


def import_program():
    """The checkout's own conicrig, never an installed copy."""
    src = ROOT / "src"
    if not (src / "conicrig" / "__init__.py").is_file():
        raise RuntimeError(f"no conicrig sources under {src}")
    sys.path.insert(0, str(src))
    import conicrig
    import conicrig.cli

    if Path(conicrig.__file__).resolve().parent != (src / "conicrig").resolve():
        raise RuntimeError(f"imported conicrig from {conicrig.__file__}, not {src}")
    return conicrig.cli.main


def measure(cycles, seconds, main, log, workdir, tracer=None, refs=None, reference="python",
            between=None):
    """Run every cycle once, then whole cycles again from the first until
    their wall time adds up to `seconds`.

    With `refs`, the machine-speed reference task of kind `reference` is
    timed after every operation into refs[cycle]; `between()` is called
    after each cycle; both stay outside the measured time. Returns (results, cycle walls), with one
    (op, seconds, outcome, cycle) per operation.
    """
    results, walls = [], []
    while len(walls) < len(cycles) or sum(walls) < seconds:
        c = len(walls)
        began = time.perf_counter()
        paused = 0.0
        if refs is not None:
            refs.append([])
        for op in cycles[c % len(cycles)]:
            if tracer is not None:
                tracer.begin_op(len(results))
            t = time.perf_counter()
            stdout, code, err = workloads.run_op(main, op, log)
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.end_op()
            outcome = workloads.judge(op, stdout, code, err, log.messages, workdir)
            results.append((op, dt, outcome, c))
            if refs is not None:
                t = time.perf_counter()
                refs[c].append(calibrate.reference_seconds(reference))
                paused += time.perf_counter() - t
        walls.append(time.perf_counter() - began - paused)
        if between is not None:
            between()
    return results, walls


def by_input(results) -> list[tuple[dict, bool, bool]]:
    """(op, failed, flagged) per distinct input, in the order first run; an
    input counts as failed (flagged) when any of its calls failed (was flagged)."""
    seen = {}
    for op, _, o, _ in results:
        _, failed, flagged = seen.get(op["file"], (op, False, False))
        seen[op["file"]] = (op, failed or o.status == "failed", flagged or o.flagged)
    return list(seen.values())


def end_to_end(results, walls, setup, refs):
    """End-to-end metrics of an untraced run.

    Every time is scaled by the median machine-speed reference timed through
    its cycle (see calibrate.py). The percentiles are taken over all of the
    run's operations at once, failures ranked +inf; when one lands on a
    failure it is unmet, and the run reports its whole scaled wall time in its
    place. `ok_frac` and `unflagged_frac` are shares of distinct inputs (see
    by_input), like `attempted` and `failed`. `setup` holds (seconds, scale)
    per set-up probe.
    """
    scale = [calibrate.REFERENCE_S / statistics.median(r) for r in refs]
    times = [dt * scale[c] for _, dt, _, c in results]
    failed = [o.status == "failed" for _, _, o, _ in results]
    wall = sum(w * k for w, k in zip(walls, scale))
    metrics = {"setup_s": (statistics.median(t * k for t, k in setup), "s")}
    for name, q in (("op_p50_s", 50), ("op_p90_s", 90)):
        value = scoring.failure_aware_percentile(times, failed, q)
        if value is None:
            print(f"{name} unmet: it lands on a failed operation", file=sys.stderr)
            value = wall
        metrics[name] = (value, "s")
    correct = sum(o.correct for _, _, o, _ in results)
    metrics["verdicts_per_s"] = (scoring.verdicts_per_s(correct, wall), "1/s")
    inputs = by_input(results)
    metrics["ok_frac"] = (1 - sum(bad for _, bad, _ in inputs) / len(inputs), "ratio")
    checks = [flag for op, _, flag in inputs if op["command"] == "check"]
    flagged = sum(checks)
    metrics["unflagged_frac"] = (1 - flagged / len(checks) if checks else 1.0, "ratio")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli_main = import_program()
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    cycles = workloads.generate(args.workload, args.seed, workdir)

    log = workloads.FlagLog()
    logging.getLogger().addHandler(log)  # also stops the CLI adding a stderr handler

    refs = []
    if args.trace:
        tracer = Tracer()
        try:
            tracer.install()
            # half the cycles for half the time, so the untraced replay fits too
            results, walls = measure(cycles[:max(1, len(cycles) // 2)], args.seconds / 2,
                                     cli_main, log, workdir, tracer)
        finally:
            tracer.uninstall()
        replay = [[op for op, _, _, _ in results]]
        plain, _ = measure(replay, 0, cli_main, log, workdir)
        overhead = sum(r[1] for r in results) / sum(r[1] for r in plain)
        metrics = tracer.metrics(overhead)
        tracer.write(workdir / "spans.jsonl")
    else:
        # set-up probes after each cycle, so their median spans the whole run
        setup = []
        results, walls = measure(cycles, args.seconds, cli_main, log, workdir, refs=refs,
                                 reference=workloads.REFERENCE[args.workload],
                                 between=lambda: setup.extend(setup_probes(workdir, 2)))
        setup += setup_probes(workdir, max(0, SETUP_PROBES - len(setup)))
        metrics = end_to_end(results, walls, setup, refs)

    record = [
        {"file": op["file"], "family": op["family"], "n": op["n"], "d": op["d"],
         "expect": op["expect"], "cycle": c, "seconds": dt, "status": o.status, "reason": o.reason}
        for op, dt, o, c in results
    ]
    (workdir / "record.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "blas_threads": THREADS,
         "cycle_walls": walls, "reference": workloads.REFERENCE[args.workload],
         "reference_s": refs, "operations": record}, indent=1))
    inputs = by_input(results)
    failed = sum(bad for _, bad, _ in inputs)
    print(f"workload {args.workload} seed {args.seed}: {len(results)} operations on "
          f"{len(inputs)} inputs in {len(walls)} cycles, {failed} inputs failed, "
          f"{sum(walls):.2f} s, BLAS threads {THREADS}")
    reasons = {op["file"]: o.reason for op, _, o, _ in results if o.status == "failed"}
    for op, bad, _ in inputs:
        if bad:
            print(f"  failed {op['family']} n={op['n']} ({op['file']}): {reasons[op['file']]}")
    print(json.dumps({"correct": all(o.checked for _, _, o, _ in results),
                      "attempted": len(inputs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
