"""Functions of the program that no run reaches.

Runs, in-process under the stdlib `trace` module (numpy, the standard
library and perfbench are not traced): the first K cycles of each named
benchmark workload, whose inputs `perfbench/workloads.generate` writes to a
temporary directory; then `compare`, `flex-demo` of each kind and `random`,
and `check` and `decompose --trace` on the file `random` wrote. Prints,
sorted and one a line, every function defined under src/conicrig that no
run entered, as module.qualname:

    python3 scripts/reach.py --workloads check-fleet decompose-plane --cycles 1

`--workloads` with no names runs the CLI commands alone. A function counts
as entered when any line of its body ran.
"""

from __future__ import annotations

import os

# one BLAS thread, as the benchmark runs, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import inspect  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import trace  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import conicrig.cli  # noqa: E402
import workloads  # noqa: E402

BENCHMARKED = ("check-fleet", "decompose-plane")


def defined_functions() -> list[tuple[str, str, set[int]]]:
    """(module.qualname, file, body lines) of every function in the package.

    A code object's lines include its `def` line, which runs in the
    enclosing scope; it is dropped unless the whole function sits on it.
    Class bodies, lambdas and comprehensions are left out.
    """
    found = []
    for path in sorted(Path(conicrig.__file__).parent.glob("*.py")):
        module = "conicrig" if path.stem == "__init__" else f"conicrig.{path.stem}"
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                stack.append(const)
                # a class body has no locals of its own; lambdas and
                # comprehensions are named <lambda>, <listcomp>, ...
                if not const.co_flags & inspect.CO_NEWLOCALS or const.co_name.startswith("<"):
                    continue
                lines = {line for *_, line in const.co_lines() if line is not None}
                body = (lines - {const.co_firstlineno}) or lines
                found.append((f"{module}.{const.co_qualname}", str(path), body))
    return found


def commands(names: list[str], seed: int, cycles: int, workdir: Path) -> list[list[str]]:
    """Argument lists of every run, workload operations first."""
    argvs = [
        op["args"]
        for name in names
        for cycle in workloads.generate(name, seed, workdir / name)[:cycles]
        for op in cycle
    ]
    framework = str(workdir / "random.json")
    return argvs + [
        ["compare", "10"],
        ["flex-demo", "hyperbola"],
        ["flex-demo", "ellipse"],
        ["flex-demo", "intersection"],
        ["random", "6", "14", "--out", framework],
        ["check", framework],
        ["decompose", framework, "--trace", str(workdir / "trace.json")],
    ]


def unreached(names: list[str], seed: int, cycles: int, workdir: Path) -> list[str]:
    tracer = trace.Trace(
        count=1, trace=0,
        ignoredirs=[sys.prefix, sys.exec_prefix, str(ROOT / "perfbench")],
    )
    log = workloads.FlagLog()
    # before the first call, so the CLI adds no stderr handler of its own
    logging.getLogger().addHandler(log)
    try:
        for argv in commands(names, seed, cycles, workdir):
            # run_op keeps the output and any exception of the operation
            tracer.runfunc(workloads.run_op, conicrig.cli.main, {"args": argv}, log)
    finally:
        logging.getLogger().removeHandler(log)
    ran = {key for key, count in tracer.results().counts.items() if count}
    return sorted(
        name for name, path, body in defined_functions()
        if not any((path, line) in ran for line in body)
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*", default=list(BENCHMARKED),
                   choices=sorted(workloads.WORKLOADS),
                   help="workloads to run (default: %(default)s)")
    p.add_argument("--cycles", type=int, default=1, help="first K cycles (default 1)")
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = p.parse_args(argv)
    if args.cycles < 1:
        p.error("--cycles must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        names = unreached(args.workloads, args.seed, args.cycles, Path(tmp))
    print("\n".join(names))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
