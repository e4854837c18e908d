"""Workloads: what each one generates, how an operation runs, how it is checked.

A workload is a list of families. One cycle runs every family once at each of
its sizes, so a run made of whole cycles always has the same mix. Inputs come
from the workload seed, the cycle and the position in the cycle alone.

The sizes are chosen so each time percentile falls inside a plateau: many
operations of one family at one size whose cost hardly depends on the seed.
Between two sizes, or inside a family whose cost swings with the input (a
designed graph needs anywhere from zero to several exchange rounds), a
percentile jumps from seed to seed. The percentiles are taken over the whole
run with failures ranked last, so the plateau of op_p90_s must sit below the
failures and the few heavier operations, and the plateau of op_p50_s needs
as many operations below it as above it. In check-fleet 7 of the 41
operations per cycle are thinned-d2 at n = 300 (always flexible, always one
flex SVD), where op_p90_s lands, and op_p50_s lands on 5 thinned-d3 at
n = 100, with 18 operations on either side. Line inputs, which are never
flagged ill-conditioned, come in equal numbers below and above that plateau
(n = 100 and 200), so that the share of flagged verdicts, which is random at
small n, varies less from seed to seed. In decompose-plane
three quarters of the operations are designed and surplus graphs: op_p50_s
lands on the surplus graphs at n = 14 (trimmed to a core, then split by
pebble games and circuit exchanges), and op_p90_s on the two-block graphs
at n = 24 (trimmed arc by arc by conic rank, then refused), which never
crash; only the designed graph at n = 20 and the failures rank above it.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs as gen


@dataclass(frozen=True)
class Family:
    name: str
    command: str  # check, decompose or design
    d: int
    sizes: tuple[int, ...]
    make: Callable  # (n, d, rng) -> (input dict or design args, expected verdict)


def _rigid_placed(n, d, rng):
    return gen.placed(*gen.henneberg_tree(n, d, rng), n, d, rng), "rigid"


def _thinned_placed(n, d, rng):
    data = gen.placed(*gen.henneberg_tree(n, d, rng), n, d, rng)
    data["arcs"].pop(int(rng.integers(len(data["arcs"]))))
    return data, "flexible"


def _line(n, d, rng):
    # both shadows are connected about half the time at this arc count
    m = round(n * (math.log(n) + 1.06))
    arcs = gen.line_arcs(n, m, rng)
    positions, biases = rng.random((n, 1)), rng.random(n) - 0.5
    verdict = "rigid" if gen.line_rigid(positions, arcs) else "flexible"
    return gen.framework_dict(positions, biases, arcs), verdict


def _designed(n, d, rng):
    return gen.graph_dict(n, d, *gen.design_style(n, d, rng)), "rigid"


def _surplus(n, d, rng):
    simple, double = gen.with_surplus(*gen.design_style(n, d, rng), n, n // 2, rng)
    return gen.graph_dict(n, d, simple, double), "rigid"


def _thinned(n, d, rng):
    return gen.graph_dict(n, d, *gen.thinned(*gen.design_style(n, d, rng), rng)), "flexible"


def _blocks(n, d, rng):
    simple, double, _ = gen.two_blocks(n, d, rng)
    return gen.graph_dict(n, d, simple, double), "flexible"


def _design_args(n, d, rng):
    return {"n": n, "d": d, "seed": int(rng.integers(2**31))}, "rigid"


WORKLOADS: dict[str, tuple[Family, ...]] = {
    "check-fleet": (
        Family("rigid-d2", "check", 2, (20, 50, 100, 200, 200), _rigid_placed),
        Family("thinned-d2", "check", 2, (20, 50, 100, 200) + (300,) * 7, _thinned_placed),
        Family("rigid-d3", "check", 3, (20, 50, 100, 175, 175), _rigid_placed),
        Family("thinned-d3", "check", 3, (20, 50) + (100,) * 5 + (175,), _thinned_placed),
        Family("line", "check", 1, (20, 50) + (100,) * 5 + (200,) * 5, _line),
    ),
    "decompose-plane": (
        Family("designed", "decompose", 2, (10,) * 5 + (12,) * 5 + (14,) * 6 + (20,), _designed),
        Family("surplus", "decompose", 2, (10,) * 3 + (12,) * 3 + (14,) * 14 + (16,), _surplus),
        Family("thinned", "decompose", 2, (8, 12, 16, 24), _thinned),
        Family("blocks", "decompose", 2, (20,) * 3 + (24,) * 6, _blocks),
    ),
    "decompose-space": (
        Family("designed", "decompose", 3, (8,) + (10,) * 5 + (13,) * 5, _designed),
        Family("surplus", "decompose", 3, (9, 12), _surplus),
        Family("thinned", "decompose", 3, (8, 11, 14, 17), _thinned),
        Family("blocks", "decompose", 3, (8, 12, 16), _blocks),
    ),
    "design-fleet": (
        Family("design-d2", "design", 2, (100, 200, 300, 400), _design_args),
        Family("design-d3", "design", 3, (20, 30, 40, 50), _design_args),
    ),
}

# cycles generated per run. A run makes every one of them, so that the inputs
# it checks depend on the seed alone; each count is what the seed code gets
# through in about 40 s. A faster program wraps around and reruns them.
CYCLES = {"check-fleet": 4, "decompose-plane": 8, "decompose-space": 5, "design-fleet": 6}

# machine-speed reference task per workload (see calibrate.py)
REFERENCE = {"check-fleet": "dense", "decompose-plane": "python", "decompose-space": "python",
             "design-fleet": "python"}


def generate(workload: str, seed: int, workdir: Path) -> list[list[dict]]:
    """Write every input of the workload; return the operations by cycle."""
    families = WORKLOADS[workload]
    workdir.mkdir(parents=True, exist_ok=True)
    cycles = []
    for c in range(CYCLES[workload]):
        ops = []
        for f, fam in enumerate(families):
            for k, n in enumerate(fam.sizes):
                rng = np.random.default_rng([seed, c, f, k])
                data, expect = fam.make(n, fam.d, rng)
                op = {"family": fam.name, "command": fam.command, "n": n, "d": fam.d,
                      "expect": expect}
                name = f"c{c}-{fam.name}-{k}-n{n}.json"
                if fam.command == "design":
                    op["args"] = ["design", str(n), "--d", str(fam.d), "--seed", str(data["seed"]),
                                  "--out", str(workdir / name)]
                else:
                    (workdir / name).write_text(json.dumps(data))
                    op["args"] = [fam.command, str(workdir / name)]
                op["file"] = name
                ops.append(op)
        # spread each plateau over the whole cycle, so a burst of machine
        # load slows a few of its operations rather than all of them
        order = np.random.default_rng([seed, c]).permutation(len(ops))
        cycles.append([ops[i] for i in order])
    (workdir / "manifest.json").write_text(json.dumps(cycles))
    return cycles


# -- running one operation ---------------------------------------------------


class FlagLog(logging.Handler):
    """Collects the program's log messages during one operation."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@dataclass
class Outcome:
    status: str  # "ok", "flagged" (flagged and checked) or "failed"
    flagged: bool
    correct: bool  # the verdict and its certificate were right
    reason: str = ""
    checked: bool = True  # False when the output could not be read at all


def run_op(main, op: dict, log: FlagLog) -> tuple[str, int, str]:
    """Call the subcommand in-process; return (stdout, exit code, error)."""
    log.messages.clear()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op["args"])
    except Exception as exc:  # the operation failed; the run goes on
        return out.getvalue(), -1, f"{type(exc).__name__}: {exc}"
    return out.getvalue(), code, err.getvalue().strip()


def _verdict(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("verdict: "):
            return line[len("verdict: "):].strip()
    return ""


def _edges(line: str) -> set[tuple[int, int]]:
    body = line.split(":", 1)[1].strip()
    if body == "(none)":
        return set()
    return {tuple(sorted(int(v) for v in e.split("-"))) for e in body.split(", ")}


def _check_certificate(stdout: str, data: dict) -> str:
    """Empty when the printed G and H form a valid split of the input."""
    n, d = data["n"], data["dimension"]
    g = h = None
    for line in stdout.splitlines():
        if line.startswith("spatial part G"):
            g = _edges(line)
        elif line.startswith("bias part H"):
            h = _edges(line)
    if g is None or h is None:
        return "no certificate printed"
    simple = {tuple(e) for e in data["simple_edges"]}
    double = {tuple(e) for e in data["double_edges"]}
    if g ^ h != simple or g & h != double:
        return "G and H do not reassemble the input"
    if not gen.connected(n, h):
        return "H does not connect"
    rows = gen.euclidean_rows(sorted(g), np.random.default_rng(len(g)).random((n, d)))
    if np.linalg.matrix_rank(rows) != gen.s_euclidean(n, d):
        return "G is not rigid"
    return ""


def _check_design(path: Path, n: int, d: int) -> str:
    data = json.loads(path.read_text())
    simple = [tuple(e) for e in data["simple_edges"]]
    double = [tuple(e) for e in data["double_edges"]]
    pairs = [tuple(sorted(int(v) for v in e)) for e in simple + double]
    if len(set(pairs)) != len(pairs):
        return "repeated pair"
    if gen.arc_count(simple, double) != gen.s_conic(n, d):
        return "arc count differs from s_conic"
    if not gen.connected(n, pairs):
        return "not connected"
    return ""


def judge(op: dict, stdout: str, code: int, err: str, flags: list[str], workdir: Path) -> Outcome:
    """Check one operation's output against its expected verdict.

    It fails when it raised, exited with 2, or gave a wrong verdict without
    flagging it ill-conditioned. A flagged wrong verdict is not a failure,
    but it is not a correct verdict either.
    """
    flagged = any("ill-conditioned" in m for m in flags)
    if code not in (0, 1):
        return Outcome("failed", flagged, False, f"exit {code}: {err[-300:]}")
    if op["command"] == "design":
        problem = _check_design(workdir / op["file"], op["n"], op["d"])
        return Outcome("failed" if problem else "ok", False, not problem, problem)
    said = _verdict(stdout)
    rigid = said == "rigid"
    if said not in ("rigid", "flexible", "not rigid") or rigid != (code == 0):
        return Outcome("failed", flagged, False, f"verdict line {said!r} with exit {code}", False)
    if rigid != (op["expect"] == "rigid"):
        if flagged:
            return Outcome("flagged", True, False, f"flagged wrong verdict {said}")
        return Outcome("failed", False, False, f"wrong verdict {said}")
    if op["command"] == "decompose" and rigid:
        problem = _check_certificate(stdout, json.loads((workdir / op["file"]).read_text()))
        if problem:
            return Outcome("failed", flagged, False, problem)
    return Outcome("flagged" if flagged else "ok", flagged, True)
