"""Command line front end.

Subcommands:
    check       rigidity of a framework file at its own configuration
    decompose   constructive rigidity of a conic graph (d >= 2)
    design      generate a minimally rigid conic graph
    compare     one-way vs two-way arc counts
    flex-demo   sample the reference flex curves / second placement
    random      emit a random framework file

Numeric flags go only where they are read: check takes --tol (relative
SVD cutoff); decompose and design take --tol, --seeds (random
configurations per generic rank query) and --seed (their base seed);
random takes --seed; compare and flex-demo take none.

Exit status: 0 rigid, 1 flexible or not rigid, 2 error. Diagnostics go
to stderr; CONIC_RIGIDITY_LOG=error|warn|info|debug sets the level.

Framework files are JSON:
    {"dimension": 2,
     "vertices": [{"id": "a", "position": [0.0, 1.5], "bias": 0.2}, ...],
     "arcs": [["a", "b"], ...]}
Conic graph files replace vertices/arcs with
    "vertices": ["a", "b", ...]  (or "n": 5 for unnamed vertices)
    "simple_edges": [["a", "b"], ...], "double_edges": [["a", "c"], ...]
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .decompose import decompose
from .flexcurves import (
    build_flex_curve,
    locate_second_intersection,
    make_ellipse_framework,
    make_hyperbola_framework,
    make_pinned_framework,
    sample_flex,
)
from .frameworks import (
    Configuration,
    ConicFramework,
    arc_pseudo_ranges,
    conic_class,
    orient,
    union,
)
from .graphs import ConicGraph, DirectedGraph, EuclideanGraph
from .matroid import RigidityOracle, extend_to_minimally_rigid
from .onedim import flex_witness_1d, is_rigid_1d
from .rigidity import (
    TolerancePolicy,
    conic_rigidity_matrix,
    is_infinitesimally_rigid,
    nontrivial_flex,
    numeric_rank,
    s_conic,
    s_euclidean,
)

log = logging.getLogger("conicrig.cli")

_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

VertexId = Union[str, int]


def _configure_logging() -> None:
    name = os.environ.get("CONIC_RIGIDITY_LOG", "warn").strip().lower()
    level = _LEVELS.get(name)
    if level is None:
        raise ValueError(
            f"CONIC_RIGIDITY_LOG must be one of {sorted(_LEVELS)}, got {name!r}"
        )
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


# -- file formats -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FrameworkFile:
    """Framework plus the vertex ids of its source file."""

    ids: tuple[VertexId, ...]
    framework: ConicFramework


@dataclass(frozen=True, eq=False)
class ConicGraphFile:
    ids: tuple[VertexId, ...]
    graph: ConicGraph
    dimension: int


def _index_ids(raw_ids: Sequence[VertexId]) -> dict[VertexId, int]:
    index: dict[VertexId, int] = {}
    for vid in raw_ids:
        if type(vid) not in (str, int):
            raise ValueError(f"vertex id {vid!r} must be a string or integer")
        if vid in index:
            raise ValueError(f"duplicate vertex id {vid!r}")
        index[vid] = len(index)
    return index


def _positive_int(data: dict, key: str) -> int:
    if type(data.get(key)) is not int or data[key] < 1:
        raise ValueError(f"{key} must be a positive integer")
    return data[key]


def _number(value, what: str) -> float:
    # type(), not isinstance: bool is an int. Two `is` tests run per
    # coordinate at half the cost of `in (int, float)`, which builds a tuple
    if type(value) is not float and type(value) is not int:
        raise ValueError(f"{what} {value!r} is not a number")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{what} {value!r} is not finite")
    return x


def _lookup_pairs(data: dict, key: str, index: dict[VertexId, int]) -> list[tuple[int, int]]:
    pairs = data.get(key, [])
    if not isinstance(pairs, list):
        raise ValueError(f"{key} must be a list of vertex pairs")
    what = key[:-1].replace("_", " ")  # "simple_edges" -> "simple edge"
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"{what} {pair!r} must name two vertices")
        unknown = [v for v in pair if type(v) not in (str, int) or v not in index]
        if unknown:
            raise ValueError(f"{what} {pair!r} names unknown vertex {unknown[0]!r}")
    return [(index[u], index[w]) for u, w in pairs]


def parse_framework_file(data: dict) -> FrameworkFile:
    d = _positive_int(data, "dimension")
    verts = data.get("vertices")
    if not isinstance(verts, list) or not verts:
        raise ValueError("vertices must be a non-empty list")
    ids, positions, biases = [], [], []
    for v in verts:
        if not isinstance(v, dict) or "id" not in v or "position" not in v:
            raise ValueError(f"vertex entry {v!r} needs id and position")
        ids.append(v["id"])
        pos = v["position"]
        if not isinstance(pos, list) or len(pos) != d:
            raise ValueError(f"vertex {v['id']!r} position must have {d} coordinates")
        positions.append([_number(c, f"vertex {v['id']!r} coordinate") for c in pos])
        biases.append(_number(v.get("bias", 0.0), f"vertex {v['id']!r} bias"))
    index = _index_ids(ids)
    arcs = _lookup_pairs(data, "arcs", index)
    fw = ConicFramework(
        DirectedGraph(len(ids), arcs),
        Configuration(np.array(positions), np.array(biases)),
    )
    return FrameworkFile(tuple(ids), fw)


def parse_conic_graph_file(data: dict) -> ConicGraphFile:
    d = _positive_int(data, "dimension")
    if "vertices" in data:
        ids = data["vertices"]
        if not isinstance(ids, list) or not ids:
            raise ValueError("vertices must be a non-empty list of ids")
    elif "n" in data:
        ids = list(range(_positive_int(data, "n")))
    else:
        raise ValueError("conic graph file needs vertices or n")
    index = _index_ids(ids)
    simple = _lookup_pairs(data, "simple_edges", index)
    double = _lookup_pairs(data, "double_edges", index)
    return ConicGraphFile(tuple(ids), ConicGraph(len(ids), simple, double), d)


def load_input_file(path: str) -> Union[FrameworkFile, ConicGraphFile]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    has_arcs = "arcs" in data
    has_class = "simple_edges" in data or "double_edges" in data
    if has_arcs and not has_class:
        return parse_framework_file(data)
    if has_class and not has_arcs:
        return parse_conic_graph_file(data)
    raise ValueError(
        f"{path}: expected either arcs (framework) or "
        "simple_edges/double_edges (conic graph)"
    )


def framework_file_dict(ff: FrameworkFile) -> dict:
    fw = ff.framework
    return {
        "dimension": fw.d,
        "vertices": [
            {
                "id": ff.ids[i],
                "position": [float(c) for c in fw.config.positions[i]],
                "bias": float(fw.config.biases[i]),
            }
            for i in range(fw.n)
        ],
        "arcs": [[ff.ids[u], ff.ids[w]] for u, w in fw.graph.arcs],
    }


def conic_graph_file_dict(cf: ConicGraphFile) -> dict:
    return {
        "dimension": cf.dimension,
        "vertices": list(cf.ids),
        "simple_edges": [[cf.ids[u], cf.ids[w]] for u, w in cf.graph.simple_edges],
        "double_edges": [[cf.ids[u], cf.ids[w]] for u, w in cf.graph.double_edges],
    }


def _write_json(data: dict, out: Optional[str]) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _policy(args) -> TolerancePolicy:
    return TolerancePolicy(rel_tol=args.tol, trials=args.seeds, base_seed=args.seed)


def _edge_names(ids, edges) -> str:
    return ", ".join(f"{ids[u]}-{ids[w]}" for u, w in edges) or "(none)"


# -- check --------------------------------------------------------------------


def _print_flex(ids, q: np.ndarray, n: int, d: int) -> None:
    v = q[: n * d].reshape(n, d)
    a = q[n * d :]
    print("nontrivial flex (velocity | bias rate):")
    for i in range(n):
        coords = ", ".join(f"{c: .6g}" for c in v[i])
        print(f"  {ids[i]}: ({coords}) | {a[i]: .6g}")


def cmd_check(args) -> int:
    loaded = load_input_file(args.file)
    if not isinstance(loaded, FrameworkFile):
        raise ValueError("check needs agent positions; use decompose for graph files")
    fw, ids = loaded.framework, loaded.ids
    n, d = fw.n, fw.d
    print(f"agents: {n}  dimension: {d}  arcs: {fw.graph.m}")

    if d == 1:
        verdict = is_rigid_1d(fw)
        required = s_conic(n, 1)
        matrix = conic_rigidity_matrix(fw)
        report = numeric_rank(matrix, rel_tol=args.tol)
        agree = verdict.rigid == (report.rank == required)
        print(f"increasing shadow components: {len(verdict.plus_components)}")
        print(f"decreasing shadow components: {len(verdict.minus_components)}")
        suffix = "agrees" if agree else "DISAGREES with the exact test"
        print(f"numeric rank: {report.rank} / {required} ({suffix})")
        if not agree:
            log.warning("exact and numeric 1-d verdicts disagree; trusting the exact test")
        print(f"verdict: {'rigid' if verdict.rigid else 'flexible'}")
        if verdict.rigid:
            return 0
        q = flex_witness_1d(fw)
        assert q is not None
        residual = float(np.linalg.norm(matrix @ q))
        _print_flex(ids, q, n, 1)
        print(f"constraint residual of the flex: {residual:.3e}")
        return 1

    verdict = is_infinitesimally_rigid(fw, policy=TolerancePolicy(rel_tol=args.tol))
    report = verdict.report
    print(
        f"rank: {report.rank} / {verdict.required_rank} required  "
        f"(tolerance {report.tolerance_used:.3e}, spectrum gap {report.gap_ratio:.3g})"
    )
    if report.ill_conditioned:
        log.warning(
            "rank decision is ill-conditioned (gap %.3g); treat the verdict with care",
            report.gap_ratio,
        )
    print(f"kernel dimension: {verdict.kernel_dim} (trivial motions: {verdict.trivial_dim})")
    print(f"verdict: {'rigid' if verdict.rigid else 'flexible'}")
    if verdict.rigid:
        return 0
    q = nontrivial_flex(fw, rel_tol=args.tol, verdict=verdict)
    if q is not None:
        _print_flex(ids, q, n, d)
    return 1


# -- decompose ----------------------------------------------------------------


def cmd_decompose(args) -> int:
    loaded = load_input_file(args.file)
    if isinstance(loaded, FrameworkFile):
        ids = loaded.ids
        cg = conic_class(loaded.framework.graph)
        file_d = loaded.framework.d
    else:
        ids = loaded.ids
        cg = loaded.graph
        file_d = loaded.dimension
    d = args.d if args.d is not None else file_d
    if d < 2:
        raise ValueError("decompose needs d >= 2; use check for frameworks on a line")

    oracle = RigidityOracle(cg.n, d, policy=_policy(args))
    dec, trace = decompose(cg, oracle)
    print(
        f"vertices: {cg.n}  dimension: {d}  arcs: {cg.edge_count} "
        f"({len(cg.simple_edges)} single + {len(cg.double_edges)} double)"
    )
    print(f"required: {trace.s_required}")
    log.info("exchange rounds: %d", len(trace.rounds))
    if dec is None:
        print("verdict: not rigid")
        print(f"reason: {trace.reason}")
    else:
        print("verdict: rigid")
        print(f"spatial part G ({dec.g.m} edges): {_edge_names(ids, dec.g.edges)}")
        print(f"bias part H ({dec.h.m} edges): {_edge_names(ids, dec.h.edges)}")
    print(f"numeric cross-check: rank {trace.numeric_rank} / {trace.s_required}")
    if args.trace is not None:
        payload = {"ids": list(ids)}
        payload.update(trace.to_json_dict())
        _write_json(payload, args.trace)
        print(f"trace written to {args.trace}")
    return 0 if dec is not None else 1


# -- design -------------------------------------------------------------------


def cmd_design(args) -> int:
    n, d = args.n, args.d
    if n < 2:
        raise ValueError("need at least two agents")
    if d < 2:
        raise ValueError("design needs d >= 2")
    rng = np.random.default_rng(args.seed)
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    pool = [pairs[i] for i in rng.permutation(len(pairs))]
    oracle = RigidityOracle(n, d, policy=_policy(args))
    basis = extend_to_minimally_rigid((), pool, oracle)
    basis_set = set(basis)

    # spanning tree preferring fresh edges; overlaps become double edges
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = []
    ordered = [e for e in pool if e not in basis_set] + [e for e in pool if e in basis_set]
    for u, w in ordered:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
            tree.append((u, w))
    if len(tree) != n - 1:
        raise AssertionError("complete graph failed to yield a spanning tree")

    cg = union(EuclideanGraph(n, basis), EuclideanGraph(n, tree))
    ids = tuple(str(v) for v in range(n))
    cf = ConicGraphFile(ids, cg, d)

    data = conic_graph_file_dict(cf)
    data["suggested_arcs"] = [[ids[u], ids[w]] for u, w in orient(cg).arcs]
    # keep stdout pure JSON when no --out, so redirects stay parseable
    report = sys.stdout if args.out else sys.stderr
    print(
        f"designed {cg.edge_count} arcs for {n} agents in dimension {d} "
        f"(minimum {s_conic(n, d)}; {len(cg.double_edges)} double)",
        file=report,
    )
    _write_json(data, args.out)
    return 0


# -- compare ------------------------------------------------------------------


def cmd_compare(args) -> int:
    n, d = args.n, args.d
    if n < 2:
        raise ValueError("need at least two agents")
    if d < 1:
        raise ValueError("dimension must be positive")
    se = s_euclidean(n, d)
    s = s_conic(n, d)
    two_way = 2 * se
    print(f"agents: {n}  dimension: {d}")
    print(f"one-way arcs for rigidity: {s}")
    print(f"two-way arcs (both directions on a rigid graph): {two_way}")
    print(f"saving at this size: {100.0 * (1.0 - s / two_way):.1f}%")
    print(f"saving as the fleet grows: {100.0 * (1.0 - (d + 1) / (2.0 * d)):.1f}%")
    return 0


# -- flex-demo ----------------------------------------------------------------


def _curve_drift(fw: ConicFramework, moving: int, samples) -> float:
    """Largest pseudo-range deviation across the samples."""
    base = arc_pseudo_ranges(fw)
    worst = 0.0
    for s in samples:
        positions = fw.config.positions.copy()
        biases = fw.config.biases.copy()
        positions[moving] = s.position
        biases[moving] = s.bias
        moved = ConicFramework(fw.graph, Configuration(positions, biases))
        worst = max(worst, float(np.max(np.abs(arc_pseudo_ranges(moved) - base))))
    return worst


def cmd_flex_demo(args) -> int:
    report = sys.stdout if args.out is not None else sys.stderr

    if args.kind == "intersection":
        fw = make_pinned_framework()
        found = locate_second_intersection(fw)
        xm = fw.config.positions[3]
        print(f"placement A: position ({xm[0]:g}, {xm[1]:g})  bias {fw.config.biases[3]:g}")
        print(
            f"placement B: position ({found.position[0]:.9g}, {found.position[1]:.9g})  "
            f"bias {found.bias:.9g}"
        )
        residuals = "  ".join(f"{r:.2e}" for r in found.residuals)
        print(f"constraint residuals at B: {residuals}")
        if found.degenerate:
            print("no second placement")
        return 0

    if args.kind == "hyperbola":
        fw = make_hyperbola_framework()
        span = 0.5
    else:
        fw = make_ellipse_framework()
        span = np.pi
    curve = build_flex_curve(fw)
    samples = sample_flex(curve, args.samples, span=span)
    drift = _curve_drift(fw, curve.moving, samples)
    print(f"curve: {curve.kind}  constant: {curve.constant:g}", file=report)
    print(f"samples: {len(samples)}  max pseudo-range drift: {drift:.3e}", file=report)

    lines = ["t,x,y,beta"]
    for s in samples:
        row = (float(s.t), float(s.position[0]), float(s.position[1]), float(s.bias))
        lines.append(",".join(repr(v) for v in row))
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"samples written to {args.out}", file=report)
    return 0


# -- random -------------------------------------------------------------------


def cmd_random(args) -> int:
    n, d, arcs = args.n, args.d, args.arcs
    if n < 2:
        raise ValueError("need at least two agents")
    if d < 1:
        raise ValueError("dimension must be positive")
    ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
    if not 0 <= arcs <= len(ordered):
        raise ValueError(f"arc count must be between 0 and {len(ordered)}")
    rng = np.random.default_rng(args.seed)
    chosen = sorted(ordered[i] for i in rng.choice(len(ordered), size=arcs, replace=False))
    positions = rng.random((n, d))
    biases = rng.random(n) - 0.5
    ids = tuple(str(v) for v in range(n))
    ff = FrameworkFile(
        ids,
        ConicFramework(DirectedGraph(n, chosen), Configuration(positions, biases)),
    )
    _write_json(framework_file_dict(ff), args.out)
    return 0


# -- parser -------------------------------------------------------------------


def _tolerance(text: str) -> float:
    x = float(text)
    if not 0.0 < x < 1.0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"{text!r} is not a relative cutoff in (0, 1)")
    return x


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return n


def build_parser() -> argparse.ArgumentParser:
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol", type=_tolerance, default=1e-10,
        help="relative SVD cutoff in (0, 1) (default 1e-10)",
    )
    seeds = argparse.ArgumentParser(add_help=False)
    seeds.add_argument(
        "--seeds", type=_count, default=5,
        help="random configurations per generic rank query (default 5)",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument(
        "--seed", type=int, default=42, help="base random seed (default 42)"
    )

    parser = argparse.ArgumentParser(
        prog="conic-rigidity",
        description="infinitesimal rigidity of pseudo-range frameworks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[tol], help="test a framework file")
    p.add_argument("file", help="framework JSON file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "decompose", parents=[tol, seeds, seed],
        help="constructive rigidity of a conic graph",
    )
    p.add_argument("file", help="conic graph or framework JSON file")
    p.add_argument("--d", type=int, default=None, help="dimension (default: the file's)")
    p.add_argument("--trace", default=None, help="write the exchange trace as JSON")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "design", parents=[tol, seeds, seed],
        help="generate a minimally rigid conic graph",
    )
    p.add_argument("n", type=int, help="number of agents")
    p.add_argument("--d", type=int, default=2, help="dimension (default 2)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("compare", help="arc count comparison")
    p.add_argument("n", type=int, help="number of agents")
    p.add_argument("--d", type=int, default=2, help="dimension (default 2)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("flex-demo", help="sample the reference flex curves")
    p.add_argument("kind", choices=("hyperbola", "ellipse", "intersection"))
    p.add_argument("--samples", type=int, default=100, help="sample count (default 100)")
    p.add_argument("--out", default=None, help="CSV output file (default stdout)")
    p.set_defaults(func=cmd_flex_demo)

    p = sub.add_parser("random", parents=[seed], help="emit a random framework file")
    p.add_argument("n", type=int, help="number of agents")
    p.add_argument("arcs", type=int, help="number of arcs")
    p.add_argument("--d", type=int, default=2, help="dimension (default 2)")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_random)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _configure_logging()
        return args.func(args)
    except (ValueError, OSError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
