"""Traced runs: timing wrappers around the program's public layer functions.

`Tracer.install()` replaces each traced function by a wrapper in every
`conicrig` module that binds it (names imported with `from .x import y` live
in several modules) and wraps methods on their classes; `uninstall()` puts
every original back. Nothing under the program's source tree is edited.

Each wrapped call opens a frame on one stack. Coarse calls are kept as spans
(name, operation, parent span, start, end); hot calls, which run hundreds of
thousands of times per operation, are folded into their enclosing span as
covered time and into per-name totals, so memory stays bounded. Busy time is
self time: a call's duration minus the time its child calls cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass

# (module, attribute or Class.method, metric name, kept as a span)
TRACED = (
    ("conicrig.cli", "load_input_file", "cli.load", True),
    ("conicrig.frameworks", "Configuration.__init__", "frameworks.configuration", True),
    ("conicrig.frameworks", "orient", "frameworks.orient", False),
    ("conicrig.rigidity", "euclidean_rigidity_matrix", "rigidity.matrix_build", False),
    ("conicrig.rigidity", "conic_rigidity_matrix", "rigidity.matrix_build", False),
    ("conicrig.rigidity", "numeric_rank", "rigidity.rank", False),
    ("conicrig.rigidity", "trivial_space_basis", "rigidity.trivial_basis", True),
    ("conicrig.rigidity", "nontrivial_flex", "rigidity.flex", True),
    ("conicrig.onedim", "is_rigid_1d", "onedim.exact", True),
    ("conicrig.onedim", "flex_witness_1d", "onedim.witness", True),
    ("conicrig.graphs", "connected_components", "graphs.components", True),
    ("conicrig.graphs", "find_cycle", "graphs.components", True),
    ("conicrig.pebble", "PebbleState.insert_all", "pebble.insert_all", False),
    ("conicrig.pebble", "PebbleState.try_insert", "pebble.insert", False),
    ("conicrig.matroid", "RigidityOracle.__init__", "matroid.oracle_init", True),
    ("conicrig.matroid", "RigidityOracle.euclidean_rank", "matroid.euclidean_query", False),
    ("conicrig.matroid", "RigidityOracle.conic_rank", "matroid.conic_query", False),
    ("conicrig.matroid", "extend_to_minimally_rigid", "matroid.extend", True),
    ("conicrig.matroid", "fundamental_circuit", "matroid.circuit", True),
    ("conicrig.decompose", "_trim_to_core", "decompose.trim", True),
    ("conicrig.decompose", "initial_decomposition", "decompose.initial", True),
    ("conicrig.decompose", "select_swap_chain", "decompose.select_chain", True),
    ("conicrig.decompose", "apply_swap_chain", "decompose.apply_chain", True),
    ("conicrig.decompose", "decompose", "decompose.decompose", True),
)

# calls only counted, not timed: their time stays with the caller
COUNTED = (
    ("conicrig.pebble", "PebbleState._gather_one", "pebble.search"),
    ("conicrig.pebble", "PebbleState.__post_init__", "pebble.game"),
    ("conicrig.decompose", "_component_of", "decompose.component_bfs"),
)

# a query with none of these below it was answered from the memo
WORK = frozenset({"pebble.insert_all", "pebble.insert", "rigidity.rank"})
QUERIES = frozenset({"matroid.euclidean_query", "matroid.conic_query"})

# (metric, unit): every per-layer metric a traced run reports
METRICS = (
    ("cli.load_s", "s"),
    ("frameworks.configuration_calls", "count"),
    ("frameworks.configuration_s", "s"),
    ("frameworks.orient_calls", "count"),
    ("rigidity.matrix_build_calls", "count"),
    ("rigidity.matrix_build_s", "s"),
    ("rigidity.rank_calls", "count"),
    ("rigidity.rank_s", "s"),
    ("rigidity.rank_flops", "flop"),
    ("rigidity.flex_calls", "count"),
    ("rigidity.flex_s", "s"),
    ("rigidity.trivial_basis_s", "s"),
    ("rigidity.ill_conditioned_frac", "ratio"),
    ("onedim.exact_calls", "count"),
    ("onedim.exact_s", "s"),
    ("graphs.components_calls", "count"),
    ("graphs.components_s", "s"),
    ("pebble.games", "count"),
    ("pebble.inserts", "count"),
    ("pebble.insert_accept_frac", "ratio"),
    ("pebble.searches", "count"),
    ("pebble.s", "s"),
    ("matroid.oracle_init_s", "s"),
    ("matroid.euclidean_queries", "count"),
    ("matroid.euclidean_hit_ratio", "ratio"),
    ("matroid.conic_queries", "count"),
    ("matroid.conic_hit_ratio", "ratio"),
    ("matroid.cache_entries", "count"),
    ("matroid.circuit_calls", "count"),
    ("matroid.circuit_s", "s"),
    ("matroid.extend_s", "s"),
    ("matroid.conic_rank_s", "s"),
    ("decompose.trim_s", "s"),
    ("decompose.initial_s", "s"),
    ("decompose.select_chain_s", "s"),
    ("decompose.apply_chain_s", "s"),
    ("decompose.self_s", "s"),
    ("decompose.rounds", "count"),
    ("decompose.component_bfs_calls", "count"),
    ("decompose.invariant_errors", "count"),
    ("decompose.cross_check_errors", "count"),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass
class Span:
    name: str
    op: int
    parent: int  # index into Tracer.spans, -1 at the top
    start: float
    end: float = 0.0
    folded: float = 0.0  # time covered by hot child calls not kept as spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover.

    Children are the spans naming it as parent, plus the folded time of hot
    calls. Calls on one thread nest, so children never overlap.
    """
    covered = [s.folded for s in spans]
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


class _Frame:
    """An open call: hot child time so far, and whether real work ran below."""

    __slots__ = ("name", "start", "child", "work", "span")

    def __init__(self, name: str, start: float, span: int):
        self.name = name
        self.start = start
        self.child = 0.0
        self.work = False
        self.span = span  # index into Tracer.spans, or -1 for a hot call


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.hot: dict[str, list[float]] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, float] = {}
        self.op = -1
        self.op_oracles: list = []
        self.oracle_ops = 0
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def enter(self, name: str, keep: bool) -> _Frame:
        now = self.clock()
        span = -1
        # a span never opens inside a hot call, so hot time folds cleanly
        if keep and (not self._stack or self._stack[-1].span >= 0):
            span = len(self.spans)
            parent = self._stack[-1].span if self._stack else -1
            self.spans.append(Span(name, self.op, parent, now))
        frame = _Frame(name, now, span)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        now = self.clock()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if frame.span >= 0:
            span = self.spans[frame.span]
            span.end = now
            span.folded = frame.child
        else:
            dur = now - frame.start
            entry = self.hot.setdefault(frame.name, [0, 0.0])
            entry[0] += 1
            entry[1] += dur - frame.child
            if parent is not None:
                parent.child += dur
            if frame.name in QUERIES and not frame.work:
                self.count("hits." + frame.name)
            if frame.name == "rigidity.matrix_build" and (
                parent is None or parent.name != frame.name
            ):
                self.count("matrix_builds")
        if parent is not None:
            parent.work |= frame.work or frame.name in WORK

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_oracles = []

    def end_op(self) -> None:
        if self.op_oracles:
            self.oracle_ops += 1
            for oracle in self.op_oracles:
                for memo in ("_euclidean_cache", "_conic_cache"):
                    self.count("matroid.cache_entries", len(getattr(oracle, memo, ())))
        self.op_oracles = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, name: str, keep: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.count(f"{name}.error.{type(exc).__name__}")
                raise
            finally:
                tracer.exit(frame)
            tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def _counted(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name: str, args, result) -> None:
        if name == "rigidity.rank":
            a = args[0]
            shape = getattr(getattr(a, "matrix", a), "shape", (0, 0))
            if len(shape) == 2:
                m, n = shape
                self.count("rigidity.rank_flops", m * n * min(m, n))
            if getattr(result, "ill_conditioned", False):
                self.count("rigidity.ill_conditioned")
        elif name == "pebble.insert" and result:
            self.count("pebble.accepted")
        elif name == "matroid.oracle_init":
            self.op_oracles.append(args[0])
        elif name == "decompose.apply_chain":
            self.count("decompose.rounds")

    # -- patching ----------------------------------------------------------

    def _bind(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function wherever a conicrig module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        plan = [(mod, path, name, keep, True) for mod, path, name, keep in TRACED]
        plan += [(mod, path, name, False, False) for mod, path, name in COUNTED]
        homes = {mod: importlib.import_module(mod) for mod, *_ in plan}
        modules = [
            m for k, m in sorted(sys.modules.items())
            if k == "conicrig" or k.startswith("conicrig.")
        ]
        for mod_name, path, name, keep, timed in plan:
            home = homes[mod_name]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(home, cls_name)
                fn = cls.__dict__[meth]
                wrap = self._timed(fn, name, keep) if timed else self._counted(fn, name)
                self._bind(cls, meth, wrap)
                continue
            fn = getattr(home, path)
            wrap = self._timed(fn, name, keep) if timed else self._counted(fn, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._bind(module, attr, wrap)

    def uninstall(self) -> None:
        """Put back every original, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report ------------------------------------------------------------

    def busy(self) -> dict[str, list[float]]:
        """Calls and self seconds per traced name, spans and hot calls alike."""
        totals = {name: list(v) for name, v in self.hot.items()}
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = totals.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += own
        return totals

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        busy = self.busy()

        def calls(*names):
            return sum(busy.get(n, (0, 0.0))[0] for n in names)

        def secs(*names):
            return sum(busy.get(n, (0, 0.0))[1] for n in names)

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        err = "decompose.decompose.error."
        eu_hits = c.get("hits.matroid.euclidean_query", 0)
        co_hits = c.get("hits.matroid.conic_query", 0)
        values = {
            "cli.load_s": secs("cli.load"),
            "frameworks.configuration_calls": calls("frameworks.configuration"),
            "frameworks.configuration_s": secs("frameworks.configuration"),
            "frameworks.orient_calls": calls("frameworks.orient"),
            "rigidity.matrix_build_calls": c.get("matrix_builds", 0),
            "rigidity.matrix_build_s": secs("rigidity.matrix_build"),
            "rigidity.rank_calls": calls("rigidity.rank"),
            "rigidity.rank_s": secs("rigidity.rank"),
            "rigidity.rank_flops": c.get("rigidity.rank_flops", 0),
            "rigidity.flex_calls": calls("rigidity.flex"),
            "rigidity.flex_s": secs("rigidity.flex"),
            "rigidity.trivial_basis_s": secs("rigidity.trivial_basis"),
            "rigidity.ill_conditioned_frac": ratio(
                c.get("rigidity.ill_conditioned", 0), calls("rigidity.rank")
            ),
            "onedim.exact_calls": calls("onedim.exact"),
            "onedim.exact_s": secs("onedim.exact", "onedim.witness"),
            "graphs.components_calls": calls("graphs.components"),
            "graphs.components_s": secs("graphs.components"),
            "pebble.games": c.get("pebble.game", 0),
            "pebble.inserts": calls("pebble.insert"),
            "pebble.insert_accept_frac": ratio(
                c.get("pebble.accepted", 0), calls("pebble.insert")
            ),
            "pebble.searches": c.get("pebble.search", 0),
            "pebble.s": secs("pebble.insert_all", "pebble.insert"),
            "matroid.oracle_init_s": secs("matroid.oracle_init"),
            "matroid.euclidean_queries": calls("matroid.euclidean_query"),
            "matroid.euclidean_hit_ratio": ratio(eu_hits, calls("matroid.euclidean_query")),
            "matroid.conic_queries": calls("matroid.conic_query"),
            "matroid.conic_hit_ratio": ratio(co_hits, calls("matroid.conic_query")),
            "matroid.cache_entries": ratio(
                c.get("matroid.cache_entries", 0), self.oracle_ops
            ),
            "matroid.circuit_calls": calls("matroid.circuit"),
            "matroid.circuit_s": secs("matroid.circuit"),
            "matroid.extend_s": secs("matroid.extend"),
            "matroid.conic_rank_s": secs("matroid.conic_query"),
            "decompose.trim_s": secs("decompose.trim"),
            "decompose.initial_s": secs("decompose.initial"),
            "decompose.select_chain_s": secs("decompose.select_chain"),
            "decompose.apply_chain_s": secs("decompose.apply_chain"),
            "decompose.self_s": secs("decompose.decompose"),
            "decompose.rounds": c.get("decompose.rounds", 0),
            "decompose.component_bfs_calls": c.get("decompose.component_bfs", 0),
            "decompose.invariant_errors": c.get(err + "DecompositionInvariantError", 0),
            "decompose.cross_check_errors": c.get(err + "CrossCheckError", 0),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}

    def write(self, path) -> None:
        """Spans as JSON lines, then the per-name totals."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                                     "start": s.start, "end": s.end, "folded": s.folded}) + "\n")
            fh.write(json.dumps({"busy": self.busy(), "counts": self.counts}) + "\n")
