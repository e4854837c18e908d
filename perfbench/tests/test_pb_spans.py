"""Span recorder: self times, folding of hot calls, patching and restoring.

Run with: python3 -m pytest perfbench/tests
"""

import importlib
import sys

import _paths  # noqa: F401
import pytest

import conicrig
import conicrig.cli
from conicrig import ConicGraph, RigidityOracle
from spans import COUNTED, METRICS, TRACED, Span, Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_hand_built_span_tree_self_times():
    spans = [
        Span("root", 0, -1, 0.0, 10.0),
        Span("a", 0, 0, 1.0, 4.0, folded=1.0),  # 1 s of hot calls inside
        Span("b", 0, 0, 5.0, 9.0),
        Span("c", 0, 2, 6.0, 7.0),
        Span("other-op", 1, -1, 20.0, 22.0, folded=0.5),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 1.5])


def test_hot_calls_fold_into_the_enclosing_span():
    clock = FakeClock()
    t = Tracer(clock)
    outer = t.enter("decompose.decompose", True)
    clock.now = 1.0
    hot = t.enter("matroid.euclidean_query", False)
    clock.now = 2.0
    inner = t.enter("pebble.insert", False)
    clock.now = 4.0
    t.exit(inner)
    clock.now = 5.0
    t.exit(hot)
    clock.now = 6.0
    query = t.enter("matroid.euclidean_query", False)  # answered from the memo
    clock.now = 6.5
    t.exit(query)
    clock.now = 8.0
    t.exit(outer)
    busy = t.busy()
    assert busy["decompose.decompose"] == pytest.approx([1, 8.0 - 4.0 - 0.5])
    assert busy["matroid.euclidean_query"] == pytest.approx([2, 2.0 + 0.5])
    assert busy["pebble.insert"] == pytest.approx([1, 2.0])
    assert t.counts["hits.matroid.euclidean_query"] == 1
    assert sum(v[1] for v in busy.values()) == pytest.approx(8.0)


def _bindings():
    """Every attribute of every conicrig module and traced class."""
    seen = {}
    for name, module in sorted(sys.modules.items()):
        if name == "conicrig" or name.startswith("conicrig."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("conicrig"):
                    for key, member in vars(value).items():
                        seen[(name, attr, key)] = member
    return seen


def test_install_patches_every_binding_and_uninstall_restores_them():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        rank = importlib.import_module("conicrig.rigidity").numeric_rank
        assert rank is not before[("conicrig.rigidity", "numeric_rank")]
        # from-imports see the same wrapper in every module that binds them
        for mod in ("conicrig.matroid", "conicrig.cli", "conicrig"):
            assert sys.modules[mod].numeric_rank is rank
        dmod = importlib.import_module("conicrig.decompose")
        assert dmod.fundamental_circuit is sys.modules["conicrig.matroid"].fundamental_circuit
        assert conicrig.decompose is dmod.decompose  # the package rebinds the name
        assert conicrig.decompose is not before[("conicrig", "decompose")]
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert len(changed) >= len(TRACED) + len(COUNTED)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("d", [2, 3])
def test_traced_decompose_reports_every_metric(d):
    n = 7
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    cg = ConicGraph(n, pairs[: 3 * n], [])
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        conicrig.decompose(cg, RigidityOracle(n, d))
        tracer.end_op()
    finally:
        tracer.uninstall()
    m = tracer.metrics(overhead_ratio=1.0)
    assert [name for name, _ in METRICS] == list(m)
    assert m["matroid.euclidean_queries"]["value"] > 0
    assert 0 <= m["matroid.euclidean_hit_ratio"]["value"] <= 1
    assert m["matroid.cache_entries"]["value"] > 0
    if d == 2:
        assert m["pebble.games"]["value"] > 0
        assert m["pebble.searches"]["value"] > 0
    else:
        assert m["pebble.games"]["value"] == 0
        assert m["rigidity.rank_flops"]["value"] > 0
