"""The surplus-arc trim of `decompose`, against a per-candidate reference."""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicrig import (
    ConicFramework,
    Configuration,
    ConicGraph,
    DirectedGraph,
    RigidityOracle,
    conic_rigidity_matrix,
    extend_to_minimally_rigid,
    orient,
    s_conic,
)
from conicrig.decompose import _trim_to_core
from conicrig.frameworks import conic_class
from conicrig.graphs import normalize_edge


# -- reference: one conic-rank query per arc copy ----------------------------


def _graph_from_multiplicity(n, mult):
    simple = [p for p, c in mult.items() if c == 1]
    double = [p for p, c in mult.items() if c == 2]
    return ConicGraph(n, simple, double)


def reference_trim(cg, oracle):
    target = s_conic(cg.n, oracle.d)
    double_set = set(cg.double_edges)
    mult = {}
    count = 0
    surplus = []
    for pair in cg.all_pairs():
        avail = 2 if pair in double_set else 1
        for _ in range(avail):
            if count == target:
                surplus.append(pair)
                continue
            cand_mult = dict(mult)
            cand_mult[pair] = cand_mult.get(pair, 0) + 1
            cand = _graph_from_multiplicity(cg.n, cand_mult)
            if oracle.conic_rank(cand) == count + 1:
                mult = cand_mult
                count += 1
            else:
                surplus.append(pair)
    if count < target:
        return None, ()
    return _graph_from_multiplicity(cg.n, mult), tuple(surplus)


# -- inputs -------------------------------------------------------------------


def rigid_edges(n, d, rng):
    """Minimally rigid G over a shuffled pool plus a random spanning tree H."""
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    pool = [pairs[i] for i in rng.permutation(len(pairs))]
    g = set(extend_to_minimally_rigid((), pool, RigidityOracle(n, d)))
    order = [int(v) for v in rng.permutation(n)]
    h = {normalize_edge((order[i], order[int(rng.integers(i))])) for i in range(1, n)}
    return g ^ h, g & h


def add_arcs(simple, double, k, pairs, rng):
    """Up to k more arcs on the given pairs: fresh pairs become simple edges,
    simple edges become double."""
    simple, double = set(simple), set(double)
    free = [e for e in pairs if e not in double]
    k = min(k, sum(1 if e in simple else 2 for e in free))
    while k > 0:
        e = free[int(rng.integers(len(free)))]
        if e in double:
            continue
        if e in simple:
            simple.discard(e)
            double.add(e)
        else:
            simple.add(e)
        k -= 1
    return simple, double


def surplus_graph(n, d, rng):
    simple, double = rigid_edges(n, d, rng)
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    return ConicGraph(n, *add_arcs(simple, double, n // 2, pairs, rng))


def two_blocks(n, d, rng):
    """Two rigid blocks joined by C(d+1, 2) arcs, one short of rigid, with
    surplus arcs inside the blocks."""
    perm = [int(v) for v in rng.permutation(n)]
    sides = (perm[: n // 2], perm[n // 2 :])
    simple, double = set(), set()
    for side in sides:
        s, dd = rigid_edges(len(side), d, rng)
        simple |= {normalize_edge((side[u], side[w])) for u, w in s}
        double |= {normalize_edge((side[u], side[w])) for u, w in dd}
    cross = set()
    while len(cross) < math.comb(d + 1, 2):
        a, b = (side[int(rng.integers(len(side)))] for side in sides)
        cross.add(normalize_edge((a, b)))
    simple |= cross
    inside = [normalize_edge((u, w)) for side in sides for u in side for w in side if u < w]
    return ConicGraph(n, *add_arcs(simple, double, n // 4 + 1, inside, rng))


def near_threshold(n, d, rng):
    """Random conic graph at s_conic - 1 to s_conic + 5 arcs, most of them
    on double edges."""
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    arcs = min(s_conic(n, d) + int(rng.integers(-1, 6)), 2 * len(pairs))
    order = [pairs[i] for i in rng.permutation(len(pairs))]
    n_double = min(int(0.4 * arcs), len(pairs))
    double = order[:n_double]
    simple = order[n_double : n_double + arcs - 2 * n_double]
    return ConicGraph(n, simple, double)


KINDS = {"surplus": surplus_graph, "blocks": two_blocks, "random": near_threshold}


# -- tests --------------------------------------------------------------------


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(6, 14),
    d=st.sampled_from([2, 3]),
    kind=st.sampled_from(sorted(KINDS)),
)
def test_trim_matches_the_per_candidate_reference(seed, n, d, kind):
    cg = KINDS[kind](n, d, np.random.default_rng(seed))
    oracle = RigidityOracle(n, d)
    core, surplus = _trim_to_core(cg, oracle)
    ref_core, ref_surplus = reference_trim(cg, oracle)
    assert core == ref_core
    assert surplus == ref_surplus


def run_trim(cg, oracle):
    """The trim's result, its arc list, its matrix at each configuration, and
    every matrix it factors, in order."""
    decompose_module = importlib.import_module("conicrig.decompose")
    conic_matrices, rank_of = oracle.conic_matrices, decompose_module.numeric_rank
    pools, taken = [], []

    def recording_matrices(dg):
        pools.append((dg.arcs, list(conic_matrices(dg))))
        return iter(pools[-1][1])

    def taking_rank(a):
        taken.append(a)
        return rank_of(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "conic_matrices", recording_matrices)
        mp.setattr(decompose_module, "numeric_rank", taking_rank)
        result = _trim_to_core(cg, oracle)
    ((arcs, pooled),) = pools
    return result, arcs, pooled, taken


def locate(a, pooled):
    """(configuration index, row indices) of the trim's matrix whose rows
    make up a."""
    for c, m in enumerate(pooled):
        where = {row.tobytes(): j for j, row in enumerate(m)}
        rows = [where.get(row.tobytes()) for row in a]
        if None not in rows:
            return c, rows
    raise AssertionError("a factored matrix is not made of the trim's rows")


def candidate(n, arcs, rows):
    return conic_class(DirectedGraph(n, [arcs[j] for j in rows]))


def same_rows(a, b):
    """Equal entry for entry up to the order of the rows."""
    return a.shape == b.shape and np.array_equal(a[np.lexsort(a.T)], b[np.lexsort(b.T)])


def test_the_trim_factors_each_candidate_once_per_configuration(monkeypatch):
    # a double edge's first copy is rejected here; testing its second copy
    # would factor the same candidate again at every configuration
    cg = two_blocks(10, 2, np.random.default_rng(1))
    oracle = RigidityOracle(10, 2)
    svd, svds = np.linalg.svd, []

    def counted_svd(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    _, arcs, pooled, taken = run_trim(cg, oracle)
    monkeypatch.undo()
    keys = [(c, candidate(cg.n, arcs, rows)) for c, rows in (locate(a, pooled) for a in taken)]
    assert len(set(keys)) == len(keys) == len(svds) == 35  # re-testing takes 40


# rigid inputs in the plane and in space, and two refused ones, one of which
# rejects a double edge's first copy
@pytest.mark.parametrize(
    "make, seed, d",
    [
        pytest.param(surplus_graph, 1, 2, id="surplus_graph-1"),
        pytest.param(two_blocks, 3, 2, id="two_blocks-3"),
        pytest.param(two_blocks, 1, 2, id="two_blocks-1"),
        pytest.param(surplus_graph, 1, 3, id="surplus_graph-1-space"),
    ],
)
def test_trim_builds_one_matrix_per_configuration(monkeypatch, make, seed, d):
    matroid_module = importlib.import_module("conicrig.matroid")
    cg = make(10, d, np.random.default_rng(seed))
    oracle = RigidityOracle(10, d)

    # the reference asks one conic rank per tested copy and factors its
    # matrix at each configuration until one reaches full rank
    tested, factored = [], []
    conic_rank, rank_of = oracle.conic_rank, matroid_module.numeric_rank

    def recording(g):
        factored.append([])
        rank = conic_rank(g)
        tested.append((g, rank == g.edge_count))
        return rank

    def recording_rank(m):
        factored[-1].append(m)
        return rank_of(m)

    monkeypatch.setattr(oracle, "conic_rank", recording)
    monkeypatch.setattr(matroid_module, "numeric_rank", recording_rank)
    ref = reference_trim(cg, oracle)
    monkeypatch.undo()
    assert any(ok for _, ok in tested) and not all(ok for _, ok in tested)

    counts = {"build": 0, "svd": 0, "conic": 0, "directed": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    build = matroid_module.conic_rigidity_matrix
    monkeypatch.setattr(matroid_module, "conic_rigidity_matrix", counted("build", build))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(ConicGraph, "__init__", counted("conic", ConicGraph.__init__))
    monkeypatch.setattr(DirectedGraph, "__init__", counted("directed", DirectedGraph.__init__))
    (core, surplus), arcs, pooled, taken = run_trim(cg, oracle)
    monkeypatch.undo()

    assert (core, surplus) == ref
    assert counts["build"] == len(oracle._configs)
    assert counts["directed"] == 1 + (core is not None)  # the arc list, the core's arcs
    assert counts["conic"] == (core is not None)  # the core it returns
    assert counts["svd"] == len(taken)

    # the trim's factored matrices, grouped by candidate in scan order
    groups = []
    for a in taken:
        g = candidate(cg.n, arcs, locate(a, pooled)[1])
        if groups and groups[-1][0] == g:
            groups[-1][1].append(a)
        else:
            groups.append((g, [a]))
    # the reference tests a double edge's second copy after its first was
    # rejected on the same candidate again; the trim skips exactly those
    kept = [i for i, t in enumerate(tested) if i == 0 or tested[i - 1] != (t[0], False)]
    assert [g for g, _ in groups] == [tested[i][0] for i in kept]
    # each tested copy factors the reference's matrices up to row order
    for (_, mats), i in zip(groups, kept):
        assert len(mats) == len(factored[i])
        assert all(same_rows(a, b) for a, b in zip(mats, factored[i]))

    if core is not None:
        # the last factored matrix is the one that kept the last copy; its
        # rows are the core's own constraint matrix at every configuration
        rows = locate(taken[-1], pooled)[1]
        for m, p in zip(pooled, oracle._configs):
            direct = conic_rigidity_matrix(ConicFramework(orient(core), p))
            assert same_rows(m[rows], direct)


def test_a_degenerate_configuration_does_not_change_the_trim():
    # collinear positions at the first configuration deflate every rank
    # there; the later configurations must still decide
    cg = surplus_graph(10, 2, np.random.default_rng(1))
    oracle = RigidityOracle(10, 2)
    line = np.column_stack([np.arange(10.0), np.zeros(10)])
    oracle._configs[0] = Configuration(line, np.zeros(10))
    trimmed = _trim_to_core(cg, oracle)
    assert trimmed == reference_trim(cg, oracle)
    assert trimmed == _trim_to_core(cg, RigidityOracle(10, 2))
    assert trimmed[0] is not None
