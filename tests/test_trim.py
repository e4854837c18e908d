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
    random_generic_configuration,
    s_conic,
)
from conicrig.decompose import _arc_pool, _trim_to_core
from conicrig.frameworks import oriented_arcs
from conicrig.graphs import normalize_edge
from golden import GAMMA5


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
    g = set(extend_to_minimally_rigid((), pool, RigidityOracle(n, d, backend="numeric")))
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
    assert oracle.backend == ("pebble" if d == 2 else "numeric")
    core, surplus = _trim_to_core(cg, oracle)
    ref_core, ref_surplus = reference_trim(cg, oracle)
    assert core == ref_core
    assert surplus == ref_surplus


def random_candidate(cg, rng):
    """A random subgraph of cg, as (double, simple): each pair keeps up to
    its multiplicity."""
    double_set = set(cg.double_edges)
    double, simple = [], []
    for pair in cg.all_pairs():
        copies = int(rng.integers(0, 3 if pair in double_set else 2))
        if copies == 1:
            simple.append(pair)
        elif copies == 2:
            double.append(pair)
    return double, simple


def test_pooled_rows_equal_the_candidate_matrix():
    rng = np.random.default_rng(5)
    only_double = ConicGraph(6, [], [(0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (4, 5)])
    cases = [(only_double, 2), (only_double, 3), (GAMMA5, 2)]
    cases += [(near_threshold(n, d, rng), d) for n, d in [(7, 2), (9, 2), (8, 3), (11, 3)]]
    for cg, d in cases:
        pool, row = _arc_pool(cg)
        p = random_generic_configuration(cg.n, d, int(rng.integers(1000)))
        pooled = conic_rigidity_matrix(ConicFramework(pool, p))
        cands = [(list(cg.double_edges), list(cg.simple_edges))]
        cands += [random_candidate(cg, rng) for _ in range(20)]
        for double, simple in cands:
            if not double and not simple:
                continue
            direct = conic_rigidity_matrix(
                ConicFramework(orient(ConicGraph(cg.n, simple, double)), p)
            )
            assert np.array_equal(pooled[[row[a] for a in oriented_arcs(double, simple)]], direct)
    # a double-only graph takes both arcs of every edge and nothing else
    pool, row = _arc_pool(only_double)
    rows = [row[a] for a in oriented_arcs(only_double.double_edges, [])]
    assert sorted(rows) == list(range(pool.m)) and pool.m == 12


# a rigid input whose trim rejects 4 copies, and a refused one rejecting 3
@pytest.mark.parametrize("make, seed", [(surplus_graph, 1), (two_blocks, 3)])
def test_trim_builds_one_matrix_per_configuration(monkeypatch, make, seed):
    matroid_module = importlib.import_module("conicrig.matroid")
    decompose_module = importlib.import_module("conicrig.decompose")
    cg = make(10, 2, np.random.default_rng(seed))
    oracle = RigidityOracle(10, 2)
    trials = oracle.policy.trials

    # the reference asks one conic rank per tested copy and factors its
    # matrix at every configuration
    verdicts, factored = [], []
    conic_rank, rank_of = oracle.conic_rank, matroid_module.numeric_rank

    def recording(g):
        factored.append([])
        rank = conic_rank(g)
        verdicts.append(rank == g.edge_count)
        return rank

    def recording_rank(m, rel_tol):
        factored[-1].append(m)
        return rank_of(m, rel_tol)

    monkeypatch.setattr(oracle, "conic_rank", recording)
    monkeypatch.setattr(matroid_module, "numeric_rank", recording_rank)
    ref = reference_trim(cg, oracle)
    monkeypatch.undo()
    accepted = sum(verdicts)
    rejected = len(verdicts) - accepted
    assert accepted > 0 and rejected > 0

    counts = {"build": 0, "svd": 0, "conic": 0, "directed": 0}
    taken = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def taking_rank(a, rel_tol):
        taken.append(a)
        return rank_of(a, rel_tol)

    build = matroid_module.conic_rigidity_matrix
    monkeypatch.setattr(matroid_module, "conic_rigidity_matrix", counted("build", build))
    monkeypatch.setattr(decompose_module, "numeric_rank", taking_rank)
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(ConicGraph, "__init__", counted("conic", ConicGraph.__init__))
    monkeypatch.setattr(DirectedGraph, "__init__", counted("directed", DirectedGraph.__init__))
    core, surplus = _trim_to_core(cg, oracle)
    monkeypatch.undo()

    assert (core, surplus) == ref
    assert counts["build"] == trials
    assert counts["directed"] == 1  # the arc pool
    assert counts["conic"] == (core is not None)  # the core it returns
    assert counts["svd"] == len(taken)
    assert accepted + rejected <= len(taken) <= accepted + trials * rejected
    # each tested copy factors, entry for entry, a prefix of the matrices
    # the reference factors for it
    i = 0
    for group in factored:
        k = 0
        while (
            k < len(group)
            and i < len(taken)
            and taken[i].shape == group[k].shape
            and np.array_equal(taken[i], group[k])
        ):
            i, k = i + 1, k + 1
        assert k >= 1
    assert i == len(taken)


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
