from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

from conicrig import (
    ConicGraph,
    CrossCheckError,
    DecompositionInvariantError,
    DirectedGraph,
    RigidityOracle,
    conic_class,
    decompose,
    euclidean_rigidity_matrix,
    extend_to_minimally_rigid,
    initial_decomposition,
    is_decomposition_of,
    numeric_rank,
    random_generic_configuration,
    s_conic,
    s_euclidean,
    union,
)
from conicrig import cli
from conicrig.decompose import apply_swap_chain, select_swap_chain
from conicrig.graphs import connected_components, find_cycle
from conicrig.pebble import PebbleState
from golden import (
    CHAIN7_CYCLE,
    CHAIN7_FULL_FINAL_H,
    CHAIN7_FULL_SIGMAS,
    CHAIN7_G,
    CHAIN7_H,
    CHAIN7_H_AFTER,
    CHAIN7_SIGMAS,
    CHAIN7_STEPS,
    GAMMA5,
    GAMMA5_EXCHANGES,
    GAMMA5_FINAL_G,
    GAMMA5_FINAL_H,
    GAMMA5_INITIAL_G,
    GAMMA5_INITIAL_H,
)
from oracles import generic_conic_rank


def random_conic_graph(rng, n, arcs):
    ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
    take = min(arcs, len(ordered))
    idx = rng.choice(len(ordered), size=take, replace=False)
    return conic_class(DirectedGraph(n, [ordered[i] for i in idx]))


def test_initial_decomposition_of_the_family_fixture():
    oracle = RigidityOracle(5, 2)
    dec = initial_decomposition(GAMMA5, oracle)
    assert dec is not None
    assert dec.g.edges == GAMMA5_INITIAL_G
    assert dec.h.edges == GAMMA5_INITIAL_H
    assert is_decomposition_of(dec, GAMMA5)
    assert PebbleState(dec.g.n).insert_all(dec.g.edges) == s_euclidean(dec.g.n, 2)
    assert dec.h.m == 4


def test_initial_decomposition_plays_one_game(monkeypatch):
    # the double edges, then the simple edges, go through one pebble game
    games = []
    init = PebbleState.__post_init__

    def counted_init(self):
        games.append(self.n)
        init(self)

    monkeypatch.setattr(PebbleState, "__post_init__", counted_init)
    dec = initial_decomposition(GAMMA5, RigidityOracle(5, 2))
    assert dec.g.edges == GAMMA5_INITIAL_G
    assert games == [5]


@pytest.mark.parametrize("d", [2, 3])
def test_initial_g_is_the_greedy_extension_of_the_double_edges(d):
    rng = np.random.default_rng(40 + d)
    sizes = [int(n) for n in rng.integers(4, 9, size=30)]
    graphs = [random_conic_graph(rng, n, s_conic(n, d)) for n in sizes]
    if d == 2:
        # a doubled K4 is dependent in the plane, though its ears would
        # still lift the rank to s_euclidean(8, 2)
        k4 = [(u, w) for u in range(4) for w in range(u + 1, 4)]
        graphs.append(ConicGraph(8, [(a, v) for v in range(4, 8) for a in (0, 1)], k4))
    outcomes = set()
    for cg in graphs:
        oracle = RigidityOracle(cg.n, d)
        dec = initial_decomposition(cg, oracle)
        try:
            g = extend_to_minimally_rigid(cg.double_edges, sorted(cg.simple_edges), oracle)
        except ValueError:
            g = None
        assert (dec.g.edges if dec else None) == g
        outcomes.add(g is None)
    assert outcomes == {True, False}


def test_initial_decomposition_needs_exact_count():
    oracle = RigidityOracle(5, 2)
    short = ConicGraph(5, GAMMA5.simple_edges[1:], GAMMA5.double_edges)
    with pytest.raises(ValueError):
        initial_decomposition(short, oracle)


def test_full_trace_of_the_family_fixture():
    oracle = RigidityOracle(5, 2)
    dec, trace = decompose(GAMMA5, oracle)
    assert dec is not None and trace.rigid
    assert trace.initial_g == GAMMA5_INITIAL_G
    assert trace.initial_h == GAMMA5_INITIAL_H
    got = tuple(
        tuple((x.sigma, x.uv, x.wz) for x in r.exchanges) for r in trace.rounds
    )
    assert got == GAMMA5_EXCHANGES
    assert trace.final_g == dec.g.edges == GAMMA5_FINAL_G
    assert trace.final_h == dec.h.edges == GAMMA5_FINAL_H
    assert trace.numeric_rank == trace.s_required == 11
    assert len(connected_components(dec.h)) == 1
    assert PebbleState(dec.g.n).insert_all(dec.g.edges) == s_euclidean(dec.g.n, 2)


def test_selection_chain_on_the_designed_split():
    # start from the hand-built split whose H has a cycle two bridges
    # away from the crossing edges; the exchange pass must skip a step
    oracle = RigidityOracle(7, 2)
    cycle = find_cycle(CHAIN7_H)
    assert sorted(cycle) == sorted(CHAIN7_CYCLE)
    chain = select_swap_chain(CHAIN7_G, CHAIN7_H, cycle, oracle)
    assert chain is not None
    assert tuple((s.uv, s.wz, s.z) for s in chain) == CHAIN7_STEPS
    dec, exchanges = apply_swap_chain(CHAIN7_G, CHAIN7_H, chain, oracle)
    assert tuple(x.sigma for x in exchanges) == CHAIN7_SIGMAS
    assert dec.h.edges == CHAIN7_H_AFTER
    assert len(connected_components(dec.h)) == 1
    assert PebbleState(dec.g.n).insert_all(dec.g.edges) == s_euclidean(dec.g.n, 2)
    before = union(CHAIN7_G, CHAIN7_H)
    assert is_decomposition_of(dec, before)


def test_selection_plays_one_pebble_game_for_its_basis(monkeypatch):
    # every circuit of one basis is read from the same game
    decompose_module = importlib.import_module("conicrig.decompose")
    circuit = decompose_module.fundamental_circuit
    asked, games = [], []
    init = PebbleState.__post_init__

    def counted_init(self):
        games.append(self.n)
        init(self)

    def counted_circuit(basis, uv, oracle):
        asked.append(uv)
        return circuit(basis, uv, oracle)

    monkeypatch.setattr(PebbleState, "__post_init__", counted_init)
    monkeypatch.setattr(decompose_module, "fundamental_circuit", counted_circuit)
    chain = select_swap_chain(CHAIN7_G, CHAIN7_H, find_cycle(CHAIN7_H), RigidityOracle(7, 2))
    assert tuple((s.uv, s.wz, s.z) for s in chain) == CHAIN7_STEPS
    assert len(asked) == 3
    assert games == [7]


@pytest.mark.xfail(strict=True, raises=DecompositionInvariantError)
def test_designed_graph_of_seed_6_decomposes(tmp_path):
    # the exchange chain picks (1, 7) for (0, 7) and loses minimal rigidity
    path = str(tmp_path / "g.json")
    assert cli.main(["design", "14", "--seed", "6", "--out", path]) == 0
    cg = cli.load_input_file(path).graph
    dec, _ = decompose(cg, RigidityOracle(cg.n, 2))
    assert dec is not None


# seeds whose designed graph on 30 agents the exchange chain fails to split
CHAIN_CRASHES = {1, 6, 10, 11, 12, 14}


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(
            s, marks=pytest.mark.xfail(strict=True, raises=DecompositionInvariantError)
        ) if s in CHAIN_CRASHES else s
        for s in range(20)
    ],
)
def test_designed_graphs_of_thirty_agents_decompose(tmp_path, seed):
    path = str(tmp_path / "g.json")
    assert cli.main(["design", "30", "--seed", str(seed), "--out", path]) == 0
    cg = cli.load_input_file(path).graph
    dec, _ = decompose(cg, RigidityOracle(cg.n, 2))
    assert dec is not None and is_decomposition_of(dec, cg)
    assert PebbleState(dec.g.n).insert_all(dec.g.edges) == s_euclidean(dec.g.n, 2)
    assert len(connected_components(dec.h)) == 1


# seeds whose designed graph on 20 agents in space the exchange chain fails to split
SPATIAL_CHAIN_CRASHES = {3, 15, 17, 18}


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(
            s, marks=pytest.mark.xfail(strict=True, raises=DecompositionInvariantError)
        ) if s in SPATIAL_CHAIN_CRASHES else s
        for s in range(20)
    ],
)
def test_designed_spatial_graphs_of_twenty_agents_decompose(tmp_path, seed):
    path = str(tmp_path / "g.json")
    assert cli.main(["design", "20", "--d", "3", "--seed", str(seed), "--out", path]) == 0
    cg = cli.load_input_file(path).graph
    dec, _ = decompose(cg, RigidityOracle(cg.n, 3))
    assert dec is not None and is_decomposition_of(dec, cg)
    # G is minimally rigid by the numeric rank at a generic placement
    placed = euclidean_rigidity_matrix(dec.g.edges, random_generic_configuration(20, 3, 5))
    assert dec.g.m == numeric_rank(placed).rank == s_euclidean(20, 3)
    assert len(connected_components(dec.h)) == 1


def test_full_pipeline_on_the_chain_fixture():
    cg = union(CHAIN7_G, CHAIN7_H)
    assert cg.edge_count == s_conic(7, 2) == 17
    dec, trace = decompose(cg, RigidityOracle(7, 2))
    assert dec is not None
    sigmas = tuple(tuple(x.sigma for x in r.exchanges) for r in trace.rounds)
    assert sigmas == CHAIN7_FULL_SIGMAS
    assert trace.final_h == CHAIN7_FULL_FINAL_H
    assert [r.components_before - r.components_after for r in trace.rounds] == [1, 1]


def test_too_few_arcs_is_decided_by_counting():
    oracle = RigidityOracle(5, 2)
    short = ConicGraph(5, GAMMA5.simple_edges[1:], GAMMA5.double_edges)
    dec, trace = decompose(short, oracle)
    assert dec is None and not trace.rigid
    assert "needs" in trace.reason


def test_surplus_arcs_are_peeled_and_reattached():
    # doubling two formerly simple edges adds two surplus arcs
    extra = ConicGraph(
        5,
        tuple(e for e in GAMMA5.simple_edges if e not in ((0, 2), (2, 4))),
        GAMMA5.double_edges + ((0, 2), (2, 4)),
    )
    assert extra.edge_count == 13
    oracle = RigidityOracle(5, 2)
    dec, trace = decompose(extra, oracle)
    assert dec is not None
    assert len(trace.surplus) == 2
    assert is_decomposition_of(dec, extra)


def test_verdict_matches_numeric_rank_on_random_graphs():
    rng = np.random.default_rng(4242)
    oracles = {}
    for _ in range(60):
        n = int(rng.integers(3, 8))
        target = s_conic(n, 2) + int(rng.integers(-2, 3))
        cg = random_conic_graph(rng, n, max(target, 0))
        oracle = oracles.setdefault(n, RigidityOracle(n, 2))
        dec, trace = decompose(cg, oracle)
        # the rank at placements of the test's own: the oracle's are the ones
        # decompose cross-checks against, so they would always agree
        assert (dec is not None) == (generic_conic_rank(cg, 2) == s_conic(n, 2))
        if dec is not None:
            assert is_decomposition_of(dec, cg)
            assert PebbleState(dec.g.n).insert_all(dec.g.edges) == s_euclidean(dec.g.n, 2)
            assert len(connected_components(dec.h)) == 1


def test_trace_serializes_to_json():
    dec, trace = decompose(GAMMA5, RigidityOracle(5, 2))
    text = json.dumps(trace.to_json_dict())
    data = json.loads(text)
    assert data["rigid"] is True
    assert data["s_required"] == 11
    assert data["final"]["h"] == [list(e) for e in dec.h.edges]


def test_cross_check_failure_is_loud():
    class LyingOracle(RigidityOracle):
        def conic_rank(self, cg):
            return s_conic(self.n, self.d)

    short = ConicGraph(5, GAMMA5.simple_edges[1:], GAMMA5.double_edges)
    with pytest.raises(CrossCheckError):
        decompose(short, LyingOracle(5, 2))
