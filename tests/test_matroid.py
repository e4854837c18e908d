from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicrig import (
    ConicGraph,
    RigidityOracle,
    extend_to_minimally_rigid,
    fundamental_circuit,
    s_conic,
    s_euclidean,
    swap,
)
from conicrig import cli
from conicrig.frameworks import Configuration
from conicrig.graphs import normalize_edge
from conicrig.matroid import ModularGame
from conicrig.pebble import PebbleState
from conicrig.rigidity import euclidean_rigidity_matrix, numeric_rank
from golden import G1, G2, G2_CIRCUIT_12, GAMMA5
from oracles import exact_rank, sparsity_independent, sparsity_rank


def edge_sets(max_n=7):
    def build(n):
        pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
        return st.tuples(
            st.just(n), st.lists(st.sampled_from(pairs), max_size=len(pairs))
        )

    return st.integers(3, max_n).flatmap(build)


def numeric_reference_rank(oracle, edges):
    """Largest numeric Euclidean rank of the edges over all of the oracle's
    configurations, each one factored."""
    key = sorted({normalize_edge(e) for e in edges})
    return max(
        numeric_rank(euclidean_rigidity_matrix(key, p)).rank
        for p in oracle._configs
    )


def test_oracle_rejects_the_line():
    with pytest.raises(ValueError):
        RigidityOracle(4, 1)


@given(edge_sets())
@settings(max_examples=50)
def test_backends_agree_in_the_plane(ne):
    # the pebble game in the plane against numeric rank at the same oracle
    n, edges = ne
    oracle = RigidityOracle(n, 2)
    assert oracle.euclidean_rank(edges) == numeric_reference_rank(oracle, edges)


def test_euclidean_rank_caches_consistently():
    oracle = RigidityOracle(5, 2)
    edges = GAMMA5.all_pairs()
    assert oracle.euclidean_rank(edges) == 7
    assert oracle.euclidean_rank(list(reversed(edges))) == 7  # same canon key
    assert oracle.is_independent(G1.edges)


def test_conic_rank_of_the_family_fixture():
    oracle = RigidityOracle(5, 2)
    assert oracle.conic_rank(GAMMA5) == s_conic(5, 2) == GAMMA5.edge_count
    # dropping one simple edge keeps independence, loses rigidity
    smaller = ConicGraph(5, GAMMA5.simple_edges[1:], GAMMA5.double_edges)
    assert oracle.conic_rank(smaller) == smaller.edge_count == 10


def counted_svds(monkeypatch):
    """A list that grows by one entry per SVD taken from now on."""
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_conic_rank_stops_at_the_first_configuration_reaching_its_ceiling(
    monkeypatch,
):
    calls = counted_svds(monkeypatch)
    oracle = RigidityOracle(5, 2)
    # rigid with s_conic(5, 2) arcs: the first configuration settles it
    assert oracle.conic_rank(GAMMA5) == 11
    assert len(calls) == 1
    # a doubled K4 plus one pendant edge: 13 arcs but rank at most 9, so
    # no configuration reaches the ceiling and every one is factored
    k4 = [(u, w) for u in range(4) for w in range(u + 1, 4)]
    flexible = ConicGraph(5, [(3, 4)], k4)
    del calls[:]
    assert oracle.conic_rank(flexible) == 9
    assert len(calls) == len(oracle._configs) == 5


def test_configurations_are_drawn_only_for_conic_ranks(monkeypatch, tmp_path):
    matroid_module = importlib.import_module("conicrig.matroid")
    draw, calls = matroid_module.random_generic_configuration, []

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(matroid_module, "random_generic_configuration", counted)
    path = str(tmp_path / "designed.json")
    # design asks only Euclidean questions
    assert cli.main(["design", "30", "--out", path]) == 0
    assert calls == []
    # decompose's numeric cross-check draws the TRIALS configurations once
    assert cli.main(["decompose", path]) == 0
    assert len(calls) == matroid_module.TRIALS == 5


def test_extend_from_empty_seed():
    oracle = RigidityOracle(6, 2)
    pool = [(u, w) for u in range(6) for w in range(u + 1, 6)]
    basis = extend_to_minimally_rigid([], pool, oracle)
    assert len(basis) == s_euclidean(6, 2) == 9
    assert oracle.is_independent(basis)
    assert basis == extend_to_minimally_rigid([], pool, oracle)  # deterministic


def test_extend_respects_the_seed_and_pool_order():
    oracle = RigidityOracle(5, 2)
    seed = [(0, 4), (1, 4)]
    pool = sorted((u, w) for u in range(5) for w in range(u + 1, 5))
    basis = extend_to_minimally_rigid(seed, pool, oracle)
    assert set(seed) <= set(basis)
    assert len(basis) == 7
    # greedy in pool order: the lexicographically first independent pick
    assert (0, 1) in basis


def test_extend_rejects_dependent_seed():
    oracle = RigidityOracle(4, 2)
    k4 = [(u, w) for u in range(4) for w in range(u + 1, 4)]
    with pytest.raises(ValueError):
        extend_to_minimally_rigid(k4, [], oracle)


def test_extend_fails_on_a_thin_pool():
    oracle = RigidityOracle(5, 2)
    with pytest.raises(ValueError):
        extend_to_minimally_rigid([], [(0, 1), (1, 2)], oracle)


def test_extend_numeric_backend_d3():
    oracle = RigidityOracle(5, 3)
    pool = [(u, w) for u in range(5) for w in range(u + 1, 5)]
    basis = extend_to_minimally_rigid([], pool, oracle)
    assert len(basis) == s_euclidean(5, 3) == 9
    assert oracle.is_independent(basis)


def test_spatial_game_takes_no_svd(monkeypatch):
    calls = counted_svds(monkeypatch)
    oracle = RigidityOracle(6, 3)
    basis = extend_to_minimally_rigid([], _pairs(6), oracle)
    assert len(basis) == s_euclidean(6, 3) == 12
    outside = [uv for uv in _pairs(6) if uv not in basis]
    circuits = [fundamental_circuit(basis, uv, oracle) for uv in outside]
    assert [len(c) for c in circuits] == [9, 9, 9]
    assert oracle.euclidean_rank(basis + (outside[0],)) == 12
    assert calls == []


def test_k5_is_a_spatial_circuit():
    k5 = _pairs(5)
    game = RigidityOracle(5, 3).game(k5)
    assert isinstance(game, ModularGame)
    assert game.accepted == k5[:9]
    assert game.circuit(*k5[9]) == tuple(k5[:9])


def _integer_rank(game, edges):
    """Rank over the rationals of the game's rigidity matrix, from its own
    integer point: every entry is an integer below 2^31 in magnitude, exact as a float."""
    point = Configuration(game._point, np.zeros(len(game._point)))
    return exact_rank(euclidean_rigidity_matrix(edges, point).tolist())


@st.composite
def dense_edge_sets(draw, max_n):
    """n and a prefix of a shuffled K_n of uniform length, so that about
    half the sets are dependent."""
    n = draw(st.integers(3, max_n))
    pairs = draw(st.permutations(_pairs(n)))
    return n, sorted(pairs[: draw(st.integers(0, len(pairs)))])


@given(st.sampled_from([3, 4]), dense_edge_sets(max_n=11))
@settings(max_examples=60)
def test_modular_rank_matches_the_numeric_and_exact_ranks(d, ne):
    n, key = ne
    oracle = RigidityOracle(n, d)
    game = oracle.game(key)
    rank = len(game.accepted)
    assert oracle.euclidean_rank(key) == rank == numeric_reference_rank(oracle, key)
    if n <= 6:
        assert _integer_rank(game, game.accepted) == _integer_rank(game, key) == rank


def test_fundamental_circuit_definition():
    oracle = RigidityOracle(5, 2)
    circuit = fundamental_circuit(G2.edges, (1, 2), oracle)
    assert circuit == G2_CIRCUIT_12
    # definitional cross-check, edge by edge
    for e in G2.edges:
        candidate = (set(G2.edges) - {e}) | {(1, 2)}
        assert oracle.is_independent(candidate) == (e in circuit)


def test_fundamental_circuit_validates_inputs():
    oracle = RigidityOracle(5, 2)
    with pytest.raises(ValueError):
        fundamental_circuit(G2.edges[:-1], (1, 2), oracle)  # too small
    with pytest.raises(ValueError):
        fundamental_circuit(G2.edges, (2, 4), oracle)  # already present


def _exchange_circuit(n, basis, uv):
    """{e in basis : basis - e + uv independent}, each candidate decided by
    its own fresh pebble game."""
    circuit = []
    for e in basis:
        candidate = [f for f in basis if f != e] + [uv]
        if PebbleState(n).insert_all(candidate) == len(candidate):
            circuit.append(e)
    return tuple(circuit)


def _pairs(n):
    return [(u, w) for u in range(n) for w in range(u + 1, n)]


@st.composite
def planar_bases(draw, min_n=4, max_n=25):
    n = draw(st.integers(min_n, max_n))
    pool = draw(st.permutations(_pairs(n)))
    return n, extend_to_minimally_rigid([], pool, RigidityOracle(n, 2))


@given(planar_bases())
@settings(max_examples=10)
def test_planar_circuits_match_the_exchange_definition(nb):
    n, basis = nb
    oracle = RigidityOracle(n, 2)
    bset = set(basis)
    for uv in _pairs(n):
        if uv in bset:
            continue
        circuit = fundamental_circuit(basis, uv, oracle)
        assert circuit == _exchange_circuit(n, basis, uv)
        if n <= 7:
            counted = tuple(
                e for e in basis if sparsity_independent(n, (bset - {e}) | {uv})
            )
            assert circuit == counted


def test_circuits_on_two_bases_through_one_oracle():
    # alternating bases must not answer from the other basis's game
    n = 9
    rng = np.random.default_rng(3)
    pairs = _pairs(n)
    oracle = RigidityOracle(n, 2)
    bases = [
        extend_to_minimally_rigid([], [pairs[i] for i in rng.permutation(len(pairs))], oracle)
        for _ in range(2)
    ]
    shared = [uv for uv in pairs if uv not in bases[0] and uv not in bases[1]]
    expected = [[_exchange_circuit(n, b, uv) for uv in shared] for b in bases]
    assert expected[0] != expected[1]
    for k, uv in enumerate(shared):
        for b, want in zip(bases, expected):
            assert fundamental_circuit(b, uv, oracle) == want[k]


def _exchange_circuit_3d(n, basis, uv):
    """{e in basis : basis - e + uv independent}, each candidate decided by
    the numeric rank at the oracle's configurations."""
    oracle = RigidityOracle(n, 3)
    return tuple(
        e for e in basis
        if numeric_reference_rank(oracle, [f for f in basis if f != e] + [uv]) == len(basis)
    )


@st.composite
def spatial_bases(draw, min_n=5, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pool = draw(st.permutations(_pairs(n)))
    return n, extend_to_minimally_rigid([], pool, RigidityOracle(n, 3))


@given(spatial_bases())
@settings(max_examples=8)
def test_spatial_circuits_match_the_exchange_definition(nb):
    n, basis = nb
    oracle = RigidityOracle(n, 3)
    for uv in _pairs(n):
        if uv not in basis:
            assert fundamental_circuit(basis, uv, oracle) == _exchange_circuit_3d(n, basis, uv)
    # an edge independent of the accepted ones has no circuit
    game = oracle.game(basis[1:])
    assert isinstance(game, ModularGame)
    assert game.circuit(*basis[0]) == ()


def test_swap_reproduces_the_companion_basis():
    oracle = RigidityOracle(5, 2)
    assert swap(G2.edges, (1, 2), (2, 4), oracle) == G1.edges


def test_swap_rejects_a_non_generating_edge():
    # triangle plus two ears; the circuit of (3, 4) stays inside {0, 1, 3, 4}
    basis = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))
    oracle = RigidityOracle(5, 2)
    circuit = fundamental_circuit(basis, (3, 4), oracle)
    assert (1, 2) not in circuit
    with pytest.raises(ValueError, match="does not generate"):
        swap(basis, (3, 4), (1, 2), oracle)


@given(edge_sets(max_n=6))
@settings(max_examples=40)
def test_numeric_euclidean_rank_matches_counting(ne):
    n, edges = ne
    assert numeric_reference_rank(RigidityOracle(n, 2), edges) == sparsity_rank(n, edges)
