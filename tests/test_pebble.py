from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conicrig import (
    EuclideanGraph,
    euclidean_rigidity_matrix,
    laman_independent,
    laman_rank,
    laman_rigid,
    numeric_rank,
    random_generic_configuration,
    s_euclidean,
)
from conicrig.pebble import PebbleState
from golden import G1, G2, G3, GAMMA5
from oracles import sparsity_independent, sparsity_rank


def edge_lists(max_n=8):
    def build(n):
        pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
        return st.lists(st.sampled_from(pairs), max_size=len(pairs)).map(
            lambda es: EuclideanGraph(n, es)
        )

    return st.integers(2, max_n).flatmap(build)


def complete_graph(n):
    return EuclideanGraph(n, [(u, w) for u in range(n) for w in range(u + 1, n)])


def test_small_exact_values():
    triangle = EuclideanGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert laman_rank(triangle) == 3
    assert laman_rigid(triangle)

    k4 = complete_graph(4)
    assert laman_rank(k4) == 5  # one of the six edges is redundant
    assert laman_rigid(k4)
    assert not laman_independent(k4)

    path = EuclideanGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert laman_rank(path) == 3
    assert not laman_rigid(path)

    square = EuclideanGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert laman_independent(square)
    assert not laman_rigid(square)


def test_family_fixtures():
    assert laman_rigid(G1) and laman_independent(G1)
    assert laman_rigid(G2) and laman_independent(G2)
    # G3 contains K4 on {0,1,2,3}: dependent, and one short of full rank
    assert not laman_independent(G3)
    assert laman_rank(G3) == 6
    assert not laman_rigid(G3)
    full = EuclideanGraph(5, GAMMA5.all_pairs())
    assert laman_rank(full) == s_euclidean(5, 2) == 7


@given(edge_lists())
@settings(max_examples=120)
def test_rank_matches_exhaustive_counting(g):
    assert laman_rank(g) == sparsity_rank(g.n, g.edges)
    assert laman_independent(g) == sparsity_independent(g.n, g.edges)


@given(edge_lists(max_n=7))
@settings(max_examples=60)
def test_rank_matches_generic_numeric_rank(g):
    # five seeded configurations; the generic value is the maximum
    numeric = max(
        numeric_rank(
            euclidean_rigidity_matrix(g.edges, random_generic_configuration(g.n, 2, s))
        ).rank
        for s in range(42, 47)
    )
    assert laman_rank(g) == numeric


def test_insertion_order_does_not_change_rank():
    rng = np.random.default_rng(77)
    edges = list(complete_graph(6).edges)
    baseline = laman_rank(EuclideanGraph(6, edges))
    for _ in range(20):
        rng.shuffle(edges)
        state = PebbleState(6)
        assert state.insert_all(edges) == baseline


def test_accepted_edges_form_an_independent_set():
    state = PebbleState(5)
    state.insert_all(complete_graph(5).edges)
    assert sparsity_independent(5, state.accepted)
    assert len(state.accepted) == s_euclidean(5, 2)


def test_circuit_reads_the_tight_set_without_inserting():
    # K4 minus (2, 3), hinged at vertex 2 to the triangle {2, 4, 5}
    state = PebbleState(6)
    state.insert_all([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (2, 5), (4, 5)])
    accepted, total = list(state.accepted), sum(state.pebbles)
    assert state.circuit(2, 3) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    assert state.circuit(3, 4) == ()  # independent: no circuit
    assert state.accepted == accepted
    assert sum(state.pebbles) == total
    assert state.circuit(2, 3) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))
