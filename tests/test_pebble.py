from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conicrig import (
    EuclideanGraph,
    euclidean_rigidity_matrix,
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
    assert PebbleState(3).insert_all(triangle.edges) == 3 == s_euclidean(3, 2)

    # rigid, and one of the six edges is redundant
    k4 = complete_graph(4)
    assert PebbleState(4).insert_all(k4.edges) == 5 == s_euclidean(4, 2) < k4.m

    path = EuclideanGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert PebbleState(4).insert_all(path.edges) == 3 < s_euclidean(4, 2)

    # independent but not rigid
    square = EuclideanGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert PebbleState(4).insert_all(square.edges) == square.m < s_euclidean(4, 2)


def test_family_fixtures():
    for g in (G1, G2):  # rigid and independent
        assert PebbleState(g.n).insert_all(g.edges) == g.m == s_euclidean(g.n, 2)
    # G3 contains K4 on {0,1,2,3}: dependent, and one short of full rank
    assert PebbleState(G3.n).insert_all(G3.edges) == 6 == s_euclidean(G3.n, 2) - 1 < G3.m
    full = EuclideanGraph(5, GAMMA5.all_pairs())
    assert PebbleState(5).insert_all(full.edges) == s_euclidean(5, 2) == 7


@given(edge_lists())
@settings(max_examples=120)
def test_rank_matches_exhaustive_counting(g):
    rank = PebbleState(g.n).insert_all(g.edges)
    assert rank == sparsity_rank(g.n, g.edges)
    assert (rank == g.m) == sparsity_independent(g.n, g.edges)


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
    assert PebbleState(g.n).insert_all(g.edges) == numeric


def test_insertion_order_does_not_change_rank():
    rng = np.random.default_rng(77)
    edges = list(complete_graph(6).edges)
    baseline = PebbleState(6).insert_all(edges)
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
