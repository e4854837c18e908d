from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conicrig.graphs import (
    ConicGraph,
    DirectedGraph,
    EuclideanGraph,
    adjacency,
    connected_components,
    find_cycle,
    normalize_edge,
)
from oracles import count_components


def random_graphs(max_n=9):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            EuclideanGraph,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=2 * n,
            ),
        )
    )


def test_normalize_edge():
    assert normalize_edge((3, 1)) == (1, 3)
    assert normalize_edge([0, 2]) == (0, 2)
    with pytest.raises(ValueError):
        normalize_edge((1, 1))


def test_directed_graph_validation():
    with pytest.raises(ValueError):
        DirectedGraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        DirectedGraph(2, [(0, 0)])
    with pytest.raises(ValueError):
        DirectedGraph(3, [(0, 1), (0, 1)])
    # antiparallel arcs are distinct
    assert DirectedGraph(3, [(1, 0), (0, 1)]).m == 2


def test_directed_graph_keeps_arc_order():
    arcs = [(2, 0), (0, 1), (1, 2)]
    assert DirectedGraph(3, arcs).arcs == ((2, 0), (0, 1), (1, 2))


def test_euclidean_graph_canonicalizes():
    g = EuclideanGraph(4, [(2, 1), (1, 2), (3, 0)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.m == 2


def test_conic_graph_classes_disjoint():
    with pytest.raises(ValueError):
        ConicGraph(3, [(0, 1)], [(1, 0)])
    cg = ConicGraph(3, [(0, 1)], [(1, 2)])
    assert cg.edge_count == 3
    assert cg.all_pairs() == ((0, 1), (1, 2))


def test_adjacency_sorted():
    assert adjacency(4, [(2, 1), (0, 2), (2, 3)]) == [[2], [2], [0, 1, 3], [2]]


def test_components_small():
    g = EuclideanGraph(5, [(0, 1), (3, 4)])
    assert connected_components(g) == [[0, 1], [2], [3, 4]]


@given(random_graphs())
def test_components_match_union_find(g):
    comps = connected_components(g)
    assert len(comps) == count_components(g.n, g.edges)
    assert sorted(v for c in comps for v in c) == list(range(g.n))
    # ordering contract: sorted inside, ordered by smallest member
    assert all(c == sorted(c) for c in comps)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)


@given(random_graphs())
def test_find_cycle_contract(g):
    cycle = find_cycle(g)
    is_forest = g.m == g.n - count_components(g.n, g.edges)
    if cycle is None:
        assert is_forest
        return
    assert not is_forest
    assert len(cycle) >= 3
    assert len(set(cycle)) == len(cycle)
    assert set(cycle) <= set(g.edges)
    # consecutive edges share a vertex and every vertex is hit twice
    degree: dict[int, int] = {}
    for u, w in cycle:
        degree[u] = degree.get(u, 0) + 1
        degree[w] = degree.get(w, 0) + 1
    assert all(v == 2 for v in degree.values())
