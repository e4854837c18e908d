from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conicrig import (
    Configuration,
    ConicFramework,
    ConicGraph,
    Decomposition,
    DirectedGraph,
    EuclideanGraph,
    arc_pseudo_ranges,
    conic_class,
    is_decomposition_of,
    orient,
    pseudo_range,
    random_generic_configuration,
    union,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(np.zeros(3), np.zeros(3))  # not (n, d)
    with pytest.raises(ValueError):
        Configuration(np.zeros((3, 2)), np.zeros(2))  # bias length
    with pytest.raises(ValueError):
        Configuration([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0])  # coincident
    c = Configuration([[0.0, 1.0], [2.0, 3.0]], [0.5, -0.5])
    assert c.n == 2 and c.d == 2
    assert c.point(1).tolist() == [2.0, 3.0, -0.5]
    with pytest.raises(ValueError):
        c.positions[0, 0] = 9.0  # read-only


def test_framework_requires_matching_sizes():
    config = Configuration([[0.0], [1.0]], [0.0, 0.0])
    with pytest.raises(ValueError):
        ConicFramework(DirectedGraph(3, []), config)


def test_pseudo_range_direction_matters():
    a = np.array([0.0, 0.0, 0.1])
    b = np.array([3.0, 4.0, -0.2])
    assert pseudo_range(a, b) == pytest.approx(5.0 - 0.2 - 0.1)
    assert pseudo_range(b, a) == pytest.approx(5.0 + 0.1 + 0.2)
    with pytest.raises(ValueError):
        pseudo_range(np.array([1.0, 2.0, 0.0]), np.array([1.0, 2.0, 5.0]))


@given(
    st.lists(finite, min_size=3, max_size=3),
    st.lists(finite, min_size=3, max_size=3),
    finite,
)
def test_pseudo_range_shift_invariance(pe, pr, shift):
    # adding the same constant to both biases changes nothing
    pe, pr = np.array(pe), np.array(pr)
    if float(np.linalg.norm(pe[:-1] - pr[:-1])) == 0.0:
        return  # numerically coincident (includes squaring underflow)
    shifted_e = pe + np.array([0.0, 0.0, shift])
    shifted_r = pr + np.array([0.0, 0.0, shift])
    assert pseudo_range(shifted_e, shifted_r) == pytest.approx(
        pseudo_range(pe, pr), abs=1e-6, rel=1e-9
    )


def test_arc_pseudo_ranges_order():
    fw = ConicFramework(
        DirectedGraph(2, [(0, 1), (1, 0)]),
        Configuration([[0.0], [2.0]], [0.5, 0.0]),
    )
    assert arc_pseudo_ranges(fw).tolist() == [1.5, 2.5]


def test_conic_class_splits_pairs():
    dg = DirectedGraph(3, [(0, 1), (1, 0), (2, 1)])
    cg = conic_class(dg)
    assert cg.simple_edges == ((1, 2),)
    assert cg.double_edges == ((0, 1),)


def test_union_symmetric_difference_and_intersection():
    g1 = EuclideanGraph(4, [(0, 1), (1, 2)])
    g2 = EuclideanGraph(4, [(1, 2), (2, 3)])
    cg = union(g1, g2)
    assert cg.simple_edges == ((0, 1), (2, 3))
    assert cg.double_edges == ((1, 2),)
    assert is_decomposition_of(Decomposition(g1, g2), cg)


def conic_graphs(max_n=8):
    def build(n):
        pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
        return st.tuples(
            st.lists(st.sampled_from(pairs), max_size=len(pairs)),
            st.lists(st.sampled_from(pairs), max_size=len(pairs)),
        ).map(
            lambda sd: ConicGraph(
                n, set(sd[0]) - set(sd[1]), set(sd[1])
            )
        )

    return st.integers(2, max_n).flatmap(build)


@given(conic_graphs())
def test_orient_round_trips(cg):
    dg = orient(cg)
    assert dg.m == cg.edge_count
    back = conic_class(dg)
    assert back.simple_edges == cg.simple_edges
    assert back.double_edges == cg.double_edges


@given(conic_graphs())
def test_union_of_orient_parts(cg):
    # splitting the canonical orientation back into two edge sets and
    # re-uniting them must reproduce the class
    dg = orient(cg)
    forward = EuclideanGraph(cg.n, [a for a in dg.arcs if a[0] < a[1]])
    backward = EuclideanGraph(cg.n, [(w, u) for u, w in dg.arcs if u > w])
    got = union(forward, backward)
    assert got.simple_edges == cg.simple_edges
    assert got.double_edges == cg.double_edges


def test_random_generic_configuration_deterministic():
    a = random_generic_configuration(6, 3, seed=11)
    b = random_generic_configuration(6, 3, seed=11)
    c = random_generic_configuration(6, 3, seed=12)
    assert a == b
    assert a != c
    assert a.positions.shape == (6, 3)
    assert (0 <= a.positions).all() and (a.positions < 1).all()


def _coincident_pair(positions):
    with pytest.raises(ValueError) as info:
        Configuration(positions, np.zeros(len(positions)))
    return str(info.value)


def test_coincidence_uses_float_equality():
    # -0.0 == 0.0, so vertices 0 and 2 coincide
    msg = _coincident_pair([[0.0, 0.0], [1.0, 1.0], [-0.0, 0.0]])
    assert msg == "coincident positions at vertices 0 and 2"
    # NaN rows are refused before any comparison
    nan = float("nan")
    msg = _coincident_pair([[0.0, 0.0], [nan, 0.0], [nan, 0.0], [0.0, nan]])
    assert msg == "vertex 1 has a non-finite position"
    Configuration([[1.0, 2.0]], [0.0])


@pytest.mark.parametrize(
    "positions, biases, message",
    [
        ([[0.0], [float("nan")], [2.0]], [0.0, 0.0, 0.0], "vertex 1 has a non-finite position"),
        ([[0.0, 1.0], [1.0, -float("inf")]], [0.0, 0.0], "vertex 1 has a non-finite position"),
        ([[0.0, 0.0], [1.0, 1.0]], [float("inf"), 0.0], "vertex 0 has a non-finite bias"),
        ([[0.0, 0.0], [0.0, 0.0]], [0.0, float("nan")], "vertex 1 has a non-finite bias"),
    ],
    ids=["line-nan", "plane-minus-inf", "inf-bias", "nan-bias-before-coincidence"],
)
def test_non_finite_entries_are_refused(positions, biases, message):
    with pytest.raises(ValueError) as info:
        Configuration(positions, biases)
    assert str(info.value) == message


def test_coincidence_reports_the_first_pair():
    # pairs (1, 4) and (2, 3) coincide; (u, w) order puts (1, 4) first
    msg = _coincident_pair([[0.0, 0.0], [5.0, 5.0], [2.0, 2.0], [2.0, 2.0], [5.0, 5.0]])
    assert msg == "coincident positions at vertices 1 and 4"
    # in a triple the two lowest indices are named
    msg = _coincident_pair([[3.0], [1.0], [3.0], [1.0], [3.0]])
    assert msg == "coincident positions at vertices 0 and 2"


def test_coincidence_at_scale():
    positions = np.random.default_rng(3).random((5000, 2))
    positions[-1] = positions[1234]
    msg = _coincident_pair(positions)
    assert msg == "coincident positions at vertices 1234 and 4999"
