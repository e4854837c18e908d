from __future__ import annotations

import warnings

import numpy as np
import pytest

from conicrig import (
    Configuration,
    ConicFramework,
    DirectedGraph,
    conic_rigidity_matrix,
    flex_witness_1d,
    is_rigid_1d,
    numeric_rank,
    s_conic,
    split_arcs,
)
from conicrig.onedim import NearTieWarning
from golden import (
    QUAD_FLEX_COORDS,
    QUAD_FLEX_MINUS_COMPONENTS,
    QUAD_RIGID_COORDS,
    quad_framework,
)


def line_framework(coords, arcs, biases=None):
    n = len(coords)
    biases = np.zeros(n) if biases is None else np.asarray(biases)
    config = Configuration(np.array([[c] for c in coords], dtype=float), biases)
    return ConicFramework(DirectedGraph(n, arcs), config)


def random_line_framework(rng, n_max=8):
    n = int(rng.integers(2, n_max + 1))
    coords = rng.permutation(n).astype(float) + rng.random(n) * 0.5
    m = int(rng.integers(0, 2 * n))
    ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
    idx = rng.choice(len(ordered), size=min(m, len(ordered)), replace=False)
    return line_framework(coords, [ordered[i] for i in idx], rng.random(n))


def test_split_by_coordinate_order():
    fw = line_framework([0.0, 2.0, 1.0], [(0, 1), (1, 2), (2, 0)])
    split = split_arcs(fw)
    assert split.increasing == ((0, 1),)
    assert split.decreasing == ((1, 2), (2, 0))


def test_split_rejects_higher_dimensions():
    fw = ConicFramework(
        DirectedGraph(2, [(0, 1)]),
        Configuration([[0.0, 0.0], [1.0, 1.0]], [0.0, 0.0]),
    )
    with pytest.raises(ValueError):
        split_arcs(fw)


def test_near_tie_warns():
    # a gap of 1e-13 where the largest coordinate is 1
    fw = line_framework([0.0, 1e-13, 1.0], [(0, 1), (1, 2)])
    with pytest.warns(UserWarning, match=r"arc \(0, 1\) orders positions") as caught:
        split_arcs(fw)
    (tie,) = [w.message for w in caught]
    assert isinstance(tie, NearTieWarning)
    assert tie.arc == (0, 1) and tie.gap == 1e-13


def test_near_tie_is_relative_to_the_coordinate_scale():
    # adjacent doubles at 1e6 are 1.16e-10 apart: a tie at that scale
    big = np.nextafter(1e6, 2e6)
    fw = line_framework([0.0, 1e6, big], [(0, 1), (1, 2)])
    with pytest.warns(NearTieWarning) as caught:
        split_arcs(fw)
    assert [w.message.arc for w in caught] == [(1, 2)]
    assert caught[0].message.gap == big - 1e6

    # gaps of 1e-13 on coordinates of 1e-13 are the whole scale, not a tie
    fw = line_framework([0.0, 1e-13, 3e-13], [(0, 1), (1, 2), (2, 0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        split = split_arcs(fw)
    assert split.increasing == ((0, 1), (1, 2))


def test_quad_fixture_two_placements():
    flexible = quad_framework(QUAD_FLEX_COORDS)
    verdict = is_rigid_1d(flexible)
    assert not verdict.rigid
    assert len(verdict.plus_components) == 1
    assert verdict.minus_components == QUAD_FLEX_MINUS_COMPONENTS

    rigid = quad_framework(QUAD_RIGID_COORDS)
    rigid_verdict = is_rigid_1d(rigid)
    assert rigid_verdict.rigid
    assert flex_witness_1d(rigid_verdict) is None


def test_witness_is_exactly_in_the_kernel():
    # equal-magnitude velocity and bias rate cancel per arc in floating
    # point, not just approximately
    fw = quad_framework(QUAD_FLEX_COORDS)
    q = flex_witness_1d(is_rigid_1d(fw))
    assert q is not None
    residual = conic_rigidity_matrix(fw) @ q
    assert np.max(np.abs(residual)) == 0.0


def test_witness_moves_one_shadow_component():
    fw = quad_framework(QUAD_FLEX_COORDS)
    q = flex_witness_1d(is_rigid_1d(fw))
    moved = {u for u in range(4) if q[u] != 0.0}
    assert tuple(sorted(moved)) == QUAD_FLEX_MINUS_COMPONENTS[0]
    # velocity +1, bias rate -1 on the moved side
    assert all(q[u] == 1.0 and q[4 + u] == -1.0 for u in moved)


def test_exact_verdict_matches_numeric_rank():
    rng = np.random.default_rng(909)
    disagreements = 0
    for _ in range(200):
        fw = random_line_framework(rng)
        verdict = is_rigid_1d(fw)
        rank = numeric_rank(conic_rigidity_matrix(fw)).rank
        if verdict.rigid != (rank == s_conic(fw.n, 1)):
            disagreements += 1
    assert disagreements == 0


def test_witness_always_valid_when_flexible():
    rng = np.random.default_rng(910)
    checked = 0
    for _ in range(200):
        fw = random_line_framework(rng)
        verdict = is_rigid_1d(fw)
        q = flex_witness_1d(verdict)
        if q is None:
            assert verdict.rigid
            continue
        checked += 1
        residual = conic_rigidity_matrix(fw) @ q
        assert float(np.linalg.norm(residual)) == 0.0
        # never a pure translation or pure bias shift
        n = fw.n
        assert not np.allclose(q[:n], q[0]) or not np.allclose(q[n:], q[n])
    assert checked > 50  # the sample really exercised the witness path
