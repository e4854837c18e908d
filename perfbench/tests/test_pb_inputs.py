"""Generator labels against the independent oracles in tests/oracles.py.

Run with: python3 -m pytest perfbench/tests
"""

import _paths  # noqa: F401
import numpy as np
import pytest

import inputs as gen
import workloads
from oracles import count_components, exact_rank, sparsity_independent


def _integer_positions(n, d, rng):
    """Distinct random integer points, so rigidity-matrix entries are exact."""
    while True:
        pos = rng.integers(-50, 50, size=(n, d)).astype(float)
        if len({tuple(p) for p in pos}) == n:
            return pos


def _minimally_rigid(edges, n, d, rng):
    """Counting test in the plane, exact rank at an integer placement in space."""
    if len(edges) != gen.s_euclidean(n, d):
        return False
    if d == 2:
        return sparsity_independent(n, edges)
    rows = gen.euclidean_rows(sorted(edges), _integer_positions(n, d, rng))
    return exact_rank(rows.tolist()) == len(edges)


@pytest.mark.parametrize("d,n", [(2, 5), (2, 7), (2, 9), (3, 6), (3, 8), (3, 10)])
@pytest.mark.parametrize("seed", range(4))
def test_henneberg_and_greedy_bases_are_minimally_rigid(d, n, seed):
    rng = np.random.default_rng(seed)
    assert _minimally_rigid(gen.henneberg_basis(n, d, rng), n, d, rng)
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    pool = [pairs[i] for i in rng.permutation(len(pairs))]
    assert _minimally_rigid(gen.greedy_basis(pool, n, d, rng), n, d, rng)


@pytest.mark.parametrize("n", [3, 6, 11])
def test_spanning_trees_connect_every_vertex(n):
    rng = np.random.default_rng(n)
    for tree in (gen.random_spanning_tree(n, rng),
                 gen.random_spanning_tree(n, rng, prefer={(0, 1), (1, 2)})):
        assert len(tree) == n - 1
        assert count_components(n, tree) == 1


@pytest.mark.parametrize("d,n", [(2, 6), (2, 9), (3, 7)])
@pytest.mark.parametrize("seed", range(3))
def test_rigid_families_have_exactly_the_required_arcs(d, n, seed):
    rng = np.random.default_rng(seed)
    for simple, double in (gen.henneberg_tree(n, d, rng), gen.design_style(n, d, rng)):
        assert gen.arc_count(simple, double) == gen.s_conic(n, d)
        assert not set(simple) & set(double)
        assert count_components(n, simple + double) == 1
        thin = gen.thinned(simple, double, rng)
        assert gen.arc_count(*thin) == gen.s_conic(n, d) - 1
        more_simple, more_double = gen.with_surplus(simple, double, n, n // 2, rng)
        assert gen.arc_count(more_simple, more_double) == gen.s_conic(n, d) + n // 2
        assert set(simple) | set(double) <= set(more_simple) | set(more_double)
        assert set(double) <= set(more_double)


@pytest.mark.parametrize("d,n", [(2, 8), (2, 12), (3, 10)])
def test_two_blocks_join_by_one_arc_too_few(d, n):
    rng = np.random.default_rng(n)
    simple, double, side = gen.two_blocks(n, d, rng)
    assert gen.arc_count(simple, double) >= gen.s_conic(n, d)
    a = set(side)
    cross = [e for e in simple + double if (e[0] in a) != (e[1] in a)]
    assert not set(cross) & set(double)
    # rows inside a block have rank at most s_conic of the block, so the rank
    # is at most this sum, which falls one short of rigidity
    bound = gen.s_conic(len(a), d) + gen.s_conic(n - len(a), d) + len(cross)
    assert bound <= gen.s_conic(n, d) - 1
    assert count_components(n, [e for e in simple + double if e not in cross]) == 2


def _line_matrix(positions, arcs):
    """Conic rigidity matrix on the line; integer positions keep it exact."""
    n = len(positions)
    rows = []
    for u, w in arcs:
        row = [0.0] * (2 * n)
        diff = positions[u, 0] - positions[w, 0]
        row[u], row[w] = diff, -diff
        row[n + u], row[n + w] = -abs(diff), abs(diff)
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [4, 5, 7])
@pytest.mark.parametrize("seed", range(6))
def test_line_label_matches_exact_rank(n, seed):
    rng = np.random.default_rng([n, seed])
    arcs = gen.line_arcs(n, int(rng.integers(n, 3 * n)), rng)
    positions = _integer_positions(n, 1, rng)
    rigid = exact_rank(_line_matrix(positions, arcs)) == gen.s_conic(n, 1)
    assert gen.line_rigid(positions, arcs) == rigid


def test_generation_is_a_function_of_the_seed(tmp_path):
    first = workloads.generate("decompose-space", 5, tmp_path / "a")
    again = workloads.generate("decompose-space", 5, tmp_path / "b")
    other = workloads.generate("decompose-space", 6, tmp_path / "c")
    names = [op["file"] for ops in first for op in ops]
    read = lambda root: [(root / f).read_text() for f in names]  # noqa: E731
    assert read(tmp_path / "a") == read(tmp_path / "b")
    assert read(tmp_path / "a") != read(tmp_path / "c")
    assert [op["expect"] for ops in first for op in ops] == \
        [op["expect"] for ops in again for op in ops]
