from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicrig import (
    Configuration,
    ConicFramework,
    DirectedGraph,
    conic_rigidity_matrix,
    euclidean_rigidity_matrix,
    is_infinitesimally_rigid,
    nontrivial_flex,
    numeric_rank,
    random_generic_configuration,
    s_conic,
    s_euclidean,
    trivial_space_basis,
)
from conicrig import cli
from conicrig.flexcurves import make_hyperbola_framework, make_pinned_framework
from conicrig.rigidity import bias_matrix
from oracles import exact_rank


def test_counting_values():
    assert s_euclidean(4, 2) == 5
    assert s_conic(4, 2) == 8
    assert s_euclidean(5, 2) == 7
    assert s_conic(5, 2) == 11
    assert s_conic(100, 2) == 296
    assert 2 * s_euclidean(100, 2) == 394
    # below d + 1 vertices the complete graph is the ceiling
    assert s_euclidean(2, 3) == 1
    assert s_euclidean(3, 3) == 3
    assert s_conic(3, 3) == 5
    for n in range(2, 9):
        assert s_conic(n, 1) == 2 * n - 2


def test_matrix_entries_by_hand():
    fw = ConicFramework(
        DirectedGraph(2, [(0, 1)]),
        Configuration([[0.0, 0.0], [3.0, 4.0]], [0.25, -0.5]),
    )
    me = euclidean_rigidity_matrix(fw.graph, fw.config)
    assert me.matrix.tolist() == [[-3.0, -4.0, 3.0, 4.0]]
    b = bias_matrix(fw.graph, fw.config)
    assert b.tolist() == [[-5.0, 5.0]]
    m = conic_rigidity_matrix(fw)
    assert m.matrix.tolist() == [[-3.0, -4.0, 3.0, 4.0, -5.0, 5.0]]
    assert m.rows == ((0, 1),)
    assert m.has_bias_block


def test_numeric_rank_empty_and_zero():
    assert numeric_rank(np.zeros((0, 4))).rank == 0
    assert numeric_rank(np.zeros((3, 3))).rank == 0


def test_numeric_rank_matches_exact_on_random_integer_matrices():
    rng = np.random.default_rng(5150)
    for _ in range(300):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        a = rng.integers(-9, 10, size=(rows, cols)).astype(float)
        report = numeric_rank(a)
        assert report.rank == exact_rank(a.tolist())
        assert not report.ill_conditioned


@given(
    st.integers(1, 6).flatmap(
        lambda r: st.tuples(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                min_size=1,
                max_size=7,
            ),
            st.lists(
                st.lists(st.integers(-3, 3), min_size=7, max_size=7),
                min_size=r,
                max_size=r,
            ),
        )
    )
)
@settings(max_examples=150)
def test_numeric_rank_honest_on_products(lr):
    # a product L @ R has rank at most the inner dimension; the report
    # must either get the exact rank right or flag itself
    left, right = np.array(lr[0], dtype=float), np.array(lr[1], dtype=float)
    a = left @ right
    report = numeric_rank(a)
    assert report.rank <= min(a.shape + (left.shape[1],))
    assert report.ill_conditioned or report.rank == exact_rank(a.tolist())


@given(st.integers(2, 7), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=60)
def test_trivial_space_always_admissible(n, d, seed):
    p = random_generic_configuration(n, d, seed)
    t = trivial_space_basis(p)
    # orthonormal columns
    assert np.allclose(t.T @ t, np.eye(t.shape[1]), atol=1e-10)
    # random points never degenerate the span; few points leave isotropy
    assert t.shape[1] == d * n - s_euclidean(n, d) + 1
    # annihilated by the constraint matrix of the complete arc set
    arcs = [(u, w) for u in range(n) for w in range(n) if u != w]
    fw = ConicFramework(DirectedGraph(n, arcs), p)
    m = conic_rigidity_matrix(fw).matrix
    assert np.max(np.abs(m @ t)) < 1e-9


def test_rigid_verdicts_on_reference_frameworks():
    rigid = is_infinitesimally_rigid(make_pinned_framework())
    assert rigid.rigid
    assert rigid.report.rank == rigid.required_rank == 8
    assert rigid.kernel_dim == rigid.trivial_dim == 4

    flexible = is_infinitesimally_rigid(make_hyperbola_framework())
    assert not flexible.rigid
    assert flexible.report.rank == 4
    assert flexible.required_rank == 5
    assert flexible.kernel_dim == 5


def test_nontrivial_flex_contract():
    assert nontrivial_flex(make_pinned_framework()) is None

    fw = make_hyperbola_framework()
    q = nontrivial_flex(fw)
    assert q is not None
    assert np.linalg.norm(q) == pytest.approx(1.0)
    m = conic_rigidity_matrix(fw).matrix
    assert np.max(np.abs(m @ q)) < 1e-8
    t = trivial_space_basis(fw.config)
    assert np.max(np.abs(t.T @ q)) < 1e-8
    # deterministic sign: first nonzero entry positive
    nz = q[np.abs(q) > 1e-12]
    assert nz[0] > 0


def test_rank_report_flags_tiny_gaps():
    # a singular value barely above the cutoff is kept but flagged
    report = numeric_rank(np.diag([1.0, 1e-7]), rel_tol=1e-10)
    assert report.rank == 2
    assert report.ill_conditioned

    clean = numeric_rank(np.diag([1.0, 0.5]), rel_tol=1e-10)
    assert clean.rank == 2
    assert not clean.ill_conditioned


def _loop_matrices(arcs, p):
    # per-arc reference for the spatial blocks and the bias columns
    n, d = p.n, p.d
    spatial = np.zeros((len(arcs), d * n))
    bias = np.zeros((len(arcs), n))
    for i, (u, w) in enumerate(arcs):
        diff = p.positions[u] - p.positions[w]
        spatial[i, d * u : d * (u + 1)] = diff
        spatial[i, d * w : d * (w + 1)] = -diff
        dist = np.linalg.norm(diff)
        bias[i, u] = -dist
        bias[i, w] = dist
    return spatial, bias


@pytest.mark.parametrize("d", [1, 2, 3])
def test_matrices_match_the_per_arc_loop(d):
    rng = np.random.default_rng(70 + d)
    n = 9
    p = Configuration(rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, (n, 1)),
                      rng.random(n))
    ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
    picked = [ordered[i] for i in rng.choice(len(ordered), size=30, replace=False)]
    # some pairs carry both arcs
    arcs = picked + [(w, u) for u, w in picked[:5] if (w, u) not in picked]
    for dg in (DirectedGraph(n, arcs), DirectedGraph(n, [])):
        spatial, bias = _loop_matrices(dg.arcs, p)
        assert np.array_equal(bias_matrix(dg, p), bias)
        assert np.array_equal(euclidean_rigidity_matrix(dg, p).matrix, spatial)
        assert np.array_equal(conic_rigidity_matrix(ConicFramework(dg, p)).matrix,
                              np.hstack([spatial, bias]))
    # the distance matrix also takes a plain pair list, repeats included
    repeated = arcs + arcs[:3]
    spatial, _ = _loop_matrices(repeated, p)
    me = euclidean_rigidity_matrix(repeated, p)
    assert np.array_equal(me.matrix, spatial)
    assert me.rows == tuple(repeated)
    assert euclidean_rigidity_matrix([], p).matrix.shape == (0, d * n)


def _framework_file(tmp_path, name, fw):
    ff = cli.FrameworkFile(tuple(str(v) for v in range(fw.n)), fw)
    path = tmp_path / name
    path.write_text(json.dumps(cli.framework_file_dict(ff)))
    return str(path), cli.load_input_file(str(path)).framework


def _short_framework_file(tmp_path, n, d, seed):
    # one arc short of the required rank: flexible by count
    rng = np.random.default_rng(seed)
    ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
    arcs = [ordered[i] for i in rng.choice(len(ordered), s_conic(n, d) - 1, replace=False)]
    fw = ConicFramework(DirectedGraph(n, arcs), random_generic_configuration(n, d, seed))
    return _framework_file(tmp_path, f"short{n}_{d}.json", fw)


@pytest.mark.parametrize("n,d", [(9, 2), (8, 3)])
def test_check_flex_reuses_the_rank_factorization(tmp_path, monkeypatch, n, d):
    path, fw = _short_framework_file(tmp_path, n, d, seed=n + d)
    printed = []
    monkeypatch.setattr(cli, "_print_flex", lambda ids, q, n, d: printed.append(q))
    assert cli.main(["check", path]) == 1
    (q,) = printed
    alone = nontrivial_flex(fw)
    assert np.max(np.abs(q - alone)) < 1e-8
    report = is_infinitesimally_rigid(fw).report
    assert np.linalg.norm(conic_rigidity_matrix(fw).matrix @ q) <= report.tolerance_used
    assert np.max(np.abs(trivial_space_basis(fw.config).T @ q)) < 1e-8


def test_check_takes_one_svd_of_the_constraint_matrix(tmp_path, monkeypatch):
    real_svd = np.linalg.svd
    calls = []

    def counting_svd(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)

    path, fw = _short_framework_file(tmp_path, 9, 2, seed=4)
    shape = (fw.graph.m, 3 * fw.n)
    assert cli.main(["check", path]) == 1
    assert [kw for s, kw in calls if s == shape] == [{"full_matrices": True}]

    calls.clear()
    complete = DirectedGraph(fw.n, [(u, w) for u in range(fw.n) for w in range(fw.n) if u != w])
    path, rigid = _framework_file(tmp_path, "complete.json", ConicFramework(complete, fw.config))
    assert cli.main(["check", path]) == 0
    shape = (rigid.graph.m, 3 * rigid.n)
    assert [kw for s, kw in calls if s == shape] == [{"compute_uv": False}]
