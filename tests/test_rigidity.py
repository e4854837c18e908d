from __future__ import annotations

import itertools
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
from conicrig import cli, rigidity
from conicrig.flexcurves import make_hyperbola_framework, make_pinned_framework
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
    me = euclidean_rigidity_matrix(fw.graph.arcs, fw.config)
    assert me.tolist() == [[-3.0, -4.0, 3.0, 4.0]]
    m = conic_rigidity_matrix(fw)
    assert m.tolist() == [[-3.0, -4.0, 3.0, 4.0, -5.0, 5.0]]


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
    m = conic_rigidity_matrix(fw)
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
    assert nontrivial_flex(is_infinitesimally_rigid(make_pinned_framework())) is None

    fw = make_hyperbola_framework()
    q = nontrivial_flex(is_infinitesimally_rigid(fw))
    assert q is not None
    assert np.linalg.norm(q) == pytest.approx(1.0)
    m = conic_rigidity_matrix(fw)
    assert np.max(np.abs(m @ q)) < 1e-8
    t = trivial_space_basis(fw.config)
    assert np.max(np.abs(t.T @ q)) < 1e-8
    # deterministic sign: first nonzero entry positive
    nz = q[np.abs(q) > 1e-12]
    assert nz[0] > 0


def test_rank_report_flags_tiny_gaps():
    # a singular value barely above the cutoff is kept but flagged
    report = numeric_rank(np.diag([1.0, 1e-7]))
    assert report.rank == 2
    assert report.ill_conditioned

    clean = numeric_rank(np.diag([1.0, 0.5]))
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
        assert np.array_equal(euclidean_rigidity_matrix(dg.arcs, p), spatial)
        assert np.array_equal(conic_rigidity_matrix(ConicFramework(dg, p)),
                              np.hstack([spatial, bias]))
    # the distance matrix also takes a plain pair list, repeats included
    repeated = arcs + arcs[:3]
    spatial, _ = _loop_matrices(repeated, p)
    me = euclidean_rigidity_matrix(repeated, p)
    assert np.array_equal(me, spatial)
    assert euclidean_rigidity_matrix([], p).shape == (0, d * n)


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
    alone = nontrivial_flex(is_infinitesimally_rigid(fw))
    assert np.max(np.abs(q - alone)) < 1e-8
    report = is_infinitesimally_rigid(fw).report
    assert np.linalg.norm(conic_rigidity_matrix(fw) @ q) <= report.tolerance_used
    assert np.max(np.abs(trivial_space_basis(fw.config).T @ q)) < 1e-8


def _count_factorizations(monkeypatch):
    # every SVD and QR, with its shape and options, and every matrix build
    # and trivial basis the rigidity layer makes
    calls = {"svd": [], "qr": [], "build": 0, "trivial": 0}
    real_svd, real_qr = np.linalg.svd, np.linalg.qr
    real_build, real_trivial = rigidity.conic_rigidity_matrix, rigidity.trivial_space_basis

    def svd(a, *args, **kwargs):
        calls["svd"].append((np.shape(a), kwargs))
        return real_svd(a, *args, **kwargs)

    def qr(a, *args, **kwargs):
        calls["qr"].append((np.shape(a), kwargs))
        return real_qr(a, *args, **kwargs)

    def build(fw):
        calls["build"] += 1
        return real_build(fw)

    def trivial(p):
        calls["trivial"] += 1
        return real_trivial(p)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "qr", qr)
    monkeypatch.setattr(rigidity, "conic_rigidity_matrix", build)
    monkeypatch.setattr(rigidity, "trivial_space_basis", trivial)
    return calls


def test_check_takes_one_svd_of_the_constraint_matrix(tmp_path, monkeypatch):
    calls = _count_factorizations(monkeypatch)

    # short of arcs: one values-only SVD for the rank, one QR for the flex
    path, fw = _short_framework_file(tmp_path, 9, 2, seed=4)
    shape = (fw.graph.m, 3 * fw.n)
    assert cli.main(["check", path]) == 1
    assert [kw for s, kw in calls["svd"] if s == shape] == [{"compute_uv": False}]
    assert calls["qr"] == [(shape[::-1], {"mode": "complete"})]
    assert calls["build"] == calls["trivial"] == 1

    # rigid: the values-only SVD alone
    calls.update(svd=[], qr=[], build=0, trivial=0)
    complete = DirectedGraph(fw.n, [(u, w) for u in range(fw.n) for w in range(fw.n) if u != w])
    path, rigid = _framework_file(tmp_path, "complete.json", ConicFramework(complete, fw.config))
    assert cli.main(["check", path]) == 0
    shape = (rigid.graph.m, 3 * rigid.n)
    assert [kw for s, kw in calls["svd"] if s == shape] == [{"compute_uv": False}]
    assert calls["qr"] == []
    assert calls["build"] == calls["trivial"] == 1

    # enough arcs but flexible by rank (collinear agents): the full SVD
    # follows, on the matrix and trivial basis the verdict already holds
    calls.update(svd=[], qr=[], build=0, trivial=0)
    line = Configuration(np.outer(np.arange(1.0, fw.n + 1), [1.0, 2.0]), fw.config.biases)
    path, _ = _framework_file(tmp_path, "line.json", ConicFramework(complete, line))
    assert cli.main(["check", path]) == 1
    assert [kw for s, kw in calls["svd"] if s == shape] == [
        {"compute_uv": False},
        {"full_matrices": True},
    ]
    assert calls["qr"] == []
    assert calls["build"] == calls["trivial"] == 1


def _assert_flex(fw, q):
    assert q is not None
    a = conic_rigidity_matrix(fw)
    sigma_max = np.linalg.norm(a, 2) if a.size else 0.0
    assert np.linalg.norm(q) == pytest.approx(1.0)
    assert np.linalg.norm(a @ q) <= 1e-12 * sigma_max
    assert np.max(np.abs(trivial_space_basis(fw.config).T @ q)) < 1e-8


@given(
    st.integers(2, 7),
    st.integers(1, 3),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_arc_short_frameworks_always_have_a_flex(n, d, share, collinear, seed):
    rng = np.random.default_rng(seed)
    ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
    # any count short of s_conic, none included
    m = int(share * min(s_conic(n, d) - 1, len(ordered)))
    arcs = [ordered[i] for i in rng.choice(len(ordered), size=m, replace=False)]
    p = random_generic_configuration(n, d, seed)
    if collinear:
        # rank-deficient: every agent on one line through a random point
        positions = rng.random(d) + np.outer(rng.permutation(n) + 1.0, rng.random(d) + 0.5)
        p = Configuration(positions, p.biases)
    fw = ConicFramework(DirectedGraph(n, arcs), p)
    q = nontrivial_flex(is_infinitesimally_rigid(fw))
    _assert_flex(fw, q)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_flexible_verdicts_yield_a_flex_from_their_own_rank(data):
    # enough arcs, on special placements where flexible verdicts are common
    d = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(d + 2, 8))
    ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
    m = data.draw(st.integers(s_conic(n, d), len(ordered)))
    kind = data.draw(st.sampled_from(["collinear", "spherical", "grid"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    if kind == "collinear":
        positions = rng.random(d) + np.outer(rng.permutation(n) + 1.0, rng.random(d) + 0.5)
    elif kind == "spherical":
        v = rng.standard_normal((n, d))
        positions = rng.random(d) + v / np.linalg.norm(v, axis=1, keepdims=True)
    else:
        grid = np.array(list(itertools.product(range(-2, 3), repeat=d)), dtype=float)
        positions = grid[rng.choice(len(grid), size=n, replace=False)]
    arcs = [ordered[i] for i in rng.choice(len(ordered), size=m, replace=False)]
    fw = ConicFramework(DirectedGraph(n, arcs), Configuration(positions, rng.random(n) - 0.5))
    verdict = is_infinitesimally_rigid(fw)
    if verdict.rigid:
        return
    q = nontrivial_flex(verdict)
    assert q is not None
    assert np.linalg.norm(verdict.matrix @ q) <= 10 * verdict.report.tolerance_used
    assert np.max(np.abs(verdict.trivial_basis.T @ q)) < 1e-8


# seeds whose arcs are independent: most random picks on the line are not
@pytest.mark.parametrize("n,d,seed", [(5, 1, 3), (7, 2, 2), (6, 3, 3)])
def test_flex_of_a_full_row_rank_framework_matches_the_svd_kernel(tmp_path, n, d, seed):
    # one arc short of full row rank: the flex is unique up to sign
    _, fw = _short_framework_file(tmp_path, n, d, seed)
    a = conic_rigidity_matrix(fw)
    _, sigma, vt = np.linalg.svd(a, full_matrices=True)
    assert np.sum(sigma > 1e-8 * sigma[0]) == a.shape[0]
    t = trivial_space_basis(fw.config)
    null = vt[a.shape[0] :].T
    u, s, _ = np.linalg.svd(null - t @ (t.T @ null))
    assert s[1] < 1e-8 < s[0]
    ref = u[:, 0]
    q = nontrivial_flex(is_infinitesimally_rigid(fw))
    _assert_flex(fw, q)
    assert min(np.max(np.abs(q - ref)), np.max(np.abs(q + ref))) < 1e-8
