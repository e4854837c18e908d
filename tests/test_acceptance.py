"""End-to-end acceptance checks.

Each test is one acceptance criterion and prints one PASS/FAIL line
(visible with -s, or in the failure report otherwise); under -v the
test outcome itself is the per-criterion line. Randomized criteria use
fixed seeds, so the whole module is deterministic.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout

import numpy as np

from conicrig import (
    Configuration,
    ConicFramework,
    DirectedGraph,
    EuclideanGraph,
    RigidityOracle,
    arc_pseudo_ranges,
    conic_class,
    conic_rigidity_matrix,
    decompose,
    euclidean_rigidity_matrix,
    extend_to_minimally_rigid,
    flex_witness_1d,
    fundamental_circuit,
    is_decomposition_of,
    is_rigid_1d,
    numeric_rank,
    random_generic_configuration,
    s_conic,
    s_euclidean,
    swap,
    union,
)
from conicrig.cli import main as cli_main
from conicrig.decompose import apply_swap_chain, select_swap_chain
from conicrig.flexcurves import (
    build_flex_curve,
    make_ellipse_framework,
    make_hyperbola_framework,
    make_pinned_framework,
    sample_flex,
)
from conicrig.graphs import connected_components, find_cycle
from conicrig.pebble import PebbleState
from golden import (
    CHAIN7_G,
    CHAIN7_H,
    CHAIN7_H_AFTER,
    CHAIN7_SIGMAS,
    CHAIN7_STEPS,
    G1,
    G2,
    G2_CIRCUIT_12,
    GAMMA5,
    GAMMA5_FINAL_G,
    GAMMA5_FINAL_H,
    H2_COMPONENTS,
    QUAD_FLEX_COORDS,
    QUAD_RIGID_COORDS,
    quad_framework,
)
from oracles import generic_conic_rank


def report(number, name, ok):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def random_directed_framework(rng, n, d, max_arcs):
    ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
    m = int(rng.integers(1, min(max_arcs, len(ordered)) + 1))
    idx = rng.choice(len(ordered), size=m, replace=False)
    graph = DirectedGraph(n, [ordered[i] for i in idx])
    config = random_generic_configuration(n, d, int(rng.integers(0, 2**31)))
    return ConicFramework(graph, config)


def test_01_planar_reference_fixtures():
    ranks = [
        numeric_rank(conic_rigidity_matrix(make_hyperbola_framework())).rank,
        numeric_rank(conic_rigidity_matrix(make_ellipse_framework())).rank,
        numeric_rank(conic_rigidity_matrix(make_pinned_framework())).rank,
    ]
    ok = ranks[0] == 4 < s_conic(3, 2) and ranks[1] == 4 and ranks[2] == s_conic(4, 2) == 8
    report(1, "three-agent flexes, four-agent rigid", ok)


def test_02_line_placements_decide_rigidity():
    flexible = quad_framework(QUAD_FLEX_COORDS)
    rigid = quad_framework(QUAD_RIGID_COORDS)
    flexible_verdict, rigid_verdict = is_rigid_1d(flexible), is_rigid_1d(rigid)
    q = flex_witness_1d(flexible_verdict)
    residual = float(np.linalg.norm(conic_rigidity_matrix(flexible) @ q))
    ok = (
        not flexible_verdict.rigid
        and residual <= 1e-10
        and rigid_verdict.rigid
        and flex_witness_1d(rigid_verdict) is None
    )
    report(2, "same arcs, placement flips the verdict", ok)


def test_03_line_exact_verdict_agrees_with_numeric_rank():
    rng = np.random.default_rng(303)
    disagreements = 0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        fw = random_directed_framework(rng, n, 1, 3 * n)
        exact = is_rigid_1d(fw).rigid
        numeric = numeric_rank(conic_rigidity_matrix(fw)).rank == s_conic(n, 1)
        disagreements += exact != numeric
    report(3, "500 line frameworks, exact vs numeric", disagreements == 0)


def test_04_arc_direction_never_changes_the_rank():
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        fw = random_directed_framework(rng, n, 2, 2 * n + 4)
        base = numeric_rank(conic_rigidity_matrix(fw)).rank
        arcs = set(fw.graph.arcs)
        for i, (u, w) in enumerate(fw.graph.arcs):
            if (w, u) in arcs:
                continue  # reversal would collide with an existing arc
            flipped = list(fw.graph.arcs)
            flipped[i] = (w, u)
            fw2 = ConicFramework(DirectedGraph(n, flipped), fw.config)
            violations += numeric_rank(conic_rigidity_matrix(fw2)).rank != base
    report(4, "200 frameworks, every single-arc flip keeps rank", violations == 0)


def test_05_constructive_and_numeric_verdicts_agree():
    rng = np.random.default_rng(505)
    oracles = {}
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        count = s_conic(n, 2) + int(rng.integers(-2, 3))
        ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
        take = min(max(count, 0), len(ordered))
        idx = rng.choice(len(ordered), size=take, replace=False)
        cg = conic_class(DirectedGraph(n, [ordered[i] for i in idx]))
        oracle = oracles.setdefault(n, RigidityOracle(n, 2))
        dec, _ = decompose(cg, oracle)
        mismatches += (dec is not None) != (generic_conic_rank(cg, 2) == s_conic(n, 2))
        if dec is not None and not is_decomposition_of(dec, cg):
            mismatches += 1
    report(5, "200 conic graphs, decomposition vs rank", mismatches == 0)


def test_06_basis_plus_tree_always_reaches_full_rank():
    rng = np.random.default_rng(606)
    oracles = {}
    failures = 0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        oracle = oracles.setdefault(n, RigidityOracle(n, 2))
        pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
        pool = [pairs[i] for i in rng.permutation(len(pairs))]
        basis = extend_to_minimally_rigid([], pool, oracle)
        # random spanning tree from an independently shuffled pool
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        tree = []
        for u, w in (pairs[i] for i in rng.permutation(len(pairs))):
            ru, rw = find(u), find(w)
            if ru != rw:
                parent[ru] = rw
                tree.append((u, w))
        cg = union(EuclideanGraph(n, basis), EuclideanGraph(n, tree))
        failures += oracle.conic_rank(cg) != s_euclidean(n, 2) + n - 1
    report(6, "100 basis+tree unions reach full rank", failures == 0)


def test_07_golden_decomposition_traces():
    oracle5 = RigidityOracle(5, 2)
    ok = tuple(tuple(c) for c in connected_components(
        EuclideanGraph(5, ((0, 1), (1, 2), (1, 3), (2, 3)))
    )) == H2_COMPONENTS
    ok = ok and fundamental_circuit(G2.edges, (1, 2), oracle5) == G2_CIRCUIT_12
    ok = ok and swap(G2.edges, (1, 2), (2, 4), oracle5) == G1.edges
    dec5, trace5 = decompose(GAMMA5, oracle5)
    ok = ok and dec5 is not None
    ok = ok and (trace5.final_g, trace5.final_h) == (GAMMA5_FINAL_G, GAMMA5_FINAL_H)

    oracle7 = RigidityOracle(7, 2)
    chain = select_swap_chain(CHAIN7_G, CHAIN7_H, find_cycle(CHAIN7_H), oracle7)
    ok = ok and chain is not None
    ok = ok and tuple((s.uv, s.wz, s.z) for s in chain) == CHAIN7_STEPS
    dec7, exchanges = apply_swap_chain(CHAIN7_G, CHAIN7_H, chain, oracle7)
    ok = ok and tuple(x.sigma for x in exchanges) == CHAIN7_SIGMAS
    ok = ok and dec7.h.edges == CHAIN7_H_AFTER
    ok = ok and len(connected_components(dec7.h)) == 1
    ok = ok and PebbleState(7).insert_all(dec7.g.edges) == s_euclidean(7, 2)
    report(7, "frozen swap chains reproduce exactly", ok)


def test_08_pebble_game_matches_numeric_rank():
    rng = np.random.default_rng(808)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
        m = int(rng.integers(0, len(pairs) + 1))
        idx = rng.choice(len(pairs), size=m, replace=False)
        g = EuclideanGraph(n, [pairs[i] for i in idx])
        numeric = max(
            numeric_rank(
                euclidean_rigidity_matrix(
                    g.edges, random_generic_configuration(n, 2, 42 + s)
                )
            ).rank
            for s in range(5)
        )
        mismatches += PebbleState(n).insert_all(g.edges) != numeric
    report(8, "200 graphs, counting rank vs generic rank", mismatches == 0)


def test_09_flex_curves_preserve_measurements():
    ok = True
    for maker, span in ((make_hyperbola_framework, 0.5), (make_ellipse_framework, np.pi)):
        fw = maker()
        curve = build_flex_curve(fw)
        samples = sample_flex(curve, 100, span=span)
        base = arc_pseudo_ranges(fw)
        for s in samples:
            positions = fw.config.positions.copy()
            biases = fw.config.biases.copy()
            positions[curve.moving] = s.position
            biases[curve.moving] = s.bias
            moved = ConicFramework(fw.graph, Configuration(positions, biases))
            ok = ok and float(np.max(np.abs(arc_pseudo_ranges(moved) - base))) <= 1e-9
    # along the hyperbola the bias falls as the anchor distance grows
    fw = make_hyperbola_framework()
    curve = build_flex_curve(fw)
    by_distance = sorted(
        (float(np.linalg.norm(s.position - fw.config.positions[0])), s.bias)
        for s in sample_flex(curve, 100, span=0.5)
    )
    biases = [b for _, b in by_distance]
    ok = ok and all(b2 < b1 for b1, b2 in zip(biases, biases[1:]))
    report(9, "100 curve samples per conic, drift <= 1e-9", ok)


def test_10_arc_count_comparison():
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc_a = cli_main(["compare", "4"])
        rc_b = cli_main(["compare", "100", "--d", "3"])
    out = buf.getvalue()
    ok = (
        rc_a == 0
        and rc_b == 0
        and "one-way arcs for rigidity: 8" in out
        and "two-way arcs (both directions on a rigid graph): 10" in out
        and "saving as the fleet grows: 25.0%" in out
        and "saving as the fleet grows: 33.3%" in out
    )
    report(10, "one-way vs two-way arc counts", ok)
