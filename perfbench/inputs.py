"""Seeded input generators for the benchmark, each labelled with its verdict.

Every label comes from the construction (a rigid G plus a spanning tree H,
a removed arc, two blocks joined by too few arcs) or from this module's own
union-find on the line. None comes from the program under test, which this
module never imports. Vertex indices are 0..n-1; a conic graph is a pair of
sorted edge lists (simple, double), as in the program's graph files.
"""

from __future__ import annotations

import math

import numpy as np

Pair = tuple[int, int]


def s_euclidean(n: int, d: int) -> int:
    return d * n - math.comb(d + 1, 2) if n >= d + 1 else math.comb(n, 2)


def s_conic(n: int, d: int) -> int:
    return s_euclidean(n, d) + n - 1


def _pair(u: int, w: int) -> Pair:
    return (u, w) if u < w else (w, u)


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parts = n

    def find(self, v: int) -> int:
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, u: int, w: int) -> bool:
        ru, rw = self.find(u), self.find(w)
        if ru == rw:
            return False
        self.parent[ru] = rw
        self.parts -= 1
        return True


def connected(n: int, edges) -> bool:
    uf = UnionFind(n)
    for u, w in edges:
        uf.union(u, w)
    return uf.parts == 1


# -- rigid parts ---------------------------------------------------------------


def henneberg_basis(n: int, d: int, rng: np.random.Generator) -> set[Pair]:
    """Generically minimally rigid graph in R^d by 0-extensions.

    Start from the complete graph on d+1 vertices, then join each new vertex
    to d distinct earlier ones; vertex labels are shuffled at the end.
    """
    if n < d + 1:
        raise ValueError("need n >= d + 1")
    edges = [(u, w) for u in range(d + 1) for w in range(u + 1, d + 1)]
    for v in range(d + 1, n):
        edges.extend((int(u), v) for u in rng.choice(v, size=d, replace=False))
    perm = rng.permutation(n)
    return {_pair(int(perm[u]), int(perm[w])) for u, w in edges}


def euclidean_rows(edges, positions: np.ndarray) -> np.ndarray:
    """Distance-constraint matrix of an edge list at the given positions."""
    n, d = positions.shape
    rows = np.zeros((len(edges), n * d))
    for i, (u, w) in enumerate(edges):
        diff = positions[u] - positions[w]
        rows[i, d * u : d * (u + 1)] = diff
        rows[i, d * w : d * (w + 1)] = -diff
    return rows


def greedy_basis(pool, n: int, d: int, rng: np.random.Generator) -> set[Pair]:
    """Minimally rigid subset of a pool, scanned in order, as `design` builds it.

    Independence is decided by Gram-Schmidt on rigidity-matrix rows at one
    random placement, which is generic with probability one. Meant for the
    small n of the decompose workloads.
    """
    positions = rng.random((n, d))
    target = s_euclidean(n, d)
    basis: list[np.ndarray] = []
    chosen: set[Pair] = set()
    for e in pool:
        if len(chosen) == target:
            break
        row = euclidean_rows([e], positions)[0]
        resid = row.copy()
        for q in basis:
            resid -= (q @ resid) * q
        norm = float(np.linalg.norm(resid))
        if norm > 1e-8 * float(np.linalg.norm(row)):
            basis.append(resid / norm)
            chosen.add(e)
    if len(chosen) != target:
        raise ValueError("pool does not span the rigidity matroid")
    return chosen


def random_spanning_tree(n: int, rng: np.random.Generator, prefer=()) -> set[Pair]:
    """Random spanning tree; with `prefer`, a random-order Kruskal tree that
    takes pairs outside `prefer` first, as `design` does."""
    if not prefer:
        order = rng.permutation(n)
        return {
            _pair(int(order[i]), int(order[rng.integers(i)])) for i in range(1, n)
        }
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    pool = [pairs[i] for i in rng.permutation(len(pairs))]
    ordered = [e for e in pool if e not in prefer] + [e for e in pool if e in prefer]
    uf = UnionFind(n)
    return {e for e in ordered if uf.union(*e)}


def conic_union(g: set[Pair], h: set[Pair]) -> tuple[list[Pair], list[Pair]]:
    """Shared pairs become double edges, the rest stay simple."""
    return sorted(g ^ h), sorted(g & h)


def design_style(n: int, d: int, rng: np.random.Generator) -> tuple[list, list]:
    """Rigid conic graph built like `design`: a greedy basis over all pairs in
    random order plus a spanning tree that prefers pairs outside the basis."""
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    pool = [pairs[i] for i in rng.permutation(len(pairs))]
    g = greedy_basis(pool, n, d, rng)
    return conic_union(g, random_spanning_tree(n, rng, prefer=g))


def henneberg_tree(n: int, d: int, rng: np.random.Generator) -> tuple[list, list]:
    """Rigid conic graph: Henneberg basis G plus a random spanning tree H."""
    return conic_union(henneberg_basis(n, d, rng), random_spanning_tree(n, rng))


def arc_count(simple, double) -> int:
    return len(simple) + 2 * len(double)


def with_surplus(simple, double, n: int, k: int, rng: np.random.Generator, within=None):
    """Add k arcs to a conic graph, on pairs drawn from `within` (default: all
    pairs): fresh pairs become simple edges, simple edges become double.
    Rigidity is kept."""
    simple, double = set(simple), set(double)
    pairs = within or [(u, w) for u in range(n) for w in range(u + 1, n)]
    free = [e for e in pairs if e not in double]
    if k > sum(1 if e in simple else 2 for e in free):
        raise ValueError(f"no room for {k} more arcs")
    while k > 0:
        e = free[int(rng.integers(len(free)))]
        if e in double:
            continue
        if e in simple:
            simple.discard(e)
            double.add(e)
        else:
            simple.add(e)
        k -= 1
    return sorted(simple), sorted(double)


def thinned(simple, double, rng: np.random.Generator):
    """Remove one arc: a double edge becomes simple, or a simple edge goes."""
    simple, double = list(simple), list(double)
    i = int(rng.integers(len(simple) + len(double)))
    if i < len(simple):
        simple.pop(i)
    else:
        simple.append(double.pop(i - len(simple)))
    return sorted(simple), sorted(double)


def two_blocks(n: int, d: int, rng: np.random.Generator):
    """Flexible graph with at least s_conic(n, d) arcs, and its first block.

    Two rigid blocks on a split of the vertices are joined by C(d+1, 2)
    arcs, one fewer than fixing their relative motion needs, so the rank is
    at most s_conic(n, d) - 1 at every placement. Surplus arcs inside the
    blocks bring the count to s_conic(n, d) + n // 4.
    """
    a = n // 2
    perm = [int(v) for v in rng.permutation(n)]
    side_a, side_b = perm[:a], perm[a:]
    simple, double = set(), set()
    for side in (side_a, side_b):
        s, dd = design_style(len(side), d, rng)
        simple |= {_pair(side[u], side[w]) for u, w in s}
        double |= {_pair(side[u], side[w]) for u, w in dd}
    cross = set()
    while len(cross) < math.comb(d + 1, 2):
        cross.add(_pair(side_a[rng.integers(a)], side_b[rng.integers(n - a)]))
    simple |= cross
    missing = s_conic(n, d) + n // 4 - arc_count(simple, double)
    inside = [_pair(u, w) for side in (side_a, side_b) for u in side for w in side if u < w]
    simple, double = with_surplus(simple, double, n, missing, rng, within=inside)
    return simple, double, sorted(side_a)


# -- placed frameworks -----------------------------------------------------------


def orient_arcs(simple, double, rng: np.random.Generator) -> list[Pair]:
    """Both arcs of every double edge and one random direction per simple edge."""
    arcs = [a for u, w in double for a in ((u, w), (w, u))]
    arcs.extend((w, u) if rng.random() < 0.5 else (u, w) for u, w in simple)
    return arcs


def line_arcs(n: int, m: int, rng: np.random.Generator) -> list[Pair]:
    """m distinct random arcs on n vertices."""
    ordered = [(u, w) for u in range(n) for w in range(n) if u != w]
    return [ordered[i] for i in sorted(rng.choice(len(ordered), size=m, replace=False))]


def line_rigid(positions: np.ndarray, arcs) -> bool:
    """Exact test on the line by union-find: both shadow graphs, of the arcs
    whose head lies right of the tail and of those whose head lies left,
    must connect every vertex."""
    x = positions[:, 0]
    n = len(x)
    inc = [(u, w) for u, w in arcs if x[w] > x[u]]
    dec = [(u, w) for u, w in arcs if x[w] < x[u]]
    return connected(n, inc) and connected(n, dec)


def framework_dict(positions: np.ndarray, biases: np.ndarray, arcs) -> dict:
    """Framework file in the program's JSON format, integer vertex ids."""
    return {
        "dimension": int(positions.shape[1]),
        "vertices": [
            {"id": i, "position": [float(c) for c in positions[i]], "bias": float(biases[i])}
            for i in range(len(positions))
        ],
        "arcs": [[int(u), int(w)] for u, w in arcs],
    }


def graph_dict(n: int, d: int, simple, double) -> dict:
    """Conic graph file in the program's JSON format."""
    return {
        "dimension": d,
        "n": n,
        "simple_edges": [[int(u), int(w)] for u, w in simple],
        "double_edges": [[int(u), int(w)] for u, w in double],
    }


def placed(simple, double, n: int, d: int, rng: np.random.Generator) -> dict:
    """Orient a conic graph and place it uniformly at random in [0, 1)^(d+1)."""
    arcs = orient_arcs(simple, double, rng)
    return framework_dict(rng.random((n, d)), rng.random(n), arcs)
