"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: exhaustive subset counting,
exact rational elimination, plain union-find, numeric ranks at
placements of its own. Slow but transparently correct on small inputs,
which is what an oracle needs to be.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from conicrig import (
    ConicFramework,
    conic_rigidity_matrix,
    numeric_rank,
    orient,
    random_generic_configuration,
    s_conic,
)

# placements of generic_conic_rank, seeded _SEED, _SEED + 1, ...
_TRIALS = 5
_SEED = 1000


def exact_rank(rows) -> int:
    """Rank over the rationals by Gaussian elimination.

    Float entries are converted exactly (every float is a dyadic
    rational), so this is the true rank of the stored matrix, free of
    any tolerance choice.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        m[rank] = [x / lead for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def count_components(n: int, edges) -> int:
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, w in edges:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
    return len({find(v) for v in range(n)})


def sparsity_independent(n: int, edges) -> bool:
    """Counting test: every vertex subset on k >= 2 vertices may span at
    most 2k - 3 of the given edges. Repeated edges always fail."""
    es = [tuple(sorted(e)) for e in edges]
    if len(set(es)) != len(es):
        return False
    for k in range(2, n + 1):
        for sub in combinations(range(n), k):
            s = set(sub)
            if sum(1 for u, w in es if u in s and w in s) > 2 * k - 3:
                return False
    return True


def sparsity_rank(n: int, edges) -> int:
    """Greedy maximal counting-independent subset; greedy is exact here
    because these subsets form a matroid."""
    picked: list[tuple[int, int]] = []
    for e in sorted({tuple(sorted(e)) for e in edges}):
        if sparsity_independent(n, picked + [e]):
            picked.append(e)
    return len(picked)


def generic_conic_rank(cg, d: int) -> int:
    """Largest numeric rank of the conic graph cg at _TRIALS placements,
    stopping at the first that reaches min(s_conic(n, d), arc count).

    The placements are not RigidityOracle's, which decompose already
    cross-checks against, so a verdict compared with this rank can
    disagree.
    """
    ceiling = min(s_conic(cg.n, d), cg.edge_count)
    dg = orient(cg)
    rank = 0
    for seed in range(_SEED, _SEED + _TRIALS):
        p = random_generic_configuration(cg.n, d, seed)
        rank = max(rank, numeric_rank(conic_rigidity_matrix(ConicFramework(dg, p))).rank)
        if rank == ceiling:
            break
    return rank
