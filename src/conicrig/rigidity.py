"""Rigidity matrices and numeric rank tests.

The constraint matrix of a framework has one row per arc. For arc
(u, w) the spatial blocks hold (x_u - x_w)^T at u and its negative at
w; the bias columns hold -d_uw at u and +d_uw at w, where d_uw is the
spatial distance. A framework is infinitesimally rigid exactly when
this matrix reaches rank s_conic(n, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .frameworks import Configuration, ConicFramework
from .graphs import DirectedGraph, EuclideanGraph, Pair, incidence_transpose

EdgeInput = Union[Sequence[Pair], EuclideanGraph, DirectedGraph]


def s_euclidean(n: int, d: int) -> int:
    """Generic rank ceiling of the distance-only matrix on n vertices."""
    if n >= d + 1:
        return d * n - math.comb(d + 1, 2)
    return math.comb(n, 2)


def s_conic(n: int, d: int) -> int:
    """Rank required for rigidity with biases: s_euclidean + n - 1."""
    return s_euclidean(n, d) + n - 1


@dataclass(frozen=True)
class TolerancePolicy:
    """Numeric rank controls: relative SVD cutoff, number of random
    configurations for generic queries, and the base seed."""

    rel_tol: float = 1e-10
    trials: int = 5
    base_seed: int = 42


@dataclass(frozen=True)
class RankReport:
    rank: int
    singular_values: tuple[float, ...]
    tolerance_used: float
    trials: int = 1
    gap_ratio: float = float("inf")
    ill_conditioned: bool = False
    # orthonormal kernel basis as columns, when numeric_rank was asked for it
    kernel: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class RigidityMatrix:
    """Dense constraint matrix plus its row labels (arcs or edges)."""

    matrix: np.ndarray
    rows: tuple[Pair, ...]
    n: int
    d: int

    @property
    def has_bias_block(self) -> bool:
        return self.matrix.shape[1] == (self.d + 1) * self.n


def _as_pairs(edges: EdgeInput) -> tuple[Pair, ...]:
    if isinstance(edges, EuclideanGraph):
        return edges.edges
    if isinstance(edges, DirectedGraph):
        return edges.arcs
    return tuple((int(u), int(w)) for u, w in edges)


def _ends(pairs: Sequence[Pair]) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head vertex of every pair, as index arrays."""
    ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


def euclidean_rigidity_matrix(edges: EdgeInput, p: Configuration) -> RigidityMatrix:
    """Distance-constraint matrix, one row per pair, d*n columns."""
    pairs = _as_pairs(edges)
    n, d = p.n, p.d
    u, w = _ends(pairs)
    diff = p.positions[u] - p.positions[w]
    rows = np.arange(len(pairs))[:, None]
    block = np.arange(d)
    m = np.zeros((len(pairs), d * n))
    m[rows, d * u[:, None] + block] = diff
    m[rows, d * w[:, None] + block] = -diff
    return RigidityMatrix(m, pairs, n, d)


def bias_matrix(dg: DirectedGraph, p: Configuration) -> np.ndarray:
    """Bias columns: the arc-distance diagonal times the signed incidence."""
    u, w = _ends(dg.arcs)
    diff = p.positions[u] - p.positions[w]
    # row-wise diff . diff through the dot kernel np.linalg.norm uses on one
    # vector, so each distance is the per-arc norm to the last bit
    dists = np.sqrt((diff[:, None, :] @ diff[:, :, None]).reshape(-1))
    return dists[:, None] * incidence_transpose(dg)


def conic_rigidity_matrix(fw: ConicFramework) -> RigidityMatrix:
    """Full constraint matrix [spatial blocks | bias columns]."""
    me = euclidean_rigidity_matrix(fw.graph, fw.config)
    b = bias_matrix(fw.graph, fw.config)
    return RigidityMatrix(np.hstack([me.matrix, b]), fw.graph.arcs, fw.n, fw.d)


def numeric_rank(
    m: Union[np.ndarray, RigidityMatrix], rel_tol: float = 1e-10, kernel: bool = False
) -> RankReport:
    """SVD rank with cutoff rel_tol * sigma_max * max(rows, cols).

    The report keeps the spectrum and flags the decision as
    ill-conditioned when the gap between the smallest kept and largest
    dropped singular value is under three orders of magnitude. With
    kernel=True the same single SVD also yields an orthonormal basis of
    the right kernel (the singular vectors past the rank), reported as
    a copy so the full factor is freed.
    """
    a = m.matrix if isinstance(m, RigidityMatrix) else np.asarray(m, dtype=float)
    return _svd_rank(a, rel_tol, kernel)


def _svd_rank(a: np.ndarray, rel_tol: float, kernel: bool) -> RankReport:
    # nontrivial_flex calls this directly: looking for a flex is not a rank test
    if a.size == 0:
        null = np.eye(a.shape[1]) if kernel else None
        return RankReport(0, (), 0.0, kernel=null)
    if kernel:
        _, sigma, vt = np.linalg.svd(a, full_matrices=True)
    else:
        sigma = np.linalg.svd(a, compute_uv=False)
    tol = rel_tol * float(sigma[0]) * max(a.shape)
    rank = int(np.sum(sigma > tol))
    if rank == 0:
        gap = float("inf")
    elif rank == len(sigma):
        gap = float(sigma[rank - 1]) / tol if tol > 0 else float("inf")
    else:
        dropped = float(sigma[rank])
        gap = float(sigma[rank - 1]) / dropped if dropped > 0 else float("inf")
    return RankReport(
        rank=rank,
        singular_values=tuple(float(s) for s in sigma),
        tolerance_used=tol,
        trials=1,
        gap_ratio=gap,
        ill_conditioned=gap < 1e3,
        kernel=vt[rank:].T.copy() if kernel else None,
    )


def _orthonormal_columns(
    gen: np.ndarray, rel_tol: float = 1e-12, abs_tol: float = 0.0
) -> np.ndarray:
    """Orthonormal basis of the column span, by SVD.

    abs_tol additionally drops directions whose singular value is small
    in absolute terms, which matters when gen is residual noise.
    """
    if gen.size == 0:
        return gen.reshape(gen.shape[0], 0)
    u, s, _ = np.linalg.svd(gen, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return gen[:, :0]
    keep = (s > rel_tol * s[0] * max(gen.shape)) & (s > abs_tol)
    return u[:, : int(np.sum(keep))]


def trivial_space_basis(p: Configuration) -> np.ndarray:
    """Orthonormal basis of the always-admissible velocities.

    Generators: d spatial translations, the C(d,2) infinitesimal
    rotations of the positions, and the uniform bias shift. The span
    can degenerate for special position sets, hence the column count is
    the numeric dimension, at most C(d+1, 2) + 1.
    """
    n, d = p.n, p.d
    cols = []
    for i in range(d):
        v = np.zeros((n, d))
        v[:, i] = 1.0
        cols.append(np.concatenate([v.ravel(), np.zeros(n)]))
    for i in range(d):
        for j in range(i + 1, d):
            v = np.zeros((n, d))
            v[:, i] = -p.positions[:, j]
            v[:, j] = p.positions[:, i]
            cols.append(np.concatenate([v.ravel(), np.zeros(n)]))
    cols.append(np.concatenate([np.zeros(n * d), np.ones(n)]))
    return _orthonormal_columns(np.column_stack(cols))


@dataclass(frozen=True)
class RigidityVerdict:
    rigid: bool
    report: RankReport
    required_rank: int
    kernel_dim: int
    trivial_dim: int


def is_infinitesimally_rigid(
    fw: ConicFramework, policy: TolerancePolicy = TolerancePolicy()
) -> RigidityVerdict:
    """Rank test at the framework's own configuration.

    Rigid iff the constraint matrix reaches s_conic(n, d). The kernel
    and trivial-space dimensions are reported as a cross-check: at
    generic configurations rigidity is equivalent to every admissible
    velocity being trivial.
    """
    required = s_conic(fw.n, fw.d)
    # with fewer arcs than the required rank the framework is flexible and
    # the next question is its flex, so the one SVD keeps the kernel too
    report = numeric_rank(
        conic_rigidity_matrix(fw), rel_tol=policy.rel_tol, kernel=fw.graph.m < required
    )
    kernel_dim = (fw.d + 1) * fw.n - report.rank
    trivial_dim = trivial_space_basis(fw.config).shape[1]
    return RigidityVerdict(
        rigid=report.rank == required,
        report=report,
        required_rank=required,
        kernel_dim=kernel_dim,
        trivial_dim=trivial_dim,
    )


def nontrivial_flex(
    fw: ConicFramework, rel_tol: float = 1e-10, kernel: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """A unit admissible velocity orthogonal to the trivial space, or
    None when no such direction exists beyond tolerance.

    kernel is an orthonormal kernel basis of the constraint matrix, as
    the report of is_infinitesimally_rigid carries it for frameworks
    short of arcs; without one the matrix is built and factored here.
    """
    null = kernel
    if null is None:
        null = _svd_rank(conic_rigidity_matrix(fw).matrix, rel_tol, kernel=True).kernel
    if null.shape[1] == 0:
        return None
    t = trivial_space_basis(fw.config)
    resid = null - t @ (t.T @ null)
    q = _orthonormal_columns(resid, abs_tol=1e-8)
    if q.shape[1] == 0:
        return None
    flex = q[:, 0]
    # fix the sign for determinism
    nz = np.flatnonzero(np.abs(flex) > 1e-12)
    if nz.size and flex[nz[0]] < 0:
        flex = -flex
    return flex
