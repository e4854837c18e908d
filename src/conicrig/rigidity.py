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
from typing import Optional, Sequence

import numpy as np

from .frameworks import Configuration, ConicFramework
from .graphs import Pair


# relative SVD cutoff of every numeric rank decision
REL_TOL = 1e-10


def s_euclidean(n: int, d: int) -> int:
    """Generic rank ceiling of the distance-only matrix on n vertices."""
    if n >= d + 1:
        return d * n - math.comb(d + 1, 2)
    return math.comb(n, 2)


def s_conic(n: int, d: int) -> int:
    """Rank required for rigidity with biases: s_euclidean + n - 1."""
    return s_euclidean(n, d) + n - 1


@dataclass(frozen=True)
class RankReport:
    rank: int
    tolerance_used: float
    gap_ratio: float = float("inf")
    ill_conditioned: bool = False


def _ends(pairs: Sequence[Pair]) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head vertex of every pair, as index arrays."""
    ends = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


def euclidean_rigidity_matrix(pairs: Sequence[Pair], p: Configuration) -> np.ndarray:
    """Distance-constraint matrix, one row per pair, d*n columns."""
    n, d = p.n, p.d
    u, w = _ends(pairs)
    diff = p.positions[u] - p.positions[w]
    rows = np.arange(len(pairs))[:, None]
    block = np.arange(d)
    m = np.zeros((len(pairs), d * n))
    m[rows, d * u[:, None] + block] = diff
    m[rows, d * w[:, None] + block] = -diff
    return m


def conic_rigidity_matrix(fw: ConicFramework) -> np.ndarray:
    """Full constraint matrix [spatial blocks | bias columns]."""
    u, w = _ends(fw.graph.arcs)
    diff = fw.config.positions[u] - fw.config.positions[w]
    # row-wise diff . diff through the dot kernel np.linalg.norm uses on one
    # vector, so each distance is the per-arc norm to the last bit
    dists = np.sqrt((diff[:, None, :] @ diff[:, :, None]).reshape(-1))
    rows = np.arange(fw.graph.m)
    bias = np.zeros((fw.graph.m, fw.n))
    bias[rows, u] = -dists
    bias[rows, w] = dists
    return np.hstack([euclidean_rigidity_matrix(fw.graph.arcs, fw.config), bias])


def numeric_rank(m: np.ndarray) -> RankReport:
    """SVD rank with cutoff REL_TOL * sigma_max * max(rows, cols).

    One values-only SVD. The report flags the decision as
    ill-conditioned when the gap between the smallest kept and largest
    dropped singular value is under three orders of magnitude.
    """
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return RankReport(0, 0.0)
    sigma = np.linalg.svd(a, compute_uv=False)
    tol = REL_TOL * float(sigma[0]) * max(a.shape)
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
        tolerance_used=tol,
        gap_ratio=gap,
        ill_conditioned=gap < 1e3,
    )


def _orthonormal_columns(gen: np.ndarray, abs_tol: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the column span, by SVD, cut at
    1e-12 * sigma_max * max(rows, cols).

    abs_tol additionally drops directions whose singular value is small
    in absolute terms, which matters when gen is residual noise.
    """
    if gen.size == 0:
        return gen.reshape(gen.shape[0], 0)
    u, s, _ = np.linalg.svd(gen, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return gen[:, :0]
    keep = (s > 1e-12 * s[0] * max(gen.shape)) & (s > abs_tol)
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
    # what the verdict was computed from, so nontrivial_flex need not redo it
    matrix: np.ndarray = field(compare=False, repr=False)
    trivial_basis: np.ndarray = field(compare=False, repr=False)

    @property
    def trivial_dim(self) -> int:
        return self.trivial_basis.shape[1]


def is_infinitesimally_rigid(fw: ConicFramework) -> RigidityVerdict:
    """Rank test at the framework's own configuration.

    Rigid iff the constraint matrix reaches s_conic(n, d). The kernel
    and trivial-space dimensions are reported as a cross-check: at
    generic configurations rigidity is equivalent to every admissible
    velocity being trivial.
    """
    matrix = conic_rigidity_matrix(fw)
    report = numeric_rank(matrix)
    required = s_conic(fw.n, fw.d)
    return RigidityVerdict(
        rigid=report.rank == required,
        report=report,
        required_rank=required,
        kernel_dim=(fw.d + 1) * fw.n - report.rank,
        matrix=matrix,
        trivial_basis=trivial_space_basis(fw.config),
    )


def nontrivial_flex(verdict: RigidityVerdict) -> Optional[np.ndarray]:
    """A unit admissible velocity orthogonal to the trivial space, or
    None when no such direction exists beyond tolerance.

    Reads the matrix, trivial basis and rank of verdict. A matrix with
    fewer rows than the required rank takes its kernel from one complete
    QR of its transpose: the columns past the arc count are orthogonal to
    every row whatever the numeric rank, and outnumber the trivial
    motions, so such a framework always has a flex. Any other matrix
    keeps the right singular vectors past the rank from one full SVD.
    """
    a, t = verdict.matrix, verdict.trivial_basis
    if a.shape[0] < verdict.required_rank:
        null = np.linalg.qr(a.T, mode="complete")[0][:, a.shape[0] :]
    else:
        null = np.linalg.svd(a, full_matrices=True)[2][verdict.report.rank :].T
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
