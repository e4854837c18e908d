"""Exact rigidity test on the line.

In one dimension the verdict is combinatorial and configuration
dependent: split the arcs by the sign of x_w - x_u, keep the two
undirected shadow graphs, and require both to be connected. An
increasing arc pins v_u + a_u = v_w + a_w, and a decreasing arc pins
v_u - a_u = v_w - a_w.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .frameworks import ConicFramework
from .graphs import EuclideanGraph, Pair, connected_components

NEAR_TIE = 1e-12


class NearTieWarning(UserWarning):
    """An arc whose end positions differ by a nonzero gap below NEAR_TIE
    times the largest coordinate magnitude of the framework."""

    def __init__(self, arc: Pair, gap: float):
        super().__init__(
            f"arc ({arc[0]}, {arc[1]}) orders positions by a gap of {gap:.3e}; "
            "the strict ordering may not be meaningful"
        )
        self.arc = arc
        self.gap = gap


@dataclass(frozen=True)
class ArcSplit:
    """Arcs partitioned by coordinate order of tail and head."""

    increasing: tuple[Pair, ...]
    decreasing: tuple[Pair, ...]


@dataclass(frozen=True)
class OneDimVerdict:
    rigid: bool
    plus_components: tuple[tuple[int, ...], ...]
    minus_components: tuple[tuple[int, ...], ...]


def _require_line(fw: ConicFramework) -> np.ndarray:
    if fw.d != 1:
        raise ValueError(f"one-dimensional test called with d={fw.d}")
    return fw.config.positions[:, 0]


def split_arcs(fw: ConicFramework) -> ArcSplit:
    """Partition arcs by exact coordinate comparison.

    Comparison is exact; a NearTieWarning flags nonzero gaps below
    NEAR_TIE times the largest |coordinate|, where the strict ordering is
    numerically fragile.
    """
    x = _require_line(fw)
    tie = NEAR_TIE * float(np.max(np.abs(x), initial=0.0))
    inc, dec = [], []
    for u, w in fw.graph.arcs:
        gap = x[w] - x[u]
        if abs(gap) < tie:
            warnings.warn(NearTieWarning((u, w), gap), stacklevel=2)
        (inc if gap > 0 else dec).append((u, w))
    return ArcSplit(tuple(inc), tuple(dec))


def _shadow(n: int, arcs: tuple[Pair, ...]) -> EuclideanGraph:
    return EuclideanGraph(n, [(min(a), max(a)) for a in arcs])


def is_rigid_1d(fw: ConicFramework) -> OneDimVerdict:
    """Rigid iff both split shadow graphs are connected (exact test)."""
    split = split_arcs(fw)
    n = fw.n
    plus = connected_components(_shadow(n, split.increasing))
    minus = connected_components(_shadow(n, split.decreasing))
    return OneDimVerdict(
        rigid=len(plus) == 1 and len(minus) == 1,
        plus_components=tuple(tuple(c) for c in plus),
        minus_components=tuple(tuple(c) for c in minus),
    )


def flex_witness_1d(verdict: OneDimVerdict) -> Optional[np.ndarray]:
    """A nontrivial admissible velocity (v_1..v_n, a_1..a_n) of the
    framework is_rigid_1d judged, or None when it is rigid.

    When the decreasing shadow graph is disconnected, one of its
    components moves with (v, a) = (1, -1); this keeps v + a = 0
    everywhere, so increasing arcs stay satisfied no matter how they
    cross, and decreasing arcs never cross the component boundary.
    Symmetrically for a disconnected increasing shadow with (1, +1).
    """
    if verdict.rigid:
        return None
    n = sum(len(c) for c in verdict.plus_components)
    q = np.zeros(2 * n)
    if len(verdict.minus_components) > 1:
        side, a_sign = verdict.minus_components[0], -1.0
    else:
        side, a_sign = verdict.plus_components[0], 1.0
    for u in side:
        q[u] = 1.0
        q[n + u] = a_sign
    return q
