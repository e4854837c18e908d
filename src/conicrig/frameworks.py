"""Configurations, frameworks, and conic-graph algebra.

A configuration assigns each agent a spatial position in R^d plus a
clock bias in length units, i.e. a point of R^(d+1). A framework pairs
a directed graph with a configuration; its conic class forgets arc
directions but remembers which pairs carry both arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import ConicGraph, DirectedGraph, EuclideanGraph


def _first_coincident_pair(pos: np.ndarray) -> Optional[tuple[int, int]]:
    """The first (u, w), u < w, in lexicographic order whose rows compare
    equal as floats (so -0.0 == 0.0).

    A stable sort puts equal rows next to each other in index order, so
    the answer is the adjacent pair whose left row index is smallest.
    """
    n, d = pos.shape
    order = np.lexsort(pos.T) if d else np.arange(n)
    rows = pos[order]
    same = np.flatnonzero(np.all(rows[1:] == rows[:-1], axis=1))
    if same.size == 0:
        return None
    i = same[np.argmin(order[same])]
    return int(order[i]), int(order[i + 1])


@dataclass(frozen=True, eq=False)
class Configuration:
    """Positions (n, d) and biases (n,), all finite. Positions must be
    pairwise distinct."""

    positions: np.ndarray
    biases: np.ndarray

    def __init__(self, positions, biases):
        pos = np.array(positions, dtype=float)
        bias = np.array(biases, dtype=float)
        if pos.ndim != 2:
            raise ValueError("positions must be an (n, d) array")
        if bias.shape != (pos.shape[0],):
            raise ValueError("biases must be a length-n vector")
        finite = {"position": np.isfinite(pos).all(axis=1), "bias": np.isfinite(bias)}
        for what, ok in finite.items():
            if not ok.all():
                raise ValueError(f"vertex {int(np.argmin(ok))} has a non-finite {what}")
        coincident = _first_coincident_pair(pos)
        if coincident is not None:
            u, w = coincident
            raise ValueError(f"coincident positions at vertices {u} and {w}")
        pos.setflags(write=False)
        bias.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "biases", bias)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]

    def point(self, u: int) -> np.ndarray:
        """Stacked point (x_u, beta_u) in R^(d+1)."""
        return np.concatenate([self.positions[u], [self.biases[u]]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return np.array_equal(self.positions, other.positions) and np.array_equal(
            self.biases, other.biases
        )


@dataclass(frozen=True, eq=False)
class ConicFramework:
    """A directed graph together with a configuration on its vertices."""

    graph: DirectedGraph
    config: Configuration

    def __post_init__(self):
        if self.graph.n != self.config.n:
            raise ValueError(
                f"graph has {self.graph.n} vertices, configuration has {self.config.n}"
            )

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def d(self) -> int:
        return self.config.d

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConicFramework):
            return NotImplemented
        return self.graph == other.graph and self.config == other.config


@dataclass(frozen=True)
class Decomposition:
    """An ordered pair of Euclidean graphs on a common vertex set."""

    g: EuclideanGraph
    h: EuclideanGraph

    def __post_init__(self):
        if self.g.n != self.h.n:
            raise ValueError("decomposition parts disagree on vertex count")


def pseudo_range(p_e: np.ndarray, p_r: np.ndarray) -> float:
    """One-way range between emitter and receiver points of R^(d+1).

    The spatial distance plus the receiver bias minus the emitter bias;
    asymmetric in its arguments.
    """
    p_e = np.asarray(p_e, dtype=float)
    p_r = np.asarray(p_r, dtype=float)
    if p_e.shape != p_r.shape or p_e.ndim != 1 or p_e.size < 2:
        raise ValueError("expected two stacked points of equal dimension >= 2")
    dist = float(np.linalg.norm(p_e[:-1] - p_r[:-1]))
    if dist == 0.0:
        raise ValueError("coincident spatial positions")
    return dist + float(p_r[-1]) - float(p_e[-1])


def arc_pseudo_ranges(fw: ConicFramework) -> np.ndarray:
    """Measured pseudo-range for every arc, in arc order."""
    return np.array(
        [pseudo_range(fw.config.point(u), fw.config.point(w)) for u, w in fw.graph.arcs]
    )


def conic_class(dg: DirectedGraph) -> ConicGraph:
    """Forget arc directions; pairs carrying both arcs become double edges."""
    arcs = set(dg.arcs)
    simple, double = [], []
    for u, w in sorted({(min(a), max(a)) for a in arcs}):
        if (u, w) in arcs and (w, u) in arcs:
            double.append((u, w))
        else:
            simple.append((u, w))
    return ConicGraph(dg.n, simple, double)


def union(g1: EuclideanGraph, g2: EuclideanGraph) -> ConicGraph:
    """Conic union: shared edges become double, the rest stay simple."""
    if g1.n != g2.n:
        raise ValueError("vertex counts differ")
    e1, e2 = g1.edge_set(), g2.edge_set()
    return ConicGraph(g1.n, e1 ^ e2, e1 & e2)


def is_decomposition_of(dec: Decomposition, cg: ConicGraph) -> bool:
    return union(dec.g, dec.h) == cg


def orient(cg: ConicGraph) -> DirectedGraph:
    """Canonical orientation: double edges yield both arcs (in sorted
    edge order), then each simple edge yields one low-to-high arc."""
    arcs: list[tuple[int, int]] = []
    for u, w in cg.double_edges:
        arcs.append((u, w))
        arcs.append((w, u))
    arcs.extend(cg.simple_edges)
    return DirectedGraph(cg.n, arcs)


def random_generic_configuration(n: int, d: int, seed: int) -> Configuration:
    """Uniform [0, 1) positions and biases; resamples on the (measure
    zero) event of coincident positions. Deterministic under seed."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    rng = np.random.default_rng(seed)
    pos = rng.random((n, d))
    while _first_coincident_pair(pos) is not None:
        pos = rng.random((n, d))
    return Configuration(pos, rng.random(n))
