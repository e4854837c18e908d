"""Independence oracle for the generic rigidity matroid, plus the basis
operations the decomposition machinery needs: greedy extension,
fundamental circuits, and basis exchange.

For d = 2 the oracle runs the pebble game; for d >= 3 it falls back to
numeric rank, maximised over a fixed set of random configurations so
that unlucky samples cannot deflate the generic rank. Conic rank
queries are always numeric. Queries are memoized.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence

from .frameworks import ConicFramework, random_generic_configuration, orient
from .graphs import ConicGraph, DirectedGraph, EuclideanGraph, Pair, normalize_edge
from .pebble import PebbleState
from .rigidity import (
    TolerancePolicy,
    conic_rigidity_matrix,
    euclidean_rigidity_matrix,
    numeric_rank,
    s_euclidean,
)


def _canon(edges: Iterable[Sequence[int]]) -> tuple[Pair, ...]:
    return tuple(sorted({normalize_edge(e) for e in edges}))


class RigidityOracle:
    """Rank and independence queries for edge sets on a fixed (n, d)."""

    def __init__(
        self,
        n: int,
        d: int,
        backend: str = "auto",
        policy: TolerancePolicy = TolerancePolicy(),
    ):
        if d < 2:
            raise ValueError("matroid oracle needs d >= 2; the line has its own test")
        if backend == "auto":
            backend = "pebble" if d == 2 else "numeric"
        if backend == "pebble" and d != 2:
            raise ValueError("pebble backend is planar only")
        if backend not in ("pebble", "numeric"):
            raise ValueError(f"unknown backend {backend!r}")
        self.n = int(n)
        self.d = int(d)
        self.backend = backend
        self.policy = policy
        self._configs = [
            random_generic_configuration(self.n, self.d, policy.base_seed + i)
            for i in range(policy.trials)
        ]
        self._lock = threading.Lock()
        self._euclidean_cache: dict[tuple[Pair, ...], int] = {}
        self._conic_cache: dict[tuple[tuple[Pair, ...], tuple[Pair, ...]], int] = {}

    # -- Euclidean queries ------------------------------------------------

    def euclidean_rank(self, edges: Iterable[Sequence[int]]) -> int:
        key = _canon(edges)
        with self._lock:
            if key in self._euclidean_cache:
                return self._euclidean_cache[key]
        if self.backend == "pebble":
            state = PebbleState(self.n)
            rank = state.insert_all(key)
        else:
            rank = max(
                numeric_rank(
                    euclidean_rigidity_matrix(key, p), self.policy.rel_tol
                ).rank
                for p in self._configs
            )
        with self._lock:
            self._euclidean_cache[key] = rank
        return rank

    def is_independent(self, edges: Iterable[Sequence[int]]) -> bool:
        key = _canon(edges)
        return self.euclidean_rank(key) == len(key)

    # -- conic queries (always numeric) -----------------------------------

    def conic_rank(self, cg: ConicGraph) -> int:
        if cg.n != self.n:
            raise ValueError("vertex count mismatch")
        key = (cg.simple_edges, cg.double_edges)
        with self._lock:
            if key in self._conic_cache:
                return self._conic_cache[key]
        dg = orient(cg)
        rank = max(
            numeric_rank(
                conic_rigidity_matrix(ConicFramework(dg, p)), self.policy.rel_tol
            ).rank
            for p in self._configs
        )
        with self._lock:
            self._conic_cache[key] = rank
        return rank

    def conic_independent(self, cg: ConicGraph) -> bool:
        return self.conic_rank(cg) == cg.edge_count


def extend_to_minimally_rigid(
    seed_edges: Iterable[Sequence[int]],
    pool_edges: Iterable[Sequence[int]],
    oracle: RigidityOracle,
) -> tuple[Pair, ...]:
    """Greedily extend an independent seed to a basis of size
    s_euclidean(n, d), scanning the pool in its given order.

    Raises if the seed is dependent or the pool cannot reach full rank.
    """
    target = s_euclidean(oracle.n, oracle.d)
    seed = _canon(seed_edges)
    if not oracle.is_independent(seed):
        raise ValueError("seed edge set is dependent")
    current = list(seed)
    chosen = set(seed)
    if oracle.backend == "pebble":
        state = PebbleState(oracle.n)
        for e in seed:
            if not state.try_insert(*e):
                raise ValueError("seed edge set is dependent")
        for e in pool_edges:
            if len(current) >= target:
                break
            e = normalize_edge(e)
            if e in chosen:
                continue
            if state.try_insert(*e):
                current.append(e)
                chosen.add(e)
    else:
        for e in pool_edges:
            if len(current) >= target:
                break
            e = normalize_edge(e)
            if e in chosen:
                continue
            if oracle.euclidean_rank(current + [e]) == len(current) + 1:
                current.append(e)
                chosen.add(e)
    if len(current) < target:
        raise ValueError(
            f"pool exhausted at rank {oracle.euclidean_rank(current)}; "
            f"need {target}"
        )
    return tuple(sorted(current))


def fundamental_circuit(
    basis: Iterable[Sequence[int]], uv: Sequence[int], oracle: RigidityOracle
) -> tuple[Pair, ...]:
    """Edges of a minimally rigid basis that generate uv: exactly those
    e for which basis - e + uv is again independent."""
    b = _canon(basis)
    uv = normalize_edge(uv)
    if len(b) != s_euclidean(oracle.n, oracle.d) or not oracle.is_independent(b):
        raise ValueError("basis is not minimally rigid")
    if uv in b:
        raise ValueError(f"edge {uv} already in the basis")
    bset = set(b)
    circuit = []
    for e in b:
        candidate = (bset - {e}) | {uv}
        if oracle.is_independent(candidate):
            circuit.append(e)
    return tuple(circuit)


def swap(
    basis: Iterable[Sequence[int]],
    uv: Sequence[int],
    wz: Sequence[int],
    oracle: RigidityOracle,
) -> tuple[Pair, ...]:
    """Exchange wz out of a minimally rigid basis for uv.

    Valid exactly when wz generates uv; the result is again minimally
    rigid, which is re-checked through the oracle.
    """
    b = _canon(basis)
    uv = normalize_edge(uv)
    wz = normalize_edge(wz)
    if len(b) != s_euclidean(oracle.n, oracle.d) or not oracle.is_independent(b):
        raise ValueError("basis is not minimally rigid")
    if uv in b:
        raise ValueError(f"edge {uv} already in the basis")
    if wz not in b:
        raise ValueError(f"edge {wz} not in the basis")
    result = (set(b) - {wz}) | {uv}
    if not oracle.is_independent(result):
        raise ValueError(f"edge {wz} does not generate {uv}; swap would lose rank")
    return tuple(sorted(result))
