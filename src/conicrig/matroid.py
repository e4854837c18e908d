"""Independence oracle for the generic rigidity matroid, plus the basis
operations the decomposition machinery needs: greedy extension,
fundamental circuits, and basis exchange.

The basis operations play one independence game, `RigidityOracle.game`:
the pebble game for d = 2, and for d >= 3 a `NumericGame` of numeric ranks
maximised over a fixed set of random configurations, so that unlucky samples
cannot deflate the generic rank. Conic ranks are numeric at those same
configurations (`conic_matrices`). Euclidean rank queries are memoized.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .frameworks import ConicFramework, random_generic_configuration, orient
from .graphs import ConicGraph, DirectedGraph, Pair, normalize_edge
from .pebble import PebbleState
from .rigidity import (
    conic_rigidity_matrix,
    euclidean_rigidity_matrix,
    numeric_rank,
    s_conic,
    s_euclidean,
)


def _canon(edges: Iterable[Sequence[int]]) -> tuple[Pair, ...]:
    return tuple(sorted({normalize_edge(e) for e in edges}))


class RigidityOracle:
    """Rank and independence queries for edge sets on a fixed (n, d); numeric
    ranks cut at rel_tol and take the largest over `trials` configurations."""

    def __init__(
        self, n: int, d: int, rel_tol: float = 1e-10, trials: int = 5, base_seed: int = 42
    ):
        if d < 2:
            raise ValueError("matroid oracle needs d >= 2; the line has its own test")
        self.n = int(n)
        self.d = int(d)
        self.rel_tol = rel_tol
        self.trials = trials
        self._configs = [
            random_generic_configuration(self.n, self.d, base_seed + i)
            for i in range(trials)
        ]
        self._euclidean_cache: dict[tuple[Pair, ...], int] = {}
        # game of the last basis asked for circuits; one entry
        self._game: Optional[tuple[tuple[Pair, ...], PebbleState | NumericGame]] = None

    def _generic_rank(self, matrices: Iterable[np.ndarray], ceiling: int) -> int:
        """Largest numeric rank over the matrices, one per configuration,
        stopping at the first that reaches the ceiling, which none exceeds."""
        rank = 0
        for m in matrices:
            rank = max(rank, numeric_rank(m, self.rel_tol).rank)
            if rank == ceiling:
                break
        return rank

    # -- Euclidean queries ------------------------------------------------

    def euclidean_rank(self, edges: Iterable[Sequence[int]]) -> int:
        key = _canon(edges)
        if key in self._euclidean_cache:
            return self._euclidean_cache[key]
        if self.d == 2:
            rank = PebbleState(self.n).insert_all(key)
        else:
            rank = self._generic_rank(
                (euclidean_rigidity_matrix(key, p) for p in self._configs),
                min(s_euclidean(self.n, self.d), len(key)),
            )
        self._euclidean_cache[key] = rank
        return rank

    def is_independent(self, edges: Iterable[Sequence[int]]) -> bool:
        key = _canon(edges)
        return self.euclidean_rank(key) == len(key)

    def game(self, edges: Iterable[Sequence[int]] = ()) -> PebbleState | NumericGame:
        """Independence game on the oracle's (n, d) with the edges inserted
        in order: the pebble game in the plane, a `NumericGame` above it."""
        state = PebbleState(self.n) if self.d == 2 else NumericGame(self)
        state.insert_all(edges)
        return state

    def _basis_game(self, basis: tuple[Pair, ...]) -> PebbleState | NumericGame:
        """Game of a canonical edge set. The game of the last edge set asked
        for is kept, so circuit queries on one basis share it."""
        if self._game is None or self._game[0] != basis:
            self._game = (basis, self.game(basis))
        return self._game[1]

    # -- conic queries (always numeric) -----------------------------------

    def conic_matrices(self, dg: DirectedGraph) -> Iterator[np.ndarray]:
        """The conic constraint matrix of dg at each of the oracle's
        configurations, in their fixed order, each built when asked for."""
        if dg.n != self.n:
            raise ValueError("vertex count mismatch")
        return (conic_rigidity_matrix(ConicFramework(dg, p)) for p in self._configs)

    def conic_rank(self, cg: ConicGraph) -> int:
        """Largest numeric conic rank over the configurations, at most
        min(s_conic(n, d), arc count)."""
        ceiling = min(s_conic(self.n, self.d), cg.edge_count)
        return self._generic_rank(self.conic_matrices(orient(cg)), ceiling)


class NumericGame:
    """Independence game for d >= 3 with the interface of `PebbleState`.
    Every test is an `oracle.euclidean_rank` query, memo included."""

    def __init__(self, oracle: RigidityOracle):
        self.oracle = oracle
        self.accepted: list[Pair] = []

    def try_insert(self, u: int, w: int) -> bool:
        """Insert edge {u, w} if it is independent; report success."""
        e = normalize_edge((u, w))
        if self.oracle.euclidean_rank(self.accepted + [e]) != len(self.accepted) + 1:
            return False
        self.accepted.append(e)
        return True

    def insert_all(self, edges: Iterable[Sequence[int]]) -> int:
        """Insert edges in the given order; return how many were accepted."""
        return sum(self.try_insert(*e) for e in edges)

    def circuit(self, u: int, w: int) -> tuple[Pair, ...]:
        """Accepted edges e for which accepted - e + {u, w} is independent,
        sorted; empty when {u, w} is independent of the accepted edges."""
        uv = normalize_edge((u, w))
        k = len(self.accepted)
        rank = self.oracle.euclidean_rank
        if rank(self.accepted + [uv]) == k + 1:
            return ()
        return tuple(
            e for e in sorted(self.accepted)
            if rank([f for f in self.accepted if f != e] + [uv]) == k
        )


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
    game = oracle.game(seed)
    if len(game.accepted) < len(seed):
        raise ValueError("seed edge set is dependent")
    for e in pool_edges:
        if len(game.accepted) >= target:
            break
        game.try_insert(*normalize_edge(e))
    if len(game.accepted) < target:
        raise ValueError(f"pool exhausted at rank {len(game.accepted)}; need {target}")
    return tuple(sorted(game.accepted))


def fundamental_circuit(
    basis: Iterable[Sequence[int]], uv: Sequence[int], oracle: RigidityOracle
) -> tuple[Pair, ...]:
    """Edges of a minimally rigid basis that generate uv: exactly those
    e for which basis - e + uv is again independent.

    They are read from one game on the basis, kept by the oracle for
    later queries (`PebbleState.circuit` in the plane, `NumericGame.circuit`
    above it).
    """
    b = _canon(basis)
    uv = normalize_edge(uv)
    game = oracle._basis_game(b)
    if len(b) != s_euclidean(oracle.n, oracle.d) or len(game.accepted) != len(b):
        raise ValueError("basis is not minimally rigid")
    if uv in b:
        raise ValueError(f"edge {uv} already in the basis")
    return game.circuit(*uv)


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
