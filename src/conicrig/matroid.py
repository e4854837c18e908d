"""Independence oracle for the generic rigidity matroid, plus the basis
operations the decomposition machinery needs: greedy extension,
fundamental circuits, and basis exchange.

Euclidean questions play one independence game, `RigidityOracle.game`: the
pebble game for d = 2, and for d >= 3 a `ModularGame`, exact elimination mod
a prime at one random integer point; their ranks are memoized. Conic ranks
are numeric, the largest over TRIALS fixed random configurations
(`conic_matrices`), so that unlucky samples cannot deflate the generic rank.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .frameworks import Configuration, ConicFramework, orient, random_generic_configuration
from .graphs import ConicGraph, DirectedGraph, Pair, normalize_edge
from .pebble import PebbleState
from .rigidity import conic_rigidity_matrix, numeric_rank, s_conic, s_euclidean

# the field of `ModularGame`, and the seed of its one sample point
_PRIME = 2**31 - 1
_POINT_SEED = 2022

# random configurations per conic rank, seeded _CONFIG_SEED, _CONFIG_SEED + 1, ...
TRIALS = 5
_CONFIG_SEED = 42


def _canon(edges: Iterable[Sequence[int]]) -> tuple[Pair, ...]:
    return tuple(sorted({normalize_edge(e) for e in edges}))


class RigidityOracle:
    """Rank and independence queries for edge sets on a fixed (n, d). Conic
    ranks take the largest over TRIALS configurations, drawn on first use."""

    def __init__(self, n: int, d: int):
        if d < 2:
            raise ValueError("matroid oracle needs d >= 2; the line has its own test")
        self.n = int(n)
        self.d = int(d)
        self._euclidean_cache: dict[tuple[Pair, ...], int] = {}
        # game of the last basis asked for circuits; one entry
        self._game: Optional[tuple[tuple[Pair, ...], PebbleState | ModularGame]] = None

    # -- Euclidean queries ------------------------------------------------

    def euclidean_rank(self, edges: Iterable[Sequence[int]]) -> int:
        key = _canon(edges)
        if key not in self._euclidean_cache:
            self._euclidean_cache[key] = len(self.game(key).accepted)
        return self._euclidean_cache[key]

    def is_independent(self, edges: Iterable[Sequence[int]]) -> bool:
        key = _canon(edges)
        return self.euclidean_rank(key) == len(key)

    def game(self, edges: Iterable[Sequence[int]] = ()) -> PebbleState | ModularGame:
        """Independence game on the oracle's (n, d) with the edges inserted
        in order: the pebble game in the plane, a `ModularGame` above it."""
        state = PebbleState(self.n) if self.d == 2 else ModularGame(self.n, self.d)
        state.insert_all(edges)
        return state

    def _basis_game(self, basis: tuple[Pair, ...]) -> PebbleState | ModularGame:
        """Game of a canonical edge set. The game of the last edge set asked
        for is kept, so circuit queries on one basis share it."""
        if self._game is None or self._game[0] != basis:
            self._game = (basis, self.game(basis))
        return self._game[1]

    # -- conic queries (always numeric) -----------------------------------

    @cached_property
    def _configs(self) -> list[Configuration]:
        return [
            random_generic_configuration(self.n, self.d, _CONFIG_SEED + i)
            for i in range(TRIALS)
        ]

    def conic_matrices(self, dg: DirectedGraph) -> Iterator[np.ndarray]:
        """The conic constraint matrix of dg at each of the oracle's
        configurations, in their fixed order, each built when asked for."""
        if dg.n != self.n:
            raise ValueError("vertex count mismatch")
        return (conic_rigidity_matrix(ConicFramework(dg, p)) for p in self._configs)

    def conic_rank(self, cg: ConicGraph) -> int:
        """Largest numeric conic rank over the configurations, stopping at
        the first that reaches min(s_conic(n, d), arc count)."""
        ceiling = min(s_conic(self.n, self.d), cg.edge_count)
        rank = 0
        for m in self.conic_matrices(orient(cg)):
            rank = max(rank, numeric_rank(m).rank)
            if rank == ceiling:
                break
        return rank


class ModularGame:
    """Independence game for d >= 3 with the interface of `PebbleState`.

    An echelon form, mod the prime p, of the Euclidean rigidity matrix at one
    random integer point. Each kept row carries the combination of accepted
    edges that produced it, so an insert reduces one row, and a circuit is
    the support of a dependent row's combination. Rank mod p <= rank over
    the rationals at the point <= generic rank: an accepted set is certified
    independent, and a rejection is wrong with probability at most rank / p
    (Schwartz 1980; Zippel 1979).
    """

    def __init__(self, n: int, d: int):
        self.d = d
        # residues stay below 2^31, so the product of two fits in int64
        self._point = np.random.default_rng(_POINT_SEED).integers(0, _PRIME, (n, d))
        # per accepted edge: pivot column, its row scaled to 1 there, combination
        self._echelon: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.accepted: list[Pair] = []

    def _reduce(self, u: int, w: int) -> tuple[np.ndarray, np.ndarray]:
        """Row of {u, w} reduced against the echelon form, and the
        combination of accepted edges subtracted from it along the way."""
        d = self.d
        diff = self._point[u] - self._point[w]  # may be negative
        row = np.zeros(self._point.size, dtype=np.int64)
        row[d * u : d * u + d] = diff % _PRIME
        row[d * w : d * w + d] = -diff % _PRIME
        comb = np.append(np.zeros(len(self.accepted), np.int64), 1)  # own edge last
        for j, (col, pivot_row, pivot_comb) in enumerate(self._echelon):
            f = row[col]
            if f:
                row = (row - f * pivot_row) % _PRIME
                comb[: j + 1] = (comb[: j + 1] - f * pivot_comb) % _PRIME
        return row, comb

    def try_insert(self, u: int, w: int) -> bool:
        """Insert edge {u, w} if it is independent; report success."""
        e = normalize_edge((u, w))
        row, comb = self._reduce(*e)
        col = int(np.argmax(row != 0))
        if not row[col]:
            return False
        inv = pow(int(row[col]), _PRIME - 2, _PRIME)
        self._echelon.append((col, row * inv % _PRIME, comb * inv % _PRIME))
        self.accepted.append(e)
        return True

    def insert_all(self, edges: Iterable[Sequence[int]]) -> int:
        """Insert edges in the given order; return how many were accepted."""
        return sum(self.try_insert(*e) for e in edges)

    def circuit(self, u: int, w: int) -> tuple[Pair, ...]:
        """Sorted accepted edges that form a circuit with {u, w}; empty if none do."""
        row, comb = self._reduce(*normalize_edge((u, w)))
        if row.any():
            return ()
        return tuple(sorted(self.accepted[i] for i in np.flatnonzero(comb[:-1])))


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
    later queries (`PebbleState.circuit` in the plane, `ModularGame.circuit`
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
