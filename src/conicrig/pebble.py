"""(2,3) pebble game: generic planar rigidity without linear algebra.

Every vertex starts with two pebbles. An edge may be inserted when
four pebbles can be gathered on its endpoints by reversing directed
paths; insertion consumes one pebble and orients the edge. Accepted
edges always form an independent set of the planar generic rigidity
matroid, so the number of accepted edges is the matroid rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .graphs import Pair, normalize_edge


@dataclass
class PebbleState:
    """Mutable game state: pebble counts, edge orientations, accepted edges."""

    n: int
    pebbles: list[int] = field(init=False)
    out: list[set[int]] = field(init=False)
    accepted: list[Pair] = field(init=False)

    def __post_init__(self):
        self.pebbles = [2] * self.n
        self.out = [set() for _ in range(self.n)]
        self.accepted = []

    def _gather_one(self, root: int, other: int) -> bool:
        """Move one free pebble to root, if reachable. The other endpoint
        is never used as a source. Deterministic DFS, ascending order."""
        parent: dict[int, Optional[int]] = {root: None}
        stack = [root]
        while stack:
            x = stack.pop()
            if x not in (root, other) and self.pebbles[x] > 0:
                # reverse the path root -> ... -> x and carry the pebble back
                self.pebbles[x] -= 1
                self.pebbles[root] += 1
                y = x
                while parent[y] is not None:
                    p = parent[y]
                    self.out[p].discard(y)
                    self.out[y].add(p)
                    y = p
                return True
            for y in sorted(self.out[x], reverse=True):
                if y not in parent:
                    parent[y] = x
                    stack.append(y)
        return False

    def _gather_four(self, u: int, w: int) -> bool:
        """Gather four pebbles on u and w, which holds exactly when edge
        {u, w} is independent of the accepted edges; report success."""
        if u == w:
            raise ValueError(f"self loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= w < self.n):
            raise ValueError(f"vertex out of range for n={self.n}")
        while self.pebbles[u] + self.pebbles[w] < 4:
            if self.pebbles[u] < 2 and self._gather_one(u, w):
                continue
            if self.pebbles[w] < 2 and self._gather_one(w, u):
                continue
            return False
        return True

    def try_insert(self, u: int, w: int) -> bool:
        """Insert edge {u, w} if it is independent; report success."""
        if not self._gather_four(u, w):
            return False
        self.pebbles[u] -= 1
        self.out[u].add(w)
        self.accepted.append(normalize_edge((u, w)))
        return True

    def insert_all(self, edges: Iterable[Sequence[int]]) -> int:
        """Insert edges in the given order; return how many were accepted."""
        count = 0
        for e in edges:
            u, w = normalize_edge(e)
            if self.try_insert(u, w):
                count += 1
        return count

    def circuit(self, u: int, w: int) -> tuple[Pair, ...]:
        """Accepted edges that form a circuit with {u, w}, sorted; empty
        when {u, w} is independent of them. Nothing is inserted.

        When four pebbles cannot be gathered, the vertices reachable from
        u and w span the minimal tight set holding both (Jacobs and
        Hendrickson 1997; Lee and Streinu 2008), and the accepted edges
        inside it are the circuit. Gathering only reorients edges, so the
        game keeps answering queries on the same accepted edges.
        """
        if self._gather_four(u, w):
            return ()
        reach = {u, w}
        stack = [u, w]
        while stack:
            for y in self.out[stack.pop()]:
                if y not in reach:
                    reach.add(y)
                    stack.append(y)
        return tuple(sorted(e for e in self.accepted if e[0] in reach and e[1] in reach))
