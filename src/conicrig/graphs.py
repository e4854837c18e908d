"""Graph primitives for pseudo-range rigidity analysis.

Vertices are dense 0-based indices. Three flavours appear throughout:
directed graphs (ordered arc lists), undirected Euclidean graphs
(edge sets), and conic graphs that keep simple and double edge
classes separate. All are immutable value types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Pair = tuple[int, int]


def normalize_edge(e: Sequence[int]) -> Pair:
    """Return the unordered pair (u, w) with u < w; reject self loops."""
    u, w = int(e[0]), int(e[1])
    if u == w:
        raise ValueError(f"self loop at vertex {u}")
    return (u, w) if u < w else (w, u)


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")


@dataclass(frozen=True)
class DirectedGraph:
    """Simple directed graph. Arcs keep their construction order."""

    n: int
    arcs: tuple[Pair, ...]

    def __init__(self, n: int, arcs: Iterable[Sequence[int]]):
        object.__setattr__(self, "n", int(n))
        normalized = []
        seen = set()
        for a in arcs:
            u, w = int(a[0]), int(a[1])
            _check_vertex(u, self.n)
            _check_vertex(w, self.n)
            if u == w:
                raise ValueError(f"self loop at vertex {u}")
            if (u, w) in seen:
                raise ValueError(f"duplicate arc ({u}, {w})")
            seen.add((u, w))
            normalized.append((u, w))
        object.__setattr__(self, "arcs", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class EuclideanGraph:
    """Undirected graph with a canonically sorted edge tuple."""

    n: int
    edges: tuple[Pair, ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        object.__setattr__(self, "n", int(n))
        es = sorted({normalize_edge(e) for e in edges})
        for u, w in es:
            _check_vertex(u, self.n)
            _check_vertex(w, self.n)
        object.__setattr__(self, "edges", tuple(es))

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_set(self) -> set[Pair]:
        return set(self.edges)


@dataclass(frozen=True)
class ConicGraph:
    """Equivalence class of directed graphs under arc reversal.

    Simple edges correspond to one arc in either direction, double
    edges to the antiparallel pair. The two classes are disjoint.
    """

    n: int
    simple_edges: tuple[Pair, ...]
    double_edges: tuple[Pair, ...]

    def __init__(
        self,
        n: int,
        simple_edges: Iterable[Sequence[int]],
        double_edges: Iterable[Sequence[int]],
    ):
        object.__setattr__(self, "n", int(n))
        simple = sorted({normalize_edge(e) for e in simple_edges})
        double = sorted({normalize_edge(e) for e in double_edges})
        for u, w in simple + double:
            _check_vertex(u, self.n)
            _check_vertex(w, self.n)
        overlap = set(simple) & set(double)
        if overlap:
            raise ValueError(f"edges both simple and double: {sorted(overlap)}")
        object.__setattr__(self, "simple_edges", tuple(simple))
        object.__setattr__(self, "double_edges", tuple(double))

    @property
    def edge_count(self) -> int:
        """Number of arcs in any representative orientation."""
        return len(self.simple_edges) + 2 * len(self.double_edges)

    def all_pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(self.simple_edges + self.double_edges))


def adjacency(n: int, edges: Iterable[Pair]) -> list[list[int]]:
    """Adjacency lists with neighbours sorted ascending."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    for lst in adj:
        lst.sort()
    return adj


def connected_components(g: EuclideanGraph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member.

    Isolated vertices form singleton components. O(n + m).
    """
    adj = adjacency(g.n, g.edges)
    seen = [False] * g.n
    comps: list[list[int]] = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        queue = [root]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    queue.append(y)
        comps.append(sorted(comp))
    return comps


def find_cycle(g: EuclideanGraph) -> Optional[list[Pair]]:
    """One cycle of g as an edge list along the closed walk, else None.

    DFS with ascending neighbour order; the first back edge closes the
    cycle, so the result is deterministic.
    """
    adj = adjacency(g.n, g.edges)
    color = [0] * g.n  # 0 unseen, 1 on stack path, 2 done
    parent = [-1] * g.n
    for root in range(g.n):
        if color[root]:
            continue
        # iterative DFS keeping an explicit neighbour cursor per vertex
        color[root] = 1
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            x, i = stack[-1]
            if i >= len(adj[x]):
                color[x] = 2
                stack.pop()
                continue
            stack[-1] = (x, i + 1)
            y = adj[x][i]
            if y == parent[x]:
                continue
            if color[y] == 1:
                # walk back from x to y along parents
                walk = [x]
                while walk[-1] != y:
                    walk.append(parent[walk[-1]])
                walk.reverse()  # y ... x
                cycle = [normalize_edge((walk[k], walk[k + 1])) for k in range(len(walk) - 1)]
                cycle.append(normalize_edge((x, y)))
                return cycle
            if color[y] == 0:
                color[y] = 1
                parent[y] = x
                stack.append((y, 0))
    return None
