"""Constructive rigidity test for conic graphs in dimension d >= 2.

A conic graph is rigid exactly when it splits into a spanning
minimally rigid graph G and a spanning connected graph H whose union
reproduces it (shared edges are the double edges). The procedure
either constructs such a split or reports that none exists:

1. fewer than s_conic(n, d) arcs can never reach full rank;
2. arcs beyond s_conic(n, d) are set aside greedily, keeping a
   conic-independent core of exactly s_conic(n, d) arcs;
3. the double edges are extended to a minimally rigid G; H takes the
   leftover simple edges plus every double edge and then has exactly
   n - 1 edges;
4. while H is disconnected, a chain of basis exchanges moves one edge
   of H into G and one crossing edge of G back into H, merging two
   components of H per round;
5. surplus arcs rejoin G when absent there, otherwise H.

Every verdict is cross-checked against the numeric generic rank of an
oriented instance; a disagreement raises instead of guessing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .frameworks import Decomposition, conic_class, is_decomposition_of
from .graphs import (
    ConicGraph,
    DirectedGraph,
    EuclideanGraph,
    Pair,
    connected_components,
    find_cycle,
)
from .matroid import RigidityOracle, fundamental_circuit
from .rigidity import numeric_rank, s_conic, s_euclidean


class DecompositionInvariantError(RuntimeError):
    """An internal invariant of the exchange procedure failed."""


class CrossCheckError(RuntimeError):
    """Constructive verdict and numeric rank verdict disagree."""


@dataclass(frozen=True)
class SwapStep:
    step: int
    uv: Pair
    wz: Pair
    u_set: tuple[int, ...]
    z: int  # endpoint of wz outside u_set at selection time


@dataclass(frozen=True)
class ExchangeStep:
    sigma: int
    uv: Pair
    wz: Pair


@dataclass(frozen=True)
class RoundTrace:
    cycle: tuple[Pair, ...]
    chain: tuple[SwapStep, ...]
    exchanges: tuple[ExchangeStep, ...]
    components_before: int
    components_after: int


@dataclass
class DecompositionTrace:
    """Audit record of one decomposition run, JSON exportable."""

    n: int
    d: int
    edge_count: int
    s_required: int
    rigid: bool = False
    reason: str = ""
    surplus: tuple[Pair, ...] = ()
    initial_g: Optional[tuple[Pair, ...]] = None
    initial_h: Optional[tuple[Pair, ...]] = None
    rounds: tuple[RoundTrace, ...] = ()
    final_g: Optional[tuple[Pair, ...]] = None
    final_h: Optional[tuple[Pair, ...]] = None
    numeric_rank: Optional[int] = None

    def to_json_dict(self) -> dict:
        """The fields in order, with initial_* and final_* nested as
        {"g", "h"}; pairs stay tuples, which json writes as lists."""
        data: dict = {}
        for key, value in asdict(self).items():
            if key.startswith(("initial_", "final_")):
                part, side = key.split("_")
                data.setdefault(part, {})[side] = value
            else:
                data[key] = value
        return data


def _component_of(n: int, edges, root: int) -> set[int]:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, w in edges:
        adj[u].append(w)
        adj[w].append(u)
    seen = {root}
    queue = [root]
    while queue:
        x = queue.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def _edge_on_cycle(n: int, edges: set[Pair], e: Pair) -> bool:
    """True when e is not a bridge of (n, edges)."""
    u, w = e
    return w in _component_of(n, edges - {e}, u)


def initial_decomposition(
    cg: ConicGraph, oracle: RigidityOracle
) -> Optional[Decomposition]:
    """Split a conic graph of exactly s_conic(n, d) arcs into a
    minimally rigid G and an (n-1)-edge H sharing the double edges.

    One game takes the sorted double edges, then the sorted simple edges;
    G is the accepted edges. Returns None when a double edge is rejected
    or fewer than s_euclidean(n, d) edges are accepted; both rule out
    rigidity.
    """
    n, d = cg.n, oracle.d
    if cg.n != oracle.n:
        raise ValueError("vertex count mismatch between graph and oracle")
    if cg.edge_count != s_conic(n, d):
        raise ValueError(
            f"need exactly {s_conic(n, d)} arcs, got {cg.edge_count}"
        )
    game = oracle.game(cg.double_edges)
    if len(game.accepted) < len(cg.double_edges):
        return None
    game.insert_all(cg.simple_edges)
    if len(game.accepted) < s_euclidean(n, d):
        return None
    e_g = set(game.accepted)
    e_h = [e for e in cg.simple_edges if e not in e_g] + list(cg.double_edges)
    return Decomposition(EuclideanGraph(n, e_g), EuclideanGraph(n, e_h))


def select_swap_chain(
    g: EuclideanGraph,
    h: EuclideanGraph,
    cycle: list[Pair],
    oracle: RigidityOracle,
) -> Optional[list[SwapStep]]:
    """Pick exchange pairs against the component of the given cycle.

    Starting from that component U, repeatedly scan the movable edges
    of H inside U (lexicographically) for one whose fundamental circuit
    in G crosses the boundary of U; the crossing circuit edge becomes
    its partner. The scan descends to the cycle's component of H minus
    the picked edge until the picked edge itself lies on a cycle of H.

    Returns None when some level has no admissible pair, which rules
    out rigidity; raises when the connected-with-cycle invariant breaks.
    """
    n = h.n
    cycle_vertices = sorted({v for e in cycle for v in e})
    root = cycle_vertices[0]
    g_set = g.edge_set()
    u_cur = _component_of(n, h.edges, root)
    h_cur = {e for e in h.edges if e[0] in u_cur and e[1] in u_cur}
    chain: list[SwapStep] = []
    while True:
        if not set(cycle) <= h_cur or _component_of(n, h_cur, root) != u_cur:
            raise DecompositionInvariantError(
                "restriction lost the cycle or its connectivity"
            )
        found = None
        for uv in sorted(h_cur):
            if uv in g_set:
                continue  # double edges sit in both parts and cannot move
            circuit = fundamental_circuit(g.edges, uv, oracle)
            crossing = sorted(
                e for e in circuit if (e[0] in u_cur) != (e[1] in u_cur)
            )
            if crossing:
                found = (uv, crossing[0])
                break
        if found is None:
            return None
        uv, wz = found
        z = wz[1] if wz[0] in u_cur else wz[0]
        chain.append(
            SwapStep(step=len(chain), uv=uv, wz=wz, u_set=tuple(sorted(u_cur)), z=z)
        )
        if _edge_on_cycle(n, h.edge_set(), uv):
            return chain
        h_next = h_cur - {uv}
        u_cur = _component_of(n, h_next, root)
        h_cur = {e for e in h_next if e[0] in u_cur and e[1] in u_cur}


def apply_swap_chain(
    g: EuclideanGraph,
    h: EuclideanGraph,
    chain: list[SwapStep],
    oracle: RigidityOracle,
) -> tuple[Decomposition, tuple[ExchangeStep, ...]]:
    """Exchange a subsequence of the chain, last pair first.

    After exchanging pair sigma, continue with the deepest level whose
    vertex set still contains that pair's outside endpoint z; stop once
    z escapes the top level, which merges two components of H. The
    exchanged edge must lie on a cycle of the current H and G must stay
    minimally rigid; violations raise DecompositionInvariantError.
    """
    if not chain:
        raise ValueError("empty exchange chain")
    n = h.n
    g_cur = g.edge_set()
    h_cur = h.edge_set()
    comps_before = len(connected_components(h))
    u0 = set(chain[0].u_set)
    sigma = len(chain) - 1
    exchanges: list[ExchangeStep] = []
    while True:
        pair = chain[sigma]
        if not _edge_on_cycle(n, h_cur, pair.uv):
            raise DecompositionInvariantError(
                f"edge {pair.uv} left every cycle before its exchange"
            )
        if pair.uv in g_cur or pair.wz not in g_cur or pair.uv not in h_cur:
            raise DecompositionInvariantError("exchange pair no longer available")
        new_g = (g_cur - {pair.wz}) | {pair.uv}
        if not oracle.is_independent(new_g):
            raise DecompositionInvariantError(
                f"exchanging {pair.wz} for {pair.uv} broke minimal rigidity"
            )
        g_cur = new_g
        h_cur = (h_cur - {pair.uv}) | {pair.wz}
        exchanges.append(ExchangeStep(sigma=sigma, uv=pair.uv, wz=pair.wz))
        if pair.z not in u0:
            break
        deeper = [j for j in range(len(chain)) if pair.z in set(chain[j].u_set)]
        nxt = max(deeper)
        if nxt >= sigma:
            raise DecompositionInvariantError("exchange levels failed to descend")
        sigma = nxt
    comps_after = len(
        connected_components(EuclideanGraph(n, h_cur))
    )
    if comps_after != comps_before - 1:
        raise DecompositionInvariantError(
            f"round changed components {comps_before} -> {comps_after}"
        )
    dec = Decomposition(EuclideanGraph(n, g_cur), EuclideanGraph(n, h_cur))
    return dec, tuple(exchanges)


def _trim_to_core(
    cg: ConicGraph, oracle: RigidityOracle
) -> tuple[Optional[ConicGraph], tuple[Pair, ...]]:
    """Greedy conic-independent core of exactly s_conic(n, d) arcs.

    Scans one arc list: (u, w) for every pair in order, then (w, u) when
    the pair is a double edge. A copy is kept when the kept rows plus its
    own have full row rank at some oracle configuration, until s_conic(n, d)
    copies are kept. A second copy whose first was rejected is surplus
    untested: it would test the same conic graph. Returns (core, surplus
    copies), or (None, ()) when the arcs cannot support full rank.
    """
    target = s_conic(cg.n, oracle.d)
    double_set = set(cg.double_edges)
    arcs: list[Pair] = []
    for u, w in cg.all_pairs():
        arcs.append((u, w))
        if (u, w) in double_set:
            arcs.append((w, u))
    matrices = list(oracle.conic_matrices(DirectedGraph(cg.n, arcs)))
    kept: list[int] = []
    surplus: list[Pair] = []
    for i, (u, w) in enumerate(arcs):
        # a second copy (w, u) follows its first at i - 1 and needs it kept
        tested = len(kept) < target and (u < w or kept[-1:] == [i - 1])
        if tested and any(
            numeric_rank(a[kept + [i]]).rank == len(kept) + 1
            for a in matrices
        ):
            kept.append(i)
        else:
            surplus.append((min(u, w), max(u, w)))
    if len(kept) < target:
        return None, ()
    return conic_class(DirectedGraph(cg.n, [arcs[i] for i in kept])), tuple(surplus)


def decompose(
    cg: ConicGraph, oracle: RigidityOracle
) -> tuple[Optional[Decomposition], DecompositionTrace]:
    """Decide rigidity of a conic graph constructively in the oracle's R^d.

    Returns (decomposition, trace); the decomposition is None exactly
    when the graph is not rigid. The verdict is cross-checked against
    the oracle's numeric conic rank and any disagreement raises
    CrossCheckError rather than silently picking a side.
    """
    if cg.n != oracle.n:
        raise ValueError("vertex count mismatch between graph and oracle")
    n, dim = cg.n, oracle.d
    s_req = s_conic(n, dim)
    trace = DecompositionTrace(
        n=n, d=dim, edge_count=cg.edge_count, s_required=s_req
    )

    def finish(dec: Optional[Decomposition], reason: str):
        trace.rigid = dec is not None
        trace.reason = reason
        if dec is not None:
            trace.final_g = dec.g.edges
            trace.final_h = dec.h.edges
        rank = oracle.conic_rank(cg)
        trace.numeric_rank = rank
        numeric_rigid = rank == s_req
        if numeric_rigid != trace.rigid:
            raise CrossCheckError(
                f"constructive verdict {trace.rigid} ({reason or 'decomposed'}) "
                f"vs numeric rank {rank} of {s_req}"
            )
        return dec, trace

    if cg.edge_count < s_req:
        return finish(None, f"only {cg.edge_count} arcs, rigidity needs {s_req}")

    core, surplus = (cg, ())
    if cg.edge_count > s_req:
        core, surplus = _trim_to_core(cg, oracle)
        trace.surplus = surplus
        if core is None:
            return finish(None, "arcs cannot support full conic rank")

    dec0 = initial_decomposition(core, oracle)
    if dec0 is None:
        return finish(None, "double edges dependent or total Euclidean rank deficient")
    g, h = dec0.g, dec0.h
    trace.initial_g, trace.initial_h = g.edges, h.edges

    rounds: list[RoundTrace] = []
    while True:
        comps = connected_components(h)
        if len(comps) == 1:
            break
        cycle = find_cycle(h)
        if cycle is None:
            raise DecompositionInvariantError(
                "H is disconnected with n-1 edges yet has no cycle"
            )
        chain = select_swap_chain(g, h, cycle, oracle)
        if chain is None:
            trace.rounds = tuple(rounds)
            return finish(None, "no admissible exchange pair")
        dec_next, exchanges = apply_swap_chain(g, h, chain, oracle)
        rounds.append(
            RoundTrace(
                cycle=tuple(cycle),
                chain=tuple(chain),
                exchanges=exchanges,
                components_before=len(comps),
                components_after=len(comps) - 1,  # enforced by apply_swap_chain
            )
        )
        g, h = dec_next.g, dec_next.h
    trace.rounds = tuple(rounds)

    g_set, h_set = g.edge_set(), h.edge_set()
    for pair in surplus:
        if pair not in g_set:
            g_set.add(pair)
        elif pair not in h_set:
            h_set.add(pair)
        else:
            raise DecompositionInvariantError("surplus copy exceeds multiplicity two")
    dec = Decomposition(EuclideanGraph(n, g_set), EuclideanGraph(n, h_set))
    if not is_decomposition_of(dec, cg):
        raise DecompositionInvariantError("result does not reassemble the input")
    return finish(dec, "")

