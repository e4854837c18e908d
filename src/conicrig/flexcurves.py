"""Closed-form flexes of the small under-constrained frameworks.

Three agents with a double edge between two of them and one single arc
from each to the third leave a one-parameter motion: the third agent
slides along a conic with the fixed agents as foci. When both single
arcs point the same way relative to the moving agent the bias cancels
in the difference of distances (hyperbola branch); otherwise it
cancels in the sum (ellipse). Adding a fourth agent with single arcs
to a doubly-connected triangle pins it: each tie is a pseudo-range
equation |x - x_v| = c_v + eps_v * beta, and subtracting the squared
first tie from the other two leaves a line in (x, beta) on which the
first tie is one quadratic. So there are at most two placements, the
given one and possibly one more (Bancroft's algebraic GPS solution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frameworks import Configuration, ConicFramework, pseudo_range
from .graphs import DirectedGraph, Pair


@dataclass(frozen=True, eq=False)
class ConicCurveFlex:
    """One-parameter flex curve of the 3-agent, 4-arc pattern."""

    kind: str  # "hyperbola" or "ellipse"
    foci: tuple[np.ndarray, np.ndarray]
    constant: float  # r_a - r_b on the hyperbola, r_a + r_b on the ellipse
    bias_fn: Callable[[np.ndarray], float]
    moving: int
    fixed: tuple[int, int]
    base_t: float
    center: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    semi_a: float
    semi_b: float
    branch: float  # +1/-1 hyperbola branch along axis_u; unused for ellipses

    def point_at(self, t: float) -> np.ndarray:
        if self.kind == "hyperbola":
            along = self.branch * self.semi_a * math.cosh(t)
            across = self.semi_b * math.sinh(t)
        else:
            along = self.semi_a * math.cos(t)
            across = self.semi_b * math.sin(t)
        return self.center + along * self.axis_u + across * self.axis_v


@dataclass(frozen=True, eq=False)
class FlexSample:
    t: float
    position: np.ndarray
    bias: float


@dataclass(frozen=True, eq=False)
class SecondPlacement:
    """Alternative placement of the fourth agent, with diagnostics."""

    position: np.ndarray
    bias: float
    residuals: tuple[float, float, float]
    solutions: tuple[np.ndarray, ...]  # the given placement, then the other if any
    degenerate: bool  # no other placement: a double root or a negative distance


def _single_arc_pattern(fw: ConicFramework) -> tuple[int, int, int, Pair, Pair]:
    """Locate the double pair (a, b), the moving agent m, and the two
    single arcs of the 3-agent pattern; raise if the shape differs."""
    if fw.n != 3 or fw.d != 2 or fw.graph.m != 4:
        raise ValueError("expected 3 agents in the plane with 4 arcs")
    arcs = set(fw.graph.arcs)
    double = [
        (u, w) for u in range(3) for w in range(u + 1, 3)
        if (u, w) in arcs and (w, u) in arcs
    ]
    if len(double) != 1:
        raise ValueError("expected exactly one double edge")
    a, b = double[0]
    (m,) = set(range(3)) - {a, b}
    singles = arcs - {(a, b), (b, a)}
    arc_a = [s for s in singles if a in s]
    arc_b = [s for s in singles if b in s]
    if len(arc_a) != 1 or len(arc_b) != 1:
        raise ValueError("each fixed agent needs one single arc to the third")
    return a, b, m, arc_a[0], arc_b[0]


def _tie(fw: ConicFramework, v: int, arc: Pair, m: int) -> tuple[float, float]:
    """The arc between fixed agent v and moving agent m keeps its
    pseudo-range exactly when |x_m - x_v| = c + eps * beta_m; return
    (c, eps): eps = -1 when m receives the arc, +1 when it emits it."""
    rho = pseudo_range(fw.config.point(arc[0]), fw.config.point(arc[1]))
    beta_v = float(fw.config.biases[v])
    return (rho + beta_v, -1.0) if arc[1] == m else (rho - beta_v, 1.0)


def build_flex_curve(fw: ConicFramework) -> ConicCurveFlex:
    """Classify and parametrize the flex curve of the 3-agent pattern."""
    a, b, m, arc_a, arc_b = _single_arc_pattern(fw)
    pos = fw.config.positions
    xa, xb, xm = pos[a], pos[b], pos[m]
    r_a = float(np.linalg.norm(xa - xm))
    r_b = float(np.linalg.norm(xb - xm))
    c_a, eps_a = _tie(fw, a, arc_a, m)
    same_side = eps_a == _tie(fw, b, arc_b, m)[1]
    kind = "hyperbola" if same_side else "ellipse"
    constant = r_a - r_b if same_side else r_a + r_b

    center = (xa + xb) / 2.0
    span = xb - xa
    c = float(np.linalg.norm(span)) / 2.0
    axis_u = span / (2.0 * c)
    axis_v = np.array([-axis_u[1], axis_u[0]])
    rel = xm - center
    proj_u = float(rel @ axis_u)
    proj_v = float(rel @ axis_v)

    if kind == "hyperbola":
        semi_a = abs(constant) / 2.0
        if semi_a <= 1e-12 or semi_a >= c:
            raise ValueError("degenerate hyperbola: equal or collinear distances")
        semi_b = math.sqrt(c * c - semi_a * semi_a)
        # r_a - r_b > 0 puts the moving agent on the branch nearer b
        branch = 1.0 if constant > 0 else -1.0
        base_t = math.asinh(proj_v / semi_b)
    else:
        semi_a = constant / 2.0
        if semi_a <= c + 1e-12:
            raise ValueError("degenerate ellipse: moving agent on the focal segment")
        semi_b = math.sqrt(semi_a * semi_a - c * c)
        branch = 1.0
        base_t = math.atan2(proj_v / semi_b, proj_u / semi_a)

    def bias_fn(x: np.ndarray) -> float:
        # keeps the pseudo-range along the arc at focus a exactly
        return eps_a * (float(np.linalg.norm(np.asarray(x, dtype=float) - xa)) - c_a)

    curve = ConicCurveFlex(
        kind=kind,
        foci=(xa.copy(), xb.copy()),
        constant=constant,
        bias_fn=bias_fn,
        moving=m,
        fixed=(a, b),
        base_t=base_t,
        center=center,
        axis_u=axis_u,
        axis_v=axis_v,
        semi_a=semi_a,
        semi_b=semi_b,
        branch=branch,
    )
    # parametrization sanity: the base parameter reproduces the input point
    if not np.allclose(curve.point_at(base_t), xm, atol=1e-9 * (1.0 + c)):
        raise ValueError("moving agent does not lie on the derived curve")
    return curve


def sample_flex(curve: ConicCurveFlex, k: int, span: float = 0.5) -> list[FlexSample]:
    """k samples across parameter range base_t +- span (k = 1 gives the
    base point itself). Every sample preserves all four pseudo-ranges."""
    if k < 1:
        raise ValueError("need at least one sample")
    offsets = [0.0] if k == 1 else list(np.linspace(-span, span, k))
    out = []
    for off in offsets:
        t = curve.base_t + off
        x = curve.point_at(t)
        out.append(FlexSample(t=t, position=x, bias=curve.bias_fn(x)))
    return out


# -- second placement of a fourth agent --------------------------------------


def _pinned_pattern(fw: ConicFramework) -> tuple[int, list[tuple[int, Pair]]]:
    """Locate the fourth agent tied by three single arcs to a doubly
    connected triangle; return (m, [(fixed agent, arc), ...])."""
    if fw.n != 4 or fw.d != 2 or fw.graph.m != 9:
        raise ValueError("expected 4 agents in the plane with 9 arcs")
    arcs = set(fw.graph.arcs)
    degree_double = {v: 0 for v in range(4)}
    for u in range(4):
        for w in range(u + 1, 4):
            if (u, w) in arcs and (w, u) in arcs:
                degree_double[u] += 1
                degree_double[w] += 1
    movers = [v for v, deg in degree_double.items() if deg == 0]
    if len(movers) != 1 or any(degree_double[v] != 2 for v in range(4) if v != movers[0]):
        raise ValueError("expected a doubly connected triangle plus one loose agent")
    m = movers[0]
    ties = []
    for v in range(4):
        if v == m:
            continue
        single = [a for a in ((v, m), (m, v)) if a in arcs]
        if len(single) != 1:
            raise ValueError(f"agent {v} needs exactly one arc to agent {m}")
        ties.append((v, single[0]))
    return m, ties


def locate_second_intersection(fw: ConicFramework) -> SecondPlacement:
    """Find the other placement of the pinned fourth agent.

    Each tie reads |x - x_v| = c_v + eps_v * beta in z = (x, beta).
    Subtracting the squared first tie from the other two leaves two
    linear equations in z; their solutions form the line through the
    given placement along the cross product k of their rows. On that
    line the first tie is a quadratic in t with the root t = 0, the
    given placement. Its other root is a placement when every distance
    c_v + eps_v * beta it asks for is non-negative.
    """
    m, ties = _pinned_pattern(fw)
    pos = fw.config.positions
    xm, beta_m = pos[m].copy(), float(fw.config.biases[m])
    anchors = [pos[v] for v, _ in ties]
    models = [_tie(fw, v, arc, m) for v, arc in ties]
    (c0, e0), x0 = models[0], anchors[0]
    rows = [np.append(x - x0, c * e - c0 * e0) for x, (c, e) in zip(anchors[1:], models[1:])]
    k = np.cross(rows[0], rows[1])
    if np.linalg.norm(k) <= 1e-12 * np.linalg.norm(rows[0]) * np.linalg.norm(rows[1]):
        raise ValueError("the ties do not pin the moving agent: parallel equations")

    # |x - x0|^2 - (c0 + e0 * beta)^2 at z = (xm, beta_m) + t * k is t * (qa * t + qb)
    r0 = c0 + e0 * beta_m
    qa = float(k[:2] @ k[:2] - k[2] ** 2)
    qb = float(2.0 * ((xm - x0) @ k[:2] - r0 * e0 * k[2]))
    position, bias, solutions = xm, beta_m, (xm,)
    if qa != 0.0:
        t = -qb / qa
        x, beta = xm + t * k[:2], beta_m + t * float(k[2])
        moved = np.linalg.norm(x - xm) > 1e-9 * max(c + e * beta_m for c, e in models)
        if moved and all(c + e * beta >= 0.0 for c, e in models):
            position, bias, solutions = x, beta, (xm, x)
    residuals = tuple(
        abs(float(np.linalg.norm(position - xv)) - c - e * bias)
        for xv, (c, e) in zip(anchors, models)
    )
    return SecondPlacement(
        position=position,
        bias=bias,
        residuals=residuals,  # type: ignore[arg-type]
        solutions=solutions,
        degenerate=len(solutions) == 1,
    )


# -- reference fixtures -------------------------------------------------------

FIXTURE_POSITIONS = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 2.0]])
FIXTURE_BIASES = np.array([0.0, 0.3, -0.1])


def make_hyperbola_framework() -> ConicFramework:
    """Double edge between the two anchors; both single arcs received by
    the moving agent, so the distance difference is conserved."""
    graph = DirectedGraph(3, [(0, 1), (1, 0), (0, 2), (1, 2)])
    return ConicFramework(graph, Configuration(FIXTURE_POSITIONS, FIXTURE_BIASES))


def make_ellipse_framework() -> ConicFramework:
    """One arc into and one out of the moving agent: distance sum is
    conserved."""
    graph = DirectedGraph(3, [(0, 1), (1, 0), (0, 2), (2, 1)])
    return ConicFramework(graph, Configuration(FIXTURE_POSITIONS, FIXTURE_BIASES))


def make_pinned_framework() -> ConicFramework:
    """Doubly connected triangle plus a fourth agent held by three
    single arcs; rigid, with one mirror-like alternative placement."""
    graph = DirectedGraph(
        4,
        [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (0, 3), (3, 1), (2, 3)],
    )
    positions = np.vstack([FIXTURE_POSITIONS, [2.5, 1.2]])
    biases = np.concatenate([FIXTURE_BIASES, [0.2]])
    return ConicFramework(graph, Configuration(positions, biases))
