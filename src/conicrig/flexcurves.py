"""Closed-form placements of one agent on few arcs, the rest held fixed.

Every arc at agent v keeps its pseudo-range exactly when v meets the tie
|x_v - x_u| = c + eps * beta_v, u the arc's other agent. Squaring the
ties and subtracting the first from the others leaves linear equations
in z = (x_v, beta_v), on whose solutions the first tie is one quadratic
(Bancroft, "An algebraic solution of the GPS equations", IEEE Trans.
Aerospace and Electronic Systems 1985). With d + 1 ties the solutions
form a line through the given placement, so v has at most one other
placement. In the plane with two ties v slides along a conic with the
ends of its ties as foci: when both arcs point the same way relative to
v the bias cancels in the difference of distances (hyperbola branch);
otherwise it cancels in the sum (ellipse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frameworks import Configuration, ConicFramework, pseudo_range
from .graphs import DirectedGraph


@dataclass(frozen=True, eq=False)
class ConicCurveFlex:
    """One-parameter flex curve of an agent on two arcs in the plane."""

    kind: str  # "hyperbola" or "ellipse"
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
    """Alternative placement of one agent, with diagnostics."""

    position: np.ndarray
    bias: float
    residuals: tuple[float, ...]  # one per tie
    solutions: tuple[np.ndarray, ...]  # the given placement, then the other if any
    degenerate: bool  # no other placement: a double root or a negative distance


def _ties(fw: ConicFramework, v: int, count: int, what: str) -> list[tuple[int, float, float]]:
    """(u, c, eps) for each arc at agent v, in arc order, u its other agent:
    the arc keeps its pseudo-range exactly when |x_v - x_u| = c + eps * beta_v,
    so eps = -1 when v receives it and +1 when v emits it. Raise unless v
    is on the count arcs that what needs."""
    ties = []
    for e, r in fw.graph.arcs:
        if v not in (e, r):
            continue
        rho = pseudo_range(fw.config.point(e), fw.config.point(r))
        if r == v:
            ties.append((e, rho + float(fw.config.biases[e]), -1.0))
        else:
            ties.append((r, rho - float(fw.config.biases[r]), 1.0))
    if len(ties) != count:
        raise ValueError(f"agent {v} is on {len(ties)} arcs; {what} needs {count}")
    return ties


def build_flex_curve(fw: ConicFramework, v: int) -> ConicCurveFlex:
    """Classify and parametrize the flex curve of agent v, on two arcs in
    the plane, with the rest held fixed."""
    if fw.d != 2:
        raise ValueError(f"a flex curve needs d = 2, not {fw.d}")
    (a, c_a, eps_a), (b, _, eps_b) = _ties(fw, v, 2, "a flex curve")
    if a == b:
        raise ValueError(f"both arcs at agent {v} end at agent {a}")
    pos = fw.config.positions
    xa, xb, xm = pos[a], pos[b], pos[v]
    r_a = float(np.linalg.norm(xa - xm))
    r_b = float(np.linalg.norm(xb - xm))
    same_side = eps_a == eps_b
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
        constant=constant,
        bias_fn=bias_fn,
        moving=v,
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
    base point itself). Every sample keeps the pseudo-ranges of both arcs."""
    if k < 1:
        raise ValueError("need at least one sample")
    offsets = [0.0] if k == 1 else list(np.linspace(-span, span, k))
    out = []
    for off in offsets:
        t = curve.base_t + off
        x = curve.point_at(t)
        out.append(FlexSample(t=t, position=x, bias=curve.bias_fn(x)))
    return out


# -- second placement of an agent on d + 1 arcs ------------------------------


def locate_second_intersection(fw: ConicFramework, v: int) -> SecondPlacement:
    """Find the other placement of agent v, on d + 1 arcs, the rest fixed.

    Each tie reads |x - x_u| = c_u + eps_u * beta in z = (x, beta).
    Subtracting the squared first tie from the other d leaves d linear
    equations in z; their solutions form the line through the given
    placement along the cofactor vector k of their d x (d + 1) rows (the
    cross product at d = 2). On that line the first tie is a quadratic in
    t with the root t = 0, the given placement. Its other root is a
    placement when every distance c_u + eps_u * beta it asks for is
    non-negative.
    """
    d = fw.d
    ties = _ties(fw, v, d + 1, "a second placement")
    pos = fw.config.positions
    xm, beta_m = pos[v].copy(), float(fw.config.biases[v])
    anchors = [pos[u] for u, _, _ in ties]
    models = [(c, e) for _, c, e in ties]
    (c0, e0), x0 = models[0], anchors[0]
    rows = np.array(
        [np.append(x - x0, c * e - c0 * e0) for x, (c, e) in zip(anchors[1:], models[1:])]
    )
    k = np.array([(-1) ** j * np.linalg.det(np.delete(rows, j, axis=1)) for j in range(d + 1)])
    if np.linalg.norm(k) <= 1e-12 * np.prod(np.linalg.norm(rows, axis=1)):
        raise ValueError(f"the ties do not pin agent {v}: dependent equations")

    # |x - x0|^2 - (c0 + e0 * beta)^2 at z = (xm, beta_m) + t * k is t * (qa * t + qb)
    r0 = c0 + e0 * beta_m
    qa = float(k[:d] @ k[:d] - k[d] ** 2)
    qb = float(2.0 * ((xm - x0) @ k[:d] - r0 * e0 * k[d]))
    position, bias, solutions = xm, beta_m, (xm,)
    if qa != 0.0:
        t = -qb / qa
        x, beta = xm + t * k[:d], beta_m + t * float(k[d])
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
        residuals=residuals,
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
