from __future__ import annotations

import math

import numpy as np
import pytest

from conicrig import (
    Configuration,
    ConicFramework,
    DirectedGraph,
    arc_pseudo_ranges,
    conic_rigidity_matrix,
)
from conicrig.flexcurves import (
    build_flex_curve,
    locate_second_intersection,
    make_ellipse_framework,
    make_hyperbola_framework,
    make_pinned_framework,
    sample_flex,
)
from golden import PINNED_SECOND_BIAS, PINNED_SECOND_POSITION

SQRT5, SQRT13 = math.sqrt(5.0), math.sqrt(13.0)


def moved_framework(fw, moving, position, bias):
    positions = fw.config.positions.copy()
    biases = fw.config.biases.copy()
    positions[moving] = position
    biases[moving] = bias
    return ConicFramework(fw.graph, Configuration(positions, biases))


def max_drift(fw, curve, samples):
    base = arc_pseudo_ranges(fw)
    worst = 0.0
    for s in samples:
        moved = moved_framework(fw, curve.moving, s.position, s.bias)
        worst = max(worst, float(np.max(np.abs(arc_pseudo_ranges(moved) - base))))
    return worst


def test_hyperbola_classification():
    curve = build_flex_curve(make_hyperbola_framework())
    assert curve.kind == "hyperbola"
    assert curve.moving == 2 and curve.fixed == (0, 1)
    # distances from (1,2) to the foci (0,0) and (4,0)
    assert curve.constant == pytest.approx(SQRT5 - SQRT13)
    assert curve.semi_a == pytest.approx((SQRT13 - SQRT5) / 2)
    # base parameter reproduces the configured point
    assert np.allclose(curve.point_at(curve.base_t), [1.0, 2.0], atol=1e-12)


def test_ellipse_classification():
    curve = build_flex_curve(make_ellipse_framework())
    assert curve.kind == "ellipse"
    assert curve.constant == pytest.approx(SQRT5 + SQRT13)
    assert np.allclose(curve.point_at(curve.base_t), [1.0, 2.0], atol=1e-12)


def test_samples_preserve_all_pseudo_ranges():
    fw = make_hyperbola_framework()
    curve = build_flex_curve(fw)
    samples = sample_flex(curve, 100, span=0.5)
    assert len(samples) == 100
    assert max_drift(fw, curve, samples) <= 1e-9

    fw = make_ellipse_framework()
    curve = build_flex_curve(fw)
    samples = sample_flex(curve, 100, span=np.pi)
    assert max_drift(fw, curve, samples) <= 1e-9
    # full parameter sweep closes the loop
    assert np.linalg.norm(samples[0].position - samples[-1].position) <= 1e-9


def test_single_sample_is_the_base_point():
    curve = build_flex_curve(make_hyperbola_framework())
    (only,) = sample_flex(curve, 1)
    assert only.t == curve.base_t
    assert np.allclose(only.position, [1.0, 2.0], atol=1e-12)
    with pytest.raises(ValueError):
        sample_flex(curve, 0)


def test_hyperbola_bias_strictly_decreasing_in_anchor_distance():
    fw = make_hyperbola_framework()
    curve = build_flex_curve(fw)
    samples = sample_flex(curve, 100, span=0.5)
    by_distance = sorted(
        (float(np.linalg.norm(s.position - fw.config.positions[0])), s.bias)
        for s in samples
    )
    dists = [p[0] for p in by_distance]
    biases = [p[1] for p in by_distance]
    assert all(b > a + 1e-12 for a, b in zip(dists, dists[1:]))
    assert all(b2 < b1 for b1, b2 in zip(biases, biases[1:]))


def test_curve_velocity_lies_in_the_matrix_kernel():
    for fw in (make_hyperbola_framework(), make_ellipse_framework()):
        curve = build_flex_curve(fw)
        eps = 1e-6
        ahead = curve.point_at(curve.base_t + eps)
        behind = curve.point_at(curve.base_t - eps)
        velocity = (ahead - behind) / (2 * eps)
        bias_rate = (curve.bias_fn(ahead) - curve.bias_fn(behind)) / (2 * eps)
        e = np.zeros(9)
        e[4:6] = velocity
        e[8] = bias_rate
        m = conic_rigidity_matrix(fw)
        assert np.linalg.norm(m @ e) <= 1e-5 * np.linalg.norm(e)


def test_pattern_detection_rejects_other_shapes():
    fw = make_hyperbola_framework()
    # add an arc: five arcs no longer match the pattern
    bigger = ConicFramework(
        DirectedGraph(3, list(fw.graph.arcs) + [(2, 0)]), fw.config
    )
    with pytest.raises(ValueError):
        build_flex_curve(bigger)
    with pytest.raises(ValueError):
        locate_second_intersection(fw)  # needs the four-agent pattern


def test_second_placement_matches_frozen_values():
    found = locate_second_intersection(make_pinned_framework())
    assert not found.degenerate
    assert found.position[0] == pytest.approx(PINNED_SECOND_POSITION[0], abs=1e-9)
    assert found.position[1] == pytest.approx(PINNED_SECOND_POSITION[1], abs=1e-9)
    assert found.bias == pytest.approx(PINNED_SECOND_BIAS, abs=1e-9)
    assert max(found.residuals) <= 1e-8
    assert len(found.solutions) == 2


def test_second_placement_preserves_every_pseudo_range():
    fw = make_pinned_framework()
    found = locate_second_intersection(fw)
    moved = moved_framework(fw, 3, found.position, found.bias)
    drift = np.abs(arc_pseudo_ranges(moved) - arc_pseudo_ranges(fw))
    assert float(np.max(drift)) <= 1e-8
    # genuinely a different placement with a different bias
    assert np.linalg.norm(found.position - fw.config.positions[3]) > 0.5
    assert abs(found.bias - fw.config.biases[3]) > 0.1
