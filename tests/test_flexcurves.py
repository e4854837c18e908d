from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
TRIANGLE = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]


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
    curve = build_flex_curve(make_hyperbola_framework(), 2)
    assert curve.kind == "hyperbola"
    assert curve.moving == 2 and curve.fixed == (0, 1)
    # distances from (1,2) to the foci (0,0) and (4,0)
    assert curve.constant == pytest.approx(SQRT5 - SQRT13)
    assert curve.semi_a == pytest.approx((SQRT13 - SQRT5) / 2)
    # base parameter reproduces the configured point
    assert np.allclose(curve.point_at(curve.base_t), [1.0, 2.0], atol=1e-12)


def test_ellipse_classification():
    curve = build_flex_curve(make_ellipse_framework(), 2)
    assert curve.kind == "ellipse"
    assert curve.constant == pytest.approx(SQRT5 + SQRT13)
    assert np.allclose(curve.point_at(curve.base_t), [1.0, 2.0], atol=1e-12)


def test_samples_preserve_all_pseudo_ranges():
    fw = make_hyperbola_framework()
    curve = build_flex_curve(fw, 2)
    samples = sample_flex(curve, 100, span=0.5)
    assert len(samples) == 100
    assert max_drift(fw, curve, samples) <= 1e-9

    fw = make_ellipse_framework()
    curve = build_flex_curve(fw, 2)
    samples = sample_flex(curve, 100, span=np.pi)
    assert max_drift(fw, curve, samples) <= 1e-9
    # full parameter sweep closes the loop
    assert np.linalg.norm(samples[0].position - samples[-1].position) <= 1e-9


def test_single_sample_is_the_base_point():
    curve = build_flex_curve(make_hyperbola_framework(), 2)
    (only,) = sample_flex(curve, 1)
    assert only.t == curve.base_t
    assert np.allclose(only.position, [1.0, 2.0], atol=1e-12)
    with pytest.raises(ValueError):
        sample_flex(curve, 0)


def test_hyperbola_bias_strictly_decreasing_in_anchor_distance():
    fw = make_hyperbola_framework()
    curve = build_flex_curve(fw, 2)
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
        curve = build_flex_curve(fw, 2)
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
    # agent 2 is on d = 2 arcs: a curve, but no second placement
    with pytest.raises(ValueError, match="agent 2 is on 2 arcs; a second placement needs 3"):
        locate_second_intersection(fw, 2)
    # one more arc gives it d + 1 = 3: a second placement, but no curve
    bigger = ConicFramework(
        DirectedGraph(3, list(fw.graph.arcs) + [(2, 0)]), fw.config
    )
    with pytest.raises(ValueError, match="agent 2 is on 3 arcs; a flex curve needs 2"):
        build_flex_curve(bigger, 2)
    # two arcs, but both to agent 0: the foci coincide
    to_one = ConicFramework(DirectedGraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)]), fw.config)
    with pytest.raises(ValueError, match="both arcs at agent 2 end at agent 0"):
        build_flex_curve(to_one, 2)


def test_second_placement_matches_frozen_values():
    found = locate_second_intersection(make_pinned_framework(), 3)
    assert not found.degenerate
    assert found.position[0] == pytest.approx(PINNED_SECOND_POSITION[0], abs=1e-9)
    assert found.position[1] == pytest.approx(PINNED_SECOND_POSITION[1], abs=1e-9)
    assert found.bias == pytest.approx(PINNED_SECOND_BIAS, abs=1e-9)
    assert max(found.residuals) <= 1e-8
    assert len(found.solutions) == 2


def test_second_placement_preserves_every_pseudo_range():
    fw = make_pinned_framework()
    found = locate_second_intersection(fw, 3)
    moved = moved_framework(fw, 3, found.position, found.bias)
    drift = np.abs(arc_pseudo_ranges(moved) - arc_pseudo_ranges(fw))
    assert float(np.max(drift)) <= 1e-8
    # genuinely a different placement with a different bias
    assert np.linalg.norm(found.position - fw.config.positions[3]) > 0.5
    assert abs(found.bias - fw.config.biases[3]) > 0.1


def pinned(positions, biases, ties):
    """Doubly connected triangle 0-1-2 with agent 3 tied by the arcs ties."""
    return ConicFramework(
        DirectedGraph(4, TRIANGLE + list(ties)),
        Configuration(np.array(positions, dtype=float), np.array(biases, dtype=float)),
    )


def pseudo_range_drift(fw, found, v=3):
    moved = moved_framework(fw, v, found.position, found.bias)
    return float(np.max(np.abs(arc_pseudo_ranges(moved) - arc_pseudo_ranges(fw))))


def test_second_placement_of_a_far_mover():
    fw = pinned(
        [(1.861, 1.491), (2.857, 1.103), (0.421, 1.054), (2.207, 39.589)],
        (-0.157, 0.391, 0.005, 0.433),
        [(3, 0), (3, 1), (3, 2)],
    )
    found = locate_second_intersection(fw, 3)
    assert not found.degenerate
    assert found.position == pytest.approx([1.69262, 0.65034], abs=1e-5)
    assert found.bias == pytest.approx(-36.8092, abs=1e-4)
    assert pseudo_range_drift(fw, found) <= 1e-9


def test_a_root_asking_for_negative_distances_is_no_placement():
    # the quadratic's other root sits near (1.545, -0.727) with bias about
    # -4.28, where c_v + eps_v * bias < 0: no distance can match it
    fixture = make_pinned_framework()
    fw = pinned(fixture.config.positions, fixture.config.biases, [(3, 0), (3, 1), (3, 2)])
    found = locate_second_intersection(fw, 3)
    assert found.degenerate
    assert len(found.solutions) == 1
    assert np.array_equal(found.position, fw.config.positions[3])


def test_collinear_anchors_give_the_mirror_placement():
    fw = pinned(
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (1.5, 1.0)],
        (0.0, 0.3, -0.1, 0.2),
        [(0, 3), (3, 1), (2, 3)],
    )
    found = locate_second_intersection(fw, 3)
    assert not found.degenerate
    assert found.position == pytest.approx([1.5, -1.0], abs=1e-12)
    assert found.bias == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("mover", [(3.0, 0.0), (0.5, 0.0), (-1.0, 0.0)])
def test_an_agent_on_the_anchors_line_is_its_own_mirror(mover):
    # the quadratic's two roots coincide: one placement, not two
    fw = pinned(
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), mover],
        (0.0, 0.3, -0.1, 0.2),
        [(0, 3), (3, 1), (2, 3)],
    )
    found = locate_second_intersection(fw, 3)
    assert found.degenerate
    assert len(found.solutions) == 1
    assert max(found.residuals) <= 1e-12


def test_ties_that_do_not_pin_the_agent_are_refused():
    # on the anchors' line every tie differs from the next by the same
    # distance, so the two linear equations coincide and agent 3 slides
    fw = pinned(
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)],
        (0.0, 0.3, -0.1, 0.2),
        [(0, 3), (1, 3), (2, 3)],
    )
    with pytest.raises(ValueError, match="do not pin"):
        locate_second_intersection(fw, 3)


coordinate = st.floats(-3.0, 3.0, allow_nan=False)
point = st.tuples(coordinate, coordinate)


@settings(max_examples=60)
@given(
    anchors=st.tuples(point, point, point),
    mover=point,
    scale=st.sampled_from([0.2, 1.0, 10.0]),
    biases=st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 4),
    emits=st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
def test_every_placement_found_keeps_all_pseudo_ranges(anchors, mover, scale, biases, emits):
    positions = np.vstack([anchors, np.multiply(mover, scale)])
    (x0, y0), (x1, y1), (x2, y2) = anchors
    assume(abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) > 0.1)  # a triangle
    assume(min(np.linalg.norm(positions[3] - positions[v]) for v in range(3)) > 0.1)
    ties = [(3, v) if out else (v, 3) for v, out in enumerate(emits)]
    fw = pinned(positions, biases, ties)
    found = locate_second_intersection(fw, 3)
    assert np.array_equal(found.solutions[0], positions[3])
    assert len(found.solutions) <= 2
    assert found.degenerate == (len(found.solutions) == 1)
    assert np.array_equal(found.position, found.solutions[-1])
    assert pseudo_range_drift(fw, found) <= 1e-9


coordinate3 = st.tuples(coordinate, coordinate, coordinate)


@settings(max_examples=60)
@given(
    anchors=st.tuples(coordinate3, coordinate3, coordinate3, coordinate3),
    mover=coordinate3,
    scale=st.sampled_from([0.2, 1.0, 10.0]),
    biases=st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 5),
    emits=st.tuples(*[st.booleans()] * 4),
)
def test_an_agent_in_space_on_four_arcs_has_at_most_two_placements(
    anchors, mover, scale, biases, emits
):
    positions = np.vstack([anchors, np.multiply(mover, scale)])
    assume(abs(np.linalg.det(positions[1:4] - positions[0])) > 0.1)  # a tetrahedron
    assume(min(np.linalg.norm(positions[4] - positions[v]) for v in range(4)) > 0.1)
    ties = [(4, v) if out else (v, 4) for v, out in enumerate(emits)]
    fw = ConicFramework(
        DirectedGraph(5, ties),
        Configuration(positions, np.array(biases, dtype=float)),
    )
    found = locate_second_intersection(fw, 4)
    assert np.array_equal(found.solutions[0], positions[4])
    assert len(found.solutions) <= 2
    assert np.array_equal(found.position, found.solutions[-1])
    assert pseudo_range_drift(fw, found, v=4) <= 1e-9
