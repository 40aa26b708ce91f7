"""Tests for the reciprocal collision-avoidance layer."""

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar
from scipy.spatial.distance import cdist

from swarmflow.navigation import (
    HalfSpaceConstraint,
    HalfSpaceStack,
    NavConfig,
    _perpendiculars,
    build_orca_halfspace,
    close_pairs,
    orca_adjust,
    solve_velocity_lp,
)

KAPPA = 0.06
DT = 0.01


def _pairwise_min_distance(positions):
    m = positions.shape[0]
    best = np.inf
    for i in range(m):
        for j in range(i + 1, m):
            best = min(best, float(np.linalg.norm(positions[i] - positions[j])))
    return best


def _obstacle_gap(rel_pos, w, combined_radius, tau):
    """Signed gap between velocity ``w`` and the truncated obstacle.

    The obstacle is the union over collision times s in (0, tau] of balls
    centered at rel_pos / s with radius combined_radius / s.  The returned
    value is min_s ||rel_pos / s - w|| - combined_radius / s: negative
    inside the obstacle, ~0 on its boundary.
    """
    s_grid = np.linspace(tau * 1e-4, tau, 8001)
    diffs = rel_pos[None, :] / s_grid[:, None] - w[None, :]
    gaps = np.linalg.norm(diffs, axis=1) - combined_radius / s_grid
    k = int(np.argmin(gaps))
    lo = s_grid[max(k - 1, 0)]
    hi = s_grid[min(k + 1, s_grid.size - 1)]
    refined = minimize_scalar(
        lambda s: float(np.linalg.norm(rel_pos / s - w)) - combined_radius / s,
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-14})
    return min(float(gaps[k]), float(refined.fun))


def test_config_validation():
    with pytest.raises(ValueError):
        NavConfig(kappa=0.0, dt=DT)
    with pytest.raises(ValueError):
        NavConfig(kappa=KAPPA, dt=0.0)
    with pytest.raises(ValueError):
        NavConfig(kappa=KAPPA, dt=DT, tau=0.5 * DT)
    with pytest.raises(ValueError):
        NavConfig(kappa=KAPPA, dt=DT, v_max=-1.0)


def test_config_defaults():
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    assert cfg.horizon == 10.0 * DT
    assert cfg.culling_radius == 4.0 * KAPPA
    explicit = NavConfig(kappa=KAPPA, dt=DT, tau=0.3, neighbor_radius=1.0)
    assert explicit.horizon == 0.3
    assert explicit.culling_radius == 1.0


def test_perpendicular_unit_orthogonal_antisymmetric():
    rng = np.random.default_rng(7)
    vectors = [rng.standard_normal(3) for _ in range(200)]
    vectors += [np.array([1.0, 0.0, 0.0]), np.array([0.0, -2.0, 0.0]),
                np.array([0.0, 0.0, 3.0]), np.array([1.0, 1.0, 1.0])]
    vectors = np.array(vectors)
    perps = _perpendiculars(vectors)
    for v, p in zip(vectors, perps):
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12
        assert abs(np.dot(p, v)) < 1e-12 * max(1.0, np.linalg.norm(v))
    np.testing.assert_allclose(_perpendiculars(-vectors), -perps, atol=1e-15)


def test_halfspace_violation_sign():
    plane = HalfSpaceConstraint(point=np.array([0.0, 0.0, 1.0]),
                                normal=np.array([0.0, 0.0, 1.0]))
    assert plane.violation(np.array([0.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert plane.violation(np.array([0.0, 0.0, 2.0])) == pytest.approx(-1.0)
    assert plane.violation(np.array([5.0, -3.0, 1.0])) == pytest.approx(0.0)


def test_separated_pair_at_rest_stays_at_rest():
    # Two hovering agents outside the protected distance need no correction.
    positions = np.array([[0.0, 0.0, 0.0], [3.0 * KAPPA, 0.0, 0.0]])
    v_pref = np.zeros((2, 3))
    out = orca_adjust(v_pref, positions, NavConfig(kappa=KAPPA, dt=DT))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_agents_outside_culling_radius_ignore_each_other():
    positions = np.array([[0.0, 0.0, 0.0], [10.0 * KAPPA, 0.0, 0.0]])
    v_pref = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    out = orca_adjust(v_pref, positions, NavConfig(kappa=KAPPA, dt=DT))
    assert np.array_equal(out, v_pref)


def test_pair_constraints_are_reciprocal():
    rng = np.random.default_rng(11)
    tau = 10.0 * DT
    for _ in range(100):
        p_a = rng.standard_normal(3) * 0.2
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        p_b = p_a + direction * rng.uniform(0.3 * KAPPA, 5.0 * KAPPA)
        v_a = rng.standard_normal(3) * 0.8
        v_b = rng.standard_normal(3) * 0.8
        plane_a = build_orca_halfspace(p_a, v_a, p_b, v_b, KAPPA, tau, DT)
        plane_b = build_orca_halfspace(p_b, v_b, p_a, v_a, KAPPA, tau, DT)
        np.testing.assert_allclose(plane_b.normal, -plane_a.normal, atol=1e-12)
        np.testing.assert_allclose(plane_b.point - v_b,
                                   -(plane_a.point - v_a), atol=1e-12)


def test_pair_correction_lands_on_obstacle_boundary():
    # The half-space point encodes half the minimal relative-velocity
    # correction u; after both agents apply their halves the relative
    # velocity must sit exactly on the truncated-obstacle boundary.
    rng = np.random.default_rng(13)
    tau = 10.0 * DT
    checked = 0
    while checked < 60:
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        rel_pos = direction * rng.uniform(1.2 * KAPPA, 5.0 * KAPPA)
        v_self = rng.standard_normal(3) * 1.5
        v_other = rng.standard_normal(3) * 1.5
        rel_vel = v_self - v_other
        sine = np.linalg.norm(np.cross(rel_pos, rel_vel))
        if sine < 1e-3 * np.linalg.norm(rel_pos) * np.linalg.norm(rel_vel):
            continue  # exact head-on handled by its own test
        plane = build_orca_halfspace(np.zeros(3), v_self, rel_pos, v_other,
                                     KAPPA, tau, DT)
        u = 2.0 * (plane.point - v_self)
        gap = _obstacle_gap(rel_pos, rel_vel + u, KAPPA, tau)
        assert abs(gap) < 5e-7
        checked += 1


def test_overlapping_pair_correction_lands_on_escape_sphere():
    # Agents closer than the combined radius are pushed apart within one
    # step: the corrected relative velocity lies on the sphere centered at
    # rel_pos / dt with radius kappa / dt.
    rng = np.random.default_rng(17)
    for _ in range(40):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        rel_pos = direction * rng.uniform(0.05 * KAPPA, 0.95 * KAPPA)
        v_self = rng.standard_normal(3)
        v_other = rng.standard_normal(3)
        plane = build_orca_halfspace(np.zeros(3), v_self, rel_pos, v_other,
                                     KAPPA, 10.0 * DT, DT)
        u = 2.0 * (plane.point - v_self)
        w = (v_self - v_other) + u
        radius = np.linalg.norm(w - rel_pos / DT)
        assert radius == pytest.approx(KAPPA / DT, rel=1e-9)


def test_coincident_positions_raise():
    p = np.array([0.1, -0.2, 0.3])
    with pytest.raises(ValueError):
        build_orca_halfspace(p, np.zeros(3), p, np.zeros(3), KAPPA,
                             10.0 * DT, DT)


def test_exact_head_on_gets_lateral_escape():
    # Relative velocity exactly on the collision-cone axis and closing
    # faster than distance/horizon (a slower approach would exit through
    # the cap sphere instead): the constraint normal must be the flank's
    # normal (sideways, leaning back by the half-angle, so its component
    # along rel_pos is -kappa), the corrected relative velocity must sit on
    # the obstacle boundary, and mirrored inputs must get mirrored normals
    # so the pair splits.
    rel_pos = np.array([4.0 * KAPPA, 0.0, 0.0])
    v_self = np.array([1.5, 0.0, 0.0])
    v_other = np.array([-1.5, 0.0, 0.0])
    plane = build_orca_halfspace(np.zeros(3), v_self, rel_pos, v_other,
                                 KAPPA, 10.0 * DT, DT)
    assert abs(np.dot(plane.normal, rel_pos) + KAPPA) < 1e-12
    assert abs(np.linalg.norm(plane.normal) - 1.0) < 1e-12
    u = 2.0 * (plane.point - v_self)
    assert abs(_obstacle_gap(rel_pos, v_self - v_other + u, KAPPA,
                             10.0 * DT)) < 5e-7
    mirrored = build_orca_halfspace(rel_pos, v_other, np.zeros(3), v_self,
                                    KAPPA, 10.0 * DT, DT)
    np.testing.assert_allclose(mirrored.normal, -plane.normal, atol=1e-15)


def test_solve_clips_preferred_velocity_to_speed_cap():
    out = solve_velocity_lp(np.array([3.0, 0.0, 0.0]), [], 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-15)
    inside = solve_velocity_lp(np.array([0.2, -0.1, 0.05]), [], 1.0)
    np.testing.assert_allclose(inside, [0.2, -0.1, 0.05], atol=1e-15)


def test_solve_single_plane_projection_hand_case():
    plane = HalfSpaceConstraint(point=np.array([0.0, 0.0, 1.0]),
                                normal=np.array([0.0, 0.0, 1.0]))
    out = solve_velocity_lp(np.zeros(3), [plane], 2.0)
    np.testing.assert_allclose(out, [0.0, 0.0, 1.0], atol=1e-15)


def test_solve_matches_quadratic_programming_oracle():
    # Independent check of the incremental solver against scipy's SLSQP on
    # instances built around a known interior feasible point.
    rng = np.random.default_rng(19)
    v_max = 2.0
    for case in range(40):
        v_feasible = rng.standard_normal(3)
        v_feasible *= rng.uniform(0.0, 0.8) * v_max / np.linalg.norm(v_feasible)
        planes = []
        for _ in range(int(rng.integers(1, 6))):
            normal = rng.standard_normal(3)
            normal /= np.linalg.norm(normal)
            tangent = rng.standard_normal(3)
            tangent -= np.dot(tangent, normal) * normal
            point = (v_feasible - rng.uniform(0.0, 0.5) * normal
                     + 0.5 * tangent)
            planes.append(HalfSpaceConstraint(point, normal))
        v_pref = rng.standard_normal(3) * 1.5

        out = solve_velocity_lp(v_pref, planes, v_max)
        assert np.linalg.norm(out) <= v_max + 1e-9
        assert max(p.violation(out) for p in planes) <= 1e-9

        def all_slack(v):
            slacks = [np.dot(p.normal, v - p.point) for p in planes]
            slacks.append(v_max * v_max - float(np.dot(v, v)))
            return np.array(slacks)

        def all_slack_jac(v):
            rows = [p.normal for p in planes]
            rows.append(-2.0 * v)
            return np.array(rows)

        oracle = minimize(
            lambda v: float(np.dot(v - v_pref, v - v_pref)), v_feasible,
            jac=lambda v: 2.0 * (v - v_pref), method="SLSQP",
            constraints=[{"type": "ineq", "fun": all_slack,
                          "jac": all_slack_jac}],
            options={"ftol": 1e-14, "maxiter": 500})
        # status 8 is SLSQP stalling at its own precision limit, which the
        # point comparison below still validates
        assert oracle.success or oracle.status == 8, \
            f"oracle failed on case {case}"
        np.testing.assert_allclose(out, oracle.x, atol=3e-5)


def test_solve_infeasible_hand_case_minimizes_largest_violation():
    # Requirements v_x >= 2 and v_x <= -2 cannot both hold inside a unit
    # speed ball; the minimax-violation point has v_x = 0 with violation 2.
    planes = [
        HalfSpaceConstraint(np.array([2.0, 0.0, 0.0]),
                            np.array([1.0, 0.0, 0.0])),
        HalfSpaceConstraint(np.array([-2.0, 0.0, 0.0]),
                            np.array([-1.0, 0.0, 0.0])),
    ]
    out = solve_velocity_lp(np.array([0.3, 0.1, 0.0]), planes, 1.0)
    worst = max(p.violation(out) for p in planes)
    assert worst == pytest.approx(2.0, abs=1e-9)
    assert abs(out[0]) < 1e-9
    assert np.linalg.norm(out) <= 1.0 + 1e-12


def test_solve_infeasible_matches_minimax_oracle():
    rng = np.random.default_rng(23)
    v_max = 1.0
    for case in range(20):
        planes = []
        for _ in range(int(rng.integers(1, 4))):
            normal = rng.standard_normal(3)
            normal /= np.linalg.norm(normal)
            tangent = rng.standard_normal(3)
            tangent -= np.dot(tangent, normal) * normal
            point = normal * (v_max + rng.uniform(0.5, 2.0)) + 0.3 * tangent
            planes.append(HalfSpaceConstraint(point, normal))
        v_pref = rng.standard_normal(3)

        out = solve_velocity_lp(v_pref, planes, v_max)
        worst = max(p.violation(out) for p in planes)
        assert np.linalg.norm(out) <= v_max + 1e-9

        def slack(x):
            v, t = x[:3], x[3]
            slacks = [t - p.violation(v) for p in planes]
            slacks.append(v_max * v_max - float(np.dot(v, v)))
            return np.array(slacks)

        def slack_jac(x):
            rows = [np.concatenate([p.normal, [1.0]]) for p in planes]
            rows.append(np.concatenate([-2.0 * x[:3], [0.0]]))
            return np.array(rows)

        start = np.zeros(4)
        start[3] = max(p.violation(start[:3]) for p in planes) + 1.0
        oracle = minimize(
            lambda x: x[3], start, jac=lambda x: np.array([0.0, 0.0, 0.0, 1.0]),
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": slack, "jac": slack_jac}],
            options={"ftol": 1e-14, "maxiter": 500})
        assert oracle.success, f"oracle failed on case {case}"
        assert worst <= oracle.fun + 1e-5
        assert worst >= oracle.fun - 1e-5


def test_adjust_rejects_bad_shapes():
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    with pytest.raises(ValueError):
        orca_adjust(np.zeros((3, 3)), np.zeros((2, 3)), cfg)
    with pytest.raises(ValueError):
        orca_adjust(np.zeros((3, 2)), np.zeros((3, 2)), cfg)


def test_adjust_empty_swarm():
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    out = orca_adjust(np.zeros((0, 3)), np.zeros((0, 3)), cfg)
    assert out.shape == (0, 3)


def test_adjust_is_deterministic():
    rng = np.random.default_rng(29)
    positions = rng.uniform(-0.2, 0.2, size=(12, 3))
    v_pref = rng.standard_normal((12, 3))
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    first = orca_adjust(v_pref, positions, cfg)
    second = orca_adjust(v_pref, positions, cfg)
    assert np.array_equal(first, second)


def test_one_step_preserves_separation():
    # Scenes whose agents start at least kappa apart must still be at
    # least kappa apart after one Euler step with the adjusted velocities.
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        accepted = []
        while len(accepted) < 12:
            candidate = rng.uniform(-0.4, 0.4, size=3)
            if all(np.linalg.norm(candidate - q) >= 1.05 * KAPPA
                   for q in accepted):
                accepted.append(candidate)
        positions = np.array(accepted)
        v_pref = rng.standard_normal((12, 3))
        v_pref *= rng.uniform(0.0, 1.5, size=(12, 1)) / np.linalg.norm(
            v_pref, axis=1, keepdims=True)
        out = orca_adjust(v_pref, positions, cfg)
        moved = positions + DT * out
        assert _pairwise_min_distance(moved) >= KAPPA * (1.0 - 1e-9), seed


def test_head_on_pair_never_collides():
    # Two agents 4 kappa apart flying straight at each other must slide
    # around one another without ever dipping below the protected distance.
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    positions = np.array([[-2.0 * KAPPA, 0.0, 0.0],
                          [2.0 * KAPPA, 0.0, 0.0]])
    goals = np.array([[2.0 * KAPPA, 0.0, 0.0],
                      [-2.0 * KAPPA, 0.0, 0.0]])
    min_dist = np.inf
    for _ in range(120):
        to_goal = goals - positions
        norms = np.linalg.norm(to_goal, axis=1, keepdims=True)
        v_pref = np.where(norms > 1e-12, to_goal / np.maximum(norms, 1e-12),
                          0.0)
        out = orca_adjust(v_pref, positions, cfg)
        positions = positions + DT * out
        min_dist = min(min_dist,
                       float(np.linalg.norm(positions[0] - positions[1])))
    assert min_dist >= KAPPA * (1.0 - 1e-6)
    # both agents actually made progress toward their goals
    assert positions[0, 0] > -2.0 * KAPPA + 0.5 * KAPPA
    assert positions[1, 0] < 2.0 * KAPPA - 0.5 * KAPPA


def test_head_on_pairs_off_the_axes_escape_sideways():
    # On a line of centers off the coordinate axes the flank discriminant
    # of an exact head-on pair can round below zero; it must still give a
    # finite half-space on the flank's normal, and the pair must keep kappa
    # apart even when it starts barely more than kappa apart.
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    rng = np.random.default_rng(71)
    for _ in range(200):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        center = rng.uniform(-0.5, 0.5, size=3)
        half = 0.5 * rng.uniform(1.05 * KAPPA, 3.5 * KAPPA) * direction
        positions = np.array([center - half, center + half])
        v_pref = np.array([1.5 * direction, -1.5 * direction])
        plane = build_orca_halfspace(positions[0], v_pref[0], positions[1],
                                     v_pref[1], KAPPA, cfg.horizon, DT)
        assert np.all(np.isfinite(plane.point))
        assert np.all(np.isfinite(plane.normal))
        gap = np.linalg.norm(positions[1] - positions[0])
        assert abs(np.dot(plane.normal, direction) + KAPPA / gap) < 1e-9
        moved = positions + DT * orca_adjust(v_pref, positions, cfg)
        assert np.linalg.norm(moved[0] - moved[1]) >= KAPPA * (1.0 - 1e-9)


def test_overlapping_pair_separates_in_one_step():
    # Even with an all-zero preferred batch (default speed cap would be
    # zero without its kappa/dt floor) overlapping agents must split to
    # the full protected distance within a single step.
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    positions = np.array([[0.0, 0.0, 0.0], [0.25 * KAPPA, 0.0, 0.0]])
    out = orca_adjust(np.zeros((2, 3)), positions, cfg)
    moved = positions + DT * out
    dist = np.linalg.norm(moved[0] - moved[1])
    assert dist >= KAPPA * (1.0 - 1e-9)


def test_coincident_agents_get_pushed_apart():
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    positions = np.zeros((2, 3))
    out = orca_adjust(np.zeros((2, 3)), positions, cfg)
    moved = positions + DT * out
    dist = np.linalg.norm(moved[0] - moved[1])
    assert dist >= KAPPA * (1.0 - 1e-6)
    # the nudged line of centers is so short that the escape runs along
    # its deterministic perpendicular, in opposite directions per agent
    np.testing.assert_allclose(moved[0], -moved[1], atol=1e-12)


# ---------------------------------------------------------------------------
# Reference: the dense all-pairs scan with one scalar half-space per pair
# and the object-based LP.  The neighbor-list implementation must
# reproduce it bit for bit.

def _reference_perpendicular(v):
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(v)))] = 1.0
    w = np.cross(v, axis)
    return w / np.linalg.norm(w)


def _reference_halfspace(p_self, v_self, p_other, v_other, combined_radius,
                         tau, dt):
    rel_pos = p_other - p_self
    rel_vel = v_self - v_other
    dist_sq = float(np.dot(rel_pos, rel_pos))
    radius_sq = combined_radius * combined_radius
    if dist_sq > radius_sq:
        inv_tau = 1.0 / tau
        w = rel_vel - inv_tau * rel_pos
        w_len_sq = float(np.dot(w, w))
        dot = float(np.dot(w, rel_pos))
        if dot < 0.0 and dot * dot > radius_sq * w_len_sq:
            w_len = np.sqrt(w_len_sq)
            unit_w = w / w_len
            u = (combined_radius * inv_tau - w_len) * unit_w
        else:
            a = dist_sq
            b = float(np.dot(rel_pos, rel_vel))
            cr = np.cross(rel_pos, rel_vel)
            c = (float(np.dot(rel_vel, rel_vel))
                 - float(np.dot(cr, cr)) / (dist_sq - radius_sq))
            t = (b + np.sqrt(np.maximum(b * b - a * c, 0.0))) / a
            w = rel_vel - t * rel_pos
            w_len = float(np.linalg.norm(w))
            if w_len * w_len <= 1e-10 * max(1.0, t * t * dist_sq):
                unit_w = (np.sqrt(1.0 - radius_sq / dist_sq)
                          * _reference_perpendicular(rel_pos)
                          - (combined_radius / dist_sq) * rel_pos)
                w_len = 0.0
            else:
                unit_w = w / w_len
            u = (combined_radius * t - w_len) * unit_w
    else:
        inv_dt = 1.0 / dt
        w = rel_vel - inv_dt * rel_pos
        w_len = float(np.linalg.norm(w))
        if w_len * w_len <= 1e-10:
            unit_w = _reference_perpendicular(rel_pos)
            w_len = 0.0
        else:
            unit_w = w / w_len
        u = (combined_radius * inv_dt - w_len) * unit_w
    return HalfSpaceConstraint(point=v_self + 0.5 * u, normal=unit_w)


# The object-based scalar LP the stacked solver replaced, one
# ``HalfSpaceConstraint`` at a time; the stacked solver must reproduce it
# bit for bit.

def _reference_lp_line(planes, count, line_point, line_dir, radius, opt,
                       direction_opt):
    dot = float(np.dot(line_point, line_dir))
    disc = dot * dot + radius * radius - float(np.dot(line_point, line_point))
    if disc < 0.0:
        return None
    sqrt_disc = np.sqrt(disc)
    t_left = -dot - sqrt_disc
    t_right = -dot + sqrt_disc
    for i in range(count):
        numerator = float(np.dot(planes[i].point - line_point, planes[i].normal))
        denominator = float(np.dot(line_dir, planes[i].normal))
        if denominator * denominator <= 1e-10:
            if numerator > 0.0:
                return None
            continue
        t = numerator / denominator
        if denominator >= 0.0:
            t_left = max(t_left, t)
        else:
            t_right = min(t_right, t)
        if t_left > t_right:
            return None
    if direction_opt:
        t = t_right if float(np.dot(opt, line_dir)) > 0.0 else t_left
    else:
        t = float(np.dot(line_dir, opt - line_point))
        t = min(max(t, t_left), t_right)
    return line_point + t * line_dir


def _reference_lp_plane(planes, plane_no, radius, opt, direction_opt):
    plane = planes[plane_no]
    plane_dist = float(np.dot(plane.point, plane.normal))
    radius_sq = radius * radius
    if plane_dist * plane_dist > radius_sq:
        return None
    disc_radius_sq = radius_sq - plane_dist * plane_dist
    plane_center = plane_dist * plane.normal
    if direction_opt:
        in_plane = opt - float(np.dot(opt, plane.normal)) * plane.normal
        in_plane_sq = float(np.dot(in_plane, in_plane))
        if in_plane_sq <= 1e-10:
            result = plane_center
        else:
            result = plane_center + np.sqrt(disc_radius_sq / in_plane_sq) * in_plane
    else:
        result = opt + float(np.dot(plane.point - opt, plane.normal)) * plane.normal
        if float(np.dot(result, result)) > radius_sq:
            offset = result - plane_center
            offset_sq = float(np.dot(offset, offset))
            result = plane_center + np.sqrt(disc_radius_sq / offset_sq) * offset
    for i in range(plane_no):
        if planes[i].violation(result) > 0.0:
            cross = np.cross(planes[i].normal, plane.normal)
            if float(np.dot(cross, cross)) <= 1e-10:
                return None
            line_dir = cross / np.linalg.norm(cross)
            line_normal = np.cross(line_dir, plane.normal)
            scale = (float(np.dot(planes[i].point - plane.point, planes[i].normal))
                     / float(np.dot(line_normal, planes[i].normal)))
            line_point = plane.point + scale * line_normal
            result = _reference_lp_line(planes, i, line_point, line_dir,
                                        radius, opt, direction_opt)
            if result is None:
                return None
    return result


def _reference_lp_full(planes, radius, opt, direction_opt):
    if direction_opt:
        result = opt * radius
    elif float(np.dot(opt, opt)) > radius * radius:
        norm = float(np.linalg.norm(opt))
        result = opt * (radius / norm) if norm > 0.0 else np.zeros(3)
    else:
        result = np.asarray(opt, dtype=np.float64).copy()
    for i, plane in enumerate(planes):
        if plane.violation(result) > 0.0:
            attempt = _reference_lp_plane(planes, i, radius, opt, direction_opt)
            if attempt is None:
                return i, result
            result = attempt
    return len(planes), result


def _reference_lp_backproject(planes, begin, radius, result):
    distance = 0.0
    for i in range(begin, len(planes)):
        if planes[i].violation(result) > distance:
            proj_planes = []
            for j in range(i):
                cross = np.cross(planes[j].normal, planes[i].normal)
                if float(np.dot(cross, cross)) <= 1e-10:
                    if float(np.dot(planes[i].normal, planes[j].normal)) > 0.0:
                        continue
                    point = 0.5 * (planes[i].point + planes[j].point)
                else:
                    line_normal = np.cross(cross, planes[i].normal)
                    scale = (float(np.dot(planes[j].point - planes[i].point,
                                          planes[j].normal))
                             / float(np.dot(line_normal, planes[j].normal)))
                    point = planes[i].point + scale * line_normal
                diff = planes[j].normal - planes[i].normal
                normal = diff / np.linalg.norm(diff)
                proj_planes.append(HalfSpaceConstraint(point, normal))
            fail, attempt = _reference_lp_full(proj_planes, radius,
                                               planes[i].normal,
                                               direction_opt=True)
            if fail >= len(proj_planes):
                result = attempt
            distance = planes[i].violation(result)
    return result


def _reference_solve_lp(v_pref, planes, v_max):
    """Returns the velocity and whether the program was infeasible."""
    v_pref = np.asarray(v_pref, dtype=np.float64)
    fail, result = _reference_lp_full(planes, float(v_max), v_pref,
                                      direction_opt=False)
    if fail < len(planes):
        return _reference_lp_backproject(planes, fail, float(v_max),
                                         result), True
    return result, False


def _reference_orca_adjust(v_pref, positions, cfg):
    m = positions.shape[0]
    v_max = cfg.v_max if cfg.v_max is not None else max(
        2.0 * float(np.max(np.linalg.norm(v_pref, axis=1), initial=0.0)),
        cfg.kappa / cfg.dt)
    dist = cdist(positions, positions)
    out = np.empty_like(v_pref)
    for i in range(m):
        planes = []
        for j in range(m):
            if j == i or dist[i, j] >= cfg.culling_radius:
                continue
            p_other = positions[j]
            if dist[i, j] == 0.0:
                nudge = 1e-9 * cfg.kappa * (1.0 if j > i else -1.0)
                p_other = p_other + np.array([nudge, 0.0, 0.0])
            planes.append(_reference_halfspace(
                positions[i], v_pref[i], p_other, v_pref[j], cfg.kappa,
                cfg.horizon, cfg.dt))
        out[i] = _reference_solve_lp(v_pref[i], planes, v_max)[0]
    return out


def _assert_matches_reference(v_pref, positions, cfg):
    out = orca_adjust(v_pref, positions, cfg)
    assert np.array_equal(out, _reference_orca_adjust(v_pref, positions, cfg))
    return out


def _halfspace_cases(rng, count):
    """Random pairs mixing cap, flank, overlap and exact head-on cases."""
    for k in range(count):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        rel_pos = direction * rng.uniform(0.1 * KAPPA, 5.0 * KAPPA)
        p_self = rng.standard_normal(3) * 0.3
        v_self = rng.standard_normal(3) * rng.uniform(0.0, 3.0)
        v_other = rng.standard_normal(3) * rng.uniform(0.0, 3.0)
        if k % 5 == 0:  # exact head-on: relative velocity on the axis
            v_self, v_other = direction * 1.5, -direction * 1.5
        if k % 7 == 0:  # overlapping and at rest relative to each other
            v_other = v_self.copy()
        yield p_self, v_self, p_self + rel_pos, v_other


def test_halfspace_matches_scalar_reference_bitwise():
    rng = np.random.default_rng(41)
    for p_self, v_self, p_other, v_other in _halfspace_cases(rng, 400):
        for tau in (10.0 * DT, 3.0 * DT):
            got = build_orca_halfspace(p_self, v_self, p_other, v_other,
                                       KAPPA, tau, DT)
            want = _reference_halfspace(p_self, v_self, p_other, v_other,
                                        KAPPA, tau, DT)
            assert np.array_equal(got.point, want.point)
            assert np.array_equal(got.normal, want.normal)


@pytest.mark.parametrize("seed", range(6))
def test_adjust_matches_reference_on_dense_clusters(seed):
    rng = np.random.default_rng(500 + seed)
    m = 40
    centers = rng.uniform(-0.3, 0.3, size=(4, 3))
    positions = (centers[rng.integers(0, 4, size=m)]
                 + rng.normal(scale=1.5 * KAPPA, size=(m, 3)))
    v_pref = rng.standard_normal((m, 3)) * rng.uniform(0.0, 2.0, size=(m, 1))
    _assert_matches_reference(v_pref, positions, NavConfig(kappa=KAPPA, dt=DT))


def test_adjust_matches_reference_with_coincident_agents():
    rng = np.random.default_rng(53)
    positions = rng.uniform(-0.15, 0.15, size=(12, 3))
    positions[[3, 7, 10]] = positions[5]  # four agents share one point
    positions[11] = positions[0]
    v_pref = rng.standard_normal((12, 3))
    v_pref[7] = v_pref[5]
    _assert_matches_reference(v_pref, positions, NavConfig(kappa=KAPPA, dt=DT))
    _assert_matches_reference(np.zeros((12, 3)), positions,
                              NavConfig(kappa=KAPPA, dt=DT))


def test_adjust_matches_reference_on_exact_head_on_pair():
    positions = np.array([[-1.5 * KAPPA, 0.0, 0.0], [1.5 * KAPPA, 0.0, 0.0]])
    v_pref = np.array([[1.5, 0.0, 0.0], [-1.5, 0.0, 0.0]])
    out = _assert_matches_reference(v_pref, positions,
                                    NavConfig(kappa=KAPPA, dt=DT))
    assert np.any(out[:, 1:] != 0.0)  # escaped sideways


def test_adjust_matches_reference_on_overlapping_pairs():
    rng = np.random.default_rng(59)
    base = rng.uniform(-0.3, 0.3, size=(8, 3))
    offsets = rng.standard_normal((8, 3))
    offsets *= (rng.uniform(0.1, 0.9, size=(8, 1)) * KAPPA
                / np.linalg.norm(offsets, axis=1, keepdims=True))
    positions = np.concatenate([base, base + offsets])
    v_pref = rng.standard_normal((16, 3)) * 0.5
    v_pref[:3] = 0.0
    v_pref[8:11] = 0.0  # three pairs at rest
    _assert_matches_reference(v_pref, positions, NavConfig(kappa=KAPPA, dt=DT))


def test_pair_at_exactly_the_culling_radius_is_ignored():
    cfg = NavConfig(kappa=KAPPA, dt=DT, neighbor_radius=0.25)
    positions = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0]])
    v_pref = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert close_pairs(positions, 0.25)[0].shape == (0, 2)
    out = _assert_matches_reference(v_pref, positions, cfg)
    assert np.array_equal(out, v_pref)


def test_adjust_matches_reference_with_speed_cap_below_preferred():
    rng = np.random.default_rng(61)
    positions = rng.uniform(-1.0, 1.0, size=(30, 3))  # mostly no neighbors
    positions[1] = positions[0] + np.array([1.5 * KAPPA, 0.0, 0.0])
    v_pref = rng.standard_normal((30, 3)) * 2.0
    cfg = NavConfig(kappa=KAPPA, dt=DT, v_max=0.5)
    out = _assert_matches_reference(v_pref, positions, cfg)
    assert np.all(np.linalg.norm(out, axis=1) <= 0.5 * (1.0 + 1e-12))


@pytest.mark.parametrize("m", [1, 2])
def test_adjust_matches_reference_on_tiny_swarms(m):
    rng = np.random.default_rng(67 + m)
    for _ in range(20):
        positions = rng.uniform(-2.0 * KAPPA, 2.0 * KAPPA, size=(m, 3))
        v_pref = rng.standard_normal((m, 3)) * 1.5
        _assert_matches_reference(v_pref, positions,
                                  NavConfig(kappa=KAPPA, dt=DT))


@pytest.mark.parametrize("name", ["positions", "v_pref"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adjust_rejects_non_finite_input(name, bad):
    arrays = {"positions": np.zeros((3, 3)), "v_pref": np.zeros((3, 3))}
    arrays["positions"][:, 0] = [0.0, 1.0, 2.0]
    arrays[name][1, 2] = bad
    with pytest.raises(ValueError, match=name):
        orca_adjust(arrays["v_pref"], arrays["positions"],
                    NavConfig(kappa=KAPPA, dt=DT))


def _lp_cases(st):
    """Hypothesis strategy: (v_pref, points, normals, v_max) of random plane
    sets mixing fresh, parallel, near-parallel, opposite and duplicate
    planes, from well inside to beyond the speed cap.  Hypothesis picks the
    structure; the numbers come from a seeded generator, because the exact
    values Hypothesis favours (0.5, 1.0, ...) round the same with and
    without fused multiply-adds and would hide a rounding change."""

    @st.composite
    def cases(draw):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        v_max = rng.uniform(0.1, 2.0)
        points, normals = [], []
        for _ in range(draw(st.integers(0, 16))):
            kind = draw(st.sampled_from(
                ["fresh", "parallel", "near", "opposite", "duplicate"])
                if normals else st.just("fresh"))
            j = draw(st.integers(0, len(normals) - 1)) if normals else 0
            if kind == "duplicate":
                points.append(points[j])
                normals.append(normals[j])
                continue
            if kind in ("parallel", "opposite"):
                normal = normals[j] if kind == "parallel" else -normals[j]
            else:
                normal = rng.standard_normal(3)
                if kind == "near":
                    normal = normals[j] + 1e-6 * normal
                normal = normal / np.linalg.norm(normal)
            points.append(v_max * rng.uniform(-1.0, 0.9) * normal
                          + 0.5 * rng.standard_normal(3))
            normals.append(normal)
        v_pref = rng.standard_normal(3) * rng.uniform(0.0, 3.0)
        return (v_pref, np.array(points).reshape(-1, 3),
                np.array(normals).reshape(-1, 3), v_max)

    return cases()


def test_stacked_lp_matches_object_lp_bitwise():
    hypothesis = pytest.importorskip("hypothesis")
    seen = {"infeasible": 0, "empty": 0}

    @hypothesis.settings(max_examples=600, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.example((np.array([3.0, 0.0, 0.0]), np.zeros((0, 3)),
                         np.zeros((0, 3)), 1.0))  # speed cap only
    @hypothesis.example((np.array([0.3, 0.1, 0.0]),  # infeasible, duplicate
                         np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0],
                                   [-2.0, 0.0, 0.0]]),
                         np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                                   [-1.0, 0.0, 0.0]]), 1.0))
    @hypothesis.given(_lp_cases(hypothesis.strategies))
    def check(case):
        v_pref, points, normals, v_max = case
        planes = [HalfSpaceConstraint(p, n) for p, n in zip(points, normals)]
        want, infeasible = _reference_solve_lp(v_pref, planes, v_max)
        stack = HalfSpaceStack(points, normals)
        got = solve_velocity_lp(v_pref, stack, v_max)
        assert np.array_equal(got, want)
        assert np.array_equal(solve_velocity_lp(v_pref, planes, v_max), want)
        # a stack iterates as its constraints, in row order
        assert [c.violation(got) for c in stack] == [
            c.violation(got) for c in planes]
        seen["infeasible"] += infeasible
        seen["empty"] += not planes

    check()
    assert seen["infeasible"] >= 20 and seen["empty"] >= 1
