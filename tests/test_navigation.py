"""Tests for the reciprocal collision-avoidance layer."""

import collections
import functools
import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar
from scipy.spatial.distance import cdist

from swarmflow import navigation
from swarmflow.navigation import (
    NavConfig,
    _first_violated,
    _fold,
    _perpendiculars,
    _solve_lps,
    build_orca_halfspace,
    close_pairs,
    orca_adjust,
    solve_velocity_lp,
    speed_cap,
)

KAPPA = 0.06
DT = 0.01


@dataclass
class _Plane:
    """One half-space row: permitted velocities satisfy
    (v - point) . normal >= 0."""

    point: np.ndarray
    normal: np.ndarray

    def violation(self, v) -> float:
        """Signed violation depth; positive when ``v`` is forbidden."""
        return float(np.dot(self.normal, self.point - v))


def _halfspace(p_self, v_self, p_other, v_other, combined_radius, tau, dt):
    """``build_orca_halfspace`` on one pair, as a ``_Plane`` for the self
    agent.  Checks on the way that the builder returns two rows, the
    second of which (the other agent's) is the first row of the build
    with the two agents swapped."""
    rows = [np.reshape(x, (1, 3)).astype(np.float64)
            for x in (p_self, v_self, p_other, v_other)]
    points, normals = build_orca_halfspace(*rows, combined_radius, tau, dt)
    assert points.shape == normals.shape == (2, 3)
    swapped = build_orca_halfspace(*rows[2:], *rows[:2], combined_radius,
                                   tau, dt)
    assert np.array_equal(points[1], swapped[0][0])
    assert np.array_equal(normals[1], swapped[1][0])
    return _Plane(points[0], normals[0])


def _solve(v_pref, planes, v_max):
    """``solve_velocity_lp`` on a list of ``_Plane`` rows."""
    return solve_velocity_lp(v_pref, [p.point for p in planes],
                             [p.normal for p in planes], v_max)


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
    for bad in (np.inf, -np.inf, np.nan, "0.1", None, False, [0.1]):
        for name in ("kappa", "dt"):
            settings = {"kappa": KAPPA, "dt": DT, name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be finite") \
                    as info:
                NavConfig(**settings)
            assert "\n" not in str(info.value)


def test_config_defaults():
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    assert cfg.horizon == 10.0 * DT
    assert cfg.culling_radius == 4.0 * KAPPA


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
        plane_a = _halfspace(p_a, v_a, p_b, v_b, KAPPA, tau, DT)
        plane_b = _halfspace(p_b, v_b, p_a, v_a, KAPPA, tau, DT)
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
        plane = _halfspace(np.zeros(3), v_self, rel_pos, v_other,
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
        plane = _halfspace(np.zeros(3), v_self, rel_pos, v_other,
                           KAPPA, 10.0 * DT, DT)
        u = 2.0 * (plane.point - v_self)
        w = (v_self - v_other) + u
        radius = np.linalg.norm(w - rel_pos / DT)
        assert radius == pytest.approx(KAPPA / DT, rel=1e-9)


def test_coincident_positions_raise():
    p = np.array([0.1, -0.2, 0.3])
    with pytest.raises(ValueError):
        _halfspace(p, np.zeros(3), p, np.zeros(3), KAPPA, 10.0 * DT, DT)


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
    plane = _halfspace(np.zeros(3), v_self, rel_pos, v_other,
                       KAPPA, 10.0 * DT, DT)
    assert abs(np.dot(plane.normal, rel_pos) + KAPPA) < 1e-12
    assert abs(np.linalg.norm(plane.normal) - 1.0) < 1e-12
    u = 2.0 * (plane.point - v_self)
    assert abs(_obstacle_gap(rel_pos, v_self - v_other + u, KAPPA,
                             10.0 * DT)) < 5e-7
    mirrored = _halfspace(rel_pos, v_other, np.zeros(3), v_self,
                          KAPPA, 10.0 * DT, DT)
    np.testing.assert_allclose(mirrored.normal, -plane.normal, atol=1e-15)


def test_solve_clips_preferred_velocity_to_speed_cap():
    out = _solve(np.array([3.0, 0.0, 0.0]), [], 1.0)
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-15)
    inside = _solve(np.array([0.2, -0.1, 0.05]), [], 1.0)
    np.testing.assert_allclose(inside, [0.2, -0.1, 0.05], atol=1e-15)


def test_solve_single_plane_projection_hand_case():
    out = solve_velocity_lp(np.zeros(3), [[0.0, 0.0, 1.0]], [[0.0, 0.0, 1.0]],
                            2.0)
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
            planes.append(_Plane(point, normal))
        v_pref = rng.standard_normal(3) * 1.5

        out = _solve(v_pref, planes, v_max)
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
        _Plane(np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
        _Plane(np.array([-2.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])),
    ]
    out = _solve(np.array([0.3, 0.1, 0.0]), planes, 1.0)
    worst = max(p.violation(out) for p in planes)
    assert worst == pytest.approx(2.0, abs=1e-9)
    assert abs(out[0]) < 1e-9
    assert np.linalg.norm(out) <= 1.0 + 1e-12


def _minimax_on_ball(planes, v_max):
    """Exact minimum over the ball |v| <= v_max of the largest violation
    of a few planes, when the optimum lies on the sphere (so whenever no
    convex combination of the normals vanishes).

    The program is convex, so a KKT point is optimal.  At one, the active
    planes S tie at the value t and v = N_S^T a with a >= 0, |v| = v_max.
    For every subset S the ties fix a up to a line, which meets the
    sphere in at most two points; a point with a >= 0 that no other plane
    violates by more than t is a KKT point.  ``success`` says one was
    found.  Closed form, so the result cannot depend on how an iterative
    solver's BLAS calls round.
    """
    normals = np.array([p.normal for p in planes])
    offsets = np.array([np.dot(p.normal, p.point) for p in planes])
    best = SimpleNamespace(success=False, fun=np.inf)
    for size in range(1, len(planes) + 1):
        for subset in itertools.combinations(range(len(planes)), size):
            rows = list(subset)
            # the ties (n_p - n_0) . v = c_p - c_0 in the coefficients a
            ties = (normals[rows[1:]] - normals[rows[0]]) @ normals[rows].T
            rhs = offsets[rows[1:]] - offsets[rows[0]]
            if size == 1:
                a0, a1 = np.zeros(1), np.ones(1)
            else:
                a0 = np.linalg.lstsq(ties, rhs, rcond=None)[0]
                a1 = np.linalg.svd(ties)[2][-1]
            p0, d = normals[rows].T @ a0, normals[rows].T @ a1
            qa, qb = np.dot(d, d), np.dot(p0, d)
            disc = qb * qb - qa * (np.dot(p0, p0) - v_max * v_max)
            if disc < 0.0:
                continue
            for step in ((-qb + np.sqrt(disc)) / qa,
                         (-qb - np.sqrt(disc)) / qa):
                v = p0 + step * d
                t = offsets[rows[0]] - np.dot(normals[rows[0]], v)
                if (np.all(a0 + step * a1 >= -1e-12)
                        and np.all(offsets - normals @ v <= t + 1e-12)
                        and t < best.fun):
                    best = SimpleNamespace(success=True, fun=t)
    return best


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
            planes.append(_Plane(point, normal))
        v_pref = rng.standard_normal(3)

        out = _solve(v_pref, planes, v_max)
        worst = max(p.violation(out) for p in planes)
        assert np.linalg.norm(out) <= v_max + 1e-9

        oracle = _minimax_on_ball(planes, v_max)
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
        plane = _halfspace(positions[0], v_pref[0], positions[1],
                           v_pref[1], KAPPA, cfg.horizon, DT)
        assert np.all(np.isfinite(plane.point))
        assert np.all(np.isfinite(plane.normal))
        gap = np.linalg.norm(positions[1] - positions[0])
        assert abs(np.dot(plane.normal, direction) + KAPPA / gap) < 1e-9
        moved = positions + DT * orca_adjust(v_pref, positions, cfg)
        assert np.linalg.norm(moved[0] - moved[1]) >= KAPPA * (1.0 - 1e-9)


def test_adjust_builds_every_half_space_in_one_call(monkeypatch):
    # orca_adjust builds a step's half-spaces with one call of the module's
    # builder, two rows per close pair, so a wrapper put on
    # ``navigation.build_orca_halfspace`` sees all of them; wrapping it
    # changes no velocity.
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    rng = np.random.default_rng(31)
    positions = rng.uniform(-0.15, 0.15, size=(40, 3))
    v_pref = rng.standard_normal((40, 3))
    want = orca_adjust(v_pref, positions, cfg)
    pairs = len(close_pairs(positions, cfg.culling_radius)[0])
    assert pairs > 0
    builder = navigation.build_orca_halfspace
    rows = []

    def counting(*args):
        points, normals = builder(*args)
        rows.append(len(points))
        return points, normals

    monkeypatch.setattr(navigation, "build_orca_halfspace", counting)
    for _ in range(3):
        assert np.array_equal(orca_adjust(v_pref, positions, cfg), want)
    assert rows == [2 * pairs] * 3


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
                         tau, dt, branches=None):
    """The half-space of one pair for the self agent; adds the name of the
    case the pair takes to ``branches`` when that set is given."""
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
            branch = "cap"
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
                branch = "head-on"
                unit_w = (np.sqrt(1.0 - radius_sq / dist_sq)
                          * _reference_perpendicular(rel_pos)
                          - (combined_radius / dist_sq) * rel_pos)
                w_len = 0.0
            else:
                branch = "flank"
                unit_w = w / w_len
            u = (combined_radius * t - w_len) * unit_w
    else:
        inv_dt = 1.0 / dt
        w = rel_vel - inv_dt * rel_pos
        w_len = float(np.linalg.norm(w))
        if w_len * w_len <= 1e-10:
            branch = "overlap, escaping sideways"
            unit_w = _reference_perpendicular(rel_pos)
            w_len = 0.0
        else:
            branch = "overlap"
            unit_w = w / w_len
        u = (combined_radius * inv_dt - w_len) * unit_w
    if branches is not None:
        branches.add(branch)
    return _Plane(point=v_self + 0.5 * u, normal=unit_w)


# The scalar LP the lockstep solver replaced, one ``_Plane`` at a time;
# the lockstep solver must reproduce it bit for bit.

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
                proj_planes.append(_Plane(point, normal))
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


def _reference_programs(v_pref, positions, cfg):
    """Every agent's half-spaces from the dense all-pairs scan, and the
    speed cap of the swarm."""
    m = positions.shape[0]
    v_max = max(
        2.0 * float(np.max(np.linalg.norm(v_pref, axis=1), initial=0.0)),
        cfg.kappa / cfg.dt)
    dist = cdist(positions, positions)
    programs = []
    for i in range(m):
        planes = []
        for j in range(m):
            if j == i or dist[i, j] >= cfg.culling_radius:
                continue
            p_self, p_other = positions[i].copy(), positions[j].copy()
            if dist[i, j] == 0.0:
                # the higher-indexed agent of a coincident pair moves along
                # +x, in both agents' half-spaces
                (p_other if j > i else p_self)[0] += 1e-9 * cfg.kappa
            planes.append(_reference_halfspace(
                p_self, v_pref[i], p_other, v_pref[j], cfg.kappa,
                cfg.horizon, cfg.dt))
        programs.append(planes)
    return programs, v_max


def _reference_orca_adjust(v_pref, positions, cfg):
    programs, v_max = _reference_programs(v_pref, positions, cfg)
    out = np.empty_like(v_pref)
    for i, planes in enumerate(programs):
        out[i] = _reference_solve_lp(v_pref[i], planes, v_max)[0]
    return out


def _assert_matches_reference(v_pref, positions, cfg):
    out = orca_adjust(v_pref, positions, cfg)
    assert np.array_equal(out, _reference_orca_adjust(v_pref, positions, cfg))
    return out


def _count_chains(monkeypatch):
    """Wrap the lockstep walks and return a counter of the chain steps they
    take after each chain's first one, keyed by (phase, level, path).
    Phase is "backproject" inside ``_lp_backproject``, else "main"; level
    is "plane" for the walk of ``_lp_full`` and "line" for that of
    ``_lp_plane``.  Path "walk" counts the chains in every ``solve`` call
    after the first that is not a batch; path "batch" counts the chains
    that ``_chain_end`` followed through at least one link, so that two or
    more of their steps came from the batched solve."""
    counts = collections.Counter()
    phase, frames = ["main"], []
    follow, chain_end = navigation._follow, navigation._chain_end
    backproject = navigation._lp_backproject
    levels = {"_lp_full": "plane", "_lp_plane": "line"}

    def backprojecting(*args):
        phase.append("backproject")
        try:
            return backproject(*args)
        finally:
            phase.pop()

    def following(solve, *args):
        calls, batched = [], []
        frames.append(batched)

        def counted(a, *rest):
            calls.append(len(a))
            return solve(a, *rest)

        try:
            return follow(counted, *args)
        finally:
            frames.pop()
            key = (phase[-1], levels[solve.__qualname__.split(".")[0]])
            counts[key + ("walk",)] += sum(calls[1:len(calls) - len(batched)])
            counts[key + ("batch",)] += sum(batched)

    def ending(succ, start):
        end = chain_end(succ, start)
        frames[-1].append(int(np.count_nonzero(end != start)))
        return end

    monkeypatch.setattr(navigation, "_lp_backproject", backprojecting)
    monkeypatch.setattr(navigation, "_follow", following)
    monkeypatch.setattr(navigation, "_chain_end", ending)
    return counts


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
    # Every pair in one stacked call: row k must equal the pair computed
    # on its own by the scalar reference, and row P + k the same pair
    # computed from the other agent's side, byte for byte.
    rng = np.random.default_rng(41)
    cases = list(_halfspace_cases(rng, 400))
    rows = [np.array(column) for column in zip(*cases)]
    count = len(cases)
    for tau in (10.0 * DT, 3.0 * DT):
        points, normals = build_orca_halfspace(*rows, KAPPA, tau, DT)
        assert points.shape == normals.shape == (2 * count, 3)
        for k, (p_self, v_self, p_other, v_other) in enumerate(cases):
            want = _reference_halfspace(p_self, v_self, p_other, v_other,
                                        KAPPA, tau, DT)
            assert points[k].tobytes() == want.point.tobytes()
            assert normals[k].tobytes() == want.normal.tobytes()
            mirror = _reference_halfspace(p_other, v_other, p_self, v_self,
                                          KAPPA, tau, DT)
            assert points[count + k].tobytes() == mirror.point.tobytes()
            assert normals[count + k].tobytes() == mirror.normal.tobytes()


_PAIR_KINDS = ("cap", "flank", "head-on", "overlap",
               "overlap, escaping sideways", "coincident")


def _pair_of_kind(kind, center, rng):
    """Positions and preferred velocities, (2, 3) each, of two agents near
    ``center`` whose pair takes the named case of the half-space builder.
    A "head-on" pair lies on a line parallel to an axis and flies along
    it, so its relative velocity is exactly on the line of centers; an
    "overlap, escaping sideways" pair closes exactly its distance in one
    ``DT``, so the vector the overlap's correction follows vanishes."""
    p = center + rng.uniform(-0.1, 0.1, size=3)
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    v = rng.standard_normal((2, 3)) * rng.uniform(0.0, 3.0)
    if kind == "coincident":
        return np.stack([p, p]), v
    if kind == "head-on":
        axis = rng.integers(3)
        q = p.copy()
        q[axis] += rng.uniform(1.2, 3.5) * KAPPA
        v = np.zeros((2, 3))
        v[:, axis] = rng.uniform(1.5, 3.0, size=2) * [1.0, -1.0]
        return np.stack([p, q]), v
    if kind.startswith("overlap"):
        q = p + rng.uniform(0.05, 0.95) * KAPPA * direction
        if kind != "overlap":
            v[0], v[1] = (1.0 / DT) * (q - p), 0.0
        return np.stack([p, q]), v
    q = p + rng.uniform(1.5, 3.5) * KAPPA * direction
    if kind == "cap":  # closing, but slower than one horizon's approach
        v[1] = 0.3 * rng.standard_normal(3)
        v[0] = (v[1] + rng.uniform(0.2, 0.9) / (10.0 * DT) * (q - p)
                + 0.01 * rng.standard_normal(3))
    return np.stack([p, q]), v


def test_mirror_rows_match_the_reference_from_the_other_side(monkeypatch):
    # orca_adjust on pairs of every kind, far apart from one another: the
    # builder's row k must be the scalar reference for the lower-indexed
    # agent of pair k, byte for byte, and row P + k the reference for the
    # higher-indexed agent.  Coincident agents reach the builder only this
    # way, with the higher-indexed agent moved along +x.  The velocities
    # must be the reference's too.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    builder = navigation.build_orca_halfspace
    built = []

    def recording(*args):
        points, normals = builder(*args)
        built.append((args, points, normals))
        return points, normals

    monkeypatch.setattr(navigation, "build_orca_halfspace", recording)
    branches, coincident = set(), []

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.lists(st.sampled_from(_PAIR_KINDS), min_size=1,
                               max_size=5),
                      st.integers(0, 2**32 - 1))
    def check(kinds, seed):
        rng = np.random.default_rng(seed)
        scene = [_pair_of_kind(kind, np.array([n, 0.0, 0.0]), rng)
                 for n, kind in enumerate(kinds)]
        positions = np.concatenate([pair[0] for pair in scene])
        v_pref = np.concatenate([pair[1] for pair in scene])
        # shuffled, so either agent of a pair can be the lower-indexed one
        order = rng.permutation(len(positions))
        positions, v_pref = positions[order], v_pref[order]
        built.clear()
        _assert_matches_reference(v_pref, positions, cfg)
        [(args, points, normals)] = built
        p_self, v_self, p_other, v_other, *params = args
        count = len(kinds)
        assert points.shape == normals.shape == (2 * count, 3)
        for k in range(count):
            want = _reference_halfspace(p_self[k], v_self[k], p_other[k],
                                        v_other[k], *params, branches)
            assert points[k].tobytes() == want.point.tobytes()
            assert normals[k].tobytes() == want.normal.tobytes()
            # the mirror negates the self row's normal, so a zero component
            # can have the other sign than in the other side's own build
            # (where x - x gives +0); every other bit must agree
            assert normals[count + k].tobytes() == (-normals[k]).tobytes()
            mirror = _reference_halfspace(p_other[k], v_other[k], p_self[k],
                                          v_self[k], *params)
            assert np.array_equal(points[count + k], mirror.point)
            assert np.array_equal(normals[count + k], mirror.normal)
        coincident.extend(kind for kind in kinds if kind == "coincident")

    check()
    assert branches == set(_PAIR_KINDS) - {"coincident"}, branches
    assert len(coincident) >= 20


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


def test_coincident_pair_is_displaced_once_for_both_agents(monkeypatch):
    # At x = 1/16 + 1e-11 the nudge of 1e-9 kappa rounds differently above
    # and below the point, so agents that each displaced the other would
    # build their half-spaces from two different pairs.  orca_adjust
    # displaces the higher-indexed agent along +x once, for both rows, as
    # the reference does.
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    positions = np.full((2, 3), 0.0625 + 1e-11)
    v_pref = np.array([[0.3, -0.2, 0.1], [0.1, 0.4, 0.0]])
    point, nudge = positions[0, 0], 1e-9 * KAPPA
    assert (point + nudge) - point != point - (point - nudge)
    builder = navigation.build_orca_halfspace
    built = []

    def recording(*args):
        built.append(args)
        return builder(*args)

    monkeypatch.setattr(navigation, "build_orca_halfspace", recording)
    _assert_matches_reference(v_pref, positions, cfg)
    [(p_self, _, p_other, *_)] = built
    assert np.array_equal(p_self, positions[:1])
    assert np.array_equal(p_other, [[point + nudge, point, point]])


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


@pytest.mark.parametrize("side, spacing, seed", [
    pytest.param(3, 0.8, 80, id="0"),
    pytest.param(3, 0.8, 81, id="1"),
    pytest.param(3, 0.8, 82, id="2"),
    pytest.param(4, 0.6, 83, id="dense"),
])
def test_adjust_matches_reference_with_concurrent_back_projection(
        monkeypatch, side, spacing, seed):
    # A grid of overlapping agents: many programs are infeasible in the
    # same call, so their back-projections run in lockstep next to feasible
    # ones.  In the dense 4x4x4 grid every agent has 63 rows, so the main
    # LP's remaining candidates are too many to batch and its chains walk,
    # while the back-projection's narrower calls batch theirs.
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3),
                    axis=-1).reshape(-1, 3)
    positions = spacing * KAPPA * grid + rng.normal(scale=0.05 * KAPPA,
                                                    size=grid.shape)
    v_pref = rng.standard_normal(grid.shape) * 0.2
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    programs, v_max = _reference_programs(v_pref, positions, cfg)
    infeasible = [_reference_solve_lp(v, planes, v_max)[1]
                  for v, planes in zip(v_pref, programs)]
    assert 2 <= sum(infeasible) < len(infeasible)
    chains = _count_chains(monkeypatch)
    _assert_matches_reference(v_pref, positions, cfg)
    if side == 4:
        assert chains["main", "plane", "walk"] >= 100, chains
        assert chains["backproject", "plane", "batch"] >= 10, chains
        assert chains["backproject", "line", "batch"] >= 10, chains


def test_pair_at_exactly_the_culling_radius_is_ignored():
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    radius = cfg.culling_radius
    positions = np.array([[0.0, 0.0, 0.0], [radius, 0.0, 0.0]])
    v_pref = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert close_pairs(positions, radius)[0].shape == (0, 2)
    out = _assert_matches_reference(v_pref, positions, cfg)
    assert np.array_equal(out, v_pref)


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


# ``_BATCH_ROWS`` at 0 walks every chain; above every case here, each chain
# that outlives its first step is solved by the batched path.
_CROSSOVERS = pytest.mark.parametrize("batch_rows", [0, 1 << 30],
                                      ids=["walk", "batch"])


def _assert_chains_took(chains, batch_rows, least):
    """Both levels followed chains of two or more steps on the path that
    ``batch_rows`` picks, at least ``least`` times each, and never on the
    other path."""
    took = collections.Counter()
    for (_, level, path), n in chains.items():
        took[level, path] += n
    path, other = ("walk", "batch") if batch_rows == 0 else ("batch", "walk")
    for level in ("plane", "line"):
        assert took[level, path] >= least and not took[level, other], took


@_CROSSOVERS
def test_stacked_lp_matches_object_lp_bitwise(monkeypatch, batch_rows):
    hypothesis = pytest.importorskip("hypothesis")
    monkeypatch.setattr(navigation, "_BATCH_ROWS", batch_rows)
    chains = _count_chains(monkeypatch)
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
        planes = [_Plane(p, n) for p, n in zip(points, normals)]
        want, infeasible = _reference_solve_lp(v_pref, planes, v_max)
        got = solve_velocity_lp(v_pref, points, normals, v_max)
        assert np.array_equal(got, want)
        seen["infeasible"] += infeasible
        seen["empty"] += not planes

    check()
    assert seen["infeasible"] >= 20 and seen["empty"] >= 1
    _assert_chains_took(chains, batch_rows, 50)


def test_line_bound_fold_keeps_the_first_of_tied_values():
    # Python's max and min keep the first of tied values, so a zero bound
    # keeps the sign it had first; the lockstep fold must do the same.  With
    # NaN in the starts or rows it must still pick what one pick over the
    # start and the row side by side picks (np.argmax and np.argmin take
    # the first NaN), the form the fold replaced.
    values = [-0.0, 0.0, -1.0, 1.0, -np.inf, np.inf, np.nan]
    rows = np.array(list(itertools.product(values, repeat=3)))
    finite = ~np.isnan(rows).any(axis=1)
    for start in (-0.0, 0.0, -1.0, 1.0, np.nan):
        starts = np.full(len(rows), start)
        both = np.concatenate([starts[:, None], rows], axis=1)
        for pick, fold in ((np.argmax, max), (np.argmin, min)):
            got = _fold(starts, rows, pick)
            old = both[np.arange(len(both)), pick(both, axis=1)]
            assert got.tobytes() == old.tobytes()
            if not np.isnan(start):
                want = [functools.reduce(fold, row, start)
                        for row in rows[finite].tolist()]
                assert got[finite].tobytes() == np.array(want).tobytes()


def test_start_rows_are_the_lps_own_first_scan(monkeypatch):
    # ``orca_adjust`` hands ``_solve_lps`` each program's first violated row
    # from its own violation test, in place of the LP's first scan.  That
    # is exact while the LP starts at ``v_pref`` unclipped, which a cap of
    # at least twice every preferred speed keeps with rounding to spare:
    # with a cap of one times the fastest agent, that agent's start could
    # be clipped by an ulp.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    solve = navigation._solve_lps
    calls = []

    def recording(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(navigation, "_solve_lps", recording)
    seen = collections.Counter()

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.example(0, "rest")
    @hypothesis.example(0, "one fast")
    @hypothesis.given(st.integers(0, 2**32 - 1),
                      st.sampled_from(["rest", "random", "one fast"]))
    def check(seed, speeds):
        rng = np.random.default_rng(seed)
        m = 30
        positions = rng.normal(scale=1.5 * KAPPA, size=(m, 3))
        v_pref = rng.standard_normal((m, 3)) * rng.uniform(0.0, 2.0, (m, 1))
        if speeds == "rest":  # the cap is the kappa/dt floor
            v_pref[:] = 0.0
        elif speeds == "one fast":  # agent 0 heads at its nearest neighbour
            nearest = 1 + np.argmin(cdist(positions[:1], positions[1:]))
            heading = positions[nearest] - positions[0]
            v_pref[0] = 10.0 * KAPPA / DT * heading / np.linalg.norm(heading)
        calls.clear()
        orca_adjust(v_pref, positions, cfg)
        (v, points, normals, valid, v_max, first), = calls
        assert v_max == speed_cap(v_pref, cfg)
        assert np.all(2.0 * np.linalg.norm(v, axis=1) <= v_max)
        assert np.array_equal(first, _first_violated(points, normals, valid, v))
        scanned = solve(v, points, normals, valid, v_max)
        assert all(map(np.array_equal, scanned, solve(*calls[0])))
        seen["floor"] += v_max == KAPPA / DT
        seen["fast agent corrected"] += bool(
            speeds == "one fast" and np.all(v == v_pref[0], axis=1).any()
            and v_max == speed_cap(v_pref[:1], cfg))

    check()
    assert seen["floor"] >= 20 and seen["fast agent corrected"] >= 20, seen


@_CROSSOVERS
def test_lockstep_lp_matches_each_program_alone_bitwise(monkeypatch,
                                                        batch_rows):
    # Programs of mixed size and feasibility, solved in one lockstep call,
    # must each come out exactly as the reference solves it alone.  Each
    # program's rows sit at random sorted columns of the padded arrays, and
    # the columns outside ``valid`` hold random planes that would bind if
    # they took part, so a padding or masking fault between programs shows
    # here though no one-program call can see it.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.setattr(navigation, "_BATCH_ROWS", batch_rows)
    chains = _count_chains(monkeypatch)
    seen = {"infeasible": 0, "empty": 0, "mixed": 0}

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.example([(np.array([3.0, 0.0, 0.0]), np.zeros((0, 3)),
                          np.zeros((0, 3)), 1.0)] * 2, 0)  # K = 0
    @hypothesis.given(st.lists(_lp_cases(st), min_size=1, max_size=6),
                      st.integers(0, 2**32 - 1))
    def check(cases, seed):
        rng = np.random.default_rng(seed)
        k = max(len(case[1]) for case in cases) + int(rng.integers(0, 3))
        points = rng.standard_normal((len(cases), k, 3))
        normals = rng.standard_normal((len(cases), k, 3))
        normals /= np.linalg.norm(normals, axis=2, keepdims=True)
        valid = np.zeros((len(cases), k), dtype=bool)
        for a, (_, p, n, _) in enumerate(cases):
            columns = np.sort(rng.choice(k, size=len(p), replace=False))
            points[a, columns], normals[a, columns] = p, n
            valid[a, columns] = True
        v_pref = np.array([case[0] for case in cases])
        v_max = cases[0][3]  # one speed cap per call, as in orca_adjust
        got, infeasible = _solve_lps(v_pref, points, normals, valid, v_max)
        for a, (v, p, n, _) in enumerate(cases):
            want, want_infeasible = _reference_solve_lp(
                v, [_Plane(*row) for row in zip(p, n)], v_max)
            assert np.array_equal(got[a], want)
            assert infeasible[a] == want_infeasible
            seen["empty"] += not len(p)
        seen["infeasible"] += int(infeasible.sum())
        seen["mixed"] += bool(0 < infeasible.sum() < len(cases))

    check()
    assert seen["infeasible"] >= 300 and seen["mixed"] >= 60, seen
    assert seen["empty"] >= 30, seen
    _assert_chains_took(chains, batch_rows, 50)


def _safe_scenes(st):
    """Hypothesis strategy: (positions, v_pref) of 2-8 agents at least
    KAPPA apart with preferred speeds at most KAPPA / (2 DT), so agents
    beyond the culling radius cannot meet in one step.  Hypothesis picks
    how each agent is placed (touching, near or loose, beside which agent)
    and what it wants (rest, full speed, a random velocity, or straight at
    another agent); the numbers come from a seeded generator, as in
    ``_lp_cases``."""
    cap = KAPPA / (2.0 * DT)

    def unit(v):
        return v / np.linalg.norm(v)

    @st.composite
    def scenes(draw):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m = draw(st.integers(2, 8))
        positions = [np.zeros(3)]
        for _ in range(4 * m):
            if len(positions) == m:
                break
            gap = {"touching": 1.0 + 1e-12, "near": rng.uniform(1.0, 1.5),
                   "loose": rng.uniform(1.5, 5.0)}[
                draw(st.sampled_from(["touching", "near", "loose"]))]
            anchor = positions[draw(st.integers(0, len(positions) - 1))]
            p = anchor + gap * KAPPA * unit(rng.standard_normal(3))
            if min(np.linalg.norm(p - q) for q in positions) >= KAPPA:
                positions.append(p)
        positions = np.array(positions)
        v_pref = np.zeros_like(positions)
        for a in range(len(positions)):
            kind = draw(st.sampled_from(["rest", "full", "random", "toward"]))
            if kind == "full":
                v_pref[a] = cap * unit(rng.standard_normal(3))
            elif kind == "random":
                v_pref[a] = cap * rng.uniform() * unit(rng.standard_normal(3))
            elif kind == "toward":
                b = (a + 1 + draw(st.integers(0, len(positions) - 2))) \
                    % len(positions)
                v_pref[a] = cap * rng.uniform(0.5, 1.0) * unit(
                    positions[b] - positions[a])
        return positions, v_pref

    return scenes()


def test_feasible_orca_step_keeps_agents_kappa_apart():
    # The one-step safety contract: when every agent's velocity satisfies
    # all of its pair half-spaces, agents that start KAPPA apart are still
    # KAPPA apart after x + dt v.  No tolerance on the separation.
    hypothesis = pytest.importorskip("hypothesis")
    cfg = NavConfig(kappa=KAPPA, dt=DT)
    seen = {"feasible": 0, "corrected": 0}

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(_safe_scenes(hypothesis.strategies))
    def check(scene):
        positions, v_pref = scene
        assert _pairwise_min_distance(positions) >= KAPPA
        v = orca_adjust(v_pref, positions, cfg)
        pairs, _ = close_pairs(positions, cfg.culling_radius)
        for a, b in np.concatenate([pairs, pairs[:, ::-1]]):
            plane = _halfspace(positions[a], v_pref[a], positions[b],
                               v_pref[b], KAPPA, cfg.horizon, DT)
            if plane.violation(v[a]) > 1e-9:
                return  # an infeasible program promises no separation
        seen["feasible"] += 1
        seen["corrected"] += not np.array_equal(v, v_pref)
        assert _pairwise_min_distance(positions + DT * v) >= KAPPA

    check()
    assert seen["feasible"] >= 400 and seen["corrected"] >= 250, seen


def test_pair_half_spaces_split_the_correction_equally():
    # Reciprocity on random pairs: the two agents' half-spaces have
    # opposite normals, and each moves its reference velocity by half of
    # the same correction u, in opposite directions.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tau = 10.0 * DT
    seen = set()

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(0, 2**32 - 1),
                      st.sampled_from(["overlap", "near", "far"]),
                      st.sampled_from(["random", "head-on", "same"]))
    def check(seed, spacing, motion):
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        gap = {"overlap": rng.uniform(0.05, 1.0), "near": rng.uniform(1.0, 2.0),
               "far": rng.uniform(2.0, 6.0)}[spacing]
        p_a = rng.standard_normal(3)
        p_b = p_a + gap * KAPPA * direction
        v_a = rng.standard_normal(3) * rng.uniform(0.0, 3.0)
        if motion == "random":
            v_b = rng.standard_normal(3) * rng.uniform(0.0, 3.0)
        elif motion == "head-on":
            v_b = v_a - rng.uniform(0.1, 10.0) * direction
        else:
            v_b = v_a.copy()
        plane_a = _halfspace(p_a, v_a, p_b, v_b, KAPPA, tau, DT)
        plane_b = _halfspace(p_b, v_b, p_a, v_a, KAPPA, tau, DT)
        half_a, half_b = plane_a.point - v_a, plane_b.point - v_b
        tol = 1e-12 * (1.0 + np.abs(v_a).max() + np.abs(v_b).max()
                       + np.linalg.norm(half_a))
        np.testing.assert_allclose(plane_b.normal, -plane_a.normal, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(half_b, -half_a, rtol=0, atol=tol)
        seen.add((spacing, motion))

    check()
    assert len(seen) == 9
