"""Reciprocal collision avoidance for 3-D swarms.

For every nearby pair of agents a half-space of permitted velocities is
constructed from the truncated velocity obstacle: each agent takes half
of the minimal relative-velocity correction ``u``, so if both agents of
a pair pick velocities inside their half-spaces the new relative
velocity leaves the obstacle and the pair stays at least the combined
radius apart for the next time horizon.  The agent velocity closest to
the preferred one subject to all half-spaces and a speed cap is found
with an incremental low-dimensional solve (ball -> plane -> line); when
the constraints are jointly infeasible a back-projection pass minimizes
the largest violation instead.

A step costs O(M k) for M agents with k neighbors each: a k-d tree
gathers the pairs inside the culling radius, all half-spaces are built
as stacked arrays in one pass, and only agents whose preferred velocity
breaks a half-space run the LP.  The LP works on the agent's rows of
those (K, 3) point and normal arrays: vectorised scans find the first
violated plane, a line is clipped by all its planes in one pass, and
back-projection projects all earlier planes at once.  The
output is bit for bit what a dense all-pairs scan with per-pair
constraints and a one-plane-at-a-time LP gives.  That holds because
every dot product goes through ``np.dot`` / ``np.vecdot``, whose BLAS
kernel rounds a 3-vector dot through fused multiply-adds; the plain
``a0*b0 + a1*b1 + a2*b2`` and ``N @ v`` (matrix-vector BLAS) round
differently.

All geometry is float64 and constraint order is deterministic, so the
output is bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "NavConfig", "HalfSpaceConstraint", "HalfSpaceStack",
    "build_orca_halfspace", "solve_velocity_lp", "orca_adjust",
]

# Parallelism threshold for squared cross products of unit vectors.
_EPS = 1e-10


@dataclass(frozen=True)
class NavConfig:
    """Collision-avoidance parameters.

    ``kappa`` is the pairwise separation to enforce (each agent
    contributes a radius of kappa/2) and ``dt`` the step the velocities
    are applied for.  The rest is fixed: pairs avoid each other over a
    horizon of 10 steps, agents farther apart than 4 kappa ignore each
    other, and the speed cap is twice the largest preferred speed of the
    batch being adjusted, floored at kappa/dt so overlapping agents can
    separate even from an all-zero batch.
    """

    kappa: float
    dt: float

    def __post_init__(self):
        for name in ("kappa", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value!r}")

    @property
    def horizon(self) -> float:
        return 10.0 * self.dt

    @property
    def culling_radius(self) -> float:
        return 4.0 * self.kappa


@dataclass
class HalfSpaceConstraint:
    """Permitted velocities satisfy (v - point) . normal >= 0."""

    point: np.ndarray
    normal: np.ndarray  # unit length

    def violation(self, v) -> float:
        """Signed violation depth; positive when ``v`` is forbidden."""
        return float(np.dot(self.normal, self.point - v))


@dataclass(eq=False)
class HalfSpaceStack:
    """Half-spaces stacked as (K, 3) arrays: row k permits velocities with
    (v - points[k]) . normals[k] >= 0.  Iterating yields the rows as
    ``HalfSpaceConstraint`` objects."""

    points: np.ndarray
    normals: np.ndarray  # unit rows

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return map(HalfSpaceConstraint, self.points, self.normals)


def close_pairs(points, radius: float):
    """Index pairs ``(a, b)``, ``a < b``, of rows of ``points`` (N, 3) lying
    strictly closer than ``radius``, and their distances.

    A k-d tree gathers candidates within a slightly padded radius; the
    exact test then uses sqrt(dx*dx + dy*dy + dz*dz), the same float as
    ``scipy.spatial.distance.cdist``, so the selection matches a dense
    distance matrix bit for bit.  Rows with a non-finite coordinate are
    never close to anything, as with ``cdist``.
    """
    points = np.asarray(points, dtype=np.float64)
    rows = np.flatnonzero(np.all(np.isfinite(points), axis=1))
    pairs = rows[cKDTree(points[rows]).query_pairs(
        radius * (1.0 + 1e-9), output_type="ndarray")]
    diff = points[pairs[:, 1]] - points[pairs[:, 0]]
    dist = np.sqrt(diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
                   + diff[:, 2] * diff[:, 2])
    keep = dist < radius
    return pairs[keep], dist[keep]


def _perpendiculars(v: np.ndarray) -> np.ndarray:
    """Deterministic unit vectors orthogonal to the rows of ``v`` (K, 3).

    Antisymmetric under negation (perp(-v) = -perp(v)) so a pair of
    agents building mirrored constraints from +/-v stays reciprocal.
    """
    axis = np.zeros_like(v)
    axis[np.arange(len(v)), np.argmin(np.abs(v), axis=1)] = 1.0
    w = np.cross(v, axis)
    return w / np.sqrt(np.vecdot(w, w))[:, None]


# Every dot product and norm below goes through ``np.vecdot``, which runs
# the same BLAS kernel (with fused multiply-adds) as ``np.dot`` on one
# 3-vector; ``(a * b).sum(-1)`` and ``einsum`` round differently.  So each
# stacked row equals the pair computed on its own, and the violation test
# in ``orca_adjust`` agrees with ``HalfSpaceConstraint.violation``.

def _orca_halfspaces(p_self, v_self, p_other, v_other,
                     combined_radius: float, tau: float, dt: float):
    """Stacked half-spaces, one per row of the (K, 3) inputs.

    Returns ``(points, normals)``; row k is what ``build_orca_halfspace``
    documents for the k-th (self, other) pair.
    """
    rel_pos = p_other - p_self
    rel_vel = v_self - v_other
    dist_sq = np.vecdot(rel_pos, rel_pos)
    radius_sq = combined_radius * combined_radius
    if np.any(dist_sq == 0.0):
        raise ValueError("coincident agent positions")
    normals = np.empty_like(rel_pos)
    shift = np.empty_like(dist_sq)  # signed length of the correction u

    def settle(rows, w, w_len, degenerate, reach):
        # u = (reach - |w|) * unit(w); a vanishing w (exact head-on) escapes
        # sideways along the perpendicular of the line of centers (the
        # flank then leans that normal back).
        keep = ~degenerate
        normals[rows[keep]] = w[keep] / w_len[keep, None]
        normals[rows[degenerate]] = _perpendiculars(rel_pos[rows[degenerate]])
        shift[rows] = reach - np.where(degenerate, 0.0, w_len)

    is_outside = dist_sq > radius_sq
    outside = np.flatnonzero(is_outside)
    inv_tau = 1.0 / tau
    w = rel_vel[outside] - inv_tau * rel_pos[outside]
    w_len_sq = np.vecdot(w, w)
    dot = np.vecdot(w, rel_pos[outside])
    in_cap = (dot < 0.0) & (dot * dot > radius_sq * w_len_sq)

    # Closest exit is through the sphere capping the obstacle.
    cap = outside[in_cap]
    settle(cap, w[in_cap], np.sqrt(w_len_sq[in_cap]),
           np.zeros(len(cap), dtype=bool), combined_radius * inv_tau)

    # Closest exit is through the cone flank.
    flank = outside[~in_cap]
    pos, vel, a = rel_pos[flank], rel_vel[flank], dist_sq[flank]
    b = np.vecdot(pos, vel)
    cr = np.cross(pos, vel)
    c = np.vecdot(vel, vel) - np.vecdot(cr, cr) / (a - radius_sq)
    # an exact head-on pair has a zero discriminant, which can round below
    # zero; clamp it so the pair takes the head-on escape below
    t = (b + np.sqrt(np.maximum(b * b - a * c, 0.0))) / a
    w = vel - t[:, None] * pos
    w_len = np.sqrt(np.vecdot(w, w))
    scale = t * t * a
    head_on = w_len * w_len <= _EPS * np.where(scale > 1.0, scale, 1.0)
    settle(flank, w, w_len, head_on, combined_radius * t)
    # A head-on escape leaves along the flank's normal: sideways, leaning
    # back by the cone's half-angle (sine r / |rel_pos|), so the corrected
    # velocity lands on the flank rather than inside the cone.
    rows, a_h = flank[head_on], a[head_on]
    normals[rows] = (np.sqrt(1.0 - radius_sq / a_h)[:, None] * normals[rows]
                     - (combined_radius / a_h)[:, None] * pos[head_on])

    # Already overlapping: resolve within a single time step.
    overlap = np.flatnonzero(~is_outside)
    inv_dt = 1.0 / dt
    w = rel_vel[overlap] - inv_dt * rel_pos[overlap]
    w_len = np.sqrt(np.vecdot(w, w))
    settle(overlap, w, w_len, w_len * w_len <= _EPS,
           combined_radius * inv_dt)

    return v_self + 0.5 * (shift[:, None] * normals), normals


def build_orca_halfspace(p_self, v_self, p_other, v_other,
                         combined_radius: float, tau: float,
                         dt: float) -> HalfSpaceConstraint:
    """Half-space of velocities for the self agent against one neighbor.

    ``v_self``/``v_other`` are the reference velocities the correction is
    split around; ``tau`` is the avoidance horizon for non-colliding
    pairs, while already-overlapping pairs are pushed apart within one
    ``dt``.  Coincident positions are a degenerate input and raise.
    """
    rows = [np.asarray(x, dtype=np.float64).reshape(1, 3)
            for x in (p_self, v_self, p_other, v_other)]
    points, normals = _orca_halfspaces(*rows, combined_radius, tau, dt)
    return HalfSpaceConstraint(point=points[0], normal=normals[0])


# ---------------------------------------------------------------------------
# incremental low-dimensional solve (ball-constrained LP with half-spaces)
#
# The planes of one program are the rows of (K, 3) point and normal arrays,
# honored in row order.  Dot products stay in ``np.dot`` / ``np.vecdot``
# (see the module docstring); crosses of single 3-vectors are written out
# in ``_cross3``, the same arithmetic as ``np.cross`` at a fraction of its
# call cost.

def _cross3(a, b) -> list:
    """``a x b`` of two 3-sequences of floats, rounded as ``np.cross``."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _first_violated(points, normals, v, begin: int, end: int,
                    bound: float = 0.0) -> int:
    """First row in [begin, end) whose violation by ``v`` exceeds
    ``bound``, or ``end`` if there is none."""
    if begin < end:
        over = np.vecdot(normals[begin:end], points[begin:end] - v) > bound
        k = int(over.argmax())
        if over[k]:
            return begin + k
    return end


def _lp_line(points, normals, count, line_point, line_dir, radius, opt,
             direction_opt):
    """Optimum on a line clipped by the speed ball and rows [0, count)."""
    dot = float(np.dot(line_point, line_dir))
    disc = dot * dot + radius * radius - float(np.dot(line_point, line_point))
    if disc < 0.0:
        return None  # line misses the ball
    sqrt_disc = math.sqrt(disc)
    t_left = -dot - sqrt_disc
    t_right = -dot + sqrt_disc

    numerators = np.vecdot(points[:count] - line_point, normals[:count])
    denominators = np.vecdot(line_dir, normals[:count])
    for numerator, denominator in zip(numerators.tolist(),
                                      denominators.tolist()):
        if denominator * denominator <= _EPS:
            if numerator > 0.0:
                return None  # parallel to the plane, on its forbidden side
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


def _lp_plane(points, normals, plane_no, radius, opt, direction_opt):
    """Optimum on plane ``plane_no`` within the ball, honoring earlier rows."""
    point, normal = points[plane_no], normals[plane_no]
    plane_dist = float(np.dot(point, normal))
    radius_sq = radius * radius
    if plane_dist * plane_dist > radius_sq:
        return None  # plane does not intersect the ball
    disc_radius_sq = radius_sq - plane_dist * plane_dist
    plane_center = plane_dist * normal

    if direction_opt:
        # maximize travel along `opt` within the plane's disc
        in_plane = opt - float(np.dot(opt, normal)) * normal
        in_plane_sq = float(np.dot(in_plane, in_plane))
        if in_plane_sq <= _EPS:
            result = plane_center
        else:
            result = plane_center + np.sqrt(disc_radius_sq / in_plane_sq) * in_plane
    else:
        result = opt + float(np.dot(point - opt, normal)) * normal
        if float(np.dot(result, result)) > radius_sq:
            offset = result - plane_center
            offset_sq = float(np.dot(offset, offset))
            result = plane_center + np.sqrt(disc_radius_sq / offset_sq) * offset

    normal_f = normal.tolist()
    i = _first_violated(points, normals, result, 0, plane_no)
    while i < plane_no:
        cross_f = _cross3(normals[i].tolist(), normal_f)
        cross = np.array(cross_f)
        cross_sq = float(np.dot(cross, cross))
        if cross_sq <= _EPS:
            return None  # parallel and still violating
        norm = math.sqrt(cross_sq)
        line_dir_f = [c / norm for c in cross_f]
        line_normal = np.array(_cross3(line_dir_f, normal_f))
        scale = (float(np.dot(points[i] - point, normals[i]))
                 / float(np.dot(line_normal, normals[i])))
        result = _lp_line(points, normals, i, point + scale * line_normal,
                          np.array(line_dir_f), radius, opt, direction_opt)
        if result is None:
            return None
        i = _first_violated(points, normals, result, i + 1, plane_no)
    return result


def _lp_full(points, normals, radius, opt, direction_opt):
    """Incremental solve; returns (first_failing_row_or_K, result)."""
    if direction_opt:
        result = opt * radius  # opt is a unit direction
    else:
        opt_sq = float(np.dot(opt, opt))
        if opt_sq > radius * radius:
            norm = math.sqrt(opt_sq)
            result = opt * (radius / norm) if norm > 0.0 else np.zeros(3)
        else:
            result = np.array(opt, dtype=np.float64)

    k = len(points)
    i = _first_violated(points, normals, result, 0, k)
    while i < k:
        attempt = _lp_plane(points, normals, i, radius, opt, direction_opt)
        if attempt is None:
            return i, result
        result = attempt
        i = _first_violated(points, normals, result, i + 1, k)
    return k, result


def _projected_planes(points, normals, i):
    """Planes of rows j < i projected onto plane i, in row order, for the
    back-projection program; rows parallel to plane i and facing the same
    way are subsumed by it and left out."""
    point, normal = points[i], normals[i]
    cross = np.cross(normals[:i], normal)
    parallel = np.vecdot(cross, cross) <= _EPS
    same_way = parallel & (np.vecdot(normal, normals[:i]) > 0.0)
    keep = np.flatnonzero(~same_way)
    opposite = parallel[keep]
    proj_points = np.empty((len(keep), 3))
    # opposite parallel planes meet plane i halfway between their points
    proj_points[opposite] = 0.5 * (point + points[keep[opposite]])
    rows = keep[~opposite]
    line_normal = np.cross(cross[rows], normal)
    scale = (np.vecdot(points[rows] - point, normals[rows])
             / np.vecdot(line_normal, normals[rows]))
    proj_points[~opposite] = point + scale[:, None] * line_normal
    diff = normals[keep] - normal
    return proj_points, diff / np.sqrt(np.vecdot(diff, diff))[:, None]


def _lp_backproject(points, normals, begin, radius, result):
    """Infeasible fallback: minimize the largest constraint violation."""
    distance = 0.0
    k = len(points)
    i = _first_violated(points, normals, result, begin, k, distance)
    while i < k:
        proj_points, proj_normals = _projected_planes(points, normals, i)
        fail, attempt = _lp_full(proj_points, proj_normals, radius,
                                 normals[i], direction_opt=True)
        if fail >= len(proj_points):
            # By construction the projected program is feasible; keep the
            # previous result if numerics disagree.
            result = attempt
        distance = float(np.dot(normals[i], points[i] - result))
        i = _first_violated(points, normals, result, i + 1, k, distance)
    return result


def solve_velocity_lp(v_pref, planes, v_max: float) -> np.ndarray:
    """Velocity closest to ``v_pref`` with speed <= v_max satisfying all
    half-spaces; on an empty intersection, the minimax-violation point.

    ``planes`` is a ``HalfSpaceStack`` or a sequence of
    ``HalfSpaceConstraint``; earlier rows are honored first.
    """
    if not isinstance(planes, HalfSpaceStack):
        planes = list(planes)
        planes = HalfSpaceStack(
            np.array([c.point for c in planes], np.float64).reshape(-1, 3),
            np.array([c.normal for c in planes], np.float64).reshape(-1, 3))
    v_pref = np.asarray(v_pref, dtype=np.float64)
    fail, result = _lp_full(planes.points, planes.normals, float(v_max),
                            v_pref, direction_opt=False)
    if fail < len(planes):
        result = _lp_backproject(planes.points, planes.normals, fail,
                                 float(v_max), result)
    return result


def orca_adjust(v_pref, positions, cfg: NavConfig) -> np.ndarray:
    """Collision-free velocities for the whole swarm.

    ``v_pref`` (M, 3) holds the preferred velocities, which also serve as
    the reference velocities the pairwise corrections are split around;
    every agent applies the same convention, preserving reciprocity.
    Agents farther apart than the culling radius ignore each other.
    """
    v_pref = np.asarray(v_pref, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.float64)
    if v_pref.shape != positions.shape or v_pref.ndim != 2 or v_pref.shape[1] != 3:
        raise ValueError(
            f"expected matching (M, 3) arrays, got {v_pref.shape} and "
            f"{positions.shape}")
    for name, value in (("positions", positions), ("v_pref", v_pref)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"orca_adjust: {name} holds NaN or inf")
    m = positions.shape[0]
    if m == 0:
        return np.zeros((0, 3))

    # floor at the one-step escape speed so overlapping agents can always
    # separate even when nobody wants to move
    v_max = max(
        2.0 * float(np.max(np.linalg.norm(v_pref, axis=1), initial=0.0)),
        cfg.kappa / cfg.dt)

    # Directed neighbor rows (i, j), sorted by i then j, so every agent
    # sees its half-spaces in ascending neighbor order.
    pairs, dist = close_pairs(positions, cfg.culling_radius)
    i = np.concatenate([pairs[:, 0], pairs[:, 1]])
    j = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((j, i))
    i, j, dist = i[order], j[order], np.concatenate([dist, dist])[order]

    p_other = positions[j]
    coincident = np.flatnonzero(dist == 0.0)
    if coincident.size:
        # Coincident agents: break the tie with a fixed axis, oppositely
        # signed for the two agents of the pair.
        nudge = np.zeros((coincident.size, 3))
        nudge[:, 0] = 1e-9 * cfg.kappa * np.where(
            j[coincident] > i[coincident], 1.0, -1.0)
        p_other[coincident] = p_other[coincident] + nudge
    points, normals = _orca_halfspaces(positions[i], v_pref[i], p_other,
                                       v_pref[j], cfg.kappa, cfg.horizon,
                                       cfg.dt)

    # An agent whose preferred velocity violates none of its half-spaces
    # keeps it: under a cap of twice its speed, that is the LP optimum.
    violated = np.vecdot(normals, points - v_pref[i]) > 0.0
    bounds = np.searchsorted(i, np.arange(m + 1)).tolist()
    out = v_pref.copy()
    for agent in np.unique(i[violated]).tolist():
        lo, hi = bounds[agent], bounds[agent + 1]
        out[agent] = solve_velocity_lp(
            v_pref[agent], HalfSpaceStack(points[lo:hi], normals[lo:hi]),
            v_max)
    return out
