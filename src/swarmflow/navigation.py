"""Reciprocal collision avoidance for 3-D swarms.

For every nearby pair of agents a half-space of permitted velocities is
constructed from the truncated velocity obstacle: each agent takes half
of the minimal relative-velocity correction ``u``, so if both agents of
a pair pick velocities inside their half-spaces the new relative
velocity leaves the obstacle and the pair stays at least the combined
radius apart for the next time horizon.  The agent velocity closest to
the preferred one subject to all half-spaces and a speed cap is found
with the incremental low-dimensional solve (ball -> plane -> line) of van
den Berg, Guy, Lin & Manocha, "Reciprocal n-Body Collision Avoidance"
(ISRR 2011); when the constraints are jointly infeasible a
back-projection pass minimizes the largest violation instead.

A step costs O(M k) for M agents with k neighbors each: a k-d tree
gathers the pairs inside the culling radius, all half-spaces are built
as stacked arrays in one pass, and only agents whose preferred velocity
breaks a half-space run the LP.  Those agents' programs are solved in
lockstep: their rows are padded into (A, K, 3) point and normal arrays
with a mask of real rows, and each phase of the incremental solve (first
violated plane, plane, line, back-projection) is one array operation
over every program still at that phase.  So the Python cost of a step
grows with its chains of phases, not with the number of agents.

Those chains are cut short where they outlive their first step.  A plane
optimum depends only on the program and the plane's row, because a
program's preferred velocity is fixed, and a line optimum only on the
program, its plane and the line's row.  So after the first step the rows a
chain could still visit are all solved in one lockstep call, each on its
own program row with the arithmetic the walk would give it, and the chain
follows index lookups through those results: the same bytes, with one
Python step in place of many.  That call holds every candidate row times
K, so it is taken only up to ``_BATCH_ROWS`` rows; longer chains walk on.
The first step always walks: most programs of a sparse step end after one
plane, and solving their candidates up front costs more than it saves.

No pass runs that the solve does not read.  The line where an earlier row
meets a plane is built only for the rows a walk or a batch solves.  And
the LP starts at the preferred velocity, which the speed cap never clips,
so the violation test that picks the agents to correct also gives each
program the first row the LP would scan for; only those agents' rows are
sorted and padded.

The pass builds each close pair once, for its lower-indexed agent, and
gives the higher-indexed agent the mirror image of that row: the other
half of the same correction ``u`` and the opposite normal.  So it
returns two rows per pair, self rows first, then their mirrors.  The
mirror is the row the other agent would build itself, because swapping
the two agents negates the relative position and velocity, and every
step of the build commutes with that negation.

The output is bit for bit what a dense all-pairs scan with per-pair
constraints and a one-program, one-plane-at-a-time LP gives, but for the
sign of a zero, which a mirrored row can flip.  That holds because
masked rows take part in no scan and every dot product goes through
``np.dot`` / ``np.vecdot``, whose BLAS kernel rounds a 3-vector dot
through fused multiply-adds, on stacked rows as on a single one; the
plain ``a0*b0 + a1*b1 + a2*b2`` and ``N @ v`` (matrix-vector BLAS) round
differently.

All geometry is float64 and constraint order is deterministic, so the
output is bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .models import _require, _require_finite

__all__ = [
    "NavConfig", "build_orca_halfspace", "solve_velocity_lp", "orca_adjust",
    "speed_cap", "is_guarded",
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
        _require(self, "finite and positive", "kappa", "dt")

    @property
    def horizon(self) -> float:
        return 10.0 * self.dt

    @property
    def culling_radius(self) -> float:
        return 4.0 * self.kappa


def close_pairs(points, radius: float):
    """Index pairs ``(a, b)``, ``a < b``, of rows of ``points`` (N, 3) lying
    strictly closer than ``radius``, and their distances.

    A k-d tree gathers candidates within a slightly padded radius; the
    exact test then uses sqrt(dx*dx + dy*dy + dz*dz), the same float as
    ``scipy.spatial.distance.cdist``, so the selection matches a dense
    distance matrix bit for bit.  The points must be finite, as
    ``orca_adjust`` and every ``TrajectoryLog`` hold them.
    """
    points = np.asarray(points, dtype=np.float64)
    pairs = cKDTree(points).query_pairs(radius * (1.0 + 1e-9),
                                        output_type="ndarray")
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
# in ``orca_adjust`` agrees with ``np.dot(normal, point - v)`` on one row.

def build_orca_halfspace(p_self, v_self, p_other, v_other,
                         combined_radius: float, tau: float, dt: float):
    """Half-spaces of velocities for both agents of each pair, one pair per
    row of the (P, 3) float64 inputs.

    Returns ``(points, normals)``, (2P, 3) each: row k permits the self
    agent of pair k the velocities v with ``(v - points[k]) . normals[k]
    >= 0``, and row P + k permits its other agent those with ``(v -
    points[P + k]) . normals[P + k] >= 0``; every normal has unit length.
    The other agent's row is the mirror image of the self agent's: the
    self agent moves by ``+u/2`` and the other by ``-u/2`` for the same
    correction ``u``, with opposite normals.  The mirror equals the row
    built with self and other swapped, bit for bit but for the sign of a
    zero: swapping negates the relative position and velocity, and every
    operation below commutes with that negation (``np.vecdot`` runs the
    same fused multiply-adds on two negated vectors, and
    ``_perpendiculars`` is antisymmetric).  ``v_self``/``v_other``
    are the reference velocities the correction is split around; ``tau``
    is the avoidance horizon for non-colliding pairs, while
    already-overlapping pairs are pushed apart within one ``dt``.
    Coincident positions are a degenerate input and raise.
    """
    rel_pos = p_other - p_self
    rel_vel = v_self - v_other
    dist_sq = np.vecdot(rel_pos, rel_pos)
    radius_sq = combined_radius * combined_radius
    if np.any(dist_sq == 0.0):
        raise ValueError("coincident agent positions")
    count = len(rel_pos)
    points, out_normals = np.empty((2 * count, 3)), np.empty((2 * count, 3))
    normals = out_normals[:count]  # the self agents' rows
    shift = np.empty_like(dist_sq)  # signed length of the correction u

    def settle(rows, w, w_len, degenerate, reach):
        # u = (reach - |w|) * unit(w); a vanishing w (exact head-on) escapes
        # sideways along the perpendicular of the line of centers (the
        # flank then leans that normal back).  Most calls have no
        # degenerate row, and skip the masked writes.
        if not degenerate.any():
            normals[rows] = w / w_len[:, None]
            shift[rows] = reach - w_len
            return
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
    cr = _cross(pos, vel)
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
    if head_on.any():
        rows, a_h = flank[head_on], a[head_on]
        normals[rows] = (
            np.sqrt(1.0 - radius_sq / a_h)[:, None] * normals[rows]
            - (combined_radius / a_h)[:, None] * pos[head_on])

    # Already overlapping: resolve within a single time step.
    overlap = np.flatnonzero(~is_outside)
    inv_dt = 1.0 / dt
    w = rel_vel[overlap] - inv_dt * rel_pos[overlap]
    w_len = np.sqrt(np.vecdot(w, w))
    settle(overlap, w, w_len, w_len * w_len <= _EPS,
           combined_radius * inv_dt)

    # Self rows first, then their mirrors, each written in place: the
    # half-correction c = 0.5 * (shift * n) gives (v_self + c, n) and
    # (v_other + (-c), -n), and v + (-c) is v - c.
    half = 0.5 * (shift[:, None] * normals)
    np.add(v_self, half, out=points[:count])
    np.subtract(v_other, half, out=points[count:])
    np.negative(normals, out=out_normals[count:])
    return points, out_normals


# ---------------------------------------------------------------------------
# lockstep incremental solve (ball-constrained LP with half-spaces)
#
# A programs are solved together.  Program a's planes are the rows of
# points[a] and normals[a], (A, K, 3) arrays padded to the longest program,
# honored in row order; ``valid`` (A, K) flags the real rows.  A row outside
# ``valid`` takes part in no scan, which is the same as the row being
# absent.  Each phase below is one step of the incremental solve (ball ->
# first violated plane -> plane -> line) for every program still at that
# step, on that program's rows only, so every program gets exactly the
# arithmetic of a solve on its own.  Dot products stay in ``np.vecdot``
# (see the module docstring).

_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a, b):
    """``np.cross`` over the last axis at a fraction of its call cost: each
    product is rounded before the difference, as in ``np.cross``."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _first_violated(points, normals, rows, v, bound=0.0):
    """Per program, the first row flagged in ``rows`` (A, K) whose
    violation by ``v`` (A, 3) exceeds ``bound``, or K if there is none."""
    n, k = rows.shape
    if k == 0:
        return np.zeros(n, dtype=np.intp)
    over = rows & (np.vecdot(normals, points - v[:, None]) > bound)
    first = over.argmax(axis=1)
    return np.where(over[np.arange(n), first], first, k)


def _fold(start, values, pick):
    """``start`` folded with the columns of ``values`` in order by Python's
    ``max`` (``pick`` = np.argmax) or ``min`` (np.argmin): the first
    extreme value wins, which keeps the sign of a tied zero.  The first
    extreme of ``values`` is picked against ``start`` in a pair, so a tie
    and a NaN of ``start`` keep ``start``, as they would in one row."""
    best = values[np.arange(len(values)), pick(values, axis=1)]
    return np.where(pick(np.stack([start, best]), axis=0) == 0, start, best)


# A walk whose chains outlive their first step solves every row they could
# still visit in one call, once that call holds at most this many rows
# (candidates x K); a longer call would cost more than the steps it saves.
# Of 1024 to 16384 rows, 4096 flew a 2048-agent goal flight fastest (README).
_BATCH_ROWS = 4096


def _chain_end(succ, start):
    """The end of each chain of links ``succ`` from the nodes ``start``:
    the first node that links to itself."""
    end = start
    while True:
        after = succ[end]
        if np.array_equal(after, end):
            return end
        end = after


def _follow(solve, points, normals, later, row, result):
    """Walk each program's chain of rows from ``row`` (A,), K where it has
    none.  ``solve(a, row, points[a], normals[a])`` solves programs ``a``
    at rows ``row`` and returns each attempt and whether it holds; a chain
    goes on to the first later row flagged in ``later`` (A, K) that the
    attempt violates, and ends where there is none or where the attempt
    fails.  Returns (fail, result): the row at which each chain failed, or
    K, and ``result`` (A, 3), into which each program's last attempt that
    held is written in place.

    The first step is walked for every chain.  After it, the chains still
    going solve all their candidate rows in one ``solve`` call when that
    call is small enough, and follow their links through the results.  A
    step's outcome depends only on its program and row, not on the other
    programs in the call, so each chain gets the attempts the walk gives.
    """
    n, k = later.shape
    column = np.arange(k)
    row = row.copy()
    fail = np.full(n, k)
    a = np.flatnonzero(row < k)
    walked = False
    while a.size:
        if walked and a.size * k <= _BATCH_ROWS:
            candidates = later[a] & (column >= row[a, None])
            if np.count_nonzero(candidates) * k <= _BATCH_ROWS:
                break
        r = row[a]
        # When every program walks, as on the main LP's first step (each
        # corrected agent has a violated row), the rows serve as they are.
        # Otherwise the last step's rows are freed only once these are
        # copied, as in a plain loop; freeing them first let the heap shrink
        # and fault back in, about 7000 more page faults on a 4096-agent
        # call.
        if a.size == n:
            sub_points, sub_normals, sub_later = points, normals, later
        else:
            sub_points, sub_normals, sub_later = points[a], normals[a], later[a]
        attempt, ok = solve(a, r, sub_points, sub_normals)
        fail[a[~ok]] = r[~ok]
        result[a[ok]] = attempt[ok]
        row[a] = _first_violated(
            sub_points, sub_normals,
            sub_later & (column > r[:, None]) & ok[:, None], attempt)
        a = a[row[a] < k]
        walked = True
    else:
        return fail, result

    # Solve every candidate, link each to the candidate its next row names
    # where that one holds, and follow the links from each chain's row.
    owner, rows = np.nonzero(candidates)
    programs = a[owner]
    sub_points, sub_normals = points[programs], normals[programs]
    attempt, ok = solve(programs, rows, sub_points, sub_normals)
    after = _first_violated(
        sub_points, sub_normals,
        later[programs] & (column > rows[:, None]) & ok[:, None], attempt)
    index = np.zeros((a.size, k), dtype=np.intp)
    index[owner, rows] = np.arange(rows.size)
    succ = np.arange(rows.size)
    link = np.flatnonzero(after < k)
    target = index[owner[link], after[link]]
    succ[link[ok[target]]] = target[ok[target]]
    start = index[np.arange(a.size), row[a]]
    held = ok[start]
    fail[a[~held]] = row[a[~held]]
    end = _chain_end(succ, start[held])
    result[a[held]] = attempt[end]
    fail[a[held]] = after[end]
    return fail, result


def _lp_line(points, normals, rows, line_point, line_dir, radius, opt,
             direction_opt):
    """Optimum on each program's line clipped by its speed ball and the
    rows flagged in ``rows``; returns (result, ok), with ``ok`` false where
    the clipped line is empty."""
    dot = np.vecdot(line_point, line_dir)
    disc = dot * dot + radius * radius - np.vecdot(line_point, line_point)
    ok = ~(disc < 0.0)  # else the line misses the ball
    sqrt_disc = np.sqrt(np.where(ok, disc, 0.0))

    numerators = np.vecdot(points - line_point[:, None], normals)
    denominators = np.vecdot(line_dir[:, None], normals)
    parallel = denominators * denominators <= _EPS
    # a row parallel to the line and forbidding it empties the line
    ok &= ~np.any(rows & parallel & (numerators > 0.0), axis=1)
    bounding = rows & ~parallel
    t = np.divide(numerators, denominators, out=np.zeros_like(numerators),
                  where=bounding)
    left = denominators >= 0.0
    t_left = _fold(-dot - sqrt_disc, np.where(bounding & left, t, -np.inf),
                   np.argmax)
    t_right = _fold(-dot + sqrt_disc, np.where(bounding & ~left, t, np.inf),
                    np.argmin)
    # both bounds are monotone in the row order, so the segment is empty
    # at the end iff it was empty after some row
    ok &= ~(t_left > t_right)

    if direction_opt:
        t = np.where(np.vecdot(opt, line_dir) > 0.0, t_right, t_left)
    else:
        t = np.vecdot(line_dir, opt - line_point)
        t = np.where(t_left > t, t_left, t)
        t = np.where(t_right < t, t_right, t)
    return line_point + t[:, None] * line_dir, ok


def _lp_plane(points, normals, valid, plane, radius, opt, direction_opt):
    """Optimum of each program on its row ``plane`` (A,) within the ball,
    honoring its valid rows before that one; returns (result, ok)."""
    n, k = valid.shape
    point = points[np.arange(n), plane]
    normal = normals[np.arange(n), plane]
    plane_dist = np.vecdot(point, normal)
    radius_sq = radius * radius
    ok = ~(plane_dist * plane_dist > radius_sq)  # else it misses the ball
    disc_radius_sq = radius_sq - plane_dist * plane_dist
    plane_center = plane_dist[:, None] * normal

    if direction_opt:
        # maximize travel along `opt` within the plane's disc
        offset = opt - np.vecdot(opt, normal)[:, None] * normal
        offset_sq = np.vecdot(offset, offset)
        result = plane_center.copy()
        move = ok & ~(offset_sq <= _EPS)
    else:
        result = opt + np.vecdot(point - opt, normal)[:, None] * normal
        move = ok & (np.vecdot(result, result) > radius_sq)
        offset = result - plane_center
        offset_sq = np.vecdot(offset, offset)
    result[move] = plane_center[move] + np.sqrt(
        disc_radius_sq[move] / offset_sq[move])[:, None] * offset[move]

    column = np.arange(k)
    earlier = valid & (column < plane[:, None]) & ok[:, None]
    line = _first_violated(points, normals, earlier, result)

    # An earlier row j meets program a's plane in a line fixed by the two
    # planes alone, so the line is built only when a walk or a batch solves
    # (a, j).  A row parallel to the plane has none, and the solve fails
    # there; its stand-in line is finite, and its attempt is never used.
    def solve(a, j, sub_points, sub_normals):
        s = np.arange(len(a))
        row_point, row_normal = sub_points[s, j], sub_normals[s, j]
        plane_point, plane_normal = point[a], normal[a]
        cross = _cross(row_normal, plane_normal)
        cross_sq = np.vecdot(cross, cross)
        meets = ~(cross_sq <= _EPS)
        line_dir = cross / np.sqrt(np.where(meets, cross_sq, 1.0))[:, None]
        line_normal = _cross(line_dir, plane_normal)
        scale = np.divide(np.vecdot(row_point - plane_point, row_normal),
                          np.vecdot(line_normal, row_normal),
                          out=np.zeros(len(a)), where=meets)
        attempt, line_ok = _lp_line(
            sub_points, sub_normals, valid[a] & (column < j[:, None]),
            plane_point + scale[:, None] * line_normal, line_dir, radius,
            opt[a], direction_opt)
        return attempt, line_ok & meets

    fail, result = _follow(solve, points, normals, earlier, line, result)
    return result, ok & (fail == k)


def _lp_full(points, normals, valid, radius, opt, direction_opt,
             first=None):
    """Incremental solve of every program.  Returns (fail, result): fail is
    the first row a program cannot honor, or K where it is feasible, and
    result the optimum over the rows before that one.  ``first`` (A,), if
    given, is each program's first valid row that its start violates,
    which the solve would otherwise scan for."""
    if direction_opt:
        result = opt * radius  # opt is a unit direction
    else:
        opt_sq = np.vecdot(opt, opt)
        clip = opt_sq > radius * radius
        result = opt.copy()
        result[clip] = opt[clip] * (radius / np.sqrt(opt_sq[clip]))[:, None]

    def solve(a, i, sub_points, sub_normals):
        return _lp_plane(sub_points, sub_normals, valid[a], i, radius, opt[a],
                         direction_opt)

    if first is None:
        first = _first_violated(points, normals, valid, result)
    return _follow(solve, points, normals, valid, first, result)


def _projected_planes(points, normals, valid, plane):
    """Each program's valid rows before row ``plane`` (A,) projected onto
    that plane, for the back-projection program.  Rows parallel to the
    plane and facing the same way are subsumed by it and masked out;
    returns the projected points and normals and the mask of kept rows."""
    n, k = valid.shape
    point = np.broadcast_to(points[np.arange(n), plane][:, None], points.shape)
    normal = np.broadcast_to(normals[np.arange(n), plane][:, None],
                             normals.shape)
    cross = _cross(normals, normal)
    parallel = np.vecdot(cross, cross) <= _EPS
    same_way = parallel & (np.vecdot(normal, normals) > 0.0)
    keep = valid & (np.arange(k) < plane[:, None]) & ~same_way
    opposite, skew = keep & parallel, keep & ~parallel

    proj_points = np.zeros_like(points)
    # opposite parallel planes meet the plane halfway between their points
    proj_points[opposite] = 0.5 * (point[opposite] + points[opposite])
    line_normal = _cross(cross[skew], normal[skew])
    scale = (np.vecdot(points[skew] - point[skew], normals[skew])
             / np.vecdot(line_normal, normals[skew]))
    proj_points[skew] = point[skew] + scale[:, None] * line_normal
    proj_normals = np.zeros_like(normals)
    diff = normals[keep] - normal[keep]
    proj_normals[keep] = diff / np.sqrt(np.vecdot(diff, diff))[:, None]
    return proj_points, proj_normals, keep


def _lp_backproject(points, normals, valid, begin, radius, result):
    """Infeasible fallback: minimize each program's largest constraint
    violation, from its first failing row ``begin`` (A,) on."""
    n, k = valid.shape
    column = np.arange(k)
    distance = np.zeros(n)
    plane = _first_violated(points, normals, valid & (column >= begin[:, None]),
                            result)
    a = np.flatnonzero(plane < k)
    while a.size:
        i = plane[a]
        sub_points, sub_normals, sub_valid = points[a], normals[a], valid[a]
        point = sub_points[np.arange(len(a)), i]
        normal = sub_normals[np.arange(len(a)), i]
        fail, attempt = _lp_full(
            *_projected_planes(sub_points, sub_normals, sub_valid, i),
            radius, normal, direction_opt=True)
        # By construction the projected program is feasible; keep the
        # previous result where numerics disagree.
        feasible = fail == k
        result[a[feasible]] = attempt[feasible]
        distance[a] = np.vecdot(normal, point - result[a])
        plane[a] = _first_violated(
            sub_points, sub_normals, sub_valid & (column > i[:, None]),
            result[a], distance[a][:, None])
        a = np.flatnonzero(plane < k)
    return result


def _solve_lps(v_pref, points, normals, valid, v_max: float, first=None):
    """``solve_velocity_lp`` of A programs at once: ``v_pref`` (A, 3),
    ``points`` and ``normals`` (A, K, 3) and ``valid`` (A, K).  Returns the
    velocities (A, 3) and, per program, whether its half-spaces were
    infeasible.  ``first`` (A,), if given, must be each program's first
    valid row that ``v_pref`` violates, ``_first_violated(points, normals,
    valid, v_pref)``; it stands for the solve's own first scan only where no
    ``|v_pref|`` exceeds ``v_max``, so that the solve starts at ``v_pref``."""
    radius = float(v_max)
    fail, result = _lp_full(points, normals, valid, radius,
                            np.asarray(v_pref, dtype=np.float64),
                            direction_opt=False, first=first)
    infeasible = fail < valid.shape[1]
    b = np.flatnonzero(infeasible)
    if b.size:
        result[b] = _lp_backproject(points[b], normals[b], valid[b], fail[b],
                                    radius, result[b])
    return result, infeasible


def solve_velocity_lp(v_pref, points, normals, v_max: float) -> np.ndarray:
    """Velocity closest to ``v_pref`` with speed <= v_max satisfying all
    half-spaces; on an empty intersection, the minimax-violation point.

    Row k of ``points`` and ``normals`` (K, 3) permits velocities with
    ``(v - points[k]) . normals[k] >= 0``; earlier rows are honored first.
    This is the one-program case of the lockstep solve ``orca_adjust`` runs.
    """
    points = np.asarray(points, dtype=np.float64).reshape(1, -1, 3)
    normals = np.asarray(normals, dtype=np.float64).reshape(1, -1, 3)
    result, _ = _solve_lps(np.reshape(v_pref, (1, 3)), points, normals,
                           np.ones(points.shape[:2], dtype=bool), v_max)
    return result[0]


def speed_cap(v_pref, cfg: NavConfig) -> float:
    """The speed cap of ``orca_adjust`` for the (M, 3) preferred
    velocities of one step: twice the largest preferred speed, floored at
    the one-step escape speed ``kappa / dt`` so that overlapping agents
    can always separate, even when nobody wants to move.

    The cap is at least twice every agent's preferred speed, so the LP
    never clips the preferred velocity it starts from, rounding included,
    and ``orca_adjust`` hands it the start rows of its own violation test
    in place of the LP's first scan."""
    return max(
        2.0 * float(np.max(np.linalg.norm(v_pref, axis=1), initial=0.0)),
        cfg.kappa / cfg.dt)


def is_guarded(v_pref, cfg: NavConfig) -> bool:
    """Whether the step ``orca_adjust(v_pref, ..., cfg)`` adjusts is
    guarded: ``kappa + 2 * speed_cap * dt <= culling_radius``.  Two agents
    then close by at most ``2 * speed_cap * dt`` in the step, so a pair
    that starts beyond the culling radius, which no half-space links,
    cannot end it closer than ``kappa``."""
    return (cfg.kappa + 2.0 * speed_cap(v_pref, cfg) * cfg.dt
            <= cfg.culling_radius)


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
    _require_finite(positions, "orca_adjust: positions")
    _require_finite(v_pref, "orca_adjust: v_pref")
    m = positions.shape[0]
    v_max = speed_cap(v_pref, cfg)

    # One half-space per close pair, for its lower-indexed agent, and its
    # mirror for the higher-indexed one.  Coincident agents break the tie
    # by moving the higher-indexed agent a little along +x.
    pairs, dist = close_pairs(positions, cfg.culling_radius)
    lo, hi = pairs[:, 0], pairs[:, 1]
    p_hi = positions[hi]
    p_hi[dist == 0.0, 0] += 1e-9 * cfg.kappa
    points, normals = build_orca_halfspace(positions[lo], v_pref[lo], p_hi,
                                           v_pref[hi], cfg.kappa, cfg.horizon,
                                           cfg.dt)
    owner = np.concatenate([lo, hi])  # the agent each row constrains

    # An agent whose preferred velocity violates none of its half-spaces
    # keeps it: under a cap of twice its speed, that is the LP optimum.  The
    # others solve their programs together, each on its own rows padded to
    # the longest program.  Only their rows are sorted, by the unique key
    # owner * M + neighbor, so every agent's rows are contiguous and in
    # ascending neighbor order, after the rows of all lower-indexed agents,
    # which is the order of the padded slots.
    violated = np.vecdot(normals, points - v_pref[owner]) > 0.0
    corrected = np.zeros(m, dtype=bool)
    corrected[owner[violated]] = True
    agents = np.flatnonzero(corrected)
    out = v_pref.copy()
    if agents.size:
        rows = np.flatnonzero(corrected[owner])
        rows = rows[np.argsort(owner[rows] * m
                               + np.concatenate([hi, lo])[rows])]
        counts = np.bincount(owner, minlength=m)[agents]
        valid = np.arange(counts.max()) < counts[:, None]
        slots = np.flatnonzero(valid)
        agent_points = np.zeros(valid.shape + (3,))
        agent_points.reshape(-1, 3)[slots] = points[rows]
        agent_normals = np.zeros_like(agent_points)
        agent_normals.reshape(-1, 3)[slots] = normals[rows]
        # The LP starts at v_pref, which the cap never clips (speed_cap), so
        # its first scan would repeat the test above on the same rows.
        hit = np.zeros(valid.size, dtype=bool)
        hit[slots] = violated[rows]
        out[agents] = _solve_lps(v_pref[agents], agent_points, agent_normals,
                                 valid, v_max,
                                 hit.reshape(valid.shape).argmax(axis=1))[0]
    return out
