"""Evaluation battery: generation quality (chamfer, coverage, minimum
matching distance), safety (collision percentages along and at the end of
a run), and kinematic smoothness (acceleration, jerk, direction change,
path length).

Quality metrics compare *sets* of clouds through the chamfer distance,
which is computed in bounded memory, a block of rows of the distance
matrix at a time.  Everything else is computed per trajectory and pooled
over agents and steps.  All distances are plain Euclidean in whatever
scale the inputs are expressed; callers convert to real-world units first
when reporting physical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.spatial.distance import cdist

from .models import _require, _require_finite
from .navigation import close_pairs
from .sampling import TrajectoryLog

__all__ = [
    "chamfer", "coverage_and_mmd", "collision_rates", "smoothness",
    "distance_traveled", "MetricsReport", "evaluate_logs",
    "report_text", "report_keyvalues",
]


# Most squared distances one block of ``chamfer`` holds: 2 MiB of float64.
# A 2048-point pair then peaks at a few MiB instead of its 32 MiB matrix.
_BLOCK = 1 << 18


def chamfer(a, b) -> float:
    """Symmetric squared-nearest-neighbor distance between two clouds.

    The distance matrix is walked in blocks of rows of at most ``_BLOCK``
    entries (one row when ``b`` alone is longer), so memory stays bounded
    whatever the cloud sizes.  Each entry, the minima and the two means
    are the ones the full matrix gives, so the value is too, bit for bit.
    Clouds holding NaN or inf are rejected.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[-1] != 3 or b.shape[-1] != 3:
        raise ValueError(f"expected (N, 3) clouds, got {a.shape} and {b.shape}")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("chamfer distance of an empty cloud is undefined")
    _require_finite(a, "chamfer: cloud a")
    _require_finite(b, "chamfer: cloud b")
    rows = max(1, _BLOCK // len(b))
    block = np.empty((min(rows, len(a)), len(b)))  # the one block alive
    to_b = np.empty(len(a))
    to_a = np.full(len(b), np.inf)
    for i in range(0, len(a), rows):
        sq = cdist(a[i:i + rows], b, metric="sqeuclidean",
                   out=block[:len(a) - i])
        sq.min(axis=1, out=to_b[i:i + rows])
        np.minimum(to_a, sq.min(axis=0), out=to_a)
    return float(to_b.mean() + to_a.mean())


def coverage_and_mmd(generated, reference):
    """Set-level quality of ``generated`` clouds against ``reference``.

    Coverage: fraction of reference clouds that are the chamfer-nearest
    neighbor of at least one generated cloud (ties resolve to the lowest
    index).  MMD: mean over reference clouds of the smallest chamfer
    distance to any generated cloud.  Returns ``(coverage, mmd)``.
    """
    generated = list(generated)
    reference = list(reference)
    if not generated or not reference:
        raise ValueError("need at least one generated and one reference cloud")
    dist = np.empty((len(generated), len(reference)))
    for i in range(len(generated)):
        for j in range(len(reference)):
            dist[i, j] = chamfer(generated[i], reference[j])
    matched = {int(np.argmin(dist[i])) for i in range(len(generated))}
    cov = len(matched) / len(reference)
    mmd = float(dist.min(axis=0).mean())
    return cov, mmd


def collision_rates(log: TrajectoryLog, kappa: float):
    """Percentage of agents closer than ``kappa`` to any neighbor.

    Returns ``(trajectory_rate, final_rate)``: the former averages the
    per-frame percentage over *all* frames (initial random frames
    included), the latter looks at the final frame only.
    """
    _require(SimpleNamespace(kappa=kappa), "finite and positive", "kappa")
    per_frame = []
    m = log.num_agents
    for frame in log.positions:
        violating = np.zeros(m, dtype=bool)
        violating[close_pairs(frame, kappa)[0].ravel()] = True
        per_frame.append(100.0 * float(np.count_nonzero(violating)) / m)
    return float(np.mean(per_frame)), per_frame[-1]


def smoothness(log: TrajectoryLog):
    """Kinematic regularity of the applied velocities.

    One step is one control tick of fixed duration, whatever the step
    count, so runs with different step counts stay comparable (more steps
    means a longer, gentler show, not a faster control rate).

    Returns ``(acc, jerk, dirchange)``, per tick:
      acc   - mean |change in speed| over consecutive steps,
      jerk  - mean ||second difference of velocity||,
      dirchange - mean angle (radians) between consecutive velocities,
                  skipping entries where either velocity is zero.
    Runs too short for a difference contribute 0.
    """
    v = log.applied_velocities
    s = v.shape[0]
    acc = 0.0
    jerk = 0.0
    dirchange = 0.0
    if s >= 2:
        speeds = np.linalg.norm(v, axis=2)
        acc = float(np.mean(np.abs(np.diff(speeds, axis=0))))
        dots = np.sum(v[1:] * v[:-1], axis=2)
        norms = speeds[1:] * speeds[:-1]
        keep = norms > 0.0
        if np.any(keep):
            cosines = np.clip(dots[keep] / norms[keep], -1.0, 1.0)
            dirchange = float(np.mean(np.arccos(cosines)))
    if s >= 3:
        second = v[2:] - 2.0 * v[1:-1] + v[:-2]
        jerk = float(np.mean(np.linalg.norm(second, axis=2)))
    return acc, jerk, dirchange


def distance_traveled(log: TrajectoryLog) -> float:
    """Mean (over agents) total path length."""
    steps = np.diff(log.positions, axis=0)
    return float(np.sum(np.linalg.norm(steps, axis=2), axis=0).mean())


@dataclass
class MetricsReport:
    """All metric values for one evaluation; quality entries are NaN when
    no reference set was supplied.  ``mmd`` is stored raw (tables display
    it scaled by 1e3)."""

    cov: float
    mmd: float
    traj_collision_pct: float
    final_collision_pct: float
    acc: float
    jerk: float
    dirchange: float
    dist: float

    def as_dict(self) -> dict:
        return {
            "COV": self.cov, "MMD": self.mmd,
            "TRAJ": self.traj_collision_pct, "FIN": self.final_collision_pct,
            "ACC": self.acc, "JERK": self.jerk,
            "DIR": self.dirchange, "DIST": self.dist,
        }


def evaluate_logs(logs, kappa: float, reference=None) -> MetricsReport:
    """Pool safety/kinematic metrics over ``logs``; if ``reference``
    clouds are given, score the final clouds of the runs against them."""
    logs = list(logs)
    if not logs:
        raise ValueError("no trajectories to evaluate")
    cov = mmd = float("nan")
    if reference is not None:
        cov, mmd = coverage_and_mmd([lg.final_cloud() for lg in logs],
                                    reference)
    traj = []
    fin = []
    acc = []
    jerk = []
    dirchange = []
    dist = []
    for lg in logs:
        t, f = collision_rates(lg, kappa)
        traj.append(t)
        fin.append(f)
        a, j, d = smoothness(lg)
        acc.append(a)
        jerk.append(j)
        dirchange.append(d)
        dist.append(distance_traveled(lg))
    return MetricsReport(
        cov=cov, mmd=mmd,
        traj_collision_pct=float(np.mean(traj)),
        final_collision_pct=float(np.mean(fin)),
        acc=float(np.mean(acc)), jerk=float(np.mean(jerk)),
        dirchange=float(np.mean(dirchange)), dist=float(np.mean(dist)))


def report_text(report: MetricsReport) -> str:
    """Human-readable table; MMD shown multiplied by 1e3."""
    lines = ["metric      value", "-----------------"]
    display = dict(report.as_dict())
    display["MMD"] = display["MMD"] * 1e3
    notes = {"MMD": " (x1e3)", "TRAJ": " %", "FIN": " %"}
    for key, value in display.items():
        if np.isnan(value):
            continue
        lines.append(f"{key:<6} {value:>12.6g}{notes.get(key, '')}")
    return "\n".join(lines) + "\n"


def report_keyvalues(report: MetricsReport) -> str:
    """Machine-readable ``key = value`` lines (raw values, full precision)."""
    lines = []
    for key, value in report.as_dict().items():
        lines.append(f"{key} = {value:.17g}")
    return "\n".join(lines) + "\n"
