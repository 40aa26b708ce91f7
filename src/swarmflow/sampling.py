"""Trajectory generation: reverse-time integration of the learned field,
optionally filtered through collision avoidance each step.

A run is recorded as a ``TrajectoryLog``: frame times, positions, the
velocities actually applied, and the raw (preferred) field velocities.
Positions are produced *only* by the explicit Euler recursion
``x[k+1] = x[k] + dt * v_applied[k]``, so the log satisfies that identity
bit-for-bit and downstream consumers can rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .flowmatch import FlowSchedule, conditional_field
from .models import Checkpoint, models_from_checkpoint
from .navigation import NavConfig, orca_adjust

__all__ = [
    "TrajectoryLog", "SampleConfig", "sample", "sample_cfm_plus_orca",
    "integrate_exact_target",
]


@dataclass
class TrajectoryLog:
    """One sampled run of M agents over S steps.

    ``times`` has S+1 strictly decreasing entries, ``positions`` is
    (S+1, M, 3), the velocity arrays are (S, M, 3).  ``preferred`` may be
    None for logs reloaded from CSV, which only stores applied
    velocities.  ``meta`` carries algorithm id, seed, step count, the
    collision radius, and the scale the coordinates are expressed in.
    """

    times: np.ndarray
    positions: np.ndarray
    applied_velocities: np.ndarray
    preferred_velocities: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.applied_velocities = np.asarray(self.applied_velocities,
                                             dtype=np.float64)
        if self.preferred_velocities is not None:
            self.preferred_velocities = np.asarray(self.preferred_velocities,
                                                   dtype=np.float64)
        s = self.applied_velocities.shape[0]
        if self.positions.shape[0] != s + 1 or self.times.shape != (s + 1,):
            raise ValueError("frame counts disagree")
        if np.any(np.diff(self.times) >= 0.0):
            raise ValueError("times must be strictly decreasing")

    @property
    def num_steps(self) -> int:
        return self.applied_velocities.shape[0]

    @property
    def num_agents(self) -> int:
        return self.positions.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[0] - self.times[1])

    def final_cloud(self) -> np.ndarray:
        return self.positions[-1].copy()

    def euler_consistent(self) -> bool:
        """Bit-exact check of x[k+1] == x[k] + dt*(t[k]-t[k+1])-less Euler."""
        for k in range(self.num_steps):
            step = self.positions[k] + self.dt * self.applied_velocities[k]
            if not np.array_equal(step, self.positions[k + 1]):
                return False
        return True


@dataclass
class SampleConfig:
    """Settings for one sampling run."""

    num_agents: int
    steps: int = 100
    use_orca: bool = True
    seed: int = 0
    kappa: float = 0.06
    nav: NavConfig | None = None  # overrides the derived NavConfig

    def __post_init__(self):
        if self.num_agents < 1:
            raise ValueError("num_agents must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def nav_config(self, dt: float) -> NavConfig:
        return self.nav if self.nav is not None else NavConfig(
            kappa=self.kappa, dt=dt)


def _euler_rollout(x0, times, velocity_fn, adjust_fn):
    """Shared Euler loop.  ``velocity_fn(x, t, k)`` gives the preferred
    velocity; ``adjust_fn(v, x)`` turns it into the applied one.  A
    preferred velocity holding NaN or inf raises at the step it appears."""
    x = np.array(x0, dtype=np.float64)
    dt = float(times[0] - times[1])
    positions = [x.copy()]
    preferred = []
    applied = []
    for k in range(len(times) - 1):
        t = float(times[k])
        v_pref = velocity_fn(x, t, k)
        if not np.all(np.isfinite(v_pref)):
            raise ValueError(
                f"velocity field is not finite at step {k} (t={t:.17g})")
        v_app = adjust_fn(v_pref, x)
        x = x + dt * v_app
        preferred.append(v_pref)
        applied.append(v_app)
        positions.append(x.copy())
    return (np.asarray(positions), np.asarray(applied), np.asarray(preferred))


def sample(checkpoint: Checkpoint, cfg: SampleConfig,
           initial_cloud=None) -> TrajectoryLog:
    """Generate a swarm trajectory from a trained flow checkpoint.

    Draws the prior noise, maps it through the bijector to the shape
    latent, starts the cloud from N(0, I) (unless ``initial_cloud`` is
    given) and Euler-integrates the learned field from t = T down to 0.
    With ``use_orca`` the field velocity of every step is replaced by the
    collision-free adjustment.
    """
    if checkpoint.algorithm != "flow":
        raise ValueError(
            f"expected a flow checkpoint, got {checkpoint.algorithm!r}")
    models = models_from_checkpoint(checkpoint)
    tc = checkpoint.train_config
    horizon = float(tc.get("horizon", 1.0))
    rng = np.random.default_rng(cfg.seed)
    w = rng.standard_normal(models.config.latent_dim)
    z_node, _ = models.bijector.forward(w)
    z = ad.wrap(z_node.value)  # constant: sampling needs no gradients
    if initial_cloud is None:
        x_start = rng.standard_normal((cfg.num_agents, 3))
    else:
        x_start = np.array(initial_cloud, dtype=np.float64)
        if x_start.shape != (cfg.num_agents, 3):
            raise ValueError(
                f"initial cloud has shape {x_start.shape}, expected "
                f"({cfg.num_agents}, 3)")
    dt = horizon / cfg.steps
    times = horizon - dt * np.arange(cfg.steps + 1)
    nav = cfg.nav_config(dt)

    def velocity_fn(x, t, _k):
        return models.field_net(x, t, z, horizon=horizon).value

    if cfg.use_orca:
        def adjust_fn(v, x):
            return orca_adjust(v, x, nav)
    else:
        def adjust_fn(v, _x):
            return v

    positions, applied, preferred = _euler_rollout(
        x_start, times, velocity_fn, adjust_fn)
    return TrajectoryLog(
        times=times, positions=positions, applied_velocities=applied,
        preferred_velocities=preferred,
        meta={"algorithm": "flow+orca" if cfg.use_orca else "flow",
              "seed": cfg.seed, "steps": cfg.steps, "kappa": nav.kappa,
              "scale": "training", "num_agents": cfg.num_agents,
              "horizon": horizon})


def sample_cfm_plus_orca(goal_cloud, initial_cloud,
                         cfg: SampleConfig) -> TrajectoryLog:
    """Baseline: fly straight at a fixed goal cloud under collision
    avoidance.

    Goals are assigned by index (both clouds are unordered draws, so no
    matching step is attempted).  The preferred velocity of agent i at
    time t is the one reaching its goal exactly at t = 0.
    """
    goal = np.asarray(goal_cloud, dtype=np.float64)
    x_start = np.asarray(initial_cloud, dtype=np.float64)
    if goal.shape != x_start.shape or goal.ndim != 2 or goal.shape[1] != 3:
        raise ValueError(
            f"goal and initial clouds must both be (M, 3), got "
            f"{goal.shape} and {x_start.shape}")
    if goal.shape[0] != cfg.num_agents:
        raise ValueError(
            f"clouds have {goal.shape[0]} agents, config says {cfg.num_agents}")
    horizon = 1.0
    dt = horizon / cfg.steps
    times = horizon - dt * np.arange(cfg.steps + 1)
    nav = cfg.nav_config(dt)

    def velocity_fn(x, t, _k):
        return (goal - x) / t  # t > 0 for every integration step

    def adjust_fn(v, x):
        return orca_adjust(v, x, nav)

    positions, applied, preferred = _euler_rollout(
        x_start, times, velocity_fn, adjust_fn)
    return TrajectoryLog(
        times=times, positions=positions, applied_velocities=applied,
        preferred_velocities=preferred,
        meta={"algorithm": "orca-to-goal", "seed": cfg.seed,
              "steps": cfg.steps, "kappa": nav.kappa, "scale": "training",
              "num_agents": cfg.num_agents, "horizon": horizon})


def integrate_exact_target(x_noise, x0, sched: FlowSchedule,
                           steps: int) -> TrajectoryLog:
    """Euler integration of the closed-form conditional field.

    The conditional path is linear in the progress variable, so explicit
    Euler follows it exactly (up to roundoff) and the trajectory from any
    noise point to its data point is a straight line; this is the oracle
    used to validate the integrator.
    """
    x_noise = np.asarray(x_noise, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    if x_noise.shape != x0.shape:
        raise ValueError(f"shape mismatch: {x_noise.shape} vs {x0.shape}")
    dt = sched.horizon / steps
    times = sched.horizon - dt * np.arange(steps + 1)

    def velocity_fn(x, t, _k):
        return conditional_field(sched, x, x0, t)

    positions, applied, preferred = _euler_rollout(
        x_noise, times, velocity_fn, lambda v, _x: v)
    return TrajectoryLog(
        times=times, positions=positions, applied_velocities=applied,
        preferred_velocities=preferred,
        meta={"algorithm": "exact-target", "steps": steps,
              "scale": "training", "num_agents": x0.shape[0],
              "kappa": 0.0, "horizon": sched.horizon})
