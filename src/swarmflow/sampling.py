"""Trajectory generation: reverse-time integration of the learned field,
optionally filtered through collision avoidance each step.

A run is recorded as a ``TrajectoryLog``: frame times, positions, the
velocities actually applied, and the raw (preferred) field velocities.
Positions are produced *only* by the explicit Euler recursion
``x[k+1] = x[k] + dt * v_applied[k]``, so the log satisfies that identity
bit-for-bit and downstream consumers can rely on it.

Every sampler runs the one loop ``_euler_rollout``, which owns the time
grid on [0, 1]: a run of S steps has the nominal step ``h = 1 / S`` and
the frames ``times = 1 - h * arange(S + 1)``, from noise to shape.  The
recursion steps by the frame spacing ``dt = times[0] - times[1]``,
which is what ``TrajectoryLog.dt`` reads back; collision avoidance is
configured with ``h``.  The two can differ in the last bit (0.01 against
0.010000000000000009 at 100 steps), and each is kept where it is used so
that trajectories stay byte-identical.

``sample`` and ``diffusion.ddpm_sample`` evaluate the field network
split by rows on every CPU, bit for bit, while numpy's bundled OpenBLAS
runs one thread (``_split_field``); with another BLAS there is one
chunk.
"""

from __future__ import annotations

import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .flowmatch import conditional_field
from .models import (Checkpoint, _require, _require_finite,
                     models_from_checkpoint)
from .navigation import NavConfig, is_guarded, orca_adjust

__all__ = [
    "TrajectoryLog", "SampleConfig", "sample", "sample_cfm_plus_orca",
    "integrate_exact_target", "unguarded_steps",
]


@dataclass
class TrajectoryLog:
    """One sampled run of M agents over S steps.

    ``times`` has S+1 strictly decreasing entries, ``positions`` is
    (S+1, M, 3), the velocity arrays are (S, M, 3) with S, M >= 1, and
    all are finite, as ``load_trajectory_csv`` reads them; anything else
    raises a ``ValueError`` on construction.  ``preferred`` may be None
    for logs reloaded from CSV, which only stores applied velocities.
    ``meta`` carries algorithm id, seed, step count, the collision radius,
    and the scale the coordinates are expressed in.  ``nav`` is the
    ``NavConfig`` an avoidance flight gave ``orca_adjust``, else None.
    """

    times: np.ndarray
    positions: np.ndarray
    applied_velocities: np.ndarray
    preferred_velocities: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    nav: NavConfig | None = None

    def __post_init__(self):
        for name in ("times", "positions", "applied_velocities",
                     "preferred_velocities"):
            if getattr(self, name) is not None:
                value = np.asarray(getattr(self, name), dtype=np.float64)
                _require_finite(value, f"log {name}")
                setattr(self, name, value)
        shape = self.positions.shape
        steps = (shape[0] - 1, *shape[1:]) if len(shape) == 3 else None
        if (steps is None or shape[2] != 3 or min(steps[:2]) < 1
                or self.times.shape != shape[:1]
                or self.applied_velocities.shape != steps
                or self.preferred_velocities is not None
                and self.preferred_velocities.shape != steps):
            preferred = (None if self.preferred_velocities is None
                         else self.preferred_velocities.shape)
            raise ValueError(
                f"log shapes disagree: times {self.times.shape}, positions "
                f"{shape}, applied {self.applied_velocities.shape}, "
                f"preferred {preferred}; expected (S+1,), (S+1, M, 3) and "
                f"(S, M, 3) with S, M >= 1")
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
        """Check ``x[k+1] == x[k] + dt * v_applied[k]`` bit for bit at
        every step, with ``dt`` the frame spacing ``times[0] - times[1]``."""
        return np.array_equal(self.positions[1:], self.positions[:-1]
                              + self.dt * self.applied_velocities)


@dataclass
class SampleConfig:
    """Settings for one sampling run."""

    num_agents: int
    steps: int = 100
    use_orca: bool = True
    seed: int = 0
    kappa: float = 0.06

    def __post_init__(self):
        _require(self, "a positive int", "num_agents", "steps")
        _require(self, "a non-negative int", "seed")
        _require(self, "finite and positive", "kappa")


def _euler_rollout(x0, steps, velocity_fn, kappa=None, /,
                   **meta) -> TrajectoryLog:
    """The Euler loop every sampler runs, over the grid the module
    docstring describes.

    ``velocity_fn(x, t, k, dt)`` gives the preferred velocity of step k,
    which starts at time t; it runs under ``autodiff.no_record``, so the
    networks it calls build no tape.  With ``kappa`` given (positionally)
    every preferred velocity goes through ``orca_adjust`` with
    ``NavConfig(kappa, h)``, logged as ``nav``; otherwise it is applied
    as is.  A preferred
    velocity holding NaN or inf raises at the step it appears.  ``meta``
    holds the sampler's own log keys (``algorithm``, ``kappa``, ``seed``);
    the rollout adds ``steps``, ``num_agents`` and ``scale``.
    """
    h = 1.0 / steps
    times = 1.0 - h * np.arange(steps + 1)
    dt = float(times[0] - times[1])
    nav = None if kappa is None else NavConfig(kappa=kappa, dt=h)
    x = np.array(x0, dtype=np.float64)
    positions = np.empty((steps + 1,) + x.shape)
    preferred = np.empty((steps,) + x.shape)
    applied = np.empty_like(preferred)
    positions[0] = x
    for k in range(steps):
        t = float(times[k])
        with ad.no_record():
            v_pref = velocity_fn(x, t, k, dt)
        if not np.all(np.isfinite(v_pref)):
            raise ValueError(
                f"velocity field is not finite at step {k} (t={t:.17g})")
        # looked up at call time, so a wrapped ``sampling.orca_adjust``
        # sees every call
        v_app = v_pref if nav is None else orca_adjust(v_pref, x, nav)
        x = x + dt * v_app
        preferred[k] = v_pref
        applied[k] = v_app
        positions[k + 1] = x
    meta.update(steps=steps, num_agents=x.shape[0], scale="training")
    return TrajectoryLog(times=times, positions=positions,
                         applied_velocities=applied,
                         preferred_velocities=preferred, meta=meta, nav=nav)


def unguarded_steps(log: TrajectoryLog) -> int:
    """How many steps of a run flown with avoidance were not guarded
    (``navigation.is_guarded``), judged from the preferred velocities it
    logged and its ``nav``.  A log without either, as a flight without
    avoidance or a log reloaded from CSV, raises a ``ValueError``."""
    if log.nav is None or log.preferred_velocities is None:
        raise ValueError("unguarded_steps: the log holds no avoidance "
                         "flight (no nav or no preferred velocities)")
    return sum(not is_guarded(v, log.nav) for v in log.preferred_velocities)


def _draw_latent(models, rng):
    """The shape latent of one run: prior noise mapped through the
    bijector without a tape, so it enters the field as a constant.
    Callers draw their start cloud from ``rng`` after it."""
    with ad.no_record():
        z, _ = models.bijector.forward(
            rng.standard_normal(models.config.latent_dim))
    return z


try:  # numpy's bundled OpenBLAS as numpy loaded it, and its thread calls
    _OPENBLAS = ctypes.CDLL(glob.glob(os.path.join(
        os.path.dirname(np.__path__[0]), "numpy.libs",
        "libscipy_openblas64_*.so"))[0], mode=os.RTLD_NOLOAD)
    _OPENBLAS.scipy_openblas_get_num_threads64_.argtypes = []
    _OPENBLAS.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    _OPENBLAS.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    _OPENBLAS.scipy_openblas_set_num_threads64_.restype = None
except (IndexError, AttributeError, OSError):  # numpy links another BLAS
    _OPENBLAS = None


def _split_cpus() -> int:
    """How many CPUs the row split can use: every CPU this process may
    run on, or one where numpy's BLAS is not the OpenBLAS found above."""
    if _OPENBLAS is None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # macOS and Windows have no affinity call


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread inside the block and give it
    back its thread count on the way out, also when the block raises."""
    threads = _OPENBLAS.scipy_openblas_get_num_threads64_()
    _OPENBLAS.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        _OPENBLAS.scipy_openblas_set_num_threads64_(threads)


def _row_spans(rows: int) -> list:
    """The ``(start, stop)`` row chunks of the split: ``min(CPUs,
    rows // 128)`` of them (at least one), each of at least 128 rows, cut
    at multiples of 64 rows; CPUs as ``_split_cpus`` counts them."""
    chunks = max(1, min(_split_cpus(), rows // 128))
    units = rows // 64
    cuts = [64 * (k * units // chunks) for k in range(chunks)] + [rows]
    return list(zip(cuts[:-1], cuts[1:]))


@contextmanager
def _split_field(net, z, rows: int):
    """Yield ``field(x, t)``, the value of ``net(x, t, z)`` for an
    ``(rows, 3)`` cloud ``x``, bit for bit, computed on every CPU beside
    a one-thread OpenBLAS (``_one_blas_thread``).

    Each call forms the ``(t, z)`` injections once, runs the hidden
    blocks on the row chunks of ``_row_spans``, the first in the calling
    thread and the others on a pool that lives as long as this block,
    and runs the last block, hidden -> 3, on their joined activations in
    the calling thread: a hidden product over a chunk of at least 128
    rows cut at a multiple of 64 gives the bits of the full product, but
    from about 2600 rows OpenBLAS runs the 3-wide one through another
    kernel.  With one chunk no thread starts.
    """
    spans = _row_spans(rows)
    hidden_blocks = range(net.blocks - 1)
    last_block = range(net.blocks - 1, net.blocks)
    with (_one_blas_thread() if _OPENBLAS else nullcontext()), \
            ThreadPoolExecutor(max(1, len(spans) - 1)) as pool:
        def field(x, t):
            injects = net.injections(t, z)

            def hidden(a, b):
                return net.run_blocks(x[a:b], injects, hidden_blocks).value

            rest = [pool.submit(hidden, a, b) for a, b in spans[1:]]
            parts = [hidden(*spans[0])] + [f.result() for f in rest]
            h = parts[0] if len(parts) == 1 else np.concatenate(parts)
            return net.run_blocks(h, injects, last_block).value

        yield field


def sample(checkpoint: Checkpoint, cfg: SampleConfig) -> TrajectoryLog:
    """Generate a swarm trajectory from a trained flow checkpoint.

    Draws the prior noise, maps it through the bijector to the shape
    latent, starts the cloud from N(0, I) and Euler-integrates the learned
    field from t = 1 down to 0.  With ``use_orca`` the field velocity of
    every step is replaced by the collision-free adjustment.
    """
    if checkpoint.algorithm != "flow":
        raise ValueError(
            f"expected a flow checkpoint, got {checkpoint.algorithm!r}")
    horizon = checkpoint.train_config.get("horizon", 1.0)
    if horizon != 1.0:  # an older checkpoint, its field trained on t/horizon
        raise ValueError(f"checkpoint was trained with horizon {horizon!r}; "
                         f"only 1.0 can be sampled")
    models = models_from_checkpoint(checkpoint)
    rng = np.random.default_rng(cfg.seed)
    z = _draw_latent(models, rng)
    x_start = rng.standard_normal((cfg.num_agents, 3))
    with _split_field(models.field_net, z, cfg.num_agents) as field:
        return _euler_rollout(
            x_start, cfg.steps, lambda x, t, _k, _dt: field(x, t),
            cfg.kappa if cfg.use_orca else None,
            algorithm="flow+orca" if cfg.use_orca else "flow", seed=cfg.seed,
            kappa=cfg.kappa)


def sample_cfm_plus_orca(goal_cloud, initial_cloud,
                         cfg: SampleConfig) -> TrajectoryLog:
    """Baseline: fly straight at a fixed goal cloud under collision
    avoidance.

    Goals are assigned by index (both clouds are unordered draws, so no
    matching step is attempted).  The preferred velocity of agent i at
    time t is the one reaching its goal exactly at t = 0.  Of ``cfg`` it
    reads ``num_agents``, ``steps``, ``kappa`` and ``seed`` (logged only);
    avoidance is always on, whatever ``use_orca`` says.
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

    def velocity_fn(x, t, _k, _dt):
        return (goal - x) / t  # t > 0 for every integration step

    return _euler_rollout(x_start, cfg.steps, velocity_fn, cfg.kappa,
                          algorithm="orca-to-goal", seed=cfg.seed,
                          kappa=cfg.kappa)


def integrate_exact_target(x_noise, x0, steps: int) -> TrajectoryLog:
    """Euler integration of the closed-form conditional field.

    The conditional path is linear in the progress variable, so explicit
    Euler follows it exactly (up to roundoff) and the trajectory from any
    noise point to its data point is a straight line; this is the oracle
    used to validate the integrator.
    """
    _require(SimpleNamespace(steps=steps), "a positive int", "steps")
    x_noise = np.asarray(x_noise, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    if x_noise.shape != x0.shape:
        raise ValueError(f"shape mismatch: {x_noise.shape} vs {x0.shape}")

    def velocity_fn(x, t, _k, _dt):
        return conditional_field(x, x0, t)

    return _euler_rollout(x_noise, steps, velocity_fn,
                          algorithm="exact-target", kappa=0.0)
