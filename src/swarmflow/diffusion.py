"""Denoising-diffusion baseline over the same three-network architecture.

The forward process follows the standard variance-preserving chain with a
linear beta schedule; the field network is reused as a noise predictor
(the ancestral step t of n fed as time t/n, on the flow model's [0, 1]
axis).  Ancestral sampling logs every intermediate cloud as a trajectory
frame, which is what makes this a *choreography* baseline rather than
just a generator: the per-step noise injection shows up directly in the
kinematic metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .flowmatch import TrainConfig, _run_training
from .models import (Checkpoint, ModelConfig, ModelSet, _require,
                     kl_divergence)
from .sampling import (TrajectoryLog, _draw_latent, _euler_rollout,
                       _split_field)

__all__ = [
    "DiffusionSchedule", "ddpm_forward_sample", "ddpm_train_loss",
    "train", "ddpm_sample",
]

# config key -> DiffusionSchedule field, also the checkpoint's record of it
CONFIG_KEYS = {"diffusion_steps": "n_steps", "beta_start": "beta_start",
               "beta_end": "beta_end"}


@dataclass(frozen=True)
class DiffusionSchedule:
    """Linear beta schedule with cached cumulative products."""

    n_steps: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.02

    def __post_init__(self):
        _require(self, "a positive int", "n_steps")
        _require(self, "a finite number", "beta_start", "beta_end")
        if not 0.0 < self.beta_start <= self.beta_end < 1.0:
            raise ValueError("need 0 < beta_start <= beta_end < 1")

    @classmethod
    def from_train_config(cls, train_config: dict) -> "DiffusionSchedule":
        """The schedule a checkpoint's ``train_config`` records under the
        ``CONFIG_KEYS`` names; a key it lacks takes the default."""
        return cls(**{name: train_config[key]
                      for key, name in CONFIG_KEYS.items()
                      if key in train_config})

    @cached_property
    def betas(self) -> np.ndarray:
        return np.linspace(self.beta_start, self.beta_end, self.n_steps)

    @cached_property
    def alpha_bars(self) -> np.ndarray:
        """Cumulative products of (1 - beta), strictly decreasing."""
        return np.cumprod(1.0 - self.betas)


def ddpm_forward_sample(sched: DiffusionSchedule, x0, t: int,
                        eps) -> np.ndarray:
    """Closed-form noising of ``x0`` to step ``t`` (t = 0 returns x0)."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x0.shape} vs {eps.shape}")
    if not 0 <= t <= sched.n_steps:
        raise ValueError(f"step {t} outside [0, {sched.n_steps}]")
    if t == 0:
        return x0.copy()
    ab = sched.alpha_bars[t - 1]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def ddpm_train_loss(models: ModelSet, sched: DiffusionSchedule, x0, rng):
    """Noise-prediction objective for one cloud, plus the latent KL.

    Matches the flow loss contract: returns (loss node, float parts).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    z, mu, logvar = models.encoder.encode(x0, rng)
    t = int(rng.integers(1, sched.n_steps + 1))
    eps = rng.standard_normal(x0.shape)
    xt = ddpm_forward_sample(sched, x0, t, eps)
    eps_hat = models.field_net(xt, t / sched.n_steps, z)
    delta = eps_hat - eps
    field_term = ad.mul(ad.reduce_sum(ad.mul(delta, delta)), 1.0 / x0.shape[0])
    kl_term = kl_divergence(mu, logvar, z, models.bijector)
    loss = field_term + kl_term
    return loss, {"field": float(field_term.value), "kl": float(kl_term.value)}


def train(dataset, train_config: TrainConfig = None,
          model_config: ModelConfig = None,
          sched: DiffusionSchedule = None, log_path=None) -> Checkpoint:
    """Fit the diffusion baseline; same loop, checkpoint tagged 'diffusion',
    with the schedule recorded in its ``train_config``."""
    train_config = train_config or TrainConfig()
    model_config = model_config or ModelConfig()
    sched = sched or DiffusionSchedule()

    def loss_fn(models, x0, rng):
        return ddpm_train_loss(models, sched, x0, rng)

    ckpt = _run_training(dataset, train_config, model_config, loss_fn,
                         "diffusion", log_path)
    ckpt.train_config.update({key: getattr(sched, name)
                              for key, name in CONFIG_KEYS.items()})
    return ckpt


def ddpm_sample(models: ModelSet, sched: DiffusionSchedule, num_agents: int,
                rng, stochastic: bool = True) -> TrajectoryLog:
    """Ancestral sampling logged as a trajectory.

    Frame times run from 1 down to 0 in steps of 1/n_steps so the log has
    the same shape contract as flow trajectories.  ``stochastic=False``
    suppresses the per-step noise injection (the final step never adds
    noise either way), leaving the deterministic part of the update —
    useful for closed-form regression tests.
    """
    n = sched.n_steps
    z = _draw_latent(models, rng)
    x_start = rng.standard_normal((num_agents, 3))
    betas = sched.betas
    alpha_bars = sched.alpha_bars

    def velocity_fn(x, _t, k, dt):
        t = n - k  # ancestral step, counting down from n
        beta = betas[t - 1]
        eps_hat = field(x, t / n)
        x_next = (x - beta / np.sqrt(1.0 - alpha_bars[t - 1]) * eps_hat) \
            / np.sqrt(1.0 - beta)
        if stochastic and t > 1:
            x_next = x_next + np.sqrt(beta) * rng.standard_normal(x.shape)
        return (x_next - x) / dt

    with _split_field(models.field_net, z, num_agents) as field:
        return _euler_rollout(x_start, n, velocity_fn,
                              algorithm="diffusion", kappa=0.0)
