"""Conditional flow matching on point clouds, plus the optimizer and the
training loop shared with the diffusion baseline.

Time runs backward over [0, 1] from the noise end: at t = 1 the path is
pure noise, at t = 0 it reaches the data cloud.  With the progress
u = 1 - t and the fixed width ``SIGMA_MIN`` at the data end, the
conditional path is

    X_t = (1 - (1 - SIGMA_MIN) u) * eps + u * X0

which interpolates N(0, I) at t = 1 down to a SIGMA_MIN-width Gaussian
around X0 at t = 0.  The regression target for the velocity network is
the constant displacement X0 - (1 - SIGMA_MIN) * eps; evaluated on-path
it equals the closed-form conditional field used by the exact-target
integrator.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .models import (Checkpoint, ModelConfig, ModelSet, _open_new, _require,
                     build_models, kl_divergence)

__all__ = [
    "SIGMA_MIN", "TrainConfig", "TrainingDiverged",
    "sample_path_point", "target_field", "conditional_field", "cfm_loss",
    "adam_step", "Adam", "scheduled_lr", "train",
]

# width of the conditional path at the data end (t = 0)
SIGMA_MIN = 1e-4


def _sigma(t: float) -> float:
    """Conditional path width: 1 at t = 1, SIGMA_MIN at t = 0."""
    return 1.0 - (1.0 - SIGMA_MIN) * (1.0 - t)


def _check_time(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"time {t} outside [0, 1]")


def sample_path_point(x0: np.ndarray, t: float, eps: np.ndarray) -> np.ndarray:
    """Point on the conditional path at time ``t`` for noise draw ``eps``."""
    _check_time(t)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x0.shape} vs {eps.shape}")
    return _sigma(t) * eps + (1.0 - t) * x0


def target_field(x0: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Regression target X0 - (1 - SIGMA_MIN) * eps, constant on the path."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise ValueError(f"shape mismatch: {x0.shape} vs {eps.shape}")
    return x0 - (1.0 - SIGMA_MIN) * eps


def conditional_field(x: np.ndarray, x0: np.ndarray, t: float) -> np.ndarray:
    """Closed-form conditional velocity (x0 - (1 - SIGMA_MIN) x) / sigma(t)."""
    _check_time(t)
    x = np.asarray(x, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    return (x0 - (1.0 - SIGMA_MIN) * x) / _sigma(t)


def cfm_loss(models: ModelSet, x0: np.ndarray, rng):
    """Flow-matching objective for one cloud.

    Returns ``(loss_node, parts)`` where parts holds the float values of
    the field regression term and the KL term.  Draw order from ``rng``
    is fixed (latent eps, time, path noise) for reproducibility.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    z, mu, logvar = models.encoder.encode(x0, rng)
    t = rng.uniform(0.0, 1.0)
    eps = rng.standard_normal(x0.shape)
    xt = sample_path_point(x0, t, eps)
    vstar = target_field(x0, eps)
    v = models.field_net(xt, t, z)
    delta = v - vstar
    field_term = ad.mul(ad.reduce_sum(ad.mul(delta, delta)), 1.0 / x0.shape[0])
    kl_term = kl_divergence(mu, logvar, z, models.bijector)
    loss = field_term + kl_term
    return loss, {"field": float(field_term.value), "kl": float(kl_term.value)}


# ---------------------------------------------------------------------------
# optimizer

# Adam's moment decay rates and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def adam_step(value, grad, m, v, step, lr) -> None:
    """One bias-corrected Adam update, in place on ``value``, ``m`` and ``v``.

    ``step`` counts from 1 on the first update.  The update is
    elementwise, so the arrays may be one tensor or all parameters laid
    end to end.  ``grad`` is overwritten with the step taken, so that one
    temporary holds the other intermediate terms.
    """
    work = np.multiply(grad, 1.0 - _BETA1, out=np.empty_like(m))
    np.multiply(m, _BETA1, out=m)
    np.add(m, work, out=m)  # m = beta1 * m + (1 - beta1) * grad
    np.multiply(grad, 1.0 - _BETA2, out=work)
    np.multiply(work, grad, out=work)
    np.multiply(v, _BETA2, out=v)
    np.add(v, work, out=v)  # v = beta2 * v + (1 - beta2) * grad * grad
    np.divide(v, 1.0 - _BETA2 ** step, out=work)
    np.sqrt(work, out=work)
    np.add(work, _EPS, out=work)  # sqrt(v_hat) + eps
    np.divide(m, 1.0 - _BETA1 ** step, out=grad)
    np.multiply(grad, lr, out=grad)
    np.divide(grad, work, out=grad)  # lr * m_hat / (sqrt(v_hat) + eps)
    np.subtract(value, grad, out=value)


class Adam:
    """Adam over one flat vector of ``size`` parameters.

    It holds only the flat moments ``m`` and ``v`` and the step count,
    and knows no parameter names or shapes.  Training passes
    ``ModelSet.values``: every parameter node's value is a view of that
    buffer, written through by the update and never rebound, so the
    networks see each step.  ``ModelSet.split`` names and shapes the
    moments for a checkpoint.
    """

    def __init__(self, size: int):
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, values, grads, lr: float) -> None:
        """Update ``values`` in place from ``grads``, which is overwritten."""
        self.step_count += 1
        adam_step(values, grads, self.m, self.v, self.step_count, lr)


# the learning rate decays to this fraction of the base rate
_LR_FINAL_FRAC = 0.1


def scheduled_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Constant for the first half, then linear decay to
    ``_LR_FINAL_FRAC * base_lr``."""
    half = total_steps // 2
    if step < half or total_steps <= 1:
        return base_lr
    span = (total_steps - 1) - half
    if span <= 0:
        return base_lr
    frac = (step - half) / span
    return base_lr * (1.0 - (1.0 - _LR_FINAL_FRAC) * frac)


# ---------------------------------------------------------------------------
# training loop

@dataclass(frozen=True)
class TrainConfig:
    """Optimization and downstream-default settings stored in checkpoints."""

    learning_rate: float = 1e-3
    epochs: int = 2000
    seed: int = 0
    kappa: float = 0.06  # collision radius for downstream sampling

    def __post_init__(self):
        _require(self, "a positive int", "epochs")
        _require(self, "a non-negative int", "seed")
        _require(self, "finite and positive", "learning_rate", "kappa")


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the step and component breakdown."""

    def __init__(self, step, parts):
        self.step = step
        self.parts = parts
        super().__init__(
            f"non-finite loss at step {step}: " +
            ", ".join(f"{k}={v}" for k, v in parts.items()))


def _run_training(dataset, train_config: TrainConfig,
                  model_config: ModelConfig, loss_fn, algorithm: str,
                  log_path=None) -> Checkpoint:
    """Shared Adam loop: ``loss_fn(models, x0, rng) -> (node, parts)``.

    Each step draws one cloud of ``dataset`` at random, so an epoch is
    one step per cloud."""
    dataset = [np.asarray(x, dtype=np.float64) for x in dataset]
    if not dataset:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(train_config.seed)
    models = build_models(model_config, rng)
    opt = Adam(models.values.size)
    total = train_config.epochs * len(dataset)
    last_loss = float("nan")
    # line-buffered: a run that diverges or is killed keeps its history
    with (_open_new(log_path, buffering=1) if log_path is not None
          else contextlib.nullcontext()) as log:
        if log is not None:
            log.write("# step loss field kl\n")
        for step in range(total):
            lr = scheduled_lr(step, total, train_config.learning_rate)
            x0 = dataset[rng.integers(len(dataset))]
            try:
                loss, parts = loss_fn(models, x0, rng)
            except FloatingPointError as exc:
                # parameters already blew up mid-forward, before either
                # term had a value; report as a divergence with the step
                # index, not a numerics error
                raise TrainingDiverged(step, dict.fromkeys(
                    ("field", "kl", "loss"), float("nan"))) from exc
            last_loss = float(loss.value)
            if not np.isfinite(last_loss):
                raise TrainingDiverged(step, dict(parts, loss=last_loss))
            models.zero_grad()
            ad.backward(loss)
            opt.step(models.values, models.grads, lr)
            if log is not None:
                log.write(f"{step} {last_loss:.17g} "
                          f"{parts['field']:.17g} {parts['kl']:.17g}\n")
    return Checkpoint(
        algorithm=algorithm, model_config=model_config,
        train_config=asdict(train_config), params=models.state_dict(),
        opt_m=models.split(opt.m), opt_v=models.split(opt.v),
        opt_step=opt.step_count, step_count=total, final_loss=last_loss)


def train(dataset, train_config: TrainConfig = None,
          model_config: ModelConfig = None, log_path=None) -> Checkpoint:
    """Fit the flow-matching model to a list of normalized (N, 3) clouds."""
    train_config = train_config or TrainConfig()
    model_config = model_config or ModelConfig()
    # cfm_loss is looked up here, not bound earlier, so a wrapper put on
    # the module attribute (a tracer, a test) sees every call
    return _run_training(dataset, train_config, model_config, cfm_loss,
                         "flow", log_path)
