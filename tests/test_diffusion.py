"""Diffusion baseline: schedule arithmetic against explicit-loop oracles,
forward-noising statistics, the zero-network closed-form reverse pass,
loss wiring, and the trajectory-log contract of ancestral sampling."""

import numpy as np
import pytest

from swarmflow import autodiff as ad
from swarmflow.diffusion import (CONFIG_KEYS, DiffusionSchedule,
                                 ddpm_forward_sample, ddpm_sample,
                                 ddpm_train_loss, train)
from swarmflow.flowmatch import TrainConfig
from swarmflow.models import ModelConfig, build_models, kl_divergence

SMALL = ModelConfig(latent_dim=4, field_hidden=8, field_blocks=2,
                    encoder_widths=(8, 16), coupling_layers=2,
                    coupling_hidden=4)


# ---------------------------------------------------------------------------
# schedule

def test_schedule_defaults_and_bounds():
    sched = DiffusionSchedule()
    assert sched.n_steps == 100
    assert sched.betas[0] == pytest.approx(1e-4)
    assert sched.betas[-1] == pytest.approx(0.02)
    assert np.all(np.diff(sched.betas) > 0.0)


def test_schedule_alpha_bars_match_explicit_loop():
    sched = DiffusionSchedule(n_steps=37, beta_start=3e-4, beta_end=0.015)
    prod = 1.0
    for i, beta in enumerate(sched.betas):
        prod *= 1.0 - beta
        assert sched.alpha_bars[i] == pytest.approx(prod, rel=1e-14)
    assert np.all(np.diff(sched.alpha_bars) < 0.0)
    assert 0.0 < sched.alpha_bars[-1] < 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        DiffusionSchedule(n_steps=0)
    with pytest.raises(ValueError):
        DiffusionSchedule(beta_start=0.0)
    with pytest.raises(ValueError):
        DiffusionSchedule(beta_start=0.03, beta_end=0.02)
    with pytest.raises(ValueError):
        DiffusionSchedule(beta_end=1.0)
    for bad in ("20", 2.5, True):
        with pytest.raises(ValueError, match="n_steps must be a positive int"):
            DiffusionSchedule(n_steps=bad)
    for key in ("beta_start", "beta_end"):
        for bad in ("abc", None, True, float("nan"), float("inf")):
            with pytest.raises(ValueError,
                               match=f"^{key} must be a finite number"):
                DiffusionSchedule(**{key: bad})


# ---------------------------------------------------------------------------
# forward process

def test_forward_t0_is_identity():
    sched = DiffusionSchedule()
    x0 = np.random.default_rng(0).standard_normal((8, 3))
    out = ddpm_forward_sample(sched, x0, 0, np.ones_like(x0))
    assert np.array_equal(out, x0)
    out[0, 0] = 99.0
    assert x0[0, 0] != 99.0  # returned a copy


def test_forward_bounds_and_shapes():
    sched = DiffusionSchedule()
    x0 = np.zeros((4, 3))
    with pytest.raises(ValueError):
        ddpm_forward_sample(sched, x0, -1, x0)
    with pytest.raises(ValueError):
        ddpm_forward_sample(sched, x0, 101, x0)
    with pytest.raises(ValueError):
        ddpm_forward_sample(sched, x0, 1, np.zeros((5, 3)))


def test_forward_noising_statistics():
    # marginal at step t is N(sqrt(abar)*x0, (1-abar) I); check moments
    sched = DiffusionSchedule()
    t = 60
    ab = sched.alpha_bars[t - 1]
    x0 = np.array([[1.0, -2.0, 0.5]])
    rng = np.random.default_rng(1)
    n = 50_000
    draws = np.empty((n, 3))
    for i in range(n):
        draws[i] = ddpm_forward_sample(sched, x0, t,
                                       rng.standard_normal((1, 3)))[0]
    se_mean = np.sqrt((1.0 - ab) / n)
    assert np.max(np.abs(draws.mean(axis=0) - np.sqrt(ab) * x0[0])) \
        < 5.0 * se_mean
    assert np.max(np.abs(draws.var(axis=0) - (1.0 - ab))) \
        < 5.0 * (1.0 - ab) * np.sqrt(2.0 / n)


# ---------------------------------------------------------------------------
# reverse process

def test_zero_network_reverse_is_closed_form_expansion():
    # untrained predictor outputs exactly zero, so each deterministic
    # ancestral step divides by sqrt(1-beta); the whole pass multiplies by
    # prod 1/sqrt(1-beta_t)
    models = build_models(SMALL, np.random.default_rng(2))
    sched = DiffusionSchedule()
    rng = np.random.default_rng(3)
    log = ddpm_sample(models, sched, 16, rng, stochastic=False)
    x_start = log.positions[0]
    factor = 1.0
    for beta in sched.betas[::-1]:
        factor /= np.sqrt(1.0 - beta)
    assert np.allclose(log.final_cloud(), factor * x_start,
                       rtol=1e-11, atol=1e-12)
    assert factor > 1.0  # the zero-net pass expands, never shrinks


def test_sample_log_contract():
    models = build_models(SMALL, np.random.default_rng(4))
    sched = DiffusionSchedule()
    log = ddpm_sample(models, sched, 10, np.random.default_rng(5))
    assert log.positions.shape == (101, 10, 3)
    assert log.times[0] == 1.0
    assert log.times[-1] == pytest.approx(0.0, abs=1e-12)
    assert log.euler_consistent()
    assert log.meta["algorithm"] == "diffusion"


def test_sample_final_step_injects_no_noise():
    # with a single reverse step the noise branch is never taken, so the
    # stochastic and deterministic passes agree draw for draw
    models = build_models(SMALL, np.random.default_rng(6))
    sched = DiffusionSchedule(n_steps=1)
    a = ddpm_sample(models, sched, 8, np.random.default_rng(7),
                    stochastic=True)
    b = ddpm_sample(models, sched, 8, np.random.default_rng(7),
                    stochastic=False)
    assert np.array_equal(a.positions, b.positions)


def test_sample_stochastic_noise_changes_path_not_marginal_contract():
    models = build_models(SMALL, np.random.default_rng(8))
    sched = DiffusionSchedule(n_steps=5)
    a = ddpm_sample(models, sched, 8, np.random.default_rng(9))
    b = ddpm_sample(models, sched, 8, np.random.default_rng(10))
    assert not np.array_equal(a.positions[-1], b.positions[-1])
    assert a.euler_consistent() and b.euler_consistent()


# ---------------------------------------------------------------------------
# loss and training

def test_train_loss_draw_order_replay():
    sched = DiffusionSchedule()
    rng = np.random.default_rng(11)
    models = build_models(SMALL, rng)
    x0 = np.random.default_rng(12).standard_normal((9, 3))
    state = rng.bit_generator.state
    node, parts = ddpm_train_loss(models, sched, x0, rng)

    replay = np.random.default_rng(0)
    replay.bit_generator.state = state
    z_eps = replay.standard_normal(SMALL.latent_dim)
    t = int(replay.integers(1, sched.n_steps + 1))
    eps = replay.standard_normal(x0.shape)
    mu, logvar = models.encoder(x0)
    z = mu + ad.mul(ad.exp(ad.mul(logvar, 0.5)), z_eps)
    xt = ddpm_forward_sample(sched, x0, t, eps)
    eps_hat = models.field_net(xt, t / sched.n_steps, z)
    delta = eps_hat - ad.wrap(eps)
    manual = ad.mul(ad.reduce_sum(ad.mul(delta, delta)), 1.0 / x0.shape[0]) \
        + kl_divergence(mu, logvar, z, models.bijector)
    assert float(node.value) == float(manual.value)
    assert parts["field"] >= 0.0


def test_train_loss_positive_at_init():
    # zero-initialized predictor against nonzero target noise
    rng = np.random.default_rng(13)
    models = build_models(SMALL, rng)
    x0 = rng.standard_normal((8, 3))
    node, parts = ddpm_train_loss(models, DiffusionSchedule(), x0, rng)
    assert float(node.value) > 0.0
    assert abs(parts["kl"]) <= 1e-12


def test_train_checkpoint_tagged_diffusion():
    cloud = np.random.default_rng(14).standard_normal((16, 3))
    ckpt = train([cloud], TrainConfig(epochs=5, seed=0), SMALL)
    assert ckpt.algorithm == "diffusion"
    assert ckpt.step_count == 5
    assert np.isfinite(ckpt.final_loss)
    # the schedule is stored under its config keys, and read back from them
    sched = DiffusionSchedule(n_steps=20, beta_end=0.2)
    ckpt = train([cloud], TrainConfig(epochs=2, seed=0), SMALL, sched)
    assert {key: ckpt.train_config[key] for key in CONFIG_KEYS} == \
        {"diffusion_steps": 20, "beta_start": 1e-4, "beta_end": 0.2}
    assert DiffusionSchedule.from_train_config(ckpt.train_config) == sched
    assert DiffusionSchedule.from_train_config({}) == DiffusionSchedule()


def test_train_is_deterministic():
    cloud = np.random.default_rng(15).standard_normal((16, 3))
    tc = TrainConfig(epochs=10, seed=2)
    a = train([cloud], tc, SMALL)
    b = train([cloud], tc, SMALL)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name
