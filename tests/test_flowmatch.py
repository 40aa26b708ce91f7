"""Flow-path algebra, loss wiring, optimizer trace against a decimal
oracle, schedule shape, and the training loop's determinism contract."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmflow
from swarmflow import autodiff as ad
from swarmflow import flowmatch
from swarmflow.flowmatch import (SIGMA_MIN, Adam, TrainConfig,
                                 TrainingDiverged, adam_step, cfm_loss,
                                 conditional_field, sample_path_point,
                                 scheduled_lr, target_field, train)
from swarmflow.models import (BijectorNumericsError, ModelConfig,
                              build_models)

SMALL = ModelConfig(latent_dim=4, field_hidden=8, field_blocks=2,
                    encoder_widths=(8, 16), coupling_layers=2,
                    coupling_hidden=4)


# ---------------------------------------------------------------------------
# schedule and path

def test_schedule_endpoints_and_midpoint():
    assert SIGMA_MIN == 1e-4
    assert flowmatch._sigma(1.0) == 1.0
    assert flowmatch._sigma(0.0) == pytest.approx(1e-4, rel=1e-9)
    # componentwise midpoint coefficient: 1 - (1 - 1e-4) * 0.5
    assert flowmatch._sigma(0.5) == 1.0 - (1.0 - 1e-4) * 0.5


def test_path_noise_endpoint_exact():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((10, 3))
    eps = rng.standard_normal((10, 3))
    assert np.array_equal(sample_path_point(x0, 1.0, eps), eps)


def test_path_data_endpoint_within_sigma_min():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((10, 3))
    eps = rng.standard_normal((10, 3))
    x = sample_path_point(x0, 0.0, eps)
    assert np.max(np.abs(x - x0)) <= SIGMA_MIN * np.max(np.abs(eps))


def test_path_midpoint_hand_value():
    x0 = np.array([[2.0, -4.0, 0.0]])
    eps = np.array([[1.0, 1.0, -2.0]])
    x = sample_path_point(x0, 0.5, eps)
    expected = 0.50005 * eps + 0.5 * x0
    assert np.allclose(x, expected, rtol=0.0, atol=1e-15)


def test_path_time_range_and_shape_errors():
    x0 = np.zeros((3, 3))
    with pytest.raises(ValueError):
        sample_path_point(x0, 1.5, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        sample_path_point(x0, -0.1, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        sample_path_point(x0, 0.5, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        target_field(x0, np.zeros((4, 3)))


def test_target_field_self_noise():
    # X0 equal to the noise draw collapses the displacement to SIGMA_MIN*eps
    eps = np.random.default_rng(2).standard_normal((6, 3))
    v = target_field(eps, eps)
    assert np.allclose(v, SIGMA_MIN * eps, rtol=1e-10, atol=0.0)


def test_target_field_time_constant_identity_bulk():
    # closed-form field evaluated on-path equals the regression target,
    # 10^4 random draws, 1e-10 absolute
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10_000):
        x0 = rng.standard_normal((2, 3))
        eps = rng.standard_normal((2, 3))
        t = rng.uniform(0.0, 1.0)
        x = sample_path_point(x0, t, eps)
        direct = conditional_field(x, x0, t)
        vstar = target_field(x0, eps)
        worst = max(worst, float(np.max(np.abs(direct - vstar))))
    assert worst < 1e-10, f"worst on-path deviation {worst}"


# ---------------------------------------------------------------------------
# optimizer

def test_adam_first_step_magnitude():
    # constant gradient: bias-corrected first update is -lr regardless of size
    value = np.array(3.0)
    adam_step(value, np.array(1.0), np.array(0.0), np.array(0.0), 1, 0.1)
    assert abs(float(value) - 2.9) <= 1e-8


def test_adam_three_step_trace_matches_decimal_oracle():
    # 60-digit decimal arithmetic oracle, frozen values
    expected = {
        1: np.array([0.900000002, -1.900000001]),
        2: np.array([0.8067820404774617, -1.8733662973709029]),
        3: np.array([0.7957037336010936, -1.8585564644610495]),
    }
    grads = [np.array([0.5, -1.0]), np.array([0.25, 0.5]),
             np.array([-0.5, 0.1])]
    value = np.array([1.0, -2.0])
    opt = Adam(2)
    for step, g in enumerate(grads, start=1):
        opt.step(value, g, lr=0.1)
        assert np.max(np.abs(value - expected[step])) < 1e-9, step


def test_adam_zero_lr_advances_state():
    value = np.array([1.0, 2.0])
    opt = Adam(2)
    opt.step(value, np.array([1.0, -1.0]), lr=0.0)
    assert np.array_equal(value, [1.0, 2.0])
    assert opt.step_count == 1  # state advances even at zero learning rate
    assert np.all(opt.m != 0.0) and np.all(opt.v != 0.0)


def test_adam_flat_update_matches_per_tensor_loop():
    # Adam on the ModelSet buffer must equal one adam_step per tensor on
    # copies, bit for bit, for tensors of mixed shapes including the 0-d
    # s_factor; ModelSet.split names and shapes the flat moments
    models = build_models(SMALL, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    want = models.state_dict()
    assert want["bijector.c0.s_factor"].shape == ()
    m = {name: np.zeros(arr.shape) for name, arr in want.items()}
    v = {name: np.zeros(arr.shape) for name, arr in want.items()}
    opt = Adam(models.values.size)
    for step in range(1, 6):
        lr = 0.1 / step
        for name, node in models.named_parameters():
            node.grad[...] = rng.standard_normal(node.shape)
            adam_step(want[name], node.grad.copy(), m[name], v[name], step, lr)
        opt.step(models.values, models.grads, lr)
        for name, node in models.named_parameters():
            assert node.value.shape == want[name].shape
            assert np.array_equal(node.value, want[name]), (step, name)
    opt_m, opt_v = models.split(opt.m), models.split(opt.v)
    assert list(opt_m) == list(want) and list(opt_v) == list(want)
    for name, arr in want.items():
        assert opt_m[name].shape == arr.shape and opt_v[name].shape == arr.shape
        assert np.array_equal(opt_m[name], m[name]), name
        assert np.array_equal(opt_v[name], v[name]), name


def test_scheduled_lr_shape():
    total = 100
    values = [scheduled_lr(s, total, 1.0) for s in range(total)]
    assert all(v == 1.0 for v in values[:50])
    assert abs(values[-1] - 0.1) < 1e-12
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-15)
    assert scheduled_lr(0, 1, 0.5) == 0.5


# ---------------------------------------------------------------------------
# loss

def test_cfm_loss_positive_and_parts_consistent():
    rng = np.random.default_rng(4)
    models = build_models(SMALL, rng)
    x0 = rng.standard_normal((12, 3))
    node, parts = cfm_loss(models, x0, rng)
    assert float(node.value) > 0.0
    assert float(node.value) == pytest.approx(parts["field"] + parts["kl"],
                                              rel=1e-12)


def test_cfm_loss_kl_exactly_zero_at_init():
    # zero-initialized posterior heads + identity bijector: the single-sample
    # KL estimate cancels exactly
    rng = np.random.default_rng(5)
    models = build_models(SMALL, rng)
    x0 = rng.standard_normal((12, 3))
    _, parts = cfm_loss(models, x0, rng)
    assert abs(parts["kl"]) <= 1e-12


def test_cfm_loss_draw_order_replay():
    # the rng contract (latent eps, then t, then path noise) is load-bearing
    # for reproducibility: replaying the draws recomputes the same loss
    seed = 6
    rng = np.random.default_rng(seed)
    models = build_models(SMALL, rng)
    x0 = np.random.default_rng(7).standard_normal((9, 3))
    state = rng.bit_generator.state
    node, _ = cfm_loss(models, x0, rng)

    replay = np.random.default_rng(seed)
    replay.bit_generator.state = state
    z_eps = replay.standard_normal(SMALL.latent_dim)
    t = replay.uniform(0.0, 1.0)
    eps = replay.standard_normal(x0.shape)
    mu, logvar = models.encoder(x0)
    z = mu + ad.mul(ad.exp(ad.mul(logvar, 0.5)), z_eps)
    xt = sample_path_point(x0, t, eps)
    vstar = target_field(x0, eps)
    v = models.field_net(xt, t, z)
    delta = v - ad.wrap(vstar)
    from swarmflow.models import kl_divergence
    manual = ad.mul(ad.reduce_sum(ad.mul(delta, delta)), 1.0 / x0.shape[0]) \
        + kl_divergence(mu, logvar, z, models.bijector)
    assert float(node.value) == float(manual.value)


def test_cfm_loss_permutation_consistent():
    # permuting the cloud with a matched noise permutation moves only the
    # float summation order
    rng = np.random.default_rng(8)
    models = build_models(SMALL, rng)
    x0 = rng.standard_normal((14, 3))
    eps = rng.standard_normal((14, 3))
    z = ad.wrap(rng.standard_normal(SMALL.latent_dim))
    t = 0.37

    def field_term(x0_, eps_):
        xt = sample_path_point(x0_, t, eps_)
        v = models.field_net(xt, t, z)
        delta = v - ad.wrap(target_field(x0_, eps_))
        return float(ad.mul(ad.reduce_sum(ad.mul(delta, delta)),
                            1.0 / x0_.shape[0]).value)

    perm = rng.permutation(14)
    a = field_term(x0, eps)
    b = field_term(x0[perm], eps[perm])
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# training loop

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


_TRAIN_CONFIG_ERRORS = [
    ("epochs", 2.5, "epochs must be a positive int, got 2.5"),
    ("epochs", "20", "epochs must be a positive int, got '20'"),
    ("epochs", True, "epochs must be a positive int, got True"),
    ("epochs", 0, "epochs must be a positive int, got 0"),
    ("seed", None, "seed must be a non-negative int, got None"),
    ("seed", False, "seed must be a non-negative int, got False"),
    ("seed", -1, "seed must be a non-negative int, got -1"),
    ("learning_rate", "1e-3",
     "learning_rate must be finite and positive, got '1e-3'"),
    ("learning_rate", True,
     "learning_rate must be finite and positive, got True"),
    ("kappa", float("nan"), "kappa must be finite and positive, got nan"),
    ("kappa", -1.0, "kappa must be finite and positive, got -1.0"),
    ("kappa", 0, "kappa must be finite and positive, got 0"),
]


@pytest.mark.parametrize("key, value, message", _TRAIN_CONFIG_ERRORS,
                         ids=[f"{key}-{value}"
                              for key, value, _ in _TRAIN_CONFIG_ERRORS])
def test_train_config_rejects_wrong_types(key, value, message):
    with pytest.raises(ValueError) as info:
        TrainConfig(**{key: value})
    assert str(info.value) == message


def test_train_config_takes_ints_for_float_settings():
    assert TrainConfig(learning_rate=1, kappa=2).kappa == 2


def test_train_is_bitwise_deterministic(tmp_path):
    cloud = np.random.default_rng(9).standard_normal((16, 3))
    tc = TrainConfig(epochs=25, seed=3)
    a = train([cloud], tc, SMALL, log_path=tmp_path / "a.log")
    b = train([cloud], tc, SMALL, log_path=tmp_path / "b.log")
    assert a.final_loss == b.final_loss
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name]), name
        assert np.array_equal(a.opt_m[name], b.opt_m[name]), name
    assert (tmp_path / "a.log").read_text() == (tmp_path / "b.log").read_text()


def test_train_calls_cfm_loss_through_the_module(monkeypatch):
    # a wrapper put on flowmatch.cfm_loss after import (as a tracer puts
    # one) sees every training step and changes nothing
    cloud = np.random.default_rng(9).standard_normal((16, 3))
    tc = TrainConfig(epochs=3, seed=3)
    plain = train([cloud], tc, SMALL)
    calls = []

    def counting(*args):
        calls.append(args)
        return cfm_loss(*args)

    monkeypatch.setattr(flowmatch, "cfm_loss", counting)
    wrapped = train([cloud], tc, SMALL)
    assert len(calls) == 3
    assert list(wrapped.params) == list(plain.params)
    for name in plain.params:
        assert np.array_equal(wrapped.params[name], plain.params[name]), name


@pytest.mark.parametrize("algorithm", ["flow", "diffusion"])
def test_each_step_trains_on_one_drawn_cloud(algorithm, monkeypatch,
                                             tmp_path):
    # an epoch is one step per cloud, each step draws its cloud with
    # rng.integers(len(dataset)) right after the models are built, and
    # the step's loss and parts are the loss function's, as they are
    from swarmflow import diffusion
    rng = np.random.default_rng(40)
    dataset = [rng.standard_normal((n, 3)) for n in (16, 12, 20)]
    seed, epochs = 5, 5
    if algorithm == "flow":
        module, name, run, sched = flowmatch, "cfm_loss", train, ()
    else:
        module, name, run = diffusion, "ddpm_train_loss", diffusion.train
        sched = (diffusion.DiffusionSchedule(),)
    loss = getattr(module, name)
    drawn = []

    def recording(*args):
        drawn.append(len(args[-2]))  # the cloud, told apart by its size
        return loss(*args)

    monkeypatch.setattr(module, name, recording)
    log = tmp_path / "train.log"
    ckpt = run(dataset, TrainConfig(epochs=epochs, seed=seed), SMALL,
               log_path=log)
    assert len(drawn) == ckpt.step_count == epochs * 3
    assert sorted(set(drawn)) == [12, 16, 20]

    replay = np.random.default_rng(seed)
    models = build_models(SMALL, replay)  # _run_training's draw order
    x0 = dataset[replay.integers(3)]
    node, parts = loss(models, *sched, x0, replay)
    assert drawn[0] == len(x0)
    assert log.read_text().splitlines()[1] == (
        f"0 {float(node.value):.17g} "
        f"{parts['field']:.17g} {parts['kl']:.17g}")


def test_train_checkpoint_contents():
    cloud = np.random.default_rng(10).standard_normal((16, 3))
    ckpt = train([cloud], TrainConfig(epochs=5, seed=0), SMALL)
    assert ckpt.algorithm == "flow"
    assert ckpt.step_count == 5
    assert ckpt.opt_step == 5
    assert np.isfinite(ckpt.final_loss)
    assert ckpt.model_config == SMALL
    assert ckpt.train_config["epochs"] == 5
    assert any(k.startswith("field.") for k in ckpt.params)


def test_train_decreases_loss_trend(tmp_path):
    # a point-mass cloud makes the optimal field linear in x, so even the
    # small test network has headroom; trailing moving average must sit
    # well below the leading one
    cloud = np.zeros((32, 3))
    train([cloud], TrainConfig(epochs=400, seed=1), SMALL,
          log_path=tmp_path / "t.log")
    rows = np.loadtxt(tmp_path / "t.log")
    loss = rows[:, 1]
    first, last = loss[:50].mean(), loss[-50:].mean()
    assert last < 0.85 * first, (first, last)
    # the field term alone must also improve (KL can move either way)
    field = rows[:, 2]
    assert field[-50:].mean() < field[:50].mean()


def test_train_empty_dataset_raises():
    with pytest.raises(ValueError):
        train([], TrainConfig(epochs=1), SMALL)


def test_training_diverged_carries_step_and_parts(tmp_path):
    # an oversized learning rate blows the loss up to non-finite values;
    # the abort reports where and with which components
    # and the streamed log keeps one row for every step before it
    cloud = np.random.default_rng(12).standard_normal((16, 3))
    log_path = tmp_path / "diverged.log"
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TrainingDiverged) as info:
        train([cloud], TrainConfig(epochs=400, seed=0, learning_rate=1e6),
              SMALL, log_path=log_path)
    assert info.value.step >= 0
    assert "field" in info.value.parts
    # here the coupling bijector meets a non-finite value mid-forward,
    # before either term has one, so both are reported as nan
    assert isinstance(info.value.__cause__, BijectorNumericsError)
    assert set(info.value.parts) == {"field", "kl", "loss"}
    assert all(np.isnan(v) for v in info.value.parts.values())
    assert "field=nan, kl=nan, loss=nan" in str(info.value)
    lines = log_path.read_text().splitlines()
    assert lines[0] == "# step loss field kl"
    assert [int(line.split()[0]) for line in lines[1:]] == \
        list(range(info.value.step))


# Trains the fixture model (512-point sphere, seed 20, latent_dim 16) for
# 60 steps and prints one line per trained tensor: name and value bytes.
_FIXTURE_TRAINING = """
import hashlib
from swarmflow import (ModelConfig, TrainConfig, make_synthetic_dataset,
                       normalize_cloud, train)
cloud = normalize_cloud(make_synthetic_dataset("sphere", 512, 1, 20)[0])[0]
ckpt = train([cloud], TrainConfig(epochs=60, seed=0), ModelConfig(latent_dim=16))
for name, value in ckpt.params.items():
    print(name, hashlib.sha256(value.tobytes()).hexdigest())
"""


def test_trained_parameters_do_not_depend_on_the_blas_thread_count():
    # the encoder's input gradient takes BLAS products of a few rows in
    # place of the full layer's product, and relies on a row coming out
    # the same in both; a second BLAS thread splits the full product
    # differently, so compare the trained bytes under one and two
    src = str(Path(swarmflow.__file__).resolve().parents[1])
    lines = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _FIXTURE_TRAINING],
                             env=env, capture_output=True, text=True,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        lines.append(run.stdout.splitlines())
    assert len(lines[0]) == 160
    assert lines[0] == lines[1]
