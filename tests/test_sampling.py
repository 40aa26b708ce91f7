"""Tests for trajectory generation and the Euler integration contract."""

import numpy as np
import pytest

from swarmflow import autodiff as ad
from swarmflow.flowmatch import FlowSchedule
from swarmflow.models import Checkpoint, ModelConfig, build_models, \
    models_from_checkpoint
from swarmflow.navigation import NavConfig
from swarmflow.sampling import SampleConfig, TrajectoryLog, _euler_rollout, \
    integrate_exact_target, sample, sample_cfm_plus_orca

SMALL = ModelConfig(latent_dim=4, field_hidden=8, field_blocks=2,
                    encoder_widths=(8, 16), coupling_layers=2,
                    coupling_hidden=4)


def _small_checkpoint(seed=0):
    models = build_models(SMALL, np.random.default_rng(seed))
    return Checkpoint(algorithm="flow", model_config=SMALL,
                      train_config={"horizon": 1.0, "sigma_min": 1e-4},
                      params=models.state_dict())


def _euler_log(x0, velocities, horizon=1.0):
    steps = velocities.shape[0]
    times = horizon - (horizon / steps) * np.arange(steps + 1)
    dt = float(times[0] - times[1])  # the recursion uses the frame spacing
    positions = [np.asarray(x0, dtype=np.float64)]
    for k in range(steps):
        positions.append(positions[-1] + dt * velocities[k])
    return TrajectoryLog(times=times, positions=np.asarray(positions),
                         applied_velocities=velocities)


def test_log_validation_frame_counts():
    times = 1.0 - 0.25 * np.arange(5)
    with pytest.raises(ValueError):
        TrajectoryLog(times=times, positions=np.zeros((4, 2, 3)),
                      applied_velocities=np.zeros((4, 2, 3)))
    with pytest.raises(ValueError):
        TrajectoryLog(times=times[:4], positions=np.zeros((5, 2, 3)),
                      applied_velocities=np.zeros((4, 2, 3)))


def test_log_validation_times_decreasing():
    with pytest.raises(ValueError):
        TrajectoryLog(times=np.array([0.0, 0.5, 1.0]),
                      positions=np.zeros((3, 2, 3)),
                      applied_velocities=np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        TrajectoryLog(times=np.array([1.0, 0.5, 0.5]),
                      positions=np.zeros((3, 2, 3)),
                      applied_velocities=np.zeros((2, 2, 3)))


def test_log_properties_and_final_cloud_copy():
    rng = np.random.default_rng(0)
    log = _euler_log(rng.standard_normal((3, 3)),
                     rng.standard_normal((4, 3, 3)))
    assert log.num_steps == 4
    assert log.num_agents == 3
    assert log.dt == pytest.approx(0.25)
    cloud = log.final_cloud()
    cloud += 100.0
    assert not np.array_equal(cloud, log.positions[-1])


def test_log_euler_consistency_detects_corruption():
    rng = np.random.default_rng(1)
    log = _euler_log(rng.standard_normal((2, 3)),
                     rng.standard_normal((6, 2, 3)))
    assert log.euler_consistent()
    log.positions[3, 0, 0] += 1e-9
    assert not log.euler_consistent()


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(num_agents=0)
    with pytest.raises(ValueError):
        SampleConfig(num_agents=4, steps=0)
    derived = SampleConfig(num_agents=4, kappa=0.1).nav_config(0.02)
    assert derived.kappa == 0.1
    assert derived.dt == 0.02
    override = NavConfig(kappa=0.5, dt=0.25)
    cfg = SampleConfig(num_agents=4, nav=override)
    assert cfg.nav_config(0.02) is override


def test_exact_integration_reaches_data_cloud():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((32, 3))
    eps = rng.standard_normal((32, 3))
    sched = FlowSchedule()
    log = integrate_exact_target(eps, x0, sched, steps=1000)
    assert log.euler_consistent()
    terminal_error = np.max(np.abs(log.positions[-1] - x0))
    assert terminal_error < 1e-3
    # the analytic endpoint keeps sigma_min of the starting noise
    np.testing.assert_allclose(log.positions[-1], x0 + sched.sigma_min * eps,
                               atol=1e-9)


def test_exact_integration_paths_are_straight():
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((16, 3))
    eps = rng.standard_normal((16, 3))
    log = integrate_exact_target(eps, x0, FlowSchedule(), steps=1000)
    start = log.positions[0]
    chord = log.positions[-1] - start
    chord_len = np.linalg.norm(chord, axis=1)
    assert np.all(chord_len > 1e-6)
    unit = chord / chord_len[:, None]
    worst = 0.0
    for frame in log.positions[1:-1]:
        offset = frame - start
        along = np.sum(offset * unit, axis=1)[:, None] * unit
        deviation = np.linalg.norm(offset - along, axis=1)
        worst = max(worst, float(np.max(deviation / chord_len)))
    assert worst < 1e-6


def test_exact_integration_shape_mismatch_raises():
    with pytest.raises(ValueError):
        integrate_exact_target(np.zeros((4, 3)), np.zeros((5, 3)),
                               FlowSchedule(), steps=10)


def test_sample_replicates_documented_draw_order():
    # One latent draw, then the starting cloud, then a deterministic
    # rollout: replaying the advertised order must reproduce the log
    # bit for bit.
    ckpt = _small_checkpoint()
    cfg = SampleConfig(num_agents=5, steps=7, use_orca=False, seed=42)
    log = sample(ckpt, cfg)

    models = models_from_checkpoint(ckpt)
    rng = np.random.default_rng(42)
    w = rng.standard_normal(SMALL.latent_dim)
    z_node, _ = models.bijector.forward(w)
    z = ad.wrap(z_node.value)
    x = rng.standard_normal((5, 3))
    dt = 1.0 / 7
    times = 1.0 - dt * np.arange(8)
    assert np.array_equal(log.positions[0], x)
    for k in range(7):
        v = models.field_net(x, float(times[k]), z, horizon=1.0).value
        assert np.array_equal(log.applied_velocities[k], v)
        x = x + dt * v
    assert np.array_equal(log.positions[-1], x)


def test_sample_without_orca_keeps_field_velocity():
    log = sample(_small_checkpoint(), SampleConfig(num_agents=4, steps=5,
                                                   use_orca=False, seed=1))
    assert np.array_equal(log.applied_velocities, log.preferred_velocities)
    assert log.meta["algorithm"] == "flow"
    assert log.euler_consistent()


def test_sample_with_orca_contract():
    cfg = SampleConfig(num_agents=6, steps=8, seed=2, kappa=0.3)
    log = sample(_small_checkpoint(), cfg)
    assert log.meta["algorithm"] == "flow+orca"
    assert log.meta["kappa"] == 0.3
    assert log.meta["num_agents"] == 6
    assert log.positions.shape == (9, 6, 3)
    assert log.euler_consistent()


def test_sample_is_deterministic():
    cfg = SampleConfig(num_agents=6, steps=8, seed=3)
    first = sample(_small_checkpoint(), cfg)
    second = sample(_small_checkpoint(), cfg)
    assert np.array_equal(first.positions, second.positions)
    assert np.array_equal(first.applied_velocities, second.applied_velocities)


def test_sample_rejects_non_flow_checkpoint():
    ckpt = _small_checkpoint()
    ckpt.algorithm = "diffusion"
    with pytest.raises(ValueError):
        sample(ckpt, SampleConfig(num_agents=2, steps=2))


@pytest.mark.parametrize("use_orca", [False, True])
def test_sample_with_nan_field_weights_fails_at_step_0(use_orca):
    # the bijector checks its own numerics, so only the field goes bad
    ckpt = _small_checkpoint()
    ckpt.params = {name: np.full_like(value, np.nan)
                   if name.startswith("field.") else value
                   for name, value in ckpt.params.items()}
    with pytest.raises(ValueError, match=r"not finite at step 0 \(t=1\)"):
        sample(ckpt, SampleConfig(num_agents=4, steps=5, use_orca=use_orca))


def test_rollout_names_the_step_and_time_of_a_non_finite_velocity():
    times = 1.0 - 0.25 * np.arange(5)

    def velocity_fn(x, t, k):
        return np.full_like(x, np.inf if k == 2 else 1.0)

    with pytest.raises(ValueError, match=r"step 2 \(t=0\.5\)"):
        _euler_rollout(np.zeros((3, 3)), times, velocity_fn, lambda v, x: v)


def test_sample_initial_cloud_override():
    ckpt = _small_checkpoint()
    cloud = np.full((3, 3), 0.5)
    log = sample(ckpt, SampleConfig(num_agents=3, steps=4, use_orca=False),
                 initial_cloud=cloud)
    assert np.array_equal(log.positions[0], cloud)
    with pytest.raises(ValueError):
        sample(ckpt, SampleConfig(num_agents=3, steps=4),
               initial_cloud=np.zeros((2, 3)))


def test_goal_baseline_reaches_goals():
    start = np.array([[-5.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
    goal = start + np.array([0.0, 3.0, 0.0])
    cfg = SampleConfig(num_agents=2, steps=50)
    log = sample_cfm_plus_orca(goal, start, cfg)
    assert log.meta["algorithm"] == "orca-to-goal"
    assert log.euler_consistent()
    np.testing.assert_allclose(log.positions[-1], goal, atol=1e-9)


def test_goal_baseline_zero_displacement():
    start = np.array([[0.2, -0.4, 0.6]])
    log = sample_cfm_plus_orca(start, start, SampleConfig(num_agents=1,
                                                          steps=10))
    assert np.array_equal(log.positions[0], log.positions[-1])
    np.testing.assert_allclose(log.applied_velocities, 0.0, atol=1e-15)


def test_goal_baseline_validation():
    cfg = SampleConfig(num_agents=2, steps=5)
    with pytest.raises(ValueError):
        sample_cfm_plus_orca(np.zeros((2, 3)), np.zeros((3, 3)), cfg)
    with pytest.raises(ValueError):
        sample_cfm_plus_orca(np.zeros((3, 3)), np.zeros((3, 3)), cfg)
