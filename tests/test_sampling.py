"""Tests for trajectory generation and the Euler integration contract."""

import contextlib
import json
import os
import threading

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from swarmflow import autodiff as ad
from swarmflow import navigation, sampling
from swarmflow.dataio import load_trajectory_csv, save_trajectory_csv
from swarmflow.diffusion import DiffusionSchedule, ddpm_sample
from swarmflow.flowmatch import SIGMA_MIN, cfm_loss
from swarmflow.models import Checkpoint, ModelConfig, build_models, \
    models_from_checkpoint
from swarmflow.sampling import SampleConfig, TrajectoryLog, _euler_rollout, \
    integrate_exact_target, sample, sample_cfm_plus_orca, unguarded_steps

SMALL = ModelConfig(latent_dim=4, field_hidden=8, field_blocks=2,
                    encoder_widths=(8, 16), coupling_layers=2,
                    coupling_hidden=4)


def _small_checkpoint(seed=0):
    models = build_models(SMALL, np.random.default_rng(seed))
    return Checkpoint(algorithm="flow", model_config=SMALL,
                      train_config={"sigma_min": 1e-4},
                      params=models.state_dict())


def _busy_checkpoint(seed=0):
    """A small flow checkpoint with every weight moved off its
    initialisation, so the field is non-zero and the bijector not the
    identity."""
    ckpt = _small_checkpoint(seed)
    rng = np.random.default_rng(seed + 100)
    ckpt.params = {name: value + 0.3 * rng.standard_normal(value.shape)
                   for name, value in ckpt.params.items()}
    return ckpt


def _euler_log(x0, velocities):
    steps = velocities.shape[0]
    times = 1.0 - (1.0 / steps) * np.arange(steps + 1)
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


def test_log_validation_shapes():
    # each used to be accepted and fail later as a broadcast or
    # concatenate error
    times = np.array([1.0, 0.5])
    cases = [
        (np.zeros((2, 4, 3)), np.zeros((1, 5, 3)), None),
        (np.zeros((2, 3)), np.zeros((1, 3)), None),
        (np.zeros((2, 4, 2)), np.zeros((1, 4, 2)), None),
        (np.zeros((2, 4, 3)), np.zeros((1, 4, 3)), np.zeros((1, 4))),
        (np.zeros((2, 4, 3)), np.zeros((1, 4, 3)), np.zeros((1, 3, 3))),
    ]
    for positions, applied, preferred in cases:
        with pytest.raises(ValueError, match="log shapes disagree") as info:
            TrajectoryLog(times=times, positions=positions,
                          applied_velocities=applied,
                          preferred_velocities=preferred)
        assert "\n" not in str(info.value)
    log = TrajectoryLog(times=times, positions=np.zeros((2, 4, 3)),
                        applied_velocities=np.zeros((1, 4, 3)),
                        preferred_velocities=np.zeros((1, 4, 3)))
    assert (log.num_steps, log.num_agents) == (1, 4)


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
    for kappa in (0.0, -1.0, np.inf, np.nan, "0.1", None, True, [0.1]):
        for use_orca in (False, True):
            with pytest.raises(ValueError, match="^kappa must be finite") \
                    as info:
                SampleConfig(num_agents=4, kappa=kappa, use_orca=use_orca)
            assert "\n" not in str(info.value)
    # integers only: a float or bool count or seed would be logged as given
    # or fail later with a TypeError
    bad = {"num_agents": (True, 4.0, "4", -1), "steps": (2.0, False, None),
           "seed": (1.5, True, -1, "0", np.int64(3))}
    for name, values in bad.items():
        for value in values:
            settings = {"num_agents": 4, name: value}
            with pytest.raises(ValueError, match=f"^{name} must be") as info:
                SampleConfig(**settings)
            assert "\n" not in str(info.value)
    assert SampleConfig(num_agents=1, steps=1, seed=0).seed == 0


def test_exact_integration_reaches_data_cloud():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((32, 3))
    eps = rng.standard_normal((32, 3))
    log = integrate_exact_target(eps, x0, steps=1000)
    assert log.euler_consistent()
    terminal_error = np.max(np.abs(log.positions[-1] - x0))
    assert terminal_error < 1e-3
    # the analytic endpoint keeps SIGMA_MIN of the starting noise
    np.testing.assert_allclose(log.positions[-1], x0 + SIGMA_MIN * eps,
                               atol=1e-9)


def test_exact_integration_paths_are_straight():
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((16, 3))
    eps = rng.standard_normal((16, 3))
    log = integrate_exact_target(eps, x0, steps=1000)
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
        integrate_exact_target(np.zeros((4, 3)), np.zeros((5, 3)), steps=10)


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
        v = models.field_net(x, float(times[k]), z).value
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


def test_sample_reads_a_recorded_horizon_of_one_and_refuses_others():
    # checkpoints written before the time axis was fixed at [0, 1] record
    # the span their field was trained on
    cfg = SampleConfig(num_agents=4, steps=5, seed=1)
    want = sample(_busy_checkpoint(), cfg)
    old = _busy_checkpoint()
    old.train_config["horizon"] = 1.0
    got = sample(old, cfg)
    assert np.array_equal(got.positions, want.positions)
    assert got.meta == want.meta
    old.train_config["horizon"] = 2.0
    with pytest.raises(ValueError, match="^checkpoint was trained with "
                                         "horizon 2.0; only 1.0"):
        sample(old, cfg)


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
    def velocity_fn(x, t, k, dt):
        return np.full_like(x, np.inf if k == 2 else 1.0)

    with pytest.raises(ValueError, match=r"step 2 \(t=0\.5\)"):
        _euler_rollout(np.zeros((3, 3)), 4, velocity_fn)


def test_every_sampler_logs_the_shared_meta_keys_with_json_types():
    ckpt = _small_checkpoint()
    rng = np.random.default_rng(5)
    cloud = rng.standard_normal((3, 3))
    cfg = SampleConfig(num_agents=3, steps=4, seed=7, kappa=0.2)
    plain = SampleConfig(num_agents=3, steps=4, use_orca=False, seed=7,
                         kappa=0.2)
    diff = build_models(SMALL, np.random.default_rng(1))
    logs = {
        "flow+orca": sample(ckpt, cfg),
        "flow": sample(ckpt, plain),
        "orca-to-goal": sample_cfm_plus_orca(cloud + 1.0, cloud, cfg),
        "exact-target": integrate_exact_target(cloud + 1.0, cloud, 4),
        "diffusion": ddpm_sample(diff, DiffusionSchedule(n_steps=4), 3,
                                 np.random.default_rng(2)),
    }
    shared = {"algorithm": str, "steps": int, "num_agents": int,
              "kappa": float, "scale": str}
    for algorithm, log in logs.items():
        seeded = algorithm in ("flow+orca", "flow", "orca-to-goal")
        want = {**shared, "seed": int} if seeded else shared
        meta = json.loads(json.dumps(log.meta))
        assert meta == log.meta
        assert {k: type(v) for k, v in log.meta.items()} == want, algorithm
        assert meta["algorithm"] == algorithm
        assert (meta["steps"], meta["num_agents"]) == (4, 3)
        assert meta["scale"] == "training"
        assert meta["kappa"] == (0.2 if seeded else 0.0)
        if seeded:
            assert meta["seed"] == 7
        assert log.euler_consistent()


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


def _points_apart(rng, m, half, kappa):
    """``m`` uniform points of the box ``[-half, half]^3``, every pair at
    least ``kappa`` apart (drawn one by one, each retried until it fits)."""
    points = []
    while len(points) < m:
        p = rng.uniform(-half, half, 3)
        if all(np.linalg.norm(p - q) >= kappa for q in points):
            points.append(p)
    return np.array(points)


def test_guarded_feasible_steps_keep_agents_apart(monkeypatch):
    """The whole-flight avoidance contract.  A step that starts with every
    pair at least kappa apart, solves only feasible velocity programs and
    is guarded, ``kappa + 2 v_max h <= culling_radius`` (so no pair beyond
    the culling radius can close to kappa in one step), ends with every
    pair still at least kappa apart."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    kappa = 0.06
    calls = []  # per orca_adjust call: [positions, v_pref, nav, infeasible]
    adjust, solve = sampling.orca_adjust, navigation._solve_lps

    def recording_adjust(v_pref, positions, cfg):
        calls.append([positions, v_pref, cfg, False])
        return adjust(v_pref, positions, cfg)

    def recording_solve(*args):
        result, infeasible = solve(*args)
        calls[-1][3] = bool(infeasible.any())
        return result, infeasible

    monkeypatch.setattr(sampling, "orca_adjust", recording_adjust)
    monkeypatch.setattr(navigation, "_solve_lps", recording_solve)
    checked = 0

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(2, 30), st.integers(2, 29),
                      st.floats(0.2, 0.6), st.integers(0, 2**32 - 1))
    def check(m, steps, half, seed):
        nonlocal checked
        rng = np.random.default_rng(seed)
        start = _points_apart(rng, m, half, kappa)
        goal = rng.uniform(-half, half, (m, 3))
        calls.clear()
        log = sample_cfm_plus_orca(goal, start, SampleConfig(
            num_agents=m, steps=steps, kappa=kappa))
        assert len(calls) == steps
        unguarded = 0
        for k, (x, v_pref, nav, infeasible) in enumerate(calls):
            v_max = max(2.0 * float(np.max(np.linalg.norm(v_pref, axis=1))),
                        nav.kappa / nav.dt)
            guarded = nav.kappa + 2.0 * v_max * nav.dt <= nav.culling_radius
            unguarded += not guarded
            if guarded and not infeasible and pdist(x).min() >= nav.kappa:
                after = pdist(log.positions[k + 1]).min()
                assert after >= nav.kappa, (k, after / nav.kappa)
                checked += 1
        # the count the sampling commands warn with judges the same steps
        assert unguarded_steps(log) == unguarded

    check()
    assert checked >= 200, checked


def test_unguarded_steps_of_a_reloaded_log_is_a_one_line_error(tmp_path):
    # A CSV stores only the applied velocities, so a reloaded log cannot
    # say which of its steps were guarded.
    cloud = np.random.default_rng(9).standard_normal((6, 3))
    log = sample_cfm_plus_orca(-cloud, cloud, SampleConfig(
        num_agents=6, steps=4, kappa=0.5))
    assert unguarded_steps(log) in range(5)  # the flown log can say
    path = tmp_path / "trajectory.csv"
    save_trajectory_csv(path, log)
    reloaded = load_trajectory_csv(path)
    assert reloaded.preferred_velocities is None
    with pytest.raises(ValueError,
                       match="holds no preferred velocities") as error:
        unguarded_steps(reloaded)
    assert "\n" not in str(error.value)


def _run_every_sampler():
    ckpt = _busy_checkpoint()
    models = models_from_checkpoint(ckpt)  # serves as a DDPM network too
    cloud = np.random.default_rng(8).standard_normal((12, 3))
    cfg = SampleConfig(num_agents=12, steps=6, seed=4, kappa=0.5)
    plain = SampleConfig(num_agents=12, steps=6, use_orca=False, seed=4)
    return {
        "flow+orca": sample(ckpt, cfg),
        "flow": sample(ckpt, plain),
        "orca-to-goal": sample_cfm_plus_orca(-cloud, cloud, cfg),
        "exact-target": integrate_exact_target(cloud, 0.5 * cloud, 9),
        "diffusion": ddpm_sample(models, DiffusionSchedule(n_steps=5), 12,
                                 np.random.default_rng(2)),
        "diffusion-deterministic": ddpm_sample(
            models, DiffusionSchedule(n_steps=5), 12,
            np.random.default_rng(2), stochastic=False),
    }


def test_every_sampler_gives_the_same_bits_with_a_tape(monkeypatch):
    free = _run_every_sampler()
    monkeypatch.setattr(sampling.ad, "no_record", contextlib.nullcontext)
    taped = _run_every_sampler()
    for name, log in free.items():
        for attr in ("positions", "applied_velocities",
                     "preferred_velocities"):
            assert np.array_equal(getattr(log, attr),
                                  getattr(taped[name], attr)), (name, attr)
        assert log.euler_consistent()
    # the field moves the agents and avoidance corrects some of them
    flow = free["flow+orca"]
    assert np.any(flow.preferred_velocities != 0.0)
    assert not np.array_equal(flow.applied_velocities,
                              flow.preferred_velocities)


def test_training_after_sampling_gets_every_gradient():
    ckpt = _busy_checkpoint()
    cloud = np.random.default_rng(6).standard_normal((8, 3))

    def gradients():
        models = models_from_checkpoint(ckpt)
        loss, _ = cfm_loss(models, cloud, np.random.default_rng(3))
        ad.backward(loss)
        for name, node in models.named_parameters():
            assert node.needs_grad and np.any(node.grad != 0.0), name
        return models.grads.copy()

    before = gradients()
    sample(ckpt, SampleConfig(num_agents=5, steps=3, seed=1))
    broken = _busy_checkpoint()
    broken.params = {name: np.full_like(value, np.nan)
                     if name.startswith("field.") else value
                     for name, value in broken.params.items()}
    with pytest.raises(ValueError, match="not finite"):
        sample(broken, SampleConfig(num_agents=5, steps=3))
    after = gradients()
    assert np.all(np.isfinite(after)) and np.any(after != 0.0)
    assert np.array_equal(before, after)


# ---------------------------------------------------------------------------
# the field network split by rows

FIXTURE = ModelConfig(latent_dim=16)  # the fixture's field: hidden 128


def _fixture_field_models(seed=0):
    """Fixture-size networks with every field weight moved off its
    initialisation, so the last block is not zero."""
    models = build_models(FIXTURE, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 100)
    for name, node in models.named_parameters():
        if name.startswith("field."):
            node.value[...] += 0.1 * rng.standard_normal(node.value.shape)
    return models


def _flow_checkpoint(models):
    return Checkpoint(algorithm="flow", model_config=FIXTURE,
                      train_config={}, params=models.state_dict())


@pytest.mark.parametrize("rows", [1, 127, 128, 255, 256, 512, 1000, 2700,
                                  4096, 5001])
@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_row_spans_follow_the_split_rule(monkeypatch, rows, cpus):
    monkeypatch.setattr(sampling, "_split_cpus", lambda: cpus)
    spans = sampling._row_spans(rows)
    starts, stops = np.array(spans).T
    assert starts[0] == 0 and stops[-1] == rows
    assert np.array_equal(starts[1:], stops[:-1])
    assert len(spans) == max(1, min(cpus, rows // 128))
    if len(spans) > 1:
        assert np.all(stops - starts >= 128)
        assert np.all(starts % 64 == 0)


@pytest.mark.parametrize("agents", [512, 2700, 4096])
def test_split_field_gives_the_bits_of_one_chunk(monkeypatch, agents):
    models = _fixture_field_models()
    ckpt = _flow_checkpoint(models)
    cfg = SampleConfig(num_agents=agents, steps=3, use_orca=False, seed=1)
    sched = DiffusionSchedule(n_steps=3)

    def runs(cpus):
        monkeypatch.setattr(sampling, "_split_cpus", lambda: cpus)
        return [sample(ckpt, cfg),
                ddpm_sample(models, sched, agents, np.random.default_rng(2))]

    want = runs(1)
    assert np.any(want[0].preferred_velocities != 0.0)
    for cpus in (2, 4):
        for log, one in zip(runs(cpus), want):
            for attr in ("positions", "applied_velocities",
                         "preferred_velocities"):
                assert np.array_equal(getattr(log, attr),
                                      getattr(one, attr)), (cpus, attr)


def test_sampling_leaves_no_thread_running(monkeypatch):
    monkeypatch.setattr(sampling, "_split_cpus", lambda: 2)
    models = _fixture_field_models()
    cfg = SampleConfig(num_agents=256, steps=2, use_orca=False)
    threads = set()
    run_blocks = type(models.field_net).run_blocks

    def recording(self, h, injects, blocks):
        threads.add(threading.get_ident())
        return run_blocks(self, h, injects, blocks)

    monkeypatch.setattr(type(models.field_net), "run_blocks", recording)
    before = threading.active_count()
    sample(_flow_checkpoint(models), cfg)
    assert len(threads) == 2  # the split ran: the caller and one worker
    assert threading.active_count() == before
    models.field_net.params["b0.w"].value[0, 0] = np.nan
    with pytest.raises(ValueError, match=r"^velocity field is not finite at "
                                         r"step 0 \(t=1\)$"):
        sample(_flow_checkpoint(models), cfg)
    assert threading.active_count() == before


def test_an_error_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(sampling, "_split_cpus", lambda: 2)
    models = _fixture_field_models()
    run_blocks = type(models.field_net).run_blocks
    caller = threading.get_ident()

    def failing(self, h, injects, blocks):
        if threading.get_ident() != caller:
            raise RuntimeError("worker failed")
        return run_blocks(self, h, injects, blocks)

    monkeypatch.setattr(type(models.field_net), "run_blocks", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="^worker failed$"):
        ddpm_sample(models, DiffusionSchedule(n_steps=2), 256,
                    np.random.default_rng(0))
    assert threading.active_count() == before


@pytest.mark.parametrize("env, split", [
    ({}, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
    ({"GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "4"}, False),
])
def test_the_split_runs_only_beside_a_one_thread_blas(monkeypatch, env,
                                                      split):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cpus = len(os.sched_getaffinity(0))
    assert sampling._split_cpus() == (cpus if split else 1)


def test_the_split_counts_cpus_where_python_has_no_affinity_call(
        monkeypatch):
    # macOS and Windows have no os.sched_getaffinity
    for var in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert sampling._split_cpus() == (os.cpu_count() or 1)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert sampling._split_cpus() == 1
