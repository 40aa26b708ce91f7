"""End-to-end acceptance gate for the package.

Ten checks, each one test, each printing a single ``[check NN] ...: PASS``
line (run with ``pytest -s`` to see them; ``pytest -v`` shows pass/fail per
check either way):

  01  finite-difference gradient audit of every network parameter
  02  path-sampler endpoint identities and on-path field equivalence
  03  integrating the closed-form field hits the target along straight paths
  04  bijector round-trip accuracy and log-determinant correctness
  05  collision avoidance keeps agents apart (head-on + randomized scenes)
  06  trained sphere pipeline is collision-free and accurate within budget
  07  more sampling steps never hurt safety or smoothness
  08  flow plus avoidance beats the diffusion baseline on kinematics
  09  every metric agrees with an independent brute-force implementation
  10  identical seed and config reproduce checkpoints and CSVs byte-for-byte

Checks 06-08 and 10 and the CLI warning tests share one module-scoped
bundle.  It trains nothing: it loads the flow and diffusion checkpoints of
the recorded sphere fixture from the session's one run of
``scripts/digests.py`` (the ``digest_run`` fixture of tests/conftest.py,
whose RUN_DIR is kept), checks that the script's hard-coded arguments still
build the fixture that sphere_thresholds.json records, and samples every
variant.  Checks 06 and 10 also share one timed in-process training of the
flow model: check 06 holds it to the training budget, and check 10
compares its bytes with the script's checkpoint, trained in another
process through the CLI with one BLAS thread.  Those three 2000-step
trainings take a few minutes of wall time; the remaining checks run in
seconds.  The one recorded threshold (chamfer accuracy of the trained run)
is read from tests/fixtures/sphere_thresholds.json, which
scripts/record_sphere_fixture.py regenerates.
"""

import json
import time
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import swarmflow as sf
from swarmflow import diffusion
from swarmflow.cli import main
from swarmflow.flowmatch import (conditional_field, sample_path_point,
                                 target_field)
from swarmflow.sampling import integrate_exact_target, unguarded_steps

FIXTURE_JSON = Path(__file__).parent / "fixtures" / "sphere_thresholds.json"


def _accept(num, label, detail):
    print(f"[check {num:02d}] {label}: PASS ({detail})")


def _nudged(value, i, delta):
    """Copy of ``value`` with flat entry ``i`` shifted by ``delta``."""
    arr = np.array(value, dtype=np.float64).reshape(-1).copy()
    arr[i] += delta
    return arr.reshape(np.shape(value))


def _perturb_params(store, amount, rng):
    """Move every parameter off its structured-zero initial value."""
    for _, node in store:
        node.value = np.asarray(
            node.value + amount * rng.standard_normal(np.shape(node.value)))


# ---------------------------------------------------------------------------
# shared trained-fixture bundle, loaded from the digest script's run

@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE_JSON) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def bundle(recorded, digest_run):
    """Load the recorded sphere fixture's checkpoints from the digest run,
    check that the run built that fixture, and sample every variant."""
    fx = recorded["fixture"]
    clouds = sf.make_synthetic_dataset(
        fx["data"]["kind"], fx["data"]["n_points"], 1, fx["data"]["seed"])
    dataset = [sf.normalize_cloud(c)[0] for c in clouds]
    tc = sf.TrainConfig(**fx["train"])
    mc = sf.ModelConfig.from_dict(recorded["model_config"])
    flow_path = digest_run.root / "flow" / "checkpoint.swf"
    flow_ckpt = sf.load_checkpoint(flow_path)
    diff_ckpt = sf.load_checkpoint(
        digest_run.root / "diffusion" / "checkpoint.swf")
    _check_same_fixture(flow_ckpt, diff_ckpt, tc, mc)
    data = sf.load_pointcloud(digest_run.root / "data" / "cloud_000.xyz")
    assert sf.normalize_cloud(data)[0].tobytes() == dataset[0].tobytes(), \
        "the digest run's cloud is not the recorded fixture's"

    s = fx["sample"]

    def run(steps, use_orca=True):
        cfg = sf.SampleConfig(num_agents=s["agents"], steps=steps,
                              use_orca=use_orca, seed=s["seed"],
                              kappa=s["kappa"])
        return sf.sample(flow_ckpt, cfg)

    log_orca = run(s["steps"])
    cli_log = sf.load_trajectory_csv(
        digest_run.root / "sample" / "trajectory.csv")
    for name in ("positions", "applied_velocities"):
        assert getattr(cli_log, name).tobytes() \
            == getattr(log_orca, name).tobytes(), \
            f"the digest run's sample differs in its {name}"
    log_plain = run(s["steps"], use_orca=False)
    sweep = {n: (log_orca if n == s["steps"] else run(n))
             for n in fx["sweep_steps"]}
    rng = np.random.default_rng(s["seed"])
    log_diffusion = diffusion.ddpm_sample(
        sf.models_from_checkpoint(diff_ckpt), diffusion.DiffusionSchedule(),
        s["agents"], rng)

    def report(log):
        return sf.evaluate_logs([log], kappa=s["kappa"],
                                reference=[dataset[0]]).as_dict()

    return SimpleNamespace(
        dataset=dataset, reference=dataset[0], train_config=tc,
        model_config=mc, flow_path=flow_path, log_orca=log_orca,
        log_plain=log_plain, log_diffusion=log_diffusion, sweep=sweep,
        kappa=s["kappa"], sample_steps=s["steps"], sample_seed=s["seed"],
        sample_agents=s["agents"], report=report)


def _check_same_fixture(flow_ckpt, diff_ckpt, tc, mc):
    """The digest script hard-codes the fixture's CLI arguments, and
    sphere_thresholds.json records the fixture: fail if the two drift."""
    schedule = diffusion.DiffusionSchedule()
    want = {"flow": asdict(tc),
            "diffusion": asdict(tc) | {
                key: getattr(schedule, name)
                for key, name in diffusion.CONFIG_KEYS.items()}}
    for ckpt in (flow_ckpt, diff_ckpt):
        assert ckpt.train_config == want[ckpt.algorithm], \
            f"{ckpt.algorithm} trained with {ckpt.train_config}"
        assert ckpt.model_config == mc, \
            f"{ckpt.algorithm} model is {ckpt.model_config}"
        assert ckpt.step_count == tc.epochs, \
            f"{ckpt.algorithm} ran {ckpt.step_count} steps"


@pytest.fixture(scope="module")
def retrained(bundle):
    """One timed in-process training of the recorded fixture, through the
    library with the BLAS threads as the session has them: check 06 holds
    it to the training budget, check 10 to the digest run's bytes."""
    t0 = time.perf_counter()
    ckpt = sf.train(bundle.dataset, bundle.train_config, bundle.model_config)
    return SimpleNamespace(ckpt=ckpt,
                           minutes=(time.perf_counter() - t0) / 60.0)


# ---------------------------------------------------------------------------
# check 01 -- gradient audit

def test_check01_gradients_of_every_network_match_finite_differences():
    # One loss evaluation touches all three networks (field through the
    # regression term, encoder and bijector through the KL), so checking
    # its gradient against central differences at every single parameter
    # entry audits the whole model.  Errors are scaled by the gradient
    # magnitude floored at one, so near-zero entries are judged absolutely.
    t0 = time.perf_counter()
    mc = sf.ModelConfig(latent_dim=8, field_hidden=8, field_blocks=2,
                        encoder_widths=(8, 16), coupling_layers=2,
                        coupling_hidden=4)
    models = sf.build_models(mc, np.random.default_rng(5))
    _perturb_params(models.named_parameters(), 0.05, np.random.default_rng(6))
    prefixes = {name.split(".")[0] for name, _ in models.named_parameters()}
    assert prefixes == {"field", "encoder", "bijector"}

    cloud = np.random.default_rng(7).standard_normal((16, 3))
    frozen_state = np.random.default_rng(2024).bit_generator.state

    def loss_node():
        rng = np.random.default_rng(0)
        rng.bit_generator.state = frozen_state
        node, _ = sf.cfm_loss(models, cloud, rng)
        return node

    node = loss_node()
    for _, p in models.named_parameters():
        p.grad = None
    sf.backward(node)

    h = 1e-5
    worst, worst_at, count = 0.0, "", 0
    for name, p in models.named_parameters():
        assert p.grad is not None, f"{name} is disconnected from the loss"
        grads = np.reshape(p.grad, -1)
        original = p.value
        for i in range(np.size(original)):
            p.value = _nudged(original, i, +h)
            hi = float(loss_node().value)
            p.value = _nudged(original, i, -h)
            lo = float(loss_node().value)
            p.value = original
            fd = (hi - lo) / (2.0 * h)
            an = float(grads[i])
            rel = abs(an - fd) / max(1.0, abs(an), abs(fd))
            count += 1
            if rel > worst:
                worst, worst_at = rel, f"{name}[{i}]"
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"gradient mismatch at {worst_at}: {worst:.3e}"
    assert elapsed < 60.0, f"gradient audit took {elapsed:.1f}s"
    _accept(1, "gradients of every network match finite differences",
            f"max scaled error {worst:.2e} over {count} entries, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# check 02 -- path sampler identities

def test_check02_path_sampler_endpoints_and_on_path_field_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        t = rng.uniform(0.0, 1.0)
        x0 = rng.standard_normal((4, 3))
        eps = rng.standard_normal((4, 3))
        xt = sample_path_point(x0, t, eps)
        diff = target_field(x0, eps) - conditional_field(xt, x0, t)
        worst = max(worst, float(np.max(np.abs(diff))))
    assert worst < 1e-10, f"on-path field mismatch {worst:.3e}"

    rng = np.random.default_rng(43)
    for _ in range(200):
        x0 = rng.standard_normal((4, 3))
        eps = rng.standard_normal((4, 3))
        assert np.array_equal(sample_path_point(x0, 1.0, eps), eps)
        start = sample_path_point(x0, 0.0, eps)
        slack = sf.SIGMA_MIN * float(np.max(np.abs(eps))) * (1.0 + 1e-9)
        assert float(np.max(np.abs(start - x0))) <= slack
    _accept(2, "path sampler endpoints and on-path field identity",
            f"max on-path deviation {worst:.2e} over 10000 draws")


# ---------------------------------------------------------------------------
# check 03 -- exact-field integration

def test_check03_exact_field_integration_is_straight_and_accurate():
    cloud = sf.normalize_cloud(
        sf.make_synthetic_dataset("sphere", 64, 1, 3)[0])[0]
    eps = np.random.default_rng(4).standard_normal((64, 3))
    log = integrate_exact_target(eps, cloud, steps=1000)

    terminal = float(np.max(np.abs(log.final_cloud() - cloud)))
    assert terminal < 1e-3, f"terminal error {terminal:.3e}"

    start = log.positions[0]
    chord = log.positions[-1] - start
    chord_len = np.linalg.norm(chord, axis=1)
    assert np.all(chord_len > 1e-6)
    unit = chord / chord_len[:, None]
    crooked = 0.0
    for frame in log.positions[1:-1]:
        offset = frame - start
        along = np.sum(offset * unit, axis=1)[:, None] * unit
        deviation = np.linalg.norm(offset - along, axis=1)
        crooked = max(crooked, float(np.max(deviation / chord_len)))
    assert crooked < 1e-6, f"path straightness {crooked:.3e}"
    _accept(3, "exact-field integration is straight and accurate",
            f"terminal error {terminal:.2e}, straightness {crooked:.2e} "
            f"over 1000 steps")


# ---------------------------------------------------------------------------
# check 04 -- bijector round trip and log-determinant

def test_check04_bijector_round_trip_and_log_det():
    # full-depth stack, weights moved off the identity initialization
    bij = sf.CouplingBijector(16, n_layers=14, hidden=64,
                              rng=np.random.default_rng(11))
    _perturb_params(bij.params.items(), 0.1, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    worst_rt = 0.0
    for _ in range(100):
        w = rng.standard_normal(16)
        z, _ = bij.forward(w)
        back, _ = bij.inverse(z.value)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.value - w))))
    assert worst_rt < 1e-6, f"round-trip error {worst_rt:.3e}"

    # log|det| against a dense numerical Jacobian at low dimension
    small = sf.CouplingBijector(4, n_layers=3, hidden=8,
                                rng=np.random.default_rng(14))
    _perturb_params(small.params.items(), 0.5, np.random.default_rng(15))
    rng = np.random.default_rng(16)
    h = 1e-6
    worst_ld = 0.0
    for _ in range(5):
        w = rng.standard_normal(4)
        _, logdet = small.forward(w)
        jac = np.empty((4, 4))
        for j in range(4):
            hi, _ = small.forward(_nudged(w, j, +h))
            lo, _ = small.forward(_nudged(w, j, -h))
            jac[:, j] = (hi.value - lo.value) / (2.0 * h)
        sign, logabs = np.linalg.slogdet(jac)
        assert sign > 0.0
        rel = abs(float(logdet.value) - logabs) / max(1.0, abs(logabs))
        worst_ld = max(worst_ld, rel)
    assert worst_ld < 1e-4, f"log-det mismatch {worst_ld:.3e}"
    _accept(4, "bijector round trip and log-determinant",
            f"round-trip {worst_rt:.2e} over 100 vectors, "
            f"log-det error {worst_ld:.2e}")


# ---------------------------------------------------------------------------
# check 05 -- collision avoidance

def _repaired_scene(rng, n, side, dmin):
    """Uniform points in a box, resampled until pairwise spacing >= dmin."""
    pts = rng.uniform(0.0, side, (n, 3))
    for _ in range(1000):
        delta = pts[:, None] - pts[None, :]
        dist = np.linalg.norm(delta, axis=2)
        np.fill_diagonal(dist, np.inf)
        bad = np.flatnonzero(dist.min(axis=1) < dmin)
        if bad.size == 0:
            return pts
        pts[bad] = rng.uniform(0.0, side, (bad.size, 3))
    raise RuntimeError("could not place a safe scene")


def test_check05_collision_avoidance_keeps_agents_apart():
    t0 = time.perf_counter()
    kappa, dt = 0.06, 0.01
    cfg = sf.NavConfig(kappa=kappa, dt=dt)

    # head-on exchange: two agents flying straight at each other
    positions = np.array([[-2.0 * kappa, 0.0, 0.0],
                          [2.0 * kappa, 0.0, 0.0]])
    goals = -positions.copy()
    min_dist = np.inf
    for _ in range(120):
        to_goal = goals - positions
        norms = np.linalg.norm(to_goal, axis=1, keepdims=True)
        v_pref = np.where(norms > 1e-12,
                          to_goal / np.maximum(norms, 1e-12), 0.0)
        positions = positions + dt * sf.orca_adjust(v_pref, positions, cfg)
        min_dist = min(min_dist,
                       float(np.linalg.norm(positions[0] - positions[1])))
    assert min_dist >= kappa * (1.0 - 1e-6), \
        f"head-on pair dipped to {min_dist:.6f} (kappa {kappa})"
    assert positions[0, 0] > -1.5 * kappa and positions[1, 0] < 1.5 * kappa

    # Randomized dense scenes: one adjusted step must preserve safety.
    # Spacing and preferred speeds are calibrated so the reciprocal
    # velocity programs stay feasible (the regime the per-step guarantee
    # speaks to) while roughly a fifth of the agents are actively
    # constrained each step; overdense crowds where even the minimax
    # fallback must concede ground are covered by the unit tests.
    rng = np.random.default_rng(21)
    worst_after = np.inf
    adjusted = 0
    for _ in range(100):
        pts = _repaired_scene(rng, 32, 0.5, 1.1 * kappa)
        assert float(pdist(pts).min()) >= kappa
        v_pref = rng.normal(0.0, 0.5, (32, 3))
        out = sf.orca_adjust(v_pref, pts, cfg)
        adjusted += int(np.sum(np.any(out != v_pref, axis=1)))
        worst_after = min(worst_after, float(pdist(pts + dt * out).min()))
        assert worst_after >= kappa * (1.0 - 1e-9), \
            f"scene dipped to {worst_after:.6f}"
    assert adjusted >= 300, f"only {adjusted} agents were ever adjusted"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"avoidance suite took {elapsed:.1f}s"
    _accept(5, "collision avoidance keeps agents apart",
            f"head-on min {min_dist / kappa:.6f} kappa, 100 scenes min "
            f"{worst_after / kappa:.6f} kappa with {adjusted} adjustments, "
            f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# check 06 -- trained sphere fixture

def test_check06_trained_sphere_is_collision_free_and_accurate(
        bundle, retrained, recorded):
    rep = bundle.report(bundle.log_orca)
    cd = sf.chamfer(bundle.log_orca.final_cloud(), bundle.reference)
    threshold = recorded["thresholds"]["chamfer_flow_orca"]
    assert retrained.minutes < 30.0, \
        f"training took {retrained.minutes:.1f} minutes"
    assert rep["FIN"] == 0.0, f"final collision rate {rep['FIN']}"
    assert cd < threshold, f"chamfer {cd:.6f} >= threshold {threshold:.6f}"
    _accept(6, "trained sphere is collision-free and accurate",
            f"FIN {rep['FIN']}, chamfer {cd:.4f} < {threshold:.4f}, "
            f"trained in {retrained.minutes:.1f} min")


# ---------------------------------------------------------------------------
# check 07 -- step-count trends

def test_check07_more_steps_never_hurt_safety_or_smoothness(bundle):
    steps = sorted(bundle.sweep)
    reports = {n: bundle.report(bundle.sweep[n]) for n in steps}
    for key in ("FIN", "ACC", "JERK"):
        values = [reports[n][key] for n in steps]
        for coarse, fine in zip(values, values[1:]):
            assert fine <= coarse, \
                f"{key} rose from {coarse} to {fine} as steps increased"
    summary = ", ".join(
        f"{key} " + " -> ".join(f"{reports[n][key]:.3g}" for n in steps)
        for key in ("FIN", "ACC", "JERK"))
    _accept(7, "more steps never hurt safety or smoothness", summary)


# ---------------------------------------------------------------------------
# check 08 -- baseline comparison

def test_check08_flow_with_avoidance_beats_diffusion_baseline(bundle):
    rep_orca = bundle.report(bundle.log_orca)
    rep_plain = bundle.report(bundle.log_plain)
    rep_diff = bundle.report(bundle.log_diffusion)
    for key in ("ACC", "JERK", "DIR", "DIST"):
        assert rep_diff[key] > rep_orca[key], \
            f"diffusion {key} {rep_diff[key]} not above flow {rep_orca[key]}"
    assert rep_plain["FIN"] > 0.0, "unadjusted flow shows no collisions"
    assert rep_orca["FIN"] == 0.0, \
        f"adjusted flow still collides: {rep_orca['FIN']}"
    ratios = ", ".join(
        f"{key} x{rep_diff[key] / rep_orca[key]:.0f}"
        for key in ("ACC", "JERK", "DIR", "DIST"))
    _accept(8, "flow with avoidance beats diffusion baseline",
            f"diffusion worse by {ratios}; plain FIN "
            f"{rep_plain['FIN']:.2f} vs adjusted 0")


# ---------------------------------------------------------------------------
# check 09 -- brute-force metric cross-checks

def _log_from_velocities(times, velocities, x0):
    positions = [np.asarray(x0, dtype=np.float64)]
    for k in range(len(velocities)):
        dt = times[k] - times[k + 1]
        positions.append(positions[-1] + dt * velocities[k])
    return sf.TrajectoryLog(times=np.asarray(times, dtype=np.float64),
                            positions=np.asarray(positions),
                            applied_velocities=np.asarray(velocities))


def _chamfer_brute(a, b):
    fwd = sum(min(float(np.dot(p - q, p - q)) for q in b) for p in a) / len(a)
    bwd = sum(min(float(np.dot(q - p, q - p)) for p in a) for q in b) / len(b)
    return fwd + bwd


def test_check09_metrics_agree_with_brute_force():
    rng = np.random.default_rng(31)

    a = rng.standard_normal((31, 3))
    b = rng.standard_normal((23, 3)) + 0.3
    err_cd = abs(sf.chamfer(a, b) - _chamfer_brute(a, b))
    assert err_cd < 1e-10

    generated = [rng.standard_normal((7, 3)) for _ in range(3)]
    reference = [rng.standard_normal((7, 3)) for _ in range(4)]
    table = np.array([[_chamfer_brute(g, r) for r in reference]
                      for g in generated])
    cov_brute = len(set(np.argmin(table, axis=1))) / len(reference)
    mmd_brute = float(table.min(axis=0).mean())
    cov, mmd = sf.coverage_and_mmd(generated, reference)
    err_cov = abs(cov - cov_brute)
    err_mmd = abs(mmd - mmd_brute)
    assert err_cov < 1e-10 and err_mmd < 1e-10

    times = 1.0 - 0.2 * np.arange(6)
    log = _log_from_velocities(times, rng.standard_normal((5, 9, 3)),
                               rng.standard_normal((9, 3)) * 0.2)
    kappa = 0.35
    rates = []
    for frame in log.positions:
        hits = 0
        for i in range(len(frame)):
            if any(j != i and np.linalg.norm(frame[i] - frame[j]) < kappa
                   for j in range(len(frame))):
                hits += 1
        rates.append(100.0 * hits / len(frame))
    traj, fin = sf.collision_rates(log, kappa)
    err_col = max(abs(traj - float(np.mean(rates))), abs(fin - rates[-1]))
    assert err_col < 1e-10

    times = 1.0 - (1.0 / 12.0) * np.arange(13)
    v = rng.standard_normal((12, 5, 3))
    log = _log_from_velocities(times, v, rng.standard_normal((5, 3)))
    speeds = np.linalg.norm(v, axis=2)
    acc_brute = float(np.mean(np.abs(np.diff(speeds, axis=0))))
    jerk_brute = float(np.mean(
        np.linalg.norm(v[2:] - 2.0 * v[1:-1] + v[:-2], axis=2)))
    angles = []
    for k in range(len(v) - 1):
        for agent in range(v.shape[1]):
            n1 = np.linalg.norm(v[k, agent])
            n2 = np.linalg.norm(v[k + 1, agent])
            if n1 > 0.0 and n2 > 0.0:
                cosang = np.dot(v[k, agent], v[k + 1, agent]) / (n1 * n2)
                angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    dir_brute = float(np.mean(angles))
    acc, jerk, dirchange = sf.smoothness(log)
    err_smooth = max(abs(acc - acc_brute), abs(jerk - jerk_brute),
                     abs(dirchange - dir_brute))
    assert err_smooth < 1e-10

    dist_brute = float(np.mean(
        [sum(np.linalg.norm(log.positions[k + 1, agent]
                            - log.positions[k, agent])
             for k in range(log.num_steps))
         for agent in range(log.num_agents)]))
    err_dist = abs(sf.distance_traveled(log) - dist_brute)
    assert err_dist < 1e-12

    worst = max(err_cd, err_cov, err_mmd, err_col, err_smooth)
    _accept(9, "metrics agree with brute force",
            f"max deviation {worst:.2e}, distance {err_dist:.2e}")


# ---------------------------------------------------------------------------
# check 10 -- bit-level reproducibility

def test_check10_reruns_are_byte_identical(bundle, retrained, tmp_path):
    # two independent trainings with the same seed and config: the digest
    # script's, through the CLI in its own process with one BLAS thread,
    # and this process's, through the library ...
    first = bundle.flow_path
    second = tmp_path / "second.swf"
    sf.save_checkpoint(second, retrained.ckpt)
    same_ckpt = first.read_bytes() == second.read_bytes()
    assert same_ckpt, "retrained checkpoint differs"

    # ... and a full second sampling run from the retrained checkpoint
    cfg = sf.SampleConfig(num_agents=bundle.sample_agents,
                          steps=bundle.sample_steps, use_orca=True,
                          seed=bundle.sample_seed, kappa=bundle.kappa)
    log_again = sf.sample(retrained.ckpt, cfg)
    first_csv = tmp_path / "first.csv"
    second_csv = tmp_path / "second.csv"
    sf.save_trajectory_csv(first_csv, bundle.log_orca)
    sf.save_trajectory_csv(second_csv, log_again)
    same_csv = first_csv.read_bytes() == second_csv.read_bytes()
    same_meta = Path(str(first_csv) + ".meta.json").read_bytes() \
        == Path(str(second_csv) + ".meta.json").read_bytes()
    assert same_csv, "trajectory CSV differs between reruns"
    assert same_meta, "trajectory metadata differs between reruns"
    _accept(10, "reruns are byte-identical",
            f"checkpoint {first.stat().st_size} bytes and trajectory CSV "
            f"{first_csv.stat().st_size} bytes match exactly")


# ---------------------------------------------------------------------------
# the sampling commands' warning on unguarded steps, on the fixture model

def _cli_flight(bundle, tmp_path, command, steps):
    out = tmp_path / command
    assert main([command, "--checkpoint", str(bundle.flow_path),
                 "--agents", str(bundle.sample_agents), "--steps", str(steps),
                 "--seed", str(bundle.sample_seed), "--out", str(out)]) == 0
    return sf.load_trajectory_csv(out / "trajectory.csv")


def test_fixture_sample_is_guarded_and_silent(bundle, tmp_path, capsys):
    # the fixture's largest reach, kappa + 2 v_max h, is 3.27 kappa
    log = _cli_flight(bundle, tmp_path, "sample", bundle.sample_steps)
    assert capsys.readouterr().err == ""
    assert np.array_equal(log.positions, bundle.log_orca.positions)
    assert unguarded_steps(bundle.log_orca) == 0


def test_spread_sample_cfm_orca_start_warns(bundle, tmp_path, capsys):
    # 25 straight steps from the Gaussian start to the sphere move agents
    # up to 9.4 kappa a step, beyond the 4 kappa culling radius
    log = _cli_flight(bundle, tmp_path, "sample-cfm-orca", 25)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: 25 of 25 steps unguarded")
    assert log.meta["algorithm"] == "orca-to-goal"
