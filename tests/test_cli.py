"""End-to-end tests of the command-line pipeline on a tiny setup."""

from dataclasses import fields

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from swarmflow.cli import _collect_trajectories, _split_config, main
from swarmflow.dataio import (SceneScale, load_checkpoint, load_pointcloud,
                              load_trajectory_csv, normalize_cloud,
                              save_checkpoint, to_real_scale)
from swarmflow.diffusion import DiffusionSchedule, ddpm_sample
from swarmflow.flowmatch import TrainConfig
from swarmflow.metrics import coverage_and_mmd
from swarmflow.models import ModelConfig, models_from_checkpoint

CONFIG_TEXT = (
    "latent_dim = 4\n"
    "field_hidden = 8\n"
    "field_blocks = 2\n"
    "encoder_widths = 8, 16\n"
    "coupling_layers = 2\n"
    "coupling_hidden = 4\n"
    "epochs = 30\n"
    "learning_rate = 1e-3\n"
    "seed = 0\n")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared tiny dataset, config, and trained checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["make-data", "--kind", "sphere", "--points", "64",
                 "--seed", "20", "--out", str(data)]) == 0
    config = root / "run.cfg"
    config.write_text(CONFIG_TEXT)
    flow_dir = root / "flow"
    assert main(["train", "--data", str(data), "--config", str(config),
                 "--out", str(flow_dir)]) == 0
    diff_dir = root / "diffusion"
    diff_config = root / "diffusion.cfg"
    diff_config.write_text(CONFIG_TEXT + "diffusion_steps = 20\n"
                           "beta_end = 0.2\n")
    assert main(["train", "--data", str(data), "--config", str(diff_config),
                 "--algorithm", "diffusion", "--epochs", "10",
                 "--out", str(diff_dir)]) == 0
    return {"root": root, "data": data, "config": config,
            "flow": flow_dir / "checkpoint.swf",
            "diffusion": diff_dir / "checkpoint.swf"}


def test_make_data_writes_loadable_clouds(pipeline):
    files = sorted(pipeline["data"].glob("*.xyz"))
    assert len(files) == 1
    cloud = load_pointcloud(files[0])
    assert cloud.shape == (64, 3)


def test_train_writes_checkpoint_and_log(pipeline):
    ckpt = load_checkpoint(pipeline["flow"])
    assert ckpt.algorithm == "flow"
    assert ckpt.step_count == 30
    assert np.isfinite(ckpt.final_loss)
    log_text = (pipeline["flow"].parent / "train.log").read_text()
    assert log_text.startswith("# step loss field kl")
    diff = load_checkpoint(pipeline["diffusion"])
    assert diff.algorithm == "diffusion"
    assert diff.step_count == 10  # --epochs override beats the config


def test_train_on_several_clouds_then_sample_and_evaluate(pipeline,
                                                          tmp_path):
    # an epoch is one step per cloud: three clouds for four epochs take
    # twelve steps, each logged
    data = tmp_path / "data"
    assert main(["make-data", "--kind", "sphere", "--points", "48",
                 "--count", "3", "--seed", "4", "--out", str(data)]) == 0
    epochs = 4
    assert main(["train", "--data", str(data), "--config",
                 str(pipeline["config"]), "--epochs", str(epochs),
                 "--out", str(tmp_path / "flow")]) == 0
    ckpt = load_checkpoint(tmp_path / "flow" / "checkpoint.swf")
    assert ckpt.step_count == 3 * epochs
    rows = np.loadtxt(tmp_path / "flow" / "train.log")
    assert rows.shape == (3 * epochs, 4)
    assert np.array_equal(rows[:, 0], np.arange(3 * epochs))
    run = tmp_path / "run"
    assert main(["sample", "--checkpoint",
                 str(tmp_path / "flow" / "checkpoint.swf"), "--agents", "48",
                 "--steps", "10", "--seed", "1", "--out", str(run)]) == 0
    assert main(["evaluate", "--trajectories", str(run), "--reference",
                 str(data), "--out", str(tmp_path / "metrics")]) == 0
    got = _read_keyvalues(tmp_path / "metrics" / "metrics.kv")
    assert np.isfinite(got["COV"]) and np.isfinite(got["MMD"])


def test_sample_and_evaluate_and_export(pipeline, capsys):
    run = pipeline["root"] / "run"
    assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                 "--agents", "24", "--steps", "10", "--seed", "1",
                 "--out", str(run)]) == 0
    log = load_trajectory_csv(run / "trajectory.csv")
    assert log.positions.shape == (11, 24, 3)
    assert log.meta["algorithm"] == "flow+orca"
    assert log.euler_consistent()

    assert main(["evaluate", "--trajectories", str(run),
                 "--reference", str(pipeline["data"])]) == 0
    text = capsys.readouterr().out
    for key in ("COV", "MMD", "FIN", "ACC", "JERK", "DIR", "DIST"):
        assert key in text

    out = pipeline["root"] / "metrics"
    assert main(["evaluate", "--trajectories", str(run / "trajectory.csv"),
                 "--kappa", "0.06", "--out", str(out)]) == 0
    assert (out / "metrics.txt").exists()
    keyvalues = (out / "metrics.kv").read_text()
    assert any(line.startswith("FIN = ") for line in keyvalues.splitlines())

    export = pipeline["root"] / "export"
    assert main(["export", "--trajectory", str(run / "trajectory.csv"),
                 "--out", str(export)]) == 0
    cloud = load_pointcloud(export / "final_cloud.xyz")
    assert np.array_equal(cloud, log.final_cloud())


def _read_keyvalues(path):
    pairs = (line.split(" = ") for line in path.read_text().splitlines())
    return {key: float(value) for key, value in pairs}


@pytest.mark.parametrize("scale", [None, 50.0])
def test_evaluate_scores_reference_in_training_space(pipeline, scale):
    # train normalises every cloud, so trajectories live in normalised
    # space: evaluate must score against the normalised reference (then
    # scaled with the trajectory under --scale), exactly as the library
    # does
    run = pipeline["root"] / "reference_run"
    if not (run / "trajectory.csv").exists():
        assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                     "--agents", "64", "--steps", "10", "--seed", "1",
                     "--out", str(run)]) == 0
    out = pipeline["root"] / f"reference_metrics_{scale}"
    argv = ["evaluate", "--trajectories", str(run / "trajectory.csv"),
            "--reference", str(pipeline["data"]), "--out", str(out)]
    if scale is not None:
        argv += ["--scale", str(scale)]
    assert main(argv) == 0
    got = _read_keyvalues(out / "metrics.kv")

    log = load_trajectory_csv(run / "trajectory.csv")
    reference = normalize_cloud(
        load_pointcloud(pipeline["data"] / "cloud_000.xyz"))[0]
    if scale is not None:
        scene = SceneScale(side=scale)
        log = to_real_scale(log, scene)
        reference = reference * scene.factor
    cov, mmd = coverage_and_mmd([log.final_cloud()], [reference])
    assert got["COV"] == cov
    assert got["MMD"] == mmd


def test_evaluate_scores_several_runs_against_several_references(pipeline):
    # three runs against three reference clouds: COV and MMD must be the
    # ones a dense-matrix chamfer oracle gives over the normalised clouds
    root = pipeline["root"] / "multi"
    refs = root / "refs"
    assert main(["make-data", "--kind", "torus", "--points", "48",
                 "--count", "3", "--seed", "5", "--out", str(refs)]) == 0
    runs = [root / f"r{seed}" for seed in (1, 2, 3)]
    for seed, run in zip((1, 2, 3), runs):
        assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                     "--agents", "24", "--steps", "10", "--seed", str(seed),
                     "--out", str(run)]) == 0
    out = root / "metrics"
    assert main(["evaluate", "--trajectories", *map(str, runs),
                 "--reference", str(refs), "--out", str(out)]) == 0
    got = _read_keyvalues(out / "metrics.kv")

    finals = [load_trajectory_csv(run / "trajectory.csv").final_cloud()
              for run in runs]
    ref_paths = sorted(refs.glob("*.xyz"))
    assert len(ref_paths) == 3
    references = [normalize_cloud(load_pointcloud(p))[0] for p in ref_paths]
    dist = np.empty((3, 3))
    for i, final in enumerate(finals):
        for j, reference in enumerate(references):
            sq = cdist(final, reference, metric="sqeuclidean")
            dist[i, j] = float(sq.min(axis=1).mean() + sq.min(axis=0).mean())
    matched = {int(np.argmin(row)) for row in dist}
    assert got["COV"] == len(matched) / 3
    assert got["MMD"] == float(dist.min(axis=0).mean())


def test_sample_reruns_are_byte_identical(pipeline):
    first = pipeline["root"] / "rerun_a"
    second = pipeline["root"] / "rerun_b"
    argv_tail = ["--checkpoint", str(pipeline["flow"]), "--agents", "16",
                 "--steps", "8", "--seed", "5"]
    assert main(["sample", *argv_tail, "--out", str(first)]) == 0
    assert main(["sample", *argv_tail, "--out", str(second)]) == 0
    assert (first / "trajectory.csv").read_bytes() == \
        (second / "trajectory.csv").read_bytes()


def test_train_reruns_are_byte_identical(pipeline):
    first = pipeline["root"] / "train_a"
    second = pipeline["root"] / "train_b"
    argv_tail = ["--data", str(pipeline["data"]), "--config",
                 str(pipeline["config"]), "--epochs", "10"]
    assert main(["train", *argv_tail, "--out", str(first)]) == 0
    assert main(["train", *argv_tail, "--out", str(second)]) == 0
    assert (first / "checkpoint.swf").read_bytes() == \
        (second / "checkpoint.swf").read_bytes()
    assert (first / "train.log").read_bytes() == \
        (second / "train.log").read_bytes()


def test_train_and_evaluate_replace_linked_outputs(pipeline, tmp_path,
                                                  linked_targets):
    # train.log, the checkpoint and the evaluate reports are new files:
    # a linked target is replaced, and the file it linked to keeps its bytes
    train = ["train", "--data", str(pipeline["data"]), "--config",
             str(pipeline["config"]), "--epochs", "10", "--out"]
    evaluate = ["evaluate", "--trajectories", str(tmp_path / "run"),
                "--kappa", "0.06", "--out"]
    assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                 "--agents", "8", "--steps", "4", "--out",
                 str(tmp_path / "run")]) == 0
    for argv, names in ((train, ["train.log", "checkpoint.swf"]),
                        (evaluate, ["metrics.txt", "metrics.kv"])):
        fresh, linked = tmp_path / f"fresh_{argv[0]}", tmp_path / argv[0]
        assert main([*argv, str(fresh)]) == 0
        linked.mkdir()
        check = linked_targets(*(linked / name for name in names))
        assert main([*argv, str(linked)]) == 0
        check()
        for name in names:
            assert (linked / name).read_bytes() == (fresh / name).read_bytes()


def test_no_orca_flag_switches_algorithm(pipeline):
    out = pipeline["root"] / "raw_field"
    assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                 "--agents", "8", "--steps", "5", "--no-orca",
                 "--out", str(out)]) == 0
    log = load_trajectory_csv(out / "trajectory.csv")
    assert log.meta["algorithm"] == "flow"


def test_scale_flag_writes_real_trajectory(pipeline):
    out = pipeline["root"] / "scaled"
    assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                 "--agents", "8", "--steps", "5", "--scale",
                 "--out", str(out)]) == 0
    real = load_trajectory_csv(out / "trajectory_real.csv")
    assert real.meta["scale"] == "real"
    assert real.meta["kappa"] == pytest.approx(2.0, abs=1e-9)
    assert real.euler_consistent()
    training = load_trajectory_csv(out / "trajectory.csv")
    np.testing.assert_allclose(real.positions[0],
                               training.positions[0] * (200.0 / 6.0),
                               atol=1e-12)


def test_evaluate_counts_a_scaled_run_once(pipeline, tmp_path, capsys):
    run = tmp_path / "scaled_run"
    assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                 "--agents", "8", "--steps", "5", "--scale",
                 "--out", str(run)]) == 0
    assert {p.name for p in run.glob("*.csv")} == {"trajectory.csv",
                                                   "trajectory_real.csv"}
    [log] = _collect_trajectories([run])
    assert log.meta.get("scale") != "real"
    for scale in ([], ["--scale"]):
        capsys.readouterr()
        assert main(["evaluate", "--trajectories", str(run), *scale]) == 0
        from_dir = capsys.readouterr().out
        assert main(["evaluate", "--trajectories",
                     str(run / "trajectory.csv"), *scale]) == 0
        assert from_dir == capsys.readouterr().out
    # a real-scale file without its training-scale twin is still read
    (run / "trajectory.csv").unlink()
    [log] = _collect_trajectories([run])
    assert log.meta["scale"] == "real"


def _scaled_run(pipeline):
    run = pipeline["root"] / "units_run"
    if not run.exists():
        assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                     "--agents", "8", "--steps", "5", "--scale",
                     "--out", str(run)]) == 0
    return run / "trajectory.csv", run / "trajectory_real.csv"


@pytest.mark.parametrize("argv, message", [
    # a 200 m file against the normalised reference
    (["evaluate", "--trajectories", "REAL", "--reference", "DATA"],
     "a trajectory is in meters; pass --scale SIDE"),
    # a 200 m file against a 100 m reference
    (["evaluate", "--trajectories", "REAL", "--reference", "DATA",
      "--scale", "100"], "trajectory is in real scale at factor "
                         "33.333333333333336, not 16.666666666666668"),
    # meters pooled with training units
    (["evaluate", "--trajectories", "TRAINING", "REAL", "--kappa", "0.06"],
     "a trajectory is in meters; pass --scale SIDE"),
    # a 200 m file exported as 100 m
    (["export", "--trajectory", "REAL", "--scale", "100"],
     "trajectory is in real scale at factor 33.333333333333336, not "
     "16.666666666666668"),
])
def test_evaluate_and_export_refuse_to_mix_units(pipeline, tmp_path, capsys,
                                                  argv, message):
    training, real = _scaled_run(pipeline)
    names = {"REAL": str(real), "TRAINING": str(training),
             "DATA": str(pipeline["data"])}
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([names.get(a, a) for a in argv] + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_evaluate_scale_scores_both_files_of_a_run_alike(pipeline, tmp_path,
                                                        capsys):
    training, real = _scaled_run(pipeline)
    reports = []
    for files in ([training, real], [training, training]):
        out = tmp_path / f"report-{len(reports)}"
        assert main(["evaluate", "--trajectories", *map(str, files),
                     "--reference", str(pipeline["data"]), "--scale",
                     "--out", str(out)]) == 0
        reports.append([(out / name).read_bytes()
                        for name in ("metrics.txt", "metrics.kv")])
    assert reports[0] == reports[1]
    # at its own scale a 200 m file exports as it is
    assert main(["export", "--trajectory", str(real), "--scale",
                 "--out", str(tmp_path / "export")]) == 0
    assert np.array_equal(load_pointcloud(tmp_path / "export/final_cloud.xyz"),
                          load_trajectory_csv(real).final_cloud())


def test_sample_diffusion_subcommand(pipeline):
    out = pipeline["root"] / "diffusion_run"
    assert main(["sample-diffusion", "--checkpoint", str(pipeline["diffusion"]),
                 "--agents", "8", "--seed", "2",
                 "--out", str(out)]) == 0
    log = load_trajectory_csv(out / "trajectory.csv")
    assert log.meta["algorithm"] == "diffusion"
    assert log.positions.shape == (21, 8, 3)
    assert log.euler_consistent()


def test_evaluate_reads_kappa_of_a_diffusion_run(pipeline, capsys):
    run = pipeline["root"] / "diffusion_kappa"
    assert main(["sample-diffusion", "--checkpoint", str(pipeline["diffusion"]),
                 "--agents", "6", "--kappa", "0.25", "--out", str(run)]) == 0
    assert load_trajectory_csv(run / "trajectory.csv").meta["kappa"] == 0.25
    capsys.readouterr()
    assert main(["evaluate", "--trajectories", str(run)]) == 0
    logged = capsys.readouterr().out
    assert main(["evaluate", "--trajectories", str(run),
                 "--kappa", "0.25"]) == 0
    assert "TRAJ" in logged and logged == capsys.readouterr().out
    default = pipeline["root"] / "diffusion_default_kappa"
    assert main(["sample-diffusion", "--checkpoint", str(pipeline["diffusion"]),
                 "--agents", "6", "--out", str(default)]) == 0
    meta = load_trajectory_csv(default / "trajectory.csv").meta
    assert meta["kappa"] == load_checkpoint(
        pipeline["diffusion"]).train_config["kappa"]
    assert main(["evaluate", "--trajectories", str(default)]) == 0


def test_sample_diffusion_runs_the_trained_chain(pipeline, tmp_path, capsys):
    ckpt = load_checkpoint(pipeline["diffusion"])
    sched = DiffusionSchedule.from_train_config(ckpt.train_config)
    assert sched == DiffusionSchedule(n_steps=20, beta_end=0.2)
    out = tmp_path / "chain"
    assert main(["sample-diffusion", "--checkpoint", str(pipeline["diffusion"]),
                 "--agents", "5", "--seed", "3", "--out", str(out)]) == 0
    want = ddpm_sample(models_from_checkpoint(ckpt), sched, 5,
                       np.random.default_rng(3))
    got = load_trajectory_csv(out / "trajectory.csv")
    assert np.array_equal(got.positions, want.positions)
    # the chain length is the checkpoint's: there is no --steps to set
    with pytest.raises(SystemExit) as info:
        main(["sample-diffusion", "--checkpoint", str(pipeline["diffusion"]),
              "--steps", "20", "--out", str(tmp_path / "short")])
    assert info.value.code == 2
    assert "unrecognized arguments: --steps 20" in capsys.readouterr().err
    assert not (tmp_path / "short").exists()


@pytest.mark.parametrize("stored, default_steps", [
    ({"diffusion_steps": "20"}, None),
    ({"beta_end": [0.2]}, None),
    ({"diffusion_steps": None, "beta_start": None, "beta_end": None}, 100),
])
def test_sample_diffusion_reads_the_stored_schedule(pipeline, tmp_path, capsys,
                                                    stored, default_steps):
    # a wrong-typed key is a one-line error; a checkpoint written without
    # the keys runs the default chain
    ckpt = load_checkpoint(pipeline["diffusion"])
    for key, value in stored.items():
        if value is None:
            del ckpt.train_config[key]
        else:
            ckpt.train_config[key] = value
    path = tmp_path / "edited.swf"
    save_checkpoint(path, ckpt)
    out = tmp_path / "run"
    code = main(["sample-diffusion", "--checkpoint", str(path),
                 "--agents", "3", "--out", str(out)])
    if default_steps is None:
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{path}: bad diffusion schedule" in err
    else:
        assert code == 0
        assert load_trajectory_csv(out / "trajectory.csv").num_steps == \
            default_steps


@pytest.mark.parametrize("stored", ["0.1", True, [0.1], -1.0, None])
def test_sample_reads_the_stored_kappa(pipeline, tmp_path, capsys, stored):
    # a stored kappa is used as is, never coerced; a bad one is a one-line
    # error naming the checkpoint, and a checkpoint without one runs at 0.06
    ckpt = load_checkpoint(pipeline["flow"])
    if stored is None:
        del ckpt.train_config["kappa"]
    else:
        ckpt.train_config["kappa"] = stored
    path = tmp_path / "edited.swf"
    save_checkpoint(path, ckpt)
    out = tmp_path / "run"
    code = main(["sample", "--checkpoint", str(path), "--agents", "3",
                 "--steps", "2", "--out", str(out)])
    if stored is None:
        assert code == 0
        assert load_trajectory_csv(out / "trajectory.csv").meta["kappa"] == \
            0.06
    else:
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{path}: bad stored kappa: kappa must be finite" in err
        assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    ("drop", "error: missing parameter 'field.b0.w' in state dict"),
    ("add", "error: unknown parameter 'bogus' in state dict"),
])
def test_sample_refuses_tensors_that_do_not_fit_the_model(
        pipeline, tmp_path, capsys, edit, message):
    ckpt = load_checkpoint(pipeline["flow"])
    if edit == "drop":
        del ckpt.params["field.b0.w"]
    else:
        ckpt.params["bogus"] = np.zeros(3)
    path = tmp_path / "edited.swf"
    save_checkpoint(path, ckpt)
    out = tmp_path / "run"
    assert main(["sample", "--checkpoint", str(path), "--agents", "3",
                 "--steps", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_sample_cfm_orca_subcommand(pipeline):
    out = pipeline["root"] / "goal_run"
    assert main(["sample-cfm-orca", "--checkpoint", str(pipeline["flow"]),
                 "--agents", "8", "--steps", "10", "--seed", "3",
                 "--out", str(out)]) == 0
    log = load_trajectory_csv(out / "trajectory.csv")
    assert log.meta["algorithm"] == "orca-to-goal"
    assert log.euler_consistent()


def test_only_runs_with_avoidance_warn_of_unguarded_steps(pipeline, capsys):
    # the tiny model moves its agents about 0.04 in all, far more than a
    # kappa of 1e-4 per step, so every one of its steps is unguarded
    args = ["--checkpoint", str(pipeline["flow"]), "--agents", "8",
            "--steps", "10", "--kappa", "1e-4"]
    for extra, warns in [([], True), (["--no-orca"], False)]:
        out = pipeline["root"] / f"unguarded-{warns}"
        assert main(["sample", *args, *extra, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: 10 of 10 steps unguarded ") == warns
        assert err.count("\n") == warns


def test_avoidance_separates_a_start_that_overlaps(pipeline, capsys):
    # at kappa 0.5 some of the 16 Gaussian start positions overlap, and
    # the tiny model moves its agents far less than kappa per step, so
    # every step is guarded: avoidance must push the pairs apart
    args = ["--checkpoint", str(pipeline["flow"]), "--agents", "16",
            "--steps", "10", "--seed", "1", "--kappa", "0.5"]
    logs, fin = [], []
    for extra in ([], ["--no-orca"]):
        out = pipeline["root"] / f"overlap{''.join(extra)}"
        capsys.readouterr()
        assert main(["sample", *args, *extra, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        logs.append(load_trajectory_csv(out / "trajectory.csv"))
        assert main(["evaluate", "--trajectories", str(out),
                     "--out", str(out / "metrics")]) == 0
        fin.append(_read_keyvalues(out / "metrics" / "metrics.kv")["FIN"])
    avoided, raw = logs
    start = cdist(raw.positions[0], raw.positions[0])
    assert np.any(start[np.triu_indices(16, 1)] < 0.5)
    assert np.array_equal(avoided.positions[0], raw.positions[0])
    assert not np.array_equal(avoided.positions, raw.positions)
    assert avoided.euler_consistent()
    assert fin[0] < fin[1]


@pytest.mark.parametrize("command, extra", [
    ("sample", ["--kappa", "inf"]),
    ("sample", ["--no-orca", "--kappa", "-1"]),
    ("sample", ["--kappa", "nan"]),
    ("sample-cfm-orca", ["--kappa", "0"]),
    ("sample-diffusion", ["--kappa", "inf"]),
])
def test_bad_kappa_fails_before_any_step(pipeline, capsys, command, extra):
    out = pipeline["root"] / "bad_kappa"
    diffusion = command == "sample-diffusion"
    ckpt = pipeline["diffusion" if diffusion else "flow"]
    steps = [] if diffusion else ["--steps", "5"]
    assert main([command, "--checkpoint", str(ckpt),
                 "--agents", "4", *steps, *extra,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "kappa must be finite and positive" in err
    assert "step" not in err
    assert not out.exists()


def test_algorithm_checkpoint_mismatch_is_an_error(pipeline, capsys):
    assert main(["sample-diffusion", "--checkpoint", str(pipeline["flow"]),
                 "--agents", "4",
                 "--out", str(pipeline["root"] / "x1")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["sample", "--checkpoint", str(pipeline["diffusion"]),
                 "--agents", "4", "--steps", "5",
                 "--out", str(pipeline["root"] / "x2")]) == 1
    assert "error:" in capsys.readouterr().err


def test_runtime_errors_exit_1(pipeline, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train", "--data", str(empty),
                 "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["sample", "--checkpoint", str(tmp_path / "missing.swf"),
                 "--out", str(tmp_path / "out2")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["evaluate", "--trajectories", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_keys_are_the_config_dataclass_fields(pipeline, tmp_path,
                                                     capsys):
    train = {f.name: f.default for f in fields(TrainConfig)}
    model = {f.name: f.default for f in fields(ModelConfig)}
    schedule = {"diffusion_steps": 7, "beta_start": 1e-3, "beta_end": 0.05}
    got = _split_config({**train, **model, **schedule,
                         "algorithm": "diffusion"})
    assert got == (train, model, {"n_steps": 7, "beta_start": 1e-3,
                                  "beta_end": 0.05}, "diffusion")
    assert DiffusionSchedule(**got[2]).n_steps == 7
    config = tmp_path / "bogus.cfg"
    config.write_text(CONFIG_TEXT + "bogus = 1\n")
    assert main(["train", "--data", str(pipeline["data"]), "--config",
                 str(config), "--out", str(tmp_path / "out")]) == 1
    assert "unknown config key 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("epochs = 2.5", "epochs must be a positive int, got 2.5"),
    ("seed = true", "seed must be a non-negative int, got True"),
    ("kappa = 0.06, 0.07", "kappa must be finite and positive"),
    ("learning_rate = fast", "learning_rate must be finite and positive"),
    ("kappa = -1", "kappa must be finite and positive, got -1"),
    ("lr_final_frac = -1", "unknown config key 'lr_final_frac'"),
    ("algorithm = diffusion\nsigma_min = 5",
     "unknown config key 'sigma_min'"),
    ("algorithm = diffusion\nbeta_start = abc",
     "beta_start must be a finite number, got 'abc'"),
    ("horizon = 2", "unknown config key 'horizon'"),
    ("batch_size = 2", "unknown config key 'batch_size'"),
])
def test_wrong_typed_train_setting_fails_before_training(pipeline, tmp_path,
                                                         capsys, line,
                                                         message):
    config = tmp_path / "typed.cfg"
    config.write_text(CONFIG_TEXT + line + "\n")
    out = tmp_path / "out"
    assert main(["train", "--data", str(pipeline["data"]), "--config",
                 str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not (out / "train.log").exists()


def test_sample_refuses_a_checkpoint_trained_on_another_time_span(
        pipeline, tmp_path, capsys):
    ckpt = load_checkpoint(pipeline["flow"])
    ckpt.train_config["horizon"] = 2.0
    path = tmp_path / "horizon2.swf"
    save_checkpoint(path, ckpt)
    out = tmp_path / "run"
    assert main(["sample", "--checkpoint", str(path), "--agents", "4",
                 "--steps", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "checkpoint was trained with horizon 2.0" in err
    assert not out.exists()


def test_sample_reads_a_checkpoint_that_records_a_batch_size(pipeline,
                                                             tmp_path):
    # older checkpoints record batch_size = 1 with the training settings
    ckpt = load_checkpoint(pipeline["flow"])
    ckpt.train_config["batch_size"] = 1
    path = tmp_path / "batch_size.swf"
    save_checkpoint(path, ckpt)
    argv = ["--agents", "4", "--steps", "5", "--seed", "2"]
    for checkpoint, out in ((path, "old"), (pipeline["flow"], "new")):
        assert main(["sample", "--checkpoint", str(checkpoint), *argv,
                     "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "old" / "trajectory.csv").read_bytes() == \
        (tmp_path / "new" / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("command, extra, message", [
    ("evaluate", ["--scale", "inf"], "scene side must be finite"),
    ("evaluate", ["--scale", "nan"], "scene side must be finite"),
    ("evaluate", ["--kappa", "inf"], "kappa must be finite and positive"),
    ("evaluate", ["--kappa", "-1"], "kappa must be finite and positive"),
    ("export", ["--scale", "inf"], "scene side must be finite"),
    ("sample", ["--scale", "inf"], "scene side must be finite"),
])
def test_non_finite_scale_or_kappa_is_an_error(pipeline, tmp_path, capsys,
                                               command, extra, message):
    run = pipeline["root"] / "finite_run"
    if not run.exists():
        assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                     "--agents", "4", "--steps", "5", "--out", str(run)]) == 0
    out = tmp_path / "out"
    argv = {"evaluate": ["--trajectories", str(run)],
            "export": ["--trajectory", str(run / "trajectory.csv"),
                       "--out", str(out)],
            "sample": ["--checkpoint", str(pipeline["flow"]), "--agents", "4",
                       "--steps", "5", "--out", str(out)]}[command]
    capsys.readouterr()
    assert main([command, *argv, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and message in captured.err
    assert "%" not in captured.out
    assert not out.exists()


def test_evaluate_needs_kappa_when_sidecars_disagree(pipeline, tmp_path,
                                                    capsys):
    runs = []
    for kappa in ("0.06", "5.0"):
        runs.append(str(tmp_path / kappa))
        assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                     "--agents", "6", "--steps", "4", "--kappa", kappa,
                     "--out", runs[-1]]) == 0
    capsys.readouterr()
    for order in (runs, runs[::-1]):
        for scale in ([], ["--scale"]):
            assert main(["evaluate", "--trajectories", *order, *scale]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "pass --kappa" in err
    assert main(["evaluate", "--trajectories", *runs, "--kappa", "0.1"]) == 0


def test_one_layer_encoder_from_a_config_file(pipeline, tmp_path):
    config = tmp_path / "one_layer.cfg"
    config.write_text(CONFIG_TEXT.replace("encoder_widths = 8, 16",
                                          "encoder_widths = 8"))
    assert main(["train", "--data", str(pipeline["data"]), "--config",
                 str(config), "--epochs", "2", "--out", str(tmp_path)]) == 0
    ckpt = load_checkpoint(tmp_path / "checkpoint.swf")
    assert ckpt.model_config.encoder_widths == (8,)


def test_missing_kappa_metadata_is_an_error(pipeline, capsys):
    run = pipeline["root"] / "no_meta"
    assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                 "--agents", "4", "--steps", "5", "--out", str(run)]) == 0
    (run / "trajectory.csv.meta.json").unlink()
    assert main(["evaluate", "--trajectories", str(run)]) == 1
    assert "kappa" in capsys.readouterr().err


def test_unknown_arguments_exit_2(pipeline):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--bogus-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["make-data", "--kind", "cube", "--out", "/tmp/x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_export_frames_flag(pipeline):
    run = pipeline["root"] / "frames_run"
    assert main(["sample", "--checkpoint", str(pipeline["flow"]),
                 "--agents", "4", "--steps", "6", "--out", str(run)]) == 0
    out = pipeline["root"] / "frames"
    assert main(["export", "--trajectory", str(run / "trajectory.csv"),
                 "--frames", "--out", str(out)]) == 0
    assert len(sorted(out.glob("frame_*.xyz"))) == 7
