"""Tests for file formats, normalization, scaling, and synthetic shapes."""

import json
import struct

import numpy as np
import pytest

from swarmflow.dataio import (
    NormalizationTransform,
    SceneScale,
    load_checkpoint,
    load_pointcloud,
    load_trajectory_csv,
    make_synthetic_dataset,
    normalize_cloud,
    parse_config_file,
    save_checkpoint,
    save_pointcloud,
    save_trajectory_csv,
    to_real_scale,
)
from swarmflow.metrics import collision_rates
from swarmflow.models import Checkpoint, ModelConfig, build_models
from swarmflow.sampling import TrajectoryLog

SMALL = ModelConfig(latent_dim=4, field_hidden=8, field_blocks=2,
                    encoder_widths=(8, 16), coupling_layers=2,
                    coupling_hidden=4)


def _euler_log(rng, steps=6, agents=4, meta=None):
    times = 1.0 - np.arange(steps + 1) / steps
    dt = float(times[0] - times[1])
    velocities = rng.standard_normal((steps, agents, 3))
    positions = [rng.standard_normal((agents, 3))]
    for k in range(steps):
        positions.append(positions[-1] + dt * velocities[k])
    return TrajectoryLog(times=times, positions=np.asarray(positions),
                         applied_velocities=velocities,
                         meta=meta if meta is not None else {})


def test_pointcloud_roundtrip_is_exact(tmp_path):
    cloud = np.array([
        [1.0 / 3.0, -2.0 / 7.0, 1e-300],
        [np.pi, -np.e, 1e17],
        [0.1 + 0.2, -0.0, 5.0],
    ])
    path = tmp_path / "cloud.xyz"
    save_pointcloud(path, cloud)
    assert np.array_equal(load_pointcloud(path), cloud)


def test_pointcloud_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# header\n\n1 2 3\n  # indented comment\n4 5 6\n")
    cloud = load_pointcloud(path)
    assert np.array_equal(cloud, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_pointcloud_parse_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_pointcloud(path)
    path.write_text("1 2 three\n")
    with pytest.raises(ValueError, match="line 1"):
        load_pointcloud(path)
    path.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="no points"):
        load_pointcloud(path)


def test_save_pointcloud_validation(tmp_path):
    with pytest.raises(ValueError):
        save_pointcloud(tmp_path / "x.xyz", np.zeros((4, 2)))


def test_normalize_cloud_properties():
    rng = np.random.default_rng(0)
    cloud = rng.standard_normal((50, 3)) * np.array([3.0, 0.5, 1.0]) + 7.0
    normalized, transform = normalize_cloud(cloud)
    np.testing.assert_allclose(normalized.mean(axis=0), 0.0, atol=1e-12)
    assert normalized.std() == pytest.approx(1.0, abs=1e-12)
    # translation does not change the normalized shape
    shifted, _ = normalize_cloud(cloud + np.array([100.0, -40.0, 3.0]))
    np.testing.assert_allclose(shifted, normalized, atol=1e-9)
    # the transform inverts
    np.testing.assert_allclose(transform.invert(normalized), cloud, atol=1e-9)
    assert np.array_equal(transform.apply(cloud), normalized)


def test_normalize_cloud_validation():
    with pytest.raises(ValueError):
        normalize_cloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        normalize_cloud(np.ones((5, 3)))  # zero spread
    with pytest.raises(ValueError):
        normalize_cloud(np.zeros((5, 2)))


def test_scene_scale_defaults_give_kappa_006():
    scene = SceneScale()
    assert scene.factor == pytest.approx(200.0 / 6.0)
    assert scene.kappa_training == pytest.approx(0.06, abs=1e-15)
    with pytest.raises(ValueError):
        SceneScale(side=0.0)
    with pytest.raises(ValueError):
        SceneScale(kappa_real=-1.0)


def test_to_real_scale_keeps_euler_and_collision_rates():
    rng = np.random.default_rng(1)
    log = _euler_log(rng, meta={"scale": "training", "kappa": 0.06})
    scene = SceneScale()
    real = to_real_scale(log, scene)
    assert real.euler_consistent()
    assert np.array_equal(real.applied_velocities,
                          log.applied_velocities * scene.factor)
    assert np.array_equal(real.positions[0], log.positions[0] * scene.factor)
    assert np.array_equal(real.times, log.times)
    assert real.meta["scale"] == "real"
    assert real.meta["kappa"] == pytest.approx(2.0, abs=1e-12)
    # the safety verdict is scale-invariant
    assert collision_rates(real, scene.kappa_real) == \
        collision_rates(log, scene.kappa_training)
    with pytest.raises(ValueError):
        to_real_scale(real, scene)


def test_synthetic_sphere_radius_and_determinism():
    clouds = make_synthetic_dataset("sphere", 64, count=3, seed=20)
    assert len(clouds) == 3
    for cloud in clouds:
        np.testing.assert_allclose(np.linalg.norm(cloud, axis=1), 1.0,
                                   atol=1e-9)
    again = make_synthetic_dataset("sphere", 64, count=3, seed=20)
    for first, second in zip(clouds, again):
        assert np.array_equal(first, second)
    other = make_synthetic_dataset("sphere", 64, count=1, seed=21)
    assert not np.array_equal(clouds[0], other[0])


def test_synthetic_torus_tube_radius():
    (cloud,) = make_synthetic_dataset("torus", 200, seed=3)
    ring = np.hypot(cloud[:, 0], cloud[:, 1]) - 1.0
    tube = np.hypot(ring, cloud[:, 2])
    np.testing.assert_allclose(tube, 0.4, atol=1e-9)


def test_synthetic_helix_lies_on_cylinder():
    (cloud,) = make_synthetic_dataset("helix", 100, seed=4)
    np.testing.assert_allclose(np.hypot(cloud[:, 0], cloud[:, 1]), 1.0,
                               atol=1e-9)
    assert cloud[:, 2].min() >= -1.0 and cloud[:, 2].max() <= 1.0
    assert np.all(np.diff(cloud[:, 2]) >= 0.0)


def test_synthetic_plane_fills_both_boxes():
    (cloud,) = make_synthetic_dataset("plane", 400, seed=5)
    in_fuselage = (np.abs(cloud[:, 0]) <= 1.0) & \
        (np.abs(cloud[:, 1]) <= 0.15) & (np.abs(cloud[:, 2]) <= 0.15)
    in_wing = (np.abs(cloud[:, 0]) <= 0.25) & \
        (np.abs(cloud[:, 1]) <= 1.0) & (np.abs(cloud[:, 2]) <= 0.04)
    assert np.all(in_fuselage | in_wing)
    assert np.count_nonzero(~in_fuselage) > 0  # wing-only points exist
    assert np.count_nonzero(~in_wing) > 0  # fuselage-only points exist


def test_synthetic_validation():
    with pytest.raises(ValueError):
        make_synthetic_dataset("cube", 10)
    with pytest.raises(ValueError):
        make_synthetic_dataset("sphere", 0)


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(6)
    models = build_models(SMALL, rng)
    params = models.state_dict()
    opt_m = {name: rng.standard_normal(arr.shape) for name, arr in params.items()}
    opt_v = {name: rng.uniform(0.0, 1.0, arr.shape) for name, arr in params.items()}
    ckpt = Checkpoint(algorithm="flow", model_config=SMALL,
                      train_config={"learning_rate": 1e-3, "epochs": 5},
                      params=params, opt_m=opt_m, opt_v=opt_v,
                      opt_step=7, step_count=5, final_loss=1.25)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.algorithm == "flow"
    assert loaded.model_config == SMALL
    assert loaded.train_config == ckpt.train_config
    assert loaded.opt_step == 7
    assert loaded.step_count == 5
    assert loaded.final_loss == 1.25
    assert set(loaded.params) == set(params)
    for name in params:
        assert np.array_equal(loaded.params[name], params[name])
        assert np.array_equal(loaded.opt_m[name], opt_m[name])
        assert np.array_equal(loaded.opt_v[name], opt_v[name])
    # saving the loaded checkpoint reproduces the file byte for byte
    second = tmp_path / "model2.ckpt"
    save_checkpoint(second, loaded)
    assert second.read_bytes() == path.read_bytes()


def test_checkpoint_corruption_errors(tmp_path):
    rng = np.random.default_rng(7)
    models = build_models(SMALL, rng)
    ckpt = Checkpoint(algorithm="flow", model_config=SMALL, train_config={},
                      params=models.state_dict())
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"NOTCKPT!" + raw[8:])
    with pytest.raises(ValueError, match="bad magic"):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "bad_version.ckpt"
    bad_version.write_bytes(raw[:8] + b"\x63\x00\x00\x00" + raw[12:])
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(bad_version)

    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(truncated)

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(trailing)

    header_len = struct.unpack("<Q", raw[12:20])[0]
    header = json.loads(raw[20:20 + header_len])
    header["tensors"][0]["section"] = "bogus"
    text = json.dumps(header).encode("utf-8")
    unknown = tmp_path / "unknown_section.ckpt"
    unknown.write_bytes(raw[:12] + struct.pack("<Q", len(text)) + text
                        + raw[20 + header_len:])
    with pytest.raises(ValueError, match="section"):
        load_checkpoint(unknown)

    huge = tmp_path / "huge_header.ckpt"
    huge.write_bytes(raw[:12] + struct.pack("<Q", 2**62) + raw[20:])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(huge)

    # a header that parses but holds the wrong content: one-line
    # ValueErrors naming the file, not KeyError or TypeError
    def rewritten(name, mutate):
        changed = json.loads(raw[20:20 + header_len])
        mutate(changed)
        text = json.dumps(changed).encode("utf-8")
        bad = tmp_path / f"{name}.ckpt"
        bad.write_bytes(raw[:12] + struct.pack("<Q", len(text)) + text
                        + raw[20 + header_len:])
        return bad

    def widen(h):
        h["model_config"]["bogus_width"] = 3

    def negative(h):
        h["tensors"][0]["shape"] = [-1, 4]

    cases = {
        "no_algorithm": (lambda h: h.pop("algorithm"), "algorithm"),
        "no_section": (lambda h: h["tensors"][0].pop("section"), "section"),
        "config_key": (widen, "model_config"),
        "string_tensors": (lambda h: h.update(tensors="w"), "tensors"),
        "negative_shape": (negative, "shape"),
    }
    for name, (mutate, word) in cases.items():
        bad = rewritten(name, mutate)
        with pytest.raises(ValueError, match=word) as info:
            load_checkpoint(bad)
        assert str(bad) in str(info.value) and "\n" not in str(info.value)

    # every proper prefix of a small checkpoint (all three sections, a 0-d
    # tensor) is rejected with a ValueError, wherever the cut falls
    small = Checkpoint(algorithm="flow", model_config=SMALL, train_config={},
                       params={"w": np.arange(6.0).reshape(2, 3),
                               "s": np.array(0.5)},
                       opt_m={"w": np.ones((2, 3)), "s": np.array(0.1)},
                       opt_v={"w": np.ones((2, 3)), "s": np.array(0.2)},
                       opt_step=1, step_count=1, final_loss=0.25)
    save_checkpoint(path, small)
    raw = path.read_bytes()
    prefix = tmp_path / "prefix.ckpt"
    for cut in range(len(raw)):
        prefix.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            load_checkpoint(prefix)


def test_trajectory_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    meta = {"algorithm": "flow+orca", "seed": 3, "kappa": 0.06,
            "scale": "training"}
    log = _euler_log(rng, steps=5, agents=3, meta=meta)
    path = tmp_path / "run.csv"
    save_trajectory_csv(path, log)
    loaded = load_trajectory_csv(path)
    assert np.array_equal(loaded.times, log.times)
    assert np.array_equal(loaded.positions, log.positions)
    assert np.array_equal(loaded.applied_velocities, log.applied_velocities)
    assert loaded.preferred_velocities is None
    assert loaded.meta == meta
    assert loaded.euler_consistent()
    # a second save of the loaded log is byte-identical
    second = tmp_path / "run2.csv"
    save_trajectory_csv(second, loaded)
    assert second.read_bytes() == path.read_bytes()
    assert (tmp_path / "run2.csv.meta.json").read_bytes() == \
        (tmp_path / "run.csv.meta.json").read_bytes()


def test_trajectory_csv_missing_sidecar_gives_empty_meta(tmp_path):
    rng = np.random.default_rng(9)
    log = _euler_log(rng, steps=3, agents=2)
    path = tmp_path / "run.csv"
    save_trajectory_csv(path, log)
    (tmp_path / "run.csv.meta.json").unlink()
    assert load_trajectory_csv(path).meta == {}


def test_trajectory_csv_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        load_trajectory_csv(path)
    path.write_text("t,agent,x,y,z,vx,vy,vz\n1.0,0,1,2,3,4,5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_trajectory_csv(path)
    path.write_text("t,agent,x,y,z,vx,vy,vz\n"
                    "1.0,0,1,2,3,4,5,6\n")
    with pytest.raises(ValueError, match="two frames"):
        load_trajectory_csv(path)
    path.write_text("t,agent,x,y,z,vx,vy,vz\n"
                    "1.0,0,1,2,3,4,5,6\n"
                    "1.0,1,1,2,3,4,5,6\n"
                    "0.5,0,1,2,3,4,5,6\n")
    with pytest.raises(ValueError, match="agent count"):
        load_trajectory_csv(path)
    path.write_text("t,agent,x,y,z,vx,vy,vz\n"
                    "1.0,0,1,2,3,4,5,6\n"
                    "1.0,0,7,8,9,4,5,6\n"
                    "0.5,0,1,2,3,4,5,6\n")
    with pytest.raises(ValueError, match="line 3: duplicate"):
        load_trajectory_csv(path)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# training setup\n"
        "epochs = 2000\n"
        "learning_rate = 1e-3\n"
        "use_orca = true\n"
        "shape = sphere\n"
        "encoder_widths = 64, 128, 256\n"
        "\n"
        "seed = 0\n")
    cfg = parse_config_file(path)
    assert cfg == {"epochs": 2000, "learning_rate": 1e-3, "use_orca": True,
                   "shape": "sphere", "encoder_widths": (64, 128, 256),
                   "seed": 0}
    path.write_text("no equals sign\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_file(path)
    path.write_text("key =\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_file(path)


def test_normalization_transform_apply_invert_are_inverse():
    transform = NormalizationTransform(centroid=np.array([1.0, -2.0, 3.0]),
                                       scale=2.5)
    rng = np.random.default_rng(10)
    cloud = rng.standard_normal((20, 3))
    np.testing.assert_allclose(transform.apply(transform.invert(cloud)),
                               cloud, atol=1e-12)
