"""Tests for file formats, normalization, scaling, and synthetic shapes."""

import io
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from swarmflow import dataio
from swarmflow.dataio import (
    _FMT,
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
from swarmflow.flowmatch import TrainConfig
from swarmflow.metrics import collision_rates
from swarmflow.models import Checkpoint, ModelConfig, build_models
from swarmflow.sampling import TrajectoryLog

SMALL = ModelConfig(latent_dim=4, field_hidden=8, field_blocks=2,
                    encoder_widths=(8, 16), coupling_layers=2,
                    coupling_hidden=4)


def _small_checkpoint(s=0.5, final_loss=0.25):
    """A two-tensor checkpoint whose ``s`` is 0-d."""
    return Checkpoint(algorithm="flow", model_config=SMALL,
                      train_config=asdict(TrainConfig()),
                      params={"w": np.arange(24.0).reshape(4, 6),
                              "s": np.array(s)},
                      step_count=1, final_loss=final_loss)


def _euler_log(rng, steps=6, agents=4, meta=None, spread=1.0):
    times = 1.0 - np.arange(steps + 1) / steps
    dt = float(times[0] - times[1])
    velocities = rng.standard_normal((steps, agents, 3)) * spread
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
    path.write_bytes(b"1 2 3\n\n4 5 \xff\n")
    with pytest.raises(ValueError, match="line 3: not UTF-8") as info:
        load_pointcloud(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("kind", ["csv", "xyz"])
def test_readers_reject_nan_and_inf(tmp_path, kind, token):
    if kind == "csv":
        path = tmp_path / "run.csv"
        path.write_text("t,agent,x,y,z,vx,vy,vz\n1,0,0,0,0,0,0,0\n\n"
                        f"0.5,0,0,0,0,0,{token},0\n")
        reader, line = load_trajectory_csv, 4
    else:
        path = tmp_path / "cloud.xyz"
        path.write_text(f"# x y z\n1 2 3\n{token} 1 2\n")
        reader, line = load_pointcloud, 3
    with pytest.raises(ValueError, match=f"line {line}: NaN or inf") as info:
        reader(path)
    assert str(path) in str(info.value) and "\n" not in str(info.value)


# written by the per-row writers that np.savetxt replaced
RECORDED_CSV = """\
t,agent,x,y,z,vx,vy,vz
1,0,0,0,0,1e-300,-0,7
1,1,0,0,0,0,0,0
1,2,0,0,0,0,0,0
1,3,0,0,0,0,0,0
1,4,0,0,0,0,0,0
1,5,0,0,0,0,0,0
1,6,0,0,0,0,0,0
1,7,0,0,0,0,0,0
1,8,0,0,0,0,0,0
1,9,0,0,0,0,0,0
1,10,0.33333333333333331,-0,1e-300,-0.33333333333333331,1e+17,0.25
0.33333333333333331,0,0,0,0,0,0,0
0.33333333333333331,1,0,0,0,0,0,0
0.33333333333333331,2,0,0,0,0,0,0
0.33333333333333331,3,0,0,0,0,0,0
0.33333333333333331,4,0,0,0,0,0,0
0.33333333333333331,5,0,0,0,0,0,0
0.33333333333333331,6,0,0,0,0,0,0
0.33333333333333331,7,0,0,0,0,0,0
0.33333333333333331,8,0,0,0,0,0,0
0.33333333333333331,9,0,0,0,0,0,0
0.33333333333333331,10,1e+17,-2.5,0.10000000000000001,0,0,0
"""
RECORDED_XYZ = """\
# x y z
0.33333333333333331 -0 1e-300
1e+17 -2.5 0.10000000000000001
"""


def test_writers_reproduce_recorded_bytes(tmp_path):
    positions = np.zeros((2, 11, 3))
    positions[0, 10] = [1 / 3, -0.0, 1e-300]
    positions[1, 10] = [1e17, -2.5, 0.1]
    velocities = np.zeros((1, 11, 3))
    velocities[0, 0] = [1e-300, -0.0, 7.0]
    velocities[0, 10] = [-1 / 3, 1e17, 0.25]
    log = TrajectoryLog(times=np.array([1.0, 1 / 3]), positions=positions,
                        applied_velocities=velocities,
                        meta={"scale": "training", "kappa": 0.06})
    save_trajectory_csv(tmp_path / "run.csv", log)
    assert (tmp_path / "run.csv").read_bytes() == RECORDED_CSV.encode()
    assert (tmp_path / "run.csv.meta.json").read_bytes() == \
        b'{\n  "kappa": 0.06,\n  "scale": "training"\n}\n'
    save_pointcloud(tmp_path / "cloud.xyz", positions[:, 10])
    assert (tmp_path / "cloud.xyz").read_bytes() == RECORDED_XYZ.encode()
    save_pointcloud(tmp_path / "empty.xyz", np.zeros((0, 3)))
    assert (tmp_path / "empty.xyz").read_bytes() == b"# x y z\n"


def test_save_pointcloud_validation(tmp_path):
    with pytest.raises(ValueError):
        save_pointcloud(tmp_path / "x.xyz", np.zeros((4, 2)))


@pytest.mark.parametrize("writer", ["xyz", "ckpt", "csv"])
def test_writers_replace_a_linked_target(tmp_path, linked_targets, writer):
    # every writer creates a new file: a linked target is replaced, and
    # the file it linked to keeps its bytes
    log = _euler_log(np.random.default_rng(14), steps=3, agents=5,
                     meta={"kappa": 0.06})
    save, names = {
        "xyz": (lambda p: save_pointcloud(p, log.final_cloud()), ["a.xyz"]),
        "ckpt": (lambda p: save_checkpoint(p, _small_checkpoint()),
                 ["a.ckpt"]),
        "csv": (lambda p: save_trajectory_csv(p, log),
                ["a.csv", "a.csv.meta.json"]),
    }[writer]
    fresh, linked = tmp_path / "fresh", tmp_path / "linked"
    fresh.mkdir()
    linked.mkdir()
    save(fresh / names[0])
    check = linked_targets(*(linked / name for name in names))
    save(linked / names[0])
    check()
    for name in names:
        assert (linked / name).read_bytes() == (fresh / name).read_bytes()


def test_trajectory_csv_bad_meta_writes_nothing(tmp_path):
    log = _euler_log(np.random.default_rng(15), steps=2, agents=2,
                     meta={"a": 1, "seed": np.int64(3)})
    path = tmp_path / "run.csv"
    with pytest.raises(TypeError):
        save_trajectory_csv(path, log)
    assert not path.exists()
    assert not (tmp_path / "run.csv.meta.json").exists()


def test_trajectory_csv_is_the_savetxt_bytes(tmp_path):
    # the frame-at-a-time writer gives exactly what np.savetxt wrote, also
    # for a log without agents (the header alone)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    specials = st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e17, 1 / 3])
    floats = (st.floats(allow_nan=False, allow_infinity=False) | specials
              | st.sampled_from([1e308, -1e308]))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(0, 40), st.integers(1, 5), st.data())
    def check(m, s, data):
        # strictly decreasing, with every gap finite
        times = np.sort(data.draw(hnp.arrays(
            np.float64, s + 1, elements=st.floats(-1e300, 1e300) | specials,
            unique=True)))[::-1]
        positions = data.draw(hnp.arrays(np.float64, (s + 1, m, 3),
                                         elements=floats))
        velocities = data.draw(hnp.arrays(np.float64, (s, m, 3),
                                          elements=floats))
        log = TrajectoryLog(times=times, positions=positions,
                            applied_velocities=velocities, meta={})
        path = tmp_path / "run.csv"
        save_trajectory_csv(path, log)
        table = np.column_stack([
            np.repeat(times, m), np.tile(np.arange(m), s + 1),
            positions.reshape(-1, 3),
            np.concatenate([velocities, np.zeros((1, m, 3))]).reshape(-1, 3)])
        fh = io.StringIO()
        np.savetxt(fh, table, fmt=[_FMT, "%d"] + [_FMT] * 6, delimiter=",",
                   header="t,agent,x,y,z,vx,vy,vz", comments="")
        assert path.read_bytes() == fh.getvalue().encode()

    check()


def test_normalize_cloud_properties():
    rng = np.random.default_rng(0)
    cloud = rng.standard_normal((50, 3)) * np.array([3.0, 0.5, 1.0]) + 7.0
    normalized, transform = normalize_cloud(cloud)
    np.testing.assert_allclose(normalized.mean(axis=0), 0.0, atol=1e-12)
    assert normalized.std() == pytest.approx(1.0, abs=1e-12)
    # translation does not change the normalized shape
    shifted, _ = normalize_cloud(cloud + np.array([100.0, -40.0, 3.0]))
    np.testing.assert_allclose(shifted, normalized, atol=1e-9)
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
    assert 2.0 / scene.factor == pytest.approx(0.06, abs=1e-15)
    for bad in (0.0, -1.0, np.nan, np.inf, "200", True):
        with pytest.raises(ValueError, match="side must be finite and pos"):
            SceneScale(side=bad)


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
    assert collision_rates(real, 0.06 * scene.factor) == \
        collision_rates(log, 0.06)
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
    ckpt = Checkpoint(algorithm="flow", model_config=SMALL,
                      train_config={"learning_rate": 1e-3, "epochs": 5},
                      params=params, step_count=5, final_loss=1.25)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.algorithm == "flow"
    assert loaded.model_config == SMALL
    assert loaded.train_config == ckpt.train_config
    assert loaded.step_count == 5
    assert loaded.final_loss == 1.25
    assert list(loaded.params) == list(params)
    for name in params:
        assert np.array_equal(loaded.params[name], params[name])
    # saving the loaded checkpoint reproduces the file byte for byte
    second = tmp_path / "model2.ckpt"
    save_checkpoint(second, loaded)
    assert second.read_bytes() == path.read_bytes()


def test_checkpoint_holds_the_parameters_only(tmp_path):
    # the fixture's model: no optimizer moments or step ride along, so the
    # payload is the parameter buffer, 200,803 float64 values
    models = build_models(ModelConfig(latent_dim=16), np.random.default_rng(0))
    path = tmp_path / "checkpoint.swf"
    save_checkpoint(path, Checkpoint(
        algorithm="flow", model_config=models.config,
        train_config=asdict(TrainConfig()), params=models.state_dict()))
    raw = path.read_bytes()
    version, header_len = struct.unpack("<IQ", raw[8:20])
    assert version == 2
    header = json.loads(raw[20:20 + header_len])
    payload = len(raw) - 20 - header_len
    assert payload == 8 * models.values.size == 1_606_424
    assert raw[-payload:] == models.values.astype("<f8").tobytes()
    assert "opt_step" not in header
    assert [list(entry) for entry in header["tensors"]] == \
        [["name", "shape"]] * len(models.state_dict())


def test_checkpoint_version_1_is_refused(tmp_path):
    # the version-1 layout (optimizer sections after the parameters) has
    # no reader: one line naming the file and the version
    header = json.dumps({"opt_step": 1, "tensors": [
        {"name": "w", "section": "params", "shape": [2]},
        {"name": "w", "section": "opt_m", "shape": [2]}]}).encode("utf-8")
    path = tmp_path / "v1.swf"
    path.write_bytes(b"SWFLCKPT" + struct.pack("<IQ", 1, len(header))
                     + header + np.zeros(4).tobytes())
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: unsupported checkpoint version 1"


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

    def duplicate(h):
        # same payload size: the second tensor's shape, the first's name
        h["tensors"][1]["name"] = h["tensors"][0]["name"]

    def bool_shape(h):
        h["tensors"][0]["shape"] = [True] * len(h["tensors"][0]["shape"])

    cases = {
        "no_algorithm": (lambda h: h.pop("algorithm"), "algorithm"),
        "duplicate_name": (duplicate, "duplicate tensor name"),
        "bool_shape": (bool_shape, "shape"),
        "config_key": (widen, "model_config"),
        "string_tensors": (lambda h: h.update(tensors="w"), "tensors"),
        "negative_shape": (negative, "shape"),
        "float_latent": (lambda h: h["model_config"].update(latent_dim=4.5),
                         "latent_dim"),
        "string_widths": (lambda h: h["model_config"].update(
            encoder_widths="ab"), "encoder_widths"),
        "string_hidden": (lambda h: h["model_config"].update(
            field_hidden="8"), "field_hidden"),
        # JSON true and false read back as bools, which are ints
        "bool_step_count": (lambda h: h.update(step_count=True),
                            "'step_count' has the wrong type bool"),
        "bool_final_loss": (lambda h: h.update(final_loss=False),
                            "'final_loss' has the wrong type bool"),
        "negative_step_count": (lambda h: h.update(step_count=-1),
                                "'step_count' is negative"),
    }
    for name, (mutate, word) in cases.items():
        bad = rewritten(name, mutate)
        with pytest.raises(ValueError, match=word) as info:
            load_checkpoint(bad)
        assert str(bad) in str(info.value) and "\n" not in str(info.value)

    # a NaN or inf tensor value is rejected naming the tensor; a NaN
    # final_loss still loads
    for value in (np.nan, -np.inf):
        path.unlink()
        save_checkpoint(path, _small_checkpoint(s=value))
        with pytest.raises(ValueError, match="tensor 's' holds NaN") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
    path.unlink()
    save_checkpoint(path, _small_checkpoint(final_loss=float("nan")))
    assert math.isnan(load_checkpoint(path).final_loss)

    # every proper prefix of a small checkpoint is rejected with a
    # ValueError, wherever the cut falls; each prefix is a new file, as in
    # the mutated-bytes test
    path.unlink()
    save_checkpoint(path, _small_checkpoint())
    raw = path.read_bytes()
    prefix = tmp_path / "prefix.ckpt"
    for cut in range(len(raw)):
        prefix.unlink(missing_ok=True)
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


def test_trajectory_csv_skips_comments_and_blank_lines(tmp_path):
    log = _euler_log(np.random.default_rng(11), steps=2, agents=2)
    path = tmp_path / "run.csv"
    save_trajectory_csv(path, log)
    lines = path.read_text().splitlines()
    lines[2:2] = ["# a comment", "", "   # indented"]
    path.write_text("\n".join(lines) + "\n\n")
    loaded = load_trajectory_csv(path)
    assert np.array_equal(loaded.positions, log.positions)
    assert np.array_equal(loaded.applied_velocities, log.applied_velocities)


def test_trajectory_csv_sidecar_must_be_a_json_object(tmp_path):
    log = _euler_log(np.random.default_rng(12), steps=2, agents=2)
    path = tmp_path / "run.csv"
    save_trajectory_csv(path, log)
    sidecar = tmp_path / "run.csv.meta.json"
    cases = [(b"[1]", "not a JSON object"), (b'"flow"', "not a JSON object"),
             (b"{", "bad metadata sidecar"), (b"{}\n{}", "bad metadata"),
             (b"\xff", "bad metadata sidecar")]
    # a stored kappa is a finite real number, never coerced
    cases += [(b'{"kappa": %s}' % raw, "kappa must be a finite number")
              for raw in (b'"0.1"', b"true", b"[0.1]", b"NaN", b"null")]
    for raw, words in cases:
        sidecar.write_bytes(raw)
        with pytest.raises(ValueError, match=words) as info:
            load_trajectory_csv(path)
        assert str(sidecar) in str(info.value) and "\n" not in str(info.value)
    sidecar.write_bytes(b'{"kappa": 1}')
    assert load_trajectory_csv(path).meta == {"kappa": 1}


def test_trajectory_csv_sidecar_is_utf8_whatever_the_locale(tmp_path):
    log = _euler_log(np.random.default_rng(13), steps=2, agents=2)
    path = tmp_path / "run.csv"
    save_trajectory_csv(path, log)
    (tmp_path / "run.csv.meta.json").write_bytes(
        '{"note": "caf\u00e9"}'.encode("utf-8"))
    # a C locale with neither coercion nor UTF-8 mode decodes text as
    # ASCII unless the reader names its encoding
    src = str(Path(dataio.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from swarmflow.dataio import load_trajectory_csv; "
            "print(ascii(load_trajectory_csv(sys.argv[1]).meta))")
    run = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "{'note': 'caf\\xe9'}\n"


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
    # only the frame-major layout save_trajectory_csv writes is accepted
    path.write_text("t,agent,x,y,z,vx,vy,vz\n"
                    "1.0,1,1,2,3,4,5,6\n"
                    "1.0,0,1,2,3,4,5,6\n"
                    "0.5,0,1,2,3,4,5,6\n"
                    "0.5,1,1,2,3,4,5,6\n")
    with pytest.raises(ValueError, match="line 2: duplicate or out-of-order"):
        load_trajectory_csv(path)
    path.write_text("t,agent,x,y,z,vx,vy,vz\n"
                    "1.0,0,1,2,3,4,5,6\n"
                    "1.0,1,1,2,3,4,5,6\n"
                    "0.5,0,1,2,3,4,5,6\n"
                    "0.4,1,1,2,3,4,5,6\n")
    with pytest.raises(ValueError, match="agent count"):
        load_trajectory_csv(path)
    path.write_text("t,agent,x,y,z,vx,vy,vz\n"
                    "0.5,0,1,2,3,4,5,6\n"
                    "1.0,0,1,2,3,4,5,6\n")
    with pytest.raises(ValueError, match="strictly decrease") as info:
        load_trajectory_csv(path)
    assert str(path) in str(info.value)


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
    for text, line in (("seed = 1\nkappa = nan\n", 2),
                       ("learning_rate = inf\n", 1),
                       ("# big\n\nkappa = 1e999\n", 3)):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}: non-finite"):
            parse_config_file(path)
    path.write_bytes(b"seed = 1\nshape = sph\xe9re\n")
    with pytest.raises(ValueError, match="line 2: not UTF-8") as info:
        parse_config_file(path)
    assert str(path) in str(info.value)


_CHUNKS = [b"nan", b"inf", b"-", b".", b"e", b"e9", b"1e999", b"0", b"7",
           b",", b" ", b"\n", b"#", b"=", b"\xff", b"\x00"]


def _edits(st, size, chunks=_CHUNKS):
    """Hypothesis strategy: one to four cut/replace/insert/delete edits."""
    chunk = st.sampled_from(chunks) | st.binary(min_size=1, max_size=3)
    edit = st.tuples(st.sampled_from(["cut", "replace", "insert", "delete"]),
                     st.integers(0, size), chunk)
    return st.lists(edit, min_size=1, max_size=4)


def _apply_edits(raw, edits):
    data = bytearray(raw)
    for op, pos, chunk in edits:
        if op == "cut":
            del data[pos:]
        elif op == "replace":
            data[pos:pos + len(chunk)] = chunk
        elif op == "insert":
            data[pos:pos] = chunk
        else:
            del data[pos:pos + len(chunk)]
    return bytes(data)


def _check_csv(log):
    for arr in (log.times, log.positions, log.applied_velocities):
        assert np.all(np.isfinite(arr))
    assert isinstance(log.meta, dict)


def _check_xyz(cloud):
    assert cloud.ndim == 2 and cloud.shape[1] == 3 and len(cloud)
    assert np.all(np.isfinite(cloud))


def _check_cfg(cfg):
    for key, value in cfg.items():
        assert isinstance(key, str) and key
        assert isinstance(value, (bool, int, float, tuple, str))
        assert not isinstance(value, float) or math.isfinite(value)


def _check_ckpt(ckpt):
    assert isinstance(ckpt, Checkpoint)
    for arr in ckpt.params.values():
        assert np.all(np.isfinite(arr))


@pytest.mark.parametrize("kind", ["csv", "xyz", "cfg", "ckpt"])
def test_readers_raise_only_value_error_on_mutated_bytes(tmp_path, kind):
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / f"input.{kind}"
    if kind == "csv":
        log = _euler_log(np.random.default_rng(13), steps=2, agents=2,
                         meta={"kappa": 0.06})
        save_trajectory_csv(path, log)
        reader, check_result = load_trajectory_csv, _check_csv
    elif kind == "xyz":
        save_pointcloud(path, [[1.5, -2.0, 0.25], [3.0, 1e-3, -4.0]])
        reader, check_result = load_pointcloud, _check_xyz
    elif kind == "ckpt":
        save_checkpoint(path, _small_checkpoint())
        reader, check_result = load_checkpoint, _check_ckpt
    else:
        path.write_text("# run\nepochs = 20\nlearning_rate = 1e-3\n"
                        "encoder_widths = 8, 16\nuse_orca = true\n")
        reader, check_result = parse_config_file, _check_cfg
    raw = path.read_bytes()
    seen = {"rejected": 0, "loaded": 0}

    @hypothesis.settings(max_examples=1000, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(_edits(hypothesis.strategies, len(raw)))
    def check(edits):
        # a new file each time: rewriting one in place makes some file
        # systems flush the old blocks on close, tens of milliseconds a write
        path.unlink()
        path.write_bytes(_apply_edits(raw, edits))
        try:
            result = reader(path)
        except ValueError as err:
            assert "\n" not in str(err) and str(path) in str(err)
            seen["rejected"] += 1
            return
        check_result(result)
        seen["loaded"] += 1

    check()
    assert seen["rejected"] >= 10 and seen["loaded"] >= 10, seen


def test_real_scale_csv_round_trip_keeps_euler_and_bytes(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(1, 8), st.integers(1, 12),
                      st.integers(0, 2**32 - 1), st.floats(1.0, 1e3),
                      st.floats(1e-3, 1e3))
    def check(steps, agents, seed, side, spread):
        log = _euler_log(np.random.default_rng(seed), steps, agents,
                         meta={"scale": "training", "kappa": 0.06},
                         spread=spread)
        real = to_real_scale(log, SceneScale(side=side))
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        for name in ("first.csv", "second.csv", "first.csv.meta.json",
                     "second.csv.meta.json"):  # new files, as above
            (tmp_path / name).unlink(missing_ok=True)
        save_trajectory_csv(first, real)
        loaded = load_trajectory_csv(first)
        assert loaded.euler_consistent()
        assert np.array_equal(loaded.times, real.times)
        assert np.array_equal(loaded.positions, real.positions)
        assert np.array_equal(loaded.applied_velocities,
                              real.applied_velocities)
        assert loaded.meta == real.meta
        save_trajectory_csv(second, loaded)
        assert second.read_bytes() == first.read_bytes()
        assert (tmp_path / "second.csv.meta.json").read_bytes() == \
            (tmp_path / "first.csv.meta.json").read_bytes()

    check()


def _read_outcome(path):
    """What ``load_trajectory_csv`` gives for ``path``: the bytes and
    shapes of the arrays plus the meta, or the text of its ValueError."""
    try:
        log = load_trajectory_csv(path)
    except ValueError as err:
        return str(err)
    return [(arr.shape, arr.tobytes()) for arr in
            (log.times, log.positions, log.applied_velocities)] + [log.meta]


def _line_reader_outcome(path):
    """The same, with the ``np.loadtxt`` path turned off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_writer_table", lambda path: None)
        return _read_outcome(path)


# chunks plus what the two parsers might read differently: line ends,
# whitespace that str.strip() and np.loadtxt strip but float() refuses,
# digit separators, non-ASCII digits and spaces, an upper-case exponent
_CSV_CHUNKS = _CHUNKS + [b"\r", b"\r\n", b"\t", b"\x0c", b"\x1c", b"\x1f",
                         b"_", b"+", b"E", "\u0661".encode(), "\xa0".encode()]


def test_trajectory_csv_reads_as_the_line_reader_on_mutated_bytes(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rng = np.random.default_rng(16)
    raws = []
    for steps, agents in ((1, 1), (2, 3), (3, 7)):
        path = tmp_path / f"w{steps}.csv"
        save_trajectory_csv(path, _euler_log(rng, steps, agents,
                                             meta={"kappa": 0.06}))
        raws.append(path.read_bytes())
    path = tmp_path / "input.csv"  # the CSV changes, its sidecar stays
    save_trajectory_csv(path, _euler_log(rng, 1, 1, meta={"kappa": 0.06}))
    writer_table = dataio._writer_table
    seen = {"fast": 0, "loaded": 0, "rejected": 0}

    def counted(path):
        table = writer_table(path)
        seen["fast"] += table is not None
        return table

    cases = st.sampled_from(raws).flatmap(
        lambda raw: st.tuples(st.just(raw), _edits(st, len(raw),
                                                   _CSV_CHUNKS)))

    @hypothesis.settings(max_examples=1000, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(cases)
    def check(case):
        raw, edits = case
        path.unlink()  # a new file each time, as above
        path.write_bytes(_apply_edits(raw, edits))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_writer_table", counted)
            got = _read_outcome(path)
        assert got == _line_reader_outcome(path)
        seen["rejected" if isinstance(got, str) else "loaded"] += 1

    check()
    assert min(seen.values()) >= 50, seen


def test_trajectory_csv_reads_as_the_line_reader_after_one_edit(tmp_path):
    # every chunk, inserted at or written over every offset of a small
    # writer file: the cases one random edit among several rarely hits
    path = tmp_path / "input.csv"
    save_trajectory_csv(path, _euler_log(np.random.default_rng(20), steps=1,
                                         agents=2))
    raw = path.read_bytes()
    for pos in range(len(raw)):
        for chunk in _CSV_CHUNKS:
            for op in ("insert", "replace"):
                path.unlink()
                path.write_bytes(_apply_edits(raw, [(op, pos, chunk)]))
                assert _read_outcome(path) == _line_reader_outcome(path), \
                    (op, pos, chunk)


def test_trajectory_csv_edge_cases_read_as_the_line_reader(tmp_path):
    log = _euler_log(np.random.default_rng(17), steps=2, agents=2)
    path = tmp_path / "run.csv"
    save_trajectory_csv(path, log)
    lines = path.read_text().splitlines(keepends=True)
    row = lines[3].split(",")  # line 4: frame 1, agent 0

    def load(*changed, text=None):
        if text is None:
            edited = list(lines)
            for k, line in changed:
                edited[k - 1] = line
            text = "".join(edited)
        path.unlink()
        path.write_bytes(text.encode())
        got = _read_outcome(path)
        assert got == _line_reader_outcome(path)
        return got

    same = load()
    assert same[1] == (log.positions.shape, log.positions.tobytes())
    # a lone CR does not end a line; CRLF does
    assert "line 3: expected 8 fields, got 15" in load(
        text="".join(lines[:2]) + lines[2][:-1] + "\r" + "".join(lines[3:]))
    assert load(text="".join(lines).replace("\n", "\r\n")) == same
    # comment and blank lines are skipped, and a later error names its
    # line in the file, not its row in the table
    for extra in ("\n", "# note\n", "\n\n"):
        assert load((2, extra + lines[1])) == same
        duplicate = ",".join(row[:1] + ["1"] + row[2:])
        line = 4 + extra.count("\n")
        assert load((2, extra + lines[1]), (4, duplicate)) == (
            f"{path}: line {line}: duplicate or out-of-order row for "
            f"t={float(row[0]):.17g}, agent 1")
        assert load((2, extra + lines[1]),
                    (4, ",".join(row[:3] + ["inf"] + row[4:]))) == (
            f"{path}: line {line}: NaN or inf")
    # fields the writer never writes are read as float() reads them
    for token, value in (("1_0", 10.0), ("\u0661", 1.0), ("\uff17", 7.0),
                         (" 2 ", 2.0)):
        got = load((4, ",".join(row[:2] + [token] + row[3:])))
        assert np.frombuffer(got[1][1])[6] == value  # frame 1, agent 0, x
    assert load(text=lines[0]) == f"{path}: need at least two frames"
    assert load(text=lines[0] + "\n\n") == f"{path}: need at least two frames"
    # nine fields a row, in 16 rows that np.loadtxt reads and that
    # regroup into nine 2-agent frames of eight with decreasing times
    table = np.zeros((16, 9))
    table[:, 0] = 100.0 - np.arange(16) // 2
    table[:, 1] = np.arange(16) % 2
    for (r, c), value in zip([(1, 7), (3, 5), (5, 3), (8, 8), (10, 6),
                              (12, 4), (14, 2)], [90, 80, 70, .5, .4, .3, .2]):
        table[r, c] = value
    text = lines[0] + "".join(",".join(f"{v:g}" for v in r) + "\n"
                              for r in table)
    assert load(text=text) == f"{path}: line 2: expected 8 fields, got 9"
    # an overflow in writer-shaped bytes is parsed, then worded by the
    # line reader
    assert load((4, ",".join(row[:3] + ["1e999"] + row[4:]))) == (
        f"{path}: line 4: NaN or inf")


def test_trajectory_csv_takes_the_loadtxt_path_on_writer_output(
        tmp_path, monkeypatch):
    # if every file fell back to the line reader, the speed-up would be
    # gone without any other test failing
    log = _euler_log(np.random.default_rng(18), steps=4, agents=6)
    path = tmp_path / "run.csv"
    save_trajectory_csv(path, log)

    def refuse(*args):
        raise AssertionError("the line reader ran")

    monkeypatch.setattr(dataio, "_read_rows", refuse)
    loaded = load_trajectory_csv(path)
    assert loaded.times.tobytes() == log.times.tobytes()
    assert loaded.positions.tobytes() == log.positions.tobytes()
    assert loaded.applied_velocities.tobytes() == \
        log.applied_velocities.tobytes()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count open files")
def test_readers_close_their_file_on_error(tmp_path):
    log = _euler_log(np.random.default_rng(19), steps=2, agents=2)
    save_trajectory_csv(tmp_path / "run.csv", log)
    good = (tmp_path / "run.csv").read_text()
    cases = [
        ("bad_header.csv", "t,agent\n1,0\n", load_trajectory_csv),
        ("short_row.csv", good + "0,0,1\n", load_trajectory_csv),
        ("comment.csv", good.replace("\n", "\n# note\n", 1) + "x\n",
         load_trajectory_csv),
        ("duplicate.csv", good.replace("\n1,1,", "\n1,0,"),
         load_trajectory_csv),
        ("not_utf8.csv", good + "\xff\n", load_trajectory_csv),
        ("short_row.xyz", "1 2 3\n4 5\n", load_pointcloud),
        ("not_utf8.xyz", "1 2 3\n\xff\n", load_pointcloud),
    ]
    for name, text, reader in cases:
        path = tmp_path / name
        path.write_bytes(text.encode("latin-1"))
        before = len(os.listdir("/proc/self/fd"))
        # the error stays alive in ``info`` while the files are counted
        with pytest.raises(ValueError, match=str(path)) as info:
            reader(path)
        assert len(os.listdir("/proc/self/fd")) == before, (name, info.value)
