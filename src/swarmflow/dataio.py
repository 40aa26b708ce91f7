"""File formats, normalization, scene scaling, and synthetic datasets.

Formats (all little-endian / plain text, stable across platforms):
  * point clouds: XYZ text, one ``x y z`` row per point, ``#`` comments;
  * trajectories: CSV with header ``t,agent,x,y,z,vx,vy,vz`` plus a JSON
    metadata sidecar (same path with ``.meta.json`` appended to the stem);
  * checkpoints: magic + version + JSON header + raw float64 payload;
  * config files: ``key = value`` lines with ``#`` comments.

Floats are printed with %.17g everywhere, which round-trips float64
exactly, so save/load cycles and repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .models import Checkpoint, ModelConfig
from .sampling import TrajectoryLog

__all__ = [
    "load_pointcloud", "save_pointcloud", "NormalizationTransform",
    "normalize_cloud", "SceneScale", "to_real_scale",
    "make_synthetic_dataset", "save_checkpoint", "load_checkpoint",
    "save_trajectory_csv", "load_trajectory_csv", "parse_config_file",
]

_FMT = "%.17g"  # round-trips IEEE-754 double exactly


# ---------------------------------------------------------------------------
# point clouds

def load_pointcloud(path) -> np.ndarray:
    """Read an XYZ text file into an (M, 3) float64 array."""
    points = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 floats, got "
                    f"{len(parts)} fields")
            try:
                points.append([float(p) for p in parts])
            except ValueError as err:
                raise ValueError(f"{path}: line {lineno}: {err}") from None
    if not points:
        raise ValueError(f"{path}: no points found")
    return np.array(points, dtype=np.float64)


def save_pointcloud(path, cloud) -> None:
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.ndim != 2 or cloud.shape[1] != 3:
        raise ValueError(f"expected an (M, 3) cloud, got {cloud.shape}")
    with open(path, "w") as fh:
        fh.write("# x y z\n")
        for p in cloud:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")


# ---------------------------------------------------------------------------
# normalization and scene scale

@dataclass(frozen=True)
class NormalizationTransform:
    """Centroid shift plus isotropic scale: apply = (x - centroid)/scale."""

    centroid: np.ndarray
    scale: float

    def apply(self, cloud) -> np.ndarray:
        return (np.asarray(cloud, dtype=np.float64) - self.centroid) / self.scale

    def invert(self, cloud) -> np.ndarray:
        return np.asarray(cloud, dtype=np.float64) * self.scale + self.centroid


def normalize_cloud(cloud):
    """Zero-centroid, unit pooled-std version of ``cloud`` plus the
    transform that produced it.  The scale is the standard deviation over
    all 3M coordinates, so the shape's aspect ratio is preserved."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.ndim != 2 or cloud.shape[1] != 3 or cloud.shape[0] == 0:
        raise ValueError(f"expected a non-empty (M, 3) cloud, got {cloud.shape}")
    centroid = cloud.mean(axis=0)
    scale = float((cloud - centroid).std())
    if scale == 0.0:
        raise ValueError("degenerate cloud: all points coincide")
    transform = NormalizationTransform(centroid=centroid, scale=scale)
    return transform.apply(cloud), transform


@dataclass(frozen=True)
class SceneScale:
    """Mapping between training units and show-space meters.

    The normalized training clouds live in a cube of about
    ``training_extent`` units; the physical show volume is a cube of
    ``side`` meters, so lengths multiply by side/training_extent and the
    real separation requirement ``kappa_real`` maps back to
    kappa_real/factor in training units (0.06 for the defaults).
    """

    side: float = 200.0
    kappa_real: float = 2.0
    training_extent: float = 6.0

    def __post_init__(self):
        if min(self.side, self.kappa_real, self.training_extent) <= 0.0:
            raise ValueError("all scene-scale lengths must be positive")

    @property
    def factor(self) -> float:
        return self.side / self.training_extent

    @property
    def kappa_training(self) -> float:
        return self.kappa_real / self.factor


def to_real_scale(log: TrajectoryLog, scene: SceneScale) -> TrajectoryLog:
    """Re-express a training-scale trajectory in meters.

    Velocities are scaled directly and positions are *recomposed* by the
    Euler recursion from the scaled initial frame, which preserves the
    bit-exact Euler-consistency invariant of every log (naive position
    scaling would break it by a few ulp).  Times are left untouched.
    """
    if log.meta.get("scale") == "real":
        raise ValueError("trajectory is already in real scale")
    f = scene.factor
    applied = log.applied_velocities * f
    dt = log.dt
    positions = np.empty_like(log.positions)
    positions[0] = log.positions[0] * f
    for k in range(applied.shape[0]):
        positions[k + 1] = positions[k] + dt * applied[k]
    preferred = (None if log.preferred_velocities is None
                 else log.preferred_velocities * f)
    meta = dict(log.meta)
    meta["scale"] = "real"
    meta["scale_factor"] = f
    meta["kappa"] = float(meta.get("kappa", 0.0)) * f
    return TrajectoryLog(times=log.times.copy(), positions=positions,
                         applied_velocities=applied,
                         preferred_velocities=preferred, meta=meta)


# ---------------------------------------------------------------------------
# synthetic shapes

def make_synthetic_dataset(kind: str, n_points: int, count: int = 1,
                           seed: int = 0) -> list:
    """Draw ``count`` clouds of ``n_points`` points from a canonical shape.

    Kinds: ``sphere`` (unit sphere surface), ``torus`` (R=1, r=0.4),
    ``plane`` (toy airplane from two boxes), ``helix`` (3 turns).  Clouds
    are *not* normalized; feed them through ``normalize_cloud`` before
    training.
    """
    rng = np.random.default_rng(seed)
    makers = {
        "sphere": _sphere, "torus": _torus, "plane": _plane, "helix": _helix,
    }
    if kind not in makers:
        raise ValueError(
            f"unknown shape kind {kind!r}; choose from {sorted(makers)}")
    if n_points < 1 or count < 1:
        raise ValueError("n_points and count must be >= 1")
    return [makers[kind](n_points, rng) for _ in range(count)]


def _sphere(n, rng):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _torus(n, rng, big_radius=1.0, tube_radius=0.4):
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    ring = big_radius + tube_radius * np.cos(phi)
    return np.column_stack((ring * np.cos(theta), ring * np.sin(theta),
                            tube_radius * np.sin(phi)))


def _plane(n, rng):
    """Toy airplane: fuselage box along x plus a thin wing box along y."""
    fuselage = np.array([[-1.0, 1.0], [-0.15, 0.15], [-0.15, 0.15]])
    wing = np.array([[-0.25, 0.25], [-1.0, 1.0], [-0.04, 0.04]])
    vol = [np.prod(np.diff(b, axis=1)) for b in (fuselage, wing)]
    n_fus = int(round(n * vol[0] / (vol[0] + vol[1])))
    parts = []
    for box, count in ((fuselage, n_fus), (wing, n - n_fus)):
        if count > 0:
            lo, hi = box[:, 0], box[:, 1]
            parts.append(rng.uniform(0.0, 1.0, (count, 3)) * (hi - lo) + lo)
    return np.concatenate(parts, axis=0)


def _helix(n, rng, turns=3.0, radius=1.0):
    t = np.sort(rng.uniform(0.0, 1.0, n))
    angle = 2.0 * np.pi * turns * t
    return np.column_stack((radius * np.cos(angle), radius * np.sin(angle),
                            2.0 * t - 1.0))


# ---------------------------------------------------------------------------
# checkpoints

_MAGIC = b"SWFLCKPT"
_VERSION = 1


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Binary write: magic, version, JSON header, raw float64 payload."""
    sections = (("params", ckpt.params), ("opt_m", ckpt.opt_m),
                ("opt_v", ckpt.opt_v))
    tensors = []
    payload = bytearray()
    for section, table in sections:
        for name in table:  # insertion order is part of the format
            # asarray, not ascontiguousarray: the latter would silently
            # promote 0-d tensors to shape (1,)
            arr = np.asarray(table[name], dtype=np.float64)
            tensors.append({"section": section, "name": name,
                            "shape": list(arr.shape)})
            payload.extend(arr.astype("<f8").tobytes())
    header = json.dumps({
        "algorithm": ckpt.algorithm,
        "model_config": ckpt.model_config.to_dict(),
        "train_config": ckpt.train_config,
        "opt_step": ckpt.opt_step,
        "step_count": ckpt.step_count,
        "final_loss": ckpt.final_loss,
        "tensors": tensors,
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(bytes(payload))


def _read_exact(fh, size: int, path, what: str) -> bytes:
    # checked against the file size first, so a corrupt length never
    # becomes a huge read
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated {what}")
    return fh.read(size)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "header"))
        header = json.loads(
            _read_exact(fh, header_len, path, "header").decode("utf-8"))
        sections = {"params": {}, "opt_m": {}, "opt_v": {}}
        for entry in header["tensors"]:
            if entry["section"] not in sections:
                raise ValueError(
                    f"{path}: unknown tensor section {entry['section']!r}")
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = _read_exact(fh, count * 8, path, "payload")
            arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            sections[entry["section"]][entry["name"]] = arr
        trailing = fh.read(1)
        if trailing:
            raise ValueError(f"{path}: trailing bytes after payload")
    return Checkpoint(
        algorithm=header["algorithm"],
        model_config=ModelConfig.from_dict(header["model_config"]),
        train_config=header["train_config"],
        params=sections["params"], opt_m=sections["opt_m"],
        opt_v=sections["opt_v"], opt_step=header["opt_step"],
        step_count=header["step_count"], final_loss=header["final_loss"])


# ---------------------------------------------------------------------------
# trajectories

def _meta_path(path) -> str:
    return str(path) + ".meta.json"


def save_trajectory_csv(path, log: TrajectoryLog) -> None:
    """Frame-major CSV plus metadata sidecar.

    The velocity columns hold the applied velocity of the step *starting*
    at each frame; the final frame, which starts no step, gets zeros.
    """
    s = log.num_steps
    with open(path, "w") as fh:
        fh.write("t,agent,x,y,z,vx,vy,vz\n")
        for k in range(s + 1):
            t = log.times[k]
            for a in range(log.num_agents):
                p = log.positions[k, a]
                v = log.applied_velocities[k, a] if k < s else np.zeros(3)
                fh.write((f"{t:.17g},{a},{p[0]:.17g},{p[1]:.17g},{p[2]:.17g},"
                          f"{v[0]:.17g},{v[1]:.17g},{v[2]:.17g}\n"))
    with open(_meta_path(path), "w") as fh:
        json.dump(log.meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_trajectory_csv(path) -> TrajectoryLog:
    """Rebuild a TrajectoryLog (without preferred velocities) from CSV."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,agent,x,y,z,vx,vy,vz":
            raise ValueError(f"{path}: unexpected header {header!r}")
        frames: dict[float, dict[int, tuple]] = {}
        times_in_order = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise ValueError(f"{path}: line {lineno}: expected 8 fields")
            try:
                t = float(parts[0])
                agent = int(parts[1])
                values = tuple(float(x) for x in parts[2:])
            except ValueError as err:
                raise ValueError(f"{path}: line {lineno}: {err}") from None
            if t not in frames:
                frames[t] = {}
                times_in_order.append(t)
            if agent in frames[t]:
                raise ValueError(f"{path}: line {lineno}: duplicate row for "
                                 f"t={t}, agent {agent}")
            frames[t][agent] = values
    if len(times_in_order) < 2:
        raise ValueError(f"{path}: need at least two frames")
    counts = {len(v) for v in frames.values()}
    if len(counts) != 1:
        raise ValueError(f"{path}: frames disagree on agent count")
    m = counts.pop()
    times = np.array(times_in_order)
    positions = np.empty((len(times), m, 3))
    applied = np.empty((len(times) - 1, m, 3))
    for k, t in enumerate(times_in_order):
        for a in range(m):
            if a not in frames[t]:
                raise ValueError(f"{path}: frame t={t} is missing agent {a}")
            vals = frames[t][a]
            positions[k, a] = vals[:3]
            if k < len(times) - 1:
                applied[k, a] = vals[3:]
    meta = {}
    try:
        with open(_meta_path(path)) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        pass
    return TrajectoryLog(times=times, positions=positions,
                         applied_velocities=applied,
                         preferred_velocities=None, meta=meta)


# ---------------------------------------------------------------------------
# config files

def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines; values become int, float, bool, or a
    tuple of ints (comma-separated) when they look like one, else str."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'key = value'")
            out[key] = _parse_value(value)
    return out


def _parse_value(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    if "," in value:
        parts = [p.strip() for p in value.split(",")]
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            pass
    return value
