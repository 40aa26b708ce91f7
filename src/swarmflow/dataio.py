"""File formats, normalization, scene scaling, and synthetic datasets.

Formats (all little-endian / plain text, stable across platforms):
  * point clouds: XYZ text, one ``x y z`` row per point;
  * trajectories: CSV with header ``t,agent,x,y,z,vx,vy,vz`` and
    frame-major rows (agents 0..M-1 in order, frame times strictly
    decreasing), plus a sidecar ``<path>.meta.json`` holding a JSON object;
  * checkpoints: magic + version 2 + JSON header + raw float64 payload
    of the parameters, no optimizer state (version 1 files are refused);
  * config files: ``key = value`` lines with ``#`` comments.

The point-cloud and trajectory readers skip blank and ``#`` lines and
reject NaN and inf, as do the config reader and checkpoint tensors.  Every
reader raises a one-line ``ValueError`` naming the file (and the line,
for text) on bad input, a text file that is not UTF-8 included.  The
writers refuse NaN and inf before they open a file (a ``TrajectoryLog``
cannot hold them), so what they write reads back.  Floats
are printed with %.17g everywhere, which round-trips float64 exactly, so
save/load cycles and repeated runs are byte-identical.  Every writer
creates a new file (``models._open_new`` unlinks an existing target
first), so a symlink or hard-linked target is replaced, not written
through.

A trajectory CSV that holds only the bytes its writer emits is parsed by
``np.loadtxt``'s C reader.  Any other file, and any file that fails a
check, is read line by line, so the files accepted, the values and the
error text are those of the line reader alone.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
from array import array
from contextlib import closing
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from .models import (Checkpoint, ModelConfig, _finite_number, _is_int,
                     _open_new, _require, _require_finite)
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

def _text_lines(path):
    """Yield the lines of a UTF-8 text file, each decoded on its own so
    that a byte that is not UTF-8 gives a one-line ``ValueError`` naming
    its line.  Only a line feed ends a line, not a lone carriage return."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                yield raw.decode("utf-8")
            except UnicodeDecodeError as err:
                raise ValueError(f"{path}: line {lineno}: not UTF-8 text "
                                 f"({err.reason})") from None


def _read_rows(path, lines, sep, width: int, first_line: int):
    """Parse a table file's data lines into an (N, width) float64 array
    plus the file line of each row.  Blank and ``#`` lines are skipped;
    every other line splits on ``sep`` (``None``: whitespace) into
    ``width`` finite floats.  A flat ``array("d")`` holds the values, far
    less memory than per-field string lists."""
    values = array("d")
    line_of_row = array("q")
    for lineno, raw in enumerate(lines, start=first_line):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(sep)
        if len(parts) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} "
                             f"fields, got {len(parts)}")
        try:
            values.extend(map(float, parts))
        except ValueError as err:
            raise ValueError(f"{path}: line {lineno}: {err}") from None
        line_of_row.append(lineno)
    table = np.frombuffer(values, dtype=np.float64).reshape(-1, width)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: line {line_of_row[bad[0]]}: NaN or inf")
    return table, line_of_row


def load_pointcloud(path) -> np.ndarray:
    """Read an XYZ text file into an (M, 3) float64 array."""
    with closing(_text_lines(path)) as lines:
        cloud, _ = _read_rows(path, lines, None, 3, 1)
    if not len(cloud):
        raise ValueError(f"{path}: no points found")
    return cloud


def save_pointcloud(path, cloud) -> None:
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.ndim != 2 or cloud.shape[1] != 3:
        raise ValueError(f"expected an (M, 3) cloud, got {cloud.shape}")
    _require_finite(cloud, f"{path}: cloud")
    with _open_new(path) as fh:
        np.savetxt(fh, cloud, fmt=_FMT, header="x y z", comments="# ")


# ---------------------------------------------------------------------------
# normalization and scene scale

@dataclass(frozen=True)
class NormalizationTransform:
    """Centroid shift plus isotropic scale: apply = (x - centroid)/scale."""

    centroid: np.ndarray
    scale: float

    def apply(self, cloud) -> np.ndarray:
        return (np.asarray(cloud, dtype=np.float64) - self.centroid) / self.scale


def normalize_cloud(cloud):
    """Zero-centroid, unit pooled-std version of ``cloud`` plus the
    transform that produced it.  The scale is the standard deviation over
    all 3M coordinates, so the shape's aspect ratio is preserved."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.ndim != 2 or cloud.shape[1] != 3 or cloud.shape[0] == 0:
        raise ValueError(f"expected a non-empty (M, 3) cloud, got {cloud.shape}")
    _require_finite(cloud, "normalize_cloud: cloud")
    centroid = cloud.mean(axis=0)
    scale = float((cloud - centroid).std())
    if scale == 0.0:
        raise ValueError("degenerate cloud: all points coincide")
    transform = NormalizationTransform(centroid=centroid, scale=scale)
    return transform.apply(cloud), transform


@dataclass(frozen=True)
class SceneScale:
    """Mapping between training units and show-space meters.

    The normalized training clouds live in a cube of about 6 units; the
    physical show volume is a cube of ``side`` meters, so lengths
    multiply by ``factor`` = side/6.  At the default 200 m side a 2 m
    protected distance is the training-scale default kappa = 0.06.
    """

    side: float = 200.0

    def __post_init__(self):
        if not (_finite_number(self.side) and self.side > 0.0):
            raise ValueError(
                f"scene side must be finite and positive, got {self.side!r}")

    @property
    def factor(self) -> float:
        return self.side / 6.0


def to_real_scale(log: TrajectoryLog, scene: SceneScale) -> TrajectoryLog:
    """Re-express a training-scale trajectory in meters.

    Velocities are scaled directly and positions are *recomposed* by the
    Euler recursion from the scaled initial frame, which preserves the
    bit-exact Euler-consistency invariant of every log (naive position
    scaling would break it by a few ulp); the accumulate adds in step
    order, as the recursion does.  Times are left untouched.  A log in
    real scale is returned as it is if its ``scale_factor`` is the
    scene's, and raises a ``ValueError`` otherwise.
    """
    f = scene.factor
    if log.meta.get("scale") == "real":
        if log.meta.get("scale_factor") != f:
            raise ValueError(f"trajectory is in real scale at factor "
                             f"{log.meta.get('scale_factor')!r}, not {f!r}")
        return log
    applied = log.applied_velocities * f
    positions = np.cumsum(np.concatenate(
        [log.positions[:1] * f, log.dt * applied]), axis=0)
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
    makers = {
        "sphere": _sphere, "torus": _torus, "plane": _plane, "helix": _helix,
    }
    if kind not in makers:
        raise ValueError(
            f"unknown shape kind {kind!r}; choose from {sorted(makers)}")
    args = SimpleNamespace(n_points=n_points, count=count, seed=seed)
    _require(args, "a positive int", "n_points", "count")
    _require(args, "a non-negative int", "seed")
    rng = np.random.default_rng(seed)
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
_VERSION = 2


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Binary write: magic, version, JSON header, raw float64 payload of
    the parameters.  A NaN or inf tensor raises before the file is
    opened, as ``load_checkpoint`` would refuse it."""
    # insertion order is part of the format; asarray, not
    # ascontiguousarray: the latter would silently promote 0-d tensors to
    # shape (1,)
    arrays = [(name, np.asarray(arr, dtype=np.float64))
              for name, arr in ckpt.params.items()]
    for name, arr in arrays:
        _require_finite(arr, f"{path}: tensor {name!r}")
    header = json.dumps({
        "algorithm": ckpt.algorithm,
        "model_config": asdict(ckpt.model_config),
        "train_config": ckpt.train_config,
        "step_count": ckpt.step_count,
        "final_loss": ckpt.final_loss,
        "tensors": [{"name": name, "shape": list(arr.shape)}
                    for name, arr in arrays],
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with _open_new(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for _, arr in arrays:  # the payload, one tensor at a time
            fh.write(arr.astype("<f8").tobytes())


def _read_exact(fh, size: int, path, what: str) -> bytes:
    # checked against the file size first, so a corrupt length never
    # becomes a huge read
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated {what}")
    return fh.read(size)


# every key ``save_checkpoint`` writes, with the JSON type it reads back as
_HEADER_TYPES = {"algorithm": str, "model_config": dict, "train_config": dict,
                 "step_count": int, "final_loss": (int, float),
                 "tensors": list}


def _check_header(header, path) -> None:
    """One-line ``ValueError`` naming ``path`` unless ``header`` holds every
    key with its type, a non-negative ``step_count``, and every tensor
    entry a name of its own and a shape of non-negative integers."""
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    for key, kind in _HEADER_TYPES.items():
        if key not in header:
            raise ValueError(f"{path}: checkpoint header lacks {key!r}")
        if type(header[key]) is bool or not isinstance(header[key], kind):
            raise ValueError(f"{path}: checkpoint header {key!r} has the "
                             f"wrong type {type(header[key]).__name__}")
    if header["step_count"] < 0:
        raise ValueError(f"{path}: checkpoint header 'step_count' is negative")
    names = set()
    for k, entry in enumerate(header["tensors"]):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: tensor entry {k} is not a JSON object")
        name, shape = entry.get("name"), entry.get("shape")
        if not isinstance(name, str) or not (
                isinstance(shape, list)
                and all(_is_int(n) and n >= 0 for n in shape)):
            raise ValueError(f"{path}: tensor entry {k} needs a name and a "
                             f"shape of non-negative integers")
        if name in names:
            raise ValueError(f"{path}: duplicate tensor name {name!r} in "
                             f"entry {k}")
        names.add(name)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "header"))
        text = _read_exact(fh, header_len, path, "header")
        try:
            header = json.loads(text.decode("utf-8"))
        except ValueError as err:
            raise ValueError(f"{path}: bad checkpoint header: {err}") from None
        _check_header(header, path)
        params = {}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            count = math.prod(shape)
            raw = _read_exact(fh, count * 8, path, "payload")
            arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            _require_finite(arr, f"{path}: tensor {entry['name']!r}")
            params[entry["name"]] = arr
        trailing = fh.read(1)
        if trailing:
            raise ValueError(f"{path}: trailing bytes after payload")
    try:
        model_config = ModelConfig.from_dict(header["model_config"])
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: bad model_config: {err}") from None
    return Checkpoint(
        algorithm=header["algorithm"],
        model_config=model_config,
        train_config=header["train_config"],
        params=params, step_count=header["step_count"],
        final_loss=header["final_loss"])


# ---------------------------------------------------------------------------
# trajectories

_CSV_HEADER = "t,agent,x,y,z,vx,vy,vz"
# every byte save_trajectory_csv writes after the header: %.17g of finite
# floats, %d agent ids, commas and line feeds
_WRITER_BYTES = b"0123456789+-.e,\n"


def save_trajectory_csv(path, log: TrajectoryLog) -> None:
    """Frame-major CSV plus metadata sidecar.

    The velocity columns hold the applied velocity of the step *starting*
    at each frame; the final frame, which starts no step, gets zeros.
    The sidecar is encoded before either file is opened, so metadata that
    JSON cannot encode raises and writes nothing.  Rows are formatted a
    frame per ``%``, the bytes ``np.savetxt`` would write, without
    holding more than one frame as Python objects: the agent ids are
    written into the one format string of a call and each frame's time is
    formatted once per frame.
    """
    sidecar = json.dumps(log.meta, sort_keys=True, indent=2) + "\n"
    s, m = log.num_steps, log.num_agents
    # column 0 of each row takes the frame's time, formatted once per frame
    table = np.zeros((s + 1, m, 7))  # the final frame's velocities stay 0
    table[:, :, 1:4] = log.positions
    table[:-1, :, 4:] = log.applied_velocities
    frame_fmt = "".join(f"%s,{j}," + ",".join([_FMT] * 6) + "\n"
                        for j in range(m))
    with _open_new(path) as fh:
        fh.write(_CSV_HEADER + "\n")
        for t, frame in zip(log.times.tolist(), table.reshape(s + 1, -1)):
            values = frame.tolist()
            values[::7] = [_FMT % t] * m
            fh.write(frame_fmt % tuple(values))
    with _open_new(f"{path}.meta.json") as fh:
        fh.write(sidecar)


def _writer_table(path):
    """A trajectory CSV's rows parsed by ``np.loadtxt``'s C reader into a
    finite (N, 8) array, for a file laid out as ``save_trajectory_csv``
    writes it (the header line, then only ``_WRITER_BYTES``, scanned in
    1 MiB blocks); None for any other file and for any failure.

    On those bytes ``np.loadtxt`` and the line reader (``_read_rows``)
    split lines and fields alike, skip the same empty lines and parse
    each field with the same string-to-double routine, so they accept the
    same rows with the same values.  On others they can differ:
    ``np.loadtxt`` ends a line at a lone ``\\r``, strips ``\\x1f`` around a
    field, and refuses ``1_0`` and non-ASCII digits, which ``float()``
    reads.
    """
    header = (_CSV_HEADER + "\n").encode()
    with open(path, "rb") as fh:
        if fh.read(len(header)) != header:
            return None
        while block := fh.read(1 << 20):
            if block.translate(None, _WRITER_BYTES):
                return None
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # a table with no rows warns
            warnings.simplefilter("error", UserWarning)
            table = np.loadtxt(fh, delimiter=",", comments=None,
                               skiprows=1, ndmin=2)
    except (ValueError, UserWarning):
        return None
    if table.shape[1] != 8 or not np.isfinite(table).all():
        return None
    return table


def _frames(path, table, line_of_row):
    """Split an (N, 8) trajectory table into (S+1, M, 8) frames, or raise
    a one-line ``ValueError`` unless its rows are frame-major (agents
    0..M-1 in order in each of at least two frames, frame times strictly
    decreasing); ``line_of_row[k]`` is the file line of row k."""
    t = table[:, 0]
    later = np.flatnonzero(t != t[:1])
    if not later.size:
        raise ValueError(f"{path}: need at least two frames")
    m = int(later[0])  # rows in the first frame
    wrong = np.flatnonzero(table[:, 1] != np.arange(len(t)) % m)
    if wrong.size:
        k = int(wrong[0])
        raise ValueError(f"{path}: line {line_of_row[k]}: duplicate or out-of-"
                         f"order row for t={t[k]:.17g}, agent {table[k, 1]:g}")
    if len(t) % m or np.any(t.reshape(-1, m) != t[::m, None]):
        raise ValueError(f"{path}: frames disagree on agent count")
    frames = table.reshape(-1, m, 8)
    if np.any(np.diff(frames[:, 0, 0]) >= 0.0):
        raise ValueError(f"{path}: frame times must strictly decrease")
    return frames


def load_trajectory_csv(path) -> TrajectoryLog:
    """Rebuild a TrajectoryLog (without preferred velocities) from CSV
    rows laid out as ``save_trajectory_csv`` writes them; a missing
    sidecar gives empty metadata.

    A file that holds only bytes the writer emits (blank lines allowed)
    is parsed in one ``np.loadtxt`` call, see ``_writer_table``.  Any
    other file (``#`` lines, CRLF line ends, spaces, ``inf``, ``1_0``,
    non-ASCII digits, bytes that are not UTF-8), and any file whose rows
    fail a check, goes to the line reader (``_text_lines`` and
    ``_read_rows``), the one place that words an error.  So the files
    accepted, the values read and every error message, with its line,
    are those of the line reader alone.
    """
    table = _writer_table(path)
    frames = None
    if table is not None:
        try:
            frames = _frames(path, table, range(2, len(table) + 2))
        except ValueError:
            pass  # blank lines would shift that line: the line reader words it
    if frames is None:
        with closing(_text_lines(path)) as lines:
            header = next(lines, "").strip()
            if header != _CSV_HEADER:
                raise ValueError(f"{path}: unexpected header {header!r}")
            table, line_of_row = _read_rows(path, lines, ",", 8, 2)
        frames = _frames(path, table, line_of_row)
    meta_path = f"{path}.meta.json"
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        meta = {}
    except ValueError as err:
        raise ValueError(f"{meta_path}: bad metadata sidecar: {err}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: metadata sidecar is not a JSON object")
    if "kappa" in meta and not _finite_number(meta["kappa"]):
        raise ValueError(f"{meta_path}: kappa must be a finite number, "
                         f"got {meta['kappa']!r}")
    return TrajectoryLog(times=frames[:, 0, 0].copy(),
                         positions=frames[:, :, 2:5].copy(),
                         applied_velocities=frames[:-1, :, 5:].copy(),
                         preferred_velocities=None, meta=meta)


# ---------------------------------------------------------------------------
# config files

def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines; values become int, finite float, bool,
    or a tuple of ints (comma-separated) when they look like one, else
    str.  ``nan``, ``inf`` and overflowing floats are rejected."""
    out = {}
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        parsed = _parse_value(value)
        if isinstance(parsed, float) and not math.isfinite(parsed):
            raise ValueError(
                f"{path}: line {lineno}: non-finite value {value!r}")
        out[key] = parsed
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
