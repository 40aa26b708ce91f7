"""The swarmflow benchmark: workloads, output checks and metrics.

Three workloads, all on the fixture configs of
``scripts/record_sphere_fixture.py`` (sphere data, ``ModelConfig(latent_dim=16)``,
``kappa`` 0.06):

- ``train-fixture``: ``train`` from a fresh initialisation on the 512-point
  sphere.  Only autodiff, models and flowmatch work.
- ``show-512``: the README quick start at fixture size.  Set-up trains a
  checkpoint and round-trips it through ``save_checkpoint``/``load_checkpoint``;
  the timed part samples 512 agents x 100 steps with avoidance, evaluates
  against the reference sphere, writes and reads the trajectory CSV and
  exports the final cloud.  Avoidance is sparse here (about 1% of
  agent-steps corrected).
- ``goal-2048``: ``sample_cfm_plus_orca`` flies 2048 agents from a Gaussian
  start straight at a 2048-point sphere, then evaluates.  No network;
  avoidance under heavy conflict does nearly all of the work.

Every workload is set up several times (untimed, median reported as
``setup_s``), then repeated for the requested number of seconds.  Set-ups
and repeats run under a ``SpeedProbe`` and are timed in its corrected
seconds, so a busy host does not read as a slow program.  Every repeat
must give byte-identical outputs.  A traced run adds one repeat
with wrappers around each layer's public functions (see ``tracing.py``)
and derives the per-layer metrics from it.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy
from scipy.spatial import cKDTree

from swarmflow import (autodiff, dataio, flowmatch, metrics, models,
                       navigation, sampling)
from speed import LAYER_BURST, LOOP_BURST, SpeedProbe, clock
from tracing import Tracer

KAPPA = 0.06
MODEL = models.ModelConfig(latent_dim=16)
# violation of one of its own half-spaces that marks an LP result infeasible
LP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Seeds:
    """Seeds of one run; ``Seeds(0)`` is the fixture (data 20, train 0,
    sample 1) and ``Seeds(n)`` shifts all three by n."""

    base: int = 0

    @property
    def data(self) -> int:
        return 20 + self.base

    @property
    def train(self) -> int:
        return self.base

    @property
    def sample(self) -> int:
        return 1 + self.base

    def as_dict(self) -> dict:
        return {"seed": self.base, "data": self.data, "train": self.train,
                "sample": self.sample}


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, ``TINY`` is for tests."""

    points: int = 512             # training sphere (fixture)
    train_steps: int = 100        # steps of one timed train-fixture repeat
    show_train_steps: int = 150   # steps of the show-512 checkpoint
    show_agents: int = 512
    show_steps: int = 100
    goal_agents: int = 2048
    goal_steps: int = 8
    warmup_agents: int = 512      # goal-2048 set-up warms the pipeline at this size
    sweep: tuple = (512, 1024, 2048, 4096)
    sweep_divisor: int = 1        # tests shrink the sweep but keep its names


TINY = Sizes(points=32, train_steps=4, show_train_steps=3, show_agents=16,
             show_steps=3, goal_agents=24, goal_steps=3, warmup_agents=8,
             sweep_divisor=64)
SETUP_REPEATS = 3
MIN_REPEATS = 2  # two repeats at least, so that repeats can be compared


class CheckFailed(Exception):
    """An output check failed; the operation counts as failed."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_finite(what: str, *arrays) -> None:
    for a in arrays:
        check(a is None or bool(np.all(np.isfinite(a))), f"{what}: not finite")


def check_log(what: str, log) -> None:
    check(log.euler_consistent(), f"{what}: Euler recursion broken")
    check_finite(what, log.positions, log.applied_velocities,
                 log.preferred_velocities)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def checkpoint_digest(ckpt) -> str:
    parts = [repr((ckpt.algorithm, ckpt.opt_step, ckpt.step_count,
                   ckpt.final_loss)).encode()]
    for table in (ckpt.params, ckpt.opt_m, ckpt.opt_v):
        for name, arr in table.items():
            parts += [name.encode(), np.asarray(arr, dtype=np.float64)]
    return digest(*parts)


def read_file(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def sphere(n: int, seed: int) -> np.ndarray:
    cloud = dataio.make_synthetic_dataset("sphere", n, 1, seed)[0]
    return dataio.normalize_cloud(cloud)[0]


def min_separation(log) -> float:
    """Smallest pairwise distance over frames 1..S."""
    return min(float(cKDTree(f).query(f, k=2)[0][:, 1].min())
               for f in log.positions[1:])


def neighbors_per_agent(frames, radius: float) -> float:
    """Mean number of agents within ``radius`` of an agent, over frames."""
    counts = [2 * len(cKDTree(f).query_pairs(radius, output_type="ndarray"))
              / f.shape[0] for f in frames]
    return float(np.mean(counts))


@dataclass
class Repeat:
    """One timed repeat of a workload."""

    wall: float       # corrected seconds of the timed calls (speed.py)
    rate: float       # train steps/s, or agents x steps/s of the sample call
    error: float      # mean field-matching term over the last tenth of
                      # steps (train-fixture), mean distance of a final agent
                      # to the nearest reference point (show-512), or share
                      # of agents closer than kappa at the end (goal-2048)
    digest: str       # hash of every output the repeat produced
    detail: dict = field(default_factory=dict)
    log: object = None
    probe: object = None  # the SpeedProbe the repeat ran under


# ---------------------------------------------------------------------------
# workloads


# Each workload names the speed-probe burst that imitates its set-up's and
# its repeat's code (speed.py): training is numpy layers, sampling is the
# per-agent Python loop of orca_adjust.

class TrainFixture:
    setup_burst = run_burst = LAYER_BURST

    def __init__(self, seeds: Seeds, sizes: Sizes):
        self.seeds, self.sizes = seeds, sizes

    def config(self, steps):
        return flowmatch.TrainConfig(epochs=steps, seed=self.seeds.train)

    def setup(self, tmp):
        dataset = [sphere(self.sizes.points, self.seeds.data)]
        flowmatch.train(dataset, self.config(25), MODEL)  # warm-up
        return dataset, digest(dataset[0])

    def run(self, dataset, tmp, probe) -> Repeat:
        steps = self.sizes.train_steps
        log_path = os.path.join(tmp, "train.log")
        t0 = clock()
        ckpt = flowmatch.train(dataset, self.config(steps), MODEL,
                               log_path=log_path)
        wall = probe.seconds(t0, clock())
        text = read_file(log_path)
        # columns: step, loss, field term, KL term
        logged = np.array([[float(x) for x in line.split()[1:]]
                           for line in text.decode().splitlines()
                           if line and not line.startswith("#")])
        check(logged.shape == (steps, 3), "training log has the wrong shape")
        check_finite("losses", logged, np.array(ckpt.final_loss))
        check_finite("parameters", *ckpt.params.values())
        loss, field_term = logged[-max(1, steps // 10):, :2].mean(axis=0)
        return Repeat(wall, steps / wall, float(field_term),
                      digest(checkpoint_digest(ckpt).encode(), text),
                      {"train_loss": float(loss)})


class Show512:
    setup_burst, run_burst = LAYER_BURST, LOOP_BURST

    def __init__(self, seeds: Seeds, sizes: Sizes):
        self.seeds, self.sizes = seeds, sizes

    def setup(self, tmp):
        dataset = [sphere(self.sizes.points, self.seeds.data)]
        cfg = flowmatch.TrainConfig(epochs=self.sizes.show_train_steps,
                                    seed=self.seeds.train)
        ckpt = flowmatch.train(dataset, cfg, MODEL)
        path = os.path.join(tmp, "show.swf")
        dataio.save_checkpoint(path, ckpt)
        loaded = dataio.load_checkpoint(path)
        check(checkpoint_digest(loaded) == checkpoint_digest(ckpt),
              "checkpoint round trip changed the weights")
        return (dataset[0], loaded), digest(read_file(path))

    def run(self, state, tmp, probe) -> Repeat:
        reference, ckpt = state
        s = self.sizes
        cfg = sampling.SampleConfig(num_agents=s.show_agents, steps=s.show_steps,
                                    use_orca=True, seed=self.seeds.sample,
                                    kappa=KAPPA)
        csv_path = os.path.join(tmp, "trajectory.csv")
        xyz_path = os.path.join(tmp, "final.xyz")
        t0 = clock()
        log = sampling.sample(ckpt, cfg)
        t1 = clock()
        report = metrics.evaluate_logs([log], kappa=KAPPA, reference=[reference])
        t2 = clock()
        dataio.save_trajectory_csv(csv_path, log)
        back = dataio.load_trajectory_csv(csv_path)
        t3 = clock()
        dataio.save_pointcloud(xyz_path, log.final_cloud())
        t4 = clock()
        check_log("show", log)
        check_log("reloaded show", back)
        check(np.array_equal(back.positions, log.positions)
              and np.array_equal(back.applied_velocities, log.applied_velocities),
              "CSV round trip is not bit-exact")
        csv = read_file(csv_path)
        final = log.final_cloud()
        chamfer = metrics.chamfer(final, reference)
        shape_error = float(cKDTree(reference).query(final)[0].mean())
        return Repeat(
            probe.seconds(t0, t4),
            s.show_agents * s.show_steps / probe.seconds(t0, t1), shape_error,
            digest(log.positions, log.applied_velocities,
                   log.preferred_velocities, csv, read_file(xyz_path)),
            {"evaluate_s": probe.seconds(t1, t2),
             "csv_roundtrip_s": probe.seconds(t2, t3),
             "final_chamfer": chamfer, "fin_pct": report.final_collision_pct,
             "min_separation": min_separation(log)},
            log)


class Goal2048:
    setup_burst = run_burst = LOOP_BURST

    def __init__(self, seeds: Seeds, sizes: Sizes):
        self.seeds, self.sizes = seeds, sizes

    def flight(self, goal, start):
        cfg = sampling.SampleConfig(num_agents=len(goal),
                                    steps=self.sizes.goal_steps, use_orca=True,
                                    seed=self.seeds.sample, kappa=KAPPA)
        return sampling.sample_cfm_plus_orca(goal, start, cfg)

    def setup(self, tmp):
        n = self.sizes.goal_agents
        goal = sphere(n, self.seeds.data)
        start = np.random.default_rng(self.seeds.sample).standard_normal((n, 3))
        w = self.sizes.warmup_agents
        metrics.evaluate_logs([self.flight(goal[:w], start[:w])], kappa=KAPPA,
                              reference=[goal[:w]])
        return (goal, start), digest(goal, start)

    def run(self, state, tmp, probe) -> Repeat:
        goal, start = state
        t0 = clock()
        log = self.flight(goal, start)
        t1 = clock()
        report = metrics.evaluate_logs([log], kappa=KAPPA, reference=[goal])
        t2 = clock()
        check_log("flight", log)
        fin = report.final_collision_pct
        return Repeat(
            probe.seconds(t0, t2),
            log.num_agents * log.num_steps / probe.seconds(t0, t1), fin / 100.0,
            digest(log.positions, log.applied_velocities,
                   log.preferred_velocities),
            {"evaluate_s": probe.seconds(t1, t2),
             "final_chamfer": metrics.chamfer(log.final_cloud(), goal),
             "fin_pct": fin,
             "min_separation": min_separation(log)},
            log)


WORKLOADS = {"train-fixture": TrainFixture, "show-512": Show512,
             "goal-2048": Goal2048}


# ---------------------------------------------------------------------------
# tracing: the layers are the public functions of each module, wrapped
# under the names their callers resolve

def trace_dataio(tr: Tracer) -> None:
    def size(args, kwargs, result, key):
        tr.add(key, os.path.getsize(args[0]))

    tr.span(dataio, "save_checkpoint", "dataio.save_checkpoint",
            lambda *a: size(*a, "dataio.checkpoint_bytes"))
    tr.span(dataio, "load_checkpoint", "dataio.load_checkpoint")
    tr.span(dataio, "save_trajectory_csv", "dataio.save_trajectory_csv",
            lambda *a: size(*a, "dataio.csv_bytes"))
    tr.span(dataio, "load_trajectory_csv", "dataio.load_trajectory_csv")


def trace_layers(tr: Tracer) -> None:
    """Wrap every layer the workloads call through."""

    def nodes(args, kwargs, result):
        if tr.is_open("flowmatch.train"):
            tr.add("autodiff.nodes")

    def matmul_flops(args, kwargs, result):
        # forward product plus the two VJP products of backward
        if tr.is_open("flowmatch.train"):
            inner = np.shape(getattr(args[0], "value", args[0]))[-1]
            tr.add("models.train_flop", 3 * 2 * result.value.size * inner)

    def agents(args, kwargs, result):
        tr.add("navigation.agent_steps", len(result))

    def lp(args, kwargs, result):
        try:
            infeasible = any(c.violation(result) > LP_TOLERANCE for c in args[1])
        except (AttributeError, TypeError, IndexError):
            # the constraints changed form: report the metric as absent
            if "navigation.lp_check" not in tr.absent:
                tr.absent.append("navigation.lp_check")
            return
        tr.add("navigation.lp_calls")
        tr.add("navigation.lp_infeasible", float(infeasible))

    tr.span(flowmatch, "train", "flowmatch.train")
    tr.span(flowmatch, "cfm_loss", "flowmatch.cfm_loss")
    tr.span(flowmatch.Adam, "step", "flowmatch.Adam.step")
    tr.span(autodiff, "backward", "autodiff.backward")
    tr.count(autodiff.Node, "__init__", "autodiff.Node", nodes)
    tr.count(autodiff, "matmul", "autodiff.matmul", matmul_flops)
    tr.span(flowmatch, "kl_divergence", "models.kl_divergence")
    tr.span(models.PointSetEncoder, "__call__", "models.PointSetEncoder")
    tr.span(models.GatedContextualNet, "__call__", "models.GatedContextualNet")
    tr.span(sampling, "sample", "sampling.sample")
    tr.span(sampling, "sample_cfm_plus_orca", "sampling.sample_cfm_plus_orca")
    tr.span(sampling, "orca_adjust", "navigation.orca_adjust", agents)
    tr.span(navigation, "build_orca_halfspace", "navigation.build_orca_halfspace")
    tr.span(navigation, "solve_velocity_lp", "navigation.solve_velocity_lp", lp)
    tr.span(metrics, "collision_rates", "metrics.collision_rates")
    tr.span(metrics, "coverage_and_mmd", "metrics.coverage_and_mmd")
    tr.span(metrics, "smoothness", "metrics.smoothness")
    trace_dataio(tr)


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _intervals(outer, inner) -> list:
    """Gaps between consecutive ``inner`` returns inside each ``outer``
    call, the first measured from the start of that call."""
    gaps = []
    for start, end in zip(outer.starts, outer.ends):
        marks = [start] + [t for t in inner.ends if start <= t <= end]
        gaps += list(np.diff(marks))
    return gaps


def layer_metrics(tr: Tracer, io_tr: Tracer, log, sweep: dict) -> dict:
    """Per-layer numbers of one traced repeat (``tr``), one traced set-up
    (``io_tr``, checkpoint I/O) and the ``orca_adjust`` sweep."""
    out = {}
    absent = set(tr.absent) | set(io_tr.absent)

    def emit(name, unit, needs, value):
        if not absent.intersection(needs):
            out[name] = (value(), unit)

    def per(span, n):
        return 1e3 * span.total / n if n else 0.0

    get = tr.get
    train, adam = get("flowmatch.train"), get("flowmatch.Adam.step")
    steps = adam.calls
    field_net = get("models.GatedContextualNet")
    encoder = get("models.PointSetEncoder")
    kl = get("models.kl_divergence")
    emit("models.encoder_ms", "ms", ["models.PointSetEncoder"],
         lambda: per(encoder, encoder.calls))
    emit("models.kl_ms", "ms", ["models.kl_divergence"], lambda: per(kl, kl.calls))
    emit("models.field_ms", "ms", ["models.GatedContextualNet"],
         lambda: per(field_net, field_net.calls))
    emit("models.train_gflop_per_s", "GFLOP/s", ["autodiff.matmul", "flowmatch.train"],
         lambda: tr.counts.get("models.train_flop", 0.0) / train.total / 1e9
         if train.total else 0.0)
    emit("autodiff.backward_ms", "ms", ["autodiff.backward", "flowmatch.Adam.step"],
         lambda: per(get("autodiff.backward"), steps))
    emit("autodiff.nodes_per_step", "count", ["autodiff.Node", "flowmatch.Adam.step"],
         lambda: tr.counts.get("autodiff.nodes", 0.0) / steps if steps else 0.0)
    emit("flowmatch.loss_ms", "ms", ["flowmatch.cfm_loss", "flowmatch.Adam.step"],
         lambda: per(get("flowmatch.cfm_loss"), steps))
    emit("flowmatch.adam_ms", "ms", ["flowmatch.Adam.step"], lambda: per(adam, steps))
    emit("flowmatch.loop_self_ms", "ms",
         ["flowmatch.train", "flowmatch.cfm_loss", "autodiff.backward",
          "flowmatch.Adam.step"],
         lambda: 1e3 * train.self_total / steps if steps else 0.0)
    step_gaps = [g for s, e in zip(train.starts, train.ends)
                 for g in np.diff([t for t in adam.ends if s <= t <= e])]
    for q in (50, 90):
        emit(f"flowmatch.step_ms_p{q}", "ms", ["flowmatch.train", "flowmatch.Adam.step"],
             lambda q=q: 1e3 * _pct(step_gaps, q))

    orca = get("navigation.orca_adjust")
    samplers = [get("sampling.sample"), get("sampling.sample_cfm_plus_orca")]
    sample_spans = ["sampling.sample", "sampling.sample_cfm_plus_orca"]
    gaps = [g for s in samplers for g in _intervals(s, orca)]
    emit("sampling.self_ms", "ms", sample_spans + ["navigation.orca_adjust"],
         lambda: 1e3 * sum(s.self_total for s in samplers) / orca.calls
         if orca.calls else 0.0)
    for q in (50, 90):
        emit(f"sampling.step_ms_p{q}", "ms", sample_spans + ["navigation.orca_adjust"],
             lambda q=q: 1e3 * _pct(gaps, q))
        emit(f"navigation.orca_ms_p{q}", "ms", ["navigation.orca_adjust"],
             lambda q=q: 1e3 * _pct(orca.durations(), q))
    halfspace = get("navigation.build_orca_halfspace")
    solve = get("navigation.solve_velocity_lp")
    emit("navigation.scan_ms", "ms", ["navigation.orca_adjust",
                                      "navigation.build_orca_halfspace",
                                      "navigation.solve_velocity_lp"],
         lambda: 1e3 * orca.self_total / orca.calls if orca.calls else 0.0)
    emit("navigation.halfspace_ms", "ms", ["navigation.build_orca_halfspace"],
         lambda: per(halfspace, orca.calls))
    emit("navigation.lp_ms", "ms", ["navigation.solve_velocity_lp"],
         lambda: per(solve, orca.calls))
    agent_steps = tr.counts.get("navigation.agent_steps", 0.0)
    emit("navigation.halfspaces_per_agent", "count",
         ["navigation.build_orca_halfspace", "navigation.orca_adjust"],
         lambda: halfspace.calls / agent_steps if agent_steps else 0.0)
    sampled = log is not None and log.preferred_velocities is not None
    emit("navigation.neighbors_per_agent", "count", [],
         lambda: neighbors_per_agent(
             log.positions[:-1],
             navigation.NavConfig(kappa=KAPPA, dt=log.dt).culling_radius)
         if sampled else 0.0)
    emit("navigation.corrected_frac", "1", [],
         lambda: float(np.mean(np.any(log.applied_velocities
                                      != log.preferred_velocities, axis=2)))
         if sampled else 0.0)
    lp_calls = tr.counts.get("navigation.lp_calls", 0.0)
    emit("navigation.infeasible_frac", "1",
         ["navigation.solve_velocity_lp", "navigation.lp_check"],
         lambda: tr.counts.get("navigation.lp_infeasible", 0.0) / lp_calls
         if lp_calls else 0.0)
    for name, value in sweep.items():
        out[name] = (value, "count" if "neighbors" in name else "ms")

    for metric, span in (("collision", "collision_rates"),
                         ("coverage", "coverage_and_mmd"),
                         ("smoothness", "smoothness")):
        s = get(f"metrics.{span}")
        emit(f"metrics.{metric}_ms", "ms", [f"metrics.{span}"],
             lambda s=s: per(s, s.calls))

    csv_w, csv_r = get("dataio.save_trajectory_csv"), get("dataio.load_trajectory_csv")
    ck_w, ck_r = io_tr.get("dataio.save_checkpoint"), io_tr.get("dataio.load_checkpoint")
    emit("dataio.csv_write_ms", "ms", ["dataio.save_trajectory_csv"],
         lambda: per(csv_w, csv_w.calls))
    emit("dataio.csv_read_ms", "ms", ["dataio.load_trajectory_csv"],
         lambda: per(csv_r, csv_r.calls))
    emit("dataio.csv_bytes", "bytes", ["dataio.save_trajectory_csv"],
         lambda: tr.counts.get("dataio.csv_bytes", 0.0) / csv_w.calls
         if csv_w.calls else 0.0)
    emit("dataio.checkpoint_write_ms", "ms", ["dataio.save_checkpoint"],
         lambda: per(ck_w, ck_w.calls))
    emit("dataio.checkpoint_read_ms", "ms", ["dataio.load_checkpoint"],
         lambda: per(ck_r, ck_r.calls))
    emit("dataio.checkpoint_bytes", "bytes", ["dataio.save_checkpoint"],
         lambda: io_tr.counts.get("dataio.checkpoint_bytes", 0.0) / ck_w.calls
         if ck_w.calls else 0.0)
    return out


def orca_sweep(seeds: Seeds, sizes: Sizes) -> dict:
    """``orca_adjust`` once on a converged normalised sphere of each size."""
    out = {}
    nav = navigation.NavConfig(kappa=KAPPA, dt=1.0 / sizes.goal_steps)
    for m in sizes.sweep:
        positions = sphere(max(2, m // sizes.sweep_divisor), seeds.data)
        t0 = clock()
        v = navigation.orca_adjust(np.zeros_like(positions), positions, nav)
        elapsed = clock() - t0
        check_finite(f"sweep m={m}", v)
        out[f"navigation.orca_ms_m{m}"] = 1e3 * elapsed
        out[f"navigation.neighbors_per_agent_m{m}"] = neighbors_per_agent(
            [positions], nav.culling_radius)
    return out


# ---------------------------------------------------------------------------
# one run


class Operations:
    """Counts attempted and failed operations; a failure is an exception
    or a failed output check, reported on stderr and never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, what, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:  # every failure is counted, the run goes on
            self.failed += 1
            print(f"perfbench: {what} failed", file=sys.stderr)
            traceback.print_exc()
            return None


def _median(values):
    return statistics.median(values) if values else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Machine and library facts recorded with every result."""
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v, "unset") for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "SWARMFLOW_THREADS")}}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            fields = [read_file(os.path.join(base, index, f)).decode().strip()
                      for f in ("level", "type", "size")]
        except OSError:
            continue
        caches[f"L{fields[0]}-{fields[1]}"] = fields[2]
    info["caches"] = caches
    try:
        info["openblas"] = np.show_config(mode="dicts")[
            "Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        info["openblas"] = "unknown"
    return info


def run_workload(name: str, seeds: Seeds = Seeds(), seconds: float = 10.0,
                 trace: bool = False, sizes: Sizes = Sizes()):
    """Run one workload; returns ``(result, context)``.

    ``result`` is the benchmark's result line: every end-to-end metric
    (untraced) or every per-layer metric (``trace``).  ``context`` records
    seeds, sample counts, the environment and the layer shares.
    """
    workload = WORKLOADS[name](seeds, sizes)
    ops = Operations()
    setup_times, repeats = [], []
    speeds = {"setup": [], "repeat": []}  # mean machine speed of each
    layer, shares, absent = {}, {}, []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.getcwd()) as tmp:
        state = setup_digest = None

        def set_up():
            nonlocal state, setup_digest
            state = None
            gc.collect()
            with SpeedProbe(workload.setup_burst) as probe:
                t0 = clock()
                state, d = workload.setup(tmp)
                elapsed = probe.seconds(t0, clock())
            speeds["setup"].append(probe.speed())
            check(setup_digest in (None, d), "set-up repeats differ")
            setup_digest = d
            return elapsed

        for _ in range(SETUP_REPEATS):
            elapsed = ops.attempt("set-up", set_up)
            if elapsed is not None:
                setup_times.append(elapsed)

        def timed():
            gc.collect()  # every repeat starts from the same heap
            with SpeedProbe(workload.run_burst) as probe:
                r = workload.run(state, tmp, probe)
            speeds["repeat"].append(probe.speed())
            r.probe = probe
            check(not repeats or r.digest == repeats[0].digest,
                  "repeats give different outputs")
            return r

        rss_after_setup = peak_rss_mb()
        start = clock()
        durations = []  # uncorrected seconds of each repeat with its checks
        # start a repeat only if one as long as the median so far still
        # ends within the run's seconds
        while state is not None and (
                len(repeats) < MIN_REPEATS
                or clock() - start + _median(durations) <= seconds):
            t0 = clock()
            r = ops.attempt("repeat", timed)
            if r is None:
                break
            durations.append(clock() - t0)
            r.log = None  # only the traced repeat's log is needed
            repeats.append(r)

        if trace and repeats:
            with Tracer() as io_tr:
                trace_dataio(io_tr)
                ops.attempt("traced set-up", set_up)
            traced = None
            with Tracer() as tr:
                trace_layers(tr)
                traced = ops.attempt("traced repeat", timed)
            sweep = ops.attempt("orca_adjust sweep", lambda: orca_sweep(seeds, sizes))
            if traced is not None and sweep is not None:
                layer = layer_metrics(tr, io_tr, traced.log, sweep)
                untraced_wall = _median([r.wall for r in repeats])
                layer["trace.overhead_frac"] = (traced.wall / untraced_wall - 1.0, "1")
                layer.update(workload_details(name, repeats))
                absent = sorted(set(tr.absent) | set(io_tr.absent))
                train = tr.get("flowmatch.train")
                sampled = sum(s.total for s in (tr.get("sampling.sample"),
                                                tr.get("sampling.sample_cfm_plus_orca")))
                shares = {
                    "navigation_of_sampling": tr.get("navigation.orca_adjust").total
                    / sampled if sampled else 0.0,
                    # train time corrected like the wall
                    "training_of_wall": sum(
                        traced.probe.seconds(s, e) for s, e in zip(
                            train.starts, train.ends)) / traced.wall,
                }

    correct = ops.failed == 0
    if trace:
        metric_values = layer
    else:
        metric_values = {
            "setup_s": (_median(setup_times), "s"),
            "wall_s": (_median([r.wall for r in repeats]), "s"),
            "throughput_per_s": (_median([r.rate for r in repeats]), "1/s"),
            "result_error": (_median([r.error for r in repeats]), "1"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_frac": ((ops.attempted - ops.failed) / ops.attempted, "1"),
        }
    result = {
        "correct": correct, "attempted": ops.attempted, "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metric_values.items() if v is not None},
    }
    context = {
        "workload": name, "seeds": seeds.as_dict(), "seconds": seconds,
        "trace": bool(trace),
        "samples": {"setup_s": len(setup_times), "repeats": len(repeats)},
        "setup_times_s": setup_times,
        "repeat_walls_s": [r.wall for r in repeats],
        "machine_speed": speeds,
        "peak_rss_after_setup_mb": rss_after_setup, "absent": absent,
        "layer_shares": shares, "environment": environment(),
    }
    return result, context


DETAILS = ("train_loss", "evaluate_s", "csv_roundtrip_s", "final_chamfer",
           "fin_pct", "min_separation")
DETAIL_UNITS = {"evaluate_s": "s", "csv_roundtrip_s": "s"}


def workload_details(name: str, repeats) -> dict:
    """The workload's own end-to-end figures (medians of the untraced
    repeats), reported with the per-layer metrics; 0 where a figure does
    not apply to the workload."""
    out = {}
    rate = _median([r.rate for r in repeats])
    out["workload.train_steps_per_s"] = (
        rate if name == "train-fixture" else 0.0, "1/s")
    out["workload.sample_agent_steps_per_s"] = (
        0.0 if name == "train-fixture" else rate, "1/s")
    for key in DETAILS:
        values = [r.detail[key] for r in repeats if key in r.detail]
        out[f"workload.{key}"] = (_median(values) if values else 0.0,
                                  DETAIL_UNITS.get(key, "1"))
    return out
