"""Print SHA-256 digests of the artefacts a behaviour-preserving change
must leave byte-identical, as one JSON line of name -> hex digest.

With one BLAS thread it rebuilds:

- the fixture CLI run in RUN_DIR (see below): ``make-data`` (512-point
  sphere, seed 20), ``train`` for flow and for diffusion (``latent_dim``
  16, 2000 epochs, seed 0), then ``sample`` with ``--scale``,
  ``sample --no-orca``, ``sample-cfm-orca`` and ``sample-diffusion``
  (512 agents, seed 1), ``evaluate`` of the ``--scale`` run, in
  training units and, with ``--scale``, of both its trajectories in
  meters (``evaluate-scale``), and ``export`` of the ``--scale``
  run's final cloud and of its every frame (``--frames``).  Every file the
  run writes is digested under its path in that directory, so
  checkpoints, train logs, trajectories, their sidecars, the metrics
  reports and the exported clouds are all covered;
- training on several clouds: ``make-data`` of three 128-point tori
  (seed 7), then ``train`` on all three for flow and for diffusion
  (``latent_dim`` 16, 50 epochs of three steps, seed 0), digested the
  same way (``clouds-flow/...``, ``clouds-diffusion/...``);
- the arrays ``load_trajectory_csv`` reads back from the ``--scale`` run's
  two trajectories (``read/sample/...``: times, positions and applied
  velocities);
- the ``--scale`` ``sample`` run again, with the same arguments, into the
  same ``--out``, so the files a rerun writes over the first run's are
  digested too (``rerun/sample/...``);
- the trained parameters of all four checkpoints (``params/...``), which
  stay equal when only the checkpoint format changes;
- a large flight: ``sample`` from the fixture's flow checkpoint with
  4096 agents, 4 steps and no avoidance (``large-flight/m4096``), where
  the field's products are large enough to take other BLAS kernels than
  at 512 agents;
- an exact-target integration (``integrate_exact_target``, 512 points,
  100 steps);
- ``goal-2048`` flights (``sample_cfm_plus_orca``, 2048 agents x 8
  steps, as perfbench sets them up) at seeds 0, 3 and 5;
- ``orca_adjust`` on converged normalised spheres of 512 to 4096 agents
  with zero preferred velocities;
- one ``orca_adjust`` step on a crafted swarm (``orca-edge``) that holds
  coincident agents, overlapping pairs (some at rest relative to each
  other), exact head-on pairs along each axis and a dense random
  cluster, so every branch of the half-space builder and its mirrored
  rows are covered;
- ``chamfer`` both ways round on crafted pairs (``chamfer-edge/...``):
  two 2048-point spheres, lattices whose nearest neighbours tie, a cloud
  of repeated points, a one-point cloud, and a 9-point cloud against one
  of 2^18 + 3 points, longer than a block of ``metrics.chamfer`` holds,
  so that its blocks are single rows; and ``coverage_and_mmd`` of the
  first clouds of the pairs against the second ones.  Run with an older
  checkout's ``SRC``, these check the blocked distance against the dense
  matrix.

``tests/fixtures/digests.json`` holds the line, and
``tests/test_digests.py`` compares it with the line of the test session's
one run of this script (the ``digest_run`` fixture of
``tests/conftest.py``) and names every digest that differs.  A change that moves bytes on purpose rewrites that file
from this script's output and says why.  The digests depend on the BLAS
kernel, as acceptance check 10 does; the recorded line was the same on an
AMD EPYC and an Intel Xeon host, both with numpy 2.4.6.  To see which
outputs a change moves on a machine where the recorded line does not
hold, run this script on the parent and on the change there, and diff.

Usage:  python3 scripts/digests.py [SRC [RUN_DIR]]

SRC is the directory the ``swarmflow`` package is imported from (default:
this checkout's ``src``); point it at another checkout's ``src`` to get
that commit's line, then diff the two.  RUN_DIR is where the fixture CLI
run writes its files, and they are kept there (default: a temporary
directory, removed at the end).  It must be missing or an empty
directory: every file under it is digested by its relative path, so a
leftover file would add a name to the line.  The test suite runs the
script once into a kept RUN_DIR, and acceptance checks 06-08 and 10 and
the CLI warning tests of ``tests/test_acceptance.py`` read their
checkpoints, ``flow/checkpoint.swf`` and ``diffusion/checkpoint.swf``,
from it.  A run takes about 30 s on two cores of an AMD EPYC host and
about 85 s on two vCPUs of an Intel Xeon host, most of it the two
2000-step trainings.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
KAPPA = 0.06


def sha256(*parts) -> str:
    import numpy as np

    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes)
                 else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def cli(*argv) -> None:
    """Run one CLI command in process, keeping its messages off stdout."""
    from swarmflow.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"swarmflow {' '.join(argv)} exited {code}")


def cli_run(sf, root: Path) -> dict:
    (root / "fixture.cfg").write_text("latent_dim = 16\n")
    cli("make-data", "--kind", "sphere", "--points", "512",
        "--seed", "20", "--out", str(root / "data"))
    for algorithm in ("flow", "diffusion"):
        cli("train", "--data", str(root / "data"),
            "--config", str(root / "fixture.cfg"), "--epochs", "2000",
            "--seed", "0", "--algorithm", algorithm,
            "--out", str(root / algorithm))
    cli("make-data", "--kind", "torus", "--points", "128", "--count", "3",
        "--seed", "7", "--out", str(root / "tori"))
    for algorithm in ("flow", "diffusion"):
        cli("train", "--data", str(root / "tori"),
            "--config", str(root / "fixture.cfg"), "--epochs", "50",
            "--seed", "0", "--algorithm", algorithm,
            "--out", str(root / f"clouds-{algorithm}"))
    flow = str(root / "flow" / "checkpoint.swf")
    run = ("--agents", "512", "--seed", "1")
    cli("sample", "--checkpoint", flow, *run, "--scale",
        "--out", str(root / "sample"))
    cli("sample", "--checkpoint", flow, *run, "--no-orca",
        "--out", str(root / "no-orca"))
    cli("sample-cfm-orca", "--checkpoint", flow, *run,
        "--out", str(root / "cfm-orca"))
    cli("sample-diffusion", "--checkpoint",
        str(root / "diffusion" / "checkpoint.swf"), *run,
        "--out", str(root / "ddpm"))
    trajectory = str(root / "sample" / "trajectory.csv")
    cli("evaluate", "--trajectories", trajectory,
        "--reference", str(root / "data"), "--out", str(root / "evaluate"))
    cli("evaluate", "--trajectories", trajectory,
        str(root / "sample" / "trajectory_real.csv"),
        "--reference", str(root / "data"), "--scale",
        "--out", str(root / "evaluate-scale"))
    cli("export", "--trajectory", trajectory, "--out", str(root / "export"))
    cli("export", "--trajectory", trajectory, "--frames",
        "--out", str(root / "export-frames"))

    def files(under: Path, prefix: str = "") -> dict:
        return {prefix + path.relative_to(root).as_posix():
                sha256(path.read_bytes())
                for path in sorted(under.rglob("*")) if path.is_file()}

    out = files(root)
    for name in ("trajectory.csv", "trajectory_real.csv"):
        log = sf.load_trajectory_csv(root / "sample" / name)
        out[f"read/sample/{name}"] = sha256(
            log.times, log.positions, log.applied_velocities)
    cli("sample", "--checkpoint", flow, *run, "--scale",
        "--out", str(root / "sample"))
    out.update(files(root / "sample", "rerun/"))
    for algorithm in ("flow", "diffusion", "clouds-flow", "clouds-diffusion"):
        ckpt = sf.load_checkpoint(root / algorithm / "checkpoint.swf")
        out[f"params/{algorithm}"] = sha256(*(
            part for name, value in ckpt.params.items()
            for part in (name.encode(), value)))
    cfg = sf.SampleConfig(num_agents=4096, steps=4, use_orca=False, seed=1)
    out["large-flight/m4096"] = log_digest(
        sf.sample(sf.load_checkpoint(flow), cfg))
    return out


def sphere(sf, n: int, seed: int):
    cloud = sf.make_synthetic_dataset("sphere", n, 1, seed)[0]
    return sf.normalize_cloud(cloud)[0]


def log_digest(log) -> str:
    return sha256(log.times, log.positions, log.applied_velocities,
                  log.preferred_velocities)


def library_runs(sf) -> dict:
    import numpy as np
    from swarmflow.sampling import integrate_exact_target

    out = {}
    x0 = sphere(sf, 512, 20)
    noise = np.random.default_rng(1).standard_normal(x0.shape)
    out["exact-target"] = log_digest(integrate_exact_target(noise, x0, 100))
    for seed in (0, 3, 5):
        goal = sphere(sf, 2048, 20 + seed)
        start = np.random.default_rng(1 + seed).standard_normal(goal.shape)
        cfg = sf.SampleConfig(num_agents=2048, steps=8, use_orca=True,
                              seed=1 + seed, kappa=KAPPA)
        out[f"goal-2048/seed{seed}"] = log_digest(
            sf.sample_cfm_plus_orca(goal, start, cfg))
    nav = sf.NavConfig(kappa=KAPPA, dt=1.0 / 8)
    for m in (512, 1024, 2048, 4096):
        positions = sphere(sf, m, 20)
        out[f"orca-sweep/m{m}"] = sha256(
            sf.orca_adjust(np.zeros_like(positions), positions, nav))
    positions, v_pref = edge_swarm()
    out["orca-edge"] = sha256(sf.orca_adjust(v_pref, positions, nav))
    return out


def edge_swarm():
    """Positions and preferred velocities of the ``orca-edge`` swarm: its
    groups sit 1.0 apart along x, beyond the culling radius of one
    another, so each group's pairs are exactly the ones built here."""
    import numpy as np

    rng = np.random.default_rng(11)
    positions, velocities = [], []

    def group(p, v):
        base = np.array([len(positions), 0.0, 0.0])
        positions.append(base + p)
        velocities.append(v)

    for size in (2, 2, 3, 4):  # coincident agents, some with equal velocities
        point = rng.uniform(-0.1, 0.1, size=3)
        v = rng.standard_normal((size, 3))
        if size > 2:
            v[1] = v[0]
        group(np.repeat(point[None], size, axis=0), v)
    for rest in (False, True):  # overlapping pairs, moving or at rest
        for _ in range(3):
            offset = rng.standard_normal(3)
            offset *= rng.uniform(0.1, 0.9) * KAPPA / np.linalg.norm(offset)
            point = rng.uniform(-0.1, 0.1, size=3)
            v = np.zeros((2, 3)) if rest else rng.standard_normal((2, 3))
            group(np.stack([point, point + offset]), v)
    for axis in range(3):  # exact head-on along each axis
        for gap in (1.5, 3.0):
            point = rng.uniform(-0.1, 0.1, size=3)
            other = point.copy()
            other[axis] += gap * KAPPA
            v = np.zeros((2, 3))
            v[:, axis] = (1.5, -1.5)
            group(np.stack([point, other]), v)
    cluster = rng.normal(scale=1.5 * KAPPA, size=(200, 3))
    group(cluster, rng.standard_normal((200, 3)))
    return np.concatenate(positions), np.concatenate(velocities)


def chamfer_edges(sf) -> dict:
    import numpy as np

    rng = np.random.default_rng(13)
    steps = np.arange(-3, 4) * 0.25
    lattice = np.stack(np.meshgrid(steps, steps, steps, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    # each shifted point is equally near eight lattice points
    shifted = lattice[::2] + 0.125
    repeated = rng.standard_normal((40, 3))[rng.integers(0, 40, size=1500)]
    pairs = {
        "2048": (sphere(sf, 2048, 20), sphere(sf, 2048, 21)),
        "lattice": (lattice, shifted),
        "repeated": (repeated, rng.standard_normal((700, 3))),
        "one-point": (rng.standard_normal((1, 3)), sphere(sf, 2048, 22)),
        "wide": (rng.standard_normal((9, 3)),
                 rng.standard_normal(((1 << 18) + 3, 3))),
    }
    out = {f"chamfer-edge/{name}": sha256(np.array(
        [sf.chamfer(a, b), sf.chamfer(b, a)])) for name, (a, b) in pairs.items()}
    # the wide pair would add little but time to the set-level metrics
    sets = [pair for name, pair in pairs.items() if name != "wide"]
    out["chamfer-edge/cov-mmd"] = sha256(np.array(sf.coverage_and_mmd(
        [a for a, _ in sets], [b for _, b in sets])))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "src", nargs="?", type=Path,
        default=Path(__file__).resolve().parent.parent / "src",
        help="directory holding the swarmflow package (default: ./src)")
    parser.add_argument(
        "run_dir", nargs="?", type=Path,
        help="missing or empty directory to write and keep the fixture CLI "
             "run in (default: a temporary directory)")
    args = parser.parse_args()
    src = args.src.resolve()
    if not (src / "swarmflow" / "__init__.py").is_file():
        raise SystemExit(f"{src}: no swarmflow package here")
    run_dir = args.run_dir
    if run_dir is not None and os.path.lexists(run_dir) \
            and not (run_dir.is_dir() and not any(run_dir.iterdir())):
        raise SystemExit(f"{run_dir}: RUN_DIR must be missing or an empty "
                         f"directory (every file under it is digested)")
    # set before numpy loads its BLAS, which reads them once
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import swarmflow as sf

    if run_dir is None:
        with tempfile.TemporaryDirectory() as tmp:
            out = cli_run(sf, Path(tmp))
    else:
        run_dir.mkdir(parents=True, exist_ok=True)
        out = cli_run(sf, run_dir)
    out.update(library_runs(sf))
    out.update(chamfer_edges(sf))
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
