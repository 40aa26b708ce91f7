"""Command-line interface.

Subcommands cover the full pipeline: ``make-data`` writes synthetic
shape clouds, ``train`` fits the flow model (or the diffusion baseline),
``sample`` / ``sample-diffusion`` / ``sample-cfm-orca`` generate
trajectories, ``evaluate`` scores them, and ``export`` extracts point
clouds from a trajectory.  All outputs are deterministic given the seed:
rerunning a command byte-identically reproduces its files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import dataio, diffusion, flowmatch, metrics, sampling
from .models import ModelConfig, _open_new, models_from_checkpoint

_TRAIN_KEYS = {f.name for f in fields(flowmatch.TrainConfig)}
_MODEL_KEYS = {f.name for f in fields(ModelConfig)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmflow",
        description="Swarm choreography via flow matching with reciprocal "
                    "collision avoidance.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-data", help="write synthetic shape clouds")
    p.add_argument("--kind", required=True,
                   choices=["sphere", "torus", "plane", "helix"])
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="fit a model on a directory of clouds")
    p.add_argument("--data", required=True, help="directory of .xyz clouds")
    p.add_argument("--config", help="key = value settings file")
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.add_argument("--epochs", type=int, help="overrides the config epochs")
    p.add_argument("--algorithm", choices=["flow", "diffusion"],
                   help="overrides the config algorithm (default flow)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="sample a trajectory from a flow model")
    _sampling_args(p)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--no-orca", action="store_true",
                   help="integrate the raw field without collision avoidance")

    p = sub.add_parser("sample-diffusion",
                       help="ancestral sampling from a diffusion checkpoint")
    _sampling_args(p)

    p = sub.add_parser("sample-cfm-orca",
                       help="flow model picks the goal cloud, straight-line "
                            "collision-avoidance navigation flies to it")
    _sampling_args(p)
    p.add_argument("--steps", type=int, default=100)

    p = sub.add_parser("evaluate", help="score trajectories")
    p.add_argument("--trajectories", nargs="+", required=True,
                   help="trajectory CSV files and/or directories of them")
    p.add_argument("--reference", help="directory of reference .xyz clouds")
    p.add_argument("--kappa", type=float,
                   help="collision radius (default: trajectory metadata)")
    p.add_argument("--scale", nargs="?", const=200.0, type=float,
                   help="convert training-scale inputs to a cube of this "
                        "many meters (default 200) before scoring")
    p.add_argument("--out", help="directory for metrics.txt / metrics.kv")

    p = sub.add_parser("export", help="extract point clouds from a trajectory")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--frames", action="store_true",
                   help="write every frame, not just the final cloud")
    p.add_argument("--scale", nargs="?", const=200.0, type=float)
    p.add_argument("--out", required=True)

    return parser


def _sampling_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--agents", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kappa", type=float,
                   help="collision radius (default: checkpoint setting)")
    p.add_argument("--scale", nargs="?", const=200.0, type=float,
                   help="also convert the trajectory to a cube of this many "
                        "meters (default 200)")
    p.add_argument("--out", required=True)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "make-data": _cmd_make_data,
        "train": _cmd_train,
        "sample": _cmd_sample,
        "sample-diffusion": _cmd_sample_diffusion,
        "sample-cfm-orca": _cmd_sample_cfm_orca,
        "evaluate": _cmd_evaluate,
        "export": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        raise
    except Exception as err:  # uniform CLI error reporting
        print(f"error: {err}", file=sys.stderr)
        return 1


def _cmd_make_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clouds = dataio.make_synthetic_dataset(args.kind, args.points,
                                           args.count, args.seed)
    for i, cloud in enumerate(clouds):
        dataio.save_pointcloud(out / f"cloud_{i:03d}.xyz", cloud)
    print(f"wrote {len(clouds)} {args.kind} cloud(s) to {out}")
    return 0


def _split_config(raw: dict):
    train_kwargs, model_kwargs, diff_kwargs = {}, {}, {}
    algorithm = None
    for key, value in raw.items():
        if key == "algorithm":
            if value not in ("flow", "diffusion"):
                raise ValueError(f"unknown algorithm {value!r}")
            algorithm = value
        elif key in _TRAIN_KEYS:
            train_kwargs[key] = value
        elif key in _MODEL_KEYS:
            if key == "encoder_widths" and isinstance(value, int):
                value = (value,)  # one width reads as a bare int
            model_kwargs[key] = value
        elif key in diffusion.CONFIG_KEYS:
            diff_kwargs[diffusion.CONFIG_KEYS[key]] = value
        else:
            raise ValueError(f"unknown config key {key!r}")
    return train_kwargs, model_kwargs, diff_kwargs, algorithm


def _normalized_clouds(directory) -> list:
    """The ``*.xyz`` clouds of ``directory`` in name order, each moved
    into the normalized space that ``train`` fits and trajectories live
    in."""
    paths = sorted(Path(directory).glob("*.xyz"))
    if not paths:
        raise ValueError(f"no .xyz clouds in {directory}")
    return [dataio.normalize_cloud(dataio.load_pointcloud(p))[0]
            for p in paths]


def _cmd_train(args) -> int:
    dataset = _normalized_clouds(args.data)
    raw = dataio.parse_config_file(args.config) if args.config else {}
    train_kwargs, model_kwargs, diff_kwargs, algorithm = _split_config(raw)
    if args.seed is not None:
        train_kwargs["seed"] = args.seed
    if args.epochs is not None:
        train_kwargs["epochs"] = args.epochs
    if args.algorithm is not None:
        algorithm = args.algorithm
    algorithm = algorithm or "flow"
    train_config = flowmatch.TrainConfig(**train_kwargs)
    model_config = ModelConfig(**model_kwargs)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train.log"
    if algorithm == "flow":
        if diff_kwargs:
            raise ValueError("diffusion settings given for a flow run")
        ckpt = flowmatch.train(dataset, train_config, model_config,
                               log_path=log_path)
    else:
        sched = diffusion.DiffusionSchedule(**diff_kwargs)
        ckpt = diffusion.train(dataset, train_config, model_config, sched,
                               log_path=log_path)
    ckpt_path = out / "checkpoint.swf"
    dataio.save_checkpoint(ckpt_path, ckpt)
    print(f"trained {algorithm} model on {len(dataset)} cloud(s) for "
          f"{ckpt.step_count} steps; final loss {ckpt.final_loss:.6g}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def _write_trajectory(log, out_dir, scale) -> None:
    scene = None if scale is None else dataio.SceneScale(side=scale)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataio.save_trajectory_csv(out / "trajectory.csv", log)
    if scene is not None:
        real = dataio.to_real_scale(log, scene)
        dataio.save_trajectory_csv(out / "trajectory_real.csv", real)
    print(f"trajectory: {out / 'trajectory.csv'}")


def _sample_config(args, ckpt, steps: int,
                   use_orca: bool) -> sampling.SampleConfig:
    """The run settings of every sampling command; ``kappa`` comes from
    ``--kappa``, else from the checkpoint's training config, else the
    ``SampleConfig`` default."""
    cfg = sampling.SampleConfig(num_agents=args.agents, steps=steps,
                                use_orca=use_orca, seed=args.seed)
    if args.kappa is not None:
        return replace(cfg, kappa=args.kappa)
    try:  # the flag settings passed above, so only kappa can fail here
        return replace(cfg, kappa=ckpt.train_config.get("kappa", cfg.kappa))
    except ValueError as err:
        raise ValueError(
            f"{args.checkpoint}: bad stored kappa: {err}") from None


def _warn_unguarded(log) -> None:
    """One stderr line when steps of an avoidance run were unguarded: an
    agent could move far enough that pairs starting beyond the culling
    radius, which avoidance ignores, may end closer than kappa."""
    count = sampling.unguarded_steps(log)
    if count:
        print(f"warning: {count} of {log.num_steps} steps unguarded "
              f"(kappa + 2*v_max*h > culling radius 4*kappa): agents "
              f"farther apart than 4*kappa were not avoided and may end "
              f"closer than kappa; more --steps shorten h", file=sys.stderr)


def _cmd_sample(args) -> int:
    ckpt = dataio.load_checkpoint(args.checkpoint)
    log = sampling.sample(
        ckpt, _sample_config(args, ckpt, args.steps, not args.no_orca))
    _write_trajectory(log, args.out, args.scale)
    if not args.no_orca:
        _warn_unguarded(log)
    return 0


def _cmd_sample_diffusion(args) -> int:
    ckpt = dataio.load_checkpoint(args.checkpoint)
    if ckpt.algorithm != "diffusion":
        raise ValueError(
            f"expected a diffusion checkpoint, got {ckpt.algorithm!r}")
    try:
        sched = diffusion.DiffusionSchedule.from_train_config(
            ckpt.train_config)
    except ValueError as err:  # a wrong-typed or out-of-range stored value
        raise ValueError(
            f"{args.checkpoint}: bad diffusion schedule: {err}") from None
    # DDPM runs no avoidance; kappa is validated and logged for evaluate
    cfg = _sample_config(args, ckpt, sched.n_steps, use_orca=False)
    models = models_from_checkpoint(ckpt)
    rng = np.random.default_rng(cfg.seed)
    log = diffusion.ddpm_sample(models, sched, cfg.num_agents, rng)
    log.meta.update(kappa=cfg.kappa, seed=cfg.seed)
    _write_trajectory(log, args.out, args.scale)
    return 0


def _cmd_sample_cfm_orca(args) -> int:
    ckpt = dataio.load_checkpoint(args.checkpoint)
    # one config for both flights: sample_cfm_plus_orca ignores use_orca
    cfg = _sample_config(args, ckpt, args.steps, use_orca=False)
    plain = sampling.sample(ckpt, cfg)
    log = sampling.sample_cfm_plus_orca(plain.final_cloud(),
                                        plain.positions[0], cfg)
    _write_trajectory(log, args.out, args.scale)
    _warn_unguarded(log)
    return 0


def _collect_trajectories(entries) -> list:
    """Logs of the named files and of every ``*.csv`` in the named
    directories.  In a directory, ``X_real.csv`` is skipped when ``X.csv``
    is there too: it is the same run, written by ``--scale``."""
    paths = []
    for entry in entries:
        p = Path(entry)
        if p.is_dir():
            found = sorted(p.glob("*.csv"))
            names = {f.name for f in found}
            paths.extend(f for f in found if not (
                f.name.endswith("_real.csv")
                and f.name[:-len("_real.csv")] + ".csv" in names))
        else:
            paths.append(p)
    logs = [dataio.load_trajectory_csv(p) for p in paths]
    if not logs:
        raise ValueError("no trajectory files found")
    return logs


def _cmd_evaluate(args) -> int:
    logs = _collect_trajectories(args.trajectories)
    reference = (_normalized_clouds(args.reference) if args.reference
                 else None)
    if args.scale is not None:
        scene = dataio.SceneScale(side=args.scale)
        logs = [dataio.to_real_scale(lg, scene)
                if lg.meta.get("scale") != "real" else lg for lg in logs]
        if reference is not None:
            reference = [cloud * scene.factor for cloud in reference]
    kappa = args.kappa
    if kappa is None:
        recorded = sorted({float(lg.meta.get("kappa", 0.0)) for lg in logs})
        if len(recorded) > 1:
            raise ValueError(
                f"trajectories record different kappa values "
                f"{', '.join(map(repr, recorded))}; pass --kappa explicitly")
        kappa = recorded[0]
        if kappa <= 0.0:
            raise ValueError(
                "collision radius unavailable; pass --kappa explicitly")
    report = metrics.evaluate_logs(logs, kappa, reference)
    text = metrics.report_text(report)
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, body in (("metrics.txt", text),
                           ("metrics.kv", metrics.report_keyvalues(report))):
            with _open_new(out / name) as fh:
                fh.write(body)
        print(f"reports: {out / 'metrics.txt'}, {out / 'metrics.kv'}")
    return 0


def _cmd_export(args) -> int:
    log = dataio.load_trajectory_csv(args.trajectory)
    if args.scale is not None and log.meta.get("scale") != "real":
        log = dataio.to_real_scale(log, dataio.SceneScale(side=args.scale))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.frames:
        for k in range(log.positions.shape[0]):
            dataio.save_pointcloud(out / f"frame_{k:04d}.xyz",
                                   log.positions[k])
        print(f"wrote {log.positions.shape[0]} frames to {out}")
    else:
        dataio.save_pointcloud(out / "final_cloud.xyz", log.final_cloud())
        print(f"final cloud: {out / 'final_cloud.xyz'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
