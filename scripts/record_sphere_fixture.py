"""Record the acceptance-fixture thresholds for the sphere task.

Runs the exact pipeline the acceptance tests replay (same seeds, same
configs), measures the resulting quality/safety/kinematic numbers, and
freezes them — with safety margins where a threshold is asserted — into
tests/fixtures/sphere_thresholds.json.  Rerun this script to regenerate
the fixture after an intentional behavior change; the diff then documents
the change.

Usage:  python3 scripts/record_sphere_fixture.py
"""

import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import swarmflow as sf  # noqa: E402
from swarmflow import diffusion  # noqa: E402

FIXTURE = {
    "data": {"kind": "sphere", "n_points": 512, "seed": 20},
    "train": {"epochs": 2000, "seed": 0, "learning_rate": 1e-3},
    # latent 16 at desk scale: a single training shape carries no shape
    # variability for a code to explain, so a wide latent only injects
    # posterior sampling noise the field has to average out
    "model": {"latent_dim": 16},
    "sample": {"agents": 512, "steps": 100, "seed": 1, "kappa": 0.06},
    "sweep_steps": [5, 25, 100],
}


def build_dataset():
    clouds = sf.make_synthetic_dataset(FIXTURE["data"]["kind"],
                                       FIXTURE["data"]["n_points"],
                                       1, FIXTURE["data"]["seed"])
    return [sf.normalize_cloud(c)[0] for c in clouds]


def train_models(dataset):
    tc = sf.TrainConfig(epochs=FIXTURE["train"]["epochs"],
                        seed=FIXTURE["train"]["seed"],
                        learning_rate=FIXTURE["train"]["learning_rate"])
    mc = sf.ModelConfig(**FIXTURE["model"])
    t0 = time.time()
    flow_ckpt = sf.train(dataset, tc, mc)
    flow_time = time.time() - t0
    t0 = time.time()
    diff_ckpt = diffusion.train(dataset, tc, mc)
    diff_time = time.time() - t0
    return flow_ckpt, diff_ckpt, flow_time, diff_time


def main():
    dataset = build_dataset()
    reference = dataset[0]
    flow_ckpt, diff_ckpt, flow_time, diff_time = train_models(dataset)

    s = FIXTURE["sample"]
    cfg_orca = sf.SampleConfig(num_agents=s["agents"], steps=s["steps"],
                               use_orca=True, seed=s["seed"], kappa=s["kappa"])
    cfg_plain = sf.SampleConfig(num_agents=s["agents"], steps=s["steps"],
                                use_orca=False, seed=s["seed"], kappa=s["kappa"])
    log_orca = sf.sample(flow_ckpt, cfg_orca)
    log_plain = sf.sample(flow_ckpt, cfg_plain)
    log_goal = sf.sample_cfm_plus_orca(log_plain.final_cloud(),
                                       log_plain.positions[0], cfg_orca)
    rng = np.random.default_rng(s["seed"])
    models_d = sf.models_from_checkpoint(diff_ckpt)
    log_diff = diffusion.ddpm_sample(models_d, diffusion.DiffusionSchedule(),
                                     s["agents"], rng)

    def stats(log):
        rep = sf.evaluate_logs([log], kappa=s["kappa"], reference=[reference])
        d = rep.as_dict()
        d["CD_vs_reference"] = sf.chamfer(log.final_cloud(), reference)
        return d

    results = {
        "flow_orca": stats(log_orca),
        "flow_plain": stats(log_plain),
        "orca_to_goal": stats(log_goal),
        "diffusion": stats(log_diff),
    }

    sweep = {}
    for steps in FIXTURE["sweep_steps"]:
        cfg = sf.SampleConfig(num_agents=s["agents"], steps=steps,
                              use_orca=True, seed=s["seed"], kappa=s["kappa"])
        sweep[str(steps)] = stats(sf.sample(flow_ckpt, cfg))

    out = {
        "fixture": FIXTURE,
        "model_config": asdict(sf.ModelConfig(**FIXTURE["model"])),
        "observed": {
            "train_minutes_flow": flow_time / 60.0,
            "train_minutes_diffusion": diff_time / 60.0,
            "loss_final": flow_ckpt.final_loss,
            "loss_final_diffusion": diff_ckpt.final_loss,
            "results": results,
            "dt_sweep": sweep,
        },
        "thresholds": {
            # asserted by the acceptance suite:
            "chamfer_flow_orca": 1.5 * results["flow_orca"]["CD_vs_reference"],
        },
    }
    path = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / \
        "sphere_thresholds.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    print(json.dumps(out["observed"], indent=2, sort_keys=True,
                     default=float)[:4000])


if __name__ == "__main__":
    main()
