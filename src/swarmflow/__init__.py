"""swarmflow: drone-swarm choreography via flow matching on point clouds
with reciprocal collision avoidance.

The public surface re-exports the main types and entry points; see the
README for the full pipeline (make-data -> train -> sample -> evaluate).
"""

from .autodiff import Node, ShapeMismatchError, backward
from .diffusion import DiffusionSchedule, ddpm_sample
from .flowmatch import (SIGMA_MIN, Adam, TrainConfig, TrainingDiverged,
                        cfm_loss, scheduled_lr, train)
from .dataio import (NormalizationTransform, SceneScale, load_checkpoint,
                     load_pointcloud, load_trajectory_csv,
                     make_synthetic_dataset, normalize_cloud,
                     parse_config_file, save_checkpoint, save_pointcloud,
                     save_trajectory_csv, to_real_scale)
from .metrics import (MetricsReport, chamfer, collision_rates,
                      coverage_and_mmd, distance_traveled, evaluate_logs,
                      smoothness)
from .models import (Checkpoint, CouplingBijector, GatedContextualNet,
                     ModelConfig, ModelSet, PointSetEncoder, build_models,
                     kl_divergence, models_from_checkpoint)
from .navigation import NavConfig, build_orca_halfspace, orca_adjust
from .sampling import SampleConfig, TrajectoryLog, sample, sample_cfm_plus_orca

__version__ = "0.1.0"
