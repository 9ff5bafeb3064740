"""basinlab: loss-basin geometry, complexity estimates, codes, and compression.

The library has four legs that the experiments tie together:

- `volume`: Monte Carlo sublevel-set volumes and the scaling-law fit that
  recovers the exponent lambda and multiplicity m;
- `llc`: SGLD / preconditioned SGLD sampling of the tempered, localized
  posterior and the resulting local-learning-coefficient estimate;
- `mdl`: epsilon-nets, reversed-KL ball volumes, two-part code lengths, and
  redundancy measurements on a finite outcome space, plus validators for the
  restricted-simplex KL inequalities;
- `compress`: quantization, low-rank factorization, Gaussian parameter noise,
  and unit pruning with retraining, each with a critical-threshold search.

`landscapes`, `bernoulli`, `mlp`, and `training` provide the toy models the
experiments run on; `cli` orchestrates seeded, CSV-producing runs.
"""

from .analysis import AnalysisResult, analyze, bits_per_coordinate, measured_bits_per_coordinate
from .bernoulli import SingularBernoulli
from .compress import (
    CriticalResult,
    FactorizationResult,
    MSearchConfig,
    PruneResult,
    QuantizationSpec,
    add_noise,
    critical_compression_fraction,
    critical_nq,
    critical_sigma,
    factorize,
    noise_delta_loss,
    prune_and_retrain,
    quantization_delta_loss,
    quantize,
    quantize_loss_min_m,
    quantize_max_abs,
)
from .landscapes import (
    Bounds,
    Landscape,
    NormalCrossingSpec,
    make_flat,
    make_normal_crossing,
    make_quadratic,
)
from .linalg import FitResult, SvdResult, linear_fit, svd
from .llc import LlcConfig, LlcEstimate, Preconditioner, estimate_llc, psgld_step, sgld_step
from .mdl import (
    EpsilonNet,
    RedundancyRun,
    build_eps_net,
    two_part_redundancy,
    validate_kl_l2,
    validate_kn_fluctuation,
    validate_triangle,
    validate_variance_bound,
    validate_volume_inclusions,
)
from .mlp import MlpModel, MlpSpec, MlpTask, make_teacher_task
from .rng import rng_stream
from .simplex import SimplexDist, kl, kl_bernoulli, sample_restricted
from .training import Checkpoint, load_checkpoint, save_checkpoint, train_sgd
from .csvio import __version__
from .volume import ScalingFit, VolumeCurve, default_ladder, fit_scaling, mc_sublevel_volume, volume_curve
