"""Multiuser mmWave uplink channel estimation via tensor CP factorization.

Layered pilot measurements form a third-order tensor whose CP factors carry
the compressed per-path array responses; decomposing it decouples the joint
multiuser problem into per-user sparse angle-gain recovery.  A direct
compressed-sensing estimator and a Monte-Carlo benchmark harness are included
for comparison experiments.
"""

from .tensor_core import (
    ComplexTensor3,
    FactorTriple,
    compose,
    fold,
    frobenius_norm,
    inner_product,
    khatri_rao,
    mode_n_product,
    unfold,
)
from .channel_sim import (
    GeometricChannel,
    PathParams,
    assemble,
    assemble_all,
    sample_channel,
    sample_channel_on_grid,
)
from .training_design import (
    TrainingDesign,
    build_design,
    check_uniqueness,
    krank,
    krank_partitioned,
    mutual_coherence,
    pilot_matrix,
    random_unit_modulus,
    welch_bound,
)
from .measurement import MeasurementTensor, ideal_factors, simulate
from .cp_als import AlsConfig, CpResult, als_known_rank, als_regularized
from .sparse_solver import AngleGrid, FistaConfig, build_dictionary, fista
from .channel_recovery import (
    EstimationResult,
    PipelineConfig,
    estimate_all,
    nmse,
    resolve_ambiguity,
)
from .cs_baseline import CsProblem, assemble_problem, solve_cs
from .bench import ExperimentConfig, ResultRow, load_config, run_sweep

__version__ = "0.1.0"
