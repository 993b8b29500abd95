"""Sign-algorithm adaptive filters with per-tap and per-block proportionate
step-size control, plus a seeded benchmark harness for sparse and block-sparse
system identification under impulsive noise.
"""

from apsabench.filters import (
    FilterParams,
    FilterState,
    GainVariant,
    apsa_step,
    bs_gains,
    bs_mip_apsa_step,
    error_vector,
    ip_gains,
    mip_apsa_step,
    normalized_update,
    shift_memory,
    sign_vector,
)
from apsabench.signals import (
    NoiseModel,
    SeededStream,
    ar1_colored,
    bernoulli_gaussian,
    scale_to_ratio,
    speech_like,
    white_gaussian,
)
from apsabench.echo_path import (
    EchoPath,
    PathSchedule,
    make_block_sparse,
    path_at,
)
from apsabench.harness import (
    ExperimentConfig,
    MisalignmentTrace,
    misalignment_db,
    run_ensemble,
    run_trial,
)

__version__ = "0.1.0"

__all__ = [
    "FilterParams",
    "FilterState",
    "GainVariant",
    "apsa_step",
    "bs_gains",
    "bs_mip_apsa_step",
    "error_vector",
    "ip_gains",
    "mip_apsa_step",
    "normalized_update",
    "shift_memory",
    "sign_vector",
    "NoiseModel",
    "SeededStream",
    "ar1_colored",
    "bernoulli_gaussian",
    "scale_to_ratio",
    "speech_like",
    "white_gaussian",
    "EchoPath",
    "PathSchedule",
    "make_block_sparse",
    "path_at",
    "ExperimentConfig",
    "MisalignmentTrace",
    "misalignment_db",
    "run_ensemble",
    "run_trial",
    "__version__",
]
