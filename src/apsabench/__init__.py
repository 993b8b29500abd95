"""Sign-algorithm adaptive filters with per-tap and per-block proportionate
step-size control, plus a seeded benchmark harness for sparse and block-sparse
system identification under impulsive noise.
"""

from apsabench.echo_path import PathSchedule, make_block_sparse
from apsabench.filters import STEPPERS, FilterParams, FilterState, GainVariant
from apsabench.harness import ExperimentConfig, MisalignmentTrace, run_ensemble
from apsabench.signals import NoiseModel, SeededStream

__version__ = "0.1.0"
