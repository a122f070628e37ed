"""N-level entanglement-based QKD: cloning attacks, thresholds, simulation."""

from .qudit import BasisMatrix, StateVector, optimal_angles, phi_basis
from .bell import BellIndex, bell_overlap, bell_state, overlap_matrix
from .cloner import (
    AmplitudeMatrix,
    ClassPartition,
    CloneParams,
    fidelity_disturbances,
    invariance_classes,
    joint_distribution,
    params_to_matrix,
    werner_noise_fraction,
)
from .info import entropy, eve_conditional, i_ab, i_ae
from .thresholds import (
    ThresholdRecord,
    crossover_fidelity,
    fidelity_threshold,
    max_eve_info,
    security_report,
    visibility_threshold,
)
from .sim import ProtocolConfig, SimReport, conjugate_pairs, empirical_info, run_simulation

__version__ = "0.1.0"

__all__ = [
    "AmplitudeMatrix",
    "BasisMatrix",
    "BellIndex",
    "ClassPartition",
    "CloneParams",
    "ProtocolConfig",
    "SimReport",
    "StateVector",
    "ThresholdRecord",
    "bell_overlap",
    "bell_state",
    "conjugate_pairs",
    "crossover_fidelity",
    "empirical_info",
    "entropy",
    "eve_conditional",
    "fidelity_disturbances",
    "fidelity_threshold",
    "i_ab",
    "i_ae",
    "invariance_classes",
    "joint_distribution",
    "max_eve_info",
    "optimal_angles",
    "overlap_matrix",
    "params_to_matrix",
    "phi_basis",
    "run_simulation",
    "security_report",
    "visibility_threshold",
    "werner_noise_fraction",
]
