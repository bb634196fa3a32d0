"""Estimation-theory toolkit for optical tilt sensing.

Models the outcome statistics of four ways to measure the tilt of a
reflecting surface with a Gaussian beam (direct position imaging, a quadrant
detector, and interferometric polarization measurements with or without
position resolution), computes their Fisher information against the quantum
bounds, and verifies Cramer-Rao saturation by Monte Carlo maximum-likelihood
estimation.
"""

from .beam import BeamParams, intensity_profile
from .estimate import (
    MleResult,
    SaturationReport,
    log_likelihood,
    mle,
    run_saturation,
    sample_outcomes,
    trial_rng,
)
from .fisher import (
    analytic_fisher,
    cramer_rao_bound,
    fisher_conditioned,
    fisher_position,
    fisher_quadrant,
    fisher_sagnac_polarization,
    interference_coefficients,
    qfi_beam_deflection,
    qfi_for_model,
    qfi_mach_zehnder,
    qfi_sagnac,
)
from .oracle import OracleError, numeric_fisher_oracle
from .polarization import PolarizationState
from .schemes import (
    ConditionedPolarizationModel,
    FisherDecomposition,
    PolarizationModel,
    PositionModel,
    PositionPolarizationModel,
    QuadrantModel,
    conditioned_polarization_probabilities,
    quadrant_probabilities,
    sagnac_joint_density,
    sagnac_polarization_probabilities,
    small_angle_flags,
)

__version__ = "0.1.0"

__all__ = [
    "BeamParams",
    "PolarizationState",
    "ConditionedPolarizationModel",
    "PolarizationModel",
    "PositionModel",
    "PositionPolarizationModel",
    "QuadrantModel",
    "FisherDecomposition",
    "MleResult",
    "SaturationReport",
    "OracleError",
    "analytic_fisher",
    "cramer_rao_bound",
    "conditioned_polarization_probabilities",
    "fisher_conditioned",
    "fisher_position",
    "fisher_quadrant",
    "fisher_sagnac_polarization",
    "intensity_profile",
    "interference_coefficients",
    "log_likelihood",
    "mle",
    "numeric_fisher_oracle",
    "qfi_beam_deflection",
    "qfi_for_model",
    "qfi_mach_zehnder",
    "qfi_sagnac",
    "quadrant_probabilities",
    "run_saturation",
    "sagnac_joint_density",
    "sagnac_polarization_probabilities",
    "sample_outcomes",
    "small_angle_flags",
    "trial_rng",
    "__version__",
]
