"""Estimation-theory toolkit for optical tilt sensing.

Models the outcome statistics of four ways to measure the tilt of a
reflecting surface with a Gaussian beam (direct position imaging, a quadrant
detector, and interferometric polarization measurements with or without
position resolution), computes their Fisher information against the quantum
bounds, and verifies Cramer-Rao saturation by Monte Carlo maximum-likelihood
estimation.
"""

import importlib

__version__ = "0.1.0"

# each export and the module that defines it; a name is imported on first use
# (PEP 562), so that ``import tiltsense.config`` loads neither numpy nor the models
_EXPORTS = {
    name: module
    for module, names in (
        ("_integrate", ("ConvergenceError",)),
        ("beam", ("BeamParams", "intensity_profile")),
        (
            "estimate",
            (
                "MleResult", "SaturationReport", "default_search_interval", "log_likelihood",
                "mle", "run_saturation", "sample_outcomes", "trial_rng",
            ),
        ),
        (
            "fisher",
            (
                "analytic_fisher", "cramer_rao_bound", "fisher_conditioned", "fisher_position",
                "fisher_quadrant", "fisher_sagnac_polarization", "interference_coefficients",
                "qfi_beam_deflection", "qfi_for_model", "qfi_mach_zehnder", "qfi_sagnac",
            ),
        ),
        ("oracle", ("OracleError", "numeric_fisher_oracle")),
        ("polarization", ("PolarizationState",)),
        (
            "schemes",
            (
                "ConditionedPolarizationModel", "FisherDecomposition", "PolarizationModel",
                "PositionModel", "PositionPolarizationModel", "QuadrantModel",
                "conditioned_polarization_probabilities", "quadrant_probabilities",
                "sagnac_joint_density", "sagnac_polarization_probabilities", "small_angle_flags",
            ),
        ),
        ("svgplot", ("LineChart",)),
    )
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    # an unknown name raises AttributeError, so that ``from tiltsense import
    # schemes`` falls back to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
