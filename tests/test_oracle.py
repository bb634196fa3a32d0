"""Closed-form Fisher expressions against the scheme-agnostic finite-difference oracle."""

import csv
import math
from dataclasses import dataclass

import numpy as np
import pytest

from tiltsense import (
    ConditionedPolarizationModel,
    OracleError,
    PolarizationModel,
    PolarizationState,
    PositionModel,
    PositionPolarizationModel,
    QuadrantModel,
    fisher_conditioned,
    fisher_position,
    fisher_quadrant,
    fisher_sagnac_polarization,
    numeric_fisher_oracle,
    qfi_beam_deflection,
)
from tiltsense.cli import main
from tiltsense.oracle import default_step



@dataclass(frozen=True)
class LinearBernoulli:
    """Textbook two-outcome model P+ = (1 + theta)/2."""

    def probabilities(self, theta):
        return np.array([0.5 * (1.0 + theta), 0.5 * (1.0 - theta)])


def test_bernoulli_textbook_value():
    # (1/2)^2 (1/P+ + 1/P-) = 0.25 / 0.2475 at theta = 0.1
    value = numeric_fisher_oracle(LinearBernoulli(), 0.1, step=1e-6)
    assert value == pytest.approx(1.0101010101010102, rel=1e-9)


def test_step_must_be_positive():
    with pytest.raises(ValueError):
        numeric_fisher_oracle(LinearBernoulli(), 0.1, step=0.0)


def relerr(analytic, oracle, floor):
    return abs(analytic - oracle) / max(analytic, floor)


def test_quadrant_grid_against_oracle(beam):
    zr = beam.rayleigh_range
    floor = 1e-6 * qfi_beam_deflection(beam)
    for theta in [0.0, 1e-6, 1e-5]:
        for z in [0.5 * zr, zr, 10 * zr]:
            model = QuadrantModel(beam, z)
            oracle = numeric_fisher_oracle(model, theta)
            assert relerr(fisher_quadrant(beam, theta, z), oracle, floor) < 1e-6


def test_quadrant_custom_split_against_oracle(beam):
    z = beam.rayleigh_range
    model = QuadrantModel(beam, z, split=beam.xi - 2e-4)
    oracle = numeric_fisher_oracle(model, 1e-6)
    analytic = fisher_quadrant(beam, 1e-6, z, split=beam.xi - 2e-4)
    assert relerr(analytic, oracle, 1.0) < 1e-6


def test_position_against_oracle(beam):
    zr = beam.rayleigh_range
    floor = 1e-6 * qfi_beam_deflection(beam)
    for z in [0.1 * zr, zr, 5 * zr]:
        model = PositionModel(beam, z)
        oracle = numeric_fisher_oracle(model, 1e-6)
        assert relerr(fisher_position(beam, z), oracle, floor) < 1e-6


def test_polarization_against_oracle(beam):
    floor = 1e-6 * qfi_beam_deflection(beam)
    for pol in [
        PolarizationState.diagonal(),
        PolarizationState.from_bloch(math.asin(0.6)),       # d = 0.3
        PolarizationState.from_bloch(math.pi / 2, math.pi / 3),
    ]:
        for theta in [1e-7, 1e-6, 2e-6]:
            model = PolarizationModel(beam, pol)
            oracle = numeric_fisher_oracle(model, theta)
            analytic = fisher_sagnac_polarization(beam, pol, theta)
            assert relerr(analytic, oracle, floor) < 1e-6


def test_polarization_denominator_resolution(beam):
    # the oracle discriminates the d^2 denominator from the d variant: with
    # d = 0.3 they differ by far more than the oracle tolerance
    pol = PolarizationState.from_bloch(math.asin(0.6))
    d = pol.coherence_magnitude
    assert d == pytest.approx(0.3, abs=1e-12)
    theta = 1e-6
    model = PolarizationModel(beam, pol)
    oracle = numeric_fisher_oracle(model, theta)

    analytic = fisher_sagnac_polarization(beam, pol, theta)
    assert relerr(analytic, oracle, 1.0) < 1e-6

    b_coeff = 2.0 * (beam.k * beam.w0) ** 2
    ph = 4.0 * beam.k * beam.xi * theta
    num = 16.0 * d * d * (
        b_coeff * theta * math.cos(ph) + 2.0 * beam.k * beam.xi * math.sin(ph)
    ) ** 2
    variant_d = num / (math.exp(2.0 * b_coeff * theta * theta) - 4.0 * d * math.cos(ph) ** 2)
    # the linear-d denominator is not even positive here
    assert variant_d < 0.0


def test_conditioned_against_oracle(beam):
    zr = beam.rayleigh_range
    floor = 1e-6 * qfi_beam_deflection(beam)
    for x in [0.0, 0.5e-3, 1e-3, 1.5e-3]:
        for z in [0.2 * zr, 5 * zr]:
            model = ConditionedPolarizationModel(beam, z, x)
            oracle = numeric_fisher_oracle(model, 1e-6)
            analytic = fisher_conditioned(beam, z, x, 1e-6)
            assert relerr(analytic, oracle, floor) < 1e-6


def test_joint_total_against_oracle(beam):
    theta, z = 1e-6, 5 * beam.rayleigh_range
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), z)
    oracle = numeric_fisher_oracle(model, theta)
    total = model.decomposition(theta).total
    assert relerr(total, oracle, 1.0) < 1e-4


@pytest.mark.parametrize("z_over_zr", [1.0, 10.0, 100.0])
def test_joint_total_against_oracle_at_large_tilt(beam, z_over_zr):
    # far outside the small-angle regime |b theta| reaches COSH_CUTOFF inside
    # the integration window, where the conditioned information must not overflow
    theta, z = 1e-3, z_over_zr * beam.rayleigh_range
    with np.errstate(over="raise"):
        conditioned = fisher_conditioned(beam, z, np.linspace(-0.5, 0.5, 4001), theta)
    assert np.all(np.isfinite(conditioned))
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), z)
    total = model.decomposition(theta).total
    assert relerr(total, numeric_fisher_oracle(model, theta), 1.0) < 1e-4


@pytest.mark.parametrize(
    "cls",
    [
        PositionModel,
        QuadrantModel,
        PolarizationModel,
        ConditionedPolarizationModel,
        PositionPolarizationModel,
    ],
)
def test_model_protocol(beam, cls):
    z, pol = 2.0 * beam.rayleigh_range, PolarizationState.diagonal()
    args = {
        PositionModel: (beam, z),
        QuadrantModel: (beam, z),
        PolarizationModel: (beam, pol),
        ConditionedPolarizationModel: (beam, z, 1.5e-3),
        PositionPolarizationModel: (beam, pol, z),
    }
    model = cls(*args[cls])
    joint = cls is PositionPolarizationModel
    floor = 1.0 if joint else 1e-6 * qfi_beam_deflection(beam)
    for theta in [-1.5e-6, 5e-7, 2e-6]:
        analytic = model.fisher(theta)
        oracle = numeric_fisher_oracle(model, theta)
        assert relerr(analytic, oracle, floor) < (1e-4 if joint else 1e-6)
        # the point detector is exempt: rare detections may carry more
        # information than the full-state bound
        if cls is not ConditionedPolarizationModel:
            assert analytic <= model.qfi()
    if cls in (PositionModel, QuadrantModel):
        for theta in [0.0, 1e-6, -1e-3, 1e-3]:
            assert model.regime_flags(theta, default_step(theta, model.qfi())) == ()


def test_joint_oracle_with_general_state(beam):
    # oracle works for states with no closed-form decomposition
    pol = PolarizationState.from_bloch(1.1, 0.4)
    model = PositionPolarizationModel(beam, pol, 2.0)
    value = numeric_fisher_oracle(model, 1e-6)
    assert value > 0.0


def test_continuous_pdf_path(beam):
    # a model exposing only pdf/domain/qfi goes through the generic continuous path
    @dataclass(frozen=True)
    class BareDensity:
        inner: PositionModel

        def pdf(self, theta, x):
            return self.inner.pdf(theta, x)

        def domain(self, theta):
            return self.inner.domain(theta)

        def qfi(self):
            return self.inner.qfi()

    model = BareDensity(PositionModel(beam, beam.rayleigh_range))
    oracle = numeric_fisher_oracle(model, 1e-6)
    assert relerr(fisher_position(beam, beam.rayleigh_range), oracle, 1.0) < 1e-6


@pytest.mark.parametrize(
    "theta, z", [("1urad", "1e-4m"), ("1mrad", "1um"), ("1mrad", "0.1mm"), ("1mrad", "1mm")]
)
def test_position_rows_far_below_the_bound_converge(tmp_path, capsys, theta, z):
    # F is at most 4e-8 of the quantum bound here; an absolute quadrature floor of
    # 1e-12, not scaled to the bound, sat under the finite differences' noise and
    # the sweep ended with exit 3
    config = tmp_path / "position.yaml"
    config.write_text(
        f"beam: {{wavelength: 633nm, w0: 1mm}}\nrun: {{scheme: position, theta: {theta}, z: {z}}}\n"
    )
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0, (
        capsys.readouterr().err
    )
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    analytic, oracle = float(row["analytic_fisher"]), float(row["oracle_fisher"])
    assert abs(oracle - analytic) <= 1e-12 * float(row["qfi"])


def test_discrete_exclusion_bookkeeping():
    @dataclass(frozen=True)
    class WithDeadOutcome:
        def probabilities(self, theta):
            # third outcome sits below the probability floor
            return np.array([0.5 * (1.0 + theta), 0.5 * (1.0 - theta) - 1e-310, 1e-310])

    value = numeric_fisher_oracle(WithDeadOutcome(), 0.1, step=1e-6)
    assert value == pytest.approx(1.0101010101010102, rel=1e-8)


def test_discrete_sum_keeps_a_nan_outcome(beam):
    # a NaN probability is not below the floor: the sum carries it, as the
    # continuous path's quadrature does, instead of dropping the outcome
    @dataclass(frozen=True)
    class WithNanOutcome:
        def probabilities(self, theta):
            return np.array([0.5 + theta, math.nan, 0.5 - theta])

    assert math.isnan(numeric_fisher_oracle(WithNanOutcome(), 0.1, step=1e-6))
    model = QuadrantModel(beam, math.nan)
    assert math.isnan(model.fisher(1e-6))
    assert math.isnan(numeric_fisher_oracle(model, 1e-6))


def test_oracle_rejects_noise():
    @dataclass(frozen=True)
    class Noisy:
        def probabilities(self, theta):
            # non-smooth dependence defeats the step-halving check
            wobble = 1e-3 * math.sin(theta / 1e-10)
            return np.array([0.5 + wobble, 0.5 - wobble])

    with pytest.raises(OracleError):
        numeric_fisher_oracle(Noisy(), 0.1, step=1e-6)


def test_unknown_model_rejected():
    with pytest.raises(TypeError):
        numeric_fisher_oracle(object(), 0.0)
