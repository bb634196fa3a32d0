import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltsense import (
    BeamParams,
    PolarizationState,
    PositionPolarizationModel,
    cramer_rao_bound,
    fisher_conditioned,
    fisher_position,
    fisher_quadrant,
    fisher_sagnac_polarization,
    fisher_total_decomposition,
    intensity_profile,
    interference_coefficients,
    qfi_beam_deflection,
    qfi_mach_zehnder,
    qfi_sagnac,
)

from conftest import WAIST, WAVELENGTH, gauss_quad


# ---------------------------------------------------------------------------
# quantum bounds
# ---------------------------------------------------------------------------


def test_qfi_beam_deflection_value(beam):
    # frozen: 16 k^2 (w0^2/4) with k = 2 pi / 633nm, w0 = 1mm
    assert qfi_beam_deflection(beam) == pytest.approx(394105329.6133153, rel=1e-12)


def test_qfi_beam_deflection_against_variance_quadrature(beam):
    # 4 Var(2 k x) over the waist density, by quadrature
    lo, hi = beam.xi - 15 * WAIST, beam.xi + 15 * WAIST
    density = lambda x: intensity_profile(beam, 0.0, 0.0, x)
    m1 = gauss_quad(lambda x: x * density(x), lo, hi)
    m2 = gauss_quad(lambda x: x * x * density(x), lo, hi)
    assert qfi_beam_deflection(beam) == pytest.approx(
        16.0 * beam.k ** 2 * (m2 - m1 * m1), rel=1e-10
    )


def test_qfi_scaling_with_waist():
    small = BeamParams.from_wavelength(WAVELENGTH, 1e-3)
    large = BeamParams.from_wavelength(WAVELENGTH, 2e-3)
    assert qfi_beam_deflection(large) == pytest.approx(4.0 * qfi_beam_deflection(small), rel=1e-12)
    tiny = BeamParams.from_wavelength(WAVELENGTH, 1e-12)
    assert qfi_beam_deflection(tiny) == pytest.approx(0.0, abs=1e-3)


def test_qfi_sagnac_values(beam):
    plus = PolarizationState.diagonal()
    # frozen: 16 k^2 (w0^2/4 + xi^2) at xi = 1mm, five times the deflection bound
    assert qfi_sagnac(beam, plus) == pytest.approx(1970526648.0665765, rel=1e-12)
    assert qfi_sagnac(beam, plus) == pytest.approx(5.0 * qfi_beam_deflection(beam), rel=1e-12)
    # polarized along H or V the interferometer reduces to plain deflection
    for pol in (PolarizationState.horizontal(), PolarizationState.vertical()):
        assert qfi_sagnac(beam, pol) == pytest.approx(qfi_beam_deflection(beam), rel=1e-12)


def test_qfi_sagnac_two_branch_moments(beam):
    # 4 Var(2 k sz x) by explicit two-branch quadrature over the product state
    pol = PolarizationState.from_bloch(0.8, 0.3)
    lo, hi = beam.xi - 15 * WAIST, beam.xi + 15 * WAIST
    density = lambda x: intensity_profile(beam, 0.0, 0.0, x)
    m1 = gauss_quad(lambda x: x * density(x), lo, hi)
    m2 = gauss_quad(lambda x: x * x * density(x), lo, hi)
    pa, pb = abs(pol.alpha) ** 2, abs(pol.beta) ** 2
    mean_sz_x = pa * m1 - pb * m1
    mean_sz2_x2 = (pa + pb) * m2
    assert qfi_sagnac(beam, pol) == pytest.approx(
        16.0 * beam.k ** 2 * (mean_sz2_x2 - mean_sz_x ** 2), rel=1e-10
    )


def test_qfi_sagnac_no_gain_without_displacement(centered_beam):
    plus = PolarizationState.diagonal()
    assert qfi_sagnac(centered_beam, plus) == pytest.approx(
        qfi_beam_deflection(centered_beam), rel=1e-12
    )


def test_qfi_mach_zehnder_limits(beam):
    assert qfi_mach_zehnder(beam, PolarizationState.vertical()) == pytest.approx(
        qfi_beam_deflection(beam), rel=1e-12
    )
    assert qfi_mach_zehnder(beam, PolarizationState.horizontal()) == 0.0
    plus = PolarizationState.diagonal()
    expected = 8.0 * beam.k ** 2 * (WAIST ** 2 / 4.0 + beam.xi ** 2 / 2.0)
    assert qfi_mach_zehnder(beam, plus) == pytest.approx(expected, rel=1e-12)


@settings(max_examples=100)
@given(
    w0=st.floats(min_value=1e-4, max_value=5e-3),
    xi=st.floats(min_value=-5e-3, max_value=5e-3),
    polar=st.floats(min_value=0.0, max_value=math.pi),
)
def test_sagnac_dominates_mach_zehnder(w0, xi, polar):
    beam = BeamParams.from_wavelength(WAVELENGTH, w0, xi)
    pol = PolarizationState.from_bloch(polar)
    sag = qfi_sagnac(beam, pol)
    mz = qfi_mach_zehnder(beam, pol)
    assert sag >= mz - 1e-9 * max(sag, 1.0)


@pytest.mark.parametrize("xi,expect_gain", [(0.9e-3 / math.sqrt(2.0), False), (1.1e-3 / math.sqrt(2.0), True)])
def test_mach_zehnder_crossover(xi, expect_gain):
    # with <sz> = 0 the single-sided interferometer beats plain deflection
    # exactly when xi^2 > w0^2/2 (mean more than twice the variance)
    beam = BeamParams.from_wavelength(WAVELENGTH, 1e-3, xi)
    plus = PolarizationState.diagonal()
    gain = qfi_mach_zehnder(beam, plus) > qfi_beam_deflection(beam)
    assert gain == expect_gain


# ---------------------------------------------------------------------------
# position and quadrant measurements
# ---------------------------------------------------------------------------


def test_position_fisher_limits(beam):
    zr = beam.rayleigh_range
    assert fisher_position(beam, 0.0) == 0.0
    assert fisher_position(beam, zr) == pytest.approx(0.5 * qfi_beam_deflection(beam), rel=1e-12)
    far = fisher_position(beam, 1e4 * zr)
    assert far / qfi_beam_deflection(beam) > 1.0 - 1e-6


def test_position_fisher_ratio_exact(beam):
    zr = beam.rayleigh_range
    for z in [0.0, 0.3 * zr, zr, 7 * zr, 100 * zr]:
        expected = z * z / (z * z + zr * zr)
        assert fisher_position(beam, z) / qfi_beam_deflection(beam) == pytest.approx(
            expected, abs=1e-12
        )


def test_quadrant_fisher_zero_cases(beam):
    assert fisher_quadrant(beam, 0.0, 0.0) == 0.0


def test_quadrant_fisher_small_angle_form(beam):
    # theta = 0 reduces to 32 z^2 / (pi w^2)
    for z in [0.1, 1.0, 10.0]:
        w = beam.width(z)
        assert fisher_quadrant(beam, 0.0, z) == pytest.approx(
            32.0 * z * z / (math.pi * w * w), rel=1e-12
        )


def test_quadrant_far_field_ratio(beam):
    zr = beam.rayleigh_range
    assert fisher_quadrant(beam, 0.0, 1e4 * zr) / qfi_beam_deflection(beam) == pytest.approx(
        2.0 / math.pi, rel=1e-6
    )


def test_quadrant_to_position_ratio_is_two_over_pi(beam):
    zr = beam.rayleigh_range
    for z in [1e-3 * zr, 0.1 * zr, zr, 10 * zr, 1e3 * zr]:
        ratio = fisher_quadrant(beam, 0.0, z) / fisher_position(beam, z)
        assert ratio == pytest.approx(2.0 / math.pi, abs=1e-9)


def test_quadrant_fisher_from_bernoulli_identity(beam):
    # rebuild F from the outcome probabilities and the analytic derivative of
    # the erf argument: independent arrangement of the same measurement
    theta, z = 1e-5, 2.0
    from tiltsense import quadrant_probabilities

    p_plus, p_minus = quadrant_probabilities(beam, theta, z)
    w = beam.width(z)
    g = 2.0 * math.sqrt(2.0) * theta * z / w
    # dP+/dtheta = erf'(g) * dg/dtheta / 2
    dp_plus = (math.exp(-g * g) / math.sqrt(math.pi)) * (2.0 * math.sqrt(2.0) * z / w)
    expected = dp_plus ** 2 * (1.0 / p_plus + 1.0 / p_minus)
    assert fisher_quadrant(beam, theta, z) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# polarization measurement (position-integrated)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("xi", [0.0, 0.5e-3, 1e-3, 2e-3])
def test_polarization_fisher_small_angle_limit(xi):
    beam = BeamParams.from_wavelength(WAVELENGTH, WAIST, xi)
    plus = PolarizationState.diagonal()
    expected = 16.0 * beam.k ** 2 * (WAIST ** 2 / 4.0 + xi ** 2)
    assert fisher_sagnac_polarization(beam, plus, 0.0) == pytest.approx(expected, rel=1e-8)
    # matches the full interferometric quantum bound
    assert fisher_sagnac_polarization(beam, plus, 0.0) == pytest.approx(
        qfi_sagnac(beam, plus), rel=1e-8
    )


def test_polarization_fisher_zero_without_coherence(beam):
    assert fisher_sagnac_polarization(beam, PolarizationState.horizontal(), 1e-6) == 0.0


def test_polarization_fisher_biased_phase_nonzero_at_origin(beam):
    # a relative phase offsets the working point; theta = 0 keeps information
    pol = PolarizationState.from_bloch(math.pi / 2, math.pi / 4)
    d = pol.coherence_magnitude
    phi = pol.coherence_phase
    s = math.sin(-phi)
    c = math.cos(-phi)
    expected = (
        16.0 * d * d * (2.0 * beam.k * beam.xi * s) ** 2 / (1.0 - 4.0 * d * d * c * c)
    )
    assert fisher_sagnac_polarization(beam, pol, 0.0) == pytest.approx(expected, rel=1e-10)


def test_polarization_fisher_vanishes_where_the_dephasing_overflows():
    # at a 1e-30 m wavelength 2 B theta^2 ~ 8e43 at 1 urad: e^{2 B theta^2}
    # is past the float range while the numerator is finite
    beam = BeamParams.from_wavelength(1e-30, WAIST, WAIST)
    pol = PolarizationState.diagonal()
    assert fisher_sagnac_polarization(beam, pol, 1e-6) == 0.0
    assert fisher_sagnac_polarization(beam, pol, -1e-6) == 0.0
    assert fisher_sagnac_polarization(beam, pol, 0.0) > 0.0


def test_polarization_fisher_continuous_at_degenerate_point(beam):
    plus = PolarizationState.diagonal()
    limit = fisher_sagnac_polarization(beam, plus, 0.0)
    near = fisher_sagnac_polarization(beam, plus, 1e-10)
    assert near == pytest.approx(limit, rel=1e-6)


# ---------------------------------------------------------------------------
# conditioned measurement and the information decomposition
# ---------------------------------------------------------------------------


def test_conditioned_constant_along_beam_center(beam):
    values = [fisher_conditioned(beam, z, beam.xi, 0.0) for z in [0.0, 0.5, 2.0, 20.0, 50.0]]
    expected = 16.0 * beam.k ** 2 * beam.xi ** 2
    for v in values:
        assert v == pytest.approx(expected, rel=1e-12)


def test_conditioned_on_axis_far_field(beam):
    zr = beam.rayleigh_range
    val = fisher_conditioned(beam, 100 * zr, 0.0, 0.0)
    assert val == pytest.approx(16.0 * beam.k ** 2 * beam.xi ** 2, rel=1e-4)
    # and rises monotonically toward it
    zs = np.linspace(0.0, 100 * zr, 60)
    vals = [fisher_conditioned(beam, z, 0.0, 0.0) for z in zs]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_conditioned_zero_on_axis_near_field():
    for xi in [0.0, 1e-3, 3e-3]:
        beam = BeamParams.from_wavelength(WAVELENGTH, WAIST, xi)
        assert fisher_conditioned(beam, 0.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_conditioned_limit_equals_coefficient_quadrature(beam):
    # theta -> 0 value equals a^2 + b^2 and the reduced closed form
    z, x = 3.7, 0.4e-3
    a, b = interference_coefficients(beam, z, x)
    limit = fisher_conditioned(beam, z, x, 0.0)
    assert limit == pytest.approx(float(a * a + b * b), rel=1e-13)
    zr = beam.rayleigh_range
    reduced = 16.0 * beam.k ** 2 * (zr ** 2 * x ** 2 + z ** 2 * beam.xi ** 2) / (z ** 2 + zr ** 2)
    assert limit == pytest.approx(reduced, rel=1e-12)


def test_conditioned_matches_finite_difference_of_probabilities(beam):
    # direct two-outcome Fisher from the conditioned probabilities
    from tiltsense import conditioned_polarization_probabilities

    theta, z, x = 2e-6, 5 * beam.rayleigh_range, 0.5e-3
    h = 1e-11
    p_hi, _ = conditioned_polarization_probabilities(beam, theta + h, z, x)
    p_lo, _ = conditioned_polarization_probabilities(beam, theta - h, z, x)
    p0_plus, p0_minus = conditioned_polarization_probabilities(beam, theta, z, x)
    dp = (float(p_hi) - float(p_lo)) / (2.0 * h)
    expected = dp * dp / (float(p0_plus) * float(p0_minus))
    assert fisher_conditioned(beam, z, x, theta) == pytest.approx(expected, rel=1e-5)


def test_decomposition_small_angle(beam):
    zr = beam.rayleigh_range
    report = fisher_total_decomposition(beam, 5 * zr, 1e-9)
    expected = 16.0 * beam.k ** 2 * (WAIST ** 2 / 4.0 + beam.xi ** 2)
    assert report.avg_conditioned == pytest.approx(expected, rel=1e-5)
    assert report.position_part < 1e-6 * report.total
    assert report.total == report.avg_conditioned + report.position_part


def test_decomposition_small_angle_centered(centered_beam):
    report = fisher_total_decomposition(centered_beam, 2.0, 1e-9)
    assert report.avg_conditioned == pytest.approx(
        16.0 * centered_beam.k ** 2 * WAIST ** 2 / 4.0, rel=1e-5
    )


def test_decomposition_is_the_joint_model_fisher(beam):
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), 2.0)
    report = model.decomposition(1e-6)
    assert model.fisher(1e-6) == report.total
    assert fisher_total_decomposition(beam, 2.0, 1e-6) == report


def test_decomposition_needs_the_diagonal_state(beam):
    model = PositionPolarizationModel(beam, PolarizationState.from_bloch(1.2, 0.0), 2.0)
    with pytest.raises(ValueError, match="diagonal input state"):
        model.decomposition(1e-6)


def test_fisher_module_imports_no_scheme_model():
    # the closed forms sit below the models: tiltsense.fisher loads only the
    # beam and polarization modules (the package __init__ is bypassed, since it
    # imports everything)
    code = (
        "import importlib.util, sys, types; "
        "package = types.ModuleType('tiltsense'); "
        "package.__path__ = importlib.util.find_spec('tiltsense').submodule_search_locations; "
        "sys.modules['tiltsense'] = package; "
        "import tiltsense.fisher; "
        "print(sorted(m for m in sys.modules if m.startswith('tiltsense')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == (
        "['tiltsense', 'tiltsense.beam', 'tiltsense.fisher', 'tiltsense.polarization']"
    )


def test_cramer_rao_bound():
    assert cramer_rao_bound(1e8, 10000) == pytest.approx(1.0 / math.sqrt(1e12), rel=1e-12)
    assert cramer_rao_bound(0.0, 100) == math.inf


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    xi=st.floats(min_value=-2e-3, max_value=2e-3),
    z_factor=st.floats(min_value=1e-3, max_value=50.0),
    theta=st.floats(min_value=-2e-6, max_value=2e-6),
    split=st.floats(min_value=-3e-3, max_value=3e-3),
    polar=st.floats(min_value=0.0, max_value=math.pi),
    azimuth=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_measurement_fisher_below_qfi(xi, z_factor, theta, split, polar, azimuth):
    # Braunstein-Caves: no measurement carries more than the quantum bound
    beam = BeamParams.from_wavelength(WAVELENGTH, WAIST, xi)
    plus = PolarizationState.diagonal()
    state = PolarizationState.from_bloch(polar, azimuth)
    z = z_factor * beam.rayleigh_range
    slack = 1.0 + 1e-6
    assert fisher_position(beam, z) <= qfi_beam_deflection(beam) * slack
    assert fisher_quadrant(beam, theta, z) <= qfi_beam_deflection(beam) * slack
    assert fisher_quadrant(beam, theta, z, split) <= qfi_beam_deflection(beam) * slack
    assert fisher_sagnac_polarization(beam, plus, theta) <= qfi_sagnac(beam, plus) * slack
    assert fisher_sagnac_polarization(beam, state, theta) <= qfi_sagnac(beam, state) * slack
    assert fisher_total_decomposition(beam, z, theta).total <= qfi_sagnac(beam, plus) * slack


@pytest.mark.parametrize("theta", [1e-7, 1e-6, 3e-6])
def test_theta_parity(beam, theta):
    plus = PolarizationState.diagonal()
    z = 2.0
    assert fisher_quadrant(beam, theta, z) == pytest.approx(
        fisher_quadrant(beam, -theta, z), rel=1e-12
    )
    assert fisher_sagnac_polarization(beam, plus, theta) == pytest.approx(
        fisher_sagnac_polarization(beam, plus, -theta), rel=1e-12
    )
    assert fisher_conditioned(beam, z, 0.4e-3, theta) == pytest.approx(
        fisher_conditioned(beam, z, 0.4e-3, -theta), rel=1e-12
    )
    fwd = fisher_total_decomposition(beam, z, theta)
    bwd = fisher_total_decomposition(beam, z, -theta)
    assert fwd.total == pytest.approx(bwd.total, rel=1e-9)
