import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    intensity_profile,
    interference_coefficients,
    qfi_beam_deflection,
    qfi_mach_zehnder,
    qfi_sagnac,
)
from tiltsense.config import linspace

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


def _figure_grids():
    """(beam, z, x list) of each column that figure3 (a) and figure4 evaluate in one call."""
    for xi in (0.0, 1e-3):
        beam = BeamParams.from_rayleigh_range(1.0, WAVELENGTH, xi)
        zr = beam.rayleigh_range
        yield beam, 5.0 * zr, linspace(-3e-3, 3e-3, 601).tolist()
        w_far = beam.width(5.0 * zr)
        x = linspace(xi - 5.0 * w_far, xi + 5.0 * w_far, 2001).tolist()
        yield beam, 0.0, x
        yield beam, 5.0 * zr, x


def _formula_rates(beam, z, x):
    # the docstring's formulas in the plane's ratios c = w0/w and s = (z/z_R) w0/w,
    # in their written order: 4 k (c^2 x + s^2 xi) and 4 k c s (x - xi)
    c, s, _ = beam.plane(z)
    a = 4.0 * beam.k * (c * c * x + s * s * beam.xi)
    b = 4.0 * beam.k * c * s * (x - beam.xi)
    # against the textbook form 4 k (z_R^2 x + z^2 xi) / (z^2 + z_R^2), 4 k z z_R (x - xi) / (z^2 + z_R^2),
    # evaluated exactly; a product that leaves the normal range rounds to the subnormal grid, 5e-324 apart
    k, zr, z, x, xi = map(Fraction, (beam.k, beam.rayleigh_range, z, x, beam.xi))
    denom = z * z + zr * zr
    scale = 4.0 * beam.k * (1e-12 * (abs(x) + abs(xi)) + 1e-322) + 1e-322
    assert abs(a - float(4 * k * (zr * zr * x + z * z * xi) / denom)) <= scale
    assert abs(b - float(4 * k * z * zr * (x - xi) / denom)) <= scale
    return a, b


def _assert_list_is_per_point(beam, z, xs):
    # == on lists of floats: bit for bit, with no tolerance
    values = fisher_conditioned(beam, z, xs, 0.0)
    assert type(values) is list
    assert values == [fisher_conditioned(beam, z, x, 0.0) for x in xs]
    a, b = interference_coefficients(beam, z, xs)
    per_point = [interference_coefficients(beam, z, x) for x in xs]
    assert type(a) is list and type(b) is list
    assert a == [p for p, _ in per_point] and b == [q for _, q in per_point]
    assert per_point == [_formula_rates(beam, z, x) for x in xs]


def test_conditioned_list_is_the_per_point_values_on_the_figure_grids():
    for beam, z, xs in _figure_grids():
        _assert_list_is_per_point(beam, z, xs)


@settings(max_examples=200, deadline=None)
@given(
    k=st.floats(min_value=1e-3, max_value=1e20),
    w0=st.floats(min_value=1e-9, max_value=10.0),
    xi=st.floats(min_value=-1.0, max_value=1.0),
    z=st.floats(min_value=0.0, max_value=1e6),
    xs=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=20),
)
def test_conditioned_list_is_the_per_point_values(k, w0, xi, z, xs):
    try:
        beam = BeamParams(k=k, w0=w0, xi=xi)
    except ValueError:
        assume(False)
    _assert_list_is_per_point(beam, z, xs)


def test_conditioned_list_at_a_tilt_is_the_array_values(beam):
    xs = linspace(-3e-3, 3e-3, 61).tolist()
    values = fisher_conditioned(beam, 2.0, xs, 1e-6)
    assert type(values) is list
    assert values == fisher_conditioned(beam, 2.0, np.array(xs), 1e-6).tolist()


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


@pytest.mark.parametrize(
    "theta", [3.4437919730931626e-164, -3.4437919730931626e-164, 1e-160, 1e-140]
)
def test_tilts_with_subnormal_rates_give_the_theta_zero_information(centered_beam, theta):
    # below |theta| ~ 1e-150, sinh^2(q) + sin^2(p) is subnormal and has lost its
    # digits: the joint total failed to converge at 3.4e-164 and was off by 3e-14 at 1e-160
    zr = centered_beam.rayleigh_range
    xs = np.linspace(-3e-3, 3e-3, 61)
    np.testing.assert_array_max_ulp(
        fisher_conditioned(centered_beam, zr, xs, theta),
        fisher_conditioned(centered_beam, zr, xs, 0.0),
        maxulp=0 if abs(theta) < 1e-150 else 2,
    )
    model = PositionPolarizationModel(centered_beam, PolarizationState.diagonal(), zr)
    assert model.decomposition(theta).total == pytest.approx(
        model.decomposition(0.0).total, rel=1e-15
    )


def test_decomposition_small_angle(beam):
    zr = beam.rayleigh_range
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), 5 * zr)
    report = model.decomposition(1e-9)
    expected = 16.0 * beam.k ** 2 * (WAIST ** 2 / 4.0 + beam.xi ** 2)
    assert report.avg_conditioned == pytest.approx(expected, rel=1e-5)
    assert report.position_part < 1e-6 * report.total
    assert report.total == report.avg_conditioned + report.position_part


def test_decomposition_small_angle_centered(centered_beam):
    model = PositionPolarizationModel(centered_beam, PolarizationState.diagonal(), 2.0)
    report = model.decomposition(1e-9)
    assert report.avg_conditioned == pytest.approx(
        16.0 * centered_beam.k ** 2 * WAIST ** 2 / 4.0, rel=1e-5
    )


def test_decomposition_is_the_joint_model_fisher(beam):
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), 2.0)
    report = model.decomposition(1e-6)
    assert model.fisher(1e-6) == report.total


def test_decomposition_needs_the_diagonal_state(beam):
    model = PositionPolarizationModel(beam, PolarizationState.from_bloch(1.2, 0.0), 2.0)
    with pytest.raises(ValueError, match="diagonal input state"):
        model.decomposition(1e-6)


def test_fisher_module_imports_no_scheme_model():
    # the closed forms sit below the models: tiltsense.fisher loads only the
    # beam and polarization modules, and no numpy
    code = "import json, sys, tiltsense.fisher; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stdout)
    assert [m for m in modules if m.startswith("tiltsense")] == [
        "tiltsense", "tiltsense.beam", "tiltsense.fisher", "tiltsense.polarization"
    ]
    assert "numpy" not in modules


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
@example(xi=0.0, z_factor=1.0, theta=3.4437919730931626e-164, split=0.0, polar=0.0, azimuth=0.0)
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
    joint = PositionPolarizationModel(beam, plus, z)
    assert joint.decomposition(theta).total <= qfi_sagnac(beam, plus) * slack


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
    joint = PositionPolarizationModel(beam, plus, z)
    fwd = joint.decomposition(theta)
    bwd = joint.decomposition(-theta)
    assert fwd.total == pytest.approx(bwd.total, rel=1e-9)
