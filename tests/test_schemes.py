import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from tiltsense import (
    BeamParams,
    ConditionedPolarizationModel,
    PolarizationModel,
    PolarizationState,
    PositionModel,
    PositionPolarizationModel,
    QuadrantModel,
    conditioned_polarization_probabilities,
    intensity_profile,
    interference_coefficients,
    quadrant_probabilities,
    sagnac_joint_density,
    sagnac_polarization_probabilities,
    small_angle_flags,
)
from tiltsense.oracle import default_step

from conftest import OFFSET, WAVELENGTH, WAIST
from wave_oracle import branch_wavefunction, joint_density_wave


# ---------------------------------------------------------------------------
# quadrant detector
# ---------------------------------------------------------------------------


def test_quadrant_balanced_at_zero_tilt(beam):
    for z in [0.0, 1.0, 10.0]:
        p_plus, p_minus = quadrant_probabilities(beam, 0.0, z)
        assert p_plus == 0.5 and p_minus == 0.5


def test_quadrant_balanced_at_object_plane(beam):
    p_plus, p_minus = quadrant_probabilities(beam, 5e-6, 0.0)
    assert p_plus == 0.5 and p_minus == 0.5


def test_quadrant_against_quadrature_oracle(beam):
    # frozen from integrating the displaced Gaussian over x >= xi
    theta, z = 1e-6, beam.rayleigh_range
    p_plus, p_minus = quadrant_probabilities(beam, theta, z)
    assert p_plus == pytest.approx(0.5055999862290689, abs=1e-12)

    w = beam.width(z)
    live, _ = integrate.quad(
        lambda x: intensity_profile(beam, theta, z, x),
        beam.xi, beam.xi + 30 * w, epsabs=1e-15, epsrel=1e-13, limit=300,
    )
    assert p_plus == pytest.approx(live, abs=1e-10)
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-15)


def test_quadrant_parity(beam):
    theta, z = 3e-6, 2.0
    forward = quadrant_probabilities(beam, theta, z)
    backward = quadrant_probabilities(beam, -theta, z)
    assert forward[0] == pytest.approx(backward[1], rel=1e-15)
    assert forward[1] == pytest.approx(backward[0], rel=1e-15)


def test_quadrant_custom_split(beam):
    # split away from the beam center biases the outcome even at theta = 0
    p_plus, _ = quadrant_probabilities(beam, 0.0, 1.0, split=beam.xi - 1e-4)
    assert p_plus > 0.5
    # split at xi reproduces the default
    assert quadrant_probabilities(beam, 2e-6, 1.0, split=beam.xi) == pytest.approx(
        quadrant_probabilities(beam, 2e-6, 1.0)
    )


# ---------------------------------------------------------------------------
# joint polarization-position density (interferometer output)
# ---------------------------------------------------------------------------


def test_joint_density_dark_port_empty_at_zero_tilt(beam):
    x = np.linspace(beam.xi - 5 * WAIST, beam.xi + 5 * WAIST, 101)
    p_plus, p_minus = sagnac_joint_density(beam, PolarizationState.diagonal(), 0.0, 2.0, x)
    assert np.all(p_minus == 0.0)
    assert p_plus == pytest.approx(intensity_profile(beam, 0.0, 2.0, x), rel=1e-12)


def test_joint_density_matches_wave_oracle(beam):
    # independent construction: numerically propagate the momentum-space state
    theta, z = 2e-6, beam.rayleigh_range
    pol = PolarizationState.diagonal()
    w = beam.width(z)
    x = np.linspace(beam.xi - 4 * w, beam.xi + 4 * w, 81)
    p_plus, p_minus = sagnac_joint_density(beam, pol, theta, z, x)
    wave_plus, wave_minus = joint_density_wave(beam, pol, theta, z, x)
    scale = wave_plus.max()
    assert np.max(np.abs(p_plus - wave_plus)) / scale < 1e-8
    assert np.max(np.abs(p_minus - wave_minus)) / scale < 1e-8


def test_joint_density_wave_oracle_general_state(beam):
    # unbalanced, complex polarization exercises the full interference term
    theta, z = 3e-6, 0.4 * beam.rayleigh_range
    pol = PolarizationState.from_bloch(1.0, 0.8)
    w = beam.width(z)
    x = np.linspace(beam.xi - 4 * w, beam.xi + 4 * w, 61)
    p_plus, p_minus = sagnac_joint_density(beam, pol, theta, z, x)
    wave_plus, wave_minus = joint_density_wave(beam, pol, theta, z, x)
    scale = max(wave_plus.max(), wave_minus.max())
    assert np.max(np.abs(p_plus - wave_plus)) / scale < 1e-8
    assert np.max(np.abs(p_minus - wave_minus)) / scale < 1e-8


def test_branch_wave_reduces_to_intensity_profile(beam):
    # at theta = 0 the propagated branch must reproduce the analytic profile
    z = 0.5 * beam.rayleigh_range
    x = np.linspace(beam.xi - 3e-3, beam.xi + 3e-3, 41)
    dens = np.abs(branch_wavefunction(beam, 0.0, z, x, +1)) ** 2
    expected = intensity_profile(beam, 0.0, z, x)
    assert np.max(np.abs(dens - expected)) / expected.max() < 1e-10


def test_joint_density_completeness(beam):
    theta, z = 5e-6, 5 * beam.rayleigh_range
    pol = PolarizationState.diagonal()
    w = beam.width(z)
    lo, hi = beam.xi - 12 * w, beam.xi + 12 * w

    def total(x):
        p_plus, p_minus = sagnac_joint_density(beam, pol, theta, z, x)
        return p_plus + p_minus

    norm, _ = integrate.quad(total, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=300)
    assert norm == pytest.approx(1.0, abs=1e-10)


def test_joint_density_no_interference_for_pure_inputs(beam):
    theta, z = 4e-6, 2.0
    x = np.linspace(beam.xi - 3e-3, beam.xi + 3e-3, 51)
    shift = 2.0 * theta * z

    p_plus, p_minus = sagnac_joint_density(beam, PolarizationState.horizontal(), theta, z, x)
    displaced = dataclass_replace_xi(beam, beam.xi - shift)
    half = 0.5 * intensity_profile(displaced, 0.0, z, x)
    assert p_plus == pytest.approx(half, rel=1e-12)
    assert p_minus == pytest.approx(half, rel=1e-12)

    p_plus, p_minus = sagnac_joint_density(beam, PolarizationState.vertical(), theta, z, x)
    displaced = dataclass_replace_xi(beam, beam.xi + shift)
    half = 0.5 * intensity_profile(displaced, 0.0, z, x)
    assert p_plus == pytest.approx(half, rel=1e-12)


def dataclass_replace_xi(beam, xi):
    return BeamParams(k=beam.k, w0=beam.w0, xi=xi)


# ---------------------------------------------------------------------------
# position-integrated polarization probabilities
# ---------------------------------------------------------------------------


def test_polarization_bright_port_at_zero_tilt(beam):
    p_plus, p_minus = sagnac_polarization_probabilities(beam, PolarizationState.diagonal(), 0.0)
    assert p_plus == 1.0 and p_minus == 0.0


def test_polarization_balanced_for_circular_input(beam):
    p_plus, p_minus = sagnac_polarization_probabilities(beam, PolarizationState.circular(), 0.0)
    assert p_plus == pytest.approx(0.5, abs=1e-12)
    assert p_minus == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("z_factor", [0.0, 0.1, 1.0, 10.0])
def test_polarization_equals_joint_marginal(beam, z_factor):
    # Eq-level z-independence: the closed form must match the x-integrated
    # joint density at any detection plane
    theta = 5e-6
    pol = PolarizationState.diagonal()
    z = z_factor * beam.rayleigh_range
    w = beam.width(z)
    lo, hi = beam.xi - 12 * w, beam.xi + 12 * w

    closed = sagnac_polarization_probabilities(beam, pol, theta)
    for idx in (0, 1):
        marginal, _ = integrate.quad(
            lambda x: sagnac_joint_density(beam, pol, theta, z, x)[idx],
            lo, hi, epsabs=1e-13, epsrel=1e-12, limit=300,
        )
        assert marginal == pytest.approx(closed[idx], abs=1e-9)


def test_polarization_marginal_general_state(beam):
    theta = 3e-6
    pol = PolarizationState.from_bloch(0.9, -0.6)
    z = 2.5 * beam.rayleigh_range
    w = beam.width(z)
    closed = sagnac_polarization_probabilities(beam, pol, theta)
    marginal, _ = integrate.quad(
        lambda x: sagnac_joint_density(beam, pol, theta, z, x)[0],
        beam.xi - 12 * w, beam.xi + 12 * w, epsabs=1e-13, epsrel=1e-12, limit=300,
    )
    assert marginal == pytest.approx(closed[0], abs=1e-9)


# ---------------------------------------------------------------------------
# conditioned polarization probabilities and their theta rates
# ---------------------------------------------------------------------------


def test_conditioned_certain_at_zero_tilt(beam):
    p_plus, p_minus = conditioned_polarization_probabilities(beam, 0.0, 3.0, 0.5e-3)
    assert p_plus == 1.0 and p_minus == 0.0


def test_conditioned_at_beam_center(beam):
    # both position-dependent arguments vanish at x = xi
    theta, z = 2e-6, 4.0
    p_plus, _ = conditioned_polarization_probabilities(beam, theta, z, beam.xi)
    assert p_plus == pytest.approx(
        0.5 * (1.0 + math.cos(4.0 * beam.k * theta * beam.xi)), rel=1e-14
    )


def test_conditioned_equals_joint_ratio(beam):
    theta, z = 2e-6, 5 * beam.rayleigh_range
    x = np.array([0.5e-3, 0.0, 1.5e-3, -0.5e-3])
    pol = PolarizationState.diagonal()
    p_plus, p_minus = sagnac_joint_density(beam, pol, theta, z, x)
    ratio = p_plus / (p_plus + p_minus)
    cond_plus, cond_minus = conditioned_polarization_probabilities(beam, theta, z, x)
    assert cond_plus == pytest.approx(ratio, abs=1e-10)
    assert cond_plus + cond_minus == pytest.approx(np.ones_like(ratio), abs=0.0)


def _conditional_plus_of_the_path_amplitudes(beam, pol, theta, z, u):
    """P(+|u) = |alpha psi_H + beta psi_V|^2 / (|..+..|^2 + |..-..|^2) in closed form.

    The momentum integral of ``wave_oracle.branch_wavefunction`` is Gaussian; done
    exactly, each path's wave is a factor common to both paths times e^{+-E}, with
    E = 2 k theta [i (x - xi) / (1 - i z/z_R) + i xi] = -2 t u s + i (2 t u c + 2 k xi theta)
    in beam units (t = k w0 theta, c = 1/sqrt(1 + z^2/z_R^2), s = c z/z_R), so the
    common factor cancels from the ratio.
    """
    zeta = z / beam.rayleigh_range
    c = 1.0 / math.sqrt(1.0 + zeta * zeta)
    t = beam.k * beam.w0 * theta
    e = np.exp((-2.0 * t * zeta * c + 2j * t * c) * u + 2j * beam.k * beam.xi * theta)
    h, v = pol.alpha * e, pol.beta / e
    plus, minus = np.abs(h + v) ** 2, np.abs(h - v) ** 2
    return plus / (plus + minus)


def test_joint_conditional_plus_is_the_density_ratio():
    # P(+|u) against forms that share no code with it: the two paths' amplitudes summed
    # in complex arithmetic, and the diagonal state's closed form (1/2)[1 + cos(a theta)
    # /cosh(b theta)] at x = xi + u w(z), to rounding; and, coarsely, the density ratio of
    # the numerically propagated waves; random beams, states (pure H and V among them)
    # and planes, at tilts inside the guard
    rng = np.random.default_rng(20)
    diagonal = PolarizationState.diagonal()
    pure = (PolarizationState.horizontal(), PolarizationState.vertical())
    u = np.linspace(-8.0, 8.0, 161)  # beam widths from xi
    for _ in range(60):
        beam = BeamParams.from_wavelength(
            rng.uniform(400e-9, 2e-6), rng.uniform(3e-4, 5e-3), rng.uniform(-2e-3, 2e-3)
        )
        z = rng.uniform(0.0, 10.0) * beam.rayleigh_range
        polar, azimuth = rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)
        states = (diagonal, PolarizationState.from_bloch(polar, azimuth),
                  PolarizationState.from_bloch(0.5 * math.pi, math.pi)) + pure
        for pol in states:
            model = PositionPolarizationModel(beam, pol, z)
            theta = rng.uniform(-1.0, 1.0) * model.small_angle_guard()
            p_plus = model.conditional_plus(theta, u)
            if pol not in pure:  # pure states are checked in the tails below
                expected = _conditional_plus_of_the_path_amplitudes(beam, pol, theta, z, u)
                assert np.max(np.abs(p_plus - expected)) <= 1e-15
            if pol is diagonal:
                x = beam.xi + u * beam.width(z)
                expected = conditioned_polarization_probabilities(beam, theta, z, x)[0]
                assert np.max(np.abs(p_plus - expected)) <= 1e-15
            elif pol not in pure:
                # where the waves' quadrature resolves the densities (to ~1e-8 of their peak)
                near = np.linspace(-3.0, 3.0, 13)
                wave_plus, wave_minus = joint_density_wave(beam, pol, theta, z, beam.xi + near * beam.width(z))
                expected = wave_plus / (wave_plus + wave_minus)
                assert np.max(np.abs(model.conditional_plus(theta, near) - expected)) <= 1e-10
            # where the envelope underflows the ratio is 0/0; P(+|u) stays a probability
            tail = np.array([-1e6, -1e3, -40.0, 40.0, 1e3, 1e6])
            assert not np.any(sum(model.branch_pdf(theta, tail)))
            p_tail = model.conditional_plus(theta, tail)
            assert np.all((p_tail >= 0.0) & (p_tail <= 1.0))
            if pol in pure:
                assert np.all(p_tail == 0.5)


def test_interference_coefficients_reduce_correctly(beam):
    zr = beam.rayleigh_range
    # b vanishes on the beam center line
    _, b = interference_coefficients(beam, 3.3, beam.xi)
    assert b == 0.0
    # near field on axis: a -> 0 like z^2 (no polarization information there)
    z = 1e-4 * zr
    a, _ = interference_coefficients(beam, z, 0.0)
    assert a == pytest.approx(4.0 * beam.k * z * z * beam.xi / (z * z + zr * zr), rel=1e-12)
    # suppressed by z^2/z_R^2 = 1e-8 relative to the far-field value 4 k xi
    assert abs(a) < 1e-7 * 4.0 * beam.k * abs(beam.xi)


def test_interference_coefficients_reproduce_conditioned(beam):
    # cos(a theta)/cosh(b theta) is an exact rewrite of the conditioned
    # probability, so the two independent expressions agree to rounding
    z = 5.0
    for theta in (1e-7, 1e-8):
        for x in (0.3e-3, 1.2e-3, -0.7e-3):
            a, b = interference_coefficients(beam, z, x)
            rebuilt = 0.5 * (1.0 + math.cos(a * theta) / math.cosh(b * theta))
            p_plus, _ = conditioned_polarization_probabilities(beam, theta, z, x)
            assert abs(float(p_plus) - rebuilt) < 1e-12


def test_quadratic_rate_order_check(beam):
    # 1 - P(+|x) = (a^2 + b^2) theta^2 / 4 + O(theta^4): halving theta must
    # shrink the residual by ~16x
    z, x = 5.0, 1.2e-3
    a, b = interference_coefficients(beam, z, x)

    def residual(theta):
        p_plus, _ = conditioned_polarization_probabilities(beam, theta, z, x)
        return abs(float(p_plus) - (1.0 - (a * a + b * b) * theta * theta / 4.0))

    t = 2e-5
    r1, r2 = residual(t), residual(0.5 * t)
    assert r1 > 0.0
    assert r1 / r2 == pytest.approx(16.0, rel=0.2)


def test_conditioned_cosh_overflow_guard(beam):
    # enormous cosh argument: ratio collapses to 0, probabilities to 1/2
    p_plus, p_minus = conditioned_polarization_probabilities(beam, 0.5, 1e3, 10.0)
    assert p_plus == 0.5 and p_minus == 0.5


# ---------------------------------------------------------------------------
# completeness and regime flags
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=-2e-5, max_value=2e-5),
    xi=st.floats(min_value=-2e-3, max_value=2e-3),
    z_factor=st.floats(min_value=0.0, max_value=20.0),
    x_offset=st.floats(min_value=-5e-3, max_value=5e-3),
    polar=st.floats(min_value=0.0, max_value=math.pi),
    azimuth=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_two_outcome_completeness(theta, xi, z_factor, x_offset, polar, azimuth):
    beam = BeamParams.from_wavelength(WAVELENGTH, WAIST, xi)
    pol = PolarizationState.from_bloch(polar, azimuth)
    z = z_factor * beam.rayleigh_range

    pq = quadrant_probabilities(beam, theta, z)
    assert pq[0] + pq[1] == pytest.approx(1.0, abs=1e-12)

    pp = sagnac_polarization_probabilities(beam, pol, theta)
    assert pp[0] + pp[1] == pytest.approx(1.0, abs=1e-12)

    pc = conditioned_polarization_probabilities(beam, theta, z, xi + x_offset)
    assert float(pc[0] + pc[1]) == pytest.approx(1.0, abs=1e-12)

    pj = sagnac_joint_density(beam, pol, theta, z, xi + x_offset)
    assert float(pj[0]) >= 0.0 and float(pj[1]) >= 0.0


def test_small_angle_flags(beam):
    assert small_angle_flags(beam, 1e-6) == ()
    flags = small_angle_flags(beam, 1e-3)
    assert len(flags) == 2
    assert "dephasing" in flags[0]
    # offset phase flag needs xi != 0
    centered = BeamParams.from_wavelength(WAVELENGTH, WAIST, 0.0)
    assert len(small_angle_flags(centered, 1e-3)) == 1


# ---------------------------------------------------------------------------
# evenness in theta
# ---------------------------------------------------------------------------

EVENNESS_STATES = (
    PolarizationState.diagonal(),
    PolarizationState.from_bloch(0.5 * math.pi, math.pi),  # anti-diagonal
    PolarizationState.circular(),
    PolarizationState.from_bloch(0.5 * math.pi, 0.25 * math.pi),
    PolarizationState.from_bloch(1.2, 0.0),
    PolarizationState.from_bloch(1.2, math.pi / 3),
    PolarizationState.horizontal(),
    PolarizationState.vertical(),
)


def _evenness_models():
    for xi in (0.0, OFFSET):
        beam = BeamParams.from_wavelength(WAVELENGTH, WAIST, xi)
        for pol in EVENNESS_STATES:
            yield PolarizationModel(beam, pol)
        for z in (0.0, beam.rayleigh_range):
            yield PositionModel(beam, z)
            yield QuadrantModel(beam, z)
            yield QuadrantModel(beam, z, xi + 0.2e-3)
            yield ConditionedPolarizationModel(beam, z, 0.3e-3)
            for pol in EVENNESS_STATES:
                yield PositionPolarizationModel(beam, pol, z)


def _outcome_statistics(model, theta):
    if hasattr(model, "probabilities"):
        return np.asarray(model.probabilities(theta))
    u = np.linspace(-4.0, 5.0, 901)  # beam widths from xi
    if hasattr(model, "branch_pdf"):
        return np.concatenate(model.branch_pdf(theta, u))
    return model.pdf(theta, u)


def test_even_in_theta_matches_the_statistics():
    # even_in_theta holds exactly when every outcome probability (density) is
    # the same at theta and -theta; only then is theta = 0 a stationary point
    verdicts = {}
    for model in _evenness_models():
        agree = True
        for theta in (0.7e-6, 1.9e-6):
            plus, minus = _outcome_statistics(model, theta), _outcome_statistics(model, -theta)
            agree &= np.allclose(plus, minus, rtol=1e-9, atol=1e-12 * np.max(np.abs(plus)))
        assert model.even_in_theta == agree, model
        flags = model.regime_flags(0.0, default_step(0.0, model.qfi()))
        flagged = any("stationary point" in f for f in flags)
        assert flagged == (agree and hasattr(model, "pol")), model
        verdicts.setdefault(type(model).__name__, set()).add(agree)
    # every class but the conditioned (always diagonal) one shows both verdicts
    assert verdicts.pop("ConditionedPolarizationModel") == {True}
    assert all(v == {True, False} for v in verdicts.values()), verdicts


# ---------------------------------------------------------------------------
# model records
# ---------------------------------------------------------------------------


def test_models_keep_their_keyword_constructors(beam):
    # the benchmark's self-test builds the models positionally, and its tracer
    # derives counting subclasses with type(); both read the same fields
    pol = PolarizationState.from_bloch(1.2, 0.4)
    z = 2.0 * beam.rayleigh_range
    models = (
        (PositionModel, {"beam": beam, "z": z}),
        (QuadrantModel, {"beam": beam, "z": z, "split": 2e-4}),
        (PolarizationModel, {"beam": beam, "pol": pol}),
        (ConditionedPolarizationModel, {"beam": beam, "z": z, "x": 1.3e-3}),
        (PositionPolarizationModel, {"beam": beam, "pol": pol, "z": z}),
    )
    for cls, fields in models:
        subclass = type("Counting" + cls.__name__, (cls,), {})
        for model in (cls(**fields), cls(*fields.values()), subclass(**fields)):
            for name, value in fields.items():
                assert getattr(model, name) is value
            # no tuple methods join the attribute probes the oracle and tracer make
            assert not hasattr(model, "count") and not hasattr(model, "index")
        fields_text = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({fields_text})"
    assert QuadrantModel(beam=beam, z=z).split is None
    assert ConditionedPolarizationModel(beam=beam, z=z, x=0.0).pol == PolarizationState.diagonal()
