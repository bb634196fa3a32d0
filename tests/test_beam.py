import math

import numpy as np
import pytest
from scipy import integrate

from tiltsense import BeamParams, intensity_profile

from conftest import OFFSET, WAIST, WAVELENGTH


def test_validation():
    with pytest.raises(ValueError):
        BeamParams(k=-1.0, w0=1e-3)
    with pytest.raises(ValueError):
        BeamParams(k=1e7, w0=0.0)
    with pytest.raises(ValueError):
        BeamParams(k=1e7, w0=1e-3, xi=math.nan)
    # z_R = k w0^2 / 2 underflows to 0, overflows, or w0 ** 2 itself overflows
    for k, w0 in ((1e7, 1e-300), (1e7, 1e200), (1e-200, 1e160)):
        with pytest.raises(ValueError, match="Rayleigh range"):
            BeamParams(k=k, w0=w0)
    # (k w0)^2 overflows while z_R stays finite
    for k, w0 in ((6.3e200, 1e-3), (1e7, 1e150)):
        with pytest.raises(ValueError, match=r"quantum bound 16 k\^2 \(w0\^2/4 \+ xi\^2\) must be finite"):
            BeamParams(k=k, w0=w0)
    assert BeamParams(k=1e7, w0=1e146).rayleigh_range == pytest.approx(5e298)


def test_validation_messages():
    cases = (
        ({"k": -1.0, "w0": 1e-3}, "wavenumber must be positive and finite, got -1.0"),
        ({"k": 1e7, "w0": 0.0}, "waist must be positive and finite, got 0.0"),
        ({"k": 1e7, "w0": 1e-3, "xi": math.inf}, "beam displacement must be finite, got inf"),
        (
            {"k": 1e7, "w0": 1e-300},
            "Rayleigh range k w0^2/2 must be positive and finite, got k=10000000.0, w0=1e-300",
        ),
        (
            {"k": 6.3e200, "w0": 1e-3},
            "the quantum bound 16 k^2 (w0^2/4 + xi^2) must be finite, "
            "got k=6.3e+200, w0=0.001, xi=0.0",
        ),
    )
    for fields, message in cases:
        with pytest.raises(ValueError) as info:
            BeamParams(**fields)
        assert str(info.value) == message
    # positional arguments are validated the same way
    with pytest.raises(ValueError, match="waist must be positive"):
        BeamParams(1e7, -1e-3)


def test_deflection_bound_that_underflows_is_refused():
    # 16 k^2 (w0^2/4 + xi^2) = 1.6e-199 stays positive through xi, while 4 (k w0)^2
    # underflows to 0 (a zero quantum bound for the position scheme and its oracle step)
    for k, w0, xi in ((1e-100, 1e-110, 1.0), (1.756957470181827e-51, 1.4523906791118475e-134, 2e-34)):
        with pytest.raises(ValueError) as info:
            BeamParams(k=k, w0=w0, xi=xi)
        assert str(info.value) == f"the deflection bound 4 (k w0)^2 must be positive, got k={k!r}, w0={w0!r}"


@pytest.mark.parametrize("z_r", [-1.0, 0.0, math.inf, math.nan])
def test_rayleigh_range_is_checked_before_the_waist_is_solved(z_r):
    with pytest.raises(ValueError) as info:
        BeamParams.from_rayleigh_range(z_r, 633e-9)
    assert str(info.value) == f"Rayleigh range must be positive and finite, got {z_r}"


def test_beam_is_an_immutable_value(beam):
    for name in ("k", "w0", "xi", "extra"):
        with pytest.raises(AttributeError):
            setattr(beam, name, 1.0)
    same = BeamParams(k=beam.k, w0=beam.w0, xi=beam.xi)
    assert same == beam and hash(same) == hash(beam)
    assert BeamParams(k=beam.k, w0=beam.w0, xi=0.0) != beam
    assert repr(beam) == f"BeamParams(k={beam.k!r}, w0={beam.w0!r}, xi={beam.xi!r})"
    assert BeamParams(k=1e7, w0=1e-3).xi == 0.0


def test_wavelength_roundtrip(beam):
    assert beam.wavelength == pytest.approx(WAVELENGTH, rel=1e-15)
    assert beam.rayleigh_range == pytest.approx(math.pi * WAIST ** 2 / WAVELENGTH, rel=1e-14)


def test_from_rayleigh_range_backsolves_waist():
    beam = BeamParams.from_rayleigh_range(1.0, WAVELENGTH)
    assert beam.rayleigh_range == pytest.approx(1.0, rel=1e-14)


def test_width_at_waist(beam):
    assert beam.width(0.0) == WAIST


def test_width_at_rayleigh_range(beam):
    # the width grows by sqrt(2) after one Rayleigh range
    assert beam.width(beam.rayleigh_range) == pytest.approx(math.sqrt(2.0) * WAIST, rel=1e-14)


def test_width_at_ten_meters(beam):
    # frozen from an independent evaluation via z_R = pi w0^2 / lambda
    assert beam.width(10.0) == pytest.approx(2.249406227262312e-3, rel=1e-13)


def test_width_monotone(beam):
    zs = np.linspace(0.0, 20 * beam.rayleigh_range, 200)
    ws = [beam.width(z) for z in zs]
    assert np.all(np.diff(ws) >= 0.0)
    assert min(ws) >= WAIST


def test_width_far_field_asymptote(beam):
    z = 1e4 * beam.rayleigh_range
    assert beam.width(z) / WAIST == pytest.approx(z / beam.rayleigh_range, rel=1e-6)


def test_profile_peak_value(centered_beam):
    beam = BeamParams.from_wavelength(WAVELENGTH, WAIST, OFFSET)
    peak = intensity_profile(beam, theta=0.0, z=0.0, x=OFFSET)
    assert peak == pytest.approx(math.sqrt(2.0 / (math.pi * WAIST ** 2)), rel=1e-14)


@pytest.mark.parametrize("theta", [0.0, 1e-6, 5e-6])
@pytest.mark.parametrize("z_factor", [0.0, 0.3, 1.0, 10.0])
def test_profile_normalization_and_moments(beam, theta, z_factor):
    z = z_factor * beam.rayleigh_range
    w = beam.width(z)
    center = beam.xi + 2.0 * theta * z
    lo, hi = center - 10 * w, center + 10 * w

    norm, _ = integrate.quad(
        lambda x: intensity_profile(beam, theta, z, x), lo, hi,
        epsabs=1e-14, epsrel=1e-13, limit=200,
    )
    assert norm == pytest.approx(1.0, abs=1e-10)

    mean, _ = integrate.quad(
        lambda x: x * intensity_profile(beam, theta, z, x), lo, hi,
        epsabs=1e-16, epsrel=1e-13, limit=200,
    )
    assert mean == pytest.approx(center, abs=1e-12)

    second, _ = integrate.quad(
        lambda x: (x - center) ** 2 * intensity_profile(beam, theta, z, x), lo, hi,
        epsabs=1e-18, epsrel=1e-13, limit=200,
    )
    assert second == pytest.approx(w * w / 4.0, rel=1e-10)
