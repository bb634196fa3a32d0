import functools

import numpy as np
import pytest

from tiltsense import BeamParams

WAVELENGTH = 633e-9
WAIST = 1e-3
OFFSET = 1e-3


@pytest.fixture()
def beam():
    """Reference beam: 633 nm, 1 mm waist, displaced 1 mm."""
    return BeamParams.from_wavelength(WAVELENGTH, WAIST, OFFSET)


@pytest.fixture()
def centered_beam():
    return BeamParams.from_wavelength(WAVELENGTH, WAIST, 0.0)


@functools.lru_cache(maxsize=None)
def leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order (read-only)."""
    xs, ws = np.polynomial.legendre.leggauss(n)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def gauss_quad(f, lo, hi, n=2000):
    """Fixed-order Gauss-Legendre integral, for oracle-side checks."""
    xs, ws = leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return float(np.sum(ws * f(mid + half * xs)) * half)
