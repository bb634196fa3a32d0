"""Gaussian beam geometry and detection density.

The beam propagates along z, reflects off a tilting surface at z = 0 and is
observed in one transverse dimension x.  A surface tilt of ``theta`` deflects
the reflected beam by ``2*theta``.  All quantities are SI (meters, radians).
"""

from __future__ import annotations

import math
from typing import NamedTuple

TWO_PI = 2.0 * math.pi


class _BeamFields(NamedTuple):
    k: float
    w0: float
    xi: float = 0.0


class BeamParams(_BeamFields):
    """Monochromatic Gaussian beam, waist at the reflecting surface.

    An immutable record compared by value; the constructor refuses a beam
    whose Rayleigh range or quantum bound is not finite.

    Parameters
    ----------
    k : float
        Wavenumber 2*pi/wavelength [rad/m].
    w0 : float
        Waist radius (1/e^2 intensity half-width at z = 0) [m].
    xi : float
        Transverse displacement of the beam center [m].
    """

    __slots__ = ()

    def __new__(cls, k: float, w0: float, xi: float = 0.0):
        self = super().__new__(cls, k, w0, xi)
        if not (math.isfinite(k) and k > 0.0):
            raise ValueError(f"wavenumber must be positive and finite, got {k}")
        if not (math.isfinite(w0) and w0 > 0.0):
            raise ValueError(f"waist must be positive and finite, got {w0}")
        if not math.isfinite(xi):
            raise ValueError(f"beam displacement must be finite, got {xi}")
        # widths, densities and Fisher information divide by z_R; w0 ** 2 in
        # rayleigh_range raises OverflowError from w0 = 1.3e154 m on
        if not (w0 < 1e154 and 0.0 < self.rayleigh_range < math.inf):
            raise ValueError(
                f"Rayleigh range k w0^2/2 must be positive and finite, got k={k!r}, w0={w0!r}"
            )
        # qfi_sagnac's balanced-state bound: every scheme's Fisher information and
        # every square the closed forms and figures take stay below it (** would raise)
        if not math.isfinite(16.0 * k * k * (0.25 * w0 * w0 + xi * xi)):
            raise ValueError(
                "the quantum bound 16 k^2 (w0^2/4 + xi^2) must be finite, "
                f"got k={k!r}, w0={w0!r}, xi={xi!r}"
            )
        return self

    @classmethod
    def from_wavelength(cls, wavelength: float, w0: float, xi: float = 0.0) -> "BeamParams":
        return cls(k=TWO_PI / wavelength, w0=w0, xi=xi)

    @classmethod
    def from_rayleigh_range(cls, z_r: float, wavelength: float, xi: float = 0.0) -> "BeamParams":
        """Back-solve the waist from a prescribed Rayleigh range."""
        k = TWO_PI / wavelength
        return cls(k=k, w0=math.sqrt(2.0 * z_r / k), xi=xi)

    @property
    def wavelength(self) -> float:
        return TWO_PI / self.k

    @property
    def rayleigh_range(self) -> float:
        """z_R = k*w0^2/2, the near-field/far-field boundary."""
        return 0.5 * self.k * self.w0 ** 2

    def width(self, z: float) -> float:
        """Beam width w(z) = w0*sqrt(1 + z^2/z_R^2) at one plane z."""
        return self.w0 * math.sqrt(1.0 + (z / self.rayleigh_range) ** 2)

    def variance(self, z: float = 0.0) -> float:
        """Transverse variance of the intensity profile, w(z)^2/4."""
        w = self.width(z)
        return w * w / 4.0


def each_plane(value, z):
    """value(z) at one plane z (a float), or the list of value(v) over the planes v of a column."""
    if getattr(z, "ndim", 0) == 0:
        return value(z)
    return [value(v) for v in z.ravel().tolist()]


def per_plane(constants, z):
    """constants(z) at one plane z (a float), or at each plane of a column of planes.

    A column is an ndarray of z values of shape (planes, 1).  It is taken one
    plane at a time through the scalar code, so that each plane gets the bits
    of a one-plane call, and what ``constants`` returns, a float or a tuple of
    floats, comes back as columns of that shape.  Broadcast against positions
    x of shape (planes, nodes), they give each plane's row its own constants.
    A float z (the figures pass one) loads no numpy.
    """
    if getattr(z, "ndim", 0) == 0:
        return constants(z)
    import numpy as np

    values = np.array(each_plane(constants, z))
    if values.ndim == 1:
        return values.reshape(z.shape)
    return tuple(values.T.reshape((-1,) + z.shape))


def intensity_profile(beam: BeamParams, theta: float, z, x):
    """Probability density of detecting the reflected photon at position x.

    The reflected beam center sits at ``xi + 2*theta*z`` in the plane z, so

        P(x) = A * exp(-2 (x - xi - 2 theta z)^2 / w(z)^2),
        A    = sqrt(2 / (pi w(z)^2)),

    which integrates to 1 over x.  A list of x (a figure grid) is evaluated
    point by point with ``math.exp`` and gives a list; any other x (a float or
    an ndarray of quadrature nodes) goes through numpy.  z is one plane (a
    float) or, for x of shape (planes, nodes), a column of planes (see
    ``per_plane``).
    """

    def constants(z):
        w2 = beam.width(z) ** 2
        return w2, math.sqrt(2.0 / (math.pi * w2)), beam.xi + 2.0 * theta * z

    w2, amp, center = per_plane(constants, z)
    if isinstance(x, list):
        exp = math.exp
        return [amp * exp(-2.0 * (v - center) * (v - center) / w2) for v in x]
    import numpy as np

    u = np.asarray(x, dtype=float) - center
    return amp * np.exp(-2.0 * u * u / w2)
