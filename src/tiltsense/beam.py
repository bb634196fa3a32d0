"""Gaussian beam geometry and detection density.

The beam propagates along z, reflects off a tilting surface at z = 0 and is
observed in one transverse dimension x.  A surface tilt of ``theta`` deflects
the reflected beam by ``2*theta``.  ``BeamParams`` and the functions here take
SI (meters, radians); the scheme models compute in beam units, the position
u = (x - xi)/w(z) and the tilt t = k w0 theta, and a plane z enters only
through the ratios of ``BeamParams.plane(z)``.  No length is squared, and a
result depends on the beam only through t, z/z_R and xi/w0 (a Fisher
information through (k w0)^2 times a function of them).
"""

from __future__ import annotations

import math
from typing import NamedTuple

TWO_PI = 2.0 * math.pi
ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)  # peak of the profile in u, sqrt(2/pi) e^{-2 u^2}
DOMAIN_WIDTHS = 10.0  # integration window, in beam widths (units of u) around the centers


class _BeamFields(NamedTuple):
    k: float
    w0: float
    xi: float = 0.0


class BeamParams(_BeamFields):
    """Monochromatic Gaussian beam, waist at the reflecting surface.

    An immutable record compared by value, in SI; the constructor refuses a
    beam whose Rayleigh range or quantum bound is 0 or not finite.

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
        if not 0.0 < self.rayleigh_range < math.inf:
            raise ValueError(
                f"Rayleigh range k w0^2/2 must be positive and finite, got k={k!r}, w0={w0!r}"
            )
        # qfi_sagnac's balanced-state bound: every Fisher information and every square
        # the closed forms and figures take stay below it; the oracle's step is set by it
        bound = 16.0 * k * k * (0.25 * w0 * w0 + xi * xi)
        if not 0.0 < bound < math.inf:
            raise ValueError(
                "the quantum bound 16 k^2 (w0^2/4 + xi^2) must be "
                f"{'finite' if bound else 'positive'}, got k={k!r}, w0={w0!r}, xi={xi!r}"
            )
        # qfi_beam_deflection's bound, which underflows where a large xi keeps the one above
        if not k * w0 * (k * w0) > 0.0:
            raise ValueError(f"the deflection bound 4 (k w0)^2 must be positive, got k={k!r}, w0={w0!r}")
        return self

    @classmethod
    def from_wavelength(cls, wavelength: float, w0: float, xi: float = 0.0) -> "BeamParams":
        return cls(k=TWO_PI / wavelength, w0=w0, xi=xi)

    @classmethod
    def from_rayleigh_range(cls, z_r: float, wavelength: float, xi: float = 0.0) -> "BeamParams":
        """Back-solve the waist from a prescribed Rayleigh range."""
        if not 0.0 < z_r < math.inf:
            raise ValueError(f"Rayleigh range must be positive and finite, got {z_r}")
        k = TWO_PI / wavelength
        return cls(k=k, w0=math.sqrt(2.0 * z_r / k), xi=xi)

    @property
    def wavelength(self) -> float:
        return TWO_PI / self.k

    @property
    def rayleigh_range(self) -> float:
        """z_R = k*w0^2/2, the near-field/far-field boundary."""
        return 0.5 * self.k * (self.w0 * self.w0)

    def plane(self, z: float) -> tuple[float, float, float]:
        """(c, s, w) = (w0/w(z), (z/z_R) w0/w(z), w(z)) at one plane z, from z/z_R or,
        past z_R, from z_R/z, so that no ratio leaves the float range.  The deflection
        2 theta z is t s beam widths, with t = k w0 theta."""
        zr = self.rayleigh_range
        if abs(z) <= zr:
            zeta = z / zr
            rho = math.hypot(1.0, zeta)  # w/w0
            return 1.0 / rho, zeta / rho, self.w0 * rho
        eta = zr / z
        rho = math.hypot(1.0, eta)  # w z_R/(w0 |z|)
        return abs(eta) / rho, math.copysign(1.0 / rho, z), abs(z) * (self.w0 / zr) * rho

    def width(self, z: float) -> float:
        """Beam width w(z) = w0*sqrt(1 + z^2/z_R^2) at one plane z."""
        return self.plane(z)[2]


def each_plane(value, *columns):
    """value(*row) at one row of floats, or the list of value(*row) over the rows of columns.

    A column is an ndarray of shape (rows, 1), z values for a column of planes
    or theta values beside them; a float in place of a column is every row's.
    """
    if all(getattr(column, "ndim", 0) == 0 for column in columns):
        return value(*columns)
    import numpy as np

    if len(columns) > 1:
        columns = np.broadcast_arrays(*columns)
    return [value(*row) for row in zip(*(column.ravel().tolist() for column in columns))]


def per_plane(constants, *columns):
    """constants(*row) at one row of floats, or at each row of columns (see ``each_plane``).

    A column of z values, of shape (planes, 1), or of the z and theta values of
    (theta, z) rows, is taken one row at a time through the scalar code, so
    that each row gets the bits of a one-row call, and what ``constants``
    returns, a float or a tuple of floats, comes back as columns of that
    shape.  Broadcast against positions of shape (planes, nodes), they give
    each row its own constants.  Floats (the figures pass one z) load no numpy.
    """
    if all(getattr(column, "ndim", 0) == 0 for column in columns):
        return constants(*columns)
    import numpy as np

    shape = np.broadcast(*columns).shape
    values = np.array(each_plane(constants, *columns))
    if values.ndim == 1:
        return values.reshape(shape)
    return tuple(values.T.reshape((-1,) + shape))


def intensity_profile(beam: BeamParams, theta: float, z, x):
    """Probability density of detecting the reflected photon at position x.

    The reflected beam center sits at ``xi + 2*theta*z`` in the plane z, so

        P(x) = A * exp(-2 (x - xi - 2 theta z)^2 / w(z)^2),
        A    = sqrt(2 / (pi w(z)^2)),

    which integrates to 1 over x, evaluated as sqrt(2/pi)/w e^{-2 (u - t s)^2} in
    the terms of ``beam.plane(z)``.  A list of x (a figure grid) is evaluated
    point by point with ``math.exp`` and gives a list; any other x (a float or
    an ndarray) goes through numpy.  z is one plane (a float) or, for x of
    shape (planes, nodes), a column of planes (see ``per_plane``).
    """

    def constants(z):
        _, s, w = beam.plane(z)
        return w, ROOT_2_OVER_PI / w, beam.k * beam.w0 * s * theta

    w, amp, center = per_plane(constants, z)
    if isinstance(x, list):
        exp, xi = math.exp, beam.xi
        return [amp * exp(-2.0 * d * d) for d in ((v - xi) / w - center for v in x)]
    import numpy as np

    u = (np.asarray(x, dtype=float) - beam.xi) / w - center
    return amp * np.exp(-2.0 * u * u)
