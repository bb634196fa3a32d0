"""Fisher information of the position, quadrant and polarization schemes at 50 digits.

An mpmath reference, independent of both the closed forms in
``tiltsense.fisher`` and the finite-difference oracle.  Each function builds
the scheme's outcome probabilities from the physics in multiple precision and
forms F = sum_j (dp_j/dtheta)^2 / p_j:

* quadrant: P_pm = erfc(-+ g)/2, g = 2 sqrt(2) theta z / w(z), the derivative
  by ``mp.diff``;
* polarization: P_pm = [1 pm 2 d e^{-2 (k w0 theta)^2} cos(4 k xi theta - phi)]/2,
  the derivative by ``mp.diff``;
* position: the density sqrt(2/pi) e^{-2 (u - 2 theta z/w)^2} of u = (x - xi)/w,
  whose theta-derivative is 4 (u - 2 theta z/w) (2 z/w) times itself,
  integrated by ``mp.quad`` over +-10 widths about its center.

The beam, state and plane are read as the floats the models hold, and w(z)
is w0 sqrt(1 + (z/z_R)^2) with z_R = k w0^2/2, not ``BeamParams.plane``.
Each function returns an ``mpf``.
"""

from mpmath import mp

DIGITS = 50


def _slope(beam, z):
    """2 z/w(z), the rate in beam widths per unit theta of the deflected center."""
    k, w0, z = mp.mpf(beam.k), mp.mpf(beam.w0), mp.mpf(z)
    z_r = k * w0 * w0 / 2
    return 2 * z / (w0 * mp.sqrt(1 + (z / z_r) ** 2))


def _discrete(probabilities, theta):
    theta = mp.mpf(theta)
    return mp.fsum(mp.diff(p, theta) ** 2 / p(theta) for p in probabilities)


def quadrant_fisher(beam, z, theta):
    """F of the sign detector at plane z, split at the undeflected center x = xi."""
    with mp.workdps(DIGITS):
        rate = mp.sqrt(2) * _slope(beam, z)  # dg/dtheta
        return _discrete([lambda t: mp.erfc(-rate * t) / 2, lambda t: mp.erfc(rate * t) / 2], theta)


def polarization_fisher(beam, pol, theta):
    """F of the position-integrated diagonal polarization measurement."""
    with mp.workdps(DIGITS):
        k, w0, xi = mp.mpf(beam.k), mp.mpf(beam.w0), mp.mpf(beam.xi)
        # |alpha* beta| <= 1/2 for a normalized state; the float d may round a few ulp above
        d, phi = min(mp.mpf(pol.coherence_magnitude), mp.mpf(0.5)), mp.mpf(pol.coherence_phase)

        def contrast(t):
            return 2 * d * mp.exp(-2 * (k * w0 * t) ** 2) * mp.cos(4 * k * xi * t - phi)

        return _discrete([lambda t: (1 + contrast(t)) / 2, lambda t: (1 - contrast(t)) / 2], theta)


def position_fisher(beam, z, theta):
    """F of the imaging detector at plane z: the integral of (dp/dtheta)^2 / p over u."""
    with mp.workdps(DIGITS):
        slope = _slope(beam, z)
        center = slope * mp.mpf(theta)
        norm = mp.sqrt(2 / mp.pi)

        def information(u):
            p = norm * mp.exp(-2 * (u - center) ** 2)
            dp = 4 * (u - center) * slope * p
            return dp * dp / p

        return mp.quad(information, [center - 10, center, center + 10])
