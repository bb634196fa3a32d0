"""Fisher information of the measurement schemes and the matching quantum bounds.

Closed-form Fisher information for each scheme, the quantum Fisher information
(QFI) that bounds it, and the Cramer-Rao uncertainty they imply.  Every closed
form here has an independent finite-difference counterpart in
:mod:`tiltsense.oracle`.  The joint measurement's total is an integral over
its own densities, so it lives on its model,
``PositionPolarizationModel.decomposition``.  This module imports no scheme
model; :mod:`tiltsense.schemes` imports it.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

from .beam import BeamParams, per_plane
from .polarization import PolarizationState

# Largest |q| = |b theta| at which the interference ratio cos(p)/cosh(q) is
# evaluated; beyond it the ratio is taken as exactly 0.  The conditioned Fisher
# information squares sinh(q), which stays finite only for |q| < ~355, and past
# 350 the ratio is below 2e-152, so 1 +- ratio already rounds to exactly 1.
COSH_CUTOFF = 350.0

# below this, the polarization Fisher denominator is treated as the degenerate
# maximal-visibility working point and the analytic theta->0 limit is returned
DEGENERATE_DEN = 1e-14

# largest x with a finite e^x
EXP_LIMIT = math.log(sys.float_info.max)


def qfi_beam_deflection(beam: BeamParams) -> float:
    """Quantum bound for direct deflection sensing: 16 k^2 Var(x) at the object."""
    return 16.0 * beam.k ** 2 * beam.variance(0.0)


def qfi_sagnac(beam: BeamParams, pol: PolarizationState) -> float:
    """Quantum bound for the common-path (counter-propagating) interferometer.

    16 k^2 [Var(x) + (1 - <sz>^2) xi^2]: the transverse displacement adds
    information whenever the polarization populations are balanced.
    """
    sz = pol.sigma_z_mean
    return 16.0 * beam.k ** 2 * (beam.variance(0.0) + (1.0 - sz * sz) * beam.xi ** 2)


def qfi_mach_zehnder(beam: BeamParams, pol: PolarizationState) -> float:
    """Quantum bound for the single-sided (one arm probes the object) interferometer.

    8 k^2 (1 - <sz>) [Var(x) + (1 + <sz>) xi^2 / 2].
    """
    sz = pol.sigma_z_mean
    return (
        8.0
        * beam.k ** 2
        * (1.0 - sz)
        * (beam.variance(0.0) + 0.5 * (1.0 + sz) * beam.xi ** 2)
    )


def fisher_position(beam: BeamParams, z: float) -> float:
    """Fisher information of an ideal position measurement at plane z.

    16 k^2 (w0^2/4) z^2/(z^2 + z_R^2): grows with the lever arm and saturates
    the deflection QFI in the far field.  Independent of theta and xi.
    """
    # z and z_R scaled by one power of two so that the larger is in [1/2, 1): no
    # square under- or overflows, the QFI is only scaled down, and the rounding
    # is exactly that of the unscaled expression
    _, exponent = math.frexp(max(abs(z), beam.rayleigh_range))
    z, zr = math.ldexp(z, -exponent), math.ldexp(beam.rayleigh_range, -exponent)
    return qfi_beam_deflection(beam) * z * z / (z * z + zr * zr)


def fisher_quadrant(
    beam: BeamParams, theta: float, z: float, split: Optional[float] = None
) -> float:
    """Fisher information of the sign (quadrant) measurement at plane z.

        F = 32 z^2 e^{-2 g^2} / (pi w^2(z) [1 - erf^2(g)]),
        g = sqrt(2) (xi + 2 theta z - split) / w(z),

    with the split defaulting to x = xi so that g = 2 sqrt(2) theta z / w(z).
    """
    if split is None:
        split = beam.xi
    w = beam.width(z)
    g = math.sqrt(2.0) * (beam.xi + 2.0 * theta * z - split) / w
    # 1 - erf^2 = erfc(g) (2 - erfc(g)), stable in the tails
    erfc = math.erfc(g)
    complement = erfc * (2.0 - erfc)
    if complement <= 0.0:
        return 0.0
    return 32.0 * z * z * math.exp(-2.0 * g * g) / (math.pi * w * w * complement)


def fisher_sagnac_polarization(beam: BeamParams, pol: PolarizationState, theta: float) -> float:
    """Fisher information of the position-integrated polarization measurement.

        F = 16 d^2 [B theta cos(4 k xi theta - phi) + 2 k xi sin(4 k xi theta - phi)]^2
            / (e^{2 B theta^2} - 4 d^2 cos^2(4 k xi theta - phi)),

    with B = 2 k^2 w0^2.  At the degenerate maximal-visibility working point
    (d = 1/2, phi = 0 mod pi, theta -> 0) the 0/0 is resolved by its analytic
    limit 16 k^2 [w0^2/4 + xi^2].
    """
    # |alpha* beta| <= 1/2 for any physical state; normalization rounding can
    # push the stored value a few ulp above, which would flip the sign of the
    # denominator near theta = 0
    d = min(pol.coherence_magnitude, 0.5)
    if d == 0.0:
        return 0.0
    phi = pol.coherence_phase
    b_coeff = 2.0 * (beam.k * beam.w0) ** 2
    dephasing = 2.0 * b_coeff * theta * theta
    if dephasing > EXP_LIMIT:
        # e^{2B th^2} is past the float range; the numerator grows only as B^2 th^2
        return 0.0
    ph = 4.0 * beam.k * beam.xi * theta - phi
    c = math.cos(ph)
    s = math.sin(ph)
    num = 16.0 * d * d * (b_coeff * theta * c + 2.0 * beam.k * beam.xi * s) ** 2
    # e^{2B th^2} - 4 d^2 c^2 rewritten with only non-cancelling terms
    den = math.expm1(dephasing) + (1.0 - 4.0 * d * d) + 4.0 * d * d * s * s
    if den <= 0.0 or (abs(theta) < 1e-12 and den < DEGENERATE_DEN):
        return 16.0 * beam.k ** 2 * (beam.variance(0.0) + beam.xi ** 2)
    return num / den


def interference_coefficients(beam: BeamParams, z, x):
    """Per-radian rates (a, b) of the conditioned interference signal at x.

    ``a`` multiplies theta inside the cosine (polarization-rotation phase) and
    ``b`` inside the cosh (which-path damping):

        a = 4 k (z_R^2 x + z^2 xi) / (z^2 + z_R^2),
        b = 4 k z z_R (x - xi) / (z^2 + z_R^2),

    so that (1/2)[1 pm cos(a theta)/cosh(b theta)] reproduces
    ``conditioned_polarization_probabilities``.  z is one plane (a float) and x
    a float, an ndarray or a list (a figure's column), and (a, b) are of the
    same kind; or z is a column of planes for x of shape (planes, nodes) (see
    ``per_plane``).  The constants of z are formed once per plane, so a list
    or a column gives, bit for bit, the values of one call per point.
    """
    k4, xi = 4.0 * beam.k, beam.xi

    def constants(z):
        # z and z_R scaled as in ``fisher_position``: the rates depend only on their
        # ratio, and k z_R^2 x, which overflows for a very short wavelength, is not formed
        _, exponent = math.frexp(max(abs(z), beam.rayleigh_range))
        z, zr = math.ldexp(z, -exponent), math.ldexp(beam.rayleigh_range, -exponent)
        # the operations and their order are those of the formulas above
        return zr * zr, z * z * xi, k4 * z * zr, z * z + zr * zr

    zr2, zzxi, kzz, denom = per_plane(constants, z)
    if isinstance(x, list):
        return [k4 * (zr2 * v + zzxi) / denom for v in x], [kzz * (v - xi) / denom for v in x]
    return k4 * (zr2 * x + zzxi) / denom, kzz * (x - xi) / denom


def fisher_conditioned(beam: BeamParams, z, x, theta: float):
    """Fisher information of the polarization measurement at a point detector x.

    Exact value from the conditioned probabilities (1/2)[1 pm cos(a th)/cosh(b th)]:

        F = [a sin(p) + b cos(p) tanh(q)]^2 / [sinh^2(q) + sin^2(p)],
        p = a theta, q = b theta,

    a form with no cancelling differences that stays finite up to COSH_CUTOFF.  At
    theta = 0 it equals the limit a^2 + b^2 = 16 k^2 (z_R^2 x^2 + z^2 xi^2)/(z^2 + z_R^2),
    which is returned directly, with no numpy.  x is a float, an ndarray or a list
    (a figure's column), and F is of the same kind; a list gives, bit for bit,
    the values of one call per point.  z is one plane, or a column of planes for
    x of shape (planes, nodes), as in ``interference_coefficients``.
    """
    a, b = interference_coefficients(beam, z, x)
    if theta == 0.0:
        if isinstance(x, list):
            return [p * p + q * q for p, q in zip(a, b)]
        return a * a + b * b
    import numpy as np  # here, so that the figures, which plot theta = 0, load no numpy

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = a * theta
    q = b * theta
    qa = np.abs(q)
    qc = np.minimum(qa, COSH_CUTOFF)
    sp = np.sin(p)
    cp = np.cos(p)
    sh = np.sinh(qc) * np.sign(q)
    th = np.tanh(qc) * np.sign(q)
    s2 = sh * sh + sp * sp
    limit = a * a + b * b
    with np.errstate(invalid="ignore", divide="ignore"):
        val = (a * sp + b * cp * th) ** 2 / s2
    # a subnormal s2 has lost its digits; it needs |p| and |q| below 1.5e-154,
    # where F equals the limit to double precision
    val = np.where(s2 < sys.float_info.min, limit, val)
    val = np.where(qa > COSH_CUTOFF, 0.0, val)
    if isinstance(x, list):
        return val.tolist()
    if np.ndim(x) == 0:
        return float(val)
    return val


def cramer_rao_bound(fisher: float, nu: int) -> float:
    """Lower bound on the tilt uncertainty after nu repetitions: 1/sqrt(nu F)."""
    if fisher <= 0.0:
        return math.inf
    return 1.0 / math.sqrt(nu * fisher)


def analytic_fisher(model, theta: float) -> float:
    """Closed-form Fisher information of a probability model at theta."""
    return model.fisher(theta)


def qfi_for_model(model) -> float:
    """The quantum bound matching a probability model."""
    return model.qfi()
