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

# Largest |q| = |b theta| at which cos(p)/cosh(q) is evaluated, and 0 beyond: the
# information squares sinh(q), finite only for |q| < ~355, and past 350 the ratio
# is below 2e-152, so 1 +- ratio already rounds to exactly 1.
COSH_CUTOFF = 350.0

# a polarization Fisher denominator below this at the degenerate maximal-visibility
# working point gives the analytic theta->0 limit
DEGENERATE_DEN = 1e-14

# largest x with a finite e^x
EXP_LIMIT = math.log(sys.float_info.max)


# the bounds are formed from k w0 and k xi, so that no length is squared (Var(x) = w0^2/4)


def qfi_beam_deflection(beam: BeamParams) -> float:
    """Quantum bound for direct deflection sensing: 16 k^2 Var(x) at the object."""
    kw0 = beam.k * beam.w0
    return 4.0 * kw0 * kw0


def qfi_sagnac(beam: BeamParams, pol: PolarizationState) -> float:
    """Quantum bound for the common-path (counter-propagating) interferometer.

    16 k^2 [Var(x) + (1 - <sz>^2) xi^2]: the transverse displacement adds
    information whenever the polarization populations are balanced.
    """
    sz = pol.sigma_z_mean
    kxi = beam.k * beam.xi
    return qfi_beam_deflection(beam) + 16.0 * (1.0 - sz * sz) * kxi * kxi


def qfi_mach_zehnder(beam: BeamParams, pol: PolarizationState) -> float:
    """Quantum bound for the single-sided (one arm probes the object) interferometer.

    8 k^2 (1 - <sz>) [Var(x) + (1 + <sz>) xi^2 / 2].
    """
    sz = pol.sigma_z_mean
    kxi = beam.k * beam.xi
    return 0.5 * (1.0 - sz) * (qfi_beam_deflection(beam) + 8.0 * (1.0 + sz) * kxi * kxi)


def fisher_position(beam: BeamParams, z: float) -> float:
    """Fisher information of an ideal position measurement at plane z.

    16 k^2 (w0^2/4) z^2/(z^2 + z_R^2): grows with the lever arm and saturates
    the deflection QFI in the far field.  Independent of theta and xi.
    """
    s = beam.plane(z)[1]  # z/sqrt(z^2 + z_R^2)
    return qfi_beam_deflection(beam) * s * s


def quadrant_argument(beam: BeamParams, theta: float, z: float, split: Optional[float] = None):
    """(g, 2 z/w(z)) of the quadrant scheme at plane z, so that dg/dtheta = sqrt(2) 2 z/w.

    g = sqrt(2) (xi + 2 theta z - split) / w(z) = sqrt(2) (t s + c (xi - split)/w0),
    with t = k w0 theta and (c, s) of ``beam.plane(z)``; the split defaults to x = xi.
    """
    c, s, _ = beam.plane(z)
    slope = beam.k * beam.w0 * s  # 2 z/w
    offset = 0.0 if split is None else c * (beam.xi - split) / beam.w0
    return math.sqrt(2.0) * (slope * theta + offset), slope


def fisher_quadrant(
    beam: BeamParams, theta: float, z: float, split: Optional[float] = None
) -> float:
    """Fisher information of the sign (quadrant) measurement at plane z.

        F = 32 z^2 e^{-2 g^2} / (pi w^2(z) [1 - erf^2(g)]),
        g = sqrt(2) (xi + 2 theta z - split) / w(z),

    with the split defaulting to x = xi so that g = 2 sqrt(2) theta z / w(z).
    """
    g, slope = quadrant_argument(beam, theta, z, split)
    # 1 - erf^2 is even in g and equals erfc(|g|) (2 - erfc(|g|)), stable in both tails
    erfc = math.erfc(abs(g))
    complement = erfc * (2.0 - erfc)
    if complement <= 0.0:
        return 0.0
    return 8.0 * slope * slope * math.exp(-2.0 * g * g) / (math.pi * complement)


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
    kw0, kxi = beam.k * beam.w0, beam.k * beam.xi
    t = kw0 * theta  # B theta^2 = 2 t^2
    dephasing = 4.0 * t * t
    if dephasing > EXP_LIMIT:
        # e^{2B th^2} is past the float range; the numerator grows only as B^2 th^2
        return 0.0
    offset = 4.0 * kxi * theta
    c, s = math.cos(offset - pol.coherence_phase), math.sin(offset - pol.coherence_phase)
    # e^{2B th^2} - 4 d^2 c^2 rewritten with only non-cancelling terms
    den = math.expm1(dephasing) + (1.0 - 4.0 * d * d) + 4.0 * d * d * s * s
    # the theta -> 0 limit where both phases are below rounding against den
    if den <= 0.0 or (den < DEGENERATE_DEN and dephasing + offset * offset < DEGENERATE_DEN):
        return qfi_beam_deflection(beam) + 16.0 * kxi * kxi
    root = kw0 * t * c + kxi * s  # (B theta c + 2 k xi s) / 2
    return 64.0 * d * d * root * (root / den)


def interference_coefficients(beam: BeamParams, z, x):
    """Per-radian rates (a, b) of the conditioned interference signal at x.

    ``a`` multiplies theta inside the cosine (polarization-rotation phase) and
    ``b`` inside the cosh (which-path damping):

        a = 4 k (z_R^2 x + z^2 xi) / (z^2 + z_R^2),
        b = 4 k z z_R (x - xi) / (z^2 + z_R^2),

    formed as 4 k (c^2 x + s^2 xi) and 4 k c s (x - xi) from ``beam.plane(z)``.
    z is one plane (a float) and x a float, an ndarray or a list (a figure's
    column), and (a, b) are of the same kind; or z is a column of planes for x
    of shape (planes, nodes) (see ``per_plane``).  The constants of z are formed
    once per plane, so a list or a column gives, bit for bit, the values of one
    call per point.
    """
    k4, xi = 4.0 * beam.k, beam.xi

    def constants(z):
        c, s, _ = beam.plane(z)
        return c * c, s * s * xi, k4 * c * s

    cc, ssxi, kcs = per_plane(constants, z)
    if isinstance(x, list):
        return [k4 * (cc * v + ssxi) for v in x], [kcs * (v - xi) for v in x]
    return k4 * (cc * x + ssxi), kcs * (x - xi)


def fisher_conditioned(beam: BeamParams, z, x, theta: float):
    """Fisher information of the polarization measurement at a point detector x.

    ``information_from_rates`` of ``interference_coefficients(beam, z, x)``, with
    z and x as there; at theta = 0 it loads no numpy, and a list of x gives, bit
    for bit, the values of one call per point.
    """
    return information_from_rates(*interference_coefficients(beam, z, x), theta)


def information_from_rates(a, b, theta):
    """Conditioned Fisher information from the rates (a, b) of ``interference_coefficients``.

    Exact value from the conditioned probabilities (1/2)[1 pm cos(a th)/cosh(b th)]:

        F = [a sin(p) + b cos(p) tanh(q)]^2 / [sinh^2(q) + sin^2(p)],
        p = a theta, q = b theta,

    divided through by theta^2: [a^2 S(p) + b^2 cos(p) T(q)]^2 / [b^2 H(q)^2 + a^2 S(p)^2],
    with S, T, H = sin(v)/v, tanh(v)/v, sinh(v)/v (1 at v = 0).  No difference
    cancels, no square of theta underflows, and it is finite up to COSH_CUTOFF;
    at theta = 0, and where a = b = 0, it is the limit a^2 + b^2 =
    16 k^2 (z_R^2 x^2 + z^2 xi^2)/(z^2 + z_R^2).  a and b are floats, ndarrays or
    lists, and F is of the same kind; theta is a float or, for a and b of shape
    (rows, nodes), a column of one theta per row, whose theta = 0 rows take that limit.
    """
    if getattr(theta, "ndim", 0) == 0 and theta == 0.0:
        if isinstance(a, list):
            return [p * p + q * q for p, q in zip(a, b)]
        return a * a + b * b
    import numpy as np  # here, so that the figures, which plot theta = 0, load no numpy

    kind = a
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = a * theta
    qa = np.abs(b * theta)
    qc = np.minimum(qa, COSH_CUTOFF)
    aa, bb = a * a, b * b
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        sinc = np.where(p == 0.0, 1.0, np.sin(p) / p)
        tanhc, sinhc = (np.where(qc == 0.0, 1.0, f(qc) / qc) for f in (np.tanh, np.sinh))
        num = aa * sinc + bb * np.cos(p) * tanhc
        den = bb * sinhc * sinhc + aa * sinc * sinc
        val = num * (num / den)
    val = np.where((den > 0.0) & (theta != 0.0), val, aa + bb)
    val = np.where(qa > COSH_CUTOFF, 0.0, val)
    if isinstance(kind, list):
        return val.tolist()
    if np.ndim(kind) == 0:
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
