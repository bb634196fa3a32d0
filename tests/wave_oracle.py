"""Independent reconstruction of the joint outcome densities from first principles.

Builds the two interferometer branch wavefunctions by direct Gauss-Legendre
quadrature of the momentum-space integral

    psi_s(x) = (1/sqrt(2 pi)) int dq psi(q) e^{-i q xi}
               e^{i (q + s 2 k theta)^2 z / (2 k)} e^{i (q + s 2 k theta) x},

(s = +1 for the H path, -1 for V) and forms the diagonal-basis densities
|alpha psi_+ (x) pm beta psi_- (x)|^2 / 2.  No closed-form beam-propagation
results are used, so this is a genuinely independent oracle for the
interference formulas in tiltsense.schemes.
"""

import numpy as np

from conftest import leggauss

QSPAN_AMPLITUDE_SIGMAS = 14.0


def branch_wavefunction(beam, theta, z, x, sign, nodes=4000):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    q_max = QSPAN_AMPLITUDE_SIGMAS * np.sqrt(2.0) / beam.w0
    qs, wts = leggauss(nodes)
    qs = qs * q_max
    wts = wts * q_max
    psi_q = (beam.w0 ** 2 / (2.0 * np.pi)) ** 0.25 * np.exp(-((qs * beam.w0) ** 2) / 4.0)
    shifted = qs + sign * 2.0 * beam.k * theta
    phase = (
        -qs[:, None] * beam.xi
        + shifted[:, None] ** 2 * z / (2.0 * beam.k)
        + shifted[:, None] * x[None, :]
    )
    vals = psi_q[:, None] * np.exp(1j * phase)
    return (wts[:, None] * vals).sum(axis=0) / np.sqrt(2.0 * np.pi)


def joint_density_wave(beam, pol, theta, z, x, nodes=4000):
    """(p_plus, p_minus) densities built from the numerically propagated waves."""
    psi_h = branch_wavefunction(beam, theta, z, x, +1, nodes)
    psi_v = branch_wavefunction(beam, theta, z, x, -1, nodes)
    p_plus = 0.5 * np.abs(pol.alpha * psi_h + pol.beta * psi_v) ** 2
    p_minus = 0.5 * np.abs(pol.alpha * psi_h - pol.beta * psi_v) ** 2
    return p_plus, p_minus
