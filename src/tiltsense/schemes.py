"""Outcome probabilities for the four tilt-measurement schemes.

A tilt ``theta`` of the reflecting surface deflects the beam by ``2*theta``.
The schemes observe, at a detector plane z:

* the full transverse intensity profile (``PositionModel``),
* only the sign of the detected position (``QuadrantModel``),
* the diagonal polarization of the common-path interferometer output,
  integrated over position (``PolarizationModel``),
* polarization and position jointly (``PositionPolarizationModel``), with
  ``ConditionedPolarizationModel`` giving the polarization statistics of a
  point detector at fixed x.

In the interferometer the H and V components counter-propagate and pick up
opposite deflections, so the polarization coherence acquires a theta- and
position-dependent phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional, Union

import numpy as np

from ._integrate import integrate_interval
from .beam import BeamParams, intensity_profile
from .fisher import (
    COSH_CUTOFF,
    fisher_conditioned,
    fisher_position,
    fisher_quadrant,
    fisher_sagnac_polarization,
    interference_coefficients,
    qfi_beam_deflection,
    qfi_sagnac,
)
from .polarization import NORM_TOL, PolarizationState

# beyond these the first-order (small-angle) saturation statements degrade,
# although the exact formulas remain valid
SMALL_ANGLE_LIMIT = 0.01


def small_angle_flags(beam: BeamParams, theta: float) -> tuple[str, ...]:
    """Warnings for operating points outside the first-order regime.

    Returned as plain strings so callers can attach them to their own output
    rows; nothing is raised and no global state is touched.
    """
    flags = []
    dephasing = 2.0 * (beam.k * beam.w0) ** 2 * theta * theta
    if dephasing >= SMALL_ANGLE_LIMIT:
        flags.append(f"dephasing argument 2(k w0 theta)^2 = {dephasing:.3e} >= 0.01")
    offset_phase = (4.0 * beam.k * beam.xi * theta) ** 2
    if offset_phase >= SMALL_ANGLE_LIMIT:
        flags.append(f"displacement phase (4 k xi theta)^2 = {offset_phase:.3e} >= 0.01")
    return tuple(flags)


def quadrant_probabilities(
    beam: BeamParams, theta: float, z: float, split: Optional[float] = None
):
    """Probabilities that the photon lands on either side of a split detector.

    The split line defaults to the undeflected beam center x = xi (detector
    pre-aligned to the beam), which makes the result independent of xi:

        P_pm = (1/2) [1 pm erf(2 sqrt(2) theta z / w(z))].

    Passing ``split`` moves the line elsewhere for sensitivity studies.
    """
    if split is None:
        split = beam.xi
    w = beam.width(z)
    arg = math.sqrt(2.0) * (beam.xi + 2.0 * theta * z - split) / w
    # erfc on both sides keeps the small outcome accurate in the tails
    return 0.5 * math.erfc(-arg), 0.5 * math.erfc(arg)


def sagnac_joint_density(
    beam: BeamParams, pol: PolarizationState, theta: float, z: float, x
):
    """Joint densities (p_plus, p_minus) of diagonal-basis outcome and position.

    Projecting the interferometer output onto (|H> pm |V>)/sqrt(2) and then on
    position gives, per outcome, the half-weighted displaced Gaussians of the
    two counter-propagating paths plus an interference term:

        p_pm(x) = |alpha|^2/2 |psi(x-xi+2 theta z)|^2
                + |beta|^2/2  |psi(x-xi-2 theta z)|^2
                pm A d e^{-8 theta^2 z^2/w^2} e^{-2(x-xi)^2/w^2} cos(psi),
        psi     = 4 k theta (w0^2/w^2)(x-xi) + 4 k theta xi - phi,

    with A = sqrt(2/(pi w^2(z))) and d e^{i phi} = alpha* beta.  With u = x - xi,
    s = 2 theta z, q = 4 u s / w^2 and t = e^{-|q|} it is evaluated as

        p_pm = A e^{-2(|u| - |s|)^2/w^2}
               [(sqrt(near) - sqrt(far) t)^2 / 2 + 2 d t {cos^2, sin^2}(psi/2)],

    where ``near`` is the weight of the path whose center lies on x's side
    (|beta|^2 for q >= 0) and far = 1 - near.  Since d^2 = near * far, both
    terms are non-negative and nothing cancels at a dark fringe.
    """
    x = np.asarray(x, dtype=float)
    w2 = beam.width(z) ** 2
    amp = math.sqrt(2.0 / (math.pi * w2))
    u = x.reshape(-1) - beam.xi  # at least 1-d, so that the ufuncs below can write in place
    shift = 2.0 * theta * z

    pa = abs(pol.alpha) ** 2
    pb = abs(pol.beta) ** 2
    d = pol.coherence_magnitude
    phi = pol.coherence_phase

    # in place: with more live temporaries glibc trims and refaults them every call
    q = u * (4.0 * shift / w2)
    envelope = np.abs(u)
    envelope -= abs(shift)
    envelope *= envelope
    envelope *= -2.0 / w2
    np.exp(envelope, out=envelope)
    envelope *= amp
    t = np.abs(q)
    t *= -1.0  # -|q| until it is replaced by t itself below
    if pa == pb:
        # sqrt(near) - sqrt(far) t = sqrt(pa) (1 - t), with t - 1 = expm1(-|q|)
        np.expm1(t, out=t)
        gap = t * t
        gap *= 0.5 * pa
        t += 1.0
    else:
        # sqrt(near) - sqrt(far) t: through 1 - t = -expm1(-|q|) where t >= 1/2, so
        # that it stays accurate for near ~ far, and through t itself in the tail
        toward_v = q >= 0.0
        root_near = np.where(toward_v, math.sqrt(pb), math.sqrt(pa))
        root_far = np.where(toward_v, math.sqrt(pa), math.sqrt(pb))
        m = np.expm1(t)
        np.exp(t, out=t)
        gap = np.where(m >= -0.5, (root_near - root_far) - root_far * m, root_near - root_far * t)
        gap *= gap
        gap *= 0.5
    # {cos^2, sin^2}(psi/2) = {(1 - tau^2)^2, 4 tau^2} / (1 + tau^2)^2 with
    # tau = tan(psi/4): one transcendental, and each part keeps its own zero
    tau = u * (beam.k * theta * beam.w0 ** 2 / w2)
    tau += beam.k * theta * beam.xi - 0.25 * phi
    np.tan(tau, out=tau)
    tau *= tau
    t *= 2.0 * d
    scale = tau + 1.0
    scale *= scale
    t /= scale
    p_minus = tau * t
    p_minus *= 4.0
    p_minus += gap
    p_minus *= envelope
    p_plus = np.subtract(1.0, tau, out=tau)
    p_plus *= p_plus
    p_plus *= t
    p_plus += gap
    p_plus *= envelope
    # [()] turns the 0-d results of a scalar x back into scalars
    return p_plus.reshape(x.shape)[()], p_minus.reshape(x.shape)[()]


def sagnac_polarization_probabilities(beam: BeamParams, pol: PolarizationState, theta: float):
    """Position-integrated probabilities of the diagonal polarization outcomes.

    Independent of the detection plane z:

        P_pm = (1/2) [1 pm 2 d e^{-B theta^2} cos(4 k theta xi - phi)],
        B    = 2 k^2 w0^2.
    """
    d = pol.coherence_magnitude
    phi = pol.coherence_phase
    b_coeff = 2.0 * (beam.k * beam.w0) ** 2
    contrast = (
        2.0
        * d
        * math.exp(-b_coeff * theta * theta)
        * math.cos(4.0 * beam.k * beam.xi * theta - phi)
    )
    # visibility cannot exceed 1; clip the normalization rounding of d
    contrast = max(-1.0, min(1.0, contrast))
    return 0.5 * (1.0 + contrast), 0.5 * (1.0 - contrast)


def conditioned_polarization_probabilities(beam: BeamParams, theta: float, z: float, x):
    """Polarization probabilities conditioned on detection at position x.

    For the diagonal input state alpha = beta = 1/sqrt(2),

        P(pm | x) = (1/2) [1 pm cos(4 k theta (w0^2/w^2)(x-xi) + 4 k theta xi)
                               / cosh(8 theta z (x-xi) / w^2)],

    which sums to 1 exactly.  For |cosh argument| > COSH_CUTOFF the ratio is
    returned as 0 (both outcomes equally likely) to avoid overflow.
    """
    x = np.asarray(x, dtype=float)
    w2 = beam.width(z) ** 2
    u = x - beam.xi
    p = 4.0 * beam.k * theta * (beam.w0 ** 2 / w2) * u + 4.0 * beam.k * theta * beam.xi
    q = 8.0 * theta * z * u / w2
    qa = np.abs(q)
    ratio = np.where(
        qa > COSH_CUTOFF, 0.0, np.cos(p) / np.cosh(np.minimum(qa, COSH_CUTOFF))
    )
    return 0.5 * (1.0 + ratio), 0.5 * (1.0 - ratio)


# ---------------------------------------------------------------------------
# Probability models: a scheme bound to beam (+ polarization), exposing its
# outcome distribution as a function of theta.  Discrete models implement
# probabilities(theta); continuous ones pdf/branch_pdf plus an integration
# domain.  Every model also implements the same estimation protocol:
#
#   fisher(theta)                    closed-form Fisher information
#   decomposition(theta)             (joint model only) its polarization and spatial parts
#   qfi()                            the matching quantum bound
#   regime_flags(theta)              warnings for points outside the first-order regime
#   even_in_theta                    True when only |theta| is identifiable
#   small_angle_guard()              largest |theta| an estimate may take (inf: none)
#   sample(theta, nu, rng)           nu independent outcomes
#   statistic(outcomes)              the outcomes reduced once to what the likelihood needs
#   log_likelihood(stat, theta)      summed log probability of the reduced outcomes
#   score(stat, theta)               its analytic d/dtheta
#   one_port(stat)                   True when all outcomes fell in one port of a
#                                    two-outcome scheme (P+ or P- at 0: not a regular point)
# ---------------------------------------------------------------------------

DOMAIN_WIDTHS = 10.0  # integration window, in local beam widths around the centers

LOG_FLOOR = 1e-300  # densities are floored here before taking logarithms
LOG_FLOOR_LN = math.log(LOG_FLOOR)

# relative tolerance of the joint decomposition's quadrature
DECOMPOSITION_RTOL = 1e-10


def _sample_signs(p_plus, nu: int, rng: np.random.Generator):
    return np.where(rng.random(nu) < p_plus, 1, -1).astype(np.int8)


def _sample_mixture(model, theta: float, nu: int, rng: np.random.Generator):
    """Exact positions from the model's Gaussian-mixture representation."""
    weights, means, sigmas = model.gaussian_mixture(theta)
    component = rng.choice(len(weights), size=nu, p=weights / weights.sum())
    return means[component] + sigmas[component] * rng.standard_normal(nu)


class _DeflectionScheme:
    """Protocol shared by the schemes that image the deflected beam directly."""

    @property
    def even_in_theta(self) -> bool:
        # the deflection 2 theta z is odd in theta; at z = 0 nothing depends on theta
        return self.z == 0.0

    def qfi(self) -> float:
        return qfi_beam_deflection(self.beam)

    def regime_flags(self, theta: float) -> tuple[str, ...]:
        return ()

    def small_angle_guard(self) -> float:
        return math.inf

    def one_port(self, stat) -> bool:
        return False


class _InterferometricScheme:
    """Protocol shared by the polarization schemes of the common-path interferometer."""

    @property
    def even_in_theta(self) -> bool:
        # the interference phase enters as cos(c theta - phi), even in theta when sin(phi) = 0
        return abs(math.sin(self.pol.coherence_phase)) <= NORM_TOL

    def qfi(self) -> float:
        return qfi_sagnac(self.beam, self.pol)

    def regime_flags(self, theta: float) -> tuple[str, ...]:
        flags = small_angle_flags(self.beam, theta)
        if theta == 0.0 and self.even_in_theta:
            flags += ("theta=0 stationary point: finite differences see only the even part",)
        return flags

    def small_angle_guard(self) -> float:
        """Largest |theta| inside the first-order regime of ``small_angle_flags``."""
        beam = self.beam
        limits = [math.sqrt(SMALL_ANGLE_LIMIT / (2.0 * (beam.k * beam.w0) ** 2))]
        if beam.xi != 0.0:
            limits.append(math.sqrt(SMALL_ANGLE_LIMIT) / (4.0 * beam.k * abs(beam.xi)))
        return min(limits)

    def one_port(self, stat) -> bool:
        return False


class _TwoOutcomeScheme:
    """Sampling and likelihood of +1/-1 outcomes given by probabilities(theta).

    The counts (n_plus, n_minus) are sufficient; each model supplies
    ``plus_slope(theta)`` = dP_plus/dtheta for the score.
    """

    def sample(self, theta: float, nu: int, rng: np.random.Generator):
        return _sample_signs(float(self.probabilities(theta)[0]), nu, rng)

    def statistic(self, outcomes):
        signs = np.asarray(outcomes)
        n_plus = int(np.count_nonzero(signs > 0))
        return n_plus, signs.size - n_plus

    def log_likelihood(self, stat, theta: float) -> float:
        n_plus, n_minus = stat
        p = np.maximum(np.asarray(self.probabilities(theta), dtype=float), LOG_FLOOR)
        return n_plus * math.log(p[0]) + n_minus * math.log(p[1])

    def score(self, stat, theta: float) -> float:
        n_plus, n_minus = stat
        p = np.maximum(np.asarray(self.probabilities(theta), dtype=float), LOG_FLOOR)
        return float(self.plus_slope(theta) * (n_plus / p[0] - n_minus / p[1]))

    def one_port(self, stat) -> bool:
        return 0 in stat


@dataclass(frozen=True)
class PositionModel(_DeflectionScheme):
    """Imaging detector at plane z; outcome is the continuous position x."""

    beam: BeamParams
    z: float

    def mean(self, theta: float) -> float:
        return self.beam.xi + 2.0 * theta * self.z

    def sigma(self) -> float:
        return 0.5 * self.beam.width(self.z)

    def pdf(self, theta: float, x):
        return intensity_profile(self.beam, theta, self.z, x)

    def gaussian_mixture(self, theta: float):
        """(weights, means, sigmas) of the exact mixture representation."""
        return (
            np.array([1.0]),
            np.array([self.mean(theta)]),
            np.array([self.sigma()]),
        )

    def domain(self, theta: float):
        w = self.beam.width(self.z)
        c = self.mean(theta)
        return c - DOMAIN_WIDTHS * w, c + DOMAIN_WIDTHS * w

    def breakpoints(self, theta: float):
        return (self.mean(theta),)

    def fisher(self, theta: float) -> float:
        return fisher_position(self.beam, self.z)

    def sample(self, theta: float, nu: int, rng: np.random.Generator):
        return _sample_mixture(self, theta, nu, rng)

    def statistic(self, outcomes):
        """(n, sample mean, sum of squared deviations): sufficient for a Gaussian."""
        x = np.asarray(outcomes, dtype=float)
        mean = float(x.mean())
        return x.size, mean, float(np.sum((x - mean) ** 2))

    def log_likelihood(self, stat, theta: float) -> float:
        # the pointwise sum of log pdf; no sampled density comes near LOG_FLOOR
        n, mean, squares = stat
        w2 = self.beam.width(self.z) ** 2
        spread = squares + n * (mean - self.mean(theta)) ** 2
        return 0.5 * n * math.log(2.0 / (math.pi * w2)) - 2.0 * spread / w2

    def score(self, stat, theta: float) -> float:
        # linear in theta, with its root at (mean - xi) / (2 z)
        n, mean, _ = stat
        return 8.0 * n * self.z * (mean - self.mean(theta)) / self.beam.width(self.z) ** 2


@dataclass(frozen=True)
class QuadrantModel(_TwoOutcomeScheme, _DeflectionScheme):
    """Sign detector at plane z; outcomes are +1/-1 for x above/below the split."""

    beam: BeamParams
    z: float
    split: Optional[float] = None

    def probabilities(self, theta: float):
        return np.array(quadrant_probabilities(self.beam, theta, self.z, self.split))

    def plus_slope(self, theta: float) -> float:
        split = self.beam.xi if self.split is None else self.split
        w = self.beam.width(self.z)
        arg = math.sqrt(2.0) * (self.beam.xi + 2.0 * theta * self.z - split) / w
        return 2.0 * math.sqrt(2.0 / math.pi) * self.z / w * math.exp(-arg * arg)

    def fisher(self, theta: float) -> float:
        return fisher_quadrant(self.beam, theta, self.z, self.split)


@dataclass(frozen=True)
class PolarizationModel(_TwoOutcomeScheme, _InterferometricScheme):
    """Position-integrated diagonal polarization measurement; outcomes +1/-1."""

    beam: BeamParams
    pol: PolarizationState

    def probabilities(self, theta: float):
        return np.array(sagnac_polarization_probabilities(self.beam, self.pol, theta))

    def plus_slope(self, theta: float) -> float:
        beam = self.beam
        b_coeff = 2.0 * (beam.k * beam.w0) ** 2
        rate = 4.0 * beam.k * beam.xi
        phase = rate * theta - self.pol.coherence_phase
        return (
            self.pol.coherence_magnitude
            * math.exp(-b_coeff * theta * theta)
            * (-2.0 * b_coeff * theta * math.cos(phase) - rate * math.sin(phase))
        )

    @property
    def even_in_theta(self) -> bool:
        # c = 4 k xi: without a displacement the phase does not depend on theta
        return self.beam.xi == 0.0 or super().even_in_theta

    def fisher(self, theta: float) -> float:
        return fisher_sagnac_polarization(self.beam, self.pol, theta)


@dataclass(frozen=True)
class ConditionedPolarizationModel(_TwoOutcomeScheme, _InterferometricScheme):
    """Diagonal polarization statistics of a point detector at fixed x.

    Its quantum bound is the full-state one; the per-detection information at
    large |x| may legitimately exceed it, since rare detections are not a
    complete measurement.
    """

    beam: BeamParams
    z: float
    x: float
    # the conditioned probabilities are those of the diagonal input state
    pol: ClassVar[PolarizationState] = PolarizationState.diagonal()

    def probabilities(self, theta: float):
        p_plus, p_minus = conditioned_polarization_probabilities(
            self.beam, theta, self.z, self.x
        )
        return np.array([float(p_plus), float(p_minus)])

    def plus_slope(self, theta: float) -> float:
        # P+ = (1/2)[1 + cos(a theta) / cosh(b theta)]
        a, b = (float(v) for v in interference_coefficients(self.beam, self.z, self.x))
        q = b * theta
        if abs(q) > COSH_CUTOFF:
            return 0.0
        p = a * theta
        return -0.5 * (a * math.sin(p) + b * math.cos(p) * math.tanh(q)) / math.cosh(q)

    def fisher(self, theta: float) -> float:
        return fisher_conditioned(self.beam, self.z, self.x, theta)


class FisherDecomposition(NamedTuple):
    avg_conditioned: float
    position_part: float
    total: float


class JointStatistic(NamedTuple):
    """Per-photon factors of the joint likelihood, fixed once by the outcomes.

    With u = x - xi, q = 8 theta z u / w^2 and psi = theta * phase_rate - phi,
    the density of ``sagnac_joint_density`` factors as

        p_pm = A e^{gauss - 8 theta^2 z^2 / w^2}
               [(|alpha|^2 e^{-q} + |beta|^2 e^{q}) / 2  pm  d cos psi]
             = A e^{gauss - 8 theta^2 z^2 / w^2 + |q|} I,
        I    = (near + far t^2) / 2  pm  d t cos psi,     t = e^{-|q|},

    where ``near`` is the weight of the path whose center lies on the
    photon's side (|beta|^2 for q >= 0) and far = 1 - near.  Nothing in
    this form overflows, whatever theta.
    """

    signed_d: np.ndarray  # d for a "+" outcome, -d for a "-" outcome
    path_rate: np.ndarray  # |8 z u / w^2| = |q| / |theta|
    phase_rate: np.ndarray  # 4 k (w0^2 / w^2) u + 4 k xi
    gauss: np.ndarray  # -2 u^2 / w^2
    half_near: Union[float, np.ndarray]  # near / 2 for theta >= 0
    half_far: Union[float, np.ndarray]

    def halves(self, theta: float):
        """(near / 2, far / 2) at theta: the paths swap sides with the sign of theta."""
        if theta >= 0.0:
            return self.half_near, self.half_far
        return self.half_far, self.half_near


@dataclass(frozen=True)
class PositionPolarizationModel(_InterferometricScheme):
    """Joint measurement of diagonal polarization and position at plane z."""

    beam: BeamParams
    pol: PolarizationState
    z: float

    @property
    def even_in_theta(self) -> bool:
        # theta -> -theta also swaps the two path centers xi -+ 2 theta z, which
        # changes nothing only with balanced populations or at z = 0
        balanced = abs(self.pol.sigma_z_mean) <= NORM_TOL
        return (balanced or self.z == 0.0) and super().even_in_theta

    def branch_pdf(self, theta: float, x):
        """The pair of densities (p_plus(x), p_minus(x))."""
        return sagnac_joint_density(self.beam, self.pol, theta, self.z, x)

    def total_pdf(self, theta: float, x):
        """Position marginal: the interference term cancels, leaving a mixture."""
        weights, means, sigmas = self.gaussian_mixture(theta)
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for wgt, mu, sg in zip(weights, means, sigmas):
            out += wgt * np.exp(-0.5 * ((x - mu) / sg) ** 2) / (sg * math.sqrt(2.0 * math.pi))
        return out

    def total_pdf_dtheta(self, theta: float, x):
        """Analytic d/dtheta of the position marginal."""
        x = np.asarray(x, dtype=float)
        w2 = self.beam.width(self.z) ** 2
        amp = math.sqrt(2.0 / (math.pi * w2))
        u = x - self.beam.xi
        shift = 2.0 * theta * self.z
        pa = abs(self.pol.alpha) ** 2
        pb = abs(self.pol.beta) ** 2
        g_h = amp * np.exp(-2.0 * (u + shift) ** 2 / w2)
        g_v = amp * np.exp(-2.0 * (u - shift) ** 2 / w2)
        # d(shift)/dtheta = 2z, d g/dtheta = -+ 8 z (u +- shift) g / w^2
        return (8.0 * self.z / w2) * (pb * (u - shift) * g_v - pa * (u + shift) * g_h)

    def conditional_plus(self, theta: float, x):
        """P(outcome=+1 | detected at x)."""
        p_plus, p_minus = sagnac_joint_density(self.beam, self.pol, theta, self.z, x)
        total = p_plus + p_minus
        return np.where(total > 0.0, p_plus / np.where(total > 0.0, total, 1.0), 0.5)

    def gaussian_mixture(self, theta: float):
        shift = 2.0 * theta * self.z
        sigma = 0.5 * self.beam.width(self.z)
        return (
            np.array([abs(self.pol.alpha) ** 2, abs(self.pol.beta) ** 2]),
            np.array([self.beam.xi - shift, self.beam.xi + shift]),
            np.array([sigma, sigma]),
        )

    def domain(self, theta: float):
        w = self.beam.width(self.z)
        shift = abs(2.0 * theta * self.z)
        return (
            self.beam.xi - shift - DOMAIN_WIDTHS * w,
            self.beam.xi + shift + DOMAIN_WIDTHS * w,
        )

    def breakpoints(self, theta: float):
        shift = 2.0 * theta * self.z
        return (self.beam.xi - shift, self.beam.xi, self.beam.xi + shift)

    def decomposition(self, theta: float) -> FisherDecomposition:
        """Split the Fisher information into polarization and spatial parts.

        For the diagonal input state:

            total = integral dx P(x) F_cond(x)  +  integral dx (dP/dtheta)^2 / P,

        with P(x) the position marginal.  In the small-angle regime the first term
        carries everything (16 k^2 [w0^2/4 + xi^2]) and the second vanishes.
        """
        if not self.pol.is_diagonal:
            raise ValueError("closed-form decomposition is defined for the diagonal input state")

        def integrand(xx):
            p = self.total_pdf(theta, xx)
            dp = self.total_pdf_dtheta(theta, xx)
            dead = p < 1e-300
            return np.stack([
                p * fisher_conditioned(self.beam, self.z, xx, theta),
                np.where(dead, 0.0, dp * dp / np.where(dead, 1.0, p)),
            ])

        # both parts to DECOMPOSITION_RTOL of the bound on their sum: near theta = 0 the
        # position part is rounding noise that no panel count resolves relative to itself
        lo, hi = self.domain(theta)
        avg, pos = integrate_interval(
            integrand, lo, hi, self.breakpoints(theta),
            rtol=DECOMPOSITION_RTOL, atol=DECOMPOSITION_RTOL * self.qfi(),
        )
        return FisherDecomposition(float(avg), float(pos), float(avg + pos))

    def fisher(self, theta: float) -> float:
        """Total of ``decomposition`` (diagonal input state only)."""
        return self.decomposition(theta).total

    def sample(self, theta: float, nu: int, rng: np.random.Generator):
        """(signs, positions): positions from the mixture, then each sign given x."""
        x = _sample_mixture(self, theta, nu, rng)
        return _sample_signs(self.conditional_plus(theta, x), nu, rng), x

    def statistic(self, outcomes) -> JointStatistic:
        signs, x = outcomes
        beam = self.beam
        w2 = beam.width(self.z) ** 2
        u = np.asarray(x, dtype=float) - beam.xi
        d = self.pol.coherence_magnitude
        pa, pb = abs(self.pol.alpha) ** 2, abs(self.pol.beta) ** 2
        rate = (8.0 * self.z / w2) * u
        half_near = half_far = 0.5 * pa
        if pa != pb:
            toward_v = rate >= 0.0
            half_near = 0.5 * np.where(toward_v, pb, pa)
            half_far = 0.5 * np.where(toward_v, pa, pb)
        return JointStatistic(
            signed_d=np.where(np.asarray(signs) > 0, d, -d),
            path_rate=np.abs(rate),
            phase_rate=(4.0 * beam.k * beam.w0 ** 2 / w2) * u + 4.0 * beam.k * beam.xi,
            gauss=(-2.0 / w2) * u * u,
            half_near=half_near,
            half_far=half_far,
        )

    def log_likelihood(self, stat: JointStatistic, theta: float) -> float:
        # in place: with more live temporaries glibc trims and refaults them every call
        half_near, half_far = stat.halves(theta)
        neg_q = stat.path_rate * -abs(theta)
        log_p = stat.phase_rate * theta
        log_p -= self.pol.coherence_phase
        np.cos(log_p, out=log_p)
        t2 = np.exp(neg_q)
        log_p *= t2
        log_p *= stat.signed_d
        t2 *= t2
        t2 *= half_far
        log_p += t2
        log_p += half_near
        # I >= 0 holds exactly (d^2 = near * far); clamp rounding residue
        np.maximum(log_p, 0.0, out=log_p)
        with np.errstate(divide="ignore"):
            np.log(log_p, out=log_p)
        log_p -= neg_q
        log_p += stat.gauss
        w2 = self.beam.width(self.z) ** 2
        prefactor = 0.5 * math.log(2.0 / (math.pi * w2)) - 8.0 * (theta * self.z) ** 2 / w2
        np.maximum(log_p, LOG_FLOOR_LN - prefactor, out=log_p)
        return float(log_p.sum()) + log_p.size * prefactor

    def score(self, stat: JointStatistic, theta: float) -> float:
        """d/dtheta of ``log_likelihood``; photons with I = 0 (floored) add nothing.

        Per photon, d log p / dtheta = -16 theta z^2 / w^2
            + [sgn(theta) path_rate (near - far t^2) / 2 -+ d t phase_rate sin psi] / I,
        with sgn(0) = +1 to match ``JointStatistic.halves``.
        """
        half_near, half_far = stat.halves(theta)
        t = np.exp(stat.path_rate * -abs(theta))
        psi = stat.phase_rate * theta
        psi -= self.pol.coherence_phase
        bracket = np.cos(psi)
        slope = np.sin(psi, out=psi)
        bracket *= t
        bracket *= stat.signed_d
        slope *= t
        slope *= stat.signed_d
        slope *= stat.phase_rate
        t *= t
        t *= half_far
        bracket += t
        bracket += half_near
        np.subtract(half_near, t, out=t)
        t *= stat.path_rate
        if theta < 0.0:
            t *= -1.0
        t -= slope
        ratio = slope  # reuse the buffer; photons with I = 0 keep a 0
        ratio.fill(0.0)
        np.divide(t, bracket, out=ratio, where=bracket > 0.0)
        w2 = self.beam.width(self.z) ** 2
        return float(ratio.sum()) - ratio.size * 16.0 * theta * self.z ** 2 / w2


def fisher_total_decomposition(beam: BeamParams, z: float, theta: float) -> FisherDecomposition:
    """``PositionPolarizationModel.decomposition`` for the diagonal input state."""
    return PositionPolarizationModel(beam, PolarizationState.diagonal(), z).decomposition(theta)
