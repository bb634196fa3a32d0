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
from typing import NamedTuple, Optional

import numpy as np

from ._integrate import integrate_interval, take_planes
from .beam import DOMAIN_WIDTHS, ROOT_2_OVER_PI, BeamParams, each_plane, per_plane
from .fisher import (
    COSH_CUTOFF,
    fisher_conditioned,
    fisher_position,
    fisher_quadrant,
    fisher_sagnac_polarization,
    information_from_rates,
    interference_coefficients,
    qfi_beam_deflection,
    qfi_sagnac,
    quadrant_argument,
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
    t = beam.k * beam.w0 * theta
    dephasing = 2.0 * t * t
    if dephasing >= SMALL_ANGLE_LIMIT:
        flags.append(f"dephasing argument 2(k w0 theta)^2 = {dephasing:.3e} >= {SMALL_ANGLE_LIMIT}")
    offset_phase = 4.0 * beam.k * beam.xi * theta
    offset_phase *= offset_phase
    if offset_phase >= SMALL_ANGLE_LIMIT:
        flags.append(f"displacement phase (4 k xi theta)^2 = {offset_phase:.3e} >= {SMALL_ANGLE_LIMIT}")
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
    arg = quadrant_argument(beam, theta, z, split)[0]
    # erfc on both sides keeps the small outcome accurate in the tails
    return 0.5 * math.erfc(-arg), 0.5 * math.erfc(arg)


def sagnac_joint_density(beam: BeamParams, pol: PolarizationState, theta, z, x):
    """Joint densities (p_plus, p_minus) of diagonal-basis outcome and position.

    Projecting the interferometer output onto (|H> pm |V>)/sqrt(2) and then on
    position gives, per outcome, the half-weighted displaced Gaussians of the
    two counter-propagating paths plus an interference term:

        p_pm(x) = |alpha|^2/2 |psi(x-xi+2 theta z)|^2
                + |beta|^2/2  |psi(x-xi-2 theta z)|^2
                pm A d e^{-8 theta^2 z^2/w^2} e^{-2(x-xi)^2/w^2} cos(psi),
        psi     = 4 k theta (w0^2/w^2)(x-xi) + 4 k theta xi - phi,

    with A = sqrt(2/(pi w^2(z))) and d e^{i phi} = alpha* beta.  In the beam
    units u = (x - xi)/w and t = k w0 theta, with (c, s) of ``beam.plane(z)``,
    the paths sit at u = -+ t s, and with q = 4 u t s and t' = e^{-|q|} it is

        w p_pm = sqrt(2/pi) e^{-2(|u| - |t s|)^2}
                 [(sqrt(near) - sqrt(far) t')^2 / 2 + 2 d t' {cos^2, sin^2}(psi/2)],
        psi    = 4 t c u + 4 k xi theta - phi,

    where ``near`` is the weight of the path whose center lies on u's side
    (|beta|^2 for q >= 0) and far = 1 - near.  Since d^2 = near * far, both
    terms are non-negative and nothing cancels at a dark fringe.  z is one
    plane (a float), or a column of planes for x of shape (planes, nodes)
    (see ``per_plane``), and theta a float or a column of one tilt per plane.
    """
    c, s, w = per_plane(beam.plane, z)
    u = (np.asarray(x, dtype=float) - beam.xi) / w
    p_plus, p_minus = _joint_density(beam, pol, theta, (c, s), u)
    return p_plus / w, p_minus / w


def _joint_density(beam: BeamParams, pol: PolarizationState, theta, plane, u):
    """The densities w p_pm of ``sagnac_joint_density`` at u = (x - xi)/w(z): the branch
    terms of ``_joint_terms`` times their envelope sqrt(2/pi) e^{-2(|u| - |t s|)^2}."""
    shape = np.shape(u)  # u is taken at least 1-d, so that the ufuncs below can write in place
    u = np.asarray(u, dtype=float).reshape(shape if len(shape) == 2 else -1)
    p_plus, p_minus, path_rate = _joint_terms(beam, pol, theta, plane, u)
    # in place: with more live temporaries glibc trims and refaults them every call
    envelope = np.abs(u)
    envelope -= 0.25 * abs(path_rate)  # |t s|, of the same bits: scaling by 4 is exact
    envelope *= envelope
    envelope *= -2.0
    np.exp(envelope, out=envelope)
    envelope *= ROOT_2_OVER_PI
    p_plus *= envelope
    p_minus *= envelope
    # [()] turns the 0-d results of a scalar u back into scalars
    return p_plus.reshape(shape)[()], p_minus.reshape(shape)[()]


def _joint_terms(beam: BeamParams, pol: PolarizationState, theta, plane, u):
    """The branch terms gap + 2 d t' {cos^2, sin^2}(psi/2) of ``sagnac_joint_density``,
    w p_pm without their envelope, at u of shape (nodes,) or (planes, nodes), and the
    rate 4 t s of q in u per plane, a quarter of which is the envelope's reach |t s|.

    gap = (sqrt(near) - sqrt(far) t')^2 / 2 and t' = e^{-|q|}, q = 4 u t s; both are >= 0.
    ``plane`` is (c, s) of ``beam.plane(z)``, floats or columns (see ``per_plane``), and
    theta a float or a column of one tilt per plane: its share of each plane's constants
    is the scalar expression broadcast, so a row has the bits of a one-row call.
    """
    c, s = plane
    t = beam.k * beam.w0 * theta
    path_rate, phase_rate = 4.0 * t * s, t * c
    q = u * path_rate
    pa = abs(pol.alpha) ** 2
    pb = abs(pol.beta) ** 2
    t = np.abs(q)
    t *= -1.0  # -|q| until it is replaced by t' itself below
    if pa == pb:
        # sqrt(near) - sqrt(far) t' = sqrt(pa) (1 - t'), with t' - 1 = expm1(-|q|)
        np.expm1(t, out=t)
        gap = t * t
        gap *= 0.5 * pa
        t += 1.0
    else:
        # sqrt(near) - sqrt(far) t': through 1 - t' = -expm1(-|q|) where t' >= 1/2, so
        # that it stays accurate for near ~ far, and through t' itself in the tail
        toward_v = q >= 0.0
        root_near = np.where(toward_v, math.sqrt(pb), math.sqrt(pa))
        root_far = np.where(toward_v, math.sqrt(pa), math.sqrt(pb))
        m = np.expm1(t)
        np.exp(t, out=t)
        gap = np.where(m >= -0.5, (root_near - root_far) - root_far * m, root_near - root_far * t)
        gap *= gap
        gap *= 0.5
    t *= 2.0 * pol.coherence_magnitude  # 2 d t'
    # {cos^2, sin^2}(psi/2) = {(1 - tau^2)^2, 4 tau^2} / (1 + tau^2)^2 with
    # tau = tan(psi/4): one transcendental, and each part keeps its own zero
    tau = u * phase_rate
    tau += beam.k * beam.xi * theta - 0.25 * pol.coherence_phase
    np.tan(tau, out=tau)
    tau *= tau
    scale = tau + 1.0
    scale *= scale
    t /= scale
    p_minus = tau * t
    p_minus *= 4.0
    p_minus += gap
    p_plus = np.subtract(1.0, tau, out=tau)
    p_plus *= p_plus
    p_plus *= t
    p_plus += gap
    return p_plus, p_minus, path_rate


def sagnac_polarization_probabilities(beam: BeamParams, pol: PolarizationState, theta: float):
    """Position-integrated probabilities of the diagonal polarization outcomes.

    Independent of the detection plane z:

        P_pm = (1/2) [1 pm 2 d e^{-B theta^2} cos(4 k theta xi - phi)],
        B    = 2 k^2 w0^2.
    """
    t = beam.k * beam.w0 * theta  # B theta^2 = 2 t^2
    contrast = (
        2.0
        * pol.coherence_magnitude
        * math.exp(-2.0 * t * t)
        * math.cos(4.0 * beam.k * beam.xi * theta - pol.coherence_phase)
    )
    # visibility cannot exceed 1; clip the normalization rounding of d
    contrast = max(-1.0, min(1.0, contrast))
    return 0.5 * (1.0 + contrast), 0.5 * (1.0 - contrast)


def conditioned_polarization_probabilities(beam: BeamParams, theta: float, z: float, x):
    """Polarization probabilities conditioned on detection at position x.

    For the diagonal input state alpha = beta = 1/sqrt(2),

        P(pm | x) = (1/2) [1 pm cos(4 k theta (w0^2/w^2)(x-xi) + 4 k theta xi)
                               / cosh(8 theta z (x-xi) / w^2)],

    which sums to 1 exactly, with the rates of ``interference_coefficients``.  For
    |cosh argument| > COSH_CUTOFF the ratio is 0 (both outcomes equally likely).
    """
    a, b = interference_coefficients(beam, z, np.asarray(x, dtype=float))
    qa = np.abs(b * theta)
    ratio = np.where(
        qa > COSH_CUTOFF, 0.0, np.cos(a * theta) / np.cosh(np.minimum(qa, COSH_CUTOFF))
    )
    return 0.5 * (1.0 + ratio), 0.5 * (1.0 - ratio)


# ---------------------------------------------------------------------------
# Probability models: a scheme bound to beam (+ polarization), exposing its
# outcome distribution as a function of theta.  Discrete models implement
# probabilities(theta); continuous ones pdf/branch_pdf plus an integration
# domain, in u = (x - xi)/w(z).  Every model also implements the same protocol:
#
#   fisher(theta)                    closed-form Fisher information
#   decomposition(theta)             (joint model only) its polarization and spatial parts
#   qfi()                            the matching quantum bound
#   regime_flags(theta, step)        warnings for points outside the first-order regime, and
#                                    the stationary point within an oracle step of theta
#   even_in_theta                    True when only |theta| is identifiable
#   small_angle_guard()              largest |theta| an estimate may take (inf: none)
#   sample(theta, nu, rng)           the statistic of nu independent outcomes
#   statistic(outcomes)              outcomes reduced once to what the score needs
#   score(stat, theta)               analytic d/dtheta of the summed log probability
#   one_port(stat)                   True when all outcomes fell in one port of a
#                                    two-outcome scheme (P+ or P- at 0: not a regular point)
# ---------------------------------------------------------------------------

LOG_FLOOR = 1e-300  # a density is floored here before its log, and counts as zero below it

# relative tolerance of the joint decomposition's quadrature
DECOMPOSITION_RTOL = 1e-10


def _sample_signs(p_plus, nu: int, rng: np.random.Generator):
    """+1/-1 int8 outcomes, +1 with probability p_plus (a scalar or one per outcome)."""
    signs = (rng.random(nu) < p_plus).view(np.int8)  # 1 for "+", 0 for "-"
    signs *= 2
    signs -= 1
    return signs


class _SchemeModel:
    """Base of the scheme models, whose fields are the names in their ``__slots__``."""

    __slots__ = ()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def one_port(self, stat) -> bool:
        return False


class _PlaneScheme(_SchemeModel):
    """A model at a column of detector planes z, a float ndarray of shape (planes, 1).

    One plane is a column of one row, or a float z.  theta is a float, or a
    column of z's shape that gives each plane its own tilt, so that a row of
    the batch is a (theta, z) pair.  What depends on them takes that shape,
    each row with the bits of its one-row model: probabilities, ``fisher``,
    ``domain``, ``breakpoints``, ``even_in_theta``, the warnings and the
    quadratures.  The densities take positions u of shape (planes, nodes).
    Sampling and the score take a float z and a float theta only.
    """

    __slots__ = ("_planes",)  # (z, its _plane()), formed once per z

    def _plane(self):
        """(c, s) of ``beam.plane`` at each plane (see ``per_plane``), formed once per z."""
        cached = getattr(self, "_planes", None)
        if cached is None or cached[0] is not self.z:
            cached = self._planes = self.z, per_plane(lambda z: self.beam.plane(z)[:2], self.z)
        return cached[1]

    def _slope(self):
        """2 z/w = k w0 s per plane: the rate in u per unit theta of the deflected center."""
        return self.beam.k * self.beam.w0 * self._plane()[1]

    def at_planes(self, planes):
        """The same model at the planes of index ``planes`` (a 1-d array) only."""
        if len(planes) == len(self.z):
            return self
        model = object.__new__(type(self))  # a subclass's overrides stay in force
        for name in self.__slots__:
            setattr(model, name, getattr(self, name))
        model.z = self.z[planes]
        model._planes = model.z, tuple(v[planes] for v in self._plane())
        return model


class _DeflectionScheme(_SchemeModel):
    """Protocol shared by the schemes that image the deflected beam directly."""

    __slots__ = ()

    @property
    def even_in_theta(self):
        # the deflection 2 theta z is odd in theta; at z = 0 nothing depends on theta
        return self.z == 0.0

    def qfi(self) -> float:
        return qfi_beam_deflection(self.beam)

    def regime_flags(self, theta, step):
        return each_plane(lambda z: (), self.z)

    def small_angle_guard(self) -> float:
        return math.inf


class _InterferometricScheme(_SchemeModel):
    """Protocol shared by the polarization schemes of the common-path interferometer."""

    __slots__ = ()

    @property
    def even_in_theta(self) -> bool:
        # the interference phase enters as cos(c theta - phi), even in theta when sin(phi) = 0
        return abs(math.sin(self.pol.coherence_phase)) <= NORM_TOL

    def qfi(self) -> float:
        return qfi_sagnac(self.beam, self.pol)

    def regime_flags(self, theta, step):
        """A tuple of warnings (at columns of rows, a list of one per row); an even model
        is at its stationary point where the oracle's stencil theta -+ ``step`` straddles 0."""

        def flags(theta, step, even):
            flags = small_angle_flags(self.beam, theta)
            if even and abs(theta) < step:
                flags += ("theta=0 stationary point: finite differences see only the even part",)
            return flags

        return each_plane(flags, theta, step, self.even_in_theta)

    def small_angle_guard(self) -> float:
        """Largest |theta| inside the first-order regime of ``small_angle_flags``."""
        beam = self.beam
        limits = [math.sqrt(SMALL_ANGLE_LIMIT / (2.0 * (beam.k * beam.w0) ** 2))]
        rate = 4.0 * beam.k * abs(beam.xi)  # of the displacement phase; 0 sets no limit
        if rate > 0.0:
            limits.append(math.sqrt(SMALL_ANGLE_LIMIT) / rate)
        return min(limits)


class _TwoOutcomeScheme:
    """Sampling and score of +1/-1 outcomes given by probabilities(theta).

    The counts (n_plus, n_minus) are sufficient, and ``sample`` draws n_plus ~
    Binomial(nu, P_plus); each model supplies ``plus_slope(theta)`` = dP_plus/dtheta.
    """

    __slots__ = ()

    def sample(self, theta: float, nu: int, rng: np.random.Generator):
        n_plus = int(rng.binomial(nu, float(self.probabilities(theta)[0])))
        return n_plus, nu - n_plus

    def statistic(self, outcomes):
        signs = np.asarray(outcomes)
        n_plus = int(np.count_nonzero(signs > 0))
        return n_plus, signs.size - n_plus

    def score(self, stat, theta: float) -> float:
        n_plus, n_minus = stat
        p_plus, p_minus = (max(p, LOG_FLOOR) for p in self.probabilities(theta).tolist())
        return self.plus_slope(theta) * (n_plus / p_plus - n_minus / p_minus)

    def one_port(self, stat) -> bool:
        return 0 in stat


class PositionModel(_PlaneScheme, _DeflectionScheme):
    """Imaging detector at plane z (or at a column, see ``_PlaneScheme``); outcome is the position u."""

    __slots__ = ("beam", "z")

    def __init__(self, beam: BeamParams, z):
        self.beam = beam
        self.z = z

    def mean(self, theta):
        return self._slope() * theta

    def pdf(self, theta, u):
        offset = np.asarray(u, dtype=float) - self.mean(theta)
        return ROOT_2_OVER_PI * np.exp(-2.0 * offset * offset)

    def domain(self, theta):
        c = self.mean(theta)
        return c - DOMAIN_WIDTHS, c + DOMAIN_WIDTHS

    def breakpoints(self, theta):
        return (self.mean(theta),)

    def fisher(self, theta):
        return per_plane(lambda z: fisher_position(self.beam, z), self.z)

    def sample(self, theta: float, nu: int, rng: np.random.Generator):
        return nu, float(rng.normal(self.mean(theta), 0.5 / math.sqrt(nu)))  # the mean; sigma is w/2

    def statistic(self, outcomes):
        """(n, sample mean): all the Gaussian location score reads."""
        u = np.asarray(outcomes, dtype=float)
        return u.size, float(u.mean())

    def score(self, stat, theta: float) -> float:
        # linear in theta, with its root at mean / slope
        n, mean = stat
        slope = self._slope()
        return 4.0 * n * slope * (mean - slope * theta)


class QuadrantModel(_PlaneScheme, _TwoOutcomeScheme, _DeflectionScheme):
    """Sign detector at plane z (or at a column); outcomes are +1/-1 for x above/below the split."""

    __slots__ = ("beam", "z", "split")

    # no command sets split; kept while perfbench's self-test passes one (ROADMAP item 4)
    def __init__(self, beam: BeamParams, z, split: Optional[float] = None):
        self.beam = beam
        self.z = z
        self.split = split

    def probabilities(self, theta):
        return np.array(per_plane(
            lambda z, theta: quadrant_probabilities(self.beam, theta, z, self.split), self.z, theta
        ))

    def plus_slope(self, theta: float) -> float:
        g, slope = quadrant_argument(self.beam, theta, self.z, self.split)
        return ROOT_2_OVER_PI * slope * math.exp(-g * g)

    def fisher(self, theta):
        return per_plane(
            lambda z, theta: fisher_quadrant(self.beam, theta, z, self.split), self.z, theta
        )


class PolarizationModel(_TwoOutcomeScheme, _InterferometricScheme):
    """Position-integrated diagonal polarization measurement; outcomes +1/-1.

    It has no plane; theta is a float, or a column of shape (rows, 1) whose
    probabilities, ``fisher`` and warnings take that shape, each row with the
    bits of a float theta.  Sampling and the score take a float theta.
    """

    __slots__ = ("beam", "pol")

    def __init__(self, beam: BeamParams, pol: PolarizationState):
        self.beam = beam
        self.pol = pol

    def probabilities(self, theta):
        return np.array(per_plane(
            lambda theta: sagnac_polarization_probabilities(self.beam, self.pol, theta), theta
        ))

    def plus_slope(self, theta: float) -> float:
        kw0 = self.beam.k * self.beam.w0
        t = kw0 * theta
        rate = 4.0 * self.beam.k * self.beam.xi
        phase = rate * theta - self.pol.coherence_phase
        return (
            self.pol.coherence_magnitude
            * math.exp(-2.0 * t * t)
            * (-4.0 * kw0 * t * math.cos(phase) - rate * math.sin(phase))
        )

    @property
    def even_in_theta(self) -> bool:
        # c = 4 k xi: without a displacement the phase does not depend on theta
        return self.beam.xi == 0.0 or super().even_in_theta

    def fisher(self, theta):
        return per_plane(lambda theta: fisher_sagnac_polarization(self.beam, self.pol, theta), theta)


class ConditionedPolarizationModel(_TwoOutcomeScheme, _InterferometricScheme):
    """Diagonal polarization statistics of a point detector at fixed x.

    Its quantum bound is the full-state one; the per-detection information at
    large |x| may legitimately exceed it, since rare detections are not a
    complete measurement.
    """

    __slots__ = ("beam", "z", "x")
    # the conditioned probabilities are those of the diagonal input state
    pol = PolarizationState.diagonal()

    def __init__(self, beam: BeamParams, z: float, x: float):
        self.beam = beam
        self.z = z
        self.x = x

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
    """Per-photon factors of the joint score, fixed once by the outcomes.

    A photon's density is ``sagnac_joint_density``'s envelope times
    I = gap + 2 d t cos^2(psi'/2), with psi' = psi for "+" and psi + pi for "-".
    psi'/2 = a - b with a = theta phase_rate / 2 and b = phi/2 (+ pi/2) = k pi/2 + beta,
    |beta| <= pi/4: w = tan(a - beta) is accurate, and tan(psi'/2) is w for even k
    and -1/w for odd k.  The photons of even k come first.
    """

    counts: tuple  # (n_plus, n_minus)
    n_even: int
    beta: float
    path_rate: np.ndarray  # |4 k w0 s u| = |q| / |theta|, with u = (x - xi)/w
    phase_rate: np.ndarray  # 4 k w0 c u + 4 k xi
    roots: Optional[tuple]  # (sqrt(near), sqrt(far)) / sqrt(max weight), theta >= 0; None if equal
    lam: float  # max(|alpha|^2, |beta|^2) / (4 d); 1 for d = 0


class PositionPolarizationModel(_PlaneScheme, _InterferometricScheme):
    """Joint measurement of diagonal polarization and position at plane z (or at a column)."""

    __slots__ = ("beam", "pol", "z")

    def __init__(self, beam: BeamParams, pol: PolarizationState, z):
        self.beam = beam
        self.pol = pol
        self.z = z

    @property
    def even_in_theta(self):
        # theta -> -theta also swaps the two path centers xi -+ 2 theta z, which
        # changes nothing only with balanced populations or at z = 0
        balanced = abs(self.pol.sigma_z_mean) <= NORM_TOL
        return (balanced | (self.z == 0.0)) & super().even_in_theta

    def branch_pdf(self, theta, u):
        """The pair of densities (p_plus(u), p_minus(u))."""
        return _joint_density(self.beam, self.pol, theta, self._plane(), u)

    def _rates(self):
        """(4 k w0 c, 4 k w0 s) per plane: at u the rates are a = 4 k w0 c u + 4 k xi, b = 4 k w0 s u."""
        k4w0 = 4.0 * self.beam.k * self.beam.w0
        return tuple(k4w0 * r for r in self._plane())

    def _marginal(self, theta, u):
        """(P, dP/dtheta) of the position marginal (no interference term): the path Gaussians
        that ``sample`` draws from, of variance 1/4, centers -+ t s moving at -+ k w0 s per theta."""
        slope = self._slope()
        shift, rate = slope * theta, 4.0 * slope
        u = np.asarray(u, dtype=float)
        offset_h, offset_v = u + shift, u - shift
        g_h = (abs(self.pol.alpha) ** 2 * ROOT_2_OVER_PI) * np.exp(-2.0 * offset_h * offset_h)
        g_v = (abs(self.pol.beta) ** 2 * ROOT_2_OVER_PI) * np.exp(-2.0 * offset_v * offset_v)
        return g_h + g_v, rate * (g_v * offset_v - g_h * offset_h)

    def conditional_plus(self, theta: float, u):
        """P(outcome=+1 | detected at u): p_plus / (p_plus + p_minus) of the branch terms
        of ``_joint_terms``, whose envelope cancels.  The terms are non-negative, so it stays
        in [0, 1] also where the envelope underflows; a pure H or V state (d = 0) gives 1/2,
        where both terms underflow together (0/0)."""
        u = np.asarray(u, dtype=float)
        if self.pol.coherence_magnitude == 0.0:
            return np.full(u.shape, 0.5)[()]
        p_plus, p_minus, _ = _joint_terms(self.beam, self.pol, theta, self._plane(), u.reshape(-1))
        p_minus += p_plus
        p_plus /= p_minus
        return p_plus.reshape(u.shape)[()]

    def domain(self, theta):
        reach = abs(self._slope() * theta) + DOMAIN_WIDTHS
        return -reach, reach

    def breakpoints(self, theta):
        # the path centers, and the inner edges of their windows once these no longer meet at 0
        shift = self._slope() * theta
        inner = np.maximum(abs(shift) - DOMAIN_WIDTHS, 0.0)
        return (-shift, -inner, 0.0, inner, shift)

    def decomposition(self, theta) -> FisherDecomposition:
        """Split the Fisher information into polarization and spatial parts.

        For the diagonal input state:

            total = integral du P(u) F_cond(u)  +  integral du (dP/dtheta)^2 / P,

        with P(u) the position marginal.  In the small-angle regime the first term
        carries everything (16 k^2 [w0^2/4 + xi^2]) and the second vanishes.
        A model of a column of planes integrates them in the same passes, each
        to its own convergence and at its own theta where theta is a column,
        and its parts are columns over the planes.
        """
        if not self.pol.is_diagonal:
            raise ValueError("closed-form decomposition is defined for the diagonal input state")

        k4xi = 4.0 * self.beam.k * self.beam.xi

        def integrand(u, planes=None):
            model, at = self, theta
            if planes is not None:
                model, at = self.at_planes(planes), take_planes(theta, planes)
            p, dp = model._marginal(at, u)
            a_rate, b_rate = model._rates()
            dead = p < LOG_FLOOR
            return np.stack([
                p * information_from_rates(a_rate * u + k4xi, b_rate * u, at),
                np.where(dead, 0.0, dp * dp / np.where(dead, 1.0, p)),
            ])

        # both parts to DECOMPOSITION_RTOL of the bound on their sum: near theta = 0 the
        # position part is rounding noise that no panel count resolves relative to itself
        lo, hi = self.domain(theta)
        avg, pos = integrate_interval(
            integrand, lo, hi, self.breakpoints(theta),
            rtol=DECOMPOSITION_RTOL, atol=DECOMPOSITION_RTOL * self.qfi(),
        )
        return FisherDecomposition(avg, pos, avg + pos)

    def fisher(self, theta):
        """Total of ``decomposition`` (diagonal input state only)."""
        return self.decomposition(theta).total

    def sample(self, theta: float, nu: int, rng: np.random.Generator):
        """The statistic of nu photons: each photon's path H or V, by the draw of
        ``rng.choice(2, nu, p=weights / weights.sum())``, then its position u about the
        path's center -+ t s, then its sign given u."""
        weights = np.array([abs(self.pol.alpha) ** 2, abs(self.pol.beta) ** 2])
        cdf = np.cumsum(weights / weights.sum())
        # the path as an int8 view: take() on it is about twice as fast as np.where
        # between two scalars, whose branches the random mask mispredicts
        path = (rng.random(nu) >= cdf[0] / cdf[-1]).view(np.int8)
        shift = self._slope() * theta
        u = np.array([-shift, shift]).take(path) + 0.5 * rng.standard_normal(nu)
        return self.statistic((_sample_signs(self.conditional_plus(theta, u), nu, rng), u))

    def statistic(self, outcomes) -> JointStatistic:
        signs, u = outcomes
        pol = self.pol
        plus = np.asarray(signs) > 0
        half = 0.5 * pol.coherence_phase
        k = round(half / (0.5 * math.pi))
        even = plus if k % 2 == 0 else ~plus
        u = np.asarray(u, dtype=float)
        u = np.concatenate([u[even], u[~even]])
        n_even, n_plus = int(np.count_nonzero(even)), int(np.count_nonzero(plus))
        a_rate, b_rate = self._rates()
        rate = b_rate * u
        phase_rate = a_rate * u + 4.0 * self.beam.k * self.beam.xi
        pa, pb = abs(pol.alpha) ** 2, abs(pol.beta) ** 2
        scale, d = 1.0 / max(pa, pb), pol.coherence_magnitude
        return JointStatistic(
            counts=(n_plus, u.size - n_plus),
            n_even=n_even,
            beta=(half - k * (0.5 * math.pi)) - k * 6.123233995736766e-17,  # pi/2 - math.pi/2
            path_rate=np.abs(rate),
            phase_rate=phase_rate,
            roots=None if pa == pb else tuple(  # |beta|^2 is near where rate >= 0
                np.sqrt(scale * np.where(rate >= 0.0, *weights)) for weights in ((pb, pa), (pa, pb))
            ),
            lam=0.25 / (d * scale) if d else 1.0,
        )

    def score(self, stat: JointStatistic, theta: float) -> float:
        """d/dtheta of the summed log density; photons with I = 0 add nothing.

        Per photon (see ``JointStatistic``), with sgn(0) = +1,
            d log p / dtheta = -4 theta (k w0 s)^2
                + [sgn(theta) path_rate (near - far t^2) / 2 - d t phase_rate sin psi'] / I.
        Times (1 + w^2) / (2 d), I is c (root_near - root_far t)^2 + t {1, w^2} for even,
        odd k, and the bracket c sgn(theta) path_rate (root_near^2 - root_far^2 t^2) -+
        t phase_rate w, with c = lam (1 + w^2): sums of products of accurate factors,
        1 - t = -expm1(-|q|) as in ``_joint_terms`` and w, whatever theta and phi.
        """
        m, w, c, gap, p = (np.empty(stat.path_rate.size) for _ in range(5))  # a 2-d block is slower
        np.multiply(stat.path_rate, -abs(theta), out=m)
        np.expm1(m, out=m)  # t - 1
        np.multiply(stat.phase_rate, 0.5 * theta, out=w)
        if stat.beta:
            w -= stat.beta
        np.tan(w, out=w)
        np.square(w, out=c)
        c *= stat.lam
        c += stat.lam
        np.square(m, out=gap)
        np.add(m, 2.0, out=p)
        p *= m  # t^2 - 1
        if stat.roots is not None:  # (root_near - root_far t)^2 and root_far^2 t^2 - root_near^2
            near, far = stat.roots if theta >= 0.0 else stat.roots[::-1]
            np.square(m * far - (near - far), out=gap)
            p *= far * far
            p -= near * near - far * far
        gap *= c
        p *= stat.path_rate
        p *= c if theta >= 0.0 else -c
        m += 1.0  # t
        if not self.pol.coherence_magnitude:
            m *= 0.0  # no interference term
        n = stat.n_even
        gap[:n] += m[:n]
        gap[n:] += np.square(w[n:]) * m[n:]  # I
        w *= m
        w *= stat.phase_rate
        w[n:] *= -1.0
        p += w  # minus the numerator
        if gap.min() > 0.0:
            ratio = np.divide(p, gap, out=p)
        else:  # photons with I = 0 keep a 0
            ratio = np.divide(p, gap, out=np.zeros_like(p), where=gap > 0.0)
        slope = self._slope()  # 2 z/w
        return -float(ratio.sum()) - ratio.size * 4.0 * theta * slope * slope

