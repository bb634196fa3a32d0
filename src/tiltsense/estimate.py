"""Monte Carlo outcome sampling and maximum-likelihood tilt estimation.

Used to verify empirically that the maximum-likelihood estimator saturates
the Cramer-Rao bound 1/(nu F) for each measurement scheme.  Trials draw from
independent counter-based random streams keyed by (master seed, trial index),
so runs are reproducible and trial order is irrelevant.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .fisher import analytic_fisher, cramer_rao_bound
from .schemes import LOG_FLOOR, JointStatistic, PolarizationModel

END_INSET = 1e-3  # the end scores are read this fraction of the interval inside its ends
SCORE_TOL = 1e-12  # rad; the score root is refined until a step is this small
COUNT_ROOT_TOL, COUNT_SHARE = 1e-4, 0.9  # the joint MLE's start, see ``_count_root``
# a cap well above what bisection needs to narrow any practical bracket to SCORE_TOL
MAX_SCORE_STEPS = 200


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based generator for one trial; streams never overlap."""
    key = np.array([seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_outcomes(model, theta: float, nu: int, rng: np.random.Generator):
    """``model.statistic`` of nu independent outcomes at tilt theta.

    The counts (n+, n-) and the position model's (nu, mean) are drawn
    directly; the joint model draws its (signs, positions) and reduces them.
    """
    if nu < 1:
        raise ValueError("nu must be at least 1")
    return model.sample(theta, nu, rng)


# ---------------------------------------------------------------------------
# likelihood and MLE
# ---------------------------------------------------------------------------


def log_likelihood(model, outcomes, theta: float) -> float:
    """Summed log probability of the recorded outcomes at tilt theta.

    Built from the model's public outcome probabilities, as the oracle reads
    them: ``probabilities`` with the sign counts, ``branch_pdf`` with each
    photon's branch picked by its sign, or ``pdf``.  Each probability is
    floored at ``LOG_FLOOR`` before its log.  The MLE never calls this: it is
    the reference that the models' analytic scores are checked against.
    """
    if hasattr(model, "probabilities"):
        n_plus, n_minus = model.statistic(outcomes)
        p_plus, p_minus = np.maximum(model.probabilities(theta), LOG_FLOOR)
        return n_plus * math.log(p_plus) + n_minus * math.log(p_minus)
    if hasattr(model, "branch_pdf"):
        signs, x = outcomes
        p_plus, p_minus = model.branch_pdf(theta, x)
        density = np.where(np.asarray(signs) > 0, p_plus, p_minus)
    else:
        density = model.pdf(theta, outcomes)
    return float(np.sum(np.log(np.maximum(density, LOG_FLOOR))))


class MleResult(NamedTuple):
    theta_hat: float
    at_boundary: bool  # the likelihood peaked at an interval end, or within END_INSET of it
    one_port: bool  # all outcomes of a two-outcome scheme fell in one port

    @property
    def interior(self) -> bool:
        """A regular interior maximum, usable for saturation statistics."""
        return not (self.at_boundary or self.one_port)


def mle(model, stat, search_interval: tuple[float, float], information=None) -> MleResult:
    """Maximum-likelihood tilt estimate over a bracketing interval, from scores only.

    ``stat`` is the outcomes' statistic (``model.statistic``).  The end scores are
    one-sided limits read ``END_INSET`` of the width inside each end (at an even
    interval's theta = 0 end the joint score is exactly 0).  A score <= 0 at the
    low end or >= 0 at the high end puts the maximum at that end or within the
    inset of it: the trial returns that end, flagged ``at_boundary``.  Otherwise
    the end scores bracket the root, refined by ``_score_root``; given F per
    outcome, a joint trial starts at ``_count_root`` with one Fisher-scoring
    step.  A two-outcome trial with all outcomes in one port (P+ or P- at 0,
    where the Cramer-Rao bound does not apply) is flagged ``one_port``.
    Flagged trials are left out of the saturation statistics.
    """
    lo, hi = search_interval
    if not lo < hi:
        raise ValueError("search interval must have positive width")
    one_port = model.one_port(stat)
    low, high = lo + END_INSET * (hi - lo), hi - END_INSET * (hi - lo)
    s_low = model.score(stat, low)
    if s_low <= 0.0:
        return MleResult(float(lo), at_boundary=True, one_port=one_port)
    s_high = model.score(stat, high)
    if s_high >= 0.0:
        return MleResult(float(hi), at_boundary=True, one_port=one_port)
    start = _count_root(model, stat, low, high, information)
    slope = None if start is None else -sum(stat.counts) * information  # Fisher scoring
    theta_hat = _score_root(
        lambda t: model.score(stat, t), (low, s_low), (high, s_high), SCORE_TOL, start, slope
    )
    return MleResult(theta_hat, at_boundary=False, one_port=one_port)


def _count_root(model, stat, low: float, high: float, information) -> Optional[float]:
    """Root in (low, high) of the polarization score of a joint trial's sign counts; None without
    F, with no root bracketed (one port, the other branch of an even model), or where the counts
    carry under 0.9 F (above it the root is within sqrt(1/0.9 - 1) = 0.33 sigma of the joint one)."""
    if information is None or not isinstance(stat, JointStatistic):
        return None
    marginal, counts = PolarizationModel(model.beam, model.pol), stat.counts
    s_low, s_high = marginal.score(counts, low), marginal.score(counts, high)
    if not s_low > 0.0 > s_high:
        return None
    tol = COUNT_ROOT_TOL * (high - low)
    root = _score_root(lambda t: marginal.score(counts, t), (low, s_low), (high, s_high), tol)
    return root if marginal.fisher(root) >= COUNT_SHARE * information else None


def _score_root(score, low, high, tol: float, start=None, slope=None) -> float:
    """Root of the score between (theta, score) ends with scores > 0 and < 0.

    The first iterate is ``start`` or else the false-position point of the ends;
    each step is a secant through the last two points, the first through ``high``
    or on ``slope`` if given.  Every score sign moves one end of the bracket.  A
    step that leaves the bracket, or that is not under half the step before the
    last one (the bracket is then shrinking too slowly), becomes a bisection.
    Stops once a step is <= ``tol``.
    """
    (a, s_a), (b, s_b) = low, high
    x = a - s_a * (b - a) / (s_b - s_a) if start is None else start
    if not a < x < b:  # rounding, where one end score dwarfs the other
        x = 0.5 * (a + b)
    previous = high
    steps = [math.inf, math.inf]
    for _ in range(MAX_SCORE_STEPS):
        s = score(x)
        if slope is None:
            slope = (s - previous[1]) / (x - previous[0])
        if s > 0.0:
            a = x
        elif s < 0.0:
            b = x
        else:
            return x
        new = x - s / slope if slope < 0.0 else math.nan
        if not a < new < b or abs(new - x) >= 0.5 * steps[0]:
            new = 0.5 * (a + b)
        if abs(new - x) <= tol:
            return new
        steps = [steps[1], abs(new - x)]
        previous, slope = (x, s), None
        x = new
    return x


# ---------------------------------------------------------------------------
# saturation runs
# ---------------------------------------------------------------------------


class SaturationReport(NamedTuple):
    trials: int
    used_trials: int
    at_boundary: int
    one_port: int
    empirical_variance: float
    cr_variance: float
    information: float  # F per outcome at theta_true

    @property
    def non_interior(self) -> int:
        return self.trials - self.used_trials

    @property
    def ratio(self) -> float:
        return self.empirical_variance / self.cr_variance


def default_search_interval(
    model, theta_true: float, nu: int, information: float, trials: int
) -> tuple[float, float]:
    """theta_true +- 10 Cramer-Rao sigma, clipped to the model's small-angle
    guard region; ``information`` is F at theta_true.

    For schemes whose statistics are even in theta only the magnitude of the
    tilt is identifiable, so the interval is additionally restricted to the
    sign branch of theta_true.  Refused: F of 0 or NaN, an interval that rounds
    to the single point theta_true (10 sigma below half an ulp of it), and one
    so wide that the variance of ``trials`` estimates in it, which sums up to
    ``trials`` squares of its width, could overflow.
    """
    if not information > 0.0:
        raise ValueError("scheme carries no information at this working point")
    sigma = cramer_rao_bound(information, nu)
    half = 10.0 * sigma
    guard = model.small_angle_guard()
    if abs(theta_true) >= guard:
        raise ValueError(
            f"theta_true={theta_true!r} outside the small-angle guard "
            f"region (+-{guard:.3e} rad)"
        )
    lo, hi = max(theta_true - half, -guard), min(theta_true + half, guard)
    if model.even_in_theta and theta_true != 0.0:
        if theta_true > 0.0:
            lo = max(lo, 0.0)
        else:
            hi = min(hi, 0.0)
    if not lo < hi:
        raise ValueError(
            f"theta_true={theta_true!r} rad +- 10 Cramer-Rao sigma ({half:.3e} rad at nu={nu}) "
            "rounds to a search interval of zero width"
        )
    if not trials * (hi - lo) * (hi - lo) < math.inf:
        raise ValueError(
            f"the variance of {trials} estimates over [{lo:.3e}, {hi:.3e}] rad (theta_true +- 10 "
            f"Cramer-Rao sigma at nu={nu}) is beyond the float range"
        )
    return lo, hi


def run_trial(
    model,
    scheme: str,
    theta_true: float,
    nu: int,
    seed: int,
    trial_index: int,
    search_interval: tuple[float, float],
    information=None,
) -> MleResult:
    """One sample-and-estimate trial; ``scheme`` only labels it (perfbench's tracer tags it)."""
    stat = sample_outcomes(model, theta_true, nu, trial_rng(seed, trial_index))
    return mle(model, stat, search_interval, information)


def run_saturation(
    model, theta_true: float, nu: int, trials: int, seed: int, scheme: str = ""
) -> SaturationReport:
    """Trials against the Cramer-Rao variance, with F at theta_true computed once; every
    refusal (``ValueError``, see ``default_search_interval``) comes before the first trial."""
    if trials < 1:
        raise ValueError("need at least one trial")
    information = analytic_fisher(model, theta_true)
    interval = default_search_interval(model, theta_true, nu, information, trials)
    estimates = []
    at_boundary = one_port = 0
    for index in range(trials):
        trial = run_trial(model, scheme, theta_true, nu, seed, index, interval, information)
        if trial.interior:
            estimates.append(trial.theta_hat)
        at_boundary += trial.at_boundary
        one_port += trial.one_port
    empirical = float(np.var(np.array(estimates), ddof=1)) if len(estimates) >= 2 else math.nan
    return SaturationReport(
        trials=trials,
        used_trials=len(estimates),
        at_boundary=at_boundary,
        one_port=one_port,
        empirical_variance=empirical,
        cr_variance=1.0 / (nu * information),
        information=information,
    )
