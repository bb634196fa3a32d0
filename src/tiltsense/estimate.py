"""Monte Carlo outcome sampling and maximum-likelihood tilt estimation.

Used to verify empirically that the maximum-likelihood estimator saturates
the Cramer-Rao bound 1/(nu F) for each measurement scheme.  Trials draw from
independent counter-based random streams keyed by (master seed, trial index),
so runs are reproducible and trial order is irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fisher import analytic_fisher, cramer_rao_bound

# a cap well above what bisection needs to narrow any practical bracket to tol
MAX_SCORE_STEPS = 200


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based generator for one trial; streams never overlap."""
    key = np.array([seed, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_outcomes(model, theta: float, nu: int, rng: np.random.Generator):
    """Draw nu independent outcomes from the model at tilt theta.

    Two-outcome models return +1/-1 signs, the position model positions, and
    the joint model a (signs, positions) pair.
    """
    if nu < 1:
        raise ValueError("nu must be at least 1")
    return model.sample(theta, nu, rng)


# ---------------------------------------------------------------------------
# likelihood and MLE
# ---------------------------------------------------------------------------


def log_likelihood(model, outcomes, theta: float) -> float:
    """Summed log probability of the recorded outcomes at tilt theta."""
    return model.log_likelihood(model.statistic(outcomes), theta)


@dataclass(frozen=True)
class MleResult:
    theta_hat: float
    at_boundary: bool  # the likelihood peaked at an end of the search interval
    one_port: bool  # all outcomes of a two-outcome scheme fell in one port

    @property
    def interior(self) -> bool:
        """A regular interior maximum, usable for saturation statistics."""
        return not (self.at_boundary or self.one_port)


def mle(
    model,
    outcomes,
    search_interval: tuple[float, float],
    grid_points: int = 21,
    tol: float = 1e-12,
) -> MleResult:
    """Maximum-likelihood tilt estimate over a bracketing interval.

    The outcomes are reduced once to the model's statistic.  A coarse grid
    scan of the log-likelihood brackets the maximum between the neighbours
    of the best node, where the root of the analytic score is refined to
    ``tol`` (see ``_score_root``).  A maximum at an end of the grid, or a
    two-outcome trial with all outcomes in one port (P+ or P- at 0, where
    the Cramer-Rao bound does not apply), is flagged non-interior; such
    trials are excluded from saturation statistics.
    """
    lo, hi = search_interval
    if not lo < hi:
        raise ValueError("search interval must have positive width")
    stat = model.statistic(outcomes)
    one_port = model.one_port(stat)
    grid = np.linspace(lo, hi, grid_points)
    values = [model.log_likelihood(stat, float(t)) for t in grid]
    best = int(np.argmax(values))
    if best == 0 or best == grid_points - 1:
        return MleResult(float(grid[best]), at_boundary=True, one_port=one_port)
    theta_hat = _score_root(
        lambda t: model.score(stat, t), grid[best - 1 : best + 2], values[best - 1 : best + 2], tol
    )
    return MleResult(theta_hat, at_boundary=False, one_port=one_port)


def _score_root(score, nodes, values, tol: float) -> float:
    """Root of the score between the outer two of three grid nodes.

    The middle node holds the largest log-likelihood, so the maximum lies in
    [a, b].  The first iterate is the vertex of the parabola through the
    three values, and its curvature is the first slope; each later step is a
    secant through the last two iterates.  Every score sign moves one end of
    the bracket.  A step that leaves the bracket, or that is not under half
    the step before the last one (the bracket is then shrinking too slowly),
    becomes a bisection.  Stops once a step is at most ``tol``.
    """
    a, middle, b = (float(v) for v in nodes)
    v_a, v_m, v_b = values
    h = 0.5 * (b - a)
    bend = v_a - 2.0 * v_m + v_b
    x, slope = middle, math.nan
    if bend < 0.0:
        x = middle + 0.5 * h * (v_a - v_b) / bend
        slope = bend / (h * h)
    steps = [math.inf, math.inf]
    previous = None
    for _ in range(MAX_SCORE_STEPS):
        s = score(x)
        if previous is not None:
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
        previous = (x, s)
        x = new
    return x


# ---------------------------------------------------------------------------
# saturation runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trial:
    scheme: str
    theta_true: float
    nu: int
    seed: int
    trial_index: int
    theta_hat: float
    at_boundary: bool
    one_port: bool

    @property
    def interior(self) -> bool:
        return not (self.at_boundary or self.one_port)


@dataclass(frozen=True)
class SaturationReport:
    scheme: str
    theta_true: float
    nu: int
    trials: int
    used_trials: int
    non_interior: int
    at_boundary: int
    one_port: int
    empirical_variance: float
    cr_variance: float
    seed: int

    @property
    def ratio(self) -> float:
        return self.empirical_variance / self.cr_variance


def default_search_interval(model, theta_true: float, nu: int) -> tuple[float, float]:
    """theta_true +- 10 Cramer-Rao sigma, clipped to the model's small-angle
    guard region.

    For schemes whose statistics are even in theta only the magnitude of the
    tilt is identifiable, so the interval is additionally restricted to the
    sign branch of theta_true.
    """
    sigma = cramer_rao_bound(analytic_fisher(model, theta_true), nu)
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
    return lo, hi


def run_trial(
    model,
    scheme: str,
    theta_true: float,
    nu: int,
    seed: int,
    trial_index: int,
    search_interval: tuple[float, float],
) -> Trial:
    rng = trial_rng(seed, trial_index)
    outcomes = sample_outcomes(model, theta_true, nu, rng)
    result = mle(model, outcomes, search_interval)
    return Trial(
        scheme=scheme,
        theta_true=theta_true,
        nu=nu,
        seed=seed,
        trial_index=trial_index,
        theta_hat=result.theta_hat,
        at_boundary=result.at_boundary,
        one_port=result.one_port,
    )


def run_saturation(
    model,
    theta_true: float,
    nu: int,
    trials: int,
    seed: int,
    search_interval: Optional[tuple[float, float]] = None,
    scheme: str = "",
) -> SaturationReport:
    """Repeated sample-and-estimate trials against the Cramer-Rao variance."""
    if trials < 1:
        raise ValueError("need at least one trial")
    interval = search_interval or default_search_interval(model, theta_true, nu)
    estimates = []
    non_interior = at_boundary = one_port = 0
    for index in range(trials):
        trial = run_trial(model, scheme, theta_true, nu, seed, index, interval)
        if trial.interior:
            estimates.append(trial.theta_hat)
        else:
            non_interior += 1
        at_boundary += trial.at_boundary
        one_port += trial.one_port
    if len(estimates) >= 2:
        empirical = float(np.var(np.array(estimates), ddof=1))
    else:
        empirical = math.nan
    cr = 1.0 / (nu * analytic_fisher(model, theta_true))
    return SaturationReport(
        scheme=scheme,
        theta_true=theta_true,
        nu=nu,
        trials=trials,
        used_trials=len(estimates),
        non_interior=non_interior,
        at_boundary=at_boundary,
        one_port=one_port,
        empirical_variance=empirical,
        cr_variance=cr,
        seed=seed,
    )
