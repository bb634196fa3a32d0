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

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    return model.log_likelihood(outcomes, theta)


@dataclass(frozen=True)
class MleResult:
    theta_hat: float
    interior: bool


def mle(
    model,
    outcomes,
    search_interval: tuple[float, float],
    grid_points: int = 201,
    tol: float = 1e-12,
) -> MleResult:
    """Maximum-likelihood tilt estimate over a bracketing interval.

    Coarse grid scan followed by golden-section refinement of the bracket to
    an absolute width of ``tol``.  A maximum on the interval boundary is
    flagged non-interior; such trials are excluded from saturation statistics.
    """
    lo, hi = search_interval
    if not lo < hi:
        raise ValueError("search interval must have positive width")
    grid = np.linspace(lo, hi, grid_points)
    values = np.array([log_likelihood(model, outcomes, t) for t in grid])
    best = int(np.argmax(values))
    if best == 0 or best == grid_points - 1:
        return MleResult(theta_hat=float(grid[best]), interior=False)
    a, b = float(grid[best - 1]), float(grid[best + 1])
    theta_hat = _golden_max(lambda t: log_likelihood(model, outcomes, t), a, b, tol)
    return MleResult(theta_hat=theta_hat, interior=True)


def _golden_max(f, a: float, b: float, tol: float) -> float:
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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
    interior: bool


@dataclass(frozen=True)
class SaturationReport:
    scheme: str
    theta_true: float
    nu: int
    trials: int
    used_trials: int
    non_interior: int
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
        interior=result.interior,
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
    non_interior = 0
    for index in range(trials):
        trial = run_trial(model, scheme, theta_true, nu, seed, index, interval)
        if trial.interior:
            estimates.append(trial.theta_hat)
        else:
            non_interior += 1
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
        empirical_variance=empirical,
        cr_variance=cr,
        seed=seed,
    )
