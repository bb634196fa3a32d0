import math

import numpy as np
import pytest
from scipy import integrate, stats

from tiltsense import (
    PolarizationModel,
    PolarizationState,
    PositionModel,
    PositionPolarizationModel,
    QuadrantModel,
    cramer_rao_bound,
    fisher_quadrant,
    fisher_sagnac_polarization,
    log_likelihood,
    mle,
    run_saturation,
    sample_outcomes,
    trial_rng,
)
from tiltsense.estimate import default_search_interval, run_trial


def test_trial_rng_streams_are_reproducible_and_distinct():
    a1 = trial_rng(42, 0).random(8)
    a2 = trial_rng(42, 0).random(8)
    b = trial_rng(42, 1).random(8)
    c = trial_rng(43, 0).random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_quadrant_sampling_balanced(beam):
    model = QuadrantModel(beam, beam.rayleigh_range)
    nu = 10 ** 6
    signs = sample_outcomes(model, 0.0, nu, trial_rng(7, 0))
    n_plus = int(np.count_nonzero(signs > 0))
    sigma = math.sqrt(nu * 0.25)
    assert abs(n_plus - nu / 2) < 5.0 * sigma
    assert set(np.unique(signs)) <= {-1, 1}


def test_polarization_sampling_pure_bright_port(beam):
    model = PolarizationModel(beam, PolarizationState.diagonal())
    signs = sample_outcomes(model, 0.0, 10 ** 4, trial_rng(7, 1))
    assert np.all(signs == 1)


def test_position_sampling_moments(beam):
    z = beam.rayleigh_range
    model = PositionModel(beam, z)
    theta, nu = 2e-6, 200_000
    xs = sample_outcomes(model, theta, nu, trial_rng(11, 0))
    sigma = model.sigma()
    mean_err = abs(xs.mean() - model.mean(theta))
    assert mean_err < 5.0 * sigma / math.sqrt(nu)
    assert abs(xs.std(ddof=1) - sigma) < 5.0 * sigma / math.sqrt(2 * nu)


def test_joint_sampling_ks_against_quadrature_cdf(beam):
    theta, nu = 2e-6, 100_000
    z = beam.rayleigh_range
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), z)
    signs, xs = sample_outcomes(model, theta, nu, trial_rng(13, 0))

    lo, hi = model.domain(theta)
    grid = np.linspace(lo, hi, 20001)
    dens = model.total_pdf(theta, grid)
    cdf_grid = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
    cdf_grid /= cdf_grid[-1]

    result = stats.kstest(xs, lambda v: np.interp(v, grid, cdf_grid))
    critical_1pct = 1.6276 / math.sqrt(nu)
    assert result.statistic < critical_1pct

    # sign frequencies against the closed-form marginal
    from tiltsense import sagnac_polarization_probabilities

    p_plus, _ = sagnac_polarization_probabilities(beam, PolarizationState.diagonal(), theta)
    n_plus = int(np.count_nonzero(signs > 0))
    sigma = math.sqrt(nu * p_plus * (1.0 - p_plus))
    assert abs(n_plus - nu * p_plus) < 5.0 * sigma


def test_sample_validation(beam):
    model = QuadrantModel(beam, 1.0)
    with pytest.raises(ValueError):
        sample_outcomes(model, 0.0, 0, trial_rng(1, 0))


# ---------------------------------------------------------------------------
# likelihood and MLE
# ---------------------------------------------------------------------------


def test_loglik_discrete_matches_direct_sum(beam):
    model = QuadrantModel(beam, 2.0)
    signs = np.array([1, 1, -1, 1], dtype=np.int8)
    theta = 1e-6
    p_plus, p_minus = model.probabilities(theta)
    expected = 3 * math.log(p_plus) + math.log(p_minus)
    assert log_likelihood(model, signs, theta) == pytest.approx(expected, rel=1e-12)


def test_mle_recovers_position_mean_exactly(beam):
    # Gaussian location: the MLE is the sample mean, so golden section must
    # land on (mean(x) - xi)/(2z) to the refinement tolerance
    z = beam.rayleigh_range
    model = PositionModel(beam, z)
    xs = sample_outcomes(model, 1e-6, 5000, trial_rng(21, 0))
    closed_form = (xs.mean() - beam.xi) / (2.0 * z)
    result = mle(model, xs, (-2e-5, 2e-5))
    assert result.interior
    assert result.theta_hat == pytest.approx(closed_form, abs=1e-11)


def test_mle_is_deterministic(beam):
    model = QuadrantModel(beam, beam.rayleigh_range)
    signs = sample_outcomes(model, 1e-6, 2000, trial_rng(5, 4))
    r1 = mle(model, signs, (-1e-5, 1e-5))
    r2 = mle(model, signs, (-1e-5, 1e-5))
    assert r1 == r2


def test_mle_single_outcome_hits_boundary(beam):
    # one "+" outcome: the likelihood increases with theta, so the maximum is
    # the right interval end, flagged non-interior
    model = QuadrantModel(beam, beam.rayleigh_range)
    outcome = np.array([1], dtype=np.int8)
    result = mle(model, outcome, (-1e-5, 1e-5))
    assert not result.interior
    assert result.theta_hat == 1e-5


def test_mle_unbiased_at_symmetric_point(beam):
    model = QuadrantModel(beam, beam.rayleigh_range)
    nu, trials = 10 ** 4, 61
    interval = (-2e-5, 2e-5)
    estimates = [
        mle(model, sample_outcomes(model, 0.0, nu, trial_rng(17, i)), interval).theta_hat
        for i in range(trials)
    ]
    sigma_cr = cramer_rao_bound(fisher_quadrant(beam, 0.0, beam.rayleigh_range), nu)
    median = float(np.median(estimates))
    sigma_median = 1.2533 * sigma_cr / math.sqrt(trials)
    assert abs(median) < 5.0 * sigma_median


def test_mle_interval_validation(beam):
    model = QuadrantModel(beam, 1.0)
    with pytest.raises(ValueError):
        mle(model, np.array([1], dtype=np.int8), (1e-5, 1e-5))


def test_default_search_interval_guard(beam):
    model = PolarizationModel(beam, PolarizationState.diagonal())
    lo, hi = default_search_interval(model, 1e-6, 10 ** 4)
    assert lo < 1e-6 < hi
    with pytest.raises(ValueError):
        default_search_interval(model, 1e-3, 10 ** 4)


# ---------------------------------------------------------------------------
# saturation runs
# ---------------------------------------------------------------------------


def test_run_trial_record(beam):
    model = QuadrantModel(beam, beam.rayleigh_range)
    trial = run_trial(model, "quadrant", 1e-6, 1000, 99, 3, (-2e-5, 2e-5))
    assert trial.scheme == "quadrant"
    assert trial.nu == 1000 and trial.seed == 99 and trial.trial_index == 3
    assert math.isfinite(trial.theta_hat)


def test_polarization_saturation_500_trials(beam):
    # empirical MLE variance within 15% of 1/(nu F); a few trials see zero
    # dark-port counts (Poisson mean nu*P- ~ 4.9) and peak on the boundary
    pol = PolarizationState.diagonal()
    model = PolarizationModel(beam, pol)
    report = run_saturation(model, 1e-6, 10 ** 4, 500, seed=2024, scheme="polarization")
    assert report.non_interior < 15
    assert 0.85 < report.ratio < 1.15
    expected_cr = 1.0 / (10 ** 4 * fisher_sagnac_polarization(beam, pol, 1e-6))
    assert report.cr_variance == pytest.approx(expected_cr, rel=1e-12)


def test_joint_scheme_saturation(beam):
    # full (sign, position) outcome pipeline: sampling, likelihood, MLE
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), beam.rayleigh_range)
    report = run_saturation(model, 1e-6, 10 ** 4, 50, seed=99, scheme="joint")
    assert report.non_interior <= 2
    assert 0.6 < report.ratio < 1.6


def test_saturation_reports_are_bit_reproducible(beam):
    model = QuadrantModel(beam, beam.rayleigh_range)
    r1 = run_saturation(model, 1e-6, 2000, 50, seed=7, scheme="quadrant")
    r2 = run_saturation(model, 1e-6, 2000, 50, seed=7, scheme="quadrant")
    assert r1 == r2


def test_cr_inequality_one_sided(beam):
    # the estimator cannot beat the bound beyond statistical slack; the
    # polarization scheme needs nu*P- >> 1 to stay in the asymptotic regime
    schemes = [
        ("position", PositionModel(beam, beam.rayleigh_range), 2000),
        ("quadrant", QuadrantModel(beam, beam.rayleigh_range), 2000),
        ("polarization", PolarizationModel(beam, PolarizationState.diagonal()), 10 ** 4),
    ]
    for name, model, nu in schemes:
        report = run_saturation(model, 1e-6, nu, 100, seed=31, scheme=name)
        slack = 1.0 - 3.0 * math.sqrt(2.0 / report.used_trials)
        assert report.empirical_variance >= slack * report.cr_variance, name
