"""Opt-in seed sweep of the Monte Carlo saturation band of criterion 09.

``test_criterion_09_monte_carlo_saturation`` checks one fixed seed: for the
position, quadrant and polarization schemes at theta = 1 urad, nu = 1e4 and
200 trials, the empirical/Cramer-Rao variance ratio must lie in
[0.85, 1.25] with at most 5% non-interior trials.  This sweep repeats that
check over 50 other seeds and reports how often it fails, next to the rate
predicted when each ratio follows its sampling distribution under
saturation, chi-square with (used_trials - 1) degrees of freedom over
(used_trials - 1).  It fails only if the band misses more often than that
prediction allows at a 1e-3 false-alarm rate.  It is deselected by default;
run it with

    PYTHONPATH=src python -m pytest -m slow -s tests/test_seed_sweep.py
"""

import math

import pytest
from scipy import stats

from tiltsense import PolarizationModel, PolarizationState, PositionModel, QuadrantModel, run_saturation

BAND = (0.85, 1.25)
SEEDS = range(1, 51)


def _band_miss_probability(used_trials: int) -> float:
    dof = used_trials - 1
    return stats.chi2.cdf(BAND[0] * dof, dof) + stats.chi2.sf(BAND[1] * dof, dof)


@pytest.mark.slow
def test_criterion_09_band_failure_rate_over_seeds(beam):
    zr = beam.rayleigh_range
    schemes = {
        "position": PositionModel(beam, zr),
        "quadrant": QuadrantModel(beam, zr),
        "polarization": PolarizationModel(beam, PolarizationState.diagonal()),
    }
    misses = dict.fromkeys(schemes, 0)
    predicted = dict.fromkeys(schemes, 0.0)
    failed_seeds = []
    for seed in SEEDS:
        failed = False
        for name, model in schemes.items():
            report = run_saturation(model, 1e-6, 10 ** 4, 200, seed, scheme=name)
            assert math.isfinite(report.ratio), (name, seed)
            predicted[name] += _band_miss_probability(report.used_trials)
            if not BAND[0] <= report.ratio <= BAND[1] or report.non_interior > 0.05 * report.trials:
                misses[name] += 1
                failed = True
        failed_seeds += [seed] if failed else []
    print(
        f"\ncriterion 09 band {BAND} over {len(SEEDS)} seeds: "
        f"{len(failed_seeds)} seeds fail ({failed_seeds}); per scheme, observed/predicted misses: "
        + ", ".join(f"{name} {misses[name]}/{predicted[name]:.1f}" for name in schemes)
    )
    # independent rare misses: their total is close to Poisson
    assert sum(misses.values()) <= stats.poisson.ppf(1.0 - 1e-3, sum(predicted.values()))
