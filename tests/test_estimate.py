import cmath
import hashlib
import inspect
import math

import numpy as np
import pytest
from scipy import integrate, stats

from tiltsense import (
    BeamParams,
    ConditionedPolarizationModel,
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
from tiltsense.estimate import (
    END_INSET,
    SCORE_TOL,
    MleResult,
    _score_root,
    default_search_interval,
    run_trial,
)
from tiltsense.oracle import numeric_fisher_oracle
from tiltsense.schemes import _sample_signs


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


def _paths(model, theta):
    """The joint model's two path Gaussians, (weights, means, sigmas) in beam widths: weights
    |alpha|^2 and |beta|^2, centers -+ t s, and sigma 1/2 (a variance of 1/4)."""
    shift = model._slope() * theta
    weights = [abs(model.pol.alpha) ** 2, abs(model.pol.beta) ** 2]
    return np.array(weights), np.array([-shift, shift]), np.array([0.5, 0.5])


def _photons(model, theta, nu, rng):
    """nu outcomes of the model, which ``model.statistic`` reduces to what ``sample`` draws.

    The joint draw is the joint sampler's own stream (see
    ``test_joint_sample_is_the_statistic_of_its_photons``).
    """
    if hasattr(model, "probabilities"):
        return _sample_signs(float(model.probabilities(theta)[0]), nu, rng)
    if isinstance(model, PositionModel):
        # the profile's standard deviation is w/2: 1/2 in beam widths
        return _choice_mixture(np.array([1.0]), np.array([model.mean(theta)]), np.array([0.5]), nu, rng)
    x = _choice_mixture(*_paths(model, theta), nu, rng)
    return _sample_signs(model.conditional_plus(theta, x), nu, rng), x


def _same_statistic(a, b):
    """Field-wise identity of two statistics."""
    return type(a) is type(b) and all(
        (x is None and y is None) or np.array_equal(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        for x, y in zip(a, b)
    )


def test_quadrant_sampling_balanced(beam):
    model = QuadrantModel(beam, beam.rayleigh_range)
    nu = 10 ** 6
    n_plus, n_minus = sample_outcomes(model, 0.0, nu, trial_rng(7, 0))
    sigma = math.sqrt(nu * 0.25)
    assert n_plus + n_minus == nu
    assert abs(n_plus - nu / 2) < 5.0 * sigma


def test_polarization_sampling_pure_bright_port(beam):
    model = PolarizationModel(beam, PolarizationState.diagonal())
    assert sample_outcomes(model, 0.0, 10 ** 4, trial_rng(7, 1)) == (10 ** 4, 0)


# false-alarm rate of each moment check of the statistic samplers below
MOMENT_ALPHA = 1e-6


def _assert_moments(values, mean, variance):
    """The draws' mean and variance match, each checked two-sided at MOMENT_ALPHA.

    The mean by its normal limit, the variance by the chi-square law of
    (draws - 1) s^2 / variance.
    """
    draws = len(values)
    bound = stats.norm.isf(MOMENT_ALPHA / 2)
    assert abs(values.mean() - mean) < bound * math.sqrt(variance / draws)
    dof = draws - 1
    scaled = dof * values.var(ddof=1) / variance
    assert stats.chi2.ppf(MOMENT_ALPHA / 2, dof) < scaled < stats.chi2.isf(MOMENT_ALPHA / 2, dof)


def test_position_sampling_moments(beam):
    # the sample mean ~ Normal(t s, 1 / (2 sqrt(nu))) in beam widths: variance 1 / (4 nu)
    z = beam.rayleigh_range
    model = PositionModel(beam, z)
    theta, nu = 2e-6, 1000
    samples = [sample_outcomes(model, theta, nu, trial_rng(11, i)) for i in range(4000)]
    assert all(n == nu for n, _ in samples)
    values = np.array([mean for _, mean in samples])
    _assert_moments(values, model.mean(theta), 0.25 / nu)


@pytest.mark.parametrize(
    "name, theta", [("quadrant", 1.5e-6), ("polarization", 1.5e-6), ("polarization", 3e-7)]
)
def test_count_sampling_moments(beam, name, theta):
    # n+ ~ Binomial(nu, P+): mean nu P+, variance nu P+ P-
    model = {
        "quadrant": QuadrantModel(beam, beam.rayleigh_range),
        "polarization": PolarizationModel(beam, PolarizationState.diagonal()),
    }[name]
    nu = 1000
    samples = [sample_outcomes(model, theta, nu, trial_rng(12, i)) for i in range(4000)]
    assert all(n_plus + n_minus == nu for n_plus, n_minus in samples)
    p_plus, p_minus = model.probabilities(theta)
    _assert_moments(np.array([n for n, _ in samples], dtype=float), nu * p_plus, nu * p_plus * p_minus)


def test_joint_sample_is_the_statistic_of_its_photons(beam):
    for pol in (PolarizationState.diagonal(), PolarizationState.from_bloch(0.3, 3.0)):
        model = PositionPolarizationModel(beam, pol, beam.rayleigh_range)
        photons = _photons(model, 1.5e-6, 3000, trial_rng(14, 0))
        got = sample_outcomes(model, 1.5e-6, 3000, trial_rng(14, 0))
        assert _same_statistic(got, model.statistic(photons))
        assert got.counts == (int(np.count_nonzero(photons[0] > 0)), int(np.count_nonzero(photons[0] < 0)))


def test_joint_sampling_ks_against_quadrature_cdf(beam):
    theta, nu = 2e-6, 100_000
    z = beam.rayleigh_range
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), z)
    signs, xs = _photons(model, theta, nu, trial_rng(13, 0))

    lo, hi = model.domain(theta)
    grid = np.linspace(lo, hi, 20001)
    dens = model._marginal(theta, grid)[0]
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


def _choice_mixture(weights, means, sigmas, nu, rng):
    """The mixture sampler as first written, with rng.choice: the stream to keep."""
    component = rng.choice(len(weights), size=nu, p=weights / weights.sum())
    return means[component] + sigmas[component] * rng.standard_normal(nu)


def _where_signs(p_plus, nu, rng):
    """The sign sampler as first written, with np.where: the stream to keep."""
    return np.where(rng.random(nu) < p_plus, 1, -1).astype(np.int8)


@pytest.mark.parametrize(
    "weights",
    [[1.0, 1e-9], [0.5, 0.5], [0.9, 0.1], [0.2, 0.7], [1e-9, 1.0], [1.0, 0.0], [0.0, 1.0]],
)
def test_mixture_sampler_draws_what_rng_choice_drew(beam, weights):
    # the joint model's photons at path weights |alpha|^2 : |beta|^2 = weights
    norm = sum(weights)
    pol = PolarizationState(complex(math.sqrt(weights[0] / norm)), cmath.exp(3j) * math.sqrt(weights[1] / norm))
    model = PositionPolarizationModel(beam, pol, beam.rayleigh_range)
    for index in range(3):
        reference = trial_rng(8, index)
        x = _choice_mixture(*_paths(model, 1.5e-6), 5000, reference)
        signs = _where_signs(model.conditional_plus(1.5e-6, x), 5000, reference)
        rng = trial_rng(8, index)
        got = model.sample(1.5e-6, 5000, rng)
        assert _same_statistic(got, model.statistic((signs, x)))
        # the generator is left where the old sampler left it
        assert rng.random() == reference.random()


@pytest.mark.parametrize("p_plus", [0.0, 0.3, 1.0, "array"])
def test_sign_sampler_draws_what_np_where_drew(p_plus):
    if p_plus == "array":
        p_plus = trial_rng(9, 99).random(5000)
    for index in range(3):
        expected = _where_signs(p_plus, 5000, trial_rng(9, index))
        got = _sample_signs(p_plus, 5000, trial_rng(9, index))
        assert got.dtype == np.int8 and np.array_equal(got, expected)


def test_joint_sampler_draws_what_the_old_samplers_drew(beam):
    # positions from rng.choice, then signs from np.where on P(+|x) of the density ratio
    for pol in (PolarizationState.diagonal(), PolarizationState.from_bloch(0.3, 3.0)):
        model = PositionPolarizationModel(beam, pol, beam.rayleigh_range)
        rng = trial_rng(10, 0)
        x = _choice_mixture(*_paths(model, 1.5e-6), 5000, rng)
        p_plus, p_minus = model.branch_pdf(1.5e-6, x)
        signs = _where_signs(p_plus / (p_plus + p_minus), 5000, rng)
        got = sample_outcomes(model, 1.5e-6, 5000, trial_rng(10, 0))
        assert _same_statistic(got, model.statistic((signs, x)))


# sha256 of what the samplers draw for (seed 2020, trial 3) at theta = 1.5 urad,
# under numpy 2.4.6: the float64 statistic of the position, quadrant and
# polarization schemes at nu = 1e6 (some 1,400 dark-port counts), and the joint
# photons (signs, positions) at nu = 1000, first recorded before the samplers
# stopped calling rng.choice and np.where.  Positions and the position scheme's
# mean are in beam widths, u = (x - xi)/w: the same draws as the SI streams,
# mapped by x = xi + w u, and the same signs.  A sampler edit that moves a
# stream fails here, instead of quietly moving every seeded Monte Carlo result
PINNED_STREAMS = {
    "position": "c046d1d88ce0773a0a7fdafc4862c9c0031ef6cc5c5343af59cbc6fdabf60029",
    "quadrant": "dae33df4814bbe255068582725c924b6efdb5bb6be7eb97b93ccb054646f841a",
    "polarization": "ec18b30bfd9fbb1b2b0a104b05bab85ac11c20235be7477419c57cb937bd184c",
    "joint": "33680dca92050af9aeb1c5c654d11abd6d539f4a0ec5dcb3371da3dde53d9ff4",
    "joint-elliptical": "671259fb21ac0720242c393a3c2d191da3826464cc68d734a9b19b20643945ae",
}


@pytest.mark.parametrize("name", PINNED_STREAMS)
def test_outcome_stream_is_pinned(beam, name):
    """Pinned under numpy 2.4.6; another numpy release may change Philox's doubles or normals."""
    z = beam.rayleigh_range
    model = {
        "position": PositionModel(beam, z),
        "quadrant": QuadrantModel(beam, z),
        "polarization": PolarizationModel(beam, PolarizationState.diagonal()),
        "joint": PositionPolarizationModel(beam, PolarizationState.diagonal(), z),
        "joint-elliptical": PositionPolarizationModel(
            beam, PolarizationState.from_bloch(1.1, 0.4), 2.0 * z
        ),
    }[name]
    digest = hashlib.sha256()
    if name.startswith("joint"):
        for part in _photons(model, 1.5e-6, 1000, trial_rng(2020, 3)):
            digest.update(np.ascontiguousarray(part).tobytes())
    else:
        stat = sample_outcomes(model, 1.5e-6, 10 ** 6, trial_rng(2020, 3))
        digest.update(np.array(stat, dtype=float).tobytes())
    assert digest.hexdigest() == PINNED_STREAMS[name]


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
    # Gaussian location: the MLE is the sample mean, and the score is linear
    # in theta, so the score root lands on mean(u) / (2 z/w), with mean(1) = 2 z/w
    z = beam.rayleigh_range
    model = PositionModel(beam, z)
    stat = sample_outcomes(model, 1e-6, 5000, trial_rng(21, 0))
    closed_form = stat[1] / model.mean(1.0)
    result = mle(model, stat, (-2e-5, 2e-5))
    assert result.interior
    assert result.theta_hat == pytest.approx(closed_form, abs=1e-11)


# every model class, plus joint models with unequal path weights and a nonzero
# coherence phase, which have no closed-form Fisher information and so get an
# explicit interval across theta = 0: (model, theta_true, interval).  With phi
# near pi, the joint score's tan(psi/2) is large over the sampled photons; the
# anti-diagonal state (phi = pi) puts every photon at its pole, psi = pi, at
# theta = 0
SCORE_CASES = {
    "position": lambda b: (PositionModel(b, b.rayleigh_range), 1.5e-6, None),
    "quadrant": lambda b: (QuadrantModel(b, b.rayleigh_range), 1.5e-6, None),
    "polarization": lambda b: (PolarizationModel(b, PolarizationState.diagonal()), 1.5e-6, None),
    "conditioned": lambda b: (
        ConditionedPolarizationModel(b, b.rayleigh_range, 1.5e-3), 1.5e-6, None
    ),
    "joint": lambda b: (
        PositionPolarizationModel(b, PolarizationState.diagonal(), b.rayleigh_range), 1.5e-6, None
    ),
    "joint-elliptical": lambda b: (
        PositionPolarizationModel(b, PolarizationState.from_bloch(1.1, 0.4), 2.0 * b.rayleigh_range),
        -1.5e-6,
        (-3.5e-6, 0.5e-6),
    ),
    "joint-unbalanced": lambda b: (
        # |alpha|^2 = 0.978 and phi = 3: |tan(psi/2)| is about 10 to 40
        PositionPolarizationModel(b, PolarizationState.from_bloch(0.3, 3.0), b.rayleigh_range),
        -1e-6,
        (-6e-6, 4e-6),
    ),
    "joint-anti-diagonal": lambda b: (
        PositionPolarizationModel(
            b, PolarizationState.from_bloch(0.5 * math.pi, math.pi), b.rayleigh_range
        ),
        1.5e-6,
        None,
    ),
}


def _case(beam, name, nu=2000, index=0):
    """(model, theta_true, photon outcomes, search interval) of a score case."""
    model, theta, interval = SCORE_CASES[name](beam)
    outcomes = _photons(model, theta, nu, trial_rng(77, index))
    if interval is None:
        interval = default_search_interval(model, theta, nu, model.fisher(theta), 2)
    return model, theta, outcomes, interval


def _information(model, theta):
    """Fisher information per outcome, from the oracle for the joint states without a closed form."""
    if isinstance(model, PositionPolarizationModel) and not model.pol.is_diagonal:
        return numeric_fisher_oracle(model, theta)
    return model.fisher(theta)


@pytest.mark.parametrize("name", SCORE_CASES)
def test_score_matches_likelihood_difference(beam, name):
    model, theta, outcomes, (lo, hi) = _case(beam, name)
    stat = model.statistic(outcomes)
    width = hi - lo
    for t in (lo + 0.1 * width, theta - 0.2 * width, theta + 0.3 * width, hi - 0.05 * width):
        h = 1e-5 * width
        difference = (
            log_likelihood(model, outcomes, t + h) - log_likelihood(model, outcomes, t - h)
        ) / (2 * h)
        assert model.score(stat, t) == pytest.approx(difference, rel=1e-6), t


def _exact_joint_score(model, outcomes, theta):
    """d/dtheta of the summed log density of the photons, summed with 50-digit mpmath.

    The density is the path-and-interference form of ``sagnac_joint_density``,
    with the model's path weights and coherence phase and d = sqrt(|alpha|^2 |beta|^2);
    the photons' positions are the model's, u = (x - xi)/w.
    """
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    beam, pol = model.beam, model.pol
    pa, pb = mp.mpf(abs(pol.alpha) ** 2), mp.mpf(abs(pol.beta) ** 2)
    d, phi = mp.sqrt(pa * pb), mp.mpf(pol.coherence_phase)
    k, w0, xi, z, th = (mp.mpf(v) for v in (beam.k, beam.w0, beam.xi, model.z, theta))
    w2 = w0 ** 2 * (1 + (2 * z / (k * w0 ** 2)) ** 2)
    s = 2 * th * z
    total = mp.mpf(0)
    for sign, x in zip(outcomes[0].tolist(), outcomes[1].tolist()):
        u = mp.mpf(x) * mp.sqrt(w2)  # x - xi
        g_h, g_v = mp.exp(-2 * (u + s) ** 2 / w2), mp.exp(-2 * (u - s) ** 2 / w2)
        envelope = mp.exp(-2 * (u * u + s * s) / w2)
        rate = 4 * k * (w0 ** 2 / w2) * u + 4 * k * xi
        psi = th * rate - phi
        p = pa / 2 * g_h + pb / 2 * g_v + sign * d * envelope * mp.cos(psi)
        dp = (
            -pa * g_h * 4 * (u + s) * z / w2
            + pb * g_v * 4 * (u - s) * z / w2
            - sign * d * envelope * (8 * s * z / w2 * mp.cos(psi) + rate * mp.sin(psi))
        )
        total += dp / p
    return total


def test_joint_score_near_a_dark_fringe_matches_a_50_digit_sum(beam):
    # at the anti-diagonal case's low-end inset every "+" photon lies near its
    # dark fringe, where the bracket (near + far t^2)/2 + d t cos psi cancelled
    # to a score 1.4e-9 off
    model, _, outcomes, (lo, hi) = _case(beam, "joint-anti-diagonal")
    theta = lo + END_INSET * (hi - lo)
    assert theta == pytest.approx(2.52e-9, rel=1e-3)
    exact = _exact_joint_score(model, outcomes, theta)
    score = model.score(model.statistic(outcomes), theta)
    assert abs(score - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("name", SCORE_CASES)
def test_mle_beats_a_dense_grid(beam, name):
    for index in range(3):
        model, theta, outcomes, (lo, hi) = _case(beam, name, index=index)
        result = mle(model, model.statistic(outcomes), (lo, hi), _information(model, theta))
        best = log_likelihood(model, outcomes, result.theta_hat)
        dense = max(log_likelihood(model, outcomes, t) for t in np.linspace(lo, hi, 2001))
        assert best >= dense - 1e-12 * abs(dense)
        assert lo <= result.theta_hat <= hi


@pytest.mark.parametrize("name", SCORE_CASES)
def test_mle_uses_only_a_few_score_evaluations(beam, name, monkeypatch):
    calls = 0
    model_class = type(SCORE_CASES[name](beam)[0])
    score = model_class.score

    def counted(self, stat, theta):
        nonlocal calls
        calls += 1
        return score(self, stat, theta)

    def forbidden(*args):
        raise AssertionError("mle evaluated the log-likelihood")

    monkeypatch.setattr(model_class, "score", counted)
    monkeypatch.setattr("tiltsense.estimate.log_likelihood", forbidden)
    for index in range(3):
        model, theta, outcomes, interval = _case(beam, name, index=index)
        stat, information = model.statistic(outcomes), _information(model, theta)
        calls = 0
        mle(model, stat, interval, information)
        # a joint trial starts from the root of its sign counts' score
        assert 1 <= calls <= (6 if name.startswith("joint") else 12)


@pytest.mark.parametrize("name", [name for name in SCORE_CASES if name.startswith("joint")])
def test_joint_start_from_the_sign_counts_finds_the_same_root(beam, name):
    for index in range(3):
        model, theta, outcomes, interval = _case(beam, name, index=index)
        stat = model.statistic(outcomes)
        started = mle(model, stat, interval, _information(model, theta))
        plain = mle(model, stat, interval)
        assert started.interior == plain.interior
        assert abs(started.theta_hat - plain.theta_hat) <= SCORE_TOL


def test_maximum_within_the_end_inset_is_at_the_boundary(beam):
    # the position score is linear, with its root at mean(u) / (2 z/w): put
    # that root half an inset inside each end in turn
    z = beam.rayleigh_range
    model = PositionModel(beam, z)
    stat = sample_outcomes(model, 1e-6, 5000, trial_rng(21, 0))
    root = stat[1] / model.mean(1.0)
    width = 4e-6
    offset = 0.5 * END_INSET * width
    lo, hi = root - offset, root + offset
    assert mle(model, stat, (lo, lo + width)) == MleResult(lo, at_boundary=True, one_port=False)
    assert mle(model, stat, (hi - width, hi)) == MleResult(hi, at_boundary=True, one_port=False)
    # three half-insets inside the end, the root is interior
    result = mle(model, stat, (root - 3 * offset, root - 3 * offset + width))
    assert result.interior
    assert result.theta_hat == pytest.approx(root, abs=1e-11)


def test_score_root_bisects_where_secant_steps_stall():
    # a score that is flat far from its root: secant slopes vanish there, so
    # only the bisection safeguard can reach the root
    root = 0.123456789

    def score(t):
        return math.tanh(1e4 * (root - t))

    result = _score_root(score, (0.0, score(0.0)), (1.0, score(1.0)), 1e-12)
    assert result == pytest.approx(root, abs=1e-12)


def test_score_root_starts_inside_the_bracket_when_an_end_score_is_negligible():
    # the false-position point of ends scored 1 and -1e-30 rounds onto the
    # high end, where a secant through the two would divide by zero
    def score(t):
        return 1.0 - t if t < 1.0 else -1e-30

    result = _score_root(score, (0.0, 1.0), (1.0, -1e-30), 1e-12)
    assert result == pytest.approx(1.0, abs=1e-12)


def test_mle_flags_all_outcomes_in_one_port(beam):
    # at theta = 0 the diagonal state sends every photon to the + port; the
    # maximum is interior to the interval but P- = 0 is not a regular point
    model = PolarizationModel(beam, PolarizationState.diagonal())
    counts = sample_outcomes(model, 0.0, 1000, trial_rng(3, 0))
    result = mle(model, counts, (-1e-6, 1e-6))
    assert result.one_port and not result.at_boundary and not result.interior
    mixed = mle(model, model.statistic(np.array([1, -1], dtype=np.int8)), (-1e-6, 1e-6))
    assert not mixed.one_port


def test_mle_is_deterministic(beam):
    model = QuadrantModel(beam, beam.rayleigh_range)
    counts = sample_outcomes(model, 1e-6, 2000, trial_rng(5, 4))
    r1 = mle(model, counts, (-1e-5, 1e-5))
    r2 = mle(model, counts, (-1e-5, 1e-5))
    assert r1 == r2


def test_mle_single_outcome_hits_boundary(beam):
    # one "+" outcome: the likelihood increases with theta, so the maximum is
    # the right interval end, flagged non-interior
    model = QuadrantModel(beam, beam.rayleigh_range)
    outcome = np.array([1], dtype=np.int8)
    result = mle(model, model.statistic(outcome), (-1e-5, 1e-5))
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
    lo, hi = default_search_interval(model, 1e-6, 10 ** 4, model.fisher(1e-6), 2)
    assert lo < 1e-6 < hi
    with pytest.raises(ValueError):
        default_search_interval(model, 1e-3, 10 ** 4, model.fisher(1e-3), 2)


def test_default_search_interval_refuses_zero_width():
    # 10 Cramer-Rao sigma is 3.6e-29 rad, below half an ulp of 1 urad
    beam = BeamParams.from_wavelength(1e-30, 1e-3)
    model = PositionModel(beam, beam.rayleigh_range)
    with pytest.raises(ValueError, match="rounds to a search interval of zero width"):
        default_search_interval(model, 1e-6, 1000, model.fisher(1e-6), 2)
    # at theta = 0 the same sigma still spans an interval
    lo, hi = default_search_interval(model, 0.0, 1000, model.fisher(0.0), 2)
    assert lo < 0.0 < hi


def test_default_search_interval_refuses_an_overflowing_variance(beam):
    # F = 1e-304 at nu = 1: sigma = 1e152, an interval 2e153 rad wide, and the
    # variance of n estimates in it sums up to n (2e153)^2 = n 4e306, finite to n = 44
    model = PositionModel(beam, beam.rayleigh_range)  # no guard: the interval is not clipped
    assert default_search_interval(model, 0.0, 1, 1e-304, trials=44) == (-1e153, 1e153)
    with pytest.raises(ValueError, match=r"^the variance of 45 estimates over \[-1\.000e\+153, 1\.000e\+153\] rad"):
        default_search_interval(model, 0.0, 1, 1e-304, trials=45)


@pytest.mark.parametrize("information", [0.0, math.nan])
def test_default_search_interval_refuses_a_given_f_without_recomputing_it(beam, monkeypatch, information):
    import tiltsense.estimate as estimate

    monkeypatch.setattr(estimate, "analytic_fisher", lambda *a: pytest.fail("F was recomputed"))
    model = PositionModel(beam, beam.rayleigh_range)
    with pytest.raises(ValueError, match="^scheme carries no information at this working point$"):
        default_search_interval(model, 1e-6, 1000, information, 2)


def test_default_search_interval_refuses_a_computed_f_of_zero(beam):
    # run_saturation computes F (0 for a position model at z = 0) and passes it on
    with pytest.raises(ValueError, match="^scheme carries no information at this working point$"):
        run_saturation(PositionModel(beam, 0.0), 1e-6, 1000, trials=2, seed=0)


def test_default_search_interval_keeps_the_sign_branch_of_even_statistics(centered_beam):
    # at xi = 0 the polarization statistics are even in theta for any coherence
    # phase, so an interval across 0 would return the wrong sign half the time
    pol = PolarizationState.from_bloch(0.5 * math.pi, 0.25 * math.pi)
    model = PolarizationModel(centered_beam, pol)
    assert model.even_in_theta
    interval = default_search_interval(model, 5e-6, 10 ** 5, model.fisher(5e-6), 2)
    assert interval[0] >= 0.0
    trials = [run_trial(model, "polarization", 5e-6, 10 ** 5, 7, i, interval) for i in range(10)]
    interior = [trial.theta_hat for trial in trials if trial.interior]
    assert len(interior) >= 5 and min(interior) > 0.0


# ---------------------------------------------------------------------------
# saturation runs
# ---------------------------------------------------------------------------


def test_run_trial_record(beam):
    # a trial is the MLE on the outcomes of the stream keyed by (seed, index)
    model = QuadrantModel(beam, beam.rayleigh_range)
    interval = (-2e-5, 2e-5)
    trial = run_trial(model, "quadrant", 1e-6, 1000, 99, 3, interval)
    counts = sample_outcomes(model, 1e-6, 1000, trial_rng(99, 3))
    assert trial == mle(model, counts, interval)
    assert math.isfinite(trial.theta_hat)


def test_run_saturation_takes_its_interval_and_information_from_the_working_point():
    parameters = inspect.signature(run_saturation).parameters
    assert list(parameters) == ["model", "theta_true", "nu", "trials", "seed", "scheme"]


@pytest.mark.parametrize(
    "model",
    [
        lambda beam: PolarizationModel(beam, PolarizationState.horizontal()),
        lambda beam: PositionModel(beam, 0.0),
    ],
    ids=["horizontal-polarization", "position-at-z0"],
)
def test_run_saturation_refuses_zero_information_before_any_trial(beam, monkeypatch, model):
    import tiltsense.estimate as estimate

    monkeypatch.setattr(estimate, "run_trial", lambda *a: pytest.fail("a trial ran"))
    with pytest.raises(ValueError, match="carries no information"):
        run_saturation(model(beam), 1e-6, 1000, 5, seed=1)


def test_saturation_report_carries_the_information_it_used(beam):
    model = QuadrantModel(beam, beam.rayleigh_range)
    report = run_saturation(model, 1e-6, 2000, 5, seed=7)
    assert report.information == model.fisher(1e-6)
    assert report.cr_variance == 1.0 / (2000 * report.information)


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
