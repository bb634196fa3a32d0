"""The composite Gauss-Legendre quadrature engine and the numpy-only import."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltsense import BeamParams, PolarizationState, PositionPolarizationModel
from tiltsense import oracle, schemes
from tiltsense._integrate import ORDER, ConvergenceError, integrate_interval
from tiltsense.cli import main
from tiltsense.oracle import numeric_fisher_oracle


def test_unit_gaussian_split_at_mean():
    def gaussian(x):
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    value = integrate_interval(gaussian, -12.0, 12.0, breakpoints=(0.0,), rtol=1e-12)
    assert isinstance(value, float)
    assert abs(value - 1.0) <= 1e-12


def test_array_valued_integrand_returns_every_integral():
    def pair(x):
        return np.stack([np.ones_like(x), x * x])

    values = integrate_interval(pair, 0.0, 1.0)
    assert values.shape == (2,)
    assert values == pytest.approx([1.0, 1.0 / 3.0], rel=1e-14)


def test_doubling_starts_at_one_panel_per_segment():
    sizes = []

    def gaussian(x):
        sizes.append(x.size)
        return np.exp(-0.5 * x * x)

    integrate_interval(gaussian, -12.0, 12.0, breakpoints=(0.0,), rtol=1e-11)
    # two segments of one panel, then of two: a smooth integrand converges at once
    assert sizes == [2 * ORDER, 4 * ORDER]


def test_breakpoints_outside_the_interval_are_ignored():
    value = integrate_interval(np.cos, 0.0, math.pi / 2, breakpoints=(-1.0, 0.0, 2.0, 5.0))
    assert value == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize(
    "integrand",
    [
        lambda x: np.full_like(x, np.nan),
        # a unit step at an irrational point that is not a breakpoint
        lambda x: np.where(x < 1.0 / math.sqrt(2.0), 0.0, 1.0),
    ],
    ids=["nan", "step"],
)
def test_unresolvable_integrands_raise(integrand):
    with pytest.raises(ConvergenceError, match="did not converge"):
        integrate_interval(integrand, 0.0, 1.0, rtol=1e-11)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_integrand_is_named_on_the_first_pass(bad):
    calls = []

    def integrand(x):
        calls.append(x.size)
        return np.where(x < 0.5, 1.0, bad)

    with pytest.raises(ConvergenceError, match=rf"the integrand is not finite there \(sum {bad}\)"):
        integrate_interval(integrand, 0.0, 1.0)
    assert len(calls) == 1


def test_oracle_keeps_nan_densities_in_the_integral():
    class NanDensity:
        def pdf(self, theta, x):
            return np.full_like(x, np.nan)

        def domain(self, theta):
            return -1.0, 1.0

        def qfi(self):
            return 1.0

    with pytest.raises(ConvergenceError):
        numeric_fisher_oracle(NanDensity(), 0.0)


def test_quadrature_failure_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    # the joint closed form integrates the conditioned information; make it
    # NaN so the real quadrature engine gives up
    monkeypatch.setattr(
        "tiltsense.schemes.information_from_rates", lambda a, b, theta: np.full_like(a, np.nan)
    )
    cfg = tmp_path / "joint.yaml"
    cfg.write_text(
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run: {scheme: joint, theta: 1urad, z: 1z_R}\n"
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "quadrature did not converge" in err


def test_montecarlo_quadrature_failure_names_the_block(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        "tiltsense.schemes.information_from_rates", lambda a, b, theta: np.full_like(a, np.nan)
    )
    cfg = tmp_path / "joint.yaml"
    cfg.write_text(
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run: {scheme: joint, theta: 1urad, z: 1z_R}\n"
        "montecarlo: {theta: 1urad, nu: 1000, trials: 10}\n"
    )
    assert main(["montecarlo", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: run[0] (joint): quadrature did not converge" in err
    assert not (tmp_path / "x").exists()


def test_cli_import_does_not_load_scipy():
    code = (
        "import sys, tiltsense.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent'))))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# 64 panels under-resolve the conditioned information at z = 0.125 z_R and 29 guards
# (wavelength 1.93 um, w0 = 3.906 mm, xi = 1.5 w0) by 1.5e-12 of the total; from 128
# panels on the sums agree with each other and with the engine to 1e-15
DENSE_PANELS = 128


def dense_rule(f, lo, hi, breakpoints=(), **_tolerances):
    """The engine's rule at a fixed DENSE_PANELS panels per segment; no doubling, no tolerances."""
    nodes, weights = np.polynomial.legendre.leggauss(ORDER)
    edges = np.array([lo, *sorted(p for p in breakpoints if lo < p < hi), hi], dtype=float)
    half = (0.5 * np.diff(edges) / DENSE_PANELS)[:, None]
    centers = edges[:-1, None] + (2.0 * np.arange(DENSE_PANELS) + 1.0) * half
    x = (centers[..., None] + half[..., None] * nodes).ravel()
    w = np.broadcast_to(half[..., None] * weights, centers.shape + (ORDER,)).ravel()
    total = np.sum(f(x) * w, axis=-1)
    return float(total) if total.ndim == 0 else total


joint_points = st.tuples(
    st.floats(400e-9, 2e-6),  # wavelength
    st.floats(1e-4, 5e-3),  # w0
    st.floats(-3.0, 3.0),  # xi / w0
    # z / z_R: nearer the waist than 0.1 z_R (but not at it) the conditioned information
    # dips at its fringe zeros over a width ~ z/z_R, which a fixed rule cannot resolve
    st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
    st.floats(-3.0, math.log10(30.0)),  # log10 of |theta| / small-angle guard
    st.sampled_from([-1.0, 1.0]),  # sign of theta
)


def check_against_dense_rule(point):
    wavelength, w0, xi_ratio, z_ratio, log_theta, sign = point
    beam = BeamParams.from_wavelength(wavelength, w0, xi_ratio * w0)
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), z_ratio * beam.rayleigh_range)
    theta = sign * 10.0 ** log_theta * model.small_angle_guard()
    decomposition = model.decomposition(theta)
    value = numeric_fisher_oracle(model, theta)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schemes, "integrate_interval", dense_rule)
        patch.setattr(oracle, "integrate_interval", dense_rule)
        reference = model.decomposition(theta)
        reference_value = numeric_fisher_oracle(model, theta)
    # each part against the total: near theta = 0 the spatial part is rounding noise
    for part, reference_part in zip(decomposition, reference):
        assert abs(part - reference_part) <= 1e-13 * reference.total
    assert value == pytest.approx(reference_value, rel=1e-8)


def test_dense_node_where_the_density_derivative_crosses_zero():
    # a dense node lands at x = 0.0360 m, where dp/dtheta crosses 0: the
    # step-halving gap there is measured against the whole pass, not that node
    w0 = 3.906e-3
    beam = BeamParams.from_wavelength(400e-9, w0, 1.5 * w0)
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), 2.0 * beam.rayleigh_range)
    theta = -model.small_angle_guard()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schemes, "integrate_interval", dense_rule)
        patch.setattr(oracle, "integrate_interval", dense_rule)
        assert numeric_fisher_oracle(model, theta) == pytest.approx(model.fisher(theta), rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(joint_points)
def test_one_panel_start_matches_a_dense_rule(point):
    check_against_dense_rule(point)


@pytest.mark.slow
@settings(max_examples=500, deadline=None)
@given(joint_points)
def test_one_panel_start_matches_a_dense_rule_widely(point):
    check_against_dense_rule(point)


def test_node_table_is_numpys_leggauss_bit_for_bit():
    from tiltsense import _integrate

    nodes, weights = np.polynomial.legendre.leggauss(ORDER)
    assert _integrate._NODES.tobytes() == nodes.tobytes()
    assert _integrate._WEIGHTS.tobytes() == weights.tobytes()


# ---------------------------------------------------------------------------
# several planes: array bounds, one integral per plane
# ---------------------------------------------------------------------------


def plane_gaussians(widths, sizes=None):
    """f(x, planes) of unit Gaussians of the given widths, one per plane, centred at 0."""
    widths = np.asarray(widths, dtype=float).reshape(-1, 1)

    def f(x, planes):
        if sizes is not None:
            sizes.append(x.shape)
        s = widths[planes]
        return np.stack([np.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2.0 * math.pi)), x * x])

    return f


def test_each_plane_matches_its_one_plane_call_bit_for_bit():
    widths = [0.5, 1.0, 3.0]
    lo, hi = np.array([-6.0, -12.0, -30.0]), np.array([6.0, 12.0, 40.0])
    f = plane_gaussians(widths)
    values = integrate_interval(f, lo, hi, breakpoints=(0.0,))
    assert values.shape == (2, 3)
    for plane in range(3):
        single = integrate_interval(
            lambda x: f(x[None, :], np.array([plane]))[:, 0], lo[plane], hi[plane], breakpoints=(0.0,)
        )
        assert values[:, plane].tolist() == single.tolist()


def test_converged_planes_drop_out_of_later_passes():
    sizes = []

    def f(x, planes):
        sizes.append(x.shape)
        # plane 1 is a kink that needs many doublings, plane 0 a constant
        return np.where(planes[:, None] == 1, np.abs(x - 1.0 / math.sqrt(2.0)), 1.0)

    values = integrate_interval(f, np.zeros(2), np.ones(2), rtol=1e-8)
    assert values[0] == 1.0
    assert values[1] == pytest.approx(0.25 + (1.0 / math.sqrt(2.0) - 0.5) ** 2, rel=1e-8)
    assert sizes[:2] == [(2, ORDER), (2, 2 * ORDER)]
    assert all(shape[0] == 1 for shape in sizes[2:]) and len(sizes) > 2


def test_planes_with_different_segment_counts_integrate_apart():
    # the breakpoint 2 lies inside the first plane's interval only
    sizes = []
    values = integrate_interval(
        plane_gaussians([1.0, 1.0], sizes), np.array([-12.0, -12.0]), np.array([12.0, 1.0]),
        breakpoints=(np.array([2.0, 2.0]),),
    )
    assert sorted(shape[0] for shape in sizes) == [1, 1, 1, 1]
    assert values[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_planes_share_a_pass_in_groups_of_at_most_max_planes():
    from tiltsense._integrate import MAX_PLANES

    sizes = []
    count = 2 * MAX_PLANES + 3
    values = integrate_interval(
        plane_gaussians(np.linspace(0.5, 2.0, count), sizes),
        np.full(count, -30.0), np.full(count, 30.0), breakpoints=(0.0,),
    )
    assert values[0] == pytest.approx(np.ones(count), rel=1e-12)
    assert max(shape[0] for shape in sizes) == MAX_PLANES
    assert sum(shape[0] * shape[1] for shape in sizes) == count * (2 + 4) * ORDER


def test_plane_failures_name_the_plane():
    def f(x, planes):
        return np.where(planes[:, None] == 2, np.nan, np.ones_like(x))

    # the error carries the plane's index, and the message its one-plane call gives
    with pytest.raises(ConvergenceError, match=r"\]: the integrand is not finite there") as failure:
        integrate_interval(f, np.zeros(3), np.ones(3))
    assert failure.value.plane == 2
    with pytest.raises(ConvergenceError) as single:
        integrate_interval(lambda x: f(x[None, :], np.array([2]))[0], 0.0, 1.0)
    assert str(failure.value) == failure.value.reason == str(single.value)

    def step(x, planes):
        return np.where((planes[:, None] == 1) & (x < 1.0 / math.sqrt(2.0)), 0.0, 1.0)

    with pytest.raises(ConvergenceError, match=r"\] with 512 panels per segment") as failure:
        integrate_interval(step, np.zeros(3), np.ones(3), rtol=1e-11)
    assert failure.value.plane == 1
    with pytest.raises(ConvergenceError) as single:
        integrate_interval(lambda x: step(x[None, :], np.array([1]))[0], 0.0, 1.0, rtol=1e-11)
    assert str(failure.value) == failure.value.reason == str(single.value)
