"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import csv
import math

import numpy as np
import pytest
from scipy import integrate

from tiltsense import (
    BeamParams,
    ConditionedPolarizationModel,
    PolarizationModel,
    PolarizationState,
    PositionModel,
    PositionPolarizationModel,
    QuadrantModel,
    fisher_conditioned,
    fisher_position,
    fisher_quadrant,
    fisher_sagnac_polarization,
    intensity_profile,
    numeric_fisher_oracle,
    qfi_beam_deflection,
    qfi_mach_zehnder,
    qfi_sagnac,
    run_saturation,
    sagnac_joint_density,
    sagnac_polarization_probabilities,
)
from tiltsense.cli import main

WAVELENGTH = 633e-9
WAIST = 1e-3
OFFSET = 1e-3

MC_SEED = 424242


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture()
def beam():
    return BeamParams.from_wavelength(WAVELENGTH, WAIST, OFFSET)


def test_criterion_01_quadrant_qfi_ratio(beam):
    zr = beam.rayleigh_range
    qfi = qfi_beam_deflection(beam)
    ratio_far = fisher_quadrant(beam, 0.0, 100.0 * zr) / qfi
    gap = abs(ratio_far - 2.0 / math.pi)
    monotone = all(
        fisher_quadrant(beam, 0.0, z1) / qfi < fisher_quadrant(beam, 0.0, z2) / qfi
        for z1, z2 in zip([zr, 10 * zr, 100 * zr], [10 * zr, 100 * zr, 1000 * zr])
    )
    _report(
        1,
        gap < 1e-4 and monotone,
        f"quadrant/QFI ratio at z=100 z_R is {ratio_far:.6f}, |ratio - 2/pi| = {gap:.2e} < 1e-4",
    )


def test_criterion_02_position_saturation(beam):
    zr = beam.rayleigh_range
    qfi = qfi_beam_deflection(beam)
    worst = 0.0
    for z in [0.0, 0.01 * zr, 0.3 * zr, zr, 5 * zr, 100 * zr, 1e4 * zr]:
        expected = z * z / (z * z + zr * zr)
        worst = max(worst, abs(fisher_position(beam, z) / qfi - expected))
    far = fisher_position(beam, 100.0 * zr) / qfi
    _report(
        2,
        worst < 1e-12 and far > 0.9999,
        f"position/QFI equals z^2/(z^2+z_R^2) to {worst:.2e}; ratio at 100 z_R = {far:.6f}",
    )


def test_criterion_03_polarization_saturation():
    plus = PolarizationState.diagonal()
    worst = 0.0
    for xi in (0.0, 0.5e-3, 1e-3, 2e-3):
        beam = BeamParams.from_wavelength(WAVELENGTH, WAIST, xi)
        expected = 16.0 * beam.k ** 2 * (WAIST ** 2 / 4.0 + xi ** 2)
        value = fisher_sagnac_polarization(beam, plus, 0.0)
        worst = max(worst, abs(value - expected) / expected)
    _report(
        3,
        worst < 1e-8,
        f"theta->0 polarization Fisher equals 16 k^2 [w0^2/4 + xi^2] to {worst:.2e} "
        "relative over xi in {0, 0.5, 1, 2} mm",
    )


def test_criterion_04_marginalization_consistency():
    plus = PolarizationState.diagonal()
    thetas = np.array([0.0, 0.5e-6, 1e-6, 2e-6, 5e-6])
    offsets = np.array([-1e-3, 0.0, 0.5e-3, 1e-3, 2e-3])
    worst_norm = 0.0
    worst_marginal = 0.0
    for xi in offsets:
        beam = BeamParams.from_wavelength(WAVELENGTH, WAIST, xi)
        zr = beam.rayleigh_range
        for theta in thetas:
            for zf in (0.0, 0.1, 1.0, 5.0, 20.0):
                z = zf * zr
                w = beam.width(z)
                lo, hi = xi - 12 * w, xi + 12 * w
                closed = sagnac_polarization_probabilities(beam, plus, theta)
                marginals = []
                for idx in (0, 1):
                    val, _ = integrate.quad(
                        lambda x: sagnac_joint_density(beam, plus, theta, z, x)[idx],
                        lo, hi, points=[xi], epsabs=1e-13, epsrel=1e-12, limit=300,
                    )
                    marginals.append(val)
                    worst_marginal = max(worst_marginal, abs(val - closed[idx]))
                worst_norm = max(worst_norm, abs(marginals[0] + marginals[1] - 1.0))
    _report(
        4,
        worst_norm < 1e-9 and worst_marginal < 1e-9,
        f"5x5x5 grid: |integral (p+ + p-) - 1| <= {worst_norm:.2e}, "
        f"|marginal - closed form| <= {worst_marginal:.2e}, both < 1e-9",
    )


def test_criterion_05_decomposition_identity(beam):
    zr = beam.rayleigh_range
    expected = 16.0 * beam.k ** 2 * (WAIST ** 2 / 4.0 + OFFSET ** 2)
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), 5.0 * zr)
    report = model.decomposition(1e-9)
    rel = abs(report.avg_conditioned - expected) / expected
    pos_fraction = report.position_part / report.total
    _report(
        5,
        rel < 1e-5 and pos_fraction < 1e-6,
        f"integral P(x) F_cond(x) dx matches the polarization limit to {rel:.2e} relative; "
        f"position share = {pos_fraction:.2e} < 1e-6",
    )


def test_criterion_06_critical_point_flatness(beam):
    zr = beam.rayleigh_range
    on_center = [fisher_conditioned(beam, z, OFFSET, 0.0) for z in np.linspace(0.0, 10 * zr, 101)]
    spread = (max(on_center) - min(on_center)) / on_center[0]
    on_axis = [fisher_conditioned(beam, z, 0.0, 0.0) for z in np.linspace(0.0, 100 * zr, 201)]
    monotone = all(b >= a - 1e-9 for a, b in zip(on_axis, on_axis[1:]))
    ceiling = 16.0 * beam.k ** 2 * OFFSET ** 2
    approach = abs(on_axis[-1] - ceiling) / ceiling
    _report(
        6,
        spread < 1e-9 and monotone and approach < 1e-4,
        f"F_cond(x=xi) flat over z in [0, 10 z_R] (spread {spread:.2e}); F_cond(x=0) rises "
        f"monotonically to 16 k^2 xi^2 within {approach:.2e} at z = 100 z_R",
    )


def test_criterion_07_oracle_equivalence(beam):
    zr = beam.rayleigh_range
    floor = 1e-6 * qfi_beam_deflection(beam)
    worst = 0.0

    def check(analytic, model, theta):
        nonlocal worst
        oracle = numeric_fisher_oracle(model, theta)
        worst = max(worst, abs(analytic - oracle) / max(analytic, floor))

    # position response (documented grid)
    for z in (0.1 * zr, zr, 5 * zr, 100 * zr):
        check(fisher_position(beam, z), PositionModel(beam, z), 1e-6)
    # quadrant response
    for theta in (0.0, 1e-6, 1e-5):
        for z in (0.5 * zr, zr, 10 * zr):
            check(fisher_quadrant(beam, theta, z), QuadrantModel(beam, z), theta)
    # integrated polarization response, including the denominator-form witness
    d03 = PolarizationState.from_bloch(math.asin(0.6))
    for pol in (PolarizationState.diagonal(), d03, PolarizationState.from_bloch(math.pi / 2, math.pi / 3)):
        for theta in (1e-7, 1e-6, 2e-6):
            check(
                fisher_sagnac_polarization(beam, pol, theta),
                PolarizationModel(beam, pol),
                theta,
            )
    # point-detector polarization response
    for x in (0.0, 0.5e-3, 1e-3, 1.5e-3):
        for z in (0.2 * zr, 5 * zr):
            check(fisher_conditioned(beam, z, x, 1e-6), ConditionedPolarizationModel(beam, z, x), 1e-6)

    # quadratic-coherence denominator is the one the data follows: the
    # alternative linear-d form is not even positive at this working point
    theta = 1e-6
    d = d03.coherence_magnitude
    b_coeff = 2.0 * (beam.k * beam.w0) ** 2
    ph = 4.0 * beam.k * beam.xi * theta
    num = 16.0 * d * d * (b_coeff * theta * math.cos(ph) + 2.0 * beam.k * beam.xi * math.sin(ph)) ** 2
    linear_d_variant = num / (
        math.exp(2.0 * b_coeff * theta * theta) - 4.0 * d * math.cos(ph) ** 2
    )
    resolved = linear_d_variant < 0.0

    _report(
        7,
        worst < 1e-4 and resolved,
        f"all closed forms match the finite-difference oracle to {worst:.2e} relative "
        "(< 1e-4); denominator ambiguity resolved to the quadratic-coherence form",
    )


def test_criterion_08_qfi_ordering_and_crossover():
    rng = np.random.default_rng(0)
    ordering_ok = True
    for _ in range(300):
        w0 = float(rng.uniform(1e-4, 5e-3))
        xi = float(rng.uniform(-5e-3, 5e-3))
        polar = float(rng.uniform(0.0, math.pi))
        beam = BeamParams.from_wavelength(WAVELENGTH, w0, xi)
        pol = PolarizationState.from_bloch(polar, float(rng.uniform(-math.pi, math.pi)))
        sag, mz = qfi_sagnac(beam, pol), qfi_mach_zehnder(beam, pol)
        if sag < mz * (1.0 - 1e-12):
            ordering_ok = False
    plus = PolarizationState.diagonal()
    boundary = WAIST / math.sqrt(2.0)
    below = BeamParams.from_wavelength(WAVELENGTH, WAIST, 0.999 * boundary)
    above = BeamParams.from_wavelength(WAVELENGTH, WAIST, 1.001 * boundary)
    crossover_ok = (
        qfi_mach_zehnder(below, plus) < qfi_beam_deflection(below)
        and qfi_mach_zehnder(above, plus) > qfi_beam_deflection(above)
    )
    _report(
        8,
        ordering_ok and crossover_ok,
        "qfi_sagnac >= qfi_mach_zehnder on 300 random configurations; single-sided "
        "gain flips exactly at xi^2 = w0^2/2",
    )


def test_criterion_09_monte_carlo_saturation(beam):
    zr = beam.rayleigh_range
    schemes = [
        ("position", PositionModel(beam, zr)),
        ("quadrant", QuadrantModel(beam, zr)),
        ("polarization", PolarizationModel(beam, PolarizationState.diagonal())),
    ]
    ratios = {}
    ok = True
    for name, model in schemes:
        report = run_saturation(model, 1e-6, 10 ** 4, 200, MC_SEED, scheme=name)
        ratios[name] = report.ratio
        if not 0.85 <= report.ratio <= 1.25:
            ok = False
        if report.non_interior > 0.05 * report.trials:
            ok = False
    detail = ", ".join(f"{k}={v:.3f}" for k, v in ratios.items())
    _report(
        9,
        ok,
        f"empirical/CR variance ratios at nu=1e4, 200 trials, seed {MC_SEED}: {detail} "
        "(all within [0.85, 1.25])",
    )


def test_criterion_10_figure_reproduction(tmp_path):
    out3, out4 = tmp_path / "fig3", tmp_path / "fig4"
    assert main(["figure3", "--out", str(out3)]) == 0
    assert main(["figure4", "--out", str(out4)]) == 0

    figure_beam = BeamParams.from_rayleigh_range(1.0, WAVELENGTH, OFFSET)
    k2 = figure_beam.k ** 2

    # figure3 panel (b): every value equals the library's scalar evaluation
    # exactly (17-digit CSV round-trips), flat x = xi curve, monotone x = 0 curve
    with open(out3 / "figure3b.csv") as fh:
        rows_b = list(csv.DictReader(fh))
    flat = np.array([float(r["cond_fisher_over_k2_x_1mm"]) for r in rows_b])
    rising = np.array([float(r["cond_fisher_over_k2_x_0mm"]) for r in rows_b])
    detectors = {"0mm": 0.0, "1mm": OFFSET, "1p5mm": 1.5e-3}
    mismatched = sum(
        float(r[f"cond_fisher_over_k2_x_{name}"])
        != fisher_conditioned(figure_beam, float(r["z_m"]), x, 0.0) / k2
        for r in rows_b
        for name, x in detectors.items()
    )
    flatness = (flat.max() - flat.min()) / flat[0]
    monotone = bool(np.all(np.diff(rising) >= -1e-15))

    # figure4 panel (a): off-center maxima, on-axis zero, symmetry
    with open(out4 / "figure4a.csv") as fh:
        rows_a = list(csv.DictReader(fh))
    xs = np.array([float(r["x_m"]) for r in rows_a])
    scaled = np.array([float(r["p_cond_fisher_over_k2_z_0"]) for r in rows_a])
    mid = len(xs) // 2
    shape_ok = (
        scaled[mid] == 0.0
        and np.argmax(scaled) != mid
        and np.allclose(scaled, scaled[::-1], rtol=1e-9, atol=1e-20)
    )

    # emitted densities are normalized (adaptive quadrature of the same
    # density the CSV samples) and the scaled curves integrate to the
    # polarization limit
    norm_gap = 0.0
    avg_gap = 0.0
    for xi in (0.0, OFFSET):
        beam_xi = BeamParams.from_rayleigh_range(1.0, WAVELENGTH, xi)
        for z in (0.0, 5.0):
            w = beam_xi.width(z)
            lo, hi = xi - 12 * w, xi + 12 * w
            norm, _ = integrate.quad(
                lambda x: intensity_profile(beam_xi, 0.0, z, x),
                lo, hi, epsabs=1e-13, epsrel=1e-12, limit=300,
            )
            norm_gap = max(norm_gap, abs(norm - 1.0))
            avg, _ = integrate.quad(
                lambda x: intensity_profile(beam_xi, 0.0, z, x)
                * fisher_conditioned(beam_xi, z, x, 0.0),
                lo, hi, epsabs=1e-6, epsrel=1e-11, limit=300,
            )
            expected = 16.0 * beam_xi.k ** 2 * (beam_xi.w0 ** 2 / 4.0 + xi ** 2)
            avg_gap = max(avg_gap, abs(avg - expected) / expected)

    svg_ok = all(
        (out3 / f"figure3{p}.svg").exists() for p in "ab"
    ) and all((out4 / f"figure4{p}.svg").exists() for p in "abcd")

    ok = (
        len(rows_b) == 501
        and mismatched == 0
        and flatness < 1e-9
        and monotone
        and shape_ok
        and norm_gap < 1e-9
        and avg_gap < 1e-5
        and svg_ok
    )
    _report(
        10,
        ok,
        f"figure3b matches the library's scalar values exactly ({mismatched} of "
        f"{3 * len(rows_b)} differ); flat x=xi curve "
        f"({flatness:.2e}); off-center maxima and symmetry at xi=0, z=0; densities "
        f"normalized to {norm_gap:.2e}; scaled curves integrate to the polarization "
        f"limit within {avg_gap:.2e}. Absolute vertical scale of the scaled-information "
        "panels is not recoverable from the source figure; shapes only.",
    )
