"""The models compute in beam units: results at any beam scale, or exit 3 naming the row.

The closed forms depend on a beam only through t = k w0 theta, z/z_R and
xi/w0 (a Fisher information through (k w0)^2 times a function of them), and
the oracle's step is a fraction of the model's own quantum width.  So a beam
far from laboratory scales gives the laboratory beam's rows, or, where no
step resolves its density, a clean exit 3 that names the row.
"""

import csv
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tiltsense import (
    BeamParams,
    PolarizationModel,
    PolarizationState,
    PositionModel,
    PositionPolarizationModel,
    QuadrantModel,
    numeric_fisher_oracle,
)
from tiltsense.cli import main

STATIONARY = "theta=0 stationary point"


def _sweep(tmp_path, text):
    """(exit code, rows) of ``sweep`` on the config ``text``."""
    config = tmp_path / "config.yaml"
    config.write_text(text)
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    table = tmp_path / "out" / "sweep.csv"
    rows = list(csv.DictReader(open(table))) if table.exists() else []
    return code, rows


def _assert_rows_agree(rows):
    """Every row agrees with the oracle as in tests/test_oracle.py, unless it warns
    that the oracle's stencil straddles a stationary point."""
    assert rows
    for row in rows:
        analytic, oracle, qfi = (float(row[k]) for k in ("analytic_fisher", "oracle_fisher", "qfi"))
        assert all(map(math.isfinite, (analytic, oracle, qfi))), row
        if STATIONARY in row["warnings"]:
            continue
        tol = 1e-4 if row["scheme"] == "joint" else 1e-6
        assert abs(analytic - oracle) <= tol * max(analytic, 1e-6 * qfi), row


LAB = "beam: {wavelength: 633nm, w0: 1mm, "
DEFLECTION_AT_1ZR = (
    "run:\n"
    "  - {scheme: position, theta: 1urad, z: 1z_R}\n"
    "  - {scheme: quadrant, theta: 1urad, z: 1z_R}\n"
)
EXTREME_POSITION = "run: {scheme: position, theta: 1urad, z: [0, 1z_R, 10z_R]}\n"

# (config, the named row of an exit 3 or None for exit 0)
CONFIGS = {
    # the oracle's 1e-9 rad step was 1e-8 m of beam shift, lost in x at xi = 1e10 m
    "xi-1e3m": (LAB + "xi: 1e3m}\n" + DEFLECTION_AT_1ZR, None),
    "xi-1e10m": (LAB + "xi: 1e10m}\n" + DEFLECTION_AT_1ZR, None),
    # the oracle read 0 against closed forms up to 7.9e295
    "tiny-w0": ("beam: {wavelength: 633nm, w0: 1e-150m}\n" + EXTREME_POSITION, None),
    # the beam moves 4e147 and 6e141 widths at 1 urad: no step resolves its density
    "huge-z_R": (
        "beam: {wavelength: 633nm, z_R: 1e300m}\n" + EXTREME_POSITION,
        "run[0] row 1 (position, theta=1e-06 rad, z=1e+300 m): density not resolved",
    ),
    "tiny-wavelength": (
        "beam: {wavelength: 1e-150m, w0: 1mm}\n" + EXTREME_POSITION,
        "run[0] row 1 (position, theta=1e-06 rad, z=3.141592653589793e+144 m): density not resolved",
    ),
    # formerly refused: z/z_R of 1e154 or more, w(z) of 1e154 m or more, w0 of 1e-154 m or less
    "z-1e160z_R": (
        LAB + "xi: 1mm}\nrun:\n"
        "  - {scheme: position, theta: 1urad, z: 1e160z_R}\n"
        "  - {scheme: quadrant, theta: 1urad, z: 1e160z_R}\n"
        "  - {scheme: joint, theta: 1urad, z: 1e160z_R}\n",
        None,
    ),
    "w0-1e-160m": (
        # z_R = 5e-314 m is subnormal, and z/z_R overflows at 1 m
        "beam: {wavelength: 633nm, w0: 1e-160m, xi: 1mm}\nrun:\n"
        "  - {scheme: position, theta: 1urad, z: [0, 1z_R, 1m]}\n"
        "  - {scheme: joint, theta: 1urad, z: [0, 1z_R, 1m]}\n"
        "  - {scheme: polarization, theta: 1urad}\n",
        None,
    ),
    # the blocks that the w0, z/z_R and w(z) guards refused, one block each
    "w0-1e-160m-position-at-0": (
        "beam: {wavelength: 633nm, w0: 1e-160m}\nrun: {scheme: position, theta: 1urad, z: 0m}\n",
        None,
    ),
    "w0-1e-160m-position-at-1m": (
        "beam: {wavelength: 633nm, w0: 1e-160m}\nrun: {scheme: position, theta: 1urad, z: 1m}\n",
        None,
    ),
    "w0-10m-at-5e153z_R-position": (
        "beam: {wavelength: 633nm, w0: 10m}\nrun: {scheme: position, theta: 1nrad, z: 5e153z_R}\n",
        None,
    ),
    "w0-10m-at-5e153z_R-joint": (
        "beam: {wavelength: 633nm, w0: 10m}\nrun: {scheme: joint, theta: 1nrad, z: 5e153z_R}\n",
        None,
    ),
    "z_R-1e-300m-at-1m": (
        "beam: {wavelength: 633nm, z_R: 1e-300m, xi: 1mm}\nrun: {scheme: joint, theta: 1urad, z: 1m}\n",
        None,
    ),
    # inside the 2.5e-12 rad guard; the 1e-9 rad step was 16 fringes of 4 k xi theta
    "polarization-xi-1e3m": (LAB + "xi: 1e3m}\nrun: {scheme: polarization, theta: 1e-12}\n", None),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_extreme_configs_agree_with_the_oracle_or_exit_3(tmp_path, capsys, name):
    text, failure = CONFIGS[name]
    code, rows = _sweep(tmp_path, text)
    err = capsys.readouterr().err
    if failure is None:
        assert code == 0, err
        _assert_rows_agree(rows)
    else:
        assert (code, rows) == (3, [])
        assert err.startswith(f"numerical failure: {failure}"), err


# (beam, the one plane of each block, as montecarlo needs, and a tilt inside the guard)
FORMERLY_REFUSED = {
    "z-1e160z_R": (LAB + "xi: 1mm}\n", "1e160z_R", "1nrad"),
    "w0-1e-160m": ("beam: {wavelength: 633nm, w0: 1e-160m, xi: 1mm}\n", "1m", "1nrad"),
    "w0-10m-at-5e153z_R": ("beam: {wavelength: 633nm, w0: 10m, xi: 1mm}\n", "5e153z_R", "0.1nrad"),
}


@pytest.mark.parametrize("name", FORMERLY_REFUSED)
def test_formerly_refused_inputs_run_montecarlo(tmp_path, name):
    beam, z, theta = FORMERLY_REFUSED[name]
    config = tmp_path / "config.yaml"
    config.write_text(
        beam + "run:\n"
        + "".join(f"  - {{scheme: {scheme}, theta: {theta}, z: {z}}}\n" for scheme in ("position", "quadrant", "joint"))
        + f"  - {{scheme: polarization, theta: {theta}}}\n"
        f"montecarlo: {{theta: {theta}, nu: 1000, trials: 4, seed: 5}}\n"
    )
    assert main(["validate-config", "--config", str(config)]) == 0
    assert main(["montecarlo", "--config", str(config), "--out", str(tmp_path / "out")]) in (0, 4)
    rows = list(csv.DictReader(open(tmp_path / "out" / "montecarlo.csv")))
    assert len(rows) == 4
    assert all(math.isfinite(float(row["analytic_fisher"])) for row in rows)


@pytest.mark.parametrize("theta", ["0", "1e-13", "-4e-10"])
def test_stencils_across_theta_0_carry_the_stationary_warning(tmp_path, theta):
    # the polarization model of the diagonal state is even in theta; its step here is
    # 2e-5 of 1 / sqrt(qfi), 4.5e-10 rad.  Within one step of 0 the stencil straddles
    # the stationary point, and near 0 the oracle reads ~0: at 1e-13 rad 9.7e-9
    # against 1.97e9, a row that once had no warning
    code, rows = _sweep(
        tmp_path,
        LAB + "xi: 1mm}\n"
        f"run: [{{scheme: polarization, theta: [{theta}, 5e-10]}}, {{scheme: joint, theta: {theta}, z: 1z_R}}]\n",
    )
    assert code == 0
    straddling, beyond, joint = rows
    assert STATIONARY in straddling["warnings"] and STATIONARY in joint["warnings"]
    if abs(float(theta)) <= 1e-13:
        assert float(straddling["oracle_fisher"]) < 1e-6 * float(straddling["analytic_fisher"])
    assert STATIONARY not in beyond["warnings"]
    _assert_rows_agree([beyond])


# ---------------------------------------------------------------------------
# scale invariance
# ---------------------------------------------------------------------------

LAB_BEAM = (2.0 * math.pi / 633e-9, 1e-3)  # (k, w0)
SCHEMES = ("position", "quadrant", "polarization", "joint")


def _model(scheme, k, w0, xi_ratio, zeta):
    beam = BeamParams(k=k, w0=w0, xi=xi_ratio * w0)
    z = zeta * beam.rayleigh_range
    pol = PolarizationState.diagonal()
    return {
        "position": lambda: PositionModel(beam, z),
        "quadrant": lambda: QuadrantModel(beam, z),
        "polarization": lambda: PolarizationModel(beam, pol),
        "joint": lambda: PositionPolarizationModel(beam, pol, z),
    }[scheme]()


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    log_t=st.floats(-2.0, 2.0),
    sign=st.sampled_from([-1.0, 1.0]),
    log_zeta=st.floats(-2.0, 2.0),
    xi_ratio=st.floats(-1.0, 1.0),
    log_k=st.floats(-100.0, 100.0),
    log_w0=st.floats(-100.0, 100.0),
)
def test_fisher_information_is_scale_free(scheme, log_t, sign, log_zeta, xi_ratio, log_k, log_w0):
    k, w0 = 10.0 ** log_k, 10.0 ** log_w0
    # the squares (k w0)^2 and F stay normal floats, so that F / (k w0)^2 keeps its digits
    assume(1e-140 < k * w0 < 1e140)
    try:
        model = _model(scheme, k, w0, xi_ratio, 10.0 ** log_zeta)
    except ValueError:
        assume(False)
    lab = _model(scheme, *LAB_BEAM, xi_ratio, 10.0 ** log_zeta)
    t = sign * 10.0 ** log_t
    if scheme in ("polarization", "joint"):
        # 1% to 90% of the small-angle guard, inside which the interferometric closed forms hold
        guard = lab.small_angle_guard() * LAB_BEAM[0] * LAB_BEAM[1]
        t = sign * 0.9 * guard * 10.0 ** (0.5 * log_t - 1.0)
    scaled, reference = model.fisher(t / (k * w0)), lab.fisher(t / (LAB_BEAM[0] * LAB_BEAM[1]))
    unit = (k * w0) ** 2
    lab_unit = (LAB_BEAM[0] * LAB_BEAM[1]) ** 2
    assert scaled / unit == pytest.approx(reference / lab_unit, rel=1e-12, abs=1e-12 * lab.qfi() / lab_unit)
    assert model.qfi() / unit == pytest.approx(lab.qfi() / lab_unit, rel=1e-12)
    oracle = numeric_fisher_oracle(model, t / (k * w0))
    tol = 1e-4 if scheme == "joint" else 1e-6
    assert abs(oracle - scaled) <= tol * max(scaled, 1e-6 * model.qfi())


def test_joint_paths_far_apart_keep_all_their_weight():
    # at t s = 3e4 widths, without breakpoints at the inner edges of the two path
    # windows, the segment between them held half of each Gaussian on panels of
    # 60 widths: the closed form "converged" on half the information
    beam = BeamParams.from_wavelength(633e-9, 1e-3)
    model = PositionPolarizationModel(beam, PolarizationState.diagonal(), beam.rayleigh_range)
    slope = beam.k * beam.w0 * beam.plane(beam.rayleigh_range)[1]  # 2 z/w
    theta = 3e4 / slope
    # far apart, each photon is in one path, whose center moves at k w0 s per radian
    assert model.fisher(theta) == pytest.approx(4.0 * slope * slope, rel=1e-9)
    assert numeric_fisher_oracle(model, theta) == pytest.approx(4.0 * slope * slope, rel=1e-6)
