import argparse
import csv
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy.integrate import trapezoid
import pytest

from tiltsense import (
    BeamParams,
    PolarizationModel,
    PolarizationState,
    fisher_conditioned,
    intensity_profile,
)
from tiltsense.cli import build_parser, main
from tiltsense.oracle import default_step

BASE_CONFIG = """
beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}
run:
  - {scheme: quadrant, theta: 0.0, z: {start: 0.5z_R, stop: 10z_R, count: 12}}
"""

MC_CONFIG = """
beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}
run:
  - {scheme: position, theta: 1urad, z: 1z_R}
  - {scheme: quadrant, theta: 1urad, z: 1z_R}
  - {scheme: polarization, theta: 1urad}
montecarlo: {theta: 1urad, nu: 10000, trials: 60, seed: 424242}
"""


def write_config(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_validate_config_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["validate-config", "--config", cfg]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_config_error_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: position, theta: 0, z: []}\n")
    assert main(["validate-config", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "run[0].z" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_fisher_quadrant_sweep_peaks_at_two_over_pi(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "sweep.csv")
    assert len(rows) == 12
    ratios = [float(r["ratio_to_qfi"]) for r in rows]
    zs = [float(r["z_m"]) for r in rows]
    assert ratios == sorted(ratios)          # grows with the lever arm
    assert np.argmax(ratios) == np.argmax(zs)
    assert max(ratios) == pytest.approx(2.0 / math.pi, abs=0.01)
    assert max(ratios) < 2.0 / math.pi
    # analytic and oracle columns agree
    for r in rows:
        analytic, oracle = float(r["analytic_fisher"]), float(r["oracle_fisher"])
        assert oracle == pytest.approx(analytic, rel=1e-6)


def test_fisher_polarization_offset_gain(tmp_path):
    gains = {}
    for tag, xi in (("xi0", "0mm"), ("xi1", "1mm")):
        cfg = write_config(
            tmp_path,
            f"beam: {{wavelength: 633nm, w0: 1mm, xi: {xi}}}\n"
            "run: {scheme: polarization, theta: 0.0}\n",
            name=f"{tag}.yaml",
        )
        out = tmp_path / tag
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        row = read_rows(out / "sweep.csv")[0]
        gains[tag] = float(row["analytic_fisher"])
        assert "stationary point" in row["warnings"]
    # F scales by (w0^2/4 + xi^2)/(w0^2/4) = 5 for xi = 1mm, w0 = 1mm
    assert gains["xi1"] / gains["xi0"] == pytest.approx(5.0, rel=1e-9)


def test_fisher_outputs_are_reproducible_and_threadsafe(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_fisher_json_format(tmp_path, capsys):
    # the tables are CSV only: argparse refuses --format before any work
    cfg = write_config(
        tmp_path, "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: position, theta: 1urad, z: 1z_R}\n"
    )
    out = tmp_path / "json_out"
    for command in ("sweep", "montecarlo"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(out), "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert not out.exists()


def test_fisher_row_invariants(tmp_path):
    # the position scheme at z = z_R holds half the deflection bound
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run: {scheme: position, theta: 1urad, z: 1z_R}\n"
        "montecarlo: {theta: 1urad, nu: 10000}\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "f")]) == 0
    (row,) = read_rows(tmp_path / "f" / "sweep.csv")
    analytic, qfi = float(row["analytic_fisher"]), float(row["qfi"])
    assert 0.0 <= analytic <= qfi * (1.0 + 1e-6)
    assert abs(analytic - float(row["oracle_fisher"])) / analytic < 1e-4
    assert float(row["ratio_to_qfi"]) == pytest.approx(0.5, rel=1e-9)
    assert float(row["cr_delta_theta_rad"]) == pytest.approx(
        1.0 / math.sqrt(10 ** 4 * analytic), rel=1e-12
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--seed", "1"],
        ["sweep", "--run", "0"],
        ["montecarlo", "--seed", "9"],
        ["figure3", "--seed", "1"],
        ["figure4", "--seed", "1"],
        ["figure3", "--format", "json"],
        ["figure4", "--format", "csv"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, BASE_CONFIG)
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--config", cfg, "--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


COMMANDS = ["sweep", "figure3", "figure4", "montecarlo", "validate-config"]


def test_help_lists_the_five_commands(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().out


def test_the_fisher_command_is_gone(tmp_path, capsys):
    # one run block's rows come from sweep on a config that holds only that block
    cfg = write_config(tmp_path, BASE_CONFIG)
    with pytest.raises(SystemExit) as exit_info:
        main(["fisher", "--config", cfg, "--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert "invalid choice: 'fisher'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("run", ["3", "-1"])
def test_fisher_run_out_of_range_exits_2(tmp_path, capsys, run):
    # no command takes a run index any more: each such call stops in argparse
    cfg = write_config(tmp_path, BASE_CONFIG)
    for command, message in (
        ("fisher", "invalid choice: 'fisher'"),
        ("sweep", f"unrecognized arguments: --run {run}"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", cfg, "--out", str(tmp_path / "f"), "--run", run])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize(
    "change, message",
    [
        (("nu: 10000,", "nu: 10000, interval: [0, 2urad],"), "montecarlo: unknown keys ['interval']"),
        (("xi: 1mm}", "xi: 1mm}\npolarization: plus"), "polarization: unknown preset 'plus'"),
    ],
    ids=["montecarlo-interval", "plus-preset"],
)
def test_retired_config_knobs_exit_2(tmp_path, capsys, change, message):
    cfg = write_config(tmp_path, MC_CONFIG.replace(*change))
    out = ["--out", str(tmp_path / "o")]
    for argv in (["validate-config"], ["sweep", *out], ["montecarlo", *out]):
        assert main([*argv, "--config", cfg]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_readme_cli_table_lists_every_command_and_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command ", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for line in table.splitlines()[2:]:
        commands, flags = line.split(" | ", 1)
        for command in re.findall(r"`([a-z0-9-]+)`", commands):
            listed[command] = set(re.findall(r"`(--[a-z-]+)", flags))
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {
        name: {option for action in sub._actions for option in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert listed == defined
    assert sorted(defined) == sorted(COMMANDS)


def test_readme_signatures_match_the_code():
    # each backticked ``name(params)`` span that names a package export, a model
    # method (``model.`` or bare) or a submodule function (``oracle.default_step``)
    import ast
    import importlib
    import inspect
    import pkgutil

    import tiltsense

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    models = [getattr(tiltsense, name) for name in tiltsense.__all__ if name.endswith("Model")]
    modules = {module.name for module in pkgutil.iter_modules(tiltsense.__path__)}
    checked = set()
    for name, params in re.findall(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`", readme):
        head, _, attr = name.rpartition(".")
        if head in tiltsense.__all__:
            targets = [getattr(getattr(tiltsense, head), attr)]
        elif head in modules:
            targets = [getattr(importlib.import_module(f"tiltsense.{head}"), attr)]
        elif not head and attr in tiltsense.__all__:
            targets = [getattr(tiltsense, attr)]
        elif head in ("", "model"):
            targets = [getattr(model, attr) for model in models if hasattr(model, attr)]
        else:  # another library's function, such as np.linspace
            targets = []
        written = [p.strip().partition("=") for p in params.split(",") if p.strip()]
        for target in targets:
            signature = inspect.signature(target)
            parameters = [p for p in signature.parameters.values() if p.name != "self"]
            assert [p[0] for p in written] == [p.name for p in parameters], name
            for (param, equals, default), parameter in zip(written, parameters):
                if equals:
                    assert ast.literal_eval(default) == parameter.default, (name, param)
        checked.update([name] if targets else [])
    assert {"run_saturation", "default_search_interval", "mle", "regime_flags"} <= checked
    assert {"oracle.default_step", "model.regime_flags", "BeamParams.plane"} <= checked


def test_sweep_covers_all_run_blocks(tmp_path):
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run:\n"
        "  - {scheme: position, theta: 1urad, z: [1z_R, 2z_R]}\n"
        "  - {scheme: polarization, theta: [0.5urad, 1urad]}\n"
        "  - {scheme: joint, theta: 1urad, z: 2z_R}\n",
    )
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [r["scheme"] for r in rows] == ["position", "position", "polarization", "polarization", "joint"]
    assert rows[2]["z_m"] == ""  # no detector plane for the integrated measurement
    joint = rows[4]
    assert float(joint["oracle_fisher"]) == pytest.approx(float(joint["analytic_fisher"]), rel=1e-4)
    # sidecar reproduces the config
    meta = json.loads((out / "sweep.meta.json").read_text())
    assert meta["config"].startswith("beam:")
    assert meta["outputs"] == ["sweep.csv"]


def test_joint_rows_at_nanoradian_tilts_converge(tmp_path):
    # at a dark fringe p_minus is tiny; taken as a difference (base - cross) it keeps
    # no digits, the oracle's step-halving check fails there and the row exits 3
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run:\n"
        "  - {scheme: joint, theta: 1nrad, z: [0, 1z_R, 5z_R]}\n"
        "  - {scheme: joint, theta: 5nrad, z: 0}\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    rows = read_rows(tmp_path / "s" / "sweep.csv")
    assert len(rows) == 4
    for row in rows:
        assert float(row["oracle_fisher"]) == pytest.approx(float(row["analytic_fisher"]), rel=1e-4)


@pytest.mark.parametrize(
    "beam, z_r",
    [
        ("wavelength: 633nm, w0: 1e-150m", None),
        ("wavelength: 633nm, z_R: 1e300m", "1e+300"),
        ("wavelength: 1e-150m, w0: 1mm", "3.141592653589793e+144"),
    ],
    ids=["tiny-w0", "huge-z_R", "tiny-wavelength"],
)
def test_position_rows_stay_finite_at_extreme_lengths(tmp_path, capsys, beam, z_r):
    # z_R = 5e-294 m, 1e300 m and 3e144 m: z^2 and z_R^2 under- or overflow unless the
    # planes enter as ratios.  The oracle's step is scaled to the beam, so it agrees
    # with the closed form (it read 0 with a step of 1e-9 rad), or, where the beam
    # moves 4e147 or 6e141 widths at 1 urad and no step resolves its density, the
    # row exits 3 instead of a row with oracle 0
    cfg = write_config(
        tmp_path,
        f"beam: {{{beam}}}\n"
        "run: {scheme: position, theta: 1urad, z: [0, 1z_R, 10z_R]}\n",
    )
    code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")])
    if z_r is not None:
        assert code == 3
        assert capsys.readouterr().err.startswith(
            f"numerical failure: run[0] row 1 (position, theta=1e-06 rad, z={z_r} m): "
            "density not resolved: it integrates to 0.000000e+00"
        )
        return
    assert code == 0
    rows = read_rows(tmp_path / "s" / "sweep.csv")
    ratios = [float(row["ratio_to_qfi"]) for row in rows]
    assert ratios == pytest.approx([0.0, 0.5, 100.0 / 101.0], rel=1e-12)
    for row in rows:
        analytic, oracle = float(row["analytic_fisher"]), float(row["oracle_fisher"])
        assert abs(oracle - analytic) <= 1e-6 * max(analytic, 1e-6 * float(row["qfi"]))


def test_joint_rows_stay_finite_at_a_tiny_wavelength(tmp_path):
    # k = 6e150 /m and z_R = 3e144 m: 4 k z_R^2 x overflows in the interference
    # rates unless z and z_R are scaled first.  The guard is 1.1e-149 rad; far
    # inside it the joint measurement saturates the quantum bound
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 1e-150m, w0: 1mm}\n"
        "run: {scheme: joint, theta: 1e-160, z: [0, 1z_R]}\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    rows = read_rows(tmp_path / "s" / "sweep.csv")
    assert len(rows) == 2
    for row in rows:
        assert math.isfinite(float(row["analytic_fisher"]))
        assert float(row["ratio_to_qfi"]) == pytest.approx(1.0, rel=1e-9)


ABSURD_BEAM = "wavelength: 633nm, z_R: 1m, xi: -1mm"


@pytest.mark.parametrize(
    "beam, run",
    [
        # k w0 |theta| = 1.2e217: the joint row printed numpy's overflow and invalid-value
        # warnings, then exited 3; the position row an overflow, then "density not resolved"
        (ABSURD_BEAM, "scheme: joint, theta: -2.698193939762969e+219urad, z: 0.1z_R"),
        (ABSURD_BEAM, "scheme: position, theta: -2.698193939762969e+219urad, z: 0.1z_R"),
        # the joint scheme's rates per radian, 4 k w0 (k w0 |theta| + 10) + 4 k |xi|,
        # overflowed when squared: at k w0 = 6.3e147 from 1e-140 rad on, where a position
        # row is still finite, and at k w0 = 3.1e153 already at theta = 0, where the beam
        # is the cause
        ("wavelength: 1e-150m, w0: 1mm", "scheme: joint, theta: 1e-140, z: 1z_R"),
        ("wavelength: 2e-153m, w0: 1m", "scheme: joint, theta: [0, 1e-160], z: [0, 1z_R]"),
    ],
    ids=["joint", "position", "joint-rates", "joint-rates-at-0"],
)
def test_tilt_past_the_models_exits_2_without_runtime_warnings(tmp_path, capsys, beam, run):
    cfg = write_config(tmp_path, f"beam: {{{beam}}}\nrun: {{{run}}}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    field = "beam" if "[0," in run else "run[0].theta"
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not (tmp_path / "s").exists()


def test_montecarlo_spread_beyond_the_float_range_exits_2(tmp_path, capsys):
    # found by tests/test_config_fuzz.py: at z = 2.2e-161 m the position scheme's F is
    # 3.3e-315, the estimates spread over +-10 sigma = 2e157 rad, and np.var overflowed
    # (a RuntimeWarning), writing an exit-0 row of inf variances and a nan ratio
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 7358.987441198978nm, z_R: 1.0m}\n"
        "run: {scheme: position, theta: 0.04010242470254117urad, z: 2.1997213522687156e-161m}\n"
        "montecarlo: {theta: -488.124280600798urad, nu: 72, trials: 3, seed: 332}\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: run[0]: the variance of 3 estimates over [-2.050e+157, 2.050e+157] rad"
    )


def test_small_angle_warnings_only_on_polarization_rows(tmp_path):
    # at 1 mrad both polarization regime flags fire; the deflection schemes
    # have no such regime and their rows stay clean
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run:\n"
        "  - {scheme: quadrant, theta: 1mrad, z: 1z_R}\n"
        "  - {scheme: position, theta: 1mrad, z: 1z_R}\n"
        "  - {scheme: polarization, theta: 1mrad}\n",
    )
    out = tmp_path / "warn"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    quadrant, position, polarization = read_rows(out / "sweep.csv")
    assert quadrant["warnings"] == ""
    assert position["warnings"] == ""
    assert "dephasing argument" in polarization["warnings"]
    assert "displacement phase" in polarization["warnings"]


def test_stationary_warning_follows_the_oracle_step(tmp_path):
    # xi = 0: the polarization statistics are even in theta, and a row carries the
    # stationary-point note exactly where the oracle's stencil theta -+ h straddles 0
    beam = BeamParams.from_wavelength(633e-9, 1e-3, 0.0)
    step = default_step(0.0, PolarizationModel(beam, PolarizationState.diagonal()).qfi())
    thetas = [-1.001 * step, -0.999 * step, 0.999 * step, 1.001 * step]
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm}\n"
        f"run: {{scheme: polarization, theta: [{', '.join(map(repr, thetas))}]}}\n",
    )
    out = tmp_path / "stationary"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [float(row["theta_rad"]) for row in rows] == thetas
    assert ["stationary point" in row["warnings"] for row in rows] == [False, True, True, False]


def test_joint_scheme_requires_diagonal_polarization(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm}\n"
        "polarization: horizontal\n"
        "run: {scheme: joint, theta: 1urad, z: 1z_R}\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "diagonal" in capsys.readouterr().err


def test_montecarlo_saturation_table(tmp_path):
    cfg = write_config(tmp_path, MC_CONFIG)
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "montecarlo.csv")
    assert [r["scheme"] for r in rows] == ["position", "quadrant", "polarization"]
    # plumbing check only; the tight band is asserted at 200 trials in the
    # acceptance suite, where the variance-of-variance spread is smaller
    for row in rows:
        assert 0.5 < float(row["ratio"]) < 2.0
        assert int(row["non_interior"]) <= 0.05 * int(row["trials"])
    meta = json.loads((out / "montecarlo.meta.json").read_text())
    assert meta["seed"] == 424242


def test_montecarlo_identical_bytes_on_rerun(tmp_path):
    cfg = write_config(tmp_path, MC_CONFIG)
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["montecarlo", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["montecarlo", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "montecarlo.csv").read_bytes() == (out2 / "montecarlo.csv").read_bytes()


def test_montecarlo_nu_one_smoke(tmp_path):
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run: {scheme: position, theta: 1urad, z: 1z_R}\n"
        "montecarlo: {theta: 1urad, nu: 1, trials: 5, seed: 3}\n",
    )
    out = tmp_path / "nu1"
    assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 0
    row = read_rows(out / "montecarlo.csv")[0]
    assert row["nu"] == "1"  # degenerate statistics still reported


def test_montecarlo_boundary_pileup_fails_run(tmp_path, capsys):
    # nu*P- ~ 1 for the dark port: a large fraction of trials peak at the
    # interval boundary, which must fail the statistical check
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run: {scheme: polarization, theta: 1urad}\n"
        "montecarlo: {theta: 1urad, nu: 2000, trials: 40, seed: 31}\n",
    )
    out = tmp_path / "bad"
    assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 4
    assert "boundary" in capsys.readouterr().err
    # the table is still written for diagnosis
    assert (out / "montecarlo.csv").exists()


def test_figure3_flat_and_monotone_curves(tmp_path):
    out = tmp_path / "f3"
    assert main(["figure3", "--out", str(out)]) == 0
    rows = read_rows(out / "figure3b.csv")
    flat = np.array([float(r["cond_fisher_over_k2_x_1mm"]) for r in rows])
    # the x = xi curve is z-independent
    assert np.max(np.abs(flat - flat[0])) <= 1e-9 * flat[0]
    rising = np.array([float(r["cond_fisher_over_k2_x_0mm"]) for r in rows])
    assert np.all(np.diff(rising) >= -1e-15)
    assert rising[0] == 0.0
    # panel (a): the displaced-beam curve sits above the centered one by 16 xi^2 z^2/(z^2+zR^2)
    rows_a = read_rows(out / "figure3a.csv")
    xi0 = np.array([float(r["cond_fisher_over_k2_xi_0mm"]) for r in rows_a])
    xi1 = np.array([float(r["cond_fisher_over_k2_xi_1mm"]) for r in rows_a])
    assert np.all(xi1 >= xi0)
    for name in ("figure3a.svg", "figure3b.svg"):
        assert (out / name).exists()


def test_figure4_shapes(tmp_path):
    out = tmp_path / "f4"
    assert main(["figure4", "--out", str(out)]) == 0
    rows = read_rows(out / "figure4a.csv")
    x = np.array([float(r["x_m"]) for r in rows])
    scaled = np.array([float(r["p_cond_fisher_over_k2_z_0"]) for r in rows])
    mid = len(x) // 2
    assert x[mid] == pytest.approx(0.0, abs=1e-12)
    # information density vanishes on axis and peaks off-center, symmetrically
    assert scaled[mid] == pytest.approx(0.0, abs=1e-12)
    assert np.argmax(scaled) != mid
    assert scaled == pytest.approx(scaled[::-1], rel=1e-9, abs=1e-20)
    # density panels hold normalized probability densities
    dens_rows = read_rows(out / "figure4b.csv")
    xd = np.array([float(r["x_m"]) for r in dens_rows])
    for column in ("p_density_z_0", "p_density_z_5zR"):
        dens = np.array([float(r[column]) for r in dens_rows])
        assert trapezoid(dens, xd) == pytest.approx(1.0, abs=1e-6)
    for name in ("figure4a.svg", "figure4b.svg", "figure4c.svg", "figure4d.svg"):
        assert (out / name).exists()


def test_figure3a_is_the_scalar_fisher_conditioned(tmp_path):
    assert main(["figure3", "--out", str(tmp_path)]) == 0
    beams = {
        name: BeamParams.from_rayleigh_range(1.0, 633e-9, xi)
        for name, xi in (("0mm", 0.0), ("1mm", 1e-3))
    }
    z = 5.0 * beams["0mm"].rayleigh_range
    for row in read_rows(tmp_path / "figure3a.csv"):
        x = float(row["x_m"])
        for name, beam in beams.items():
            expected = fisher_conditioned(beam, z, x, 0.0) / beam.k ** 2
            assert float(row[f"cond_fisher_over_k2_xi_{name}"]) == expected


def test_figure4_matches_the_numpy_evaluation(tmp_path):
    # the figure evaluates its grid point by point with math.exp; numpy's exp
    # rounds differently on a few percent of arguments
    assert main(["figure4", "--out", str(tmp_path)]) == 0
    panels = (("a", 0.0, True), ("b", 0.0, False), ("c", 1e-3, True), ("d", 1e-3, False))
    for name, xi, scaled in panels:
        beam = BeamParams.from_rayleigh_range(1.0, 633e-9, xi)
        table = np.loadtxt(tmp_path / f"figure4{name}.csv", delimiter=",", skiprows=1)
        w_far = beam.width(5.0 * beam.rayleigh_range)
        x = np.linspace(xi - 5.0 * w_far, xi + 5.0 * w_far, 2001)
        assert table[:, 0].tobytes() == x.tobytes()
        for column, z in zip(table[:, 1:].T, (0.0, 5.0 * beam.rayleigh_range)):
            expected = intensity_profile(beam, 0.0, z, x)
            if scaled:
                expected = expected * fisher_conditioned(beam, z, x, 0.0) / beam.k ** 2
            np.testing.assert_array_max_ulp(column, expected, maxulp=4)


def test_quadrant_split_option(tmp_path, capsys):
    # the quadrant detector splits at the beam center x = xi: a split line is an unknown key
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run: {scheme: quadrant, theta: 1urad, z: 1z_R, split: 0.9mm}\n",
    )
    out = tmp_path / "split"
    for argv in (["validate-config"], ["sweep", "--out", str(out)]):
        assert main([*argv, "--config", cfg]) == 2
        assert "config error: run[0]: unknown keys ['split']" in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    from tiltsense.oracle import OracleError

    def broken(model, theta, step=None):
        raise OracleError("synthetic non-convergence")

    monkeypatch.setattr("tiltsense.cli.numeric_fisher_oracle", broken)
    cfg = write_config(
        tmp_path, "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: position, theta: 0, z: 1z_R}\n"
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_commands_bind_only_package_exports():
    import tiltsense
    from tiltsense import cli

    assert {*cli._TABLE_NAMES, *cli._MONTECARLO_NAMES, *cli._FIGURE_NAMES} <= set(tiltsense.__all__)
    with pytest.raises(AttributeError, match=r"'tiltsense\.cli' has no attribute 'no_such_name'"):
        getattr(cli, "no_such_name")


def test_shipped_sample_configs_validate():
    root = Path(__file__).resolve().parent.parent
    for name in ("scenario.sample.yaml", "montecarlo.sample.yaml"):
        assert main(["validate-config", "--config", str(root / name)]) == 0


def test_console_entry_point_runs(tmp_path, monkeypatch):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def entry(*argv, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "tiltsense", *argv], capture_output=True, text=True, cwd=cwd, env=env,
        )

    result = entry("--version")
    assert result.returncode == 0
    assert "tiltsense" in result.stdout

    # the entry writes the bytes cli.main writes in-process, argv and all
    argv = ("sweep", "--config", "scenario.yaml", "--out", "out")
    process, in_process = tmp_path / "process", tmp_path / "in_process"
    for directory in (process, in_process):
        directory.mkdir()
        write_config(directory, BASE_CONFIG)
    assert entry(*argv, cwd=process).returncode == 0
    monkeypatch.chdir(in_process)
    assert main(list(argv)) == 0
    written = sorted(path.name for path in (process / "out").iterdir())
    assert written == ["sweep.csv", "sweep.meta.json"]
    assert written == sorted(path.name for path in (in_process / "out").iterdir())
    for name in written:
        assert (process / "out" / name).read_bytes() == (in_process / "out" / name).read_bytes()

    # and cli.main leaves the caller's collector as it found it
    assert gc.isenabled() and gc.get_freeze_count() == 0

    write_config(process, "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: position, theta: 0, z: []}\n")
    result = entry("validate-config", "--config", "scenario.yaml", cwd=process)
    assert result.returncode == 2
    assert "config error" in result.stderr and "run[0].z" in result.stderr


def test_non_finite_theta_exits_2_naming_the_field(tmp_path, capsys):
    # 1e999 overflows to inf; YAML 1.1's .nan is no number of the fields' grammar
    for value, why in (("1e999", "must be finite"), (".nan", "cannot parse quantity '.nan'")):
        sweep = write_config(
            tmp_path,
            "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
            f"run: {{scheme: position, theta: {value}, z: 1z_R}}\n",
        )
        assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "s")]) == 2
        assert f"run[0].theta: {why}" in capsys.readouterr().err
        mc = write_config(tmp_path, MC_CONFIG.replace("theta: 1urad, nu", f"theta: {value}, nu"), "mc.yaml")
        assert main(["montecarlo", "--config", mc, "--out", str(tmp_path / "m")]) == 2
        assert f"montecarlo.theta: {why}" in capsys.readouterr().err


def test_seed_out_of_range_exits_2(tmp_path, capsys):
    for seed in ("-1", str(2 ** 64)):
        bad = write_config(tmp_path, MC_CONFIG.replace("seed: 424242", f"seed: {seed}"), "bad.yaml")
        assert main(["montecarlo", "--config", bad, "--out", str(tmp_path / "c")]) == 2
        assert "montecarlo.seed: must be in [0, 18446744073709551616)" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_fractional_nu_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, MC_CONFIG.replace("nu: 10000", "nu: 2.7"))
    assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert "montecarlo.nu: expected a whole number" in capsys.readouterr().err


LONG = '"' + "1" * 4301 + '"'  # quoted digits, one past Python's limit for converting them


@pytest.mark.parametrize(
    "command, change, field",
    [
        ("validate-config", ("nu: 10000", f"nu: {LONG}"), "montecarlo.nu"),
        ("montecarlo", ("trials: 60", f"trials: {LONG}"), "montecarlo.trials"),
        ("montecarlo", ("seed: 424242", f"seed: {LONG}"), "montecarlo.seed"),
        ("sweep", ("theta: 1urad, z", f"theta: {{start: 0, stop: 1urad, count: {LONG}}}, z"), "run[0].theta.count"),
    ],
    ids=["nu", "trials", "seed", "count"],
)
def test_whole_numbers_past_the_digit_limit_exit_2(tmp_path, capsys, command, change, field):
    cfg = write_config(tmp_path, MC_CONFIG.replace(*change, 1))
    out = [] if command == "validate-config" else ["--out", str(tmp_path / "o")]
    assert main([command, "--config", cfg, *out]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: a whole number of 4301 characters")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["sweep", "montecarlo", "figure3", "figure4"])
def test_out_that_is_not_a_directory_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, MC_CONFIG.replace("trials: 60", "trials: 2"))
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    for out in (blocker, blocker / "sub"):  # an existing file, and a path under it
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: --out: [Errno ")
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "scenario.yaml"]


def test_photon_count_above_nu_limit_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, MC_CONFIG.replace("nu: 10000", "nu: 100000000000000000000"))
    for command in (["validate-config"], ["montecarlo", "--out", str(tmp_path / "m")]):
        assert main([*command, "--config", cfg]) == 2
        assert "montecarlo.nu: 100000000000000000000 photons per trial exceed" in (
            capsys.readouterr().err
        )
    assert not (tmp_path / "m").exists()


def test_a_block_too_large_for_memory_exits_2(tmp_path, monkeypatch, capsys):
    # a joint trial peaks at about 52 bytes a photon, so that a count under NU_LIMIT may not fit
    from tiltsense import PositionPolarizationModel

    def no_memory(self, theta, nu, rng):
        raise MemoryError

    monkeypatch.setattr(PositionPolarizationModel, "sample", no_memory)
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm}\n"
        "run: [{scheme: position, theta: 1urad, z: 1z_R}, {scheme: joint, theta: 1urad, z: 1z_R}]\n"
        "montecarlo: {theta: 1urad, nu: 1000, trials: 2}\n",
    )
    assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err == (
        "config error: run[1] (joint): montecarlo.nu: 1000 photons per trial do not fit in memory\n"
    )
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize(
    "setup",
    [
        "polarization: horizontal\nrun: {scheme: polarization, theta: 1urad}\n",
        "run: {scheme: position, theta: 1urad, z: 0m}\n",
    ],
    ids=["horizontal-polarization", "position-at-z0"],
)
def test_montecarlo_refuses_zero_information(tmp_path, capsys, setup):
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n" + setup
        + "montecarlo: {theta: 1urad, nu: 1000, trials: 5, seed: 1}\n",
    )
    assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
    assert "run[0]: scheme carries no information at this working point" in capsys.readouterr().err


def test_montecarlo_leaves_f_and_the_search_interval_to_run_saturation(tmp_path, monkeypatch):
    import tiltsense.cli as cli

    for name in ("analytic_fisher", "default_search_interval"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("cmd_montecarlo called it"))
    cfg = write_config(tmp_path, MC_CONFIG.replace("trials: 60", "trials: 3"))
    out = tmp_path / "m"
    assert main(["montecarlo", "--config", cfg, "--out", str(out)]) in (0, 4)
    rows = read_rows(out / "montecarlo.csv")
    assert [float(row["analytic_fisher"]) > 0.0 for row in rows] == [True] * 3


def test_montecarlo_search_interval_below_an_ulp_of_theta_exits_2(tmp_path, capsys):
    # 10 Cramer-Rao sigma (3.6e-29 rad) is below half an ulp of theta = 1 urad,
    # so theta +- 10 sigma rounds to the single point theta
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 1e-30m, w0: 1mm}\n"
        "run: {scheme: position, theta: 1urad, z: 1z_R}\n"
        "montecarlo: {theta: 1urad, nu: 1000, trials: 10}\n",
    )
    assert main(["validate-config", "--config", cfg]) == 0
    capsys.readouterr()
    out = tmp_path / "m"
    assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "run[0]: theta_true=1e-06 rad" in err
    assert "at nu=1000) rounds to a search interval of zero width" in err
    assert not out.exists()


def test_montecarlo_all_outcomes_in_one_port_exits_4(tmp_path, capsys):
    # at theta = 0 the diagonal state sends every photon to the + port: P- = 0
    # is not a regular point, so no trial may enter the saturation statistics
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run: {scheme: polarization, theta: 0}\n"
        "montecarlo: {theta: 0, nu: 10000, trials: 10, seed: 5}\n",
    )
    out = tmp_path / "m"
    assert main(["montecarlo", "--config", cfg, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "run[0] (polarization): all outcomes fell in one port in 10/10 trials" in err
    row = read_rows(out / "montecarlo.csv")[0]
    assert (row["used_trials"], row["non_interior"]) == ("0", "10")


def test_montecarlo_evaluates_the_joint_fisher_information_once_per_block(tmp_path, monkeypatch):
    # the search interval, the Cramer-Rao variance and each trial's Fisher-scoring
    # step share one evaluation of the joint quadrature
    from tiltsense import PositionPolarizationModel

    calls = []
    decomposition = PositionPolarizationModel.decomposition
    monkeypatch.setattr(
        PositionPolarizationModel,
        "decomposition",
        lambda self, theta: calls.append(theta) or decomposition(self, theta),
    )
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run: [{scheme: joint, theta: 1urad, z: 1z_R}, {scheme: joint, theta: 1urad, z: 2z_R}]\n"
        "montecarlo: {theta: 1urad, nu: 10000, trials: 3, seed: 3}\n",
    )
    assert main(["montecarlo", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    assert len(calls) == 2


def test_montecarlo_single_trial_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, MC_CONFIG.replace("trials: 60", "trials: 1"))
    for command in (["validate-config"], ["montecarlo", "--out", str(tmp_path / "m")]):
        assert main([*command, "--config", cfg]) == 2
        assert "montecarlo.trials: must be in [2, inf), got 1" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_vanishing_rayleigh_range_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1e-300m, xi: 1mm}\n"
        "run: {scheme: joint, theta: 1urad, z: 1z_R}\n",
    )
    for command in (["validate-config"], ["sweep", "--out", str(tmp_path / "s")]):
        assert main([*command, "--config", cfg]) == 2
        assert "beam.w0: Rayleigh range" in capsys.readouterr().err


def test_overflowing_k_w0_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 1e-200m, w0: 1mm}\n"
        "run: {scheme: polarization, theta: 1urad}\n",
    )
    for command in (["validate-config"], ["sweep", "--out", str(tmp_path / "s")]):
        assert main([*command, "--config", cfg]) == 2
        assert "beam.w0: the quantum bound 16 k^2 (w0^2/4 + xi^2) must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "beam",
    [
        # k w0 = 1e100: every closed form squares it (k = 2 pi/wavelength = 1e200);
        # the id names the beam by its wavenumber
        pytest.param("{wavelength: 6.283185307179586e-200m, w0: 1e-100m}", id="{k: 1e200, w0: 1e-100m}"),
        # k w0 = 9e153: the position closed form and quantum bound are inf (k = 1e150)
        pytest.param("{wavelength: 6.283185307179586e-150m, w0: 9e3m}", id="{k: 1e150, w0: 9e3m}"),
        # k xi = 1e157: the polarization closed form squares it
        "{wavelength: 633nm, w0: 1mm, xi: 1e150m}",
    ],
)
def test_beam_past_the_quantum_bound_exits_2_from_every_command(tmp_path, capsys, beam):
    cfg = write_config(
        tmp_path,
        f"beam: {beam}\n"
        "run:\n"
        "  - {scheme: position, theta: 1urad, z: 1z_R}\n"
        "  - {scheme: quadrant, theta: 1urad, z: 1z_R}\n"
        "  - {scheme: polarization, theta: 1urad}\n"
        "montecarlo: {theta: 1urad, nu: 1000, trials: 10}\n",
    )
    out = ["--out", str(tmp_path / "out")]
    for command in ("validate-config", "sweep", "montecarlo", "figure3", "figure4"):
        argv = [command, "--config", cfg] + ([] if command == "validate-config" else out)
        assert main(argv) == 2, command
        assert "the quantum bound 16 k^2 (w0^2/4 + xi^2) must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["figure3", "figure4"])
def test_figure_beam_past_the_quantum_bound_at_xi_1mm_exits_2(tmp_path, capsys, command):
    # the config's beam (xi = 0) sits just below the bound; the figures' xi = 1 mm beam does not
    # k = 2 pi/wavelength = 3.3e153
    cfg = write_config(tmp_path, "beam: {wavelength: 1.9039955476301777e-153m, w0: 2.0314860499913023m}\n")
    assert main(["validate-config", "--config", cfg]) == 0
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "the figures place the beam at xi=0.001 m" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, message",
    [
        # 4 (k w0)^2 underflows to 0 under a positive 16 k^2 (w0^2/4 + xi^2): the oracle's
        # step and the joint small-angle guard divided by it
        # (k = 2 pi/wavelength = 1e-100, 1.756957470181827e-51 and 8.494125714281019e-128)
        ("sweep", "beam: {wavelength: 6.283185307179586e+100m, w0: 1e-110m, xi: 1m}\n"
         "run: {scheme: position, theta: 1urad, z: 1z_R}\n", "beam.w0: the deflection bound"),
        ("montecarlo", "beam: {wavelength: 3.576173819693735e+51m, w0: 1.4523906791118475e-134m, "
         "xi: 2.0074466422391886e-34m}\nrun: {scheme: joint, theta: 9.39268094759922e-26, z: 1z_R}\n"
         "montecarlo: {theta: 9.39268094759922e-26, nu: 16, trials: 2}\n", "beam.w0: the deflection bound"),
        # 4 k |xi| underflows to 0 with xi != 0, where the small-angle guard divided by it
        ("montecarlo", "beam: {wavelength: 7.397094790598379e+127m, w0: 2.624098373972576e-17m, "
         "xi: -1.9146477759761452e-260m}\n"
         "run: {scheme: joint, theta: -2.0802859824546192e-136, z: 1.6231918794284092e+23m}\n"
         "montecarlo: {theta: -2.0802859824546192e-136, nu: 16, trials: 4}\n", None),
        # the waist was solved from a negative Rayleigh range before any sign check
        ("validate-config", "beam: {wavelength: 633nm, z_R: -1m}\n",
         "beam.z_R: Rayleigh range must be positive and finite, got -1.0"),
    ],
    ids=["deflection-bound-sweep", "deflection-bound-montecarlo", "displacement-rate", "negative-z_R"],
)
def test_beams_with_underflowing_bounds_end_cleanly(tmp_path, capsys, command, text, message):
    argv = [command, "--config", write_config(tmp_path, text)]
    code = main(argv if command == "validate-config" else [*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), err
    if message:  # names the beam field
        assert code == 2
        assert err.startswith(f"config error: {message}")


def test_joint_block_needs_the_diagonal_state(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm}\n"
        "polarization: circular\n"
        "run: {scheme: joint, theta: 1urad, z: 1z_R}\n"
        "montecarlo: {theta: 1urad, nu: 1000, trials: 10}\n",
    )
    out = ["--out", str(tmp_path / "out")]
    for argv in (["validate-config"], ["sweep", *out], ["montecarlo", *out]):
        assert main([*argv, "--config", cfg]) == 2
        assert (
            "config error: run[0]: the joint scheme's closed-form analysis needs the diagonal"
            in capsys.readouterr().err
        )


def test_overflowing_polarization_dephasing_gives_a_clean_row(tmp_path):
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 1e-30m, w0: 1mm, xi: 1mm}\n"
        "run: {scheme: polarization, theta: 1urad}\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    row = read_rows(tmp_path / "s" / "sweep.csv")[0]
    assert float(row["analytic_fisher"]) == 0.0
    assert float(row["oracle_fisher"]) == 0.0
    assert math.isinf(float(row["cr_delta_theta_rad"]))


def test_numerical_failure_names_the_row(tmp_path, capsys):
    # 10 km beam offset: at 1 urad the step's floor of 1e-6 |theta| is 4 rad of the
    # phase 4 k xi theta, so the oracle's density derivative cannot converge, while
    # the theta = 0 row converges (at 1 km both rows now do)
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1e4m}\n"
        "run:\n"
        "  - {scheme: position, theta: 1urad, z: 1z_R}\n"
        "  - {scheme: joint, theta: [0, 1urad], z: 1z_R}\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: run[1] row 1 (joint, theta=1e-06 rad, z=" in err
    assert "m): density derivative not converged" in err


@pytest.mark.parametrize(
    "setup, command, message",
    [
        ("", "sweep", "config has no run blocks"),
        (
            "run: {scheme: polarization, theta: 1urad}\n",
            "montecarlo", "config has no montecarlo block",
        ),
        (
            "montecarlo: {theta: 1urad, nu: 100, trials: 5}\n",
            "montecarlo", "config has no run blocks",
        ),
        (
            "run: {scheme: position, theta: 1urad, z: [1z_R, 2z_R]}\n"
            "montecarlo: {theta: 1urad, nu: 100, trials: 5}\n",
            "montecarlo", "run[0]: montecarlo needs a scalar z, got a grid of 2",
        ),
        (
            "run: {scheme: polarization, theta: 1mrad}\n"
            "montecarlo: {theta: 1mrad, nu: 100, trials: 5}\n",
            "montecarlo", "run[0]: theta_true=0.001 outside the small-angle guard",
        ),
    ],
    ids=["sweep-no-runs", "mc-no-montecarlo", "mc-no-runs", "mc-z-grid", "mc-past-guard"],
)
def test_config_missing_what_the_command_needs_exits_2(tmp_path, capsys, setup, command, message):
    cfg = write_config(tmp_path, "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n" + setup)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, beam, message",
    [
        # the offsets of a 4e146 m waist overflow the conditional Fisher 16 k^2 x^2 itself
        ("figure4", "wavelength: 633nm, z_R: 1e300m", "(z_R=1e+300 m)"),
        # the density squares the width at 5 z_R, 2.5e154 m
        ("figure4", "wavelength: 6.283185307179586m, w0: 5e153m", "the figure4a curves are not finite"),
    ],
    ids=["huge-z_R-figure4", "huge-w0-figure4"],
)
def test_figure_beam_without_finite_curves_exits_2(tmp_path, capsys, command, beam, message):
    cfg = write_config(tmp_path, f"beam: {{{beam}}}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: beam" in err and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, beam",
    [
        ("figure3", "wavelength: 1e-150m, w0: 1mm"),
        ("figure4", "wavelength: 1e-150m, w0: 1mm"),
        ("figure3", "wavelength: 633nm, z_R: 1e300m"),
        ("figure3", "wavelength: 633nm, w0: 1e-160m"),
        ("figure4", "wavelength: 633nm, w0: 1e-160m"),
    ],
    ids=[
        "tiny-wavelength-figure3", "tiny-wavelength-figure4", "huge-z_R-figure3",
        "tiny-w0-figure3", "tiny-w0-figure4",
    ],
)
def test_figure_curves_of_extreme_lengths_are_finite(tmp_path, command, beam):
    # k z_R^2 x and z_R^2 overflowed in the interference rates before z and z_R
    # were scaled, and sqrt(2/(pi w0^2)) in the density at w0 = 1e-160 m (z_R =
    # 5e-314 m) before it was taken as sqrt(2/pi)/w; the figures were refused then
    cfg = write_config(tmp_path, f"beam: {{{beam}}}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    tables = sorted((tmp_path / "o").glob("*.csv"))
    assert len(tables) == (2 if command == "figure3" else 4)
    for table in tables:
        assert np.all(np.isfinite(np.loadtxt(table, delimiter=",", skiprows=1)))
    if command == "figure3":
        # at z = 5 z_R, F / k^2 = 16 (x^2 + 25 xi^2) / 26 for any beam
        x, xi_0, xi_1mm = np.loadtxt(tmp_path / "o" / "figure3a.csv", delimiter=",", skiprows=1).T
        assert xi_0 == pytest.approx(16.0 * x * x / 26.0, rel=1e-12, abs=1e-25)
        assert xi_1mm == pytest.approx(16.0 * (x * x + 25e-6) / 26.0, rel=1e-12)


def test_grid_count_above_the_limit_exits_2(tmp_path, capsys):
    # numpy used to be asked for a 7.28 TiB grid here, and the command ended in a traceback
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm}\n"
        "run: {scheme: position, theta: 0, z: {start: 1z_R, stop: 2z_R, count: 1000000000000}}\n",
    )
    for command in (["validate-config"], ["sweep", "--out", str(tmp_path / "s")]):
        assert main([*command, "--config", cfg]) == 2
        assert "run[0].z.count: 1000000000000 points exceed the limit" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_run_block_of_more_points_than_the_limit_exits_2(tmp_path, capsys):
    # each grid is within the limit, but the sweep lists all 1001 x 1000 pairs
    block = (
        "beam: {wavelength: 633nm, w0: 1mm}\n"
        "run:\n"
        "  - {scheme: polarization, theta: 1urad}\n"
        "  - {scheme: position, theta: {start: 0, stop: 1urad, count: %d}, "
        "z: {start: 1z_R, stop: 2z_R, count: 1000}}\n"
    )
    cfg = write_config(tmp_path, block % 1001)
    for command in (["validate-config"], ["sweep", "--out", str(tmp_path / "s")]):
        assert main([*command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "run[1]: 1001 theta x 1000 z points exceed the limit of 1000000 per run block" in err
    assert not (tmp_path / "s").exists()
    assert main(["validate-config", "--config", write_config(tmp_path, block % 1000)]) == 0


def test_lone_grid_point_of_an_overflowing_span_exits_2(tmp_path, capsys):
    # 0 * (stop - start) + start is nan when stop - start overflows; it used to make a nan row
    cfg = write_config(
        tmp_path,
        "beam: {wavelength: 633nm, w0: 1mm}\n"
        "run: {scheme: polarization, theta: {start: -1.5e308, stop: 1.5e308, count: 1}}\n",
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "run[0].theta: stop - start overflows the float range" in capsys.readouterr().err
