"""The composite Gauss-Legendre quadrature engine and the numpy-only import."""

import math
import subprocess
import sys

import numpy as np
import pytest

from tiltsense._integrate import ConvergenceError, integrate_interval
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

    with pytest.raises(ConvergenceError):
        numeric_fisher_oracle(NanDensity(), 0.0)


def test_quadrature_failure_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    # the joint closed form integrates the conditioned information; make it
    # NaN so the real quadrature engine gives up
    monkeypatch.setattr(
        "tiltsense.schemes.fisher_conditioned", lambda beam, z, x, theta: np.full_like(x, np.nan)
    )
    cfg = tmp_path / "joint.yaml"
    cfg.write_text(
        "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"
        "run: {scheme: joint, theta: 1urad, z: 1z_R}\n"
    )
    assert main(["fisher", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "quadrature did not converge" in err


def test_cli_import_does_not_load_scipy():
    code = (
        "import sys, tiltsense.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
