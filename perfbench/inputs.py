"""Seeded inputs for the benchmark workloads.

Every workload is a ``Plan``: one generated YAML config, the tiltsense
commands that run on it, and what the correctness gate expects of their
output.  The same seed gives the same config, and each
workload's item count does not depend on the seed.  Grid points are drawn
one per equal-width stratum, so different seeds spread the work the same
way and run times stay comparable.

All physical values are written in SI as exact Python float literals, so the
gate can compare the program's echoed theta and z against them bit for bit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WAVELENGTH = 6.33e-7  # m
W0 = 1e-3  # m
XI = 1e-3  # m
K = 2.0 * math.pi / WAVELENGTH
RAYLEIGH = K * W0 * W0 / 2.0
# first-order regime of the polarization schemes: (4 k xi theta)^2 < 0.01
# binds before 2 (k w0 theta)^2 < 0.01 for this beam (about 2.5 urad)
GUARD = min(0.1 / (4.0 * K * XI), math.sqrt(0.01 / 2.0) / (K * W0))

# the figure commands build their beam from the config's k and w0; this one
# matches their built-in default (633 nm, z_R = 1 m), so the figure tables do
# not depend on the seed and can be checked against a stored reference
FIGURE_BEAM = "beam: {wavelength: 6.33e-07, z_R: 1.0, xi: 0.001}"
FIGURE_TABLES = {
    "figure3a.csv": 601, "figure3b.csv": 501,
    "figure4a.csv": 2001, "figure4b.csv": 2001, "figure4c.csv": 2001, "figure4d.csv": 2001,
}

MC_THETA = 1.5e-6  # rad; see README.md for why not 1 urad
MC_NU = 10_000
MC_SCHEMES = ("position", "quadrant", "polarization", "joint")


@dataclass
class Plan:
    workload: str
    config: str
    # tiltsense argv templates; {config} and {out} are filled in per run
    commands: list
    # arguments of the workload's check in gate.py after the output directory
    expect: tuple = ()


def _strata(rng, n, lo, hi):
    """n increasing values, one uniform draw in each of n equal parts of [lo, hi]."""
    width = (hi - lo) / n
    return [lo + width * (i + rng.random()) for i in range(n)]


def _beam_line():
    return f"beam: {{wavelength: {WAVELENGTH!r}, w0: {W0!r}, xi: {XI!r}}}"


def _flow_list(values):
    return "[" + ", ".join(repr(v) for v in values) + "]"


def sweep_plan(seed, tiny=False):
    """Joint rows at seeded (theta, z) inside the small-angle guard, plus
    position, quadrant and polarization blocks."""
    rng = random.Random(f"sweep-fisher:{seed}")
    # about 3.5 s per pass, so that a 30 s run holds six or more passes: the
    # median over passes is far steadier than one long pass on a shared host.
    # A joint row's cost grows with |theta|, so the joint rows are spread over
    # many theta strata, each with a few z, to keep the cost per seed level
    joint_blocks, joint_rows, per_block = (1, 2, 2) if tiny else (10, 4, 10)
    position_blocks, quadrant_blocks, polarization_rows = (1, 1, 3) if tiny else (1, 2, 10)
    z_lo, z_hi = 0.5 * RAYLEIGH, 10.0 * RAYLEIGH
    theta_lo, theta_hi = 0.02 * GUARD, 0.95 * GUARD

    blocks = []
    for magnitude in _strata(rng, joint_blocks, theta_lo, theta_hi):
        theta = magnitude if rng.random() < 0.5 else -magnitude
        blocks.append(("joint", [theta], _strata(rng, joint_rows, z_lo, z_hi)))
    for _ in range(position_blocks):
        theta = rng.uniform(-2.0 * GUARD, 2.0 * GUARD)
        blocks.append(("position", [theta], _strata(rng, per_block, z_lo, z_hi)))
    for theta in _strata(rng, quadrant_blocks, -2.0 * GUARD, 2.0 * GUARD):
        blocks.append(("quadrant", [theta], _strata(rng, per_block, z_lo, z_hi)))
    thetas = sorted(
        m if rng.random() < 0.5 else -m
        for m in _strata(rng, polarization_rows, theta_lo, theta_hi)
    )
    blocks.append(("polarization", thetas, None))

    lines = [_beam_line(), "polarization: diagonal", "run:"]
    expect = []
    for scheme, thetas, zs in blocks:
        theta_text = _flow_list(thetas) if len(thetas) > 1 else repr(thetas[0])
        z_text = f", z: {_flow_list(zs)}" if zs is not None else ""
        lines.append(f"  - {{scheme: {scheme}, theta: {theta_text}{z_text}}}")
        expect.extend((scheme, t, z) for t in thetas for z in (zs or [None]))
    return Plan(
        workload="sweep-fisher",
        config="\n".join(lines) + "\n",
        commands=[["sweep", "--config", "{config}", "--out", "{out}", "--threads", "1"]],
        expect=(expect,),
    )


def montecarlo_plan(seed, tiny=False):
    """All four schemes at z = z_R, theta = 1.5 urad, nu = 1e4, seeded master seed."""
    rng = random.Random(f"montecarlo-mle:{seed}")
    trials = 4 if tiny else 30
    lines = [_beam_line(), "polarization: diagonal", "run:"]
    for scheme in MC_SCHEMES:
        z_text = ", z: 1z_R" if scheme != "polarization" else ""
        lines.append(f"  - {{scheme: {scheme}, theta: {MC_THETA!r}{z_text}}}")
    lines.append(
        f"montecarlo: {{theta: {MC_THETA!r}, nu: {MC_NU}, trials: {trials}, "
        f"seed: {rng.randrange(1, 2 ** 31)}}}"
    )
    return Plan(
        workload="montecarlo-mle",
        config="\n".join(lines) + "\n",
        commands=[["montecarlo", "--config", "{config}", "--out", "{out}", "--threads", "1"]],
        expect=(trials, MC_SCHEMES),
    )


def figures_plan(seed, tiny=False):
    """validate-config, figure3 and figure4 on a config with seeded run blocks.

    The figure tables have a fixed size, so ``tiny`` changes nothing here.
    """
    rng = random.Random(f"coldstart-figures:{seed}")
    lines = [FIGURE_BEAM, "polarization: diagonal", "run:"]
    for scheme in ("quadrant", "joint", "position"):
        count = rng.randint(5, 50)
        stop = rng.uniform(2.0, 10.0)
        lines.append(
            f"  - {{scheme: {scheme}, theta: {rng.uniform(0.1e-6, 2e-6)!r}, "
            f"z: {{start: 0.5z_R, stop: {stop!r}z_R, count: {count}}}}}"
        )
    thetas = sorted(rng.uniform(0.1e-6, 2e-6) for _ in range(5))
    lines.append(f"  - {{scheme: polarization, theta: {_flow_list(thetas)}}}")
    nu = rng.randint(1000, 20000)
    lines.append(
        f"montecarlo: {{theta: 1urad, nu: {nu}, trials: 200, seed: {rng.randrange(2 ** 31)}}}"
    )
    return Plan(
        workload="coldstart-figures",
        config="\n".join(lines) + "\n",
        commands=[
            ["validate-config", "--config", "{config}"],
            ["figure3", "--config", "{config}", "--out", "{out}", "--threads", "1"],
            ["figure4", "--config", "{config}", "--out", "{out}", "--threads", "1"],
        ],
        expect=(FIGURE_TABLES,),
    )


PLANS = {
    "sweep-fisher": sweep_plan,
    "montecarlo-mle": montecarlo_plan,
    "coldstart-figures": figures_plan,
}
WORKLOADS = tuple(PLANS)


def make_plan(workload, seed, tiny=False):
    return PLANS[workload](seed, tiny)
