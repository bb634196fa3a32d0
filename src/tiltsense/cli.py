"""Command-line front end: Fisher tables, figure data, Monte Carlo runs.

Subcommands: sweep, figure3, figure4, montecarlo, validate-config.
Exit codes: 0 success, 2 configuration error, 3 numerical-convergence
failure, 4 statistical-check failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

from . import __version__
from .config import GRID_LIMIT, ConfigError, ScenarioConfig, linspace, load_config
# no command writes JSON tables; write_json is kept while perfbench's tracer wraps it (ROADMAP item 4)
from .output import write_csv, write_json, write_sidecar

_MODELS = ("PolarizationModel", "PositionModel", "PositionPolarizationModel", "QuadrantModel")
# The names each command takes from the other layers.  A command binds its
# names into this module's globals before it starts (``_bind``), each from the
# package's lazy exports, so that it imports only its own layers; attribute
# access from outside (``cli.LineChart``) binds a name the same way.
_TABLE_NAMES = (
    *_MODELS, "analytic_fisher", "cramer_rao_bound", "qfi_for_model",
    "numeric_fisher_oracle", "OracleError", "ConvergenceError",
)
# no command reads default_search_interval; kept while perfbench's tracer wraps it (ROADMAP item 4)
_MONTECARLO_NAMES = (*_MODELS, "default_search_interval", "run_saturation", "ConvergenceError")
_FIGURE_NAMES = ("BeamParams", "intensity_profile", "fisher_conditioned", "LineChart")


def _bind(names):
    """Bind each of ``names`` that is not yet bound here to the package's export.

    A bound name is kept, so a replacement set from outside stays in force.
    """
    scope = globals()
    package = sys.modules[__package__]
    for name in names:
        if name not in scope:
            scope[name] = getattr(package, name)


def __getattr__(name):
    if name not in _TABLE_NAMES + _MONTECARLO_NAMES + _FIGURE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((name,))
    return globals()[name]


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_STATS = 4

FISHER_HEADER = (
    "run", "index", "scheme", "theta_rad", "z_m",
    "analytic_fisher", "oracle_fisher", "qfi", "ratio_to_qfi",
    "cr_delta_theta_rad", "warnings",
)

MC_HEADER = (
    "index", "scheme", "theta_true_rad", "z_m", "nu", "trials", "used_trials",
    "non_interior", "empirical_variance_rad2", "cr_variance_rad2", "ratio",
    "analytic_fisher",
)


class StatisticalCheckError(RuntimeError):
    pass


class NumericalFailure(RuntimeError):
    """The oracle or a quadrature failed; the message names the run block (and row)."""


def build_model(scheme: str, config: ScenarioConfig, z):
    beam, pol = config.beam, config.polarization
    if scheme == "position":
        return PositionModel(beam, z)
    if scheme == "quadrant":
        return QuadrantModel(beam, z)
    if scheme == "polarization":
        return PolarizationModel(beam, pol)
    return PositionPolarizationModel(beam, pol, z)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _run_block_rows(config, blocks, nu):
    """One Fisher row per (theta, z) point of the run blocks of one scheme, from one model.

    ``blocks`` holds (run index, block) pairs of that scheme, in config order.
    The model holds every point of them as one row, a (theta, z) pair (a
    polarization row has no z), so the closed forms and the oracle take them
    all in one call each.  The rows come back in config and grid order; a
    failure names the failing row with that row's own message.
    """
    import numpy as np

    from .oracle import default_step

    scheme = blocks[0][1].scheme
    planeless = blocks[0][1].z is None
    # per block, its run index, thetas and planes: its grid is their product, theta-major
    grids = [
        (run_index, block.theta.tolist(), [""] if planeless else block.z.tolist())
        for run_index, block in blocks
    ]
    column = np.reshape([theta for _, thetas, zs in grids for theta in thetas for _ in zs], (-1, 1))
    planes = None if planeless else np.reshape(
        [z for _, thetas, zs in grids for _ in thetas for z in zs], (-1, 1)
    )
    model = build_model(scheme, config, planes)
    qfi = qfi_for_model(model)
    step = default_step(column, qfi)
    try:
        analytic = np.ravel(analytic_fisher(model, column)).tolist()
        oracle = np.ravel(numeric_fisher_oracle(model, column, step)).tolist()
    except (OracleError, ConvergenceError) as exc:
        index = exc.plane
        for run_index, thetas, zs in grids:
            if index < len(thetas) * len(zs):
                break
            index -= len(thetas) * len(zs)
        theta, z = thetas[index // len(zs)], zs[index % len(zs)]
        at = f"theta={theta!r} rad" + ("" if planeless else f", z={z!r} m")
        message = f"run[{run_index}] row {index} ({scheme}, {at}): {exc.reason}"
        raise NumericalFailure(message) from exc
    # zip takes its iterables in turn, so each block's grid takes only its own rows of values
    values = zip(analytic, oracle, model.regime_flags(column, step))
    return [
        (run_index, index, scheme, theta, z, value, oracle_value, qfi,
         value / qfi if qfi > 0.0 else math.nan, cramer_rao_bound(value, nu), "; ".join(flags))
        for run_index, thetas, zs in grids
        for index, ((theta, z), (value, oracle_value, flags))
        in enumerate(zip(itertools.product(thetas, zs), values))
    ]


def _batches(runs):
    """The run blocks of each scheme as lists of (run index, block), in config order.

    A list holds at most GRID_LIMIT rows, as many as one block may hold: a
    model's memory grows with its rows, and this keeps it within that of the
    largest block a config may give.
    """
    batches, open_ = [], {}  # open_: per scheme, its last list and that list's rows
    for run_index, block in enumerate(runs):
        size = len(block.theta) * (1 if block.z is None else len(block.z))
        batch, rows = open_.get(block.scheme, (None, GRID_LIMIT))
        if rows + size > GRID_LIMIT:
            batch, rows = [], 0
            batches.append(batch)
        batch.append((run_index, block))
        open_[block.scheme] = batch, rows + size
    return batches


def _out_dir(args) -> Path:
    """Create the output directory; called where writing starts, so a failed run leaves none."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}")
    return out


def _emit_table(args, name, header, rows, config_text, seed=None):
    out = _out_dir(args)
    table = out / f"{name}.csv"
    write_csv(table, header, rows)
    write_sidecar(
        out / f"{name}.meta.json",
        command=name,
        argv=args.raw_argv,
        version=__version__,
        seed=seed,
        config_text=config_text,
        outputs=[table.name],
    )
    return table


def cmd_sweep(args) -> int:
    """One Fisher row per grid point of every run block."""
    _bind(_TABLE_NAMES)
    config = load_config(args.config)
    if not config.runs:
        raise ConfigError("config has no run blocks")
    nu = config.montecarlo.nu if config.montecarlo else 1
    rows = [row for blocks in _batches(config.runs) for row in _run_block_rows(config, blocks, nu)]
    rows.sort(key=lambda row: row[0])  # stable: the rows of a block stay in grid order
    table = _emit_table(args, "sweep", FISHER_HEADER, rows, config.raw_text)
    print(f"wrote {table} ({len(rows)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def cmd_montecarlo(args) -> int:
    _bind(_MONTECARLO_NAMES)
    config = load_config(args.config)
    if config.montecarlo is None:
        raise ConfigError("config has no montecarlo block")
    if not config.runs:
        raise ConfigError("config has no run blocks")
    mc = config.montecarlo
    rows = []
    failures = []
    for index, block in enumerate(config.runs):
        z = None
        if block.z is not None:
            if len(block.z) != 1:
                raise ConfigError(
                    f"run[{index}]: montecarlo needs a scalar z, got a grid of {len(block.z)}"
                )
            z = float(block.z[0])
        model = build_model(block.scheme, config, z)
        try:
            report = run_saturation(model, mc.theta, mc.nu, mc.trials, mc.seed, scheme=block.scheme)
        except ConvergenceError as exc:
            raise NumericalFailure(f"run[{index}] ({block.scheme}): {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"run[{index}]: {exc}")
        except MemoryError:  # nothing is written before every block has run
            raise ConfigError(f"run[{index}] ({block.scheme}): montecarlo.nu: {mc.nu} photons "
                              "per trial do not fit in memory")
        rows.append(
            (
                index,
                block.scheme,
                mc.theta,
                z if z is not None else "",
                mc.nu,
                report.trials,
                report.used_trials,
                report.non_interior,
                report.empirical_variance,
                report.cr_variance,
                report.ratio,
                report.information,
            )
        )
        if report.non_interior > 0.05 * report.trials:
            causes = []
            if report.at_boundary:
                causes.append(
                    f"{report.at_boundary}/{report.trials} estimates on the search-interval boundary"
                )
            if report.one_port:
                causes.append(
                    f"all outcomes fell in one port in {report.one_port}/{report.trials} trials, "
                    "a non-regular point where the Cramer-Rao bound does not apply"
                )
            failures.append(f"run[{index}] ({block.scheme}): " + " and ".join(causes))

    table = _emit_table(args, "montecarlo", MC_HEADER, rows, config.raw_text, seed=mc.seed)
    print(f"wrote {table} ({len(rows)} rows)")
    if failures:
        raise StatisticalCheckError("; ".join(failures))
    return EXIT_OK


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

FIGURE_WAVELENGTH = 633e-9
FIGURE_RAYLEIGH = 1.0  # m


def _figure_beam(config: ScenarioConfig | None, xi: float) -> BeamParams:
    if config is None:
        return BeamParams.from_rayleigh_range(FIGURE_RAYLEIGH, FIGURE_WAVELENGTH, xi)
    try:
        return BeamParams(k=config.beam.k, w0=config.beam.w0, xi=xi)
    except ValueError as exc:  # the config's beam is valid at its own xi
        raise ConfigError(f"beam: {exc}; the figures place the beam at xi={xi!r} m")


def _write_figure(args, config, command, panels) -> int:
    """Write each panel's CSV and SVG, then the sidecar that lists them.

    A panel is (name, title, x label, y label, header, x, columns, curve labels),
    its x and columns lists of floats.
    """
    for name, *_, columns, _ in panels:
        if not all(all(map(math.isfinite, column)) for column in columns):
            beam = _figure_beam(config, 0.0)
            raise ConfigError(
                f"beam: the {name} curves are not finite for k={beam.k!r} rad/m, "
                f"w0={beam.w0!r} m (z_R={beam.rayleigh_range!r} m); the figures span "
                "10 z_R in z and millimetre offsets in x"
            )
    out = _out_dir(args)
    outputs = []
    for name, title, xlabel, ylabel, header, x, columns, labels in panels:
        write_csv(out / f"{name}.csv", header, list(zip(x, *columns)))
        chart = LineChart(title, xlabel, ylabel)
        for column, label in zip(columns, labels):
            chart.add(x, column, label=label)
        chart.write(out / f"{name}.svg")
        outputs += [f"{name}.csv", f"{name}.svg"]
    write_sidecar(
        out / f"{command}.meta.json",
        command=command,
        argv=args.raw_argv,
        version=__version__,
        config_text=config.raw_text if config else None,
        outputs=outputs,
    )
    print(f"wrote {out}/" + ", ".join(outputs))
    return EXIT_OK


def cmd_figure3(args) -> int:
    _bind(_FIGURE_NAMES)
    config = load_config(args.config) if args.config else None
    zr = _figure_beam(config, 0.0).rayleigh_range
    ylabel = "conditional Fisher / k^2 [m^2]"

    # panel (a): information per detected photon vs x at z = 5 z_R, one column per call
    x = linspace(-3e-3, 3e-3, 601).tolist()
    beams = [_figure_beam(config, xi) for xi in (0.0, 1e-3)]
    columns_a = []
    for beam in beams:
        k2 = beam.k ** 2
        columns_a.append([f / k2 for f in fisher_conditioned(beam, 5.0 * zr, x, 0.0)])

    # panel (b): same quantity vs z at fixed detection points, xi = 1 mm
    beam_b = beams[1]
    z = linspace(0.0, 10.0 * zr, 501).tolist()
    columns_b = [
        [fisher_conditioned(beam_b, zz, xx, 0.0) / beam_b.k ** 2 for zz in z]
        for xx in (0.0, 1e-3, 1.5e-3)
    ]
    return _write_figure(args, config, "figure3", [
        (
            "figure3a", "Information per detected photon vs position (z = 5 z_R)",
            "x [m]", ylabel,
            ("x_m", "cond_fisher_over_k2_xi_0mm", "cond_fisher_over_k2_xi_1mm"),
            x, columns_a, ("xi = 0", "xi = 1 mm"),
        ),
        (
            "figure3b", "Information per detected photon vs detector plane (xi = 1 mm)",
            "z [m]", ylabel,
            ("z_m", "cond_fisher_over_k2_x_0mm", "cond_fisher_over_k2_x_1mm",
             "cond_fisher_over_k2_x_1p5mm"),
            z, columns_b, ("x = 0", "x = 1 mm", "x = 1.5 mm"),
        ),
    ])


def cmd_figure4(args) -> int:
    _bind(_FIGURE_NAMES)
    config = load_config(args.config) if args.config else None
    zr = _figure_beam(config, 0.0).rayleigh_range
    z_values = (0.0, 5.0 * zr)
    panels = []
    # per beam, the scaled panel and the density panel share one x grid and its densities
    for xi, scaled_name, density_name in (
        (0.0, "figure4a", "figure4b"),
        (1e-3, "figure4c", "figure4d"),
    ):
        beam = _figure_beam(config, xi)
        w_far = beam.width(z_values[-1])
        x = linspace(xi - 5.0 * w_far, xi + 5.0 * w_far, 2001).tolist()
        densities = [intensity_profile(beam, 0.0, z, x) for z in z_values]
        k2 = beam.k ** 2
        scaled = [
            [d * f / k2 for d, f in zip(density, fisher_conditioned(beam, z, x, 0.0))]
            for density, z in zip(densities, z_values)
        ]
        labels = ("z = 0", "z = 5 z_R")
        panels.append((
            scaled_name, f"Scaled information per detection (xi = {xi * 1e3:g} mm)",
            "x [m]", "P(x) x conditional Fisher / k^2 [m]",
            ("x_m", "p_cond_fisher_over_k2_z_0", "p_cond_fisher_over_k2_z_5zR"),
            x, scaled, labels,
        ))
        panels.append((
            density_name, f"Detection probability density (xi = {xi * 1e3:g} mm)",
            "x [m]", "P(x) [1/m]", ("x_m", "p_density_z_0", "p_density_z_5zR"),
            x, densities, labels,
        ))
    return _write_figure(args, config, "figure4", panels)


# ---------------------------------------------------------------------------
# validate-config
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    config = load_config(args.config)
    beam = config.beam
    print(f"beam: k={beam.k:.6e} rad/m, w0={beam.w0:.6e} m, xi={beam.xi:.6e} m")
    print(f"      z_R={beam.rayleigh_range:.6e} m, wavelength={beam.wavelength:.6e} m")
    pol = config.polarization
    print(
        f"polarization: <sz>={pol.sigma_z_mean:+.3f}, "
        f"d={pol.coherence_magnitude:.3f}, phi={pol.coherence_phase:+.3f} rad"
    )
    for i, block in enumerate(config.runs):
        z_text = f", z points={len(block.z)}" if block.z is not None else ""
        print(f"run[{i}]: scheme={block.scheme}, theta points={len(block.theta)}{z_text}")
    if config.montecarlo:
        mc = config.montecarlo
        print(
            f"montecarlo: theta={mc.theta:.3e} rad, nu={mc.nu}, "
            f"trials={mc.trials}, seed={mc.seed}"
        )
    print("config ok")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltsense",
        description="Fisher-information analysis of optical tilt-sensing schemes",
    )
    parser.add_argument("--version", action="version", version=f"tiltsense {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, config_required=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--config", required=config_required, default=None, help="scenario YAML file"
        )
        p.add_argument("--out", default=".", help="output directory")
        # read by no command; kept while every perfbench command passes it (ROADMAP item 4)
        p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
        p.set_defaults(func=func)
        return p

    command("sweep", cmd_sweep, "Fisher table for every run block")
    command(
        "figure3", cmd_figure3, "information-per-photon curves (CSV + SVG)",
        config_required=False,
    )
    command(
        "figure4", cmd_figure4, "probability-scaled information curves (CSV + SVG)",
        config_required=False,
    )
    command("montecarlo", cmd_montecarlo, "Cramer-Rao saturation runs")

    p_val = sub.add_parser("validate-config", help="parse and validate a config file")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.raw_argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StatisticalCheckError as exc:
        print(f"statistical check failed: {exc}", file=sys.stderr)
        return EXIT_STATS
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
