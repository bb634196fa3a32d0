"""Scenario configuration: YAML with explicit units on every physical quantity.

Quantities are strings like ``"633nm"``, ``"1.5 mm"``, ``"2urad"`` or
``"5z_R"`` (lengths relative to the beam's Rayleigh range); bare numbers are
taken as SI.  Unit bugs are the dominant failure mode in this domain, so
resolution happens once, at parse time, and everything downstream is SI.
"""

from __future__ import annotations

import math
import re
from array import array
from typing import NamedTuple, Optional

import yaml

from .beam import BeamParams
from .polarization import PolarizationState

PLANCK = 6.62607015e-34  # J s
LIGHT_SPEED = 299792458.0  # m/s

SCHEMES = ("position", "quadrant", "polarization", "joint")

SEED_LIMIT = 2 ** 64  # seeds key a Philox stream through one uint64

NU_LIMIT = 10 ** 8  # photons per trial; one float64 array of that many is 0.8 GB

# points per {start, stop, count} grid: 8 MB of doubles, built in Python in
# about 0.2 s, and a sweep of ~1 ms rows over them already takes a quarter of
# an hour; a larger count would only exhaust memory while the grid is built
GRID_LIMIT = 10 ** 6

UNIT_SCALES = {
    "m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9, "pm": 1e-12,
    "rad": 1.0, "mrad": 1e-3, "urad": 1e-6, "µrad": 1e-6, "nrad": 1e-9,
    "deg": math.pi / 180.0,
    "J": 1.0, "mJ": 1e-3, "uJ": 1e-6, "µJ": 1e-6, "nJ": 1e-9, "pJ": 1e-12,
    "fJ": 1e-15, "aJ": 1e-18,
}

_QUANTITY_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-zµ_]*)\s*$"
)


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""


def parse_quantity(value, *, rayleigh: Optional[float] = None, where: str = "value") -> float:
    """Resolve a number-with-unit into SI; infinities and NaN are refused."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a quantity, got boolean")
    if isinstance(value, (int, float)):
        try:
            number, unit = float(value), ""
        except OverflowError:  # YAML integers are unbounded
            raise ConfigError(f"{where}: must be finite, got an integer beyond the float range")
    elif isinstance(value, str):
        match = _QUANTITY_RE.match(value)
        if not match:
            raise ConfigError(f"{where}: cannot parse quantity {value!r}")
        number, unit = float(match.group(1)), match.group(2)
    else:
        raise ConfigError(f"{where}: expected a number or quantity string, got {value!r}")
    if unit in ("z_R", "zR"):
        if rayleigh is None:
            raise ConfigError(f"{where}: {value!r} needs a beam to resolve z_R units")
        number *= rayleigh
    elif unit:
        if unit not in UNIT_SCALES:
            raise ConfigError(f"{where}: unknown unit {unit!r} in {value!r}")
        number *= UNIT_SCALES[unit]
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return number


def parse_integer(value, *, where: str, low: int = 1, high: float = math.inf) -> int:
    """A whole number in [low, high): an int, an integral float or a digit string."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif isinstance(value, str) and re.fullmatch(r"\s*[+-]?\d+\s*", value):
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected a whole number, got {value!r}")
    if not low <= value < high:
        raise ConfigError(f"{where}: must be in [{low}, {high}), got {value}")
    return value


def linspace(start: float, stop: float, count: int) -> array:
    """``np.linspace(start, stop, count)``, by the same float operations bit for bit."""
    delta = stop - start
    div = count - 1
    if div == 0:
        return array("d", [0.0 * delta + start])
    step = delta / div
    if step == 0.0:  # the spacing underflows: scale by delta after dividing, as numpy does
        values = array("d", (i / div * delta + start for i in range(count)))
    else:
        values = array("d", (i * step + start for i in range(count)))
    values[-1] = stop
    return values


def parse_grid(spec, *, rayleigh: Optional[float] = None, where: str = "grid") -> array:
    """A grid is either an explicit list of quantities or {start, stop, count}.

    Returns the points as an ``array('d')``.
    """
    if isinstance(spec, dict):
        unknown = set(spec) - {"start", "stop", "count"}
        if unknown:
            raise ConfigError(f"{where}: unknown grid keys {sorted(unknown)}")
        try:
            start = parse_quantity(spec["start"], rayleigh=rayleigh, where=f"{where}.start")
            stop = parse_quantity(spec["stop"], rayleigh=rayleigh, where=f"{where}.stop")
            count = parse_integer(spec["count"], where=f"{where}.count")
        except KeyError as missing:
            raise ConfigError(f"{where}: grid needs start/stop/count, missing {missing}")
        if count > GRID_LIMIT:
            raise ConfigError(
                f"{where}.count: {count} points exceed the limit of {GRID_LIMIT} per grid"
            )
        values = linspace(start, stop, count)
    elif isinstance(spec, list):
        values = array(
            "d",
            [parse_quantity(v, rayleigh=rayleigh, where=f"{where}[{i}]") for i, v in enumerate(spec)],
        )
    else:
        values = array("d", [parse_quantity(spec, rayleigh=rayleigh, where=where)])
    if not values:
        raise ConfigError(f"{where}: grid must be nonempty")
    if not all(a < b for a, b in zip(values, values[1:])):
        raise ConfigError(f"{where}: grid must be strictly increasing")
    # increasing points end at a finite stop, so only a lone point can be
    # non-finite: 0 * (stop - start) + start is nan when stop - start overflows
    if not math.isfinite(values[0]):
        raise ConfigError(f"{where}: stop - start overflows the float range")
    return values


def _check_keys(section, where: str, keys) -> None:
    """Refuse a ``section`` that is not a mapping, or that has a key outside ``keys``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(section) - keys
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_beam(section, where="beam") -> BeamParams:
    _check_keys(section, where, {"wavelength", "k", "w0", "z_R", "xi"})
    if "k" in section:
        k = parse_quantity(section["k"], where=f"{where}.k")
        if k <= 0.0:
            raise ConfigError(f"{where}.k: wavenumber must be positive, got {k}")
        wavelength = 2.0 * math.pi / k
    elif "wavelength" in section:
        wavelength = parse_quantity(section["wavelength"], where=f"{where}.wavelength")
        if wavelength <= 0.0:
            raise ConfigError(f"{where}.wavelength: must be positive, got {wavelength}")
    else:
        raise ConfigError(f"{where}: needs wavelength or k")
    if not 0.0 < 2.0 * math.pi / wavelength < math.inf:
        source = "k" if "k" in section else "wavelength"
        raise ConfigError(f"{where}.{source}: gives no finite wavenumber and wavelength")
    xi = parse_quantity(section.get("xi", 0.0), where=f"{where}.xi")
    if "w0" in section and "z_R" in section:
        raise ConfigError(f"{where}: give w0 or z_R, not both")
    if "w0" not in section and "z_R" not in section:
        raise ConfigError(f"{where}: needs w0 or z_R")
    field = "z_R" if "z_R" in section else "w0"
    size = parse_quantity(section[field], where=f"{where}.{field}")
    try:
        if field == "z_R":
            return BeamParams.from_rayleigh_range(size, wavelength, xi)
        return BeamParams.from_wavelength(wavelength, size, xi)
    except ValueError as exc:
        raise ConfigError(f"{where}.{field}: {exc}")


def _parse_polarization(section, where="polarization") -> PolarizationState:
    if section is None:
        return PolarizationState.diagonal()
    if isinstance(section, str):
        presets = {
            "diagonal": PolarizationState.diagonal,
            "plus": PolarizationState.diagonal,
            "horizontal": PolarizationState.horizontal,
            "vertical": PolarizationState.vertical,
            "circular": PolarizationState.circular,
        }
        if section not in presets:
            raise ConfigError(f"{where}: unknown preset {section!r}")
        return presets[section]()
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping or preset name")
    _check_keys(section, where, {"polar", "azimuth"})
    polar = parse_quantity(section.get("polar", math.pi / 2), where=f"{where}.polar")
    azimuth = parse_quantity(section.get("azimuth", 0.0), where=f"{where}.azimuth")
    try:
        return PolarizationState.from_bloch(polar, azimuth)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


class RunBlock(NamedTuple):
    """One scheme with its evaluation grids."""

    scheme: str
    theta: array
    z: Optional[array] = None
    split: Optional[float] = None


class MonteCarloBlock(NamedTuple):
    theta: float
    nu: int
    trials: int
    seed: int
    interval: Optional[tuple[float, float]] = None


class ScenarioConfig(NamedTuple):
    beam: BeamParams
    polarization: PolarizationState
    runs: tuple[RunBlock, ...]
    montecarlo: Optional[MonteCarloBlock]
    raw_text: str


def _parse_run(block, beam, pol, index) -> RunBlock:
    where = f"run[{index}]"
    _check_keys(block, where, {"scheme", "theta", "z", "split"})
    scheme = block.get("scheme")
    if scheme not in SCHEMES:
        raise ConfigError(f"{where}.scheme: must be one of {SCHEMES}, got {scheme!r}")
    if scheme == "joint" and not pol.is_diagonal:
        raise ConfigError(
            f"{where}: the joint scheme's closed-form analysis needs the diagonal input polarization"
        )
    if "theta" not in block:
        raise ConfigError(f"{where}: needs a theta value or grid")
    theta = parse_grid(block["theta"], rayleigh=beam.rayleigh_range, where=f"{where}.theta")
    needs_z = scheme in ("position", "quadrant", "joint")
    z = None
    if needs_z:
        if "z" not in block:
            raise ConfigError(f"{where}: scheme {scheme!r} needs a z value or grid")
        z = parse_grid(block["z"], rayleigh=beam.rayleigh_range, where=f"{where}.z")
        if z[0] < 0.0:
            raise ConfigError(f"{where}.z: detector positions must be >= 0")
        # widths square z/z_R, which raises OverflowError from 1.3e154 on
        if z[-1] >= 1e154 * beam.rayleigh_range:
            raise ConfigError(
                f"{where}.z: z/z_R must be below 1e154, got z={z[-1]!r} m "
                f"with z_R={beam.rayleigh_range!r} m"
            )
        # the position and joint densities square w(z), which raises
        # OverflowError from 1.3e154 m on
        if scheme != "quadrant" and not beam.width(z[-1]) < 1e154:
            raise ConfigError(
                f"{where}.z: the beam width w(z) must be below 1e154 m, got "
                f"w={beam.width(z[-1])!r} m at z={z[-1]!r} m"
            )
        # the sweep holds every row of the block before it writes the table
        if len(theta) * len(z) > GRID_LIMIT:
            raise ConfigError(
                f"{where}: {len(theta)} theta x {len(z)} z points exceed the limit "
                f"of {GRID_LIMIT} per run block"
            )
    elif "z" in block:
        raise ConfigError(f"{where}.z: scheme 'polarization' is independent of z")
    split = None
    if "split" in block:
        if scheme != "quadrant":
            raise ConfigError(f"{where}.split: only the quadrant scheme has a split line")
        split = parse_quantity(block["split"], rayleigh=beam.rayleigh_range, where=f"{where}.split")
    return RunBlock(scheme=scheme, theta=theta, z=z, split=split)


def _parse_montecarlo(section, wavelength) -> MonteCarloBlock:
    where = "montecarlo"
    _check_keys(section, where, {"theta", "nu", "energy", "trials", "seed", "interval"})
    if "theta" not in section:
        raise ConfigError(f"{where}: needs theta")
    theta = parse_quantity(section["theta"], where=f"{where}.theta")
    if "nu" in section and "energy" in section:
        raise ConfigError(f"{where}: give nu or energy, not both")
    if "nu" in section:
        source = "nu"
        nu = parse_integer(section["nu"], where=f"{where}.nu")
    elif "energy" in section:
        source = "energy"
        # one detected photon per quantum hbar*omega = h c / lambda
        energy = parse_quantity(section["energy"], where=f"{where}.energy")
        photons = energy * wavelength / (PLANCK * LIGHT_SPEED)
        if not math.isfinite(photons):
            raise ConfigError(f"{where}.energy: {energy!r} J gives a photon count beyond the float range")
        nu = int(photons)
        if nu < 1:
            raise ConfigError(f"{where}.energy: nu must be >= 1, got {nu}")
    else:
        raise ConfigError(f"{where}: needs nu (photon count) or energy")
    if nu > NU_LIMIT:
        raise ConfigError(
            f"{where}.{source}: {nu} photons per trial exceed the limit of {NU_LIMIT} "
            "(one sample array of them would not fit in memory)"
        )
    # an empirical variance needs two estimates
    trials = parse_integer(section.get("trials", 200), where=f"{where}.trials", low=2)
    seed = parse_integer(section.get("seed", 0), where=f"{where}.seed", low=0, high=SEED_LIMIT)
    interval = None
    if "interval" in section:
        pair = section["interval"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"{where}.interval: expected [low, high]")
        lo = parse_quantity(pair[0], where=f"{where}.interval[0]")
        hi = parse_quantity(pair[1], where=f"{where}.interval[1]")
        if not lo < hi:
            raise ConfigError(f"{where}.interval: low must be < high")
        interval = (lo, hi)
    return MonteCarloBlock(theta=theta, nu=nu, trials=trials, seed=seed, interval=interval)


def parse_config_text(text: str) -> ScenarioConfig:
    try:
        # libyaml's parser when PyYAML was built with it, several times faster than pure Python
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}")
    except ValueError as exc:  # e.g. an integer past Python's 4300-digit conversion limit
        raise ConfigError(f"not a usable YAML value: {exc}")
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top level must be a mapping")
    unknown = set(data) - {"beam", "polarization", "run", "montecarlo"}
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    if "beam" not in data:
        raise ConfigError("missing 'beam' section")
    beam = _parse_beam(data["beam"])
    pol = _parse_polarization(data.get("polarization"))

    run_section = data.get("run", [])
    if isinstance(run_section, dict):
        run_section = [run_section]
    if not isinstance(run_section, list):
        raise ConfigError("run: expected a block or list of blocks")
    runs = tuple(_parse_run(block, beam, pol, i) for i, block in enumerate(run_section))

    mc = None
    if "montecarlo" in data:
        mc = _parse_montecarlo(data["montecarlo"], beam.wavelength)
    return ScenarioConfig(beam=beam, polarization=pol, runs=runs, montecarlo=mc, raw_text=text)


def load_config(path) -> ScenarioConfig:
    """Read and parse a config file, then refuse a beam whose densities overflow.

    Every command reads its config here; the check follows the parse, so that
    a run block's own error (its z/z_R, say) is the one reported.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    config = parse_config_text(text)
    # the density amplitude sqrt(2/(pi w0^2)) overflows from w0 = 6e-155 m down
    if not config.beam.w0 > 1e-154:
        raise ConfigError(
            f"beam.w0: the waist must be above 1e-154 m, where the density amplitude "
            f"sqrt(2/(pi w0^2)) overflows, got w0={config.beam.w0!r} m"
        )
    return config
