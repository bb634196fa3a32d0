"""Scenario configuration: YAML with explicit units on every physical quantity.

Quantities are strings like ``"633nm"``, ``"1.5 mm"`` or ``"2urad"``; bare
numbers are taken as SI.  Unit bugs are the dominant failure mode in this
domain, so resolution happens once, at parse time, into SI (the models then
work in beam units, :mod:`tiltsense.beam`).  Each field resolves its unit in
the table of its own dimension and refuses any other: ``LENGTH_UNITS`` for
``wavelength``, ``w0``, ``z_R`` and ``xi``, these plus ``z_R`` (the beam's
Rayleigh range) for ``z``, ``ANGLE_UNITS`` for ``theta``, ``polar`` and
``azimuth``, ``ENERGY_UNITS`` for ``energy``.

The text is read by ``read_yaml``, a small reader of the YAML that configs
use, so that no command imports a YAML library:

* block mappings and block sequences, with ``- key: value`` entries and
  sequences that start at their key's column;
* flow mappings and flow sequences, nested, over one or more lines;
* plain, single-quoted and double-quoted scalars, each on one line;
* full-line and trailing ``#`` comments; an empty document reads as None.

Every scalar reads as its text, as under PyYAML's ``BaseLoader``, and an empty
value as None, so that the field parsers are the one grammar of a config's
numbers: decimal numbers, with a unit where the field takes one.  They refuse
YAML 1.1's other numbers (``0x10``, ``010``, ``0b11``, ``1_000``, ``1:30``),
booleans (``yes``, ``off``) and nulls (``~``, ``null``), naming the field.  The
reader refuses every other form with its line and column: anchors, aliases and
tags, document markers, ``|`` and ``>`` block scalars, scalars over several
lines, a backslash in a double-quoted scalar, tabs in the indentation, a key
given twice in one mapping, and plain scalars that start with ``?`` or ``:``.
"""

from __future__ import annotations

import math
import re
from array import array
from typing import NamedTuple, Optional

from .beam import DOMAIN_WIDTHS, TWO_PI, BeamParams
from .polarization import PolarizationState

PLANCK = 6.62607015e-34  # J s
LIGHT_SPEED = 299792458.0  # m/s

SCHEMES = ("position", "quadrant", "polarization", "joint")

SEED_LIMIT = 2 ** 64  # seeds key a Philox stream through one uint64

# photons per trial.  A joint trial holds arrays of them, at a peak of about 52 bytes
# a photon (5 GB at the limit); montecarlo refuses a block that does not fit, by name
NU_LIMIT = 10 ** 8

# points per {start, stop, count} grid: 8 MB of doubles, built in Python in
# about 0.2 s, and a sweep of ~1 ms rows over them already takes a quarter of
# an hour; a larger count would only exhaust memory while the grid is built
GRID_LIMIT = 10 ** 6

# largest size of a tilt's phases: t = k w0 |theta| (the models form phases ~ t^2 over
# windows of DOMAIN_WIDTHS beam widths), the displacement phase 4 k |xi| |theta|, and for
# the joint model the two parts 4 k w0 t and 4 k (DOMAIN_WIDTHS w0 + |xi|) of its phase's
# rate per radian; the models square each, so that past this they would overflow
TILT_LIMIT = 1e150

LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "nm": 1e-9, "pm": 1e-12}
ANGLE_UNITS = {"rad": 1.0, "mrad": 1e-3, "urad": 1e-6, "µrad": 1e-6, "nrad": 1e-9,
               "deg": math.pi / 180.0}
ENERGY_UNITS = {"J": 1.0, "mJ": 1e-3, "uJ": 1e-6, "µJ": 1e-6, "nJ": 1e-9, "pJ": 1e-12,
                "fJ": 1e-15, "aJ": 1e-18}

# decimal numbers only; a leading zero is refused, since YAML 1.1 reads 010 as octal 8
_QUANTITY_RE = re.compile(r"^\s*([+-]?(?:(?:0|[1-9]\d*)(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
                          r"\s*([A-Za-zµ_]*)\s*$")


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the offending field."""


# -- the YAML reader (see the module docstring) -------------------------------

_ENDS = ("", " ", "\n")  # what follows the ":" of a block key and the "-" of an entry
# a plain scalar on one line, by context (block, flow): words split by spaces,
# ending before ": " and " #", in flow context also before ",[]{}?" and ":]"
_PLAIN = [
    re.compile(rf"{word}(?: +(?!#){word})*")
    for word in (r"(?:[^ \t\n:]|:(?=[^ \t\n]))+", r"(?:[^ \t\n:,?\[\]{}]|:(?=[^ \t\n,\[\]{}]))+")
]
_QUOTED = {"'": re.compile(r"'((?:[^'\n]|'')*)'"), '"': re.compile(r'"([^"\\\n]*)"')}
_GAP = re.compile(r" *(?:#[^\n]*)?")  # spaces, then perhaps a comment
_BAD_TEXT = re.compile(r"(?m)^(?P<document_markers>---|\.\.\.)(?=[ \t\n]|$)"
                       r"|(?P<special_characters>"
                       r"[\x00-\x08\x0b-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufffe\uffff])")


class _Reader:
    def __init__(self, text):
        self.text, self.pos = text, 0

    def fail(self, why, pos=None):
        pos = self.pos if pos is None else pos
        line, column = self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)
        raise ConfigError(f"not valid YAML: line {line}, column {column}: {why}")

    def peek(self, ahead=0):
        return self.text[self.pos + ahead:self.pos + ahead + 1]

    def column(self):
        return self.pos - self.text.rfind("\n", 0, self.pos) - 1

    def skip(self, lines=True):
        """Step over spaces, a comment and with ``lines`` line breaks; return the next character."""
        self.pos = _GAP.match(self.text, self.pos).end()
        while lines and self.peek() == "\n":
            self.pos = _GAP.match(self.text, self.pos + 1).end()
        return self.peek()

    def entry(self, column):
        """Whether a block sequence entry "- " at ``column`` comes next."""
        return self.skip() == "-" and self.column() == column and self.peek(1) in _ENDS

    def block(self, indent, inline=False):
        """The node from here at a column >= ``indent``; ``inline``: on a key's line."""
        if not self.skip() or self.column() < indent:
            return None
        column, start = self.column(), self.pos
        if not inline and self.entry(column):  # a block sequence
            items = []
            while self.entry(column):
                self.pos += 1
                items.append(self.block(column + 1))
            return items
        node = self.node(False)
        if inline or self.skip(False) != ":" or self.peek(1) not in _ENDS:
            if self.skip(False) not in ("", "\n"):
                self.fail(f"expected the end of the line, found {self.peek()!r}")
            return node
        self.pos, mapping = start, {}  # a block mapping
        while self.skip() and self.column() == column:
            key = self.key(mapping, False)
            below = self.skip(False) in ("", "\n")  # a sequence below may start at the key's column
            at = column if below and self.entry(column) else column + 1
            mapping[key] = self.block(at, inline=not below)
        if self.peek() and self.column() > column:
            self.fail("unexpected indentation")
        return mapping

    def key(self, mapping, flow):
        start, key = self.pos, self.node(flow)
        colon = self.skip(False) == ":" and (flow or self.peek(1) in _ENDS)
        if isinstance(key, (list, dict)) or not colon:
            self.fail("expected a scalar key followed by ': '", start)
        if key in mapping:
            self.fail(f"duplicate key {key!r}", start)
        self.pos += 1
        return key

    def collection(self, close):
        items = [] if close == "]" else {}
        self.pos += 1
        while self.skip() != close:
            if close == "]":
                items.append(self.node(True))
            else:
                key = self.key(items, True)
                items[key] = None if self.skip() in (",", "}") else self.node(True)
            if self.skip() == ",":
                self.pos += 1
            elif self.peek() != close:
                self.fail(f"expected ',' or {close!r}, found {self.peek() or 'the end'!r}")
        self.pos += 1
        return items

    def node(self, flow):
        char, start = self.peek(), self.pos
        if char in ("[", "{"):
            return self.collection("]" if char == "[" else "}")
        if char in _QUOTED:
            quoted = _QUOTED[char].match(self.text, start)
            if not quoted:
                self.fail("a quoted scalar must end on its line, and a double-quoted one holds no \\")
            self.pos = quoted.end()
            return quoted[1].replace("''", "'") if char == "'" else quoted[1]
        plain = _PLAIN[flow].match(self.text, start)
        if not plain or char in "-?:,[]{}#&*!|>%@`" and (char != "-" or self.peek(1) in _ENDS):
            self.fail(f"expected a value, found {char or 'the end'!r}")
        self.pos = plain.end()
        return plain[0]


def read_yaml(text: str):
    """A config's data as PyYAML's ``BaseLoader`` reads it, an empty value as None; else ConfigError."""
    reader = _Reader(text.removeprefix("\ufeff").replace("\r\n", "\n"))
    bad = _BAD_TEXT.search(reader.text)
    if bad:
        reader.fail(f"{bad.lastgroup.replace('_', ' ')} are refused", bad.start(bad.lastgroup))
    data = reader.block(0)
    if reader.skip():
        reader.fail(f"expected the end of the document, found {reader.peek()!r}")
    return data


def parse_quantity(value, units: dict, *, where: str = "value") -> float:
    """Resolve a number-with-unit into SI by ``units``, {unit: scale}; refuse infinities and NaN."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected a quantity, got boolean")
    if isinstance(value, (int, float)):
        try:
            number, unit = float(value), ""
        except OverflowError:  # Python integers are unbounded
            raise ConfigError(f"{where}: must be finite, got an integer beyond the float range")
    elif isinstance(value, str):
        match = _QUANTITY_RE.match(value)
        if not match:
            raise ConfigError(f"{where}: cannot parse quantity {value!r}")
        number, unit = float(match.group(1)), match.group(2)
    else:
        raise ConfigError(f"{where}: expected a number or quantity string, got {value!r}")
    if unit:
        if unit not in units:
            allowed = f"the units {', '.join(units)}" if units else "a bare number in SI"
            raise ConfigError(f"{where}: takes {allowed}, not the unit {unit!r} in {value!r}")
        number *= units[unit]
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return number


def parse_integer(value, *, where: str, low: int = 1, high: float = math.inf) -> int:
    """A whole number in [low, high): an int, decimal digits, or a bare decimal of integral
    value that ``parse_quantity`` reads (``100.0``, ``1e4``)."""
    if isinstance(value, str) and re.fullmatch(r"\s*[+-]?(?:0|[1-9]\d*)\s*", value):
        try:
            value = int(value)
        except ValueError:  # past Python's limit of 4300 digits per conversion
            raise ConfigError(f"{where}: a whole number of {len(value.strip())} characters is too long")
    elif isinstance(value, bool) or not isinstance(value, int):
        try:
            number = parse_quantity(value, {}, where=where)
        except ConfigError:
            number = math.nan
        if not number.is_integer():
            raise ConfigError(f"{where}: expected a whole number, got {value!r}")
        value = int(number)
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


def parse_grid(spec, units: dict, *, where: str = "grid") -> array:
    """A grid is either an explicit list of quantities or {start, stop, count}.

    Returns the points as an ``array('d')``.
    """
    if isinstance(spec, dict):
        unknown = set(spec) - {"start", "stop", "count"}
        if unknown:
            raise ConfigError(f"{where}: unknown grid keys {sorted(unknown)}")
        try:
            start = parse_quantity(spec["start"], units, where=f"{where}.start")
            stop = parse_quantity(spec["stop"], units, where=f"{where}.stop")
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
            [parse_quantity(v, units, where=f"{where}[{i}]") for i, v in enumerate(spec)],
        )
    else:
        values = array("d", [parse_quantity(spec, units, where=where)])
    if not values:
        raise ConfigError(f"{where}: grid must be nonempty")
    if not all(a < b for a, b in zip(values, values[1:])):
        raise ConfigError(f"{where}: grid must be strictly increasing")
    # increasing points end at a finite stop, so only a lone point can be
    # non-finite: 0 * (stop - start) + start is nan when stop - start overflows
    if not math.isfinite(values[0]):
        raise ConfigError(f"{where}: stop - start overflows the float range")
    return values


def _check_tilt(theta: float, beam: BeamParams, scheme: str, where: str) -> None:
    """Refuse a tilt past ``TILT_LIMIT``, where the scheme's intermediates would overflow."""
    t = beam.k * beam.w0 * abs(theta)
    sizes = {"k w0 |theta|": t, "4 k |xi| |theta|": 4.0 * beam.k * abs(beam.xi * theta)}
    if scheme == "joint":
        sizes["the joint phase rate's part 4 k w0 k w0 |theta|"] = 4.0 * beam.k * beam.w0 * t
    over = [f"{name} = {size:.3e}" for name, size in sizes.items() if not size <= TILT_LIMIT]
    if over:
        raise ConfigError(
            f"{where}: {theta!r} rad is past the tilts the {scheme} scheme represents: "
            f"{', '.join(over)}, above {TILT_LIMIT:g}"
        )


def _check_keys(section, where: str, keys) -> None:
    """Refuse a ``section`` that is not a mapping, or that has a key outside ``keys``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(section) - keys
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _either(section, where: str, first: str, second: str) -> str:
    """The one of the fields ``first`` and ``second`` that ``section`` gives."""
    given = [field for field in (first, second) if field in section]
    if len(given) == 2:
        raise ConfigError(f"{where}: give {first} or {second}, not both")
    if not given:
        raise ConfigError(f"{where}: needs {first} or {second}")
    return given[0]


def _parse_beam(section, where="beam") -> BeamParams:
    _check_keys(section, where, {"wavelength", "w0", "z_R", "xi"})
    if "wavelength" not in section:
        raise ConfigError(f"{where}: needs wavelength")
    wavelength = parse_quantity(section["wavelength"], LENGTH_UNITS, where=f"{where}.wavelength")
    if wavelength <= 0.0:
        raise ConfigError(f"{where}.wavelength: must be positive, got {wavelength}")
    if not TWO_PI / wavelength < math.inf:
        raise ConfigError(f"{where}.wavelength: gives no finite wavenumber")
    xi = parse_quantity(section.get("xi", 0.0), LENGTH_UNITS, where=f"{where}.xi")
    field = _either(section, where, "w0", "z_R")
    size = parse_quantity(section[field], LENGTH_UNITS, where=f"{where}.{field}")
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
    polar = parse_quantity(section.get("polar", math.pi / 2), ANGLE_UNITS, where=f"{where}.polar")
    azimuth = parse_quantity(section.get("azimuth", 0.0), ANGLE_UNITS, where=f"{where}.azimuth")
    try:
        return PolarizationState.from_bloch(polar, azimuth)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


class RunBlock(NamedTuple):
    """One scheme with its evaluation grids."""

    scheme: str
    theta: array
    z: Optional[array] = None


class MonteCarloBlock(NamedTuple):
    theta: float
    nu: int
    trials: int
    seed: int


class ScenarioConfig(NamedTuple):
    beam: BeamParams
    polarization: PolarizationState
    runs: tuple[RunBlock, ...]
    montecarlo: Optional[MonteCarloBlock]
    raw_text: str


def _parse_run(block, beam, pol, index) -> RunBlock:
    where = f"run[{index}]"
    _check_keys(block, where, {"scheme", "theta", "z"})
    scheme = block.get("scheme")
    if scheme not in SCHEMES:
        raise ConfigError(f"{where}.scheme: must be one of {SCHEMES}, got {scheme!r}")
    if scheme == "joint" and not pol.is_diagonal:
        raise ConfigError(
            f"{where}: the joint scheme's closed-form analysis needs the diagonal input polarization"
        )
    rate = 4.0 * beam.k * (DOMAIN_WIDTHS * beam.w0 + abs(beam.xi))  # the joint phase rate at 0
    if scheme == "joint" and not rate <= TILT_LIMIT:
        raise ConfigError(
            f"beam: the joint phase rate's part 4 k ({DOMAIN_WIDTHS:g} w0 + |xi|) = {rate:.3e} "
            f"is above {TILT_LIMIT:g}, at every tilt of the joint scheme of {where}"
        )
    if "theta" not in block:
        raise ConfigError(f"{where}: needs a theta value or grid")
    theta = parse_grid(block["theta"], ANGLE_UNITS, where=f"{where}.theta")
    _check_tilt(max(theta[0], theta[-1], key=abs), beam, scheme, f"{where}.theta")
    needs_z = scheme in ("position", "quadrant", "joint")
    z = None
    if needs_z:
        if "z" not in block:
            raise ConfigError(f"{where}: scheme {scheme!r} needs a z value or grid")
        z = parse_grid(block["z"], {**LENGTH_UNITS, "z_R": beam.rayleigh_range}, where=f"{where}.z")
        if z[0] < 0.0:
            raise ConfigError(f"{where}.z: detector positions must be >= 0")
        # the sweep holds every row of the block before it writes the table
        if len(theta) * len(z) > GRID_LIMIT:
            raise ConfigError(
                f"{where}: {len(theta)} theta x {len(z)} z points exceed the limit "
                f"of {GRID_LIMIT} per run block"
            )
    elif "z" in block:
        raise ConfigError(f"{where}.z: scheme 'polarization' is independent of z")
    return RunBlock(scheme=scheme, theta=theta, z=z)


def _parse_montecarlo(section, wavelength) -> MonteCarloBlock:
    where = "montecarlo"
    _check_keys(section, where, {"theta", "nu", "energy", "trials", "seed"})
    if "theta" not in section:
        raise ConfigError(f"{where}: needs theta")
    theta = parse_quantity(section["theta"], ANGLE_UNITS, where=f"{where}.theta")
    source = _either(section, where, "nu", "energy")
    if source == "nu":
        nu = parse_integer(section["nu"], where=f"{where}.nu")
    else:
        # one detected photon per quantum hbar*omega = h c / lambda
        energy = parse_quantity(section["energy"], ENERGY_UNITS, where=f"{where}.energy")
        photons = energy * wavelength / (PLANCK * LIGHT_SPEED)
        if not math.isfinite(photons):
            raise ConfigError(f"{where}.energy: {energy!r} J gives a photon count beyond the float range")
        nu = int(photons)
        if nu < 1:
            raise ConfigError(f"{where}.energy: nu must be >= 1, got {nu}")
    if nu > NU_LIMIT:
        raise ConfigError(f"{where}.{source}: {nu} photons per trial exceed the limit of {NU_LIMIT}")
    # an empirical variance needs two estimates
    trials = parse_integer(section.get("trials", 200), where=f"{where}.trials", low=2)
    seed = parse_integer(section.get("seed", 0), where=f"{where}.seed", low=0, high=SEED_LIMIT)
    return MonteCarloBlock(theta=theta, nu=nu, trials=trials, seed=seed)


def parse_config_text(text: str) -> ScenarioConfig:
    try:
        data = read_yaml(text)
    except RecursionError:  # the reader descends one call per level of nesting
        raise ConfigError("not valid YAML: collections nested too deeply")
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
        for block in runs:  # montecarlo runs every block at this tilt
            _check_tilt(mc.theta, beam, block.scheme, "montecarlo.theta")
    return ScenarioConfig(beam=beam, polarization=pol, runs=runs, montecarlo=mc, raw_text=text)


def load_config(path) -> ScenarioConfig:
    """Read and parse a config file; every command reads its config here."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    return parse_config_text(text)
