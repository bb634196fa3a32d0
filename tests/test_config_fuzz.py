"""Whole one-block configs, drawn at random, end in clean tables or a clean exit.

Every field of a config that the five commands read is drawn, up to two of
them far from laboratory scales: lengths, angles and energies log-uniform over
1e-300..1e300, in their own units and in the units of another dimension, and
the values 0, -1 and ``.nan``; in one config of four, also the beam's three
fields together, each log-uniform in its own units; theta and z as one value
or a grid of up to three; every scheme and polarization form; whole numbers
on both sides of their limits, plain or quoted, and one in twenty a quoted
digit string past Python's 4300-digit conversion limit; and the inputs that no
longer exist (``beam.k``, ``run.split``, the ``zR`` unit,
``montecarlo.interval`` and the ``plus`` preset).  ``montecarlo`` runs at most
100 photons and 5 trials.
``cli.main`` runs in this process with numpy's RuntimeWarnings raised as
errors, and each run must exit 0, 2, 3 or 4 without an exception.  The tables
it writes hold finite numbers only (``cr_delta_theta_rad`` is inf exactly
where ``analytic_fisher`` is 0) and come with no warning, and a failed run
prints one ``config error:``, ``numerical failure:`` or ``statistical check
failed:`` line.
"""

import contextlib
import csv
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltsense.cli import main
from tiltsense.config import ANGLE_UNITS, ENERGY_UNITS, LENGTH_UNITS, SCHEMES

COMMANDS = ("sweep", "validate-config", "montecarlo", "figure3", "figure4")
MESSAGES = ("config error: ", "numerical failure: ", "statistical check failed: ")
TEXT_COLUMNS = ("scheme", "warnings")  # every other column of every table holds numbers


def _far(units, signs):
    """A quantity string log-uniform in 1e-300..1e300 with one of ``units``."""
    return st.builds(
        lambda sign, exponent, unit: f"{sign}{10.0 ** exponent!r}{unit}",
        st.sampled_from(signs),
        st.floats(-300.0, 300.0),
        st.sampled_from(units),
    )


def _wide(own, foreign):
    """A quantity string: log-uniform in 1e-300..1e300 with an own unit (mostly) or
    a foreign one, or 0, -1 or .nan; own and foreign are tuples of unit names."""
    signs = ("", "", "", "-")
    magnitude = _far(own, signs) | _far(foreign, signs)
    special = st.sampled_from(["0", "-1", ".nan"]) | st.builds(
        lambda value, unit: value + unit, st.sampled_from(["0", "-1"]), st.sampled_from(own)
    )
    return st.one_of(magnitude, magnitude, magnitude, special)


def _whole(numbers):
    """A whole number of ``numbers``, plain or as quoted digits; one in twenty is
    instead a quoted digit string longer than Python converts (4300 digits)."""
    return st.integers(0, 19).flatmap(
        lambda pick: st.integers(4301, 4400).map(lambda n: '"' + "7" * n + '"') if pick == 7
        else numbers.map(lambda n: f'"{n}"' if pick % 2 else str(n))
    )


def _near(typical, unit, signs=("",)):
    """A quantity string within a factor 1e3 of ``typical`` ``unit``."""
    return st.builds(
        lambda sign, exponent: f"{sign}{typical * 10.0 ** exponent!r}{unit}",
        st.sampled_from(signs),
        st.floats(-3.0, 3.0),
    )


LENGTHS = ("", *LENGTH_UNITS)
NOT_LENGTHS = (*ANGLE_UNITS, *ENERGY_UNITS)
ANGLES = ("", *ANGLE_UNITS)
NOT_ANGLES = (*LENGTH_UNITS, *ENERGY_UNITS)
PLANES = (*LENGTHS, "z_R", "zR")  # zR, once a spelling of z_R, is refused
# each field: (a laboratory-scale value, a value of any scale, unit or special)
FIELDS = {
    "wavelength": (_near(633.0, "nm"), _wide(LENGTHS, NOT_LENGTHS)),
    "w0": (_near(1.0, "mm"), _wide(LENGTHS, NOT_LENGTHS)),
    "z_R": (_near(1.0, "m"), _wide(LENGTHS, NOT_LENGTHS)),
    "xi": (_near(1.0, "mm", ("", "-")) | st.just("0"), _wide(LENGTHS, NOT_LENGTHS)),
    "polar": (st.floats(0.0, 180.0).map(lambda deg: f"{deg!r}deg"), _wide(ANGLES, NOT_ANGLES)),
    "azimuth": (st.floats(-180.0, 180.0).map(lambda deg: f"{deg!r}deg"), _wide(ANGLES, NOT_ANGLES)),
    "theta": (_near(1.0, "urad", ("", "-")) | st.just("0"), _wide(ANGLES, NOT_ANGLES)),
    "z": (_near(1.0, "z_R") | st.just("0"), _wide(PLANES, NOT_LENGTHS)),
    "montecarlo.theta": (_near(1.0, "urad", ("", "-")), _wide(ANGLES, NOT_ANGLES)),
    "energy": (_near(1.0, "fJ"), _wide(("", *ENERGY_UNITS), (*LENGTH_UNITS, *ANGLE_UNITS))),
}
# the beam's fields all far from laboratory scales at once, each positive in its own units
# (xi of either sign), so that one bound can underflow while another stays in range
FAR_BEAM = {
    "wavelength": _far(LENGTHS, ("",)),
    "w0": _far(LENGTHS, ("",)),
    "z_R": _far(LENGTHS, ("",)),
    "xi": _far(LENGTHS, ("", "-")),
}


def _flow(fields):
    return "{" + ", ".join(f"{key}: {value}" for key, value in fields.items()) + "}"


@st.composite
def configs(draw, command="sweep"):
    """A one-block config for ``command``; up to two of its fields take a value of any
    scale, unit or special, and theta and z may be small grids of such values.  In one
    config of four, the beam's three fields also take values of any scale together."""
    wide = draw(st.sets(st.sampled_from(sorted(FIELDS)), max_size=2))
    far_beam = draw(st.integers(0, 3)) == 0

    def value(field):
        if far_beam and field in FAR_BEAM:
            return draw(FAR_BEAM[field])
        return draw(FIELDS[field][field in wide])

    def grid(field):
        """One value, or a grid of up to three: a list or {start, stop, count}."""
        # montecarlo takes one plane per block, and reads no run tilt
        shapes = ["value"] if command == "montecarlo" else ["value", "value", "list", "range"]
        shape = draw(st.sampled_from(shapes))
        if shape == "value":
            return value(field)
        if shape == "list":
            return "[" + ", ".join(value(field) for _ in range(draw(st.integers(1, 3)))) + "]"
        count = draw(_whole(st.integers(1, 3)))
        return _flow({"start": value(field), "stop": value(field), "count": count})

    beam = {"wavelength": value("wavelength")}
    field = draw(st.sampled_from(("w0", "z_R")))
    beam[field] = value(field)
    if far_beam or draw(st.booleans()):
        beam["xi"] = value("xi")
    if draw(st.integers(0, 19)) == 7:
        beam["k"] = "1e7"  # refused: the beam takes its wavelength only
    lines = [f"beam: {_flow(beam)}"]

    polarization = draw(st.sampled_from(["none", "preset", "bloch"]))
    if polarization == "preset":
        preset = draw(st.sampled_from(["diagonal", "horizontal", "vertical", "circular", "plus"]))
        lines.append(f"polarization: {preset}")
    elif polarization == "bloch":
        lines.append(f"polarization: {_flow({'polar': value('polar'), 'azimuth': value('azimuth')})}")

    scheme = draw(st.sampled_from(SCHEMES))
    run = {"scheme": scheme, "theta": grid("theta")}
    if scheme != "polarization":
        run["z"] = grid("z")
    if draw(st.integers(0, 19)) == 7:
        run["split"] = "0.1mm"  # refused: the quadrant detector splits at x = xi
    lines.append(f"run: {_flow(run)}")

    if command == "montecarlo":
        # few photons and trials, so that an example runs in milliseconds (the other
        # commands' configs cover the limits of these fields)
        montecarlo = {
            "theta": value("montecarlo.theta"),
            "nu": draw(_whole(st.integers(1, 100))),
            "trials": draw(_whole(st.integers(2, 5))),
            "seed": draw(_whole(st.integers(0, 2 ** 16))),
        }
        lines.append(f"montecarlo: {_flow(montecarlo)}")
    elif draw(st.booleans()):
        montecarlo = {"theta": value("montecarlo.theta")}
        if draw(st.booleans()):
            montecarlo["nu"] = draw(_whole(st.integers(0, 2 * 10 ** 8)))
        else:
            montecarlo["energy"] = value("energy")
        montecarlo["trials"] = draw(_whole(st.integers(1, 500)))
        montecarlo["seed"] = draw(_whole(st.integers(-1, 2 ** 64)))
        if draw(st.integers(0, 9)) == 0:
            montecarlo["interval"] = "[0, 2urad]"
        lines.append(f"montecarlo: {_flow(montecarlo)}")
    return "\n".join(lines) + "\n"


@st.composite
def cases(draw):
    """(command, config text) for each command that reads a config."""
    command = draw(st.sampled_from(COMMANDS))
    return command, draw(configs(command))


def run_command(command, text):
    """(exit code, stderr, {table name: rows}, warnings) of ``command`` on the config ``text``.

    A RuntimeWarning (numpy's overflow and invalid-value warnings) is raised as an
    error; any other warning is recorded and returned.
    """
    with tempfile.TemporaryDirectory() as directory:
        config = Path(directory) / "config.yaml"
        config.write_text(text, encoding="utf-8")
        out = Path(directory) / "out"
        argv = [command, "--config", str(config)]
        if command != "validate-config":
            argv += ["--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
        tables = {}
        for table in sorted(out.glob("*.csv")):
            with table.open() as fh:
                tables[table.stem] = list(csv.DictReader(fh))
    return code, err.getvalue(), tables, caught


def check_config(command, text):
    code, err, tables, caught = run_command(command, text)
    assert code in (0, 2, 3, 4), (code, err)
    if code != 0:
        messages = [line for line in err.splitlines() if line.startswith(MESSAGES)]
        assert len(messages) == 1, err
        return
    assert not caught, [str(w.message) for w in caught]
    for name, rows in tables.items():
        assert rows, name
        for row in rows:
            # z_m is empty on polarization rows; any other empty cell fails float('')
            values = {key: float(v) for key, v in row.items()
                      if key not in TEXT_COLUMNS and (v or key != "z_m")}
            if values.get("analytic_fisher") == 0.0 and name == "sweep":
                assert values.pop("cr_delta_theta_rad") == math.inf, row
            assert all(map(math.isfinite, values.values())), (name, row)


@settings(max_examples=100, deadline=None)
@given(case=cases())
# the retired inputs exit 2 naming themselves
@example(("sweep", "beam: {wavelength: 633nm, w0: 1mm}\npolarization: plus\n"
          "run: {scheme: joint, theta: 1urad, z: 1z_R}\n"))
@example(("validate-config", "beam: {wavelength: 633nm, k: 1e7, w0: 1mm}\n"))
@example(("sweep", "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: position, theta: 1urad, z: 1zR}\n"))
@example(("sweep", "beam: {wavelength: 633nm, w0: 1mm}\n"
          "run: {scheme: quadrant, theta: 1urad, z: 1z_R, split: 0.1mm}\n"))
@example(("validate-config", "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: polarization, theta: 0}\n"
          "montecarlo: {theta: 1urad, nu: 100, interval: [0, 2urad]}\n"))
# found by this test: far past any physical tilt the joint and position models overflow
# (numpy's warnings, then exit 3), so such a tilt exits 2; a position row at 1 rad is
# many beam widths out, where the oracle's step does not converge, and exits 3
@example(("sweep", "beam: {wavelength: 633nm, z_R: 1m, xi: -1mm}\n"
          "run: {scheme: joint, theta: -2.698193939762969e+219urad, z: 0.1z_R}\n"))
@example(("sweep", "beam: {wavelength: 633nm, z_R: 1m, xi: -1mm}\n"
          "run: {scheme: position, theta: -2.698193939762969e+219urad, z: 0.1z_R}\n"))
@example(("sweep", "beam: {wavelength: 1.4735180022553287e-07m, w0: 9.007041358615979mm}\n"
          "run: {scheme: position, theta: -1, z: 9.007041358615979z_R}\n"))
# found by this test: F = 3.3e-315, so that the estimates' variance overflowed in np.var
@example(("montecarlo", "beam: {wavelength: 7358.987441198978nm, z_R: 1.0m}\n"
          "run: {scheme: position, theta: 0.04010242470254117urad, z: 2.1997213522687156e-161m}\n"
          "montecarlo: {theta: -488.124280600798urad, nu: 72, trials: 3, seed: 332}\n"))
# found by this test with the beam's fields far from laboratory scales together: 4 (k w0)^2
# underflows under a positive quantum bound (exit 2), and 4 k |xi| underflows with xi != 0
# (k = 2 pi/wavelength = 1e-100, 1.756957470181827e-51 and 8.494125714281019e-128)
@example(("sweep", "beam: {wavelength: 6.283185307179586e+100m, w0: 1e-110m, xi: 1m}\n"
          "run: {scheme: position, theta: 1urad, z: 1z_R}\n"))
@example(("montecarlo", "beam: {wavelength: 3.576173819693735e+51m, w0: 1.4523906791118475e-134m, "
          "xi: 2.0074466422391886e-34m}\nrun: {scheme: joint, theta: 9.39268094759922e-26, z: 1z_R}\n"
          "montecarlo: {theta: 9.39268094759922e-26, nu: 16, trials: 2}\n"))
@example(("montecarlo", "beam: {wavelength: 7.397094790598379e+127m, w0: 2.624098373972576e-17m, "
          "xi: -1.9146477759761452e-260m}\n"
          "run: {scheme: joint, theta: -2.0802859824546192e-136, z: 1.6231918794284092e+23m}\n"
          "montecarlo: {theta: -2.0802859824546192e-136, nu: 16, trials: 4}\n"))
# whole numbers past Python's 4300-digit limit ended in a ValueError traceback
@example(("validate-config", "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: polarization, theta: 0}\n"
          f'montecarlo: {{theta: 1urad, nu: "{"1" * 5000}", trials: 2}}\n'))
@example(("montecarlo", "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: polarization, theta: 0}\n"
          f'montecarlo: {{theta: 1urad, nu: 10, trials: "{"1" * 4301}"}}\n'))
@example(("montecarlo", "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: polarization, theta: 0}\n"
          f'montecarlo: {{theta: 1urad, nu: 10, seed: "{"1" * 4301}"}}\n'))
@example(("sweep", "beam: {wavelength: 633nm, w0: 1mm}\n"
          f'run: {{scheme: polarization, theta: {{start: 0, stop: 1urad, count: "{"1" * 4301}"}}}}\n'))
def test_one_row_configs_end_cleanly(case):
    check_config(*case)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(case=cases())
def test_one_row_configs_end_cleanly_widely(case):
    check_config(*case)
