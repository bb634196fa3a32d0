"""Each config field takes the units of its own dimension, and nothing else.

Lengths, angles and energies resolve in their own tables; ``z`` also takes
``z_R``.  Every case runs through ``validate-config``: a foreign unit exits 2
and names its field, and so does each either/or pair given both.
"""

import ast
import re
from pathlib import Path

import pytest

from tiltsense.cli import main
from tiltsense.config import ANGLE_UNITS, ENERGY_UNITS, LENGTH_UNITS

ROOT = Path(__file__).resolve().parents[1]

TEMPLATE = """\
beam: {{wavelength: {wavelength}, {size}, xi: {xi}}}
polarization: {{polar: {polar}, azimuth: {azimuth}}}
run:
  - {{scheme: quadrant, theta: {theta}, z: {z}}}
montecarlo: {{theta: {mc_theta}, {photons}}}
"""
VALID = dict(
    wavelength="633nm", size="w0: 1mm", xi="1mm", polar="90deg", azimuth="0rad",
    theta="1urad", z="1z_R", mc_theta="1urad", photons="nu: 100",
)

# (template slot, the text before the value, the field's name, one value in each
# other dimension); each value is in range as SI, so only its unit is at fault
FOREIGN = [
    ("wavelength", "", "beam.wavelength", ["633urad", "633pJ"]),
    ("size", "w0: ", "beam.w0", ["1urad", "1mJ"]),
    ("size", "z_R: ", "beam.z_R", ["1rad", "1J"]),
    ("xi", "", "beam.xi", ["1urad", "1mJ"]),
    ("polar", "", "polarization.polar", ["1.5mm", "1.5J"]),
    ("azimuth", "", "polarization.azimuth", ["0mm", "0J"]),
    ("theta", "", "run[0].theta", ["1nm", "1pJ"]),
    ("z", "", "run[0].z", ["1urad", "1J"]),
    ("mc_theta", "", "montecarlo.theta", ["1um", "1uJ"]),
    ("photons", "energy: ", "montecarlo.energy", ["1e-12mm", "1e-12urad"]),
]


def validate(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    return main(["validate-config", "--config", str(path)])


def config(**changes):
    return TEMPLATE.format(**{**VALID, **changes})


def test_the_template_is_valid(tmp_path):
    assert validate(tmp_path, config()) == 0


@pytest.mark.parametrize(
    "slot, prefix, field, value",
    [(slot, prefix, field, value) for slot, prefix, field, values in FOREIGN for value in values],
)
def test_a_unit_of_another_dimension_names_its_field(tmp_path, capsys, slot, prefix, field, value):
    assert validate(tmp_path, config(**{slot: prefix + value})) == 2
    unit = re.sub(r"^[-+.0-9e]+", "", value)
    err = capsys.readouterr().err
    assert f"config error: {field}: takes the units " in err
    assert f"not the unit {unit!r} in {value!r}" in err


# z takes Rayleigh ranges; split and the zR spelling, once also cases here, are retired
@pytest.mark.parametrize("slot", ["z"])
@pytest.mark.parametrize("unit", ["z_R"])
def test_z_and_split_take_rayleigh_ranges(tmp_path, slot, unit):
    assert validate(tmp_path, config(**{slot: "1" + unit})) == 0


@pytest.mark.parametrize(
    "slot, prefix, field",
    [
        ("theta", "", "run[0].theta"),
        ("xi", "", "beam.xi"),
        ("size", "w0: ", "beam.w0"),
        ("wavelength", "", "beam.wavelength"),
        ("mc_theta", "", "montecarlo.theta"),
    ],
)
@pytest.mark.parametrize("unit", ["z_R", "zR"])
def test_other_fields_refuse_rayleigh_ranges(tmp_path, capsys, slot, prefix, field, unit):
    assert validate(tmp_path, config(**{slot: prefix + "1" + unit})) == 2
    assert f"config error: {field}: takes the units " in capsys.readouterr().err


@pytest.mark.parametrize("unit, scale", sorted({**LENGTH_UNITS, **ANGLE_UNITS, **ENERGY_UNITS}.items()))
def test_k_takes_no_unit(tmp_path, capsys, unit, scale):
    # the beam takes its wavelength only: a wavenumber k, with any unit, is an unknown key
    value = f"{1e7 / scale!r}{unit}"  # 1e7 rad/m as SI, were the unit read
    assert validate(tmp_path, config().replace("wavelength: 633nm", f"k: {value}")) == 2
    assert "config error: beam: unknown keys ['k']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes, message",
    [
        # wavelength and k are no longer a pair: k is refused as unknown
        (dict(wavelength="633nm, k: 1e7"), "beam: unknown keys ['k']"),
        (dict(size="w0: 1mm, z_R: 1m"), "beam: give w0 or z_R, not both"),
        (dict(photons="nu: 100, energy: 1pJ"), "montecarlo: give nu or energy, not both"),
    ],
)
def test_either_or_pairs_refuse_both(tmp_path, capsys, changes, message):
    assert validate(tmp_path, config(**changes)) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "beam: {wavelength: 633urad, w0: 1deg, xi: 1uJ}\n"
            "run: [{scheme: position, theta: 2z_R, z: 3urad},"
            " {scheme: quadrant, theta: 1mm, z: 1J}]\n"
            "montecarlo: {theta: 1m, energy: 1e-12mm, trials: 3}\n",
            "beam.wavelength: takes the units m, cm, mm, um, µm, nm, pm, not the unit 'urad'",
        ),
        ("beam: {wavelength: 633nm, k: 1e7, w0: 1mm}\n", "beam: unknown keys ['k']"),
        (
            "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: position, theta: 1urad, z: 1zR}\n",
            "run[0].z: takes the units m, cm, mm, um, µm, nm, pm, z_R, not the unit 'zR' in '1zR'",
        ),
    ],
)
def test_configs_once_accepted_are_refused(tmp_path, capsys, text, message):
    assert validate(tmp_path, text) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_readme_configuration_example_validates(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration\n", 1)[1]
    example = re.search(r"```yaml\n(.*?)```", section, re.DOTALL)
    assert example and "run:" in example[1] and "montecarlo:" in example[1]
    assert validate(tmp_path, example[1]) == 0


def test_readme_configuration_names_every_key_and_no_retired_one():
    # the keys are the sets config.py passes to _check_keys, read from its source
    tree = ast.parse((ROOT / "src" / "tiltsense" / "config.py").read_text(encoding="utf-8"))
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_keys":
            keys |= {element.value for element in node.args[2].elts}
    assert {"wavelength", "polar", "scheme", "nu"} <= keys
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.split(r"\n##+ ", readme.split("### Configuration\n", 1)[1], maxsplit=1)[0]
    example = re.search(r"```yaml\n(.*?)```", section, re.DOTALL)[1]
    named = set(re.findall(r"^[ -]*(\w+):", example, re.MULTILINE))  # the example's keys
    for span in re.findall(r"`([^`\n]+)`", section.replace(example, "")):
        key = re.fullmatch(r"(\w+)(?::.*)?", span)  # a backticked key, or key: value
        named.update([key[1]] if key else [])
    assert keys <= named, sorted(keys - named)
    assert not {"k", "zR", "split"} & named
