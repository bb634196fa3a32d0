import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltsense import config as config_module
from tiltsense.config import (
    ANGLE_UNITS,
    GRID_LIMIT,
    LENGTH_UNITS,
    NU_LIMIT,
    ConfigError,
    parse_config_text,
    parse_grid,
    parse_quantity,
)


def test_parse_quantity_units():
    assert parse_quantity("633nm", LENGTH_UNITS) == pytest.approx(633e-9, rel=1e-15)
    assert parse_quantity("1mm", LENGTH_UNITS) == pytest.approx(1e-3, rel=1e-15)
    assert parse_quantity("2 urad", ANGLE_UNITS) == pytest.approx(2e-6, rel=1e-15)
    assert parse_quantity("1.5µm", LENGTH_UNITS) == pytest.approx(1.5e-6, rel=1e-15)
    assert parse_quantity("90deg", ANGLE_UNITS) == pytest.approx(math.pi / 2, rel=1e-15)
    assert parse_quantity("-3e-2rad", ANGLE_UNITS) == pytest.approx(-0.03, rel=1e-15)
    assert parse_quantity(2.5, LENGTH_UNITS) == 2.5
    assert parse_quantity("42", LENGTH_UNITS) == 42.0


def test_parse_quantity_rayleigh_relative():
    assert parse_quantity("5z_R", {"z_R": 2.0}) == 10.0
    with pytest.raises(ConfigError, match="z_R"):
        parse_quantity("5z_R", LENGTH_UNITS)


@pytest.mark.parametrize("bad", ["1 parsec", "abc", "", "1..2mm", True, None, [1]])
def test_parse_quantity_rejects(bad):
    with pytest.raises(ConfigError):
        parse_quantity(bad, LENGTH_UNITS)


def test_parse_grid_forms():
    assert parse_grid(["1mm", "2mm"], LENGTH_UNITS).tolist() == [1e-3, 2e-3]
    lin = parse_grid({"start": 0, "stop": "1m", "count": 5}, LENGTH_UNITS)
    assert np.allclose(lin, np.linspace(0, 1, 5))
    assert parse_grid("3mm", LENGTH_UNITS).tolist() == [3e-3]


def test_parse_grid_rejects():
    with pytest.raises(ConfigError, match="nonempty"):
        parse_grid([], LENGTH_UNITS)
    with pytest.raises(ConfigError, match="increasing"):
        parse_grid(["2mm", "1mm"], LENGTH_UNITS)
    with pytest.raises(ConfigError, match="count"):
        parse_grid({"start": 0, "stop": 1, "count": 0}, LENGTH_UNITS)
    with pytest.raises(ConfigError, match="grid keys"):
        parse_grid({"start": 0, "stop": 1, "count": 3, "step": 1}, LENGTH_UNITS)


BASE = """
beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}
run:
  - {scheme: quadrant, theta: 0.0, z: [1z_R, 2z_R]}
"""


def test_parse_minimal_config():
    config = parse_config_text(BASE)
    assert config.beam.w0 == pytest.approx(1e-3)
    assert config.beam.xi == pytest.approx(1e-3)
    # default polarization is the diagonal state
    assert config.polarization.coherence_magnitude == pytest.approx(0.5)
    assert len(config.runs) == 1
    z = config.runs[0].z
    assert z[1] == pytest.approx(2 * config.beam.rayleigh_range)
    assert config.montecarlo is None
    assert config.raw_text == BASE


def test_beam_from_rayleigh_range():
    config = parse_config_text(
        "beam: {wavelength: 633nm, z_R: 1m}\nrun: {scheme: polarization, theta: 1urad}\n"
    )
    assert config.beam.rayleigh_range == pytest.approx(1.0, rel=1e-12)


def test_physical_value_errors_map_to_config_errors():
    with pytest.raises(ConfigError, match="waist"):
        parse_config_text("beam: {wavelength: 633nm, w0: -1mm}\n")
    with pytest.raises(ConfigError, match="wavenumber"):
        parse_config_text("beam: {wavelength: 1e-320m, w0: 1mm}\n")


def test_beam_validation_errors():
    with pytest.raises(ConfigError, match="w0 or z_R"):
        parse_config_text("beam: {wavelength: 633nm}\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_config_text("beam: {wavelength: 633nm, w0: 1mm, z_R: 1m}\n")
    with pytest.raises(ConfigError, match="needs wavelength"):
        parse_config_text("beam: {w0: 1mm}\n")
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config_text("beam: {wavelength: 633nm, w0: 1mm, waist: 2mm}\n")


BEAM = "beam: {wavelength: 633nm, w0: 1mm}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("beam: 5", "beam: expected a mapping"),
        (BEAM + "run: [5]", r"run\[0\]: expected a mapping"),
        (BEAM + "run: {scheme: position, bad: 1}", r"run\[0\]: unknown keys \['bad'\]"),
        (BEAM + "montecarlo: 5", "montecarlo: expected a mapping"),
        (BEAM + "montecarlo: {theta: 1urad, zz: 1}", r"montecarlo: unknown keys \['zz'\]"),
        (BEAM + "polarization: {polar: 1, q: 1}", r"polarization: unknown keys \['q'\]"),
    ],
)
def test_sections_refuse_other_shapes_and_keys(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)


def test_polarization_forms():
    config = parse_config_text(BASE + "polarization: circular\n")
    assert config.polarization.coherence_phase == pytest.approx(math.pi / 2)
    config = parse_config_text(BASE + "polarization: {polar: 90deg, azimuth: 0.5rad}\n")
    assert config.polarization.coherence_phase == pytest.approx(0.5)
    for name in ("elliptical", "plus"):  # the diagonal state's preset is `diagonal` only
        with pytest.raises(ConfigError, match=f"polarization: unknown preset '{name}'"):
            parse_config_text(BASE + f"polarization: {name}\n")


def test_run_block_validation():
    with pytest.raises(ConfigError, match="needs a z"):
        parse_config_text("beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: position, theta: 0}\n")
    with pytest.raises(ConfigError, match="independent of z"):
        parse_config_text(
            "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: polarization, theta: 0, z: 1m}\n"
        )
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config_text("beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: imaging, theta: 0}\n")
    with pytest.raises(ConfigError, match="split"):
        parse_config_text(
            "beam: {wavelength: 633nm, w0: 1mm}\n"
            "run: {scheme: position, theta: 0, z: 1m, split: 0}\n"
        )
    with pytest.raises(ConfigError, match=">= 0"):
        parse_config_text(
            "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: position, theta: 0, z: -1m}\n"
        )


def test_montecarlo_photon_count_from_energy():
    config = parse_config_text(
        BASE + "montecarlo: {theta: 1urad, energy: 1pJ, trials: 10, seed: 1}\n"
    )
    # nu = E lambda / (h c): one photon per hbar*omega
    expected = int(1e-12 * 633e-9 / (6.62607015e-34 * 299792458.0))
    assert config.montecarlo.nu == expected
    assert expected == 3186595


def test_montecarlo_validation():
    with pytest.raises(ConfigError, match="nu .*or energy"):
        parse_config_text(BASE + "montecarlo: {theta: 1urad}\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_config_text(BASE + "montecarlo: {theta: 1urad, nu: 10, energy: 1pJ}\n")
    # the search interval is derived from F and nu, never read from the config
    with pytest.raises(ConfigError, match=r"montecarlo: unknown keys \['interval'\]"):
        parse_config_text(BASE + "montecarlo: {theta: 1urad, nu: 100, interval: [0, 2urad]}\n")


def test_top_level_validation():
    with pytest.raises(ConfigError, match="missing 'beam'"):
        parse_config_text("run: {scheme: polarization, theta: 0}\n")
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config_text(BASE + "extra: 1\n")
    with pytest.raises(ConfigError, match="YAML"):
        parse_config_text("beam: {wavelength: [unclosed\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1e999", "1e999mm", "1e308z_R"])
def test_parse_quantity_rejects_non_finite(bad):
    with pytest.raises(ConfigError, match="theta: must be finite"):
        parse_quantity(bad, {**LENGTH_UNITS, "z_R": 10.0}, where="theta")


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_non_finite_config_values_name_the_field(value):
    with pytest.raises(ConfigError, match=r"montecarlo\.theta"):
        parse_config_text(BASE + f"montecarlo: {{theta: {value}, nu: 10}}\n")
    with pytest.raises(ConfigError, match=r"run\[0\]\.theta\[0\]"):
        parse_config_text(BASE.replace("theta: 0.0", f"theta: [{value}]"))


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "1.5", "abc"])
def test_montecarlo_seed_must_fit_a_uint64(seed):
    with pytest.raises(ConfigError, match=r"montecarlo\.seed"):
        parse_config_text(BASE + f"montecarlo: {{theta: 1urad, nu: 10, seed: {seed}}}\n")


def test_montecarlo_seed_limits_are_inclusive_exclusive():
    for seed in (0, 2 ** 64 - 1):
        config = parse_config_text(BASE + f"montecarlo: {{theta: 1urad, nu: 10, seed: {seed}}}\n")
        assert config.montecarlo.seed == seed


@pytest.mark.parametrize(
    "text, field",
    [
        ("montecarlo: {theta: 1urad, nu: 2.7}\n", r"montecarlo\.nu"),
        ("montecarlo: {theta: 1urad, nu: 10, trials: 3.5}\n", r"montecarlo\.trials"),
        ("montecarlo: {theta: 1urad, nu: 10, trials: .nan}\n", r"montecarlo\.trials"),
        ("montecarlo: {theta: 1urad, nu: 2m}\n", r"montecarlo\.nu"),
    ],
)
def test_integer_fields_are_not_truncated(text, field):
    with pytest.raises(ConfigError, match=field + ": expected a whole number"):
        parse_config_text(BASE + text)


def test_grid_count_must_be_whole():
    with pytest.raises(ConfigError, match=r"grid\.count: expected a whole number"):
        parse_grid({"start": 0, "stop": 1, "count": 2.5}, LENGTH_UNITS)
    assert parse_grid({"start": 0, "stop": 1, "count": 3.0}, LENGTH_UNITS).tolist() == [0.0, 0.5, 1.0]


def test_integral_values_are_accepted_in_every_form():
    config = parse_config_text(
        BASE + "montecarlo: {theta: 1urad, nu: 100.0, trials: '7', seed: 3}\n"
    )
    assert (config.montecarlo.nu, config.montecarlo.trials) == (100, 7)
    assert isinstance(config.montecarlo.nu, int)


def test_energy_derived_nu_keeps_its_floor():
    # 1.5 photons' worth of energy gives one photon
    photon = 6.62607015e-34 * 299792458.0 / 633e-9
    config = parse_config_text(BASE + f"montecarlo: {{theta: 1urad, energy: {1.5 * photon!r}}}\n")
    assert config.montecarlo.nu == 1


def test_energy_beyond_float_photon_count_names_the_field():
    with pytest.raises(ConfigError, match=r"montecarlo\.energy: .*beyond the float range"):
        parse_config_text(BASE + "montecarlo: {theta: 1urad, energy: 1e300J}\n")


def test_photon_count_above_nu_limit_names_the_field():
    config = parse_config_text(BASE + f"montecarlo: {{theta: 1urad, nu: {NU_LIMIT}}}\n")
    assert config.montecarlo.nu == NU_LIMIT
    for nu in (NU_LIMIT + 1, 10 ** 20):
        with pytest.raises(ConfigError, match=rf"montecarlo\.nu: {nu} photons per trial exceed"):
            parse_config_text(BASE + f"montecarlo: {{theta: 1urad, nu: {nu}}}\n")
    # 1e-9 J at 633 nm is about 3.2e9 photons
    with pytest.raises(ConfigError, match=r"montecarlo\.energy: \d+ photons per trial exceed"):
        parse_config_text(BASE + "montecarlo: {theta: 1urad, energy: 1nJ}\n")


def test_integer_quantity_beyond_float_range_names_the_field():
    huge = "1" + "0" * 400
    text = BASE.replace("theta: 0.0", f"theta: {huge}", 1)
    assert huge in text
    with pytest.raises(ConfigError, match=r"run\[0\]\.theta: must be finite"):
        parse_config_text(text)
    # past 4300 digits the YAML loader itself refuses the integer (Python >= 3.10.7)
    with pytest.raises(ConfigError, match=r"4300 digits|run\[0\]\.theta: must be finite"):
        parse_config_text(BASE.replace("theta: 0.0", "theta: 1" + "0" * 5000, 1))


def test_montecarlo_needs_two_trials():
    # an empirical variance needs two estimates
    for trials in (0, 1):
        with pytest.raises(ConfigError, match=rf"montecarlo\.trials: must be in \[2, inf\), got {trials}"):
            parse_config_text(BASE + f"montecarlo: {{theta: 1urad, nu: 100, trials: {trials}}}\n")
    config = parse_config_text(BASE + "montecarlo: {theta: 1urad, nu: 100, trials: 2}\n")
    assert config.montecarlo.trials == 2


@pytest.mark.parametrize(
    "size, field",
    [("w0: 1e-300m", "w0"), ("w0: 1e200m", "w0"), ("w0: 1e160m", "w0")],
)
def test_rayleigh_range_must_be_positive_and_finite(size, field):
    # k w0^2 / 2 underflows to 0 or overflows; every width divides by it
    with pytest.raises(ConfigError, match=rf"beam\.{field}: Rayleigh range k w0\^2/2 must be positive and finite"):
        parse_config_text(f"beam: {{wavelength: 633nm, {size}}}\n")


def test_overflowing_k_w0_names_the_field():
    # z_R is finite, but the quantum bound squares k w0 = 6.3e197
    with pytest.raises(ConfigError, match=r"beam\.w0: the quantum bound 16 k\^2 \(w0\^2/4 \+ xi\^2\) must be finite"):
        parse_config_text("beam: {wavelength: 1e-200m, w0: 1mm}\n")


@pytest.mark.parametrize("scheme", ["position", "quadrant", "polarization", "joint"])
def test_tilt_limit_names_the_field(scheme):
    # k w0 = 1e7 and 4 k xi = 4e7: the displacement phase 4 k |xi| |theta| reaches 1e150
    # at 2.5e142 rad, and the tilt's part 4 k w0 k w0 |theta| of the joint scheme's phase
    # rate at 2.5e135 rad
    beam = "beam: {wavelength: 6.283185307179586e-07m, w0: 1m, xi: 1m}\n"  # k = 2 pi/wavelength = 1e7
    z = "" if scheme == "polarization" else ", z: 1z_R"
    edge = 2.5e135 if scheme == "joint" else 2.5e142
    below, beyond = edge * (1.0 - 1e-15), edge * (1.0 + 1e-15)
    parse_config_text(beam + f"run: {{scheme: {scheme}, theta: [{-below!r}, {below!r}]{z}}}\n")
    message = re.escape(f"run[0].theta: {beyond!r} rad is past the tilts the {scheme} scheme")
    with pytest.raises(ConfigError, match=f"^{message}"):
        parse_config_text(beam + f"run: {{scheme: {scheme}, theta: [0, {beyond!r}]{z}}}\n")
    with pytest.raises(ConfigError, match=r"^montecarlo\.theta: .* above 1e\+150$"):
        parse_config_text(
            beam + f"run: {{scheme: {scheme}, theta: 0{z}}}\nmontecarlo: {{theta: {-beyond!r}, nu: 10}}\n"
        )


def test_joint_phase_rate_past_the_limit_names_the_beam():
    # with k = 1e7 and xi = 0 the joint phase rate's tilt-free part 4 k (10 w0 + |xi|)
    # reaches 1e150 at w0 = 2.5e141 m; past it every tilt of a joint block is refused,
    # theta = 0 included, and the beam is named; other schemes parse there
    edge = 2.5e141
    below, beyond = edge * (1.0 - 1e-15), edge * (1.0 + 1e-15)
    run = "run: {scheme: joint, theta: 0, z: 1z_R}\n"
    wavelength = "wavelength: 6.283185307179586e-07m"  # k = 1e7
    parse_config_text(f"beam: {{{wavelength}, w0: {below!r}}}\n" + run)
    parse_config_text(f"beam: {{{wavelength}, w0: {beyond!r}}}\nrun: {{scheme: position, theta: 0, z: 1z_R}}\n")
    with pytest.raises(ConfigError, match=r"^beam: .* above 1e\+150, at every tilt of the joint scheme of run\[0\]$"):
        parse_config_text(f"beam: {{{wavelength}, w0: {beyond!r}}}\n" + run)


@pytest.mark.parametrize("size", ["z_R: 1e-300m", "w0: 1e-160m"])
def test_z_far_past_the_rayleigh_range_parses(size):
    # at w0 = 1e-160 m z_R is subnormal, and z/z_R overflows at 1 m; the models take
    # the plane as the ratios w0/w and (z/z_R) w0/w, so any z >= 0 is a plane
    text = f"beam: {{wavelength: 633nm, {size}}}\nrun: {{scheme: position, theta: 1urad, z: [0, 1e-170m, 1m]}}\n"
    config = parse_config_text(text)
    assert config.runs[0].z.tolist() == [0.0, 1e-170, 1.0]
    c, s, w = config.beam.plane(1.0)
    assert s == 1.0 and 0.0 < c < 1e-299 and math.isfinite(w)


@pytest.mark.parametrize("source", ["wavelength: 1e-320m"])
def test_wavelength_without_a_finite_wavenumber_names_the_field(source):
    with pytest.raises(ConfigError, match=rf"beam\.{source.split(':')[0]}: gives no finite wavenumber"):
        parse_config_text(f"beam: {{{source}, w0: 1mm}}\n")


def _log_uniform(low_exponent, high_exponent):
    return st.builds(
        lambda sign, exponent, mantissa: sign * mantissa * 10.0 ** exponent,
        st.sampled_from([-1.0, 1.0]),
        st.integers(low_exponent, high_exponent),
        st.floats(1.0, 10.0, exclude_max=True),
    )


grid_ends = st.one_of(
    # ends spread over many decades, ordered so that most grids are accepted
    st.tuples(_log_uniform(-300, 300), _log_uniform(-300, 300)).map(sorted),
    # a few subnormals apart: the spacing underflows to 0 (numpy's step == 0 branch)
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)).map(lambda n: (n[0] * 5e-324, n[1] * 5e-324)),
    # opposite signs near the float limit: stop - start overflows
    st.tuples(st.floats(1e307, 1.7e308), st.floats(1e307, 1.7e308)).map(lambda m: (-m[0], m[1])),
)


@settings(max_examples=300, deadline=None)
@given(grid_ends, st.integers(1, 2000))
@example((-1.5e308, 1.5e308), 1)
@example((-1.5e308, 1.5e308), 2)
def test_start_stop_count_grid_is_numpy_linspace_bit_for_bit(ends, count):
    start, stop = ends
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, count)
        increasing = bool(np.all(np.diff(expected) > 0.0))
    assert config_module.linspace(start, stop, count).tobytes() == expected.tobytes()
    spec = {"start": start, "stop": stop, "count": count}
    if not increasing:
        with pytest.raises(ConfigError, match="grid: grid must be strictly increasing"):
            parse_grid(spec, LENGTH_UNITS)
    elif not np.isfinite(expected).all():
        # a lone point of an overflowing stop - start is nan in numpy
        with pytest.raises(ConfigError, match="grid: stop - start overflows the float range"):
            parse_grid(spec, LENGTH_UNITS)
    else:
        assert parse_grid(spec, LENGTH_UNITS).tobytes() == expected.tobytes()


def test_grid_count_above_the_limit_names_the_field():
    text = "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: position, theta: 0, z: %s}\n"
    grid = "{start: 1z_R, stop: 2z_R, count: %d}"
    message = rf"run\[0\]\.z\.count: 1000000000000 points exceed the limit of {GRID_LIMIT}\b"
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text % (grid % 10 ** 12))
    config = parse_config_text(text % (grid % GRID_LIMIT))
    assert len(config.runs[0].z) == GRID_LIMIT
