"""The config reader against PyYAML's ``BaseLoader``, and the configs it reads
against PyYAML's ``safe_load``, which it replaces.

Every config inside the reader's part of YAML reads to the data that
``BaseLoader`` gives, the text of each scalar, except that an empty value reads
as None; every form outside it is refused with exit code 2 and a line and
column.  The field parsers are then the one grammar of a config's numbers: each
config parses to the same ``ScenarioConfig``, bit for bit, as it did when
``safe_load`` resolved its scalars first, or both ways refuse it; and the
spellings that only YAML 1.1 gave a meaning exit 2 naming their field.
"""

import ast
import math
import struct
from array import array
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from output_pins import _inputs as perfbench_inputs

from tiltsense import config as config_module
from tiltsense.cli import main
from tiltsense.config import (
    ANGLE_UNITS,
    LENGTH_UNITS,
    ConfigError,
    parse_config_text,
    parse_quantity,
    read_yaml,
)

ROOT = Path(__file__).resolve().parents[1]


def same(a, b):
    """Equal data of equal types, with NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[key], b[key]) for key in a)
    return a == b


class _BaseLoader(yaml.BaseLoader):
    """PyYAML's ``BaseLoader``, with an empty value (an empty plain scalar) as None."""

    def construct_scalar(self, node):
        if node.style is None and not node.value:
            return None
        return super().construct_scalar(node)


def assert_reads_as_pyyaml(text):
    assert same(read_yaml(text), yaml.load(text, Loader=_BaseLoader)), text


@pytest.mark.parametrize(
    "text, value",
    [
        ("1e-6", "1e-6"),  # YAML 1.1 floats need a dot and a signed exponent
        ("1.0e6", "1.0e6"),
        ("1.0e+6", 1.0e6),
        ("6.33e-07", 6.33e-07),
        (".5", 0.5),
        ("1.", 1.0),
        ("+.5", "+.5"),
        ("08", "08"),
        ("010", 8),
        ("-010", -8),
        ("0x1A", 26),
        ("0b101", 5),
        ("1_000", 1000),
        ("-0", 0),
        ("1" + "0" * 400, 10 ** 400),
        ("yes", True),
        ("On", True),
        ("NO", False),
        ("~", None),
        ("null", None),
        ("", None),
        (".inf", math.inf),
        ("-.inf", -math.inf),
        (".NaN", math.nan),
        ("633nm", "633nm"),
        ("1 urad", "1 urad"),
        ("'010'", "010"),
        ("'it''s'", "it's"),
    ],
)
def test_scalars_resolve_as_yaml_1_1(text, value):
    """``value`` is what YAML 1.1 resolves the scalar to.  The reader keeps its text, and a
    quantity field reads the text as it read ``value``, or refuses it: one spelling changes
    value, and the spellings with a leading zero, a base prefix or an underscore are refused."""
    document = f"a: {text}\n"
    assert same(yaml.safe_load(document), {"a": value})
    assert_reads_as_pyyaml(document)
    scalar = read_yaml(document)["a"]

    def quantity(data):
        try:
            return struct.pack("<d", parse_quantity(data, {**LENGTH_UNITS, **ANGLE_UNITS}, where="a"))
        except ConfigError:
            return None

    if text == "-0":
        assert quantity(scalar) == struct.pack("<d", -0.0) != quantity(value)
    elif text in ("010", "-010", "0x1A", "0b101", "1_000"):
        assert quantity(value) is not None and quantity(scalar) is None
    else:
        assert quantity(scalar) == quantity(value)


def test_empty_documents_read_as_none():
    for text in ("", "\n\n", "# a comment\n", "  # indented\n\n# two\n"):
        assert read_yaml(text) is None
        assert_reads_as_pyyaml(text)


@pytest.mark.parametrize("name", ["scenario.sample.yaml", "montecarlo.sample.yaml"])
def test_reader_reads_the_sample_files_as_pyyaml_does(name):
    assert_reads_as_pyyaml((ROOT / name).read_text(encoding="utf-8"))


def _config_strings():
    """Every string literal in tests/ that PyYAML reads as a config mapping."""
    sections = {"beam", "polarization", "run", "montecarlo"}
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name == Path(__file__).name:  # the refused forms below
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            try:
                data = yaml.safe_load(node.value)
            except (yaml.YAMLError, ValueError):
                continue
            if isinstance(data, dict) and data and set(data) <= sections:
                found.append(node.value)
    return found


def test_reader_reads_every_config_string_in_the_tests_as_pyyaml_does():
    texts = _config_strings()
    assert len(texts) >= 40
    for text in texts:
        assert_reads_as_pyyaml(text)


def test_reader_reads_the_benchmark_configs_as_pyyaml_does():
    inputs = perfbench_inputs()  # perfbench/inputs.py, loaded by path
    for workload in inputs.WORKLOADS:
        for seed in range(21):
            assert_reads_as_pyyaml(inputs.make_plan(workload, seed).config)


def _bits(value):
    """``value`` with each float as its bytes, so that == compares configs bit for bit."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, complex):
        return _bits(value.real), _bits(value.imag)
    if isinstance(value, array):
        return value.tobytes()
    if isinstance(value, tuple):  # the config's records, by type and field
        return type(value).__name__, *map(_bits, value)
    return value


def _parsed(text):
    try:
        return _bits(parse_config_text(text))
    except ConfigError:
        return "refused"


def test_configs_parse_as_when_safe_load_read_them(monkeypatch):
    # every config string of the tests, both samples and the benchmark's configs: the
    # field parsers read the reader's text as they read the values that safe_load
    # resolved, or both ways refuse the config
    inputs = perfbench_inputs()
    texts = [
        *_config_strings(),
        *((ROOT / f"{name}.sample.yaml").read_text(encoding="utf-8") for name in ("scenario", "montecarlo")),
        *(inputs.make_plan(workload, seed).config for workload in inputs.WORKLOADS for seed in range(21)),
    ]
    shipped = [_parsed(text) for text in texts]
    monkeypatch.setattr(config_module, "read_yaml", yaml.safe_load)
    for text, parsed in zip(texts, shipped):
        assert parsed == _parsed(text), text
    assert sum(parsed != "refused" for parsed in shipped) >= 100


# -- generated configs ---------------------------------------------------------

# plain scalars that YAML 1.1 resolves in surprising ways; the reader keeps their text
SURPRISES = [
    "1e-6", "1.0e6", "1.0e+6", "6.33e-07", ".5", "1.", "+.5", "-.5", "08", "010", "0x1A",
    "0b101", "1_000", "-1_0.5_0", "+12", "0", "-0", "00", "yes", "No", "On", "OFF", "true",
    "FALSE", "~", "null", "Null", ".nan", ".NaN", ".inf", "-.Inf", "+.INF", "1urad",
    "633 nm", "0.5z_R", "-3e-2rad", "a:b", "http://x.org/a#b", "a-b", "-x", "x y  z",
    "1" + "0" * 30, "-0x_F_f", "1:30", "2001-01-01", "2001-12-14 21:59:43.10 -5", "<<", "=",
]

plain_scalars = st.one_of(
    st.sampled_from(SURPRISES),
    st.builds(
        lambda sign, words: sign + " ".join(words),
        st.sampled_from(["", "-", "+"]),
        st.lists(st.text("0123456789._+eExbAaNnz-", min_size=1, max_size=6), min_size=1, max_size=3),
    ).filter(lambda text: text != "-" and text[:2] != "- "),  # not a sequence entry
)
single_quoted = st.text(st.sampled_from(list("az09 .:#,[]{}-?&*!|>'\"%@`\\µé")), max_size=8).map(
    lambda text: "'" + text.replace("'", "''") + "'"
)
# double quotes hold no backslash, so no escape
double_quoted = st.text(st.sampled_from(list("az09 .:#,[]{}-?&*!|>'%@`µé")), max_size=8).map(
    lambda text: '"' + text + '"'
)
scalars = st.one_of(plain_scalars, single_quoted, double_quoted)


def keyed(min_size, *values):
    """Entries (key, one draw of each of ``values``) under distinct keys, each key plain,
    single-quoted or double-quoted; the values are drawn per key, so none is drawn in vain."""
    names = st.lists(st.from_regex(r"k[a-z0-9_]{0,5}", fullmatch=True), min_size=min_size, max_size=4, unique=True)
    styles = st.sampled_from(["{}", "'{}'", '"{}"'])
    return names.flatmap(lambda names: st.tuples(*(
        st.tuples(styles.map(lambda style, name=name: style.format(name)), *values) for name in names
    )))


separators = st.sampled_from([", ", ",", " , ", ",\n    ", ",  # note\n  "])


def flow(children):
    """Flow sequences and mappings of ``children``, some with a trailing comma."""
    sequences = st.builds(
        lambda items, sep, trailing: "[" + sep.join(items) + ("," if trailing and items else "") + "]",
        st.lists(children, max_size=4), separators, st.booleans(),
    )
    mappings = st.builds(
        lambda entries, sep: "{" + sep.join(f"{k}: {v}" for k, v in entries) + "}",
        keyed(0, children), separators,
    )
    return st.one_of(sequences, mappings)


# "" leaves a mapping value or a sequence entry empty, which reads as None
leaves = st.one_of(st.recursive(scalars, flow, max_leaves=8), st.just("")).map(lambda text: ("leaf", text))
comments = st.sampled_from(["", " # c", "   #: c, [x]", "\n# full line", "\n\n", "\n      # deeper"])


def block(children):
    """Block sequences of (child, compact) and mappings of (key, (child, comment, at_key_column))."""
    return st.one_of(
        st.tuples(st.just("seq"), st.lists(st.tuples(children, st.booleans()), min_size=1, max_size=3)),
        keyed(1, children, comments, st.booleans()).map(
            lambda entries: ("map", [(key, tuple(rest)) for key, *rest in entries])
        ),
    )


def render(node, indent):
    """The lines of a block collection whose entries start at column ``indent``."""
    kind, body = node
    pad, lines = " " * indent, []
    if kind == "seq":
        for child, compact in body:
            if child[0] == "leaf":
                lines.append(f"{pad}- {child[1]}".rstrip())
            elif compact:  # "- key: value" and "- - item" start the child on the entry's line
                first, *rest = render(child, indent + 2)
                lines += [f"{pad}- {first.lstrip()}", *rest]
            else:
                lines += [f"{pad}-", *render(child, indent + 2)]
    else:
        for key, (child, comment, at_key_column) in body:
            if child[0] == "leaf":
                lines.append(f"{pad}{key}: {child[1]}".rstrip() + comment)
            else:
                lines.append(f"{pad}{key}:{comment}")
                # a sequence below its key may start at the key's own column
                lines += render(child, indent if at_key_column and child[0] == "seq" else indent + 2)
    return lines


documents = st.builds(
    lambda node, indent: node[1] if node[0] == "leaf" else "\n".join(render(node, indent)) + "\n",
    st.recursive(leaves, block, max_leaves=10), st.sampled_from([0, 0, 1, 2]),
)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_reader_reads_generated_configs_as_pyyaml_does(text):
    assert_reads_as_pyyaml(text)


# -- refused forms -------------------------------------------------------------

BEAM = "beam: {wavelength: 633nm, w0: 1mm}\n"


@pytest.mark.parametrize(
    "text, line, column",
    [
        pytest.param("beam: &b {wavelength: 633nm, w0: 1mm}\n", 1, 7, id="anchor"),
        pytest.param(BEAM + "polarization: *p\n", 2, 15, id="alias"),
        pytest.param("beam: !!map {wavelength: 633nm, w0: 1mm}\n", 1, 7, id="tag"),
        pytest.param("---\n" + BEAM, 1, 1, id="document-start"),
        pytest.param(BEAM + "...\n", 2, 1, id="document-end"),
        pytest.param(BEAM + "polarization: |\n  diagonal\n", 2, 15, id="literal-block-scalar"),
        pytest.param(BEAM + "polarization: >\n  diagonal\n", 2, 15, id="folded-block-scalar"),
        pytest.param(BEAM + "polarization: diag\n  onal\n", 3, 3, id="multi-line-plain-scalar"),
        pytest.param(BEAM + "polarization: 'diag\n  onal'\n", 2, 15, id="multi-line-quoted-scalar"),
        pytest.param("beam:\n\twavelength: 633nm\n", 2, 1, id="tab-indentation"),
        pytest.param(BEAM + 'polarization: "diag\\tonal"\n', 2, 15, id="double-quoted-backslash"),
        pytest.param("beam: {wavelength: [unclosed\n", 2, 1, id="unclosed-flow"),
    ],
)
def test_refused_forms_exit_2_with_line_and_column(tmp_path, capsys, text, line, column):
    config = tmp_path / "config.yaml"
    config.write_text(text, encoding="utf-8")
    assert main(["validate-config", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"not valid YAML: line {line}, column {column}: " in err
    assert "Traceback" not in err


MONTECARLO = BEAM + "run: {scheme: polarization, theta: 0}\nmontecarlo: "


@pytest.mark.parametrize(
    "text, field",
    [
        pytest.param(MONTECARLO + "{theta: 1:30, nu: 10}\n", "montecarlo.theta", id="sexagesimal"),
        pytest.param(MONTECARLO + "{theta: 1urad, nu: 10, seed: 2001-01-01}\n", "montecarlo.seed", id="date"),
        pytest.param(MONTECARLO + "{theta: 1urad, nu: 0x10}\n", "montecarlo.nu", id="hexadecimal"),
        pytest.param(MONTECARLO + "{theta: 1urad, nu: 10, seed: 010}\n", "montecarlo.seed", id="octal"),
        pytest.param(MONTECARLO + "{theta: 1urad, nu: 10, trials: 0b11}\n", "montecarlo.trials", id="binary"),
        pytest.param(MONTECARLO + "{theta: 1urad, nu: 1_000}\n", "montecarlo.nu", id="underscore"),
        pytest.param(MONTECARLO + "{theta: 010urad, nu: 10}\n", "montecarlo.theta", id="leading-zero"),
        pytest.param(MONTECARLO + "{theta: 1urad, nu: '08'}\n", "montecarlo.nu", id="quoted-leading-zero"),
        pytest.param("beam: {wavelength: 633nm, w0: 00.5mm}\n", "beam.w0", id="leading-zero-decimal"),
        pytest.param(BEAM + "polarization: {polar: yes}\n", "polarization.polar", id="yes"),
        pytest.param(BEAM + "polarization: {azimuth: Off}\n", "polarization.azimuth", id="off"),
        pytest.param(MONTECARLO + "{theta: 1urad, nu: TRUE}\n", "montecarlo.nu", id="true"),
        pytest.param(BEAM + "polarization: null\n", "polarization", id="null"),
        pytest.param(BEAM + "polarization: ~\n", "polarization", id="tilde"),
        pytest.param(BEAM + "run: {scheme: polarization, theta: ~}\n", "run[0].theta", id="tilde-quantity"),
        pytest.param(
            BEAM + "run: {scheme: polarization, theta: {start: 0, stop: 1urad, count: no}}\n",
            "run[0].theta.count", id="no",
        ),
        pytest.param("beam: {wavelength: 633nm, w0: 1mm, <<: {xi: 1mm}}\n", "beam", id="merge-key"),
        pytest.param(BEAM + "polarization: {=: 1}\n", "polarization", id="value-key"),
    ],
)
def test_retired_spellings_exit_2_naming_their_field(tmp_path, capsys, text, field):
    config = tmp_path / "config.yaml"
    config.write_text(text, encoding="utf-8")
    assert main(["validate-config", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1, err


# pieces of YAML syntax, valid and not, for arbitrary texts
PIECES = list(" \n\t-:?,[]{}#&*!|>'\"%@`\\~.0189abexN_+=<\r\x85\ufeff") + [
    "---", "...", "beam:", "run:", "- ", ": ", "\n  ", "\\x4", "\\u00e",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_any_text_reads_or_raises_a_config_error(text):
    # parse_config_text turns only these into exit 2; anything else would be a traceback
    try:
        parse_config_text(text)
    except ConfigError:
        pass


def test_deep_nesting_exits_2(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("beam: " + "[" * 5000 + "]" * 5000 + "\n", encoding="utf-8")
    assert main(["validate-config", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "not valid YAML: collections nested too deeply" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, key, line",
    [
        pytest.param(
            BEAM + "run:\n  - scheme: polarization\n    theta: 1urad\n    theta: 2urad\n", "theta", 5,
            id="block",
        ),
        pytest.param(BEAM + "montecarlo: {theta: 1urad, nu: 10, nu: 20}\n", "nu", 2, id="flow"),
        pytest.param(BEAM + "beam: {wavelength: 633nm, w0: 2mm}\n", "beam", 2, id="top-level"),
    ],
)
def test_duplicate_keys_are_refused(tmp_path, capsys, text, key, line):
    # PyYAML keeps the last value without a word, dropping the first
    config = tmp_path / "config.yaml"
    config.write_text(text, encoding="utf-8")
    assert main(["validate-config", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"not valid YAML: line {line}, " in err
    assert f"duplicate key {key!r}" in err
