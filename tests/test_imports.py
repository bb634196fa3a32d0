"""Each CLI command loads only the layers it runs.

Every check that imports runs in a fresh interpreter: this one has already
imported numpy and every tiltsense module.  The layering check parses the
source instead, so that it also sees imports on paths no test runs.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """
beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}
run:
  - {scheme: position, theta: 1urad, z: 1z_R}
  - {scheme: polarization, theta: 1urad}
montecarlo: {theta: 1urad, nu: 10000, trials: 20, seed: 7}
"""

# runs cli.main on the arguments after -c, then prints its exit code and the loaded modules
RUN_MAIN = (
    "import json, sys; from tiltsense.cli import main; code = main(sys.argv[1:]); "
    "print(json.dumps([code, sorted(sys.modules)]))"
)


def _python(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, cwd=cwd
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _tiltsense_modules(modules):
    return {name.partition(".")[2] for name in modules if name.startswith("tiltsense.")}


def _run_command(tmp_path, *argv):
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG, encoding="utf-8")
    code, modules = _python(RUN_MAIN, *argv, "--config", str(config), cwd=tmp_path)
    assert code == 0
    return modules


def test_validate_config_loads_no_numpy(tmp_path):
    modules = _run_command(tmp_path, "validate-config")
    assert "numpy" not in modules
    assert _tiltsense_modules(modules) <= {"cli", "config", "output", "beam", "polarization"}


@pytest.mark.parametrize(
    "command, absent",
    [
        ("figure3", {"schemes", "estimate", "oracle", "_integrate"}),
        ("figure4", {"schemes", "estimate", "oracle", "_integrate"}),
        ("sweep", {"estimate", "svgplot"}),
        ("montecarlo", {"svgplot", "oracle"}),
    ],
)
def test_command_loads_only_its_layers(tmp_path, command, absent):
    modules = _run_command(tmp_path, command, "--out", str(tmp_path / "out"))
    assert not _tiltsense_modules(modules) & absent


SOURCE = ROOT / "src" / "tiltsense"

# each module, and the modules it must not reach through any chain of imports
LAYERS = {
    "schemes": {"oracle", "estimate", "cli"},  # so montecarlo, which runs no oracle, loads none
    "fisher": {"schemes", "oracle", "estimate", "cli"},  # the closed forms know no scheme model
    "oracle": {"schemes", "fisher", "estimate", "cli"},  # it checks the models, and uses none
    "_integrate": {"schemes", "fisher", "oracle", "estimate", "cli"},
}


def _imports(module):
    """The tiltsense modules that ``module``'s source imports, in function bodies too."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["tiltsense" if node.level else "", node.module]))
            names.update([base] + [f"{base}.{alias.name}" for alias in node.names])
    parts = (name.split(".") for name in names)
    return {p[1] for p in parts if p[0] == "tiltsense" and len(p) > 1 and (SOURCE / f"{p[1]}.py").exists()}


def _reach(module):
    seen, todo = set(), [module]
    while todo:
        for name in _imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_module_layers_point_one_way():
    # the parse sees what is there: a module-level and a function-local import
    assert "fisher" in _imports("schemes") and "oracle" in _imports("cli")
    reached = {module: _reach(module) & forbidden for module, forbidden in LAYERS.items()}
    assert reached == {module: set() for module in LAYERS}


@pytest.mark.parametrize("command", ["sweep", "montecarlo"])
def test_quadrature_loads_no_numpy_polynomial(tmp_path, command):
    # the Gauss-Legendre nodes are a stored table, not np.polynomial.legendre.leggauss
    modules = _run_command(tmp_path, command, "--out", str(tmp_path / "out"))
    assert "tiltsense._integrate" in modules
    assert not [name for name in modules if name.startswith("numpy.polynomial")]


def test_sweep_starts_no_worker_pool(tmp_path):
    # --threads is accepted and read by no command; rows are computed in order
    modules = _run_command(tmp_path, "sweep", "--threads", "4", "--out", str(tmp_path / "out"))
    assert "concurrent.futures" not in modules


@pytest.mark.parametrize("command", ["validate-config", "figure3", "figure4"])
def test_cold_start_commands_load_no_dataclasses_or_inspect(tmp_path, command):
    # the records are named tuples and plain classes: dataclasses imports inspect
    # and compiles generated source for each class, a cost every command paid
    argv = (command,) if command == "validate-config" else (command, "--out", str(tmp_path / "out"))
    modules = _run_command(tmp_path, *argv)
    assert not {"dataclasses", "inspect"} & set(modules)


@pytest.mark.parametrize("command", ["figure3", "figure4"])
def test_figures_load_no_numpy(tmp_path, command):
    modules = _run_command(tmp_path, command, "--out", str(tmp_path / "out"))
    assert "numpy" not in modules


# makes every import of numpy raise ImportError, as on a host without it
BLOCK_NUMPY = """
import sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockNumpy())
"""


@pytest.mark.parametrize("command", ["figure3", "figure4"])
def test_figures_run_where_numpy_cannot_be_imported(tmp_path, command):
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    argv = (command, "--config", str(config), "--out", str(out))
    code, _ = _python(BLOCK_NUMPY + RUN_MAIN, *argv, cwd=tmp_path)
    assert code == 0
    assert len(list(out.glob(f"{command}?.svg"))) == (2 if command == "figure3" else 4)


def test_importing_the_entry_runs_nothing():
    # the module once ran the CLI on import: argparse exited 2 with its usage text
    code = (
        "import gc, json, pydoc, tiltsense.__main__; pydoc.render_doc('tiltsense.__main__'); "
        "print(json.dumps([gc.isenabled(), gc.get_freeze_count()]))"
    )
    assert _python(code) == [True, 0]


def test_config_module_loads_no_numpy():
    modules = _python("import json, sys, tiltsense.config; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in modules


def test_package_exports_resolve_on_first_use():
    # names in __all__ that do not resolve, and names in __all__ missing from dir()
    unresolved, unlisted = _python(
        "import json, tiltsense; "
        "unresolved = [n for n in tiltsense.__all__ if getattr(tiltsense, n, None) is None]; "
        "print(json.dumps([unresolved, sorted(set(tiltsense.__all__) - set(dir(tiltsense)))]))"
    )
    assert unresolved == [] and unlisted == []


def test_unexpected_error_in_validate_config_is_not_a_name_error(tmp_path):
    # main's exit-3 handler names classes of layers that validate-config never loads
    code = (
        "import json, sys, tiltsense.cli as cli\n"
        "def broken(path):\n"
        "    raise RuntimeError('synthetic')\n"
        "cli.load_config = broken\n"
        "try:\n"
        "    cli.main(['validate-config', '--config', 'missing.yaml'])\n"
        "except Exception as exc:\n"
        "    print(json.dumps([type(exc).__name__, 'numpy' in sys.modules]))\n"
    )
    assert _python(code, cwd=tmp_path) == ["RuntimeError", False]


# every command with the arguments it runs on in the checks below
COMMANDS = {
    "validate-config": (),
    "sweep": ("--out", "out"),
    "montecarlo": ("--out", "out"),
    "figure3": ("--out", "out"),
    "figure4": ("--out", "out"),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_do_not_import_yaml(tmp_path, command):
    # configs are read by tiltsense.config's own reader
    modules = _run_command(tmp_path, command, *COMMANDS[command])
    assert "yaml" not in modules


# runs cli.main like RUN_MAIN, and prints the modules it loaded beyond those of start-up
RUN_MAIN_NEW_MODULES = (
    "import json, sys; before = set(sys.modules); from tiltsense.cli import main; "
    "code = main(sys.argv[1:]); print(json.dumps([code, sorted(set(sys.modules) - before)]))"
)


@pytest.mark.parametrize("command", ["validate-config", "figure3", "figure4"])
def test_cold_start_commands_load_only_the_standard_library(tmp_path, command):
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG, encoding="utf-8")
    argv = (command, "--config", str(config), *COMMANDS[command])
    code, modules = _python(RUN_MAIN_NEW_MODULES, *argv, cwd=tmp_path)
    assert code == 0
    outside = {
        name for name in modules
        if name.partition(".")[0] not in sys.stdlib_module_names and name.partition(".")[0] != "tiltsense"
    }
    assert outside == set()


# every command on the sample configs, in an interpreter where `import yaml` raises
# ImportError, as on a host without PyYAML; prints each command's exit code
RUN_WITHOUT_YAML = """
import json, sys
sys.modules["yaml"] = None
from tiltsense.cli import main
scenario, montecarlo = sys.argv[1:]
runs = [
    ["validate-config", "--config", scenario],
    ["validate-config", "--config", montecarlo],
    ["sweep", "--config", scenario, "--out", "out"],
    ["montecarlo", "--config", montecarlo, "--out", "out"],
    ["figure3", "--config", scenario, "--out", "out"],
    ["figure4", "--config", montecarlo, "--out", "out"],
]
print(json.dumps([main(argv) for argv in runs]))
"""


def test_commands_run_where_yaml_cannot_be_imported(tmp_path):
    samples = (str(ROOT / "scenario.sample.yaml"), str(ROOT / "montecarlo.sample.yaml"))
    assert _python(RUN_WITHOUT_YAML, *samples, cwd=tmp_path) == [0] * 6
    tables = {"sweep", "montecarlo", "figure3a", "figure3b"} | {f"figure4{p}" for p in "abcd"}
    assert {path.stem for path in (tmp_path / "out").glob("*.csv")} == tables


# runs the process entry on the arguments after -c, then prints its exit code and the loaded modules
RUN_ENTRY = """
import json, sys
from tiltsense.__main__ import main
try:
    main()
except SystemExit as exc:
    print(json.dumps([exc.code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("command", ["validate-config", "figure4", "montecarlo"])
def test_entry_loads_nothing_beyond_the_command(tmp_path, command):
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG, encoding="utf-8")
    argv = (command, "--config", str(config), *COMMANDS[command])
    code, through_entry = _python(RUN_ENTRY, *argv, cwd=tmp_path)
    assert code == 0
    code, through_main = _python(RUN_MAIN, *argv, cwd=tmp_path)
    assert code == 0
    # gc is compiled into the interpreter: importing it reads no file
    assert set(through_entry) - set(through_main) == {"gc", "tiltsense.__main__"}
    assert "gc" in sys.builtin_module_names
