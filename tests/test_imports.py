"""Each CLI command loads only the layers it runs.

Every check runs in a fresh interpreter: this one has already imported numpy
and every tiltsense module.
"""

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
        ("montecarlo", {"svgplot"}),
    ],
)
def test_command_loads_only_its_layers(tmp_path, command, absent):
    modules = _run_command(tmp_path, command, "--out", str(tmp_path / "out"))
    assert not _tiltsense_modules(modules) & absent


def test_sweep_starts_no_worker_pool(tmp_path):
    # --threads is accepted and read by no command; rows are computed in order
    modules = _run_command(tmp_path, "sweep", "--threads", "4", "--out", str(tmp_path / "out"))
    assert "concurrent.futures" not in modules


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
