"""The process entry, ``tiltsense.__main__.main``, and the claim its GC policy rests on."""

import contextlib
import gc
import importlib
import io
import re
from pathlib import Path

import pytest

from output_pins import _inputs
from tiltsense.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _script_target():
    """The ``tiltsense`` entry of pyproject.toml's [project.scripts] table.

    Read by pattern, not tomllib, which Python 3.10 lacks.
    """
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    return re.search(r'^tiltsense\s*=\s*"([^"]+)"$', table, re.M).group(1)


def test_console_script_takes_the_entry():
    from tiltsense.__main__ import main as entry

    module, _, name = _script_target().partition(":")
    assert getattr(importlib.import_module(module), name) is entry


def _run_plan(plan, workdir):
    """Run a benchmark plan's commands in-process; the cyclic garbage they leave."""
    workdir.mkdir()
    config = workdir / "config.yaml"
    config.write_text(plan.config, encoding="utf-8")
    gc.collect()
    gc.disable()
    for command in plan.commands:
        argv = [arg.format(config=config, out=workdir / "out") for arg in command]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return gc.collect()


@pytest.mark.parametrize("workload", ["sweep-fisher", "montecarlo-mle", "coldstart-figures"])
def test_cyclic_garbage_does_not_grow_with_the_work(tmp_path, workload):
    # the entry never collects, which is safe only while what a command leaves
    # in reference cycles is fixed, whatever its rows or trials
    inputs = _inputs()
    tiny, full = inputs.make_plan(workload, 7, tiny=True), inputs.make_plan(workload, 7)
    enabled = gc.isenabled()
    try:
        # the first run also leaves the garbage of importing the layers it runs
        _run_plan(tiny, tmp_path / "warm")
        counts = [_run_plan(plan, tmp_path / name) for plan, name in ((tiny, "tiny"), (full, "full"))]
    finally:
        if enabled:
            gc.enable()
    assert counts[0] == counts[1]
