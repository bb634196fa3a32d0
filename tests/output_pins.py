"""Runs the CLI on a fixed set of configs and hashes every file it writes.

The cases are the two sample configs, the benchmark's three workload configs
at seed 7 and the default figures.  ``hashes`` gives the sha256 of each CSV
and SVG, and of each ``meta.json`` with its ``argv`` (which names temporary
paths) removed.  ``tests/test_output_pins.py`` compares them with
``output_pins.json``.  After a change that is meant to move an output, rewrite
the pins with

    PYTHONPATH=src python tests/output_pins.py

which prints, before it writes, one line per pin whose hash changes (or
``no pin moved``), and say in CHANGES.md which pin moved and why.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from tiltsense.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).with_name("output_pins.json")

SWEEP = ["sweep", "--config", "{config}", "--out", "{out}"]
MONTECARLO = ["montecarlo", "--config", "{config}", "--out", "{out}"]
FIGURES = [["figure3", "--out", "{out}"], ["figure4", "--out", "{out}"]]


def _inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def cases():
    """{case: (config text or None, argv templates)}, {config}/{out} filled in per run."""
    inputs = _inputs()
    out = {
        "scenario.sample": ((ROOT / "scenario.sample.yaml").read_text(encoding="utf-8"), [SWEEP]),
        "montecarlo.sample": (
            (ROOT / "montecarlo.sample.yaml").read_text(encoding="utf-8"), [MONTECARLO],
        ),
    }
    for workload in inputs.WORKLOADS:
        plan = inputs.make_plan(workload, 7)
        out[workload] = (plan.config, plan.commands)
    out["figures-default"] = (None, FIGURES)
    return out


def _digest(path):
    data = path.read_bytes()
    if path.name.endswith(".meta.json"):
        meta = json.loads(data)
        del meta["argv"]
        data = json.dumps(meta, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def hashes(case, workdir):
    """{file name: sha256} of what the case's commands write into ``workdir``/out."""
    config_text, commands = cases()[case]
    workdir = Path(workdir)
    config = workdir / "config.yaml"
    if config_text is not None:
        config.write_text(config_text, encoding="utf-8")
    out = workdir / "out"
    for command in commands:
        argv = [arg.format(config=config, out=out) for arg in command]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{case}: {' '.join(command)} exited {code}")
    return {path.name: _digest(path) for path in sorted(out.iterdir())}


def moved(old, new):
    """One line per pin whose hash differs between ``old`` and ``new``.

    Each names the case, the file and the old and new 12-hex prefixes ("-" for
    a pin that is missing on one side).
    """
    lines = []
    for case in sorted(old.keys() | new.keys()):
        before, after = old.get(case, {}), new.get(case, {})
        for name in sorted(before.keys() | after.keys()):
            if before.get(name) != after.get(name):
                lines.append(
                    f"{case} {name}: {before.get(name, '-')[:12]} -> {after.get(name, '-')[:12]}"
                )
    return lines


if __name__ == "__main__":
    import tempfile

    pins = {}
    for case in cases():
        with tempfile.TemporaryDirectory() as tmp:
            pins[case] = hashes(case, tmp)
    old = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    print("\n".join(moved(old, pins)) or "no pin moved")
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PINS} ({sum(map(len, pins.values()))} files)")
