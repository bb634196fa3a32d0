"""The names the benchmark's tracer reads from the package.

``perfbench/traced.py`` wraps package functions by name (``estimate.run_trial``,
``estimate.log_likelihood``, the names ``cli`` binds, every model's density
methods) before it runs a command.  Each workload's tiny config runs here under
it, so that removing or renaming one of those names fails in this suite.  The
self-test's model check (``perfbench/selftest.py``) runs here too: it builds
every scheme model the tracer subclasses, with the arguments it passes them.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from output_pins import _inputs

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


# the workload, and a span its commands must record: the tracer's wrappers ran
@pytest.mark.parametrize(
    "workload, span",
    [
        ("sweep-fisher", "oracle.joint"),
        ("montecarlo-mle", "estimate.trial"),
        ("coldstart-figures", "svgplot.write"),
    ],
)
def test_traced_tiny_workload_runs(tmp_path, workload, span):
    plan = _inputs().make_plan(workload, 7, tiny=True)
    config = tmp_path / "config.yaml"
    config.write_text(plan.config, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spans = set()
    for index, command in enumerate(plan.commands):
        argv = [arg.format(config=config, out=tmp_path / "out") for arg in command]
        trace = tmp_path / f"trace{index}.json"
        result = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced.py"), str(trace), *argv],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(trace.read_text(encoding="utf-8"))
        assert payload["exit_code"] == 0
        spans |= {record[0] for record in payload["spans"]}
    # over all the workload's commands: validate-config records no figure span
    assert span in spans


def test_selftest_counting_models_match_the_plain_models(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # restores sys.path, also the self-test's own entry
    selftest = importlib.import_module("selftest")
    monkeypatch.setattr(selftest, "failures", [])
    selftest.counting_models_match_plain()
    assert selftest.failures == []
