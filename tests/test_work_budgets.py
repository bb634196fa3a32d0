"""The work each benchmark workload does, counted in-process on its seed-7 plan.

A row here pins one count of one workload: integrand calls and their nodes
for ``sweep-fisher``, ``score`` calls per scheme model for ``montecarlo-mle``.
A change that moves a count updates its row and says so in CHANGES.md.  The
figure commands of ``coldstart-figures`` have their rows in ``tests/test_cli.py``:
``test_figure4_tests_each_plotted_value_finite_once`` and
``test_figures_evaluate_and_format_each_column_once``.
"""

import contextlib
import io
from collections import Counter

import pytest

from output_pins import _inputs
from test_planes import NodeCounter
from tiltsense import PolarizationModel, PositionModel, PositionPolarizationModel, QuadrantModel, cli


def _run(tmp_path, workload):
    """Run the commands of ``workload``'s seed-7 plan in ``tmp_path``; each must exit 0."""
    plan = _inputs().make_plan(workload, 7)
    config = tmp_path / "config.yaml"
    config.write_text(plan.config, encoding="utf-8")
    for command in plan.commands:
        argv = [arg.format(config=config, out=tmp_path / "out") for arg in command]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0


def test_sweep_fisher_budget(tmp_path):
    # per pass, (planes, nodes): the joint closed forms, then the oracles of the
    # joint and the position rows; the quadrant and polarization rows integrate nothing
    with pytest.MonkeyPatch.context() as patch:
        counter = NodeCounter(patch)
        _run(tmp_path, "sweep-fisher")
    assert counter.shapes == [(16, 388), (16, 388), (8, 388), (16, 388), (16, 388), (8, 388), (10, 194)]
    assert (len(counter.shapes), counter.nodes) == (7, 32980)


def test_montecarlo_mle_budget(tmp_path):
    # score calls over the 30 trials of each block; a joint trial's estimate starts
    # from a root of the polarization score of its sign counts, counted as polarization
    calls = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for model, name in ((PositionModel, "position"), (QuadrantModel, "quadrant"),
                            (PolarizationModel, "polarization"), (PositionPolarizationModel, "joint")):
            def counted(self, stat, theta, score=model.score, name=name):
                calls[name] += 1
                return score(self, stat, theta)

            patch.setattr(model, "score", counted)
        _run(tmp_path, "montecarlo-mle")
    assert calls == {"position": 90, "quadrant": 146, "polarization": 459, "joint": 145}
