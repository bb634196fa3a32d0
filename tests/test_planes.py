"""Several detector planes in one quadrature pass give the bits of one plane at a time.

The position, quadrant and joint models take a column of z values; their
probabilities, densities, closed forms and oracle values then run over the
planes, the integrals on (planes, nodes) arrays.  Each plane must come out
exactly (``==``) as its own one-plane model, evaluated at exactly the same
nodes, and a failure must still be reported as the one-plane rows report it.
"""

import contextlib
import copy
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltsense import (
    BeamParams, PolarizationState, PositionModel, PositionPolarizationModel, QuadrantModel,
)
from tiltsense import cli, oracle, schemes
from tiltsense.oracle import OracleError, default_step, numeric_fisher_oracle
from tiltsense._integrate import ConvergenceError

from output_pins import cases

FAILURES = (ConvergenceError, OracleError)

plane_cases = st.tuples(
    st.floats(400e-9, 2e-6),  # wavelength
    st.floats(1e-4, 5e-3),  # w0
    st.floats(-3.0, 3.0),  # xi / w0
    # z / z_R of 1-6 distinct planes, sorted below
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=n, max_size=n, unique=True
        )
    ),
    # log10 of |theta| / small-angle guard, or theta = 0
    st.one_of(st.none(), st.floats(-3.0, math.log10(30.0))),
    st.sampled_from([-1.0, 1.0]),  # sign of theta
    st.floats(-3.0, 3.0),  # the quadrant split, in w0 from the beam center
)


def column(zs):
    """z values as the column of planes that the models take."""
    return np.array(zs, dtype=float).reshape(-1, 1)


def _outcome(fn):
    """fn()'s value, or the type of the failure it raised."""
    try:
        return fn()
    except FAILURES as exc:
        return type(exc)


def _check_planes_match_one_plane_models(case):
    wavelength, w0, xi_ratio, z_ratios, log_theta, sign, split_ratio = case
    beam = BeamParams.from_wavelength(wavelength, w0, xi_ratio * w0)
    pol = PolarizationState.diagonal()
    zs = [r * beam.rayleigh_range for r in sorted(z_ratios)]
    joint = PositionPolarizationModel(beam, pol, column(zs))
    theta = 0.0 if log_theta is None else sign * 10.0 ** log_theta * joint.small_angle_guard()
    position = PositionModel(beam, column(zs))
    split = beam.xi + split_ratio * w0

    for parts, single in [
        (lambda: joint.decomposition(theta),
         lambda z: PositionPolarizationModel(beam, pol, z).decomposition(theta)),
        (lambda: (numeric_fisher_oracle(joint, theta),),
         lambda z: (numeric_fisher_oracle(PositionPolarizationModel(beam, pol, z), theta),)),
        (lambda: (numeric_fisher_oracle(position, theta), position.fisher(theta)),
         lambda z: (numeric_fisher_oracle(PositionModel(beam, z), theta),
                    PositionModel(beam, z).fisher(theta))),
        *[
            (lambda at=at: (numeric_fisher_oracle(QuadrantModel(beam, column(zs), at), theta),
                            QuadrantModel(beam, column(zs), at).fisher(theta)),
             lambda z, at=at: (numeric_fisher_oracle(QuadrantModel(beam, z, at), theta),
                               QuadrantModel(beam, z, at).fisher(theta)))
            for at in (None, split)
        ],
    ]:
        expected = [_outcome(lambda: single(z)) for z in zs]
        batched = _outcome(parts)
        if any(isinstance(e, type) for e in expected):
            # some plane fails on its own, so the batch fails
            assert batched in FAILURES
            continue
        assert not isinstance(batched, type), (batched, expected)
        for index, values in enumerate(expected):
            for part, value in zip(batched, values):
                assert isinstance(value, float)
                assert part.shape == (len(zs), 1)  # a value per plane, of the shape of z
                assert part[index, 0] == value, (index, part[index, 0], value)


@settings(max_examples=25, deadline=None)
@given(plane_cases)
def test_planes_match_one_plane_models(case):
    _check_planes_match_one_plane_models(case)


@pytest.mark.slow
@settings(max_examples=500, deadline=None)
@given(plane_cases)
def test_planes_match_one_plane_models_widely(case):
    _check_planes_match_one_plane_models(case)


def test_a_plane_of_a_batch_is_its_own_model():
    beam = BeamParams.from_wavelength(633e-9, 1e-3, 1e-3)
    model = PositionModel(beam, column([0.0, 1.0, 2.0]))
    assert model.z.shape == (3, 1)
    assert model.at_planes(np.arange(3)) is model
    part = model.at_planes(np.array([2]))
    assert type(part) is PositionModel and part.z.tolist() == [[2.0]]
    assert model.z.shape == (3, 1)


# ---------------------------------------------------------------------------
# the sweep: one pass per (block, theta), failures as in one-plane rows
# ---------------------------------------------------------------------------

# the open joint point of 512 panels: -10 small-angle guards at 0.00195 z_R
FAILING_BEAM = "beam: {wavelength: 1.937um, w0: 3.906mm, xi: 0m}\n"
FAILING_THETA = "-5.5808778302493416e-05"


class NodeCounter:
    """Wraps the integrands of the closed forms and the oracle, recording x's shape per pass."""

    def __init__(self, patch):
        self.shapes = []
        engine = schemes.integrate_interval

        def counting(f, *args, **kwargs):
            def integrand(x, *planes):
                self.shapes.append(x.shape)
                return f(x, *planes)

            return engine(integrand, *args, **kwargs)

        patch.setattr(schemes, "integrate_interval", counting)
        patch.setattr(oracle, "integrate_interval", counting)

    @property
    def nodes(self):
        return sum(math.prod(shape) for shape in self.shapes)


def _plane_by_plane(fn):
    """fn(model, theta, *step) taken plane by plane, each from a model at its plane z as a float.

    A model without planes is taken whole.  A failure names its plane, as the
    batched call does.
    """

    def each(model, theta, *step):
        if not hasattr(model, "z"):
            return fn(model, theta, *step)
        values = []
        for plane, z in enumerate(model.z.ravel().tolist()):
            single = copy.copy(model)
            single.z = z
            try:
                values.append(fn(single, theta, *step))
            except FAILURES as exc:
                exc.plane = plane
                raise
        return values

    return each


def _sweep(tmp_path, text, one_plane=False, name="sweep"):
    """(exit code, stderr, table bytes or None, NodeCounter) of ``sweep`` on ``text``.

    ``one_plane`` takes every analytic and oracle value from a one-plane model
    instead: the reference the batched sweep must reproduce.
    """
    config = tmp_path / f"{name}.yaml"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / name
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        counter = NodeCounter(patch)
        if one_plane:
            for fn in ("analytic_fisher", "numeric_fisher_oracle"):
                patch.setattr(cli, fn, _plane_by_plane(getattr(cli, fn)))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", str(config), "--out", str(out)])
    table = out / "sweep.csv"
    return code, err.getvalue(), table.read_bytes() if table.exists() else None, counter


def test_a_failing_plane_is_reported_as_its_one_plane_row(tmp_path):
    text = FAILING_BEAM + f"run: {{scheme: joint, theta: {FAILING_THETA}, z: [0z_R, 0.00195z_R, 1z_R]}}\n"
    code, err, table, _ = _sweep(tmp_path, text)
    assert (code, table) == (3, None)
    assert err == (
        "numerical failure: run[0] row 1 (joint, theta=-5.5808778302493416e-05 rad, "
        "z=0.04825244687378284 m): quadrature did not converge on [-1.000138e+01, 1.000138e+01] "
        "with 512 panels per segment; the last two sums differ by 1.665e+00\n"
    )
    assert _sweep(tmp_path, text, one_plane=True, name="one")[:3] == (code, err, table)


def test_a_converged_plane_drops_out_of_later_passes(tmp_path):
    text = FAILING_BEAM + f"run: {{scheme: joint, theta: {FAILING_THETA}, z: [0.0078z_R, 1z_R]}}\n"
    code, err, table, counter = _sweep(tmp_path, text)
    assert (code, err) == (0, "")
    # the plane at 1 z_R converges at the first comparison, the other after 8 passes;
    # both the decomposition and the oracle integrate them together
    passes = [(2, 256), (2, 512)] + [(1, 256 << k) for k in range(2, 8)]
    assert counter.shapes == passes + passes
    one_code, _, one_table, one_counter = _sweep(tmp_path, text, one_plane=True, name="one")
    assert (one_code, one_table) == (0, table)
    assert counter.nodes == one_counter.nodes == 132096
    assert len(one_counter.shapes) == 20


@pytest.mark.parametrize("case", ["scenario.sample", "sweep-fisher"])
def test_sweeps_evaluate_the_nodes_of_one_plane_rows(tmp_path, case):
    text = cases()[case][0]
    code, _, table, counter = _sweep(tmp_path, text)
    one_code, _, one_table, one_counter = _sweep(tmp_path, text, one_plane=True, name="one")
    assert code == one_code == 0
    assert table == one_table
    assert counter.nodes == one_counter.nodes
    assert len(counter.shapes) < len(one_counter.shapes)


# ---------------------------------------------------------------------------
# one model per block: values, flags and failures per plane
# ---------------------------------------------------------------------------


def test_each_sweep_block_builds_one_model(tmp_path):
    text = "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n" + (
        "run:\n"
        "  - {scheme: position, theta: [0.5urad, 1urad], z: [1z_R, 2z_R]}\n"
        "  - {scheme: quadrant, theta: [0.5urad, 1urad, 2urad], z: [0z_R, 1z_R, 2z_R], split: 0.9mm}\n"
        "  - {scheme: polarization, theta: [0, 1urad]}\n"
        "  - {scheme: joint, theta: 1urad, z: 1z_R}\n"
    )
    built = []
    with pytest.MonkeyPatch.context() as patch:
        for name in cli._MODELS:
            def counting(*args, _cls=getattr(cli, name), **kwargs):
                built.append(_cls.__name__)
                return _cls(*args, **kwargs)

            patch.setattr(cli, name, counting)
        code, err, table, _ = _sweep(tmp_path, text)
    assert (code, err) == (0, "")
    assert built == ["PositionModel", "QuadrantModel", "PolarizationModel", "PositionPolarizationModel"]
    one_code, _, one_table, _ = _sweep(tmp_path, text, one_plane=True, name="one")
    assert (one_code, one_table) == (0, table)


def test_warnings_and_evenness_of_a_column_are_per_plane():
    beam = BeamParams.from_wavelength(633e-9, 1e-3, 0.0)
    zs = [0.0, beam.rayleigh_range]
    # an unbalanced state: only the z = 0 plane is even in theta
    pol = PolarizationState.from_bloch(math.radians(60.0), 0.0)
    for model, single in [
        (PositionPolarizationModel(beam, pol, column(zs)), lambda z: PositionPolarizationModel(beam, pol, z)),
        (PositionPolarizationModel(beam, PolarizationState.diagonal(), column(zs)),
         lambda z: PositionPolarizationModel(beam, PolarizationState.diagonal(), z)),
        (PositionModel(beam, column(zs)), lambda z: PositionModel(beam, z)),
        (QuadrantModel(beam, column(zs)), lambda z: QuadrantModel(beam, z)),
    ]:
        assert model.even_in_theta.tolist() == [[single(z).even_in_theta] for z in zs]
        for theta in (0.0, 1e-6):
            step = default_step(theta, model.qfi())
            assert model.regime_flags(theta, step) == [single(z).regime_flags(theta, step) for z in zs]
    flags = PositionPolarizationModel(beam, pol, column(zs)).regime_flags(0.0, 1e-9)
    assert [any("stationary point" in f for f in plane) for plane in flags] == [True, False]


class TwoPlanes:
    """Two outcomes at two planes, (outcomes, planes, 1): plane 0 moves with slope 1,
    plane 1 with slope 1e-2, plus a cubic that step-halving resolves to only 1e-2."""

    def __init__(self, cubic):
        self.cubic = cubic

    def probabilities(self, theta):
        plane_1 = 0.5 + 1e-2 * theta + self.cubic * theta ** 3
        return np.array([[[0.5 + theta], [plane_1]], [[0.5 - theta], [1.0 - plane_1]]])


def test_each_plane_of_a_column_has_its_own_derivative_tolerance():
    # the two outcomes of each plane sum to one value per plane
    values = numeric_fisher_oracle(TwoPlanes(0.0), 0.0, step=1e-3)
    assert values.shape == (2, 1)
    assert values.ravel() == pytest.approx([4.0, 4e-4], rel=1e-9)
    # measured against the pooled peak (plane 0's slope of 1) the gap of plane 1,
    # 1e-4, would pass; against its own slope of 1e-2 it does not
    with pytest.raises(OracleError, match="probability derivative not converged") as failure:
        numeric_fisher_oracle(TwoPlanes(400.0), 0.0, step=1e-3)
    assert failure.value.plane == 1
