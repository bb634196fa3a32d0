"""A one-plane integral is the one-row case of the plane batch.

Coincident breakpoints are one segment edge, so a joint plane at theta = 0
or at z = 0, whose three breakpoints fall together, is integrated on two
segments instead of two plus two of zero width.  Every position and joint
block of a sweep takes the batched call, one plane or many, and writes the
bytes of the per-row path.
"""

import math

import numpy as np
import pytest

from tiltsense import BeamParams, PolarizationState, PositionPolarizationModel
from tiltsense import cli, oracle, schemes
from tiltsense._integrate import ORDER, integrate_interval
from tiltsense.oracle import numeric_fisher_oracle

from test_integrate import dense_rule, plane_gaussians
from test_planes import NodeCounter, _sweep

BEAM = "beam: {wavelength: 633nm, w0: 1mm, xi: 1mm}\n"


def test_a_breakpoint_given_twice_is_one_edge_with_float_bounds():
    sizes = []

    def gaussian(x):
        sizes.append(x.size)
        return np.exp(-0.5 * x * x)

    merged = integrate_interval(gaussian, -12.0, 12.0, breakpoints=(0.0, 0.0, 0.0))
    merged_sizes, sizes[:] = sizes[:], []
    single = integrate_interval(gaussian, -12.0, 12.0, breakpoints=(0.0,))
    assert merged.hex() == single.hex()
    assert merged_sizes == sizes == [2 * ORDER, 4 * ORDER]


def test_a_breakpoint_given_twice_is_one_edge_with_array_bounds():
    sizes, single_sizes = [], []
    lo, hi = np.array([-6.0, -12.0]), np.array([6.0, 12.0])
    merged = integrate_interval(
        plane_gaussians([0.5, 1.0], sizes), lo, hi, breakpoints=(0.0, np.zeros(2), 0.0)
    )
    single = integrate_interval(plane_gaussians([0.5, 1.0], single_sizes), lo, hi, breakpoints=(0.0,))
    assert merged.tobytes() == single.tobytes()
    assert sizes == single_sizes == [(2, 2 * ORDER), (2, 4 * ORDER)]


@pytest.mark.parametrize(
    "z_ratio, theta", [(1.0, 0.0), (0.0, 1e-6)], ids=["theta=0", "z=0"]
)
def test_a_joint_plane_with_coincident_breakpoints_evaluates_half_the_nodes(z_ratio, theta):
    beam = BeamParams.from_wavelength(633e-9, 1e-3, 1e-3)
    model = PositionPolarizationModel(
        beam, PolarizationState.diagonal(), z_ratio * beam.rayleigh_range
    )
    assert len(set(model.breakpoints(theta))) == 1
    with pytest.MonkeyPatch.context() as patch:
        counter = NodeCounter(patch)
        decomposition = model.decomposition(theta)
        # two segments of one panel, then of two
        assert counter.nodes == 384
        value = numeric_fisher_oracle(model, theta)
        assert counter.nodes == 2 * 384
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(schemes, "integrate_interval", dense_rule)
        patch.setattr(oracle, "integrate_interval", dense_rule)
        reference = model.decomposition(theta)
        reference_value = numeric_fisher_oracle(model, theta)
    # the tolerances of test_integrate's dense-rule property
    for part, reference_part in zip(decomposition, reference):
        assert abs(part - reference_part) <= 1e-13 * reference.total
    assert value == pytest.approx(reference_value, rel=1e-8)


def test_a_waist_plane_is_integrated_in_its_own_group(tmp_path):
    text = BEAM + "run: {scheme: joint, theta: 1urad, z: [0z_R, 1z_R]}\n"
    code, err, table, counter = _sweep(tmp_path, text)
    assert (code, err) == (0, "")
    # the z = 0 plane on 2 segments, then the 1 z_R plane on 4, each to its
    # first comparison; in the decomposition and again in the oracle
    passes = [(1, 2 * ORDER), (1, 4 * ORDER), (1, 4 * ORDER), (1, 8 * ORDER)]
    assert counter.shapes == passes + passes
    one_code, _, one_table, one_counter = _sweep(tmp_path, text, one_plane=True, name="one")
    assert (one_code, one_table) == (0, table)
    assert one_counter.nodes == counter.nodes


def test_a_one_plane_block_takes_the_batched_call(tmp_path):
    text = BEAM + (
        "run:\n"
        "  - {scheme: position, theta: [0.5urad, 1urad], z: 1z_R}\n"
        "  - {scheme: joint, theta: [0.5urad, 1urad], z: 2z_R}\n"
    )
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("analytic_fisher", "numeric_fisher_oracle"):
            def recording(model, theta, *step, _name=name, _fn=getattr(cli, name)):
                calls.append((_name, np.ndim(model.z) > 0))
                return _fn(model, theta, *step)

            patch.setattr(cli, name, recording)
        code, _, table, counter = _sweep(tmp_path, text)
    assert code == 0
    # one batched call of each per (block, theta), and no one-plane call
    assert calls == [("analytic_fisher", True), ("numeric_fisher_oracle", True)] * 4
    one_code, _, one_table, one_counter = _sweep(tmp_path, text, one_plane=True, name="one")
    assert (one_code, one_table) == (0, table)
    # the same passes: (1, nodes) batches against (nodes,) one-plane calls
    assert list(map(math.prod, counter.shapes)) == list(map(math.prod, one_counter.shapes))
