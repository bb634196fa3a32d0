"""The closed-form Fisher information against the 50-digit reference of ``reference_fisher``.

The rows far below the quantum bound are the ones where a step on the bound's
scale moves the outcome distribution by about h sqrt(F), below float
resolution, so the finite-difference oracle cannot judge them: there the
reference decides whether a closed form is right.  The oracle's value on them
is not asserted here.
"""

import math
import random

import pytest

pytest.importorskip("mpmath")

from reference_fisher import polarization_fisher, position_fisher, quadrant_fisher  # noqa: E402

from tiltsense import (  # noqa: E402
    BeamParams,
    PolarizationModel,
    PolarizationState,
    PositionModel,
    QuadrantModel,
)
from tiltsense.config import parse_config_text  # noqa: E402

RTOL = 1e-12


def _reference(model, theta):
    if isinstance(model, QuadrantModel):
        return quadrant_fisher(model.beam, model.z, theta)
    if isinstance(model, PositionModel):
        return position_fisher(model.beam, model.z, theta)
    return polarization_fisher(model.beam, model.pol, theta)


def _assert_agrees(model, theta):
    analytic, reference = model.fisher(theta), _reference(model, theta)
    assert reference > 0
    assert abs(analytic - reference) <= RTOL * reference, (model, theta, analytic, float(reference))


# configs on which sweep's oracle reads 0 for F = 9.18e4, 3.02e4 for F = 2.63e4,
# and a value 2.9e-6 relative off F = 1.6e-5
FAR_BELOW_THE_BOUND = [
    "beam: {wavelength: 4.89527e-14mm, w0: 424.582mm}\n"
    "run: {scheme: quadrant, theta: 3.41404e-14urad, z: 40.3144m}\n",
    "beam: {wavelength: 3.12285e-11um, w0: 1.6865e-05m}\n"
    "run: {scheme: position, theta: 1.56523e-07nrad, z: 0.000683657m}\n",
    "beam: {wavelength: 633nm, w0: 1mm}\nrun: {scheme: position, theta: 1mrad, z: 1um}\n",
]


@pytest.mark.parametrize("text", FAR_BELOW_THE_BOUND, ids=["quadrant", "position", "position-1um"])
def test_closed_forms_match_the_reference_far_below_the_bound(text):
    config = parse_config_text(text)
    (block,) = config.runs
    model = (QuadrantModel if block.scheme == "quadrant" else PositionModel)(config.beam, block.z[0])
    _assert_agrees(model, block.theta[0])


def _points(seed=20260, count=40):
    """(model, theta) at seeded beams, planes and states, each tilt inside its model's guard.

    A quadrant tilt keeps |g| = |2 sqrt(2) theta z/w| within 3.  Further below
    the split, ``fisher_quadrant``'s 2 - erfc(g) cancels: on a 633 nm, 1 mm beam
    at z = z_R it is 1.5e-5 off at g = -5, and 0 for F = 1.6e-7 at g = -6.
    """
    rng = random.Random(seed)
    points = []
    for index in range(count):
        beam = BeamParams.from_wavelength(
            10 ** rng.uniform(-8, -4), 10 ** rng.uniform(-5, -1), rng.uniform(-3, 3) * 1e-3
        )
        z = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 3) * beam.rayleigh_range
        kind = index % 3
        if kind == 0:
            model = PositionModel(beam, z)
            theta = rng.uniform(-1, 1) * 1e-3
        elif kind == 1:
            model = QuadrantModel(beam, z)
            slope = beam.k * beam.w0 * beam.plane(z)[1]  # 2 z/w
            theta = rng.uniform(-3, 3) / (math.sqrt(2.0) * abs(slope))
        else:
            pol = PolarizationState.from_bloch(rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
            model = PolarizationModel(beam, pol)
            theta = rng.uniform(-1, 1) * model.small_angle_guard()
        points.append((model, theta))
    return points


def test_closed_forms_match_the_reference_inside_the_guards():
    for model, theta in _points():
        _assert_agrees(model, theta)
