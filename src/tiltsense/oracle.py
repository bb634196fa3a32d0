"""Scheme-agnostic numerical Fisher information.

Differentiates the outcome probabilities of any model by Richardson-refined
central differences and assembles sum_j (dp_j/dtheta)^2 / p_j, by direct
summation for discrete outcomes and by Gauss-Legendre quadrature for continuous
ones.  Completely independent of the closed forms in :mod:`tiltsense.fisher`,
which it is used to check.
"""

from __future__ import annotations

import numpy as np

from ._integrate import PlaneError, integrate_interval, take_planes

# outcomes with less probability than this are dropped from the discrete sum (NaN is kept)
PROB_FLOOR = 1e-300

# continuous integrand points below this density (per beam width, in u = (x - xi)/w)
# contribute (dp/dtheta)^2/p only through Gaussian tails; they are returned as 0
DENSITY_FLOOR = 1e-30

# the step is STEP_FRACTION of the one-photon quantum width 1/sqrt(qfi), and at
# least STEP_THETA_RTOL |theta|, below which theta +- h keeps too few digits of h
STEP_FRACTION, STEP_THETA_RTOL = 2e-5, 1e-6

DENSITY_NORM_TOL = 1e-6  # a density integrates to 1 this well, or the quadrature did not resolve it

# the two central-difference estimates (steps h and h/2) must agree this well,
# relative to the largest |derivative| of the pass at the same plane
DERIV_RTOL = 1e-3


class OracleError(PlaneError):
    """The finite-difference oracle could not produce a trustworthy value."""


def default_step(theta, qfi: float):
    """The step at theta for a model of quantum bound ``qfi``: 1e-9 rad on a 633 nm, 1 mm beam.

    theta is a float, or a column of tilts that gets a column of steps, one per row.
    """
    floor = STEP_FRACTION * qfi ** -0.5
    if np.ndim(theta):
        return np.maximum(floor, STEP_THETA_RTOL * np.abs(theta))
    return max(floor, STEP_THETA_RTOL * abs(theta))


def _derivative(values, theta, h, floor, x=None, planes=None):
    """p = values(theta) and its Richardson derivative from central steps h and h/2.

    Their gap must stay within DERIV_RTOL of the largest |derivative| of the
    pass at the same plane, or within the rounding noise ~eps p/h; entries
    below ``floor`` go unchecked.  ``x``, a density's quadrature nodes, locates
    a failure.  values(th) is an array of outcomes or of (branches, nodes), or
    at a column of planes of (outcomes, planes, 1) or (branches, planes,
    nodes): each plane is measured against its own derivative, as in a
    one-plane pass, and names a failure (through ``planes``, x's planes).
    theta and h are floats, or columns of one value per plane: each plane its own stencil.
    """
    p0 = values(theta)
    d_h = (values(theta + h) - values(theta - h)) / (2.0 * h)
    d_half = (values(theta + 0.5 * h) - values(theta - 0.5 * h)) / h  # spacing h
    deriv = (4.0 * d_half - d_h) / 3.0
    gap = np.abs(deriv - d_half)
    peak = np.max(np.abs(deriv), axis=(0, -1) if deriv.ndim > 1 else None, keepdims=True)
    tol = np.maximum(DERIV_RTOL * peak, 1e4 * np.finfo(float).eps * p0 / h)
    # NaN fails every comparison here; the caller's sum carries it
    bad = np.argwhere(~(p0 < floor) & (gap > tol))
    if bad.size:
        at = tuple(bad[0])
        plane = int(0 if len(at) < 3 else at[1] if planes is None else planes[at[1]])
        if x is None:
            raise OracleError(
                f"probability derivative not converged: step-halving gap {gap[at]:.3e} "
                f"exceeds {tol[at]:.3e}", plane,
            )
        raise OracleError(
            f"density derivative not converged at x={float(x[at[1:]])!r}: "
            f"step-halving gap {gap[at]:.3e}", plane,
        )
    return p0, deriv


def _information(p0, deriv, floor):
    """sum_j deriv_j^2 / p0_j over axis 0, less the p0_j below ``floor``; a NaN p0_j stays in."""
    dead = p0 < floor
    return np.sum(np.where(dead, 0.0, deriv * deriv / np.where(dead, 1.0, p0)), axis=0)


def numeric_fisher_oracle(model, theta, step=None):
    """Finite-difference Fisher information of ``model`` at ``theta``.

    Works on any model exposing ``probabilities(theta)`` (discrete outcomes),
    ``pdf(theta, x)`` (continuous), or ``branch_pdf(theta, x)`` (joint
    discrete-and-continuous), the latter two with ``domain(theta)``/``breakpoints(theta)``
    and ``qfi()``, whose bound scales the step and the quadrature's absolute tolerance;
    a density must integrate to 1, or no step resolves it.  A model at a column of planes
    gives its probabilities as (outcomes, planes, 1), or its domain one bound per plane
    and ``at_planes(index)``, the model at those planes only; the result is then a column
    over its planes, each entry with the bits of that plane's own model.  theta, and
    ``step`` if given, may be such a column too, one (theta, z) row per plane, each row
    with its own step, stencil, derivative tolerance and norm check.
    """
    kinds = [name for name in ("probabilities", "branch_pdf", "pdf") if hasattr(model, name)]
    if not kinds:
        raise TypeError(f"{type(model).__name__} exposes no outcome probabilities")
    if step is None:
        h = default_step(theta, model.qfi())
    else:
        h = np.asarray(step, dtype=float) if np.ndim(step) else float(step)
    if np.any(h <= 0.0):
        raise ValueError("step must be positive")
    if kinds[0] == "probabilities":
        return _discrete_fisher(model, theta, h)
    return _continuous_fisher(model, theta, h, kinds[0])


def _discrete_fisher(model, theta, h):
    def probabilities(th):
        return np.asarray(model.probabilities(th), dtype=float)

    # a sum over the outcomes of each plane
    return _information(*_derivative(probabilities, theta, h, PROB_FLOOR), PROB_FLOOR)


def _continuous_fisher(model, theta, h, density):
    lows, highs = zip(*(model.domain(t) for t in (theta, theta + h, theta - h)))
    lo, hi = np.min(lows, axis=0), np.max(highs, axis=0)  # a float, or one per plane
    points = tuple(model.breakpoints(theta)) if hasattr(model, "breakpoints") else ()

    def integrand(x, planes=None):
        at, th, step = model, theta, h
        if planes is not None:  # the rows still open, each at its own theta and step
            at = model.at_planes(planes)
            th, step = take_planes(theta, planes), take_planes(h, planes)
        pdf = getattr(at, density)

        def branches(th):
            return np.reshape(pdf(th, x), (-1,) + x.shape)

        p0, deriv = _derivative(branches, th, step, DENSITY_FLOOR, x, planes)
        # NaN stays in, so the quadrature cannot converge on it
        return np.stack([_information(p0, deriv, DENSITY_FLOOR), np.sum(p0, axis=0)])

    atol = 1e-12 * float(np.max(model.qfi()))  # on the model's scale, as in the decomposition
    information, norm = integrate_interval(integrand, lo, hi, points, rtol=1e-9, atol=atol)
    bad = np.flatnonzero(np.abs(np.ravel(norm) - 1.0) > DENSITY_NORM_TOL)  # the quadrature refuses NaN
    if bad.size:
        raise OracleError(f"density not resolved: it integrates to {norm.flat[bad[0]]:.6e}", int(bad[0]))
    return information
