"""Scheme-agnostic numerical Fisher information.

Differentiates the outcome probabilities of any model by Richardson-refined
central differences and assembles sum_j (dp_j/dtheta)^2 / p_j, by direct
summation for discrete outcomes and by Gauss-Legendre quadrature for continuous
ones.  Completely independent of the closed forms in :mod:`tiltsense.fisher`,
which it is used to check.
"""

from __future__ import annotations

import numpy as np

from ._integrate import integrate_interval

# outcomes with less probability than this are dropped from the discrete sum;
# the dropped mass is tracked and must stay below MASS_TOL
PROB_FLOOR = 1e-300
MASS_TOL = 1e-6

# continuous integrand points below this density contribute (dp/dtheta)^2/p
# only through Gaussian tails; they are returned as 0
DENSITY_FLOOR = 1e-30

# the two central-difference estimates (steps h and h/2) must agree this well
DERIV_RTOL = 1e-3


class OracleError(RuntimeError):
    """The finite-difference oracle could not produce a trustworthy value."""


def default_step(theta: float) -> float:
    return max(1e-9, 1e-6 * abs(theta))


def _richardson(values, theta, h):
    """Fourth-order derivative of values(theta) plus the step-h/2 estimate it refines."""
    d_h = (values(theta + h) - values(theta - h)) / (2.0 * h)
    d_half = (values(theta + 0.5 * h) - values(theta - 0.5 * h)) / h  # spacing h
    return (4.0 * d_half - d_h) / 3.0, d_half


def numeric_fisher_oracle(model, theta: float, step: float | None = None) -> float:
    """Finite-difference Fisher information of ``model`` at ``theta``.

    Works on any model exposing ``probabilities(theta)`` (discrete outcomes),
    ``pdf(theta, x)`` (continuous), or ``branch_pdf(theta, x)`` (joint
    discrete-and-continuous), the latter two together with
    ``domain(theta)``/``breakpoints(theta)``.
    """
    h = default_step(theta) if step is None else float(step)
    if h <= 0.0:
        raise ValueError("step must be positive")
    if hasattr(model, "probabilities"):
        return _discrete_fisher(model, theta, h)
    density = getattr(model, "branch_pdf", None) or getattr(model, "pdf", None)
    if density is not None:
        return _continuous_fisher(model, theta, h, density)
    raise TypeError(f"{type(model).__name__} exposes no outcome probabilities")


def _discrete_fisher(model, theta, h):
    def probabilities(th):
        return np.asarray(model.probabilities(th), dtype=float)

    p0 = probabilities(theta)
    deriv, d_half = _richardson(probabilities, theta, h)
    gap = np.max(np.abs(deriv - d_half))
    tol = DERIV_RTOL * max(np.max(np.abs(deriv)), 1e-300)
    if gap > tol:
        raise OracleError(
            f"probability derivative not converged: step-halving gap {gap:.3e} "
            f"exceeds {tol:.3e}"
        )
    keep = p0 >= PROB_FLOOR
    excluded = float(p0[~keep].sum())
    if excluded > MASS_TOL:
        raise OracleError(f"excluded outcome mass {excluded:.3e} exceeds {MASS_TOL:.1e}")
    return float(np.sum(deriv[keep] ** 2 / p0[keep]))


def _continuous_fisher(model, theta, h, density):
    lows, highs = zip(*(model.domain(t) for t in (theta, theta + h, theta - h)))
    points = tuple(model.breakpoints(theta)) if hasattr(model, "breakpoints") else ()

    def integrand(x):
        def branches(th):
            return np.reshape(density(th, x), (-1, x.size))

        p0 = branches(theta)
        deriv, d_half = _richardson(branches, theta, h)
        dead = p0 < DENSITY_FLOOR  # NaN stays in, so the quadrature cannot converge on it
        # rounding of p(theta +- h) alone perturbs the difference quotient
        # by ~eps*p/h; only flag gaps clearly above that noise floor
        gap = np.abs(deriv - d_half)
        noise = 1e4 * np.finfo(float).eps * p0 / h
        bad = ~dead & (gap > np.maximum(DERIV_RTOL * np.abs(deriv), noise))
        if bad.any():
            branch, node = np.argwhere(bad)[0]
            raise OracleError(
                f"density derivative not converged at x={float(x[node])!r}: "
                f"step-halving gap {gap[branch, node]:.3e}"
            )
        return np.sum(np.where(dead, 0.0, deriv * deriv / np.where(dead, 1.0, p0)), axis=0)

    return integrate_interval(integrand, min(lows), max(highs), points, rtol=1e-9, atol=1e-12)
