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

# the two central-difference estimates (steps h and h/2) must agree this well,
# relative to the largest |derivative| of the pass
DERIV_RTOL = 1e-3


class OracleError(RuntimeError):
    """The finite-difference oracle could not produce a trustworthy value."""


def default_step(theta: float) -> float:
    return max(1e-9, 1e-6 * abs(theta))


def _derivative(values, theta, h, floor, x=None):
    """p = values(theta) and its Richardson derivative from central steps h and h/2.

    Their gap must stay within DERIV_RTOL of the pass's largest |derivative| or
    within the rounding noise ~eps p/h; entries below ``floor`` go unchecked.
    ``x``, a density's quadrature nodes, locates a failure.
    """
    p0 = values(theta)
    d_h = (values(theta + h) - values(theta - h)) / (2.0 * h)
    d_half = (values(theta + 0.5 * h) - values(theta - 0.5 * h)) / h  # spacing h
    deriv = (4.0 * d_half - d_h) / 3.0
    gap = np.abs(deriv - d_half)
    tol = np.maximum(DERIV_RTOL * np.max(np.abs(deriv)), 1e4 * np.finfo(float).eps * p0 / h)
    # NaN fails every comparison here; the caller's sum carries it
    bad = np.argwhere(~(p0 < floor) & (gap > tol))
    if bad.size:
        at = tuple(bad[0])
        if x is None:
            raise OracleError(
                f"probability derivative not converged: step-halving gap {gap[at]:.3e} "
                f"exceeds {tol[at]:.3e}"
            )
        raise OracleError(
            f"density derivative not converged at x={float(x[at[-1]])!r}: "
            f"step-halving gap {gap[at]:.3e}"
        )
    return p0, deriv


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

    p0, deriv = _derivative(probabilities, theta, h, PROB_FLOOR)
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

        p0, deriv = _derivative(branches, theta, h, DENSITY_FLOOR, x)
        dead = p0 < DENSITY_FLOOR  # NaN stays in, so the quadrature cannot converge on it
        return np.sum(np.where(dead, 0.0, deriv * deriv / np.where(dead, 1.0, p0)), axis=0)

    return integrate_interval(integrand, min(lows), max(highs), points, rtol=1e-9, atol=1e-12)
