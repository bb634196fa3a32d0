"""Composite Gauss-Legendre quadrature with panel doubling."""

from __future__ import annotations

import numpy as np

ORDER = 64  # nodes per panel
MAX_PANELS = 512  # panels per segment past which doubling gives up

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(ORDER)


class ConvergenceError(RuntimeError):
    """The quadrature failed to reach the requested tolerance."""


def integrate_interval(f, lo, hi, breakpoints=(), rtol=1e-11, atol=0.0):
    """Integrate f over [lo, hi], split at the interior breakpoints.

    Every segment gets the same number of equal panels.  f is called once per
    pass on the array of all nodes and may return an array whose last axis
    runs over them.  The panel count doubles until two successive sums agree
    within max(atol, rtol |sum|) in every component.
    """
    edges = np.array([lo, *sorted(p for p in breakpoints if lo < p < hi), hi], dtype=float)
    previous, gap, panels = None, np.inf, 1
    while panels <= MAX_PANELS:
        half = (0.5 * np.diff(edges) / panels)[:, None]
        centers = edges[:-1, None] + (2.0 * np.arange(panels) + 1.0) * half
        x = (centers[..., None] + half[..., None] * _NODES).ravel()
        weights = np.broadcast_to(half[..., None] * _WEIGHTS, centers.shape + (ORDER,))
        total = np.sum(f(x) * weights.ravel(), axis=-1)
        if not np.all(np.isfinite(total)):
            raise ConvergenceError(
                f"quadrature did not converge on [{lo:.6e}, {hi:.6e}]: the integrand is not "
                f"finite there (sum {total})"
            )
        if previous is not None:
            gap = np.abs(total - previous)
            if np.all(gap <= np.maximum(atol, rtol * np.abs(total))):
                return float(total) if total.ndim == 0 else total
        previous, panels = total, 2 * panels
    raise ConvergenceError(
        f"quadrature did not converge on [{lo:.6e}, {hi:.6e}] with {MAX_PANELS} panels "
        f"per segment; the last two sums differ by {np.max(gap):.3e}"
    )
