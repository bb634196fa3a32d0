"""Polarization qubit carried by the two counter-propagating interferometer paths."""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

NORM_TOL = 1e-12


class _StateFields(NamedTuple):
    alpha: complex
    beta: complex


class PolarizationState(_StateFields):
    """Pure polarization state alpha|H> + beta|V>, an immutable record compared by value.

    The interference visibility of the diagonal-basis measurement is set by
    the coherence alpha* beta = d e^{i phi}; `coherence_magnitude` is d and
    `coherence_phase` is phi.
    """

    __slots__ = ()

    def __new__(cls, alpha: complex, beta: complex):
        norm = abs(alpha) ** 2 + abs(beta) ** 2
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state must be normalized: |alpha|^2 + |beta|^2 = {norm!r}")
        return super().__new__(cls, alpha, beta)

    @classmethod
    def from_bloch(cls, polar: float, azimuth: float = 0.0) -> "PolarizationState":
        """State cos(polar/2)|H> + e^{i azimuth} sin(polar/2)|V> on the Bloch sphere."""
        return cls(
            complex(math.cos(0.5 * polar)),
            cmath.exp(1j * azimuth) * math.sin(0.5 * polar),
        )

    @classmethod
    def horizontal(cls) -> "PolarizationState":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def vertical(cls) -> "PolarizationState":
        return cls(0.0j, 1.0 + 0.0j)

    @classmethod
    def diagonal(cls) -> "PolarizationState":
        """(|H> + |V>)/sqrt(2), the equator state with maximal visibility."""
        r = math.sqrt(0.5)
        return cls(complex(r), complex(r))

    @classmethod
    def circular(cls) -> "PolarizationState":
        return cls.from_bloch(0.5 * math.pi, 0.5 * math.pi)

    @property
    def coherence(self) -> complex:
        return self.alpha.conjugate() * self.beta

    @property
    def coherence_magnitude(self) -> float:
        """d = |alpha* beta|, in [0, 1/2]."""
        return abs(self.coherence)

    @property
    def coherence_phase(self) -> float:
        """phi = arg(alpha* beta); zero for states with d = 0."""
        return cmath.phase(self.coherence)

    @property
    def sigma_z_mean(self) -> float:
        """|alpha|^2 - |beta|^2, the H/V population imbalance."""
        return abs(self.alpha) ** 2 - abs(self.beta) ** 2

    @property
    def is_diagonal(self) -> bool:
        """(|H> pm |V>)/sqrt(2) up to rounding: balanced populations, real coherence."""
        return (
            abs(self.sigma_z_mean) <= NORM_TOL
            and self.coherence_magnitude >= 0.5 - NORM_TOL
            and abs(math.sin(self.coherence_phase)) <= NORM_TOL
        )
