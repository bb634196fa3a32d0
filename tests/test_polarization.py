import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltsense import PolarizationState


def test_normalization_enforced():
    with pytest.raises(ValueError) as info:
        PolarizationState(1.0 + 0.0j, 1.0 + 0.0j)
    assert str(info.value) == "state must be normalized: |alpha|^2 + |beta|^2 = 2.0"
    with pytest.raises(ValueError, match="state must be normalized"):
        PolarizationState(alpha=0.5, beta=0.5j)


def test_state_is_an_immutable_value():
    state = PolarizationState.diagonal()
    for name in ("alpha", "beta", "extra"):
        with pytest.raises(AttributeError):
            setattr(state, name, 1.0 + 0.0j)
    r = math.sqrt(0.5)
    same = PolarizationState(alpha=complex(r), beta=complex(r))
    assert same == state and hash(same) == hash(state)
    assert PolarizationState.horizontal() != PolarizationState.vertical()
    assert repr(state) == f"PolarizationState(alpha={state.alpha!r}, beta={state.beta!r})"


def test_presets():
    h = PolarizationState.horizontal()
    assert h.sigma_z_mean == 1.0
    assert h.coherence_magnitude == 0.0

    v = PolarizationState.vertical()
    assert v.sigma_z_mean == -1.0

    plus = PolarizationState.diagonal()
    assert plus.sigma_z_mean == pytest.approx(0.0, abs=1e-15)
    assert plus.coherence_magnitude == pytest.approx(0.5, abs=1e-15)
    assert plus.coherence_phase == pytest.approx(0.0, abs=1e-15)

    circ = PolarizationState.circular()
    assert circ.coherence_magnitude == pytest.approx(0.5, abs=1e-15)
    assert circ.coherence_phase == pytest.approx(math.pi / 2, abs=1e-12)


@settings(max_examples=200)
@given(
    polar=st.floats(min_value=0.0, max_value=math.pi),
    azimuth=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_bloch_parameterization(polar, azimuth):
    state = PolarizationState.from_bloch(polar, azimuth)
    # 2d = sin(polar), <sz> = cos(polar)
    assert 2.0 * state.coherence_magnitude == pytest.approx(math.sin(polar), abs=1e-12)
    assert state.sigma_z_mean == pytest.approx(math.cos(polar), abs=1e-12)
    assert 0.0 <= state.coherence_magnitude <= 0.5 + 1e-12
    if state.coherence_magnitude > 1e-9:
        wrapped = (state.coherence_phase - azimuth + math.pi) % (2.0 * math.pi) - math.pi
        assert wrapped == pytest.approx(0.0, abs=1e-9)


def test_coherence_identity():
    state = PolarizationState.from_bloch(1.1, 0.7)
    d = state.coherence_magnitude
    phi = state.coherence_phase
    assert d * np.exp(1j * phi) == pytest.approx(
        state.alpha.conjugate() * state.beta, abs=1e-15
    )
