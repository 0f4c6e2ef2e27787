import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import transition_matrix
from qbackflow.model import DomainError
from qbackflow.pulses import ArmAmplitudes, real_weights, splitting_weights


def _parts(z) -> tuple[bytes, bytes]:
    return (np.float64(z.real).tobytes(), np.float64(z.imag).tobytes())


@given(st.floats(0.0, 4.0 * math.pi), st.floats(0.0, 2.0 * math.pi))
@example(0.0, 4.0)
@example(math.pi, 0.0)
@example(2.0 * math.pi, 1.9)
@example(4.0 * math.pi, 2.0 * math.pi)
def test_splitting_weights_roles(area, laser):
    # c_b = cos(A/2) is the ground exit and c_f = -i sin(A/2) e^{i phi_L}
    # the excited exit of the pulse matrix acting on the ground state,
    # bit for bit, signed zeros included.
    w = splitting_weights(area, laser)
    c_b, c_f = transition_matrix(area, 0.0, laser) @ np.array([1.0 + 0j, 0j])
    assert _parts(w.c_b) == _parts(c_b)
    assert _parts(w.c_f) == _parts(c_f)


def test_splitting_weights_area_range():
    for area in (-0.1, 4.0 * math.pi + 0.1):
        with pytest.raises(DomainError, match=r"pulse_area must lie in"):
            splitting_weights(area)


def test_real_weights():
    w = real_weights(0.6)
    assert w.c_b == 0.6 + 0j
    assert w.c_f == pytest.approx(0.8, rel=1e-15)
    assert real_weights(0.0).c_b == 0.0
    assert real_weights(1.0).c_f == 0.0
    with pytest.raises(DomainError):
        real_weights(1.2)
    with pytest.raises(DomainError):
        real_weights(-0.1)


def test_amplitude_normalization_enforced():
    with pytest.raises(DomainError):
        ArmAmplitudes(1.0 + 0j, 0.5 + 0j)
    # a batch is refused at its first unnormalized pair, by that |c|^2
    with pytest.raises(DomainError, match=r"\|c\|\^2 = 1\.25$"):
        ArmAmplitudes(np.array([0.6, 0.5, 1.0, 0.5]),
                      np.array([0.8, 1.0, 0.0, 0.0]))
