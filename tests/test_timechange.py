import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from dilastab import TimeChangeRange, tau, tau_density, tau_inv
from dilastab.timechange import DELTA_ZERO_TOL

E = math.e

# keep generated deltas out of the dead zone around 0 where the clock
# intentionally degenerates to the identity
deltas = st.one_of(
    st.floats(-4.0, -1e-6), st.floats(1e-6, 4.0), st.just(0.0)
)


def test_fixed_points():
    for delta in (-3.0, -0.5, 0.0, 0.7, 2.5):
        assert tau(delta, 0.0) == 0.0
        assert tau(delta, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_known_values():
    # (e^2 - 1)/(e - 1) = e + 1 and (e - 1)/(e^2 - 1) = 1/(e + 1)
    assert tau(1.0, 2.0) == pytest.approx(E + 1.0, rel=1e-14)
    assert tau(2.0, 0.5) == pytest.approx(1.0 / (E + 1.0), rel=1e-14)
    assert tau(-1.0, 1.0) == 1.0


def test_zero_delta_is_identity():
    assert tau(0.0, 2.7) == 2.7
    assert tau_inv(0.0, -1.3) == -1.3
    assert tau_density(0.0, 5.0) == 1.0
    # below the tolerance the clock is treated as exactly linear
    assert tau(0.5 * DELTA_ZERO_TOL, 2.5) == 2.5


def test_small_delta_continuity():
    # tau(delta, 2) = 2 + delta + O(delta^2), so no blowup approaching 0
    assert abs(tau(1e-9, 2.0) - (2.0 + 1e-9)) < 1e-15


def test_array_evaluation():
    t = np.array([0.0, 1.0, 2.0])
    out = tau(1.0, t)
    assert isinstance(out, np.ndarray)
    assert out.shape == t.shape
    assert out[0] == 0.0 and out[1] == pytest.approx(1.0)
    assert isinstance(tau(1.0, 2.0), float)
    assert isinstance(tau_density(1.0, np.array([0.0, 1.0])), np.ndarray)


def test_density_at_zero():
    assert tau_density(1.0, 0.0) == pytest.approx(1.0 / (E - 1.0), rel=1e-14)
    assert tau_density(0.0, 0.0) == 1.0


def test_density_matches_difference_quotient():
    h = 1e-6
    for delta, u in [(1.0, 0.3), (-2.0, 1.1), (0.4, -0.8)]:
        quotient = (tau(delta, u + h) - tau(delta, u - h)) / (2 * h)
        assert tau_density(delta, u) == pytest.approx(quotient, rel=1e-8)


def test_density_integrates_to_clock():
    for delta in (-1.5, 0.8, 2.0):
        value, err = quad(lambda u: tau_density(delta, u), 0.0, 1.7)
        assert value == pytest.approx(tau(delta, 1.7), abs=max(1e-10, 10 * err))


def test_inverse_range_error():
    # range of tau(-1, .) is bounded above by 1/(1 - e^-1)
    bound = 1.0 / (1.0 - math.exp(-1.0))
    with pytest.raises(TimeChangeRange):
        tau_inv(-1.0, bound + 0.1)
    assert tau_inv(-1.0, bound - 0.1) > 0
    with pytest.raises(TimeChangeRange):
        tau_inv(1.0, -1.0)


@given(deltas, st.floats(-5, 5), st.floats(-5, 5))
def test_cocycle_identity(delta, s, t):
    lhs = tau(delta, s + t)
    a = tau(delta, s)
    b = math.exp(delta * s) * tau(delta, t)
    # terms can be huge while the sum cancels, so scale the tolerance by them
    assert abs(lhs - (a + b)) <= 1e-12 * (1.0 + abs(a) + abs(b) + abs(lhs))


@given(deltas, st.floats(-5, 5), st.floats(1e-6, 5))
def test_strictly_increasing(delta, s, gap):
    assert tau(delta, s) < tau(delta, s + gap)


@given(deltas, st.floats(-5, 5))
def test_inverse_round_trip(delta, t):
    back = tau_inv(delta, tau(delta, t))
    # near a bound of its image tau is flat (delta = -4, t = 5: tau' ~ 8e-9),
    # so one ulp of tau(t) moves the inverse by ulp / tau'; allow a few of
    # those on top of the 1e-9 bound, which alone holds where tau is well conditioned
    conditioning = 4 * math.ulp(tau(delta, t)) / tau_density(delta, t)
    assert abs(back - t) <= 1e-9 * max(1.0, abs(t)) + conditioning


@given(deltas, st.floats(-3, 3))
def test_density_positive(delta, u):
    assert tau_density(delta, u) > 0
