"""Integrator accuracy, blow-up handling, and excursion measurement."""

import warnings

import numpy as np
import pytest

from sdstab.odeint import IntegrationConfig, integrate, max_excursion
from sdstab.sysmodel import ControlSignal, GeneralSystem


def decay():
    return GeneralSystem(1, 1, lambda x, u: -x)


def test_exponential_decay_accuracy():
    traj = integrate(decay(), [1.0], None, (0.0, 1.0), IntegrationConfig(step=1e-3))
    assert abs(traj.final_state()[0] - np.exp(-1)) < 1e-9
    assert traj.times[-1] == 1.0


def test_constant_field_constant_trajectory():
    sys = GeneralSystem(2, 1, lambda x, u: np.zeros(2))
    traj = integrate(sys, [3.0, 4.0], None, (0.0, 2.0))
    np.testing.assert_array_equal(traj.states[0], traj.states[-1])
    assert not traj.escaped


def test_blowup_detected_before_threshold_time():
    sys = GeneralSystem(1, 1, lambda x, u: x * x)
    traj = integrate(sys, [1.0], None, (0.0, 2.0), IntegrationConfig(step=1e-3))
    assert traj.escaped
    assert traj.escape_time < 1.5  # closed form blows up at t = 1
    assert np.all(np.isfinite(traj.states))


class ConstantField:
    """dx/dt = value everywhere (not an equilibrium system, so not a GeneralSystem)."""

    dim_state = 1
    dim_input = 1

    def __init__(self, value):
        self.value = value

    def rhs(self, x, u):
        return np.full(1, self.value)


def test_nan_rhs_escapes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(ConstantField(np.nan), [1.0], None, (0.0, 1.0), IntegrationConfig(step=0.25))
    assert traj.escaped
    assert traj.escape_time == 0.25
    assert len(traj) == 1 and np.all(np.isfinite(traj.states))


def test_state_past_overflow_range_escapes_without_warning():
    # one step takes the state to 1e155, whose square overflows a double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(ConstantField(1e158), [0.0], None, (0.0, 1.0), IntegrationConfig(step=1e-3))
    assert traj.escaped
    assert traj.escape_time == 1e-3
    np.testing.assert_array_equal(traj.states, [[0.0]])


def test_order_four_convergence():
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        traj = integrate(decay(), [1.0], None, (0.0, 1.0), IntegrationConfig(step=h))
        errs.append(abs(traj.final_state()[0] - np.exp(-1)))
    for a, b in zip(errs, errs[1:]):
        assert 14.0 <= a / b <= 18.0


def test_endpoint_exact_with_partial_last_step():
    traj = integrate(decay(), [1.0], None, (0.0, 0.0105), IntegrationConfig(step=1e-3))
    assert traj.times[-1] == 0.0105


def test_window_offset_resets_controller_clock():
    seen = []

    def func(t):
        seen.append(t)
        return np.array([0.0])

    sig = ControlSignal(1.0, 0.0, 1, func, spot_check=False)
    integrate(decay(), [1.0], sig, (5.0, 6.0), IntegrationConfig(step=0.25))
    assert min(seen) >= 0.0 and max(seen) <= 1.0


def test_invalid_window():
    with pytest.raises(ValueError):
        integrate(decay(), [1.0], None, (1.0, 1.0))


def test_excursion_zero_for_constant():
    sys = GeneralSystem(2, 1, lambda x, u: np.zeros(2))
    traj = integrate(sys, [3.0, 4.0], None, (0.0, 1.0))
    assert max_excursion(traj, [3.0, 4.0]) == 0.0


def test_excursion_of_decay():
    traj = integrate(decay(), [1.0], None, (0.0, 1.0))
    assert abs(max_excursion(traj, [1.0]) - (1 - np.exp(-1))) < 1e-6


def test_excursion_unit_drift():
    # unit-speed drift does not vanish at the origin, so satisfy the rhs
    # contract structurally rather than through GeneralSystem validation
    class Unit:
        dim_state = 1
        dim_input = 1

        def rhs(self, x, u):
            return np.ones(1)

    eps = 0.37
    traj = integrate(Unit(), [0.0], None, (0.0, eps))
    assert max_excursion(traj, [0.0]) == pytest.approx(eps, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(blowup_norm=0.5)
