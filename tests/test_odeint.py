"""Integrator accuracy, blow-up handling, and excursion measurement."""

import warnings

import numpy as np
import pytest

from sdstab.odeint import IntegrationConfig, integrate, max_excursion, rk4_autonomous_step
from sdstab.sysmodel import ControlSignal, GeneralSystem, StateLinearSystem


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


def test_finite_matrix_whose_product_overflows_escapes():
    # A(x) is finite, so state_matrix lets it through; A(x) x overflows to inf
    # (NumPy warns), which the escape test catches instead of raising
    sys = StateLinearSystem(lambda x: np.array([[1e300, 1e300], [0.0, -1.0]]), np.zeros((2, 1)), 2, 1)
    with np.errstate(all="ignore"):
        traj = integrate(sys, [1e10, 1.0], None, (0.0, 1.0), IntegrationConfig(step=0.25))
    assert traj.escaped
    assert traj.escape_time == 0.25
    np.testing.assert_array_equal(traj.states, [[1e10, 1.0]])


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


def test_window_below_step_rounding_takes_one_step():
    traj = integrate(decay(), [1.0], None, (0.0, 1e-16))
    np.testing.assert_array_equal(traj.times, [0.0, 1e-16])
    assert traj.states[-1, 0] < 1.0


def test_window_offset_resets_controller_clock():
    seen = []

    def func(t):
        seen.append(t)
        return np.array([0.0])

    sig = ControlSignal(1.0, 0.0, 1, func)
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
    with pytest.raises(ValueError):
        IntegrationConfig(blowup_norm=1e300)


def test_stage_of_the_wrong_length_raises():
    # a 2-D system whose field returns one value: NumPy would broadcast it
    short = GeneralSystem(2, 1, lambda x, u: -x[:1])
    with pytest.raises(ValueError, match=r"shape \(1,\) for a state of dimension 2"):
        integrate(short, [1.0, 2.0], None, (0.0, 1.0))
    with pytest.raises(ValueError, match=r"shape \(3,\) for a state of dimension 2"):
        rk4_autonomous_step(lambda y: np.ones(3), np.ones(2), 0.1, np.ones(2))
    with pytest.raises(ValueError, match=r"shape \(2, 1\) for a state of dimension 2"):
        rk4_autonomous_step(lambda y: y, np.ones(2), 0.1, np.ones((2, 1)))


# -- the RK4 kernel against NumPy, bit for bit -----------------------------------
# The oracles below are the array expressions the integrator used before it did
# its per-step arithmetic on Python floats. Elementwise + and * are single IEEE
# operations in both, so every stage state and every step must keep its bits.

SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 2.2250738585072014e-308,
           1.7e308, -1.7e308, 1e154, -3e153)


def numpy_autonomous_step(f, x, h, k1):
    k2 = f(x + (h / 2) * k1)
    k3 = f(x + (h / 2) * k2)
    k4 = f(x + h * k3)
    return x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def numpy_integrate(rhs, x0, u, t1, h, blowup, first_stages):
    """The step loop of integrate over (0, t1), on arrays; returns (states, escaped)."""
    x = np.array(x0, dtype=float)
    n_steps = max(1, int(np.ceil(t1 / h - 1e-12)))
    u_start = u.value(0.0) if u is not None else np.zeros(1)
    states = [x]
    tau = 0.0
    for _ in range(n_steps):
        hk = min(h, t1 - tau)
        if hk <= 0:
            break
        k1 = rhs(x, u_start)
        first_stages.append(k1)
        half = hk / 2
        u_mid = u.value(tau + half) if u is not None else u_start
        k2 = rhs(x + half * k1, u_mid)
        k3 = rhs(x + half * k2, u_mid)
        u_end = u.value(tau + hk) if u is not None else u_start
        k4 = rhs(x + hk * k3, u_end)
        x_new = x + (hk / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        tau += hk
        if tau >= t1 - 1e-12:
            tau = t1
        if not (np.all(np.abs(x_new) <= blowup) and np.sqrt(x_new @ x_new) <= blowup):
            return np.array(states), True
        x = x_new
        states.append(x)
        u_start = u_end
    return np.array(states), False


def hexes(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


class LoggedField:
    """A seeded nonlinear field that logs every state and input it is called at."""

    def __init__(self, rng, n, scale):
        self.M = rng.normal(size=(n, n))
        self.b = rng.normal(size=n)
        self.scale = scale
        self.dim_state = n
        self.dim_input = 1
        self.log = []

    def rhs(self, x, u):
        self.log.append(hexes(x) + hexes(u))
        with np.errstate(all="ignore"):
            return self.scale * (self.M @ x) + x * x[::-1] * 0.25 + self.b * u[0]

    def field(self, x):
        return self.rhs(x, np.zeros(1))


def special_vector(rng, n):
    v = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    for i in rng.choice(n, size=min(n, 3), replace=False):
        v[i] = SPECIAL[rng.integers(len(SPECIAL))]
    return v


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_autonomous_step_keeps_numpys_bits(n):
    rng = np.random.default_rng(100 + n)
    for case in range(40):
        scale = (1.0, 1e-300, 1e160, -2.0)[case % 4]
        h = (1e-3, 0.37, 2.0, 1e-310, 0.05)[case % 5]
        x, k1 = special_vector(rng, n), special_vector(rng, n)
        ours, theirs = LoggedField(np.random.default_rng(case), n, scale), LoggedField(np.random.default_rng(case), n, scale)
        got = rk4_autonomous_step(ours.field, x, h, k1)
        with np.errstate(all="ignore"):
            want = numpy_autonomous_step(theirs.field, x, h, k1)
        assert got.shape == (n,) and got.dtype == np.float64
        assert hexes(got) == hexes(want), (n, case)
        assert ours.log == theirs.log, (n, case)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("controlled", [False, True])
def test_integrate_keeps_numpys_bits(n, controlled):
    rng = np.random.default_rng(200 + n)
    u = ControlSignal(0.3, 0.5, 1, lambda t: np.array([0.5 * np.cos(7.0 * t)])) if controlled else None
    finite = [v for v in SPECIAL if np.isfinite(v) and abs(v) < 1e150]
    for case in range(12):
        scale = (1.0, 1e-300, 1e140, -3.0)[case % 4]
        x0 = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        x0[rng.integers(n)] = finite[case % len(finite)]
        if case % 3 == 2:
            x0[0] = 9e149  # near the largest blow-up threshold: stages may overflow
        h = (0.01, 0.07, 0.013)[case % 3]
        cfg = IntegrationConfig(step=h, blowup_norm=1e150)
        ours, theirs = LoggedField(np.random.default_rng(case), n, scale), LoggedField(np.random.default_rng(case), n, scale)
        stages, want_stages = [], []
        traj = integrate(ours, x0, u, (0.0, 0.3), cfg, stages)
        with np.errstate(all="ignore"):
            states, escaped = numpy_integrate(theirs.rhs, x0, u, 0.3, h, 1e150, want_stages)
        assert traj.escaped == escaped, (n, case)
        assert hexes(traj.states) == hexes(states), (n, case)
        assert ours.log == theirs.log, (n, case)
        assert [hexes(k) for k in stages] == [hexes(k) for k in want_stages], (n, case)
