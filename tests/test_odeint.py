"""Integrator accuracy, blow-up handling, and excursion measurement."""

import warnings

import numpy as np
import pytest

from sdstab.odeint import BLOCK_STEPS, IntegrationConfig, integrate, max_excursion, rk4_autonomous_step, rk4_stack_step
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
    # A(x) is finite, so state_matrix lets it through; A(x) x overflows to inf,
    # which the escape test catches and reports, with no NumPy warning
    sys = StateLinearSystem(lambda x: np.array([[1e300, 1e300], [0.0, -1.0]]), np.zeros((2, 1)), 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(sys, [1e10, 1.0], None, (0.0, 1.0), IntegrationConfig(step=0.25))
    assert traj.escaped
    assert traj.escape_time == 0.25
    np.testing.assert_array_equal(traj.states, [[1e10, 1.0]])


def test_non_finite_state_matrix_still_raises():
    # A(x) is finite at the origin; at x1 = 10 its entry x1 * 1e308 overflows to inf
    sys = StateLinearSystem(lambda x: np.array([[x[0] * 1e308]]), np.zeros((1, 1)), 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="system matrices must be finite at finite states"):
            integrate(sys, [10.0], None, (0.0, 1.0), IntegrationConfig(step=0.25))


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

    def func(ts):
        seen.extend(ts.tolist())
        return np.zeros((len(ts), 1))

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


@pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf])
def test_config_rejects_a_non_finite_step(step):
    with pytest.raises(ValueError, match="integration step must be positive and finite"):
        IntegrationConfig(step=step)


@pytest.mark.parametrize("blowup", [np.nan, np.inf])
def test_config_rejects_a_non_finite_threshold(blowup):
    with pytest.raises(ValueError, match="blow-up threshold must exceed 1 and not exceed 1e150"):
        IntegrationConfig(blowup_norm=blowup)


def test_stage_of_the_wrong_length_raises():
    # a 2-D system whose field returns one value: NumPy would broadcast it
    short = GeneralSystem(2, 1, lambda x, u: -x[:1])
    with pytest.raises(ValueError, match=r"shape \(1,\) for a state of dimension 2"):
        integrate(short, [1.0, 2.0], None, (0.0, 1.0))
    with pytest.raises(ValueError, match=r"shape \(3,\) for a state of dimension 2"):
        rk4_autonomous_step(lambda y: np.ones(3), np.ones(2), 0.1, np.ones(2))
    with pytest.raises(ValueError, match=r"shape \(2, 1\) for a state of dimension 2"):
        rk4_autonomous_step(lambda y: y, np.ones(2), 0.1, np.ones((2, 1)))
    with pytest.raises(ValueError, match=r"shape \(3, 1\) for a stack of 3 states of dimension 2"):
        rk4_stack_step(lambda Y: Y[:, :1], np.ones((3, 2)), np.full(3, 0.1), np.ones((3, 2)))


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
    u = ControlSignal(0.3, 0.5, 1, lambda ts: 0.5 * np.cos(7.0 * ts)[:, None]) if controlled else None
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stack_step_keeps_the_bits_of_one_step_per_row(n):
    # the frozen-gain playback's substeps: each row as rk4_autonomous_step takes it
    rng = np.random.default_rng(500 + n)
    for case in range(40):
        k = int(rng.integers(1, 40))
        # half the cases without special values, where rounding decides the bits
        draw = special_vector if case % 2 else (lambda rng, n: rng.normal(size=n))
        X = np.array([draw(rng, n) for _ in range(k)])
        K1 = np.array([draw(rng, n) for _ in range(k)])
        dt = rng.choice([1e-3, 0.37, 2.0, 1e-310, 0.05, 5e-4], k)
        ours = LoggedField(np.random.default_rng(case), n, (1.0, 1e-300, 1e160, -2.0)[case % 4])
        theirs = LoggedField(np.random.default_rng(case), n, ours.scale)
        with np.errstate(all="ignore"):
            got = rk4_stack_step(lambda Y: np.array([ours.field(y) for y in Y]), X, dt, K1)
            want = [rk4_autonomous_step(theirs.field, x, h, k1) for x, h, k1 in zip(X, dt, K1)]
        assert got.shape == (k, n)
        assert hexes(got) == hexes(want), (n, case)
        # the stack takes each stage for all rows before the next stage
        assert sorted(ours.log) == sorted(theirs.log), (n, case)


class CountedSignal(ControlSignal):
    """A seeded smooth signal that records the length of every call of its function."""

    def __init__(self, horizon):
        self.calls = []
        super().__init__(horizon, 1.0, 1, self._inputs)
        del self.calls[:]

    def _inputs(self, ts):
        self.calls.append(len(ts))
        return 0.5 * np.cos(7.0 * ts)[:, None]


@pytest.mark.parametrize(
    "window, h",
    [(0.3, 0.01), (0.3005, 1e-3), (0.5123, 1e-3), (2 * BLOCK_STEPS * 1e-3, 1e-3)],
    ids=["one-block", "past-a-block-partial-step", "three-blocks-partial-step", "two-whole-blocks"],
)
@pytest.mark.parametrize("n", [1, 2])
def test_block_fetching_matches_the_per_query_loop(n, window, h):
    rng = np.random.default_rng(700 + n)
    steps = int(np.ceil(window / h - 1e-12))
    for case in range(3):
        x0 = rng.normal(size=n)
        u = CountedSignal(window)
        ours, theirs = LoggedField(np.random.default_rng(case), n, -1.0), LoggedField(np.random.default_rng(case), n, -1.0)
        stages, want_stages = [], []
        traj = integrate(ours, x0, u, (0.0, window), IntegrationConfig(step=h), stages)
        fetched = list(u.calls)
        with np.errstate(all="ignore"):
            states, escaped = numpy_integrate(theirs.rhs, x0, u, window, h, 1e6, want_stages)
        assert not traj.escaped and not escaped
        assert hexes(traj.states) == hexes(states)
        assert ours.log == theirs.log
        assert [hexes(k) for k in stages] == [hexes(k) for k in want_stages]
        tau, want_inputs = 0.0, [u.value(0.0)]
        for _ in range(steps):
            hk = min(h, window - tau)
            want_inputs.append(u.value(tau + hk))
            tau = window if tau + hk >= window - 1e-12 else tau + hk
        assert len(traj) == steps + 1
        assert hexes(traj.inputs) == hexes(want_inputs)
        # one call per block: the start input, then a midpoint and an end per step
        blocks = [min(BLOCK_STEPS, steps - b) for b in range(0, steps, BLOCK_STEPS)]
        assert fetched == [2 * blocks[0] + 1] + [2 * b for b in blocks[1:]]
