"""System, signal, and sampling-instant construction contracts."""

from types import SimpleNamespace

import numpy as np
import pytest

from sdstab.liecalc import ExprVectorField
from sdstab.sdfctl import PerSampleQuadratic, sampling_times
from sdstab.sysmodel import (
    AffineSystem,
    ControlSignal,
    GeneralSystem,
    StateLinearSystem,
    _all_finite,
    product,
    state_vector,
    zero_signal,
)


def test_state_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        state_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        state_vector([np.inf])
    np.testing.assert_array_equal(state_vector([1, 2]), [1.0, 2.0])


class TestPartitions:
    """The sampling instants of a run, from :func:`sdstab.sdfctl.sampling_times`."""

    def test_uniform_values(self):
        assert list(sampling_times(0.5, 1.0)) == [0.0, 0.5, 1.0]

    def test_single_time_is_zero(self):
        # a horizon shorter than the step leaves 0 as the one instant before it
        assert list(sampling_times(1.0, 0.5)) == [0.0, 0.5]

    def test_long_uniform_endpoint(self):
        times = list(sampling_times(0.05, 10.0))
        assert len(times) == 201
        assert times[-2:] == [199 * 0.05, 10.0]

    def test_invalid_arguments(self):
        for h, horizon in [(0.0, 1.0), (-0.1, 1.0), (np.nan, 1.0), (np.inf, 1.0),
                           (0.1, 0.0), (0.1, np.nan), (0.1, np.inf)]:
            # raised at the call, before any instant is asked for
            with pytest.raises(ValueError, match="positive and finite"):
                sampling_times(h, horizon)


class TestControlSignal:
    def test_bound_check_on_grid(self):
        sig = ControlSignal(1.0, 1.0, 1, lambda ts: np.sin(3 * ts)[:, None])
        assert sig.check_bound(1000) <= 1.0

    def test_violating_bound_raises(self):
        with pytest.raises(ValueError):
            ControlSignal(1.0, 0.5, 1, lambda ts: np.ones((len(ts), 1)))

    def test_zero_signal(self):
        z = zero_signal(2.0, 3)
        np.testing.assert_array_equal(z.value(1.0), np.zeros(3))
        assert z.bound == 0.0

    def test_clamps_outside_domain(self):
        sig = ControlSignal(1.0, 2.0, 1, lambda ts: ts[:, None])
        assert sig.value(5.0)[0] == 1.0
        assert sig.value(-1.0)[0] == 0.0


class TestSystems:
    def test_general_requires_equilibrium_at_origin(self):
        with pytest.raises(ValueError):
            GeneralSystem(1, 1, lambda x, u: x + 1.0)

    def test_state_linear_rhs(self):
        sys = StateLinearSystem(
            lambda x: np.array([[0.0, 1.0], [0.0, 0.0]]),
            lambda x: np.array([[0.0], [1.0]]),
            2,
            1,
        )
        np.testing.assert_allclose(sys.rhs(np.array([1.0, 2.0]), np.array([3.0])), [2.0, 3.0])
        np.testing.assert_allclose(sys.rhs(np.zeros(2), np.zeros(1)), [0.0, 0.0])

    def test_state_dependent_entry(self):
        sys = StateLinearSystem(
            lambda x: np.array([[x[0], 0.0], [0.0, 0.0]]),
            lambda x: np.zeros((2, 1)),
            2,
            1,
        )
        np.testing.assert_allclose(sys.rhs(np.array([2.0, 0.0]), np.array([5.0])), [4.0, 0.0])

    def test_affine_rhs(self):
        f = ExprVectorField.from_text("x2, 0", 2)
        gf = ExprVectorField.from_text("0, 1", 2)
        sys = AffineSystem(f, gf)
        np.testing.assert_allclose(sys.rhs(np.array([1.0, 2.0]), np.array([-1.0])), [2.0, -1.0])
        np.testing.assert_allclose(sys.rhs(np.array([1.0, 2.0]), np.array([0.0])), [2.0, 0.0])
        np.testing.assert_allclose(sys.rhs(np.zeros(2), np.zeros(1)), [0.0, 0.0])

    def test_affine_drift_must_vanish_at_origin(self):
        f = ExprVectorField.from_text("x2 + 1, 0", 2)
        gf = ExprVectorField.from_text("0, 1", 2)
        with pytest.raises(ValueError):
            AffineSystem(f, gf)

    def test_nonfinite_matrices_at_origin_raise(self):
        with pytest.raises(ValueError, match="finite at the origin"):
            StateLinearSystem(lambda x: np.array([[np.inf]]), np.ones((1, 1)), 1, 1)
        with pytest.raises(ValueError, match="finite at the origin"):
            StateLinearSystem(lambda x: np.eye(1), lambda x: np.array([[np.nan]]), 1, 1)

    def test_matrix_shape_validation(self):
        with pytest.raises(ValueError):
            StateLinearSystem(lambda x: np.zeros((2, 3)), lambda x: np.zeros((2, 1)), 2, 1)


class TestConstantInputMatrix:
    def A(self, x):
        return np.array([[0.0, 1.0], [np.sin(x[0]), x[1] ** 2]])

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError):
            StateLinearSystem(self.A, np.zeros((2, 2)), 2, 1)
        with pytest.raises(ValueError):
            StateLinearSystem(self.A, np.zeros(2), 2, 1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_entry_raises(self, bad):
        with pytest.raises(ValueError):
            StateLinearSystem(self.A, np.array([[0.0], [bad]]), 2, 1)

    def test_stored_read_only_and_not_aliased(self):
        B = np.array([[0.0], [1.0]])
        sys = StateLinearSystem(self.A, B, 2, 1)
        assert sys.constant_B
        assert not sys.B.flags.writeable
        with pytest.raises(ValueError):
            sys.B[1, 0] = 2.0
        B[1, 0] = 2.0
        assert sys.matrices_at([0.3, -0.2])[1][1, 0] == 1.0

    def test_matrices_and_rhs_match_callable(self):
        B = np.array([[0.0], [1.0]])
        const = StateLinearSystem(self.A, B, 2, 1)
        func = StateLinearSystem(self.A, lambda x: B, 2, 1)
        assert not func.constant_B
        rng = np.random.default_rng(3)
        for x in rng.uniform(-2.0, 2.0, (50, 2)):
            Ac, Bc = const.matrices_at(x)
            Af, Bf = func.matrices_at(x)
            assert np.array_equal(Ac, Af) and np.array_equal(Bc, Bf)
            u = rng.uniform(-1.0, 1.0, 1)
            assert np.array_equal(const.rhs(x, u), func.rhs(x, u))

    def test_closed_loop_field_matches_callable(self):
        B = np.array([[0.0], [1.0]])
        const = StateLinearSystem(self.A, B, 2, 1)
        func = StateLinearSystem(self.A, lambda x: B, 2, 1)
        F = np.array([[-2.0, -3.0]])
        f_const, f_func = const.closed_loop_field(F), func.closed_loop_field(F)
        for x in np.random.default_rng(4).uniform(-2.0, 2.0, (50, 2)):
            expected = (self.A(x) + B @ F) @ x
            assert np.array_equal(f_const(x), expected)
            assert np.array_equal(f_func(x), expected)

    def test_state_matrix_checks_finiteness(self):
        sys = StateLinearSystem(lambda x: np.eye(1), np.ones((1, 1)), 1, 1)
        sys.A = lambda x: np.array([[np.inf]])
        with pytest.raises(ValueError):
            sys.state_matrix(np.ones(1))
        with pytest.raises(ValueError):
            sys.matrices_at(np.ones(1))


# -- the per-step products and the finiteness check -------------------------------

# Signed zeros, subnormals and magnitudes near 1e150 (the largest the escape
# test lets through), mixed into draws whose magnitudes spread over e^+-20.
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.3e-315, 1e150, -9.9e149, 1.7e-150]


def draw_operand(rng, shape):
    v = rng.choice([-1.0, 1.0], shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
    special = rng.random(shape) < 0.15
    v[special] = rng.choice(SPECIAL_VALUES, int(special.sum()))
    return v


SHAPES = [
    ((2, 2), (2,)),
    ((2, 1), (1,)),
    ((1, 2), (2,)),
    ((2, 1), (1, 2)),
    ((2,), (2,)),
    ((2,), (2, 2)),
    ((1, 1), (1,)),
    ((1,), (1, 1)),
    ((3, 3), (3,)),
    ((2, 2), (2, 2)),
]


@pytest.mark.parametrize(
    "left, right", SHAPES, ids=["x".join(map(str, a)) + "." + "x".join(map(str, b)) for a, b in SHAPES]
)
def test_product_gives_the_bits_of_matmul(left, right):
    # every product of the step loop: A(x) x, B u, B F, F x, x P x
    inner = left[-1]
    times = product(inner)
    assert times is (np.ndarray.dot if inner > 1 else np.matmul)
    rng = np.random.default_rng(2020)
    for _ in range(3000):
        a, b = draw_operand(rng, left), draw_operand(rng, right)
        assert times(a, b).tobytes() == (a @ b).tobytes(), (a.tolist(), b.tolist())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_self_dot_gives_the_bits_of_matmul(n):
    # the escape test's x.dot(x) and check_bound's u.dot(u) at any dimension
    rng = np.random.default_rng(n)
    for _ in range(3000):
        x = draw_operand(rng, (n,))
        assert x.dot(x).tobytes() == (x @ x).tobytes(), x.tolist()


def test_system_products_give_the_bits_of_matmul():
    # rhs, the closed-loop field and 0.5 x'P x against the same expressions
    # written with @, at every state and input dimension up to 3
    rng = np.random.default_rng(11)
    for n, m in [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)] * 200:
        A, B, F = draw_operand(rng, (n, n)), draw_operand(rng, (n, m)), draw_operand(rng, (m, n))
        x, u = draw_operand(rng, (n,)), draw_operand(rng, (m,))
        const = StateLinearSystem(lambda _x: A, B, n, m)
        func = StateLinearSystem(lambda _x: A, lambda _x: B, n, m)
        with np.errstate(all="ignore"):
            for sys in (const, func):
                assert sys.rhs(x, u).tobytes() == (A @ x + B @ u).tobytes()
                assert sys.closed_loop_field(F)(x).tobytes() == ((A + B @ F) @ x).tobytes()
            P = A @ A.T
            record = SimpleNamespace(xi=x, info={"synthesis": SimpleNamespace(lyapunov=P)})
            V = PerSampleQuadratic().for_interval(record)
            assert float.hex(V(x)) == float.hex(0.5 * float(x @ P @ x))


@pytest.mark.parametrize(
    "M",
    [
        np.array([[1e308, 1e308], [0.0, 0.0]]),  # finite, though its sum overflows
        np.array([-1e308, -1e308, 5e-324]),
        np.array([np.inf, -np.inf]),
        np.array([[0.0, np.nan], [1.0, 2.0]]),
        np.array([[np.inf]]),
        np.array([[-0.0, 5e-324], [1e150, -1e-150]]),
        np.zeros((0, 2)),
    ],
)
def test_all_finite_matches_isfinite(M):
    assert _all_finite(M) == bool(np.isfinite(M).all())


def test_all_finite_matches_isfinite_on_draws():
    rng = np.random.default_rng(7)
    pool = np.array([1.0, -2.5, 1e308, -1e308, 5e-324, np.inf, -np.inf, np.nan])
    for _ in range(2000):
        M = rng.choice(pool, rng.integers(1, 5, 2))
        assert _all_finite(M) == bool(np.isfinite(M).all()), M.tolist()


# -- the closed-loop field on stacks of states ------------------------------------


def lookup_matrix(rng, shape):
    """A seeded function of the state: a drawn matrix per state, zeros elsewhere.

    States are keyed by their bytes, so +0.0 and -0.0 get matrices of their own.
    """
    table = {}
    calls = []

    def matrix(x):
        calls.append(x.tobytes())
        return table.get(x.tobytes(), np.zeros(shape))

    def fill(X):
        for x in X:
            table[x.tobytes()] = draw_operand(rng, shape)

    matrix.fill, matrix.calls = fill, calls
    return matrix


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("callable_B", [False, True], ids=["constant-B", "callable-B"])
def test_stacked_closed_loop_field_keeps_the_per_state_bits(n, m, callable_B):
    rng = np.random.default_rng(300 + 10 * n + 2 * m + callable_B)
    A = lookup_matrix(rng, (n, n))
    B = lookup_matrix(rng, (n, m)) if callable_B else draw_operand(rng, (n, m))
    sys = StateLinearSystem(A, B, n, m)
    for _ in range(150):
        X = draw_operand(rng, (int(rng.integers(1, 40)), n))
        A.fill(X)
        if callable_B:
            B.fill(X)
        field = sys.closed_loop_field(draw_operand(rng, (m, n)))
        with np.errstate(all="ignore"):
            want = np.array([field(x.copy()) for x in X])
            del A.calls[:]
            got = field(X)
        assert got.shape == X.shape and got.tobytes() == want.tobytes(), X.tolist()
        # A is evaluated once per row, in row order
        assert A.calls == [x.tobytes() for x in X]


@pytest.mark.parametrize(
    "callable_B, which", [(False, "A"), (True, "A"), (True, "B")], ids=["A-constant-B", "A-callable-B", "B"]
)
def test_stacked_closed_loop_field_checks_finiteness(callable_B, which):
    def spoiled(x, shape):
        return np.full(shape, np.inf) if x[0] > 1.0 else np.ones(shape)

    A = (lambda x: spoiled(x, (2, 2))) if which == "A" else (lambda x: np.ones((2, 2)))
    B = (lambda x: spoiled(x, (2, 1))) if which == "B" else (lambda x: np.ones((2, 1)))
    sys = StateLinearSystem(A, B if callable_B else np.ones((2, 1)), 2, 1)
    field = sys.closed_loop_field(np.array([[-1.0, -2.0]]))
    assert field(np.array([[0.5, 0.0], [1.0, 1.0]])).shape == (2, 2)
    with pytest.raises(ValueError, match="system matrices must be finite at finite states"):
        field(np.array([[0.5, 0.0], [2.0, 1.0], [0.1, 0.0]]))


class TestVectorizedSignal:
    def test_values_clamp_and_stack(self):
        sig = ControlSignal(1.0, 2.0, 2, lambda ts: np.column_stack([ts, -ts]))
        np.testing.assert_array_equal(sig.values([-1.0, 0.25, 5.0]), [[0.0, -0.0], [0.25, -0.25], [1.0, -1.0]])
        np.testing.assert_array_equal(sig.value(0.5), [0.5, -0.5])

    def test_each_read_is_one_call(self):
        calls = []

        def func(ts):
            calls.append(len(ts))
            return np.zeros((len(ts), 1))

        sig = ControlSignal(1.0, 0.0, 1, func)
        sig.value(0.3)
        sig.check_bound(1000)
        assert calls == [33, 1, 1000]

    def test_a_scalar_shaped_func_is_refused(self):
        with pytest.raises(ValueError, match=r"returned shape \(1,\) for 33 times and 1 inputs"):
            ControlSignal(1.0, 1.0, 1, lambda t: np.array([0.0]))
