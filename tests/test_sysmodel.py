"""System, signal, and sampling-instant construction contracts."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from sdstab import registry
from sdstab.cli import Config, _build_system
from sdstab.errors import NonFiniteMatrixError, NumericalFailure
from sdstab.liecalc import ExprVectorField
from sdstab.odeint import IntegrationConfig, _rk4_kernel, integrate
from sdstab.sdfctl import PerSampleQuadratic, sampling_times
from sdstab.sysmodel import (
    AffineSystem,
    ControlSignal,
    StateLinearSystem,
    _all_finite,
    _linear_code,
    constant_signal,
    at_origin,
    matrix_from_entries,
    origin_value,
    product,
    rows_product,
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

    @pytest.mark.parametrize("nan_times", [lambda ts: ts == 0.5, lambda ts: ts >= 0.0], ids=["one", "all"])
    def test_nan_at_a_spot_check_time_fails_the_bound(self, nan_times):
        # t = 0.5 is one of the 33 spot-check times; max() would skip its NaN
        def func(ts):
            return np.where(nan_times(ts), np.nan, 0.5)[:, None]

        with pytest.raises(ValueError, match="exceeds its declared bound: nan > 1000"):
            ControlSignal(1.0, 1000.0, 1, func)

    def test_nan_between_spot_check_times_fails_the_finer_check(self):
        # NaN only near t = 0.5005, which the 1000-point grid hits and the 33-point grid does not
        sig = ControlSignal(1.0, 1000.0, 1, lambda ts: np.where(abs(ts - 0.5005) < 1e-4, np.nan, 0.5)[:, None])
        assert sig.check_bound(33) == 0.5
        with pytest.raises(ValueError, match="exceeds its declared bound: nan > 1000"):
            sig.check_bound(1000)

    def test_zero_signal(self):
        z = zero_signal(2.0, 3)
        np.testing.assert_array_equal(z.value(1.0), np.zeros(3))
        assert z.bound == 0.0

    def test_clamps_outside_domain(self):
        sig = ControlSignal(1.0, 2.0, 1, lambda ts: ts[:, None])
        assert sig.value(5.0)[0] == 1.0
        assert sig.value(-1.0)[0] == 0.0


class TestSystems:
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

    @pytest.mark.parametrize("drift", ["x2 + 0/(x1^2 + x2^2), 0", "x2, 1/x1", "x2 + 2e-12, 0"])
    def test_affine_drift_that_does_not_vanish_is_refused_without_a_warning(self, drift):
        # 0/0 at the origin is NaN and 1/0 is inf: both are refused, and NumPy's warning would only repeat it
        f = ExprVectorField.from_text(drift, 2)
        gf = ExprVectorField.from_text("0, 1", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="drift\\(0\\) must vanish"):
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
        with pytest.raises(NonFiniteMatrixError):
            sys.state_matrix(np.ones(1))
        with pytest.raises(NonFiniteMatrixError):
            sys.matrices_at(np.ones(1))

    @pytest.mark.parametrize("which", ["A", "B"])
    def test_non_finite_matrix_is_a_numerical_failure_naming_the_state(self, which):
        # one type from every check: a NumericalFailure, and not a configuration error
        def spoiled(x):
            return np.full((1, 1), np.inf) if x[0] > 1.0 else np.ones((1, 1))

        def one(x):
            return np.ones((1, 1))

        sys = StateLinearSystem(spoiled, one, 1, 1) if which == "A" else StateLinearSystem(one, spoiled, 1, 1)
        field = sys.closed_loop_field(np.ones((1, 1)))
        checks = [lambda: sys.matrices_at([2.0]), lambda: field(np.array([[0.5], [2.0], [3.0]]))]
        if which == "A":
            checks.append(lambda: sys.state_matrix(np.array([2.0])))
        name = "state matrix A" if which == "A" else "input matrix B"
        for check in checks:
            with pytest.raises(NonFiniteMatrixError, match=r"the %s\(x\) is not finite at x = \[2\.0\]" % name) as info:
                check()
            assert isinstance(info.value, NumericalFailure) and not isinstance(info.value, ValueError)


    def test_a_B_of_the_wrong_shape_raises(self):
        # n x m at the origin and 1 x 1 elsewhere: unchecked, B(x) u and B(x) F broadcast onto both coordinates
        def B(x):
            return [[0.0], [1.0]] if not np.any(x) else [[5.0]]

        def stacked_B(X):
            return np.full((len(X), 1, 1), 5.0)

        def stacked_A(X):
            return np.zeros((len(X), 2, 1))

        B.stack = stacked_B
        sys = StateLinearSystem(lambda x: np.zeros((2, 2)), B, 2, 1)
        field = sys.closed_loop_field(np.array([[-1.0, -1.0]]))
        one = r"B\(x\) must be 2 x 1, got shape \(1, 1\)"
        checks = [
            (lambda: integrate(sys, [0.25, 0.25], constant_signal(1.0, [1.0]), (0.0, 1.0), IntegrationConfig(step=0.25)), one),
            (lambda: field(np.array([0.25, 0.25])), one),
            (lambda: field(np.array([[0.25, 0.25], [1.0, 0.0]])), r"input matrix B\(x\) of 2 states must have shape \(2, 2, 1\), got \(2, 1, 1\)"),
        ]
        for check, message in checks:
            with pytest.raises(ValueError, match=message):
                check()
        del B.stack  # called row by row
        with pytest.raises(ValueError, match=r"B\(x\) of 3 states must have shape \(3, 2, 1\), got \(3, 1, 1\)"):
            field(np.array([[0.25, 0.25], [1.0, 0.0], [0.0, 2.0]]))
        A = lambda x: np.zeros((2, 2))  # noqa: E731
        A.stack = stacked_A
        sys.A = A
        with pytest.raises(ValueError, match=r"state matrix A\(x\) of 1 states must have shape \(1, 2, 2\), got \(1, 2, 1\)"):
            sys.closed_loop_field(np.array([[-1.0, -1.0]]))(np.array([[0.25, 0.25]]))


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_per_sample_quadratic_on_a_stack_keeps_the_per_state_bits(n):
    # certify_decrease values an interval's grid states in one call; each row must be V(x)
    rng = np.random.default_rng(50 + n)
    for i in range(300):
        A = draw_operand(rng, (n, n))
        # a sample at the origin has no synthesis: V is 0.5 |x|^2
        info = {"synthesis": SimpleNamespace(lyapunov=A @ A.T)} if i % 5 else {}
        V = PerSampleQuadratic().for_interval(SimpleNamespace(xi=np.zeros(n), info=info))
        X = draw_operand(rng, (int(rng.integers(1, 30)), n))
        with np.errstate(all="ignore"):
            assert list(map(float.hex, V(X).tolist())) == [float.hex(V(x)) for x in X]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_input_terms_give_the_bits_of_matmul(n, m):
    # integrate forms a block's B u in one call; each row must be B @ u
    rng = np.random.default_rng(40 + 3 * n + m)
    for _ in range(300):
        B = draw_operand(rng, (n, m))
        k = int(rng.integers(1, 60))
        const = StateLinearSystem(lambda _x: np.zeros((n, n)), B, n, m)
        func = StateLinearSystem(lambda _x: np.zeros((n, n)), lambda _x: B, n, m)
        # a constant signal's stack is one row broadcast
        for U in (draw_operand(rng, (k, m)), np.broadcast_to(draw_operand(rng, (m,)), (k, m))):
            W = np.array(const.input_terms(U))
            assert W.shape == (k, n)
            for u, w in zip(U, W):
                assert w.tobytes() == (B @ u).tobytes(), (B.tolist(), u.tolist())
            assert func.input_terms(U) is U
        x = draw_operand(rng, (n,))
        with np.errstate(all="ignore"):
            want = (product(n)(np.zeros((n, n)), x) + product(m)(B, U[0])).tobytes()
            for sys in (const, func):
                assert np.array(sys.stage(x.tolist(), sys.input_terms(U)[0])).tobytes() == want


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3)])
def test_rows_product_keeps_the_bits_of_each_row(n, m):
    # one matrix for every row (F x, B u) or one per row ((A + BF) x), against M @ x row by row
    rng = np.random.default_rng(500 + 10 * n + m)
    for _ in range(300):
        X = draw_operand(rng, (int(rng.integers(1, 40)), m))
        M, stack = draw_operand(rng, (n, m)), draw_operand(rng, (len(X), n, m))
        with np.errstate(all="ignore"):
            assert rows_product(M, X).tobytes() == np.array([M @ x for x in X]).tobytes(), (M.tolist(), X.tolist())
            want = np.array([Mk @ x for Mk, x in zip(stack, X)])
            assert rows_product(stack, X).tobytes() == want.tobytes(), (stack.tolist(), X.tolist())


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_rhs_keeps_its_bits_with_a_constant_and_a_callable_B(n, m):
    # both forms of B take one path: A is evaluated once per call, a constant B never
    rng = np.random.default_rng(70 + 10 * n + m)
    calls = []
    for _ in range(300):
        A, B = draw_operand(rng, (n, n)), draw_operand(rng, (n, m))
        x, u = draw_operand(rng, (n,)), draw_operand(rng, (m,))
        const = StateLinearSystem(lambda _x: calls.append(_x) or A, B, n, m)
        func = StateLinearSystem(lambda _x: A, lambda _x: B, n, m)
        del calls[:]
        with np.errstate(all="ignore"):
            want = (A @ x + B @ u).tobytes()
            assert const.rhs(x, u).tobytes() == want and func.rhs(x, u).tobytes() == want
        assert len(calls) == 1


def test_at_origin_on_states_and_on_rows():
    assert at_origin(np.array([1e-12, -1e-12])) and at_origin(np.array([-0.0]))
    assert not at_origin(np.array([1e-12, -1.0000001e-12]))
    assert not at_origin(np.array([np.nan, 0.0]))
    X = np.array([[0.0, 0.0], [1e-13, -1e-13], [2e-12, 0.0], [0.0, np.nan], [5e-324, -0.0], [0.0, -1.0]])
    assert at_origin(X).tolist() == [True, True, False, False, True, False]
    assert at_origin(X).tolist() == [bool(at_origin(x)) for x in X]


def test_at_origin_on_values():
    # a scalar value is a state of one coordinate: V(0) is judged by the rule a state is
    assert at_origin(0.0) and at_origin(-1e-12) and at_origin(np.float64(5e-324))
    assert not at_origin(2e-12) and not at_origin(np.nan) and not at_origin(-np.inf)
    assert at_origin(np.array([0.0, 1e-13])) and not at_origin(np.array([0.0, np.nan]))


def test_origin_value_prints_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = origin_value(lambda x, c: c / x, 2, np.array([0.0, 1.0]))
    assert np.isnan(v[0]) and v[1] == np.inf


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
    with pytest.raises(NonFiniteMatrixError, match="system matrices must be finite at finite states"):
        field(np.array([[0.5, 0.0], [2.0, 1.0], [0.1, 0.0]]))


# -- stages on the float form of A ----------------------------------------------------

INLINE_A = """
[system]
dim = 2
A = 0, 1; sin(x1) + 1/(x1 - 2), x2^2
B = 0; 1
"""


def build_statedep(tmp_path):
    return registry.statedep_2d()


def build_inline(tmp_path, text=INLINE_A):
    path = tmp_path / "a.ini"
    path.write_text(text)
    return _build_system(Config.load(str(path)))


def build_callable_B(tmp_path):
    # cos(x2) names a coordinate, so B is a function of the state
    system = build_inline(tmp_path, INLINE_A.replace("B = 0; 1", "B = 0; cos(x2)"))
    assert not system.constant_B
    return system


def outcome(run):
    """The bits of run()'s values, or the error it raised."""
    try:
        return [float.hex(v) for v in run()]
    except (ValueError, NumericalFailure) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def stage_outcome(stage, ys, w):
    """The bits of a stage's values, or the error it raised."""
    return outcome(lambda: stage(ys, w))


# x2 ** 2 overflows beyond 1.3e154, x1 = 2 divides by zero and sin(+-inf) is NaN in
# the inline A (cos(+-inf) in the callable B); a finite A(x) whose product overflows escapes
FLOAT_FORM_EDGES = [0.0, -0.0, 2.0, 1e100, 1.3e154, -1.35e154, 1e200, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize(
    "build", [build_statedep, build_inline, build_callable_B], ids=["statedep-2d", "inline", "callable-B"]
)
def test_float_form_stage_keeps_the_bits_of_the_array_stage(tmp_path, build):
    # a stage reads A's float form, or else calls A(x): both give the same bits and errors
    fast, slow = build(tmp_path), build(tmp_path)
    assert callable(fast.A.entries)
    A = slow.A
    slow.A = lambda x: A(x)  # no float form: the stage calls it
    F = np.array([[-1.5, -2.25]])
    fast_field, slow_field = fast.closed_loop_field(F).stage, slow.closed_loop_field(F).stage
    rng = np.random.default_rng(35)
    states = rng.uniform(-3.0, 3.0, (300, 2)).tolist()
    states += (rng.normal(size=(300, 2)) * 10.0 ** rng.integers(-5, 160, (300, 2))).tolist()
    states += [[a, b] for a in FLOAT_FORM_EDGES for b in FLOAT_FORM_EDGES]
    seen = set()
    with np.errstate(all="ignore"):
        for ys in states:
            for u in (0.7, -0.0):
                w = fast.input_terms(np.array([[u]]))[0]
                got = stage_outcome(fast.stage, ys, w)
                assert got == stage_outcome(slow.stage, ys, w), ys
                seen.add(got[:26] if isinstance(got, str) else "inf" in str(got))
            got = stage_outcome(fast_field, ys, None)
            assert got == stage_outcome(slow_field, ys, None), ys
    # finite values, overflowed products and matrices refused as not finite all occur
    assert {False, True, "NonFiniteMatrixError: syst"} <= seen


def test_float_form_stage_does_not_call_A():
    system = registry.statedep_2d()
    entries = system.A.entries

    def A(x):
        raise AssertionError("A(x) called where its float form serves")

    A.entries = entries
    system.A = A
    traj = integrate(system, [2.0, -1.0], constant_signal(0.5, [0.3]), (0.0, 0.5), IntegrationConfig(step=0.01))
    assert len(traj) == 51 and not traj.escaped
    system.closed_loop_field(np.array([[-1.0, -2.0]]))(np.array([0.5, 0.5]))


def test_a_float_form_of_the_wrong_length_raises():
    # 2 x 2 at the origin, three entries elsewhere
    A = matrix_from_entries(lambda xs: [1.0, 0.0, 0.0, 1.0] if not any(xs) else [1.0, 0.0, 0.0], (2, 2))
    system = StateLinearSystem(A, np.array([[0.0], [1.0]]), 2, 1)
    field = system.closed_loop_field(np.array([[-1.0, -1.0]]))
    checks = [
        lambda: integrate(system, [0.5, 0.5], None, (0.0, 1.0), IntegrationConfig(step=0.25)),
        lambda: system.rhs(np.array([0.5, 0.5]), np.zeros(1)),
        lambda: field(np.array([0.5, 0.5])),
        lambda: system.state_matrix([0.5, 0.5]),
    ]
    for check in checks:
        with pytest.raises(ValueError, match=r"the state matrix A\(x\) must be 2 x 2"):
            check()


def test_a_non_finite_float_form_names_the_state():
    # finite at the origin; at x1 = 10 the entry x1 * 1e308 overflows to inf
    A = matrix_from_entries(lambda xs: [xs[0] * 1e308, 0.0, 0.0, -1.0], (2, 2))
    system = StateLinearSystem(A, np.array([[0.0], [1.0]]), 2, 1)
    field = system.closed_loop_field(np.array([[-1.0, -1.0]]))
    checks = [
        lambda: system.rhs(np.array([10.0, 0.5]), np.zeros(1)),
        lambda: field(np.array([10.0, 0.5])),
        lambda: integrate(system, [10.0, 0.5], None, (0.0, 1.0), IntegrationConfig(step=0.25)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in checks:
            with pytest.raises(NonFiniteMatrixError, match=r"A\(x\) is not finite at x = \[10\.0, 0\.5\]"):
                check()


STEP_EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-310, 1e200, -1.3e154]


def edge_coordinates(rng, n):
    """A seeded coordinate list: normal draws of varied size, one in three entries a special value."""
    v = (rng.normal(size=n) * 10.0 ** rng.integers(-3, 3, n)).tolist()
    return [STEP_EDGES[rng.integers(len(STEP_EDGES))] if rng.random() < 1 / 3 else x for x in v]


def seeded_state_linear(rng, n, m, float_form, constant_B):
    """A state-linear system whose A entries are c + d x_i x_j, with its float form or without it."""
    C, D = rng.normal(size=(2, n * n)).tolist()
    entries = lambda xs: [c + d * xs[i // n] * xs[i % n] for i, (c, d) in enumerate(zip(C, D))]  # noqa: E731
    A = matrix_from_entries(entries, (n, n))
    B0 = rng.normal(size=(n, m))
    B = B0 if constant_B else (lambda x: B0 * (1.0 + 0.1 * x[0] * x[-1]))
    system = StateLinearSystem(A if float_form else (lambda x: A(x)), B, n, m)
    assert callable(getattr(system.A, "entries", None)) == float_form
    return system


def generic_step(stage, n, xs, h, ws, firsts):
    """The generic kernel driven by the standalone stage, its first stage recorded as integrate records it."""
    k1 = stage(xs, ws[0])
    firsts.append(k1)
    return _rk4_kernel(n)(stage, xs, h, k1, ws[1], ws[2])


def array_stage(system, F, xs, w):
    """The stage's values from the matrices on arrays: (A(x) + B F) x, or A(x) x + B u."""
    x = np.array(xs)
    n, m = system.dim_state, system.dim_input
    A, B = np.array(system.A(x)), system.B if system.constant_B else system.B(x)
    if F is not None:
        return product(n)(A + product(m)(B, F), x)
    return product(n)(A, x) + (np.array(w) if system.constant_B else product(m)(B, w))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("closed", [False, True], ids=["plant", "field"])
@pytest.mark.parametrize("float_form", [True, False], ids=["float-form-A", "plain-A"])
@pytest.mark.parametrize("constant_B", [True, False], ids=["constant-B", "callable-B"])
def test_the_generated_step_keeps_the_bits_of_the_generic_kernel(n, closed, float_form, constant_B):
    # the step writes the stage into itself four times; the generic kernel calls it
    rng = np.random.default_rng([n, closed, float_form, constant_B])
    seen = set()
    for case in range(120):
        m = 1 + case % 2
        system = seeded_state_linear(rng, n, m, float_form, constant_B)
        F = rng.normal(size=(m, n)) if closed else None
        xs, h = edge_coordinates(rng, n), (1e-3, 0.05, 0.37, 2.0, 1e-310)[case % 5]
        got_firsts, want_firsts = [], []
        with np.errstate(all="ignore"):
            if closed:
                stage, ws = system.closed_loop_field(F).stage, [None] * 3
            else:
                stage = system.stage
                ws = list(system.input_terms(np.array([edge_coordinates(rng, m) for _ in range(3)])))
            got = outcome(lambda: stage.step(xs, h, *ws, got_firsts))
            want = outcome(lambda: generic_step(stage, n, xs, h, ws, want_firsts))
            assert outcome(lambda: stage.step(xs, h, *ws, None)) == want, (case, xs)
            value = outcome(lambda: stage(xs, ws[0]))
            if not isinstance(value, str):
                assert value == outcome(lambda: array_stage(system, F, xs, ws[0]).tolist()), (case, xs)
        assert got == want, (case, xs)
        assert [outcome(lambda: k) for k in got_firsts] == [outcome(lambda: k) for k in want_firsts], (case, xs)
        seen.add(got.split(":")[0] if isinstance(got, str) else any("nan" in v or "inf" in v for v in got))
    # finite steps and refused matrices occur, and non-finite plant steps (from non-finite inputs)
    assert ({False, "NonFiniteMatrixError"} if closed else {False, True, "NonFiniteMatrixError"}) <= seen, seen


@pytest.mark.parametrize("closed", [False, True], ids=["plant", "field"])
@pytest.mark.parametrize("float_form", [True, False], ids=["float-form-A", "plain-A"])
@pytest.mark.parametrize("constant_B", [True, False], ids=["constant-B", "callable-B"])
def test_the_generated_step_refuses_a_matrix_at_a_stage_state(closed, float_form, constant_B):
    # from x1 = 1 the second stage state x1 + (h/2) a1 = 1.0005 crosses 1.0004; xs does not
    def system(spoiled):
        A = matrix_from_entries(lambda xs: [1.0, 0.0, 0.0, -1.0] if xs[0] <= 1.0004 else spoiled, (2, 2))
        B = np.array([[0.0], [1.0]])
        system = StateLinearSystem(A if float_form else (lambda x: A(x)), B if constant_B else (lambda x: B), 2, 1)
        if closed:
            return system.closed_loop_field(np.zeros((1, 2))).stage, [None] * 3
        return system.stage, system.input_terms(np.zeros((3, 1)))

    stage_state = [1.0 + 0.0005 * 1.0, 0.5 + 0.0005 * -0.5]
    cases = [
        ([1.0, 0.0, 0.0], ValueError, r"the state matrix A\(x\) must be 2 x 2"),
        ([1.0, 0.0, 0.0, np.inf], NonFiniteMatrixError, re.escape("A(x) is not finite at x = %s" % stage_state)),
    ]
    for spoiled, error, message in cases:
        stage, ws = system(spoiled)
        firsts = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                stage.step([1.0, 0.5], 1e-3, *ws, firsts)
        # the first stage, at xs, is recorded before the second refuses its matrix
        assert firsts == [[1.0, -0.5]]


def test_the_stage_code_is_compiled_once_per_shape():
    # a run plans a gain per interval: each plan binds its own stage, none compiles one
    _linear_code.cache_clear()
    system = registry.statedep_2d()
    rng = np.random.default_rng(600)
    gains = rng.normal(size=(600, 1, 2))
    steps = []
    for F in gains:
        steps.append(system.closed_loop_field(F).stage.step([0.5, -0.25], 0.01, None, None, None, None))
    plant = integrate(system, [0.5, -0.25], constant_signal(0.1, [0.3]), (0.0, 0.1), IntegrationConfig(step=0.01))
    assert len(plant) == 11
    info = _linear_code.cache_info()
    # the plant's shape and the field's, each compiled at its first use
    assert (info.misses, info.hits, info.currsize) == (2, 599, 2)
    # each field steps with its own gain
    assert len({tuple(x) for x in steps}) == 600
    for F, got in zip(gains[:5], steps):
        want = integrate(system.closed_loop_field(F), [0.5, -0.25], None, (0.0, 0.01), IntegrationConfig(step=0.01))
        assert want.states[-1].tolist() == got


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

    @pytest.mark.parametrize("m", [1, 2])
    def test_bound_check_keeps_the_per_row_norms(self, m):
        # the norms come from one stacked product: each keeps the bits of sqrt(u.dot(u)), the
        # worst is NaN when any norm is, and an overflowing row warns as u.dot(u) does
        rng = np.random.default_rng(60 + m)
        edges = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e200, -1e200, 5e-324]
        stack = {"U": np.zeros((33, m))}
        sig = ControlSignal(1.0, 1e300, m, lambda ts: stack["U"])
        seen = set()
        for _ in range(300):
            U = draw_operand(rng, (int(rng.integers(1, 40)), m))
            edge = rng.random(U.shape) < 0.05
            U[edge] = rng.choice(edges, int(edge.sum()))
            stack["U"] = U
            with warnings.catch_warnings(record=True) as want_warnings:
                warnings.simplefilter("always")
                norms = [math.sqrt(u.dot(u)) for u in U]
            worst = math.nan if any(map(math.isnan, norms)) else max(norms)
            with warnings.catch_warnings(record=True) as got_warnings:
                warnings.simplefilter("always")
                try:
                    got = float.hex(sig.check_bound(len(U)))
                except ValueError as exc:
                    got = str(exc)
            want = float.hex(worst) if worst <= 1e300 else "signal exceeds its declared bound: %g > 1e+300" % worst
            assert got == want, U.tolist()
            overflowed = [any("overflow" in str(w.message) for w in ws) for ws in (got_warnings, want_warnings)]
            assert overflowed[0] == overflowed[1]
            seen.add(got[:1] if got.startswith("0x") else got[-12:])
        # finite worst norms, NaN and inf all occur
        assert {"0", "nan > 1e+300", "inf > 1e+300"} <= seen
