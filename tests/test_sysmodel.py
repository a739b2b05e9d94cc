"""System, signal, and sampling-instant construction contracts."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from sdstab.errors import NonFiniteMatrixError, NumericalFailure
from sdstab.liecalc import ExprVectorField
from sdstab.odeint import IntegrationConfig, integrate
from sdstab.sdfctl import PerSampleQuadratic, sampling_times
from sdstab.sysmodel import (
    AffineSystem,
    ControlSignal,
    GeneralSystem,
    StateLinearSystem,
    _all_finite,
    constant_signal,
    at_origin,
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e-11])
    def test_general_field_that_does_not_vanish_is_refused(self, value):
        # `max|r0| > ORIGIN_TOL` is false for NaN; at_origin refuses NaN
        with pytest.raises(ValueError, match="must vanish"):
            GeneralSystem(1, 1, lambda x, u: np.array([value]))

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
