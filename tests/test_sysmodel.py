"""System, signal, and partition construction contracts."""

import numpy as np
import pytest

from sdstab.liecalc import ExprVectorField
from sdstab.sysmodel import (
    AffineSystem,
    ControlSignal,
    GeneralSystem,
    SamplingPartition,
    StateLinearSystem,
    make_uniform_partition,
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
    def test_uniform_values(self):
        p = make_uniform_partition(0.5, 3)
        assert p.times == (0.0, 0.5, 1.0)

    def test_single_time_is_zero(self):
        assert make_uniform_partition(1.0, 1).times == (0.0,)

    def test_long_uniform_endpoint(self):
        p = make_uniform_partition(0.05, 201)
        assert abs(p.times[-1] - 10.0) < 1e-9

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            SamplingPartition([0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            SamplingPartition([0.5, 1.0])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_uniform_partition(0.0, 3)
        with pytest.raises(ValueError):
            make_uniform_partition(0.1, 0)

    def test_tail_extension_flags(self):
        p = make_uniform_partition(0.5, 2)  # explicit prefix [0, 0.5]
        np.testing.assert_allclose(p.boundaries(2.0), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_no_tail_raises_when_needed(self):
        p = SamplingPartition([0.0, 0.5])
        with pytest.raises(ValueError):
            p.boundaries(2.0)


class TestControlSignal:
    def test_bound_check_on_grid(self):
        sig = ControlSignal(1.0, 1.0, 1, lambda t: np.array([np.sin(3 * t)]))
        assert sig.check_bound(1000) <= 1.0

    def test_violating_bound_raises(self):
        with pytest.raises(ValueError):
            ControlSignal(1.0, 0.5, 1, lambda t: np.array([1.0]))

    def test_zero_signal(self):
        z = zero_signal(2.0, 3)
        np.testing.assert_array_equal(z.value(1.0), np.zeros(3))
        assert z.bound == 0.0

    def test_clamps_outside_domain(self):
        sig = ControlSignal(1.0, 2.0, 1, lambda t: np.array([t]))
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
