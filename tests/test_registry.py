"""Built-in example registry entries construct and satisfy their contracts."""

import numpy as np

from sdstab import registry
from sdstab.liecalc import FV_NEGATIVE, GV_NONZERO, ODD_BRACKET_NONZERO
from sdstab.patchwork import verify_patchwork


def test_scalar_unstable_matrices():
    sys = registry.scalar_unstable()
    A, B = sys.matrices_at(np.array([3.0]))
    assert A[0, 0] == 1.0 and B[0, 0] == 1.0


def test_statedep_matrices():
    sys = registry.statedep_2d()
    A, B = sys.matrices_at(np.array([np.pi / 2, 2.0]))
    np.testing.assert_allclose(A, [[0.0, 1.0], [1.0, 4.0]])
    np.testing.assert_allclose(B, [[0.0], [1.0]])
    rhs = sys.rhs(np.array([np.pi / 2, 2.0]), np.array([0.5]))
    np.testing.assert_allclose(rhs, [2.0, np.pi / 2 + 8.0 + 0.5])


def test_statedep_matrix_keeps_the_numpy_formulas_bits():
    # A(x) runs on Python floats; where they would raise it falls back to NumPy's inf or NaN
    A = registry.statedep_2d().A
    states = list(np.random.default_rng(26).uniform(-3.0, 3.0, (2000, 2)))
    edges = [0.0, -0.0, 1e200, np.inf, -np.inf, np.nan]
    states += [np.array([a, b]) for a in edges for b in edges]
    with np.errstate(all="ignore"):
        for x in states:
            want = np.array([[0.0, 1.0], [np.sin(x[0]), x[1] ** 2]])
            assert A(x).tobytes() == want.tobytes(), x


def test_double_integrator_classifications():
    entry = registry.double_integrator()
    assert entry.classify([1.0, -0.5]).classification == FV_NEGATIVE
    assert entry.classify([1.0, 0.0]).classification == ODD_BRACKET_NONZERO
    assert entry.classify([0.0, 1.0]).classification == GV_NONZERO
    assert entry.classify([1.0, 1.0]).classification == GV_NONZERO  # augmented piece region


def test_double_integrator_region_split():
    entry = registry.double_integrator()
    assert entry.in_first_region_closure([1.0, -0.5])
    assert entry.in_first_region_closure([1.0, 0.0])
    assert entry.in_first_region_closure([1.0, -1.0])  # diagonal boundary
    assert not entry.in_first_region_closure([0.5, -1.0])
    assert not entry.in_first_region_closure([1.0, 1.0])


def test_patchwork_fixture_verifies():
    W, sel = registry.patchwork_halfplanes()
    assert sel is not None
    report = verify_patchwork(W, 2.0, samples=2000, seed=1)
    assert report.passed


def test_patchwork_fixture_with_forced_offsets():
    W, sel = registry.patchwork_halfplanes(offsets=[0.1, 0.1])
    assert sel is None
    report = verify_patchwork(W, 2.0, samples=500, seed=1)
    assert not report.passed
