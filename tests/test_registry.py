"""Built-in example registry entries construct and satisfy their contracts."""

import numpy as np
import pytest

from sdstab import registry
from sdstab.liecalc import FV_NEGATIVE, GV_NONZERO, ODD_BRACKET_NONZERO
from sdstab.odeint import IntegrationConfig
from sdstab.patchwork import verify_patchwork
from sdstab.sdfctl import FrozenGainController


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


# beyond 1.3e154 a float x2 ** 2 overflows; sin(+-inf) raises on floats
STACK_EDGES = [0.0, -0.0, 1.3e154, -1.35e154, 1e200, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("build", [registry.statedep_2d, registry.scalar_unstable])
def test_stacked_state_matrix_keeps_the_per_row_bits(build):
    A = build().A
    n = len(A(np.zeros(2)))
    rng = np.random.default_rng(27)
    # x2 * x2 in place of x2 ** 2 differs in the last bit on some of these
    stacks = [rng.uniform(-3.0, 3.0, (k, n)) for k in (1, 2, 255, 20000)]
    edges = np.array([[a, b] for a in STACK_EDGES for b in STACK_EDGES])[:, :n]
    # each edge alone, and among ordinary rows, where the whole stack falls back
    stacks += [edge[None] for edge in edges] + [np.concatenate([stacks[2], edges, stacks[1]])]
    with np.errstate(all="ignore"):
        for X in stacks:
            want = np.array([A(x) for x in X])
            got = A.stack(X)
            assert got.shape == (len(X), n, n)
            assert got.tobytes() == want.tobytes(), X[:3].tolist()


def test_a_replaced_state_matrix_is_called_for_every_playback_row():
    # the stacked form belongs to the function, not to the system: a plain
    # function put in its place is evaluated row by row, three stages a row
    plant, reference = registry.statedep_2d(), registry.statedep_2d()
    A = plant.A
    calls = []

    def plain(x):
        calls.append(x.tobytes())
        return A(x)

    plant.A = plain
    cfg = IntegrationConfig(step=0.01)
    sig = FrozenGainController(plant, cfg).plan(np.array([2.0, -1.0]), 0.05)
    want = FrozenGainController(reference, cfg).plan(np.array([2.0, -1.0]), 0.05)
    # five midpoints take a substep each; the two grid times read the model state
    ts = [0.003, 0.01, 0.014, 0.025, 0.03, 0.036, 0.049]
    del calls[:]
    got = sig.values(ts)
    assert len(calls) == 3 * 5
    assert got.tobytes() == want.values(ts).tobytes()


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
