"""Gain synthesis, Lyapunov solves, and their closed-form oracles."""

import decimal
import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import eigvals, solve_continuous_are

from sdstab import synth
from sdstab.errors import NotStabilizableError, NumericalFailure
from sdstab.synth import (
    _bartels_stewart,
    _certified_lqr,
    _hamiltonian,
    _kronecker_solve,
    _lyapunov_operator,
    _smallest_singular_values,
    solve_lyapunov,
    spectral_abscissa,
    synthesize_gain,
)


def synth_batch_pairs(count):
    """The first `count` pairs of the seed-0 synthesis batch: n in 1..12, m in {1, 2}."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        n, m = int(rng.integers(1, 13)), int(rng.integers(1, 3))
        yield rng.standard_normal((n, n)), rng.standard_normal((n, m))


def hurwitz_matrices(seed, sizes):
    """Seeded Hurwitz matrices: the closed loop of a standard normal G under a gain -c I past its abscissa."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        G = rng.standard_normal((n, n))
        yield G - (spectral_abscissa(G) + 0.5 + rng.uniform(0, 1)) * np.eye(n)


def backward_error(A, Q, P):
    """|A'P + PA + Q| / (2 |A| |P| + |Q|) in Frobenius norms, the acceptance test's ratio."""
    norm = np.linalg.norm
    return norm(A.T @ P + P @ A + Q) / (2 * norm(A) * norm(P) + norm(Q))


def scalar_riccati_gain(a, b):
    """Closed-form stabilizing gain for dx = a x + b u with unit weights."""
    p = (a + np.sqrt(a * a + b * b)) / (b * b)
    return -b * p


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_nilpotent_not_hurwitz(self):
        assert spectral_abscissa([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)

    def test_double_eigenvalue(self):
        assert spectral_abscissa([[0.0, 1.0], [-1.0, -2.0]]) == pytest.approx(-1.0, abs=1e-7)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            spectral_abscissa(np.zeros((2, 3)))


class TestLyapunov:
    def test_scalar(self):
        P = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert P[0, 0] == pytest.approx(1.0)

    def test_identity(self):
        P = solve_lyapunov(-np.eye(2), 2 * np.eye(2))
        np.testing.assert_allclose(P, np.eye(2), atol=1e-12)

    def test_hand_derived(self):
        P = solve_lyapunov(np.array([[0.0, 1.0], [-1.0, -1.0]]), np.eye(2))
        np.testing.assert_allclose(P, [[1.5, 0.5], [0.5, 1.0]], atol=1e-12)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))

    def test_indefinite_q_rejected(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize(
        "A, Q, message",
        [
            (np.ones((2, 3)), np.eye(2), "A must be square"),
            (-np.eye(2), np.eye(3), "A and Q must have matching shapes"),
            (-np.eye(2), [[1.0, 0.5], [0.0, 1.0]], "Q must be symmetric"),
            (-np.eye(2), np.diag([1.0, -1.0]), "Q must be positive definite"),
            (np.eye(2), np.eye(2), "A must be Hurwitz"),
            ([[np.nan]], [[1.0]], "A must have finite entries"),
        ],
    )
    def test_public_checks(self, A, Q, message):
        with pytest.raises(ValueError, match=message):
            solve_lyapunov(A, Q)

    @pytest.mark.parametrize("n", [21, 50])
    def test_large_solves_pass_the_backward_error_test(self, n):
        # no cap on n: above KRONECKER_MAX_DIM the Bartels-Stewart solve runs
        for A in hurwitz_matrices(n, [n] * 3):
            P = solve_lyapunov(A, np.eye(n))
            assert backward_error(A, np.eye(n), P) <= synth.LYAP_BACKWARD_TOL
            assert np.min(np.linalg.eigvalsh(P)) > 0

    def test_random_residuals(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            G = rng.standard_normal((n, n))
            A = G - (spectral_abscissa(G) + 0.5 + rng.uniform(0, 1)) * np.eye(n)
            R = rng.standard_normal((n, n))
            Q = R @ R.T + 0.1 * np.eye(n)
            P = solve_lyapunov(A, Q)
            res = np.linalg.norm(A.T @ P + P @ A + Q, "fro")
            assert res <= 1e-10 * (1 + np.linalg.norm(Q, "fro"))
            assert np.min(np.linalg.eigvalsh(P)) > 0


class TestGainSynthesis:
    def test_scalar_integrator(self):
        res = synthesize_gain(0.0, 1.0)
        assert res.riccati[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert res.gain[0, 0] == pytest.approx(-1.0, abs=1e-10)
        assert res.abscissa < 0

    def test_scalar_unstable_closed_form(self):
        res = synthesize_gain(1.0, 1.0)
        assert res.gain[0, 0] == pytest.approx(-(1 + np.sqrt(2)), abs=1e-10)

    def test_double_integrator_closed_form(self):
        res = synthesize_gain([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
        np.testing.assert_allclose(res.gain, [[-1.0, -np.sqrt(3)]], atol=1e-9)
        assert res.abscissa < 0
        # brute-force pole verification of the closed loop
        poles = np.linalg.eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]) + np.array([[0.0], [1.0]]) @ res.gain)
        assert np.all(poles.real < 0)

    def test_uncontrollable_unstable_mode(self):
        with pytest.raises(NotStabilizableError):
            synthesize_gain(1.0, 0.0)

    def test_marginal_uncontrollable_mode(self):
        # integrator chain with no input on the second state
        A = np.array([[0.0, 0.0], [0.0, -1.0]])
        B = np.array([[0.0], [1.0]])
        with pytest.raises(NotStabilizableError):
            synthesize_gain(A, B)

    def test_scalar_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = float(rng.uniform(-2, 2))
            b = float(rng.uniform(0.2, 2)) * (1 if rng.uniform() < 0.5 else -1)
            res = synthesize_gain(a, b)
            assert res.gain[0, 0] == pytest.approx(scalar_riccati_gain(a, b), abs=1e-10)

    def test_scalar_riccati_meets_the_closed_form_over_input_scales(self):
        # P = (a + sqrt(a^2 + b^2)) / b^2 in 50-digit decimal. A tiny b leaves the stable
        # eigenvector's state part of size b inside a unit basis, where the graph solve
        # loses digits; the first pair is the one seed 3737's synth-batch draws. Where a > 1
        # and |b| < 2e-6 scipy's balanced Schur solve is itself more than CARE_TOL off, so
        # the bound is CARE_TOL or that solve's own error, whichever is larger
        rng = np.random.default_rng(38)
        pairs = [(0.12587382561385965, 5.433735554357114e-06)]
        for _ in range(200):
            b = 10.0 ** rng.uniform(-6, 3) * (1 if rng.uniform() < 0.5 else -1)
            pairs.append((float(rng.uniform(-2, 2)), b))
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for a, b in pairs:
                da, db = decimal.Decimal(a), decimal.Decimal(b)
                want = (da + (da * da + db * db).sqrt()) / (db * db)
                schur = solve_continuous_are(np.array([[a]]), np.array([[b]]), np.eye(1), np.eye(1))[0, 0]
                bound = max(decimal.Decimal(synth.CARE_TOL), abs((decimal.Decimal(schur) - want) / want))
                got = synthesize_gain(a, b).riccati[0, 0]
                assert abs((decimal.Decimal(got) - want) / want) <= bound, (a, b)

    def test_random_stabilizable_pairs(self):
        rng = np.random.default_rng(2024)
        done = 0
        while done < 100:
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 3))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, m))
            try:
                res = synthesize_gain(A, B)
            except NotStabilizableError:
                continue
            assert res.abscissa < -1e-8
            Acl = A + B @ res.gain
            S = (res.lyapunov @ Acl + Acl.T @ res.lyapunov) / 2
            assert np.max(np.linalg.eigvalsh(S)) <= -res.decay + 1e-10
            done += 1

    def test_ill_conditioned_graph_matches_schur_riccati(self):
        # pair 596 of the seed-0 synthesis batch (n = 11, m = 1, |X| ~ 7e7): the
        # Hamiltonian eigenvector graph U2 U1^-1 would be ~1.5e-8 off here
        *_, (A, B) = synth_batch_pairs(597)
        n, m = B.shape
        w, V = np.linalg.eig(np.block([[A, -B @ B.T], [-np.eye(n), -A.T]]))
        assert n * np.finfo(float).eps * np.linalg.cond(V[:n, w.real < 0]) > 1e-8
        res = synthesize_gain(A, B)
        X = solve_continuous_are(A, B, np.eye(n), np.eye(m))
        assert np.linalg.norm(res.riccati - X) <= 1e-8 * np.linalg.norm(X)
        assert res.abscissa < 0

    def test_decay_is_half_for_identity_cost(self):
        res = synthesize_gain([[0.0, 1.0], [2.0, -1.0]], [[0.0], [1.0]])
        assert res.decay == pytest.approx(0.5, abs=1e-9)

    def test_names_the_first_uncontrollable_unstable_mode(self):
        # both modes are unstable; B reaches the first one only
        with pytest.raises(NotStabilizableError, match=r"uncontrollable mode with eigenvalue 2\.0$"):
            synthesize_gain(np.diag([1.0, 2.0]), [[1.0], [0.0]])

    def test_uncontrollable_complex_unstable_pair(self):
        # eigenvalues 0.1 +- i on the first two states; B drives only the stable third.
        # Of the conjugate pair only the first mode is tested, and it is the one named
        A = np.array([[0.1, 1.0, 0.0], [-1.0, 0.1, 0.0], [0.0, 0.0, -1.0]])
        with pytest.raises(NotStabilizableError, match=r"uncontrollable mode with eigenvalue \(0\.1\+1j\)$"):
            synthesize_gain(A, [[0.0], [0.0], [1.0]])

    @pytest.mark.parametrize("big", [1e9, 1e12])
    def test_badly_scaled_input_reaches_the_unstable_mode(self, big):
        # [B, AB] has rank 2 however large |B| is against |A|
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = synthesize_gain(A, [[0.0], [big]])
        assert res.abscissa == pytest.approx(-1.0, abs=1e-2)
        assert spectral_abscissa(A + np.array([[0.0], [big]]) @ res.gain) < 0

    @pytest.mark.parametrize("big", [1e9, 1e12])
    def test_badly_scaled_input_misses_the_unstable_mode(self, big):
        with pytest.raises(NotStabilizableError, match=r"uncontrollable mode with eigenvalue 1\.0$"):
            synthesize_gain(np.diag([1.0, -1.0]), [[0.0], [big]])

    def test_verified_gain_where_the_rank_test_sees_a_tiny_singular_value(self):
        # [B, AB] has rank 2 (condition number 1.3e8), but the pencil at the mode
        # 5.2e-05 has smallest singular value 8.6e-5, under the PBH tolerance 1.16e-4:
        # the verified gain is returned, and its small decay is the certificates' to judge
        A = np.array([[0.0, 1.0], [-0.6016, 11588.3]])
        B = np.array([[0.0], [1.0]])
        res = synthesize_gain(A, B)
        poles = eigvals(A + B @ res.gain)
        assert np.all(poles.real < 0)
        assert res.abscissa == pytest.approx(-1.0e-4, rel=0.05)

    def test_a_stabilizable_pair_needs_no_rank_test(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the PBH test ran on a pair the construction verifies")

        monkeypatch.setattr(synth, "_smallest_singular_values", refuse)
        A = np.array([[1.0, 2.0], [0.0, 0.5]])  # both modes unstable
        res = synthesize_gain(A, [[0.0], [1.0]])
        assert spectral_abscissa(A + np.array([[0.0], [1.0]]) @ res.gain) < 0

    def test_a_failed_construction_names_the_uncontrollable_mode(self):
        # the Schur Riccati solve fails first; the PBH test then names the mode
        A, B = np.diag([1.0, -1.0]), np.array([[0.0], [1.0]])
        with pytest.raises(NumericalFailure, match="Schur Riccati solve failed"):
            _certified_lqr(A, B, np.eye(2))
        with pytest.raises(NotStabilizableError, match=r"uncontrollable mode with eigenvalue 1\.0$"):
            synthesize_gain(A, B)

    def test_a_24_state_pair_synthesizes(self):
        rng = np.random.default_rng(24)
        A, B = rng.standard_normal((24, 24)), rng.standard_normal((24, 2))
        res = synthesize_gain(A, B)
        assert res.abscissa < 0 and res.decay > 0
        assert backward_error(A + B @ res.gain, np.eye(24), res.lyapunov) <= synth.LYAP_BACKWARD_TOL


def construction_inputs():
    """Seeded real matrices, and matrices with complex eigenvalues and signed zeros."""
    rng = np.random.default_rng(15)
    for n in range(1, 9):
        yield rng.standard_normal((n, n)), rng.standard_normal((n, int(rng.integers(1, 3))))
    for n in (2, 4, 6):
        # rotation blocks (eigenvalues near a +- i b) with every zero entry -0.0; B has signed zeros
        A = np.zeros((n, n))
        for k in range(0, n, 2):
            a, b = rng.standard_normal(2)
            A[k : k + 2, k : k + 2] = [[a, b], [-b, a]]
        A += np.round(rng.standard_normal((n, n)), 0) * 1e-3
        A[A == 0] = -0.0
        yield A, np.round(rng.standard_normal((n, 1)))


class TestConstructionsKeepNumPysBits:
    @pytest.mark.parametrize("A, B", list(construction_inputs()))
    def test_lyapunov_operator_is_kron(self, A, B):
        eye = np.eye(A.shape[0])
        want = np.kron(A.T, eye) + np.kron(eye, A.T)
        got = _lyapunov_operator(A, eye)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("A, B", list(construction_inputs()))
    def test_hamiltonian_is_block(self, A, B):
        eye = np.eye(A.shape[0])
        BBt = B @ B.T
        want = np.block([[A, -BBt], [-eye, -A.T]])
        got = _hamiltonian(A, BBt, eye)
        assert got.tobytes() == want.tobytes() and got.shape == want.shape

    @pytest.mark.parametrize("A, B", list(construction_inputs()))
    def test_batched_pencil_svd_is_per_pencil_svd(self, A, B):
        n = A.shape[0]
        eye = np.eye(n)
        for modes in (np.linalg.eigvals(A), np.linalg.eigvals(A + A.T)):  # complex, then real
            want = [np.linalg.svd(np.hstack([A - lam * eye, B]), compute_uv=False)[-1] for lam in modes]
            got = _smallest_singular_values(A, B, modes, eye)
            assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("A, B", list(construction_inputs()))
    def test_conjugate_pencils_have_the_same_smallest_singular_value(self, A, B):
        # the PBH test checks one mode of each conjugate pair
        n = A.shape[0]
        w = np.linalg.eigvals(A)
        w = w[w.imag != 0]
        got = _smallest_singular_values(A, B, w, np.eye(n))
        assert got.tobytes() == _smallest_singular_values(A, B, w.conj(), np.eye(n)).tobytes()


class TestInternalLyapunovSolve:
    @pytest.mark.parametrize("A, B", list(synth_batch_pairs(40)) + list(construction_inputs()))
    def test_certificate_is_the_public_lyapunov_solve(self, A, B):
        # synthesize_gain solves on its checked closed loop without the public
        # checks; the public solve on the same closed loop gives the same bits
        res = synthesize_gain(A, B)
        P = solve_lyapunov(A + B @ res.gain, np.eye(A.shape[0]))
        assert res.lyapunov.tobytes() == P.tobytes()


# Hashes every synthesis result of 20 seeded 12-state pairs, or the error it raised.
THREAD_COUNT_SCRIPT = """
import decimal
import hashlib
import numpy as np
from sdstab.synth import synthesize_gain
rng = np.random.default_rng(12)
h = hashlib.sha256()
for _ in range(20):
    A, B = rng.standard_normal((12, 12)), rng.standard_normal((12, int(rng.integers(1, 3))))
    try:
        r = synthesize_gain(A, B)
        for x in (r.gain, r.lyapunov, r.riccati, r.decay, r.abscissa):
            h.update(np.asarray(x).tobytes())
    except Exception as exc:
        h.update(repr(exc).encode())
print(h.hexdigest())
"""

# SHA-256 over the Lyapunov matrices of the syntheses in test_kronecker_bits_are_pinned.
# The Kronecker LU solves n <= KRONECKER_MAX_DIM = 8; a change to that path or to the
# threshold moves these bits, and with them the n = 2 solves of a sampled-data run.
KRONECKER_P_SHA256 = "5d8643f6523efa32231c21c374dd8d299513eb4d10a0d3fa8a3b4d0f6bc515df"


class TestLyapunovSolverSplit:
    def test_both_solvers_agree_and_pass_the_acceptance_test(self):
        for A in hurwitz_matrices(32, [n for n in range(1, 13) for _ in range(3)]):
            n = A.shape[0]
            eye = np.eye(n)
            K, S = _kronecker_solve(A, eye, eye), _bartels_stewart(A, eye)
            K, S = (K + K.T) / 2, (S + S.T) / 2
            assert np.linalg.norm(K - S) <= 1e-10 * np.linalg.norm(K)
            for P in (K, S):
                assert backward_error(A, eye, P) <= synth.LYAP_BACKWARD_TOL
                assert np.min(np.linalg.eigvalsh(P)) > 0

    def test_kronecker_bits_are_pinned(self):
        rng = np.random.default_rng(8)
        h = hashlib.sha256()
        for n in range(1, 9):
            for m in (1, 2):
                res = synthesize_gain(rng.standard_normal((n, n)), rng.standard_normal((n, m)))
                h.update(res.lyapunov.tobytes())
        assert h.hexdigest() == KRONECKER_P_SHA256

    def test_results_do_not_depend_on_the_blas_thread_count(self):
        src = os.path.dirname(os.path.dirname(synth.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", THREAD_COUNT_SCRIPT], env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("n", [9, 12])
    @pytest.mark.parametrize("coupling", [0.0, 1e3, 1e9])
    def test_a_nearly_marginal_closed_loop_gives_P_or_a_numerical_failure(self, n, coupling):
        # eigenvalues -1e-8 and -1..-2, exact in a permuted triangular matrix; a 1e9
        # coupling makes dtrsyl perturb its solve, which the acceptance test refuses
        rng = np.random.default_rng(n)
        D = np.diag(-rng.uniform(1, 2, n))
        D[0, 0], D[0, 1] = -1e-8, coupling
        order = rng.permutation(n)
        A = D[order][:, order]
        assert spectral_abscissa(A) == -1e-8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                P = solve_lyapunov(A, np.eye(n))
            except NumericalFailure:
                return
        assert backward_error(A, np.eye(n), P) <= synth.LYAP_BACKWARD_TOL
        assert np.min(np.linalg.eigvalsh(P)) > 0

