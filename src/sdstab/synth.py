"""Stabilizing-gain synthesis and the matrix equations behind it.

For a frozen state-dependent pair (A, B) this module computes an LQR gain
F = -B'P_r from the continuous algebraic Riccati equation

    A'P_r + P_r A - P_r B B' P_r + I = 0,

solved through the stable invariant subspace of the 2n x 2n Hamiltonian
[[A, -BB'], [-I, -A']] as P_r = U2 U1^-1. The basis U has unit columns, so
that graph solve has a relative error of about n eps max(|U1|, 1) / s_min(U1),
not n eps cond(U1): at n = 1 the condition number is 1 however small U1 is.
When this exceeds the Riccati tolerance the balanced Schur solver (scipy's
solve_continuous_are) is used instead, and P_r is its answer as it stands.
That answer can be more than CARE_TOL off the exact solution when |B| is tiny
against |A|: about 40 eps a/|b| at n = 1, or 1.87e-8 at a = 2, b = 1e-6. Its
scaled residual test still passes, and the gain is still certified by the
Lyapunov solve on its own closed loop. The
closed loop is then certified with a quadratic Lyapunov matrix P from
A_cl' P + P A_cl = -I, accepted by its backward error
|A_cl'P + P A_cl + I| <= tol (2 |A_cl| |P| + |I|) so that the check scales
with the problem, and the largest verified decay constant k with
x'P A_cl x <= -k |x|^2 is reported. P comes from the n^2 x n^2 Kronecker
system up to KRONECKER_MAX_DIM states and from the Bartels-Stewart method
(real Schur form, then LAPACK's triangular Sylvester solver) above. The
closed loop is checked once, for finiteness and a negative spectral
abscissa; the Lyapunov step then runs solve_lyapunov's solve and
acceptance without its input checks, which would repeat that eigenvalue
computation and test Q = I.

The construction proves stabilizability by its result: only a stabilizable
pair has a Hurwitz A + BF with a verified Lyapunov certificate. So the PBH
rank test is not a precondition. It runs only when the construction fails,
to tell an unstabilizable pair (NotStabilizableError, naming the mode) from
a numerical failure, which is re-raised as it came. It takes one batched
SVD over the pencils [A - lam I, B] of the modes with Re lam >= -AXIS_TOL.
Each column of B larger than 1 + max|A| is scaled down to that size first.
Column scaling keeps the rank. Unscaled, the tolerance
AXIS_TOL (1 + max|A| + max|B|) grows with |B| while the smallest singular
value stays of the size of A, and a stabilizable pair such as
A = [[0, 1], [1, 0]], B = [0; 1e9] would be called uncontrollable if its
construction failed.
A smaller column is left as it is, so a mode that only a negligible column
reaches is still named uncontrollable. For a real pair,
[A - conj(lam) I, B] is the conjugate of [A - lam I, B] and has its
singular values, so of a conjugate pair only the mode with Im lam > 0 is
tested. eigvals (LAPACK dgeev) lists that mode first, so the first
uncontrollable mode keeps its name. The two pencils' smallest singular
values came out bit for bit equal on all 4,065 conjugate pairs of four
synth-batch seeds (OpenBLAS 0.3.31, x86-64), and a test checks this.

At the n <= 12 of a sampled-data run the cost is NumPy call overhead, not
LAPACK, so the Hamiltonian and the Kronecker operator are built in place
from the same products np.block and np.kron form, and keep their bits.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgees, dgetrf, dgetrs, dtrsyl

from .errors import NotStabilizableError, NumericalFailure

AXIS_TOL = 1e-8
KRONECKER_MAX_DIM = 8  # the Kronecker LU solves n <= 8, and keeps its bits there
LYAP_BACKWARD_TOL = 1e-12  # |A'P + PA + Q| / (2|A||P| + |Q|), Frobenius norms
CARE_TOL = 1e-8  # Riccati residual tolerance, and the accuracy the graph solve must keep


def _square(A, name="matrix"):
    A = np.asarray(A, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("%s must be square" % name)
    if not np.isfinite(A).all():
        raise ValueError("%s must have finite entries" % name)
    return A


def _fro(X):
    """Frobenius norm of a real matrix, as np.linalg.norm computes it (same bits)."""
    x = X.ravel(order="K")
    return math.sqrt(x.dot(x))


def _lyapunov_operator(A, eye):
    """kron(A', I) + kron(I, A') from the broadcast products np.kron forms (same bits)."""
    n2 = A.size
    At = A.T
    L = (At[:, None, :, None] * eye[None, :, None, :]).reshape(n2, n2)
    L += (eye[:, None, :, None] * At[None, :, None, :]).reshape(n2, n2)
    return L


def _hamiltonian(A, BBt, eye):
    """The Riccati Hamiltonian [[A, -BB'], [-I, -A']], built in place."""
    n = A.shape[0]
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = A
    H[:n, n:] = -BBt
    H[n:, :n] = -eye
    H[n:, n:] = -A.T
    return H


def _smallest_singular_values(A, B, modes, eye):
    """Smallest singular value of [A - lam I, B] for each lam in modes: one batched SVD."""
    n = A.shape[0]
    pencils = np.empty((modes.size, n, n + B.shape[1]), dtype=modes.dtype)
    pencils[:, :, :n] = A - modes[:, None, None] * eye
    pencils[:, :, n:] = B
    return np.linalg.svd(pencils, compute_uv=False)[:, -1]


def spectral_abscissa(A):
    """Largest real part of the eigenvalues (negative iff Hurwitz)."""
    A = _square(A)
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigensolver did not converge: %s" % exc) from exc
    return float(w.real.max())


def solve_lyapunov(A, Q):
    """Solve A'P + PA = -Q for symmetric positive definite P.

    Requires A Hurwitz and Q symmetric positive definite. Up to
    KRONECKER_MAX_DIM states it is solved by vectorizing to an n^2 x n^2
    Kronecker system, factored once for the solve and up to three
    refinement steps; above that by the Bartels-Stewart method.
    The solution is accepted by its backward error: NumericalFailure unless
    |A'P + PA + Q| <= 1e-12 (2 |A| |P| + |Q|) in Frobenius norms.
    synthesize_gain runs the same solve and acceptance on the closed
    loop it has already checked, without repeating the input checks.
    """
    A = _square(A, "A")
    Q = _square(Q, "Q")
    n = A.shape[0]
    if Q.shape != A.shape:
        raise ValueError("A and Q must have matching shapes")
    if abs(Q - Q.T).max() > 1e-12 * (1.0 + abs(Q).max()):
        raise ValueError("Q must be symmetric")
    if np.linalg.eigvalsh((Q + Q.T) / 2).min() <= 0:
        raise ValueError("Q must be positive definite")
    if spectral_abscissa(A) >= 0:
        raise ValueError("A must be Hurwitz for the Lyapunov equation to have a PD solution")
    return _solve_lyapunov(A, Q, np.eye(n))


def _solve_lyapunov(A, Q, eye):
    """solve_lyapunov's solve and acceptance, for a finite Hurwitz A and a finite SPD Q.

    The caller has checked A and Q; eye is np.eye(n).
    """
    P = _kronecker_solve(A, Q, eye) if A.shape[0] <= KRONECKER_MAX_DIM else _bartels_stewart(A, Q)
    P = (P + P.T) / 2

    residual = _fro(A.T @ P + P @ A + Q)
    scale = 2.0 * _fro(A) * _fro(P) + _fro(Q)
    if residual > LYAP_BACKWARD_TOL * scale:
        raise NumericalFailure(
            "Lyapunov backward error %.3e exceeds tolerance %.3e (residual %.3e)"
            % (residual / scale, LYAP_BACKWARD_TOL, residual)
        )
    if np.linalg.eigvalsh(P).min() <= 0:
        raise NumericalFailure("Lyapunov solution is not positive definite")
    return P


def _bartels_stewart(A, Q):
    """P with A'P + PA = -Q from the real Schur form A' = U T U' (Bartels & Stewart, CACM 1972).

    Y = U'PU solves T Y + Y T' = -U'QU; dtrsyl returns scale * Y, perturbed
    (info 1) when two eigenvalues nearly cancel, which the backward error judges.
    """
    # the eigenvalue selector is called only when dgees is asked to sort
    T, _, _, _, U, _, info = dgees(lambda wr, wi: 0, A.T)
    if info != 0:
        raise NumericalFailure("Schur decomposition in Lyapunov solve failed (dgees info %d)" % info)
    Y, scale, _ = dtrsyl(T, T, -(U.T @ Q @ U), tranb="T")
    return U @ (Y / scale) @ U.T


def _kronecker_solve(A, Q, eye):
    """P with A'P + PA = -Q from the n^2 x n^2 Kronecker system, unsymmetrized."""
    n = A.shape[0]
    L = _lyapunov_operator(A, eye)
    rhs = -Q.reshape(-1)
    # One LU factorization serves the solve and every refinement step.
    # LAPACK's getrf/getrs are called directly: scipy's lu_factor/lu_solve
    # wrappers cost more than the n = 2 solve itself.
    lu, piv, info = dgetrf(L)
    if info != 0:
        raise NumericalFailure("singular Kronecker system in Lyapunov solve")
    p = dgetrs(lu, piv, rhs)[0]
    # a couple of refinement steps keep the residual at machine level
    # even when the closed loop is nearly marginal
    r_tol = 1e-14 * (1.0 + abs(rhs).max())
    for _ in range(3):
        r = rhs - L @ p
        if abs(r).max() <= r_tol:
            break
        p = p + dgetrs(lu, piv, r)[0]
    return p.reshape(n, n)


@dataclass(frozen=True)
class GainSynthesisResult:
    """Stabilizing gain with its quadratic decrease certificate.

    gain:      F with A + B F Hurwitz
    lyapunov:  symmetric P > 0 with x'P(A+BF)x <= -decay |x|^2
    decay:     largest verified decay constant (from eigenvalues, not assumed)
    abscissa:  spectral abscissa of A + B F
    riccati:   the Riccati solution behind the gain
    """

    gain: np.ndarray
    lyapunov: np.ndarray
    decay: float
    abscissa: float
    riccati: np.ndarray


def synthesize_gain(A, B):
    """LQR-style stabilizing gain for the pair (A, B); detects unstabilizability.

    A gain is returned when its closed loop is verified: a Hurwitz A + BF
    and an accepted Lyapunov matrix P > 0. When that construction fails,
    the PBH rank test runs: NotStabilizableError names the first
    uncontrollable mode with Re lam >= -AXIS_TOL if there is one, and the
    construction's own error is raised otherwise (NotStabilizableError
    when the Hamiltonian has an eigenvalue within AXIS_TOL of the
    imaginary axis).

    A verified gain is returned even when the PBH test, at its tolerance,
    would call a mode uncontrollable. A = [[0, 1], [-0.6016, 11588.3]],
    B = e2 is controllable ([B, AB] has rank 2, condition number 1.3e8),
    and its gain has a closed-loop abscissa of about -1.0e-4. Whether so
    small a decay is enough over a sampling interval is for the
    certificate layer to judge, not for synthesis.
    """
    A = _square(A, "A")
    n = A.shape[0]
    B = np.asarray(B, dtype=float)
    if B.ndim == 0:
        B = B.reshape(1, 1)
    if B.ndim == 1:
        B = B.reshape(n, 1)
    if B.shape[0] != n or not np.isfinite(B).all():
        raise ValueError("B must be n x m with finite entries")
    eye = np.eye(n)
    try:
        return _certified_lqr(A, B, eye)
    except Exception:
        # the construction failed: the PBH test names the mode to blame, if there is one
        lam = _uncontrollable_mode(A, B, eye)
        if lam is None:
            raise
    raise NotStabilizableError("uncontrollable mode with eigenvalue %s" % np.round(lam, 6))


def _uncontrollable_mode(A, B, eye):
    """The first mode with Re lam >= -AXIS_TOL that fails the PBH rank test, or None.

    Modes are tested in eigenvalue order, columns of B larger than A are
    scaled down to its size, and of a conjugate pair only the first mode is
    tested (see the module docstring).
    """
    w = np.linalg.eigvals(A)
    modes = w[(w.real >= -AXIS_TOL) & (w.imag >= 0)]
    if not modes.size:
        return None
    size = 1.0 + float(abs(A).max())
    Bs = B * (size / np.maximum(abs(B).max(axis=0), size))
    scale = size + float(abs(Bs).max())
    for lam, s in zip(modes, _smallest_singular_values(A, Bs, modes, eye)):
        if s <= AXIS_TOL * scale:
            return lam
    return None


def _certified_lqr(A, B, eye):
    """The Riccati gain of a checked pair (A, B) with its verified Lyapunov certificate."""
    n = A.shape[0]
    BBt = B @ B.T
    try:
        w, V = np.linalg.eig(_hamiltonian(A, BBt, eye))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("Hamiltonian eigendecomposition failed") from exc
    if abs(w.real).min() <= AXIS_TOL:
        raise NotStabilizableError("Hamiltonian eigenvalue on the imaginary axis")
    stable = w.real < 0
    if np.count_nonzero(stable) != n:
        raise NumericalFailure("stable Hamiltonian subspace has wrong dimension")
    U = V[:, stable]
    U1, U2 = U[:n], U[n:]
    sv = np.linalg.svd(U1, compute_uv=False)
    # U is a unit-norm basis, so the graph solve's rounding is relative to 1 at least: at
    # n = 1 sv[0] is sv[-1], and the ratio alone cannot see a U1 of 1e-10
    if n * np.finfo(float).eps * max(sv[0], 1.0) > CARE_TOL * sv[-1]:
        # the graph solve would lose more than CARE_TOL: use the balanced Schur solver
        try:
            Pr = scipy.linalg.solve_continuous_are(A, B, eye, np.eye(B.shape[1]))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("Schur Riccati solve failed: %s" % exc) from exc
    else:
        try:
            Pr = np.linalg.solve(U1.T, U2.T).T
        except np.linalg.LinAlgError as exc:
            raise NotStabilizableError("stable subspace is not a graph over the state space") from exc
        Pr = Pr.real
    Pr = (Pr + Pr.T) / 2

    care_res = _fro(A.T @ Pr + Pr @ A - Pr @ BBt @ Pr + eye)
    care_scale = 1.0 + _fro(Pr) ** 2 * (1.0 + _fro(BBt))
    if care_res > CARE_TOL * care_scale:
        raise NumericalFailure("Riccati residual %.3e too large" % care_res)

    F = -B.T @ Pr
    Acl = A + B @ F
    abscissa = spectral_abscissa(Acl)
    if abscissa >= 0:
        raise NumericalFailure("synthesized gain failed to stabilize (abscissa %.3e)" % abscissa)

    # Acl is finite and Hurwitz (spectral_abscissa checked both) and Q = I
    # is SPD: solve_lyapunov's input checks would only repeat that
    P = _solve_lyapunov(Acl, eye, eye)
    S = (P @ Acl + Acl.T @ P) / 2
    decay = -float(np.linalg.eigvalsh(S).max())
    if decay <= 0:
        raise NumericalFailure("no verifiable decay constant")
    return GainSynthesisResult(gain=F, lyapunov=P, decay=decay, abscissa=abscissa, riccati=Pr)

