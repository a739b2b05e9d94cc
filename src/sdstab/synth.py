"""Stabilizing-gain synthesis and the matrix equations behind it.

For a frozen state-dependent pair (A, B) this module computes an LQR gain
F = -B'P_r from the continuous algebraic Riccati equation

    A'P_r + P_r A - P_r B B' P_r + I = 0,

solved through the stable invariant subspace of the 2n x 2n Hamiltonian
[[A, -BB'], [-I, -A']] as P_r = U2 U1^-1. That graph solve has a relative
error of about n eps cond(U1); when this exceeds the Riccati tolerance the
balanced Schur solver (scipy's solve_continuous_are) is used instead. The
closed loop is then certified with a quadratic Lyapunov matrix P from
A_cl' P + P A_cl = -I (solved by Kronecker vectorization, exact and simple
at the small n used here), accepted by its backward error
|A_cl'P + P A_cl + I| <= tol (2 |A_cl| |P| + |I|) so that the check scales
with the problem, and the largest verified decay constant k with
x'P A_cl x <= -k |x|^2 is reported.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import NotStabilizableError, NumericalFailure
from .sampling import ball_points

AXIS_TOL = 1e-8
LYAP_MAX_DIM = 20
LYAP_BACKWARD_TOL = 1e-12  # |A'P + PA + Q| / (2|A||P| + |Q|), Frobenius norms
CARE_TOL = 1e-8  # Riccati residual tolerance, and the accuracy the graph solve must keep


def _square(A, name="matrix"):
    A = np.asarray(A, dtype=float)
    if A.ndim == 0:
        A = A.reshape(1, 1)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("%s must be square" % name)
    if not np.all(np.isfinite(A)):
        raise ValueError("%s must have finite entries" % name)
    return A


def spectral_abscissa(A):
    """Largest real part of the eigenvalues (negative iff Hurwitz)."""
    A = _square(A)
    try:
        w = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigensolver did not converge: %s" % exc) from exc
    return float(np.max(w.real))


def solve_lyapunov(A, Q):
    """Solve A'P + PA = -Q for symmetric positive definite P.

    Requires A Hurwitz and Q symmetric positive definite. Solved by
    vectorizing to an n^2 x n^2 Kronecker system, factored once for the
    solve and up to three refinement steps; limited to n <= 20.
    The solution is accepted by its backward error: NumericalFailure unless
    |A'P + PA + Q| <= 1e-12 (2 |A| |P| + |Q|) in Frobenius norms.
    """
    A = _square(A, "A")
    Q = _square(Q, "Q")
    n = A.shape[0]
    if Q.shape != A.shape:
        raise ValueError("A and Q must have matching shapes")
    if n > LYAP_MAX_DIM:
        raise ValueError("Kronecker Lyapunov solve is limited to n <= %d" % LYAP_MAX_DIM)
    if np.max(np.abs(Q - Q.T)) > 1e-12 * (1.0 + np.max(np.abs(Q))):
        raise ValueError("Q must be symmetric")
    if np.min(np.linalg.eigvalsh((Q + Q.T) / 2)) <= 0:
        raise ValueError("Q must be positive definite")
    if spectral_abscissa(A) >= 0:
        raise ValueError("A must be Hurwitz for the Lyapunov equation to have a PD solution")

    eye = np.eye(n)
    L = np.kron(A.T, eye) + np.kron(eye, A.T)
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
    for _ in range(3):
        r = rhs - L @ p
        if np.max(np.abs(r)) <= 1e-14 * (1.0 + np.max(np.abs(rhs))):
            break
        p = p + dgetrs(lu, piv, r)[0]
    P = p.reshape(n, n)
    P = (P + P.T) / 2

    residual = float(np.linalg.norm(A.T @ P + P @ A + Q, "fro"))
    scale = 2.0 * float(np.linalg.norm(A, "fro")) * float(np.linalg.norm(P, "fro"))
    scale += float(np.linalg.norm(Q, "fro"))
    if residual > LYAP_BACKWARD_TOL * scale:
        raise NumericalFailure(
            "Lyapunov backward error %.3e exceeds tolerance %.3e (residual %.3e)"
            % (residual / scale, LYAP_BACKWARD_TOL, residual)
        )
    if np.min(np.linalg.eigvalsh(P)) <= 0:
        raise NumericalFailure("Lyapunov solution is not positive definite")
    return P


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

    def closed_loop(self, A, B):
        return np.asarray(A, float) + np.asarray(B, float) @ self.gain


def synthesize_gain(A, B):
    """LQR-style stabilizing gain for the pair (A, B); detects unstabilizability.

    Raises NotStabilizableError when an eigenvalue with nonnegative real
    part is uncontrollable (rank test) or when the Hamiltonian has
    eigenvalues on the imaginary axis beyond tolerance.
    """
    A = _square(A, "A")
    n = A.shape[0]
    B = np.asarray(B, dtype=float)
    if B.ndim == 0:
        B = B.reshape(1, 1)
    if B.ndim == 1:
        B = B.reshape(n, 1)
    if B.shape[0] != n or not np.all(np.isfinite(B)):
        raise ValueError("B must be n x m with finite entries")

    scale = 1.0 + float(np.max(np.abs(A))) + float(np.max(np.abs(B)))
    for lam in np.linalg.eigvals(A):
        if lam.real >= -AXIS_TOL:
            pencil = np.hstack([A - lam * np.eye(n), B])
            if np.linalg.svd(pencil, compute_uv=False)[-1] <= AXIS_TOL * scale:
                raise NotStabilizableError(
                    "uncontrollable mode with eigenvalue %s" % np.round(lam, 6)
                )

    BBt = B @ B.T
    H = np.block([[A, -BBt], [-np.eye(n), -A.T]])
    try:
        w, V = np.linalg.eig(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("Hamiltonian eigendecomposition failed") from exc
    if np.min(np.abs(w.real)) <= AXIS_TOL:
        raise NotStabilizableError("Hamiltonian eigenvalue on the imaginary axis")
    stable = w.real < 0
    if int(np.sum(stable)) != n:
        raise NumericalFailure("stable Hamiltonian subspace has wrong dimension")
    U = V[:, stable]
    U1, U2 = U[:n], U[n:]
    sv = np.linalg.svd(U1, compute_uv=False)
    if n * np.finfo(float).eps * sv[0] > CARE_TOL * sv[-1]:
        # the graph solve would lose more than CARE_TOL: use the balanced Schur solver
        try:
            Pr = scipy.linalg.solve_continuous_are(A, B, np.eye(n), np.eye(B.shape[1]))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("Schur Riccati solve failed: %s" % exc) from exc
    else:
        try:
            Pr = np.linalg.solve(U1.T, U2.T).T
        except np.linalg.LinAlgError as exc:
            raise NotStabilizableError("stable subspace is not a graph over the state space") from exc
        Pr = np.real(Pr)
    Pr = (Pr + Pr.T) / 2

    care_res = float(np.linalg.norm(A.T @ Pr + Pr @ A - Pr @ BBt @ Pr + np.eye(n), "fro"))
    care_scale = 1.0 + float(np.linalg.norm(Pr, "fro")) ** 2 * (1.0 + float(np.linalg.norm(BBt)))
    if care_res > CARE_TOL * care_scale:
        raise NumericalFailure("Riccati residual %.3e too large" % care_res)

    F = -B.T @ Pr
    Acl = A + B @ F
    abscissa = spectral_abscissa(Acl)
    if abscissa >= 0:
        raise NumericalFailure("synthesized gain failed to stabilize (abscissa %.3e)" % abscissa)

    P = solve_lyapunov(Acl, np.eye(n))
    S = (P @ Acl + Acl.T @ P) / 2
    decay = -float(np.max(np.linalg.eigvalsh(S)))
    if decay <= 0:
        raise NumericalFailure("no verifiable decay constant")
    return GainSynthesisResult(gain=F, lyapunov=P, decay=decay, abscissa=abscissa, riccati=Pr)


@dataclass(frozen=True)
class UniformBounds:
    """Sampled eigenvalue bounds c_low <= P(xi) <= c_high over a ball."""

    c_low: float
    c_high: float
    radius: float

    def __post_init__(self):
        if not (0 < self.c_low <= self.c_high):
            raise ValueError("bounds must satisfy 0 < c_low <= c_high")


def uniform_bounds(P_of_xi, dim, radius, samples=256, seed=0):
    """Extremal eigenvalues of xi -> P(xi) over the closed ball, by sampling.

    The sample set always contains the center and the axis points on the
    sphere, plus a low-discrepancy fill of at least `samples` points.
    Synthesis failures propagate with the witness point attached.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = [np.zeros(dim)]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = radius
        pts.extend([e, -e])
    pts.extend(ball_points(dim, samples, radius, seed=seed))

    c_low = np.inf
    c_high = -np.inf
    for xi in pts:
        try:
            P = np.asarray(P_of_xi(xi), dtype=float)
        except NotStabilizableError as exc:
            if exc.point is None:
                exc.point = xi
            raise
        eigs = np.linalg.eigvalsh((P + P.T) / 2)
        if eigs[0] <= 0:
            raise NumericalFailure(
                "P(xi) not positive definite at xi=%s" % np.round(xi, 6)
            )
        c_low = min(c_low, float(eigs[0]))
        c_high = max(c_high, float(eigs[-1]))
    return UniformBounds(c_low=c_low, c_high=c_high, radius=float(radius))
