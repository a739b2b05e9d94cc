"""Core representations: systems, control signals, trajectories.

Every system has ``dim_state``, ``dim_input`` and ``rhs(x, u)``, so the
integrator and the closed loop take any of them as the plant. Controls are
closed-form functions of arrays of times on [0, horizon] (the controller
clock restarts at every sampling instant), so controllers can produce them
lazily and the integrator fetches a block of inputs in one call. Objects
are not frozen: a state-linear system's ``A`` may be replaced after
construction, and a controller may add to a signal's ``info``.
"""

import math
from dataclasses import dataclass

import numpy as np

ORIGIN_TOL = 1e-12


def state_vector(coords):
    """Validate and return a finite 1-D float state vector."""
    x = np.atleast_1d(np.asarray(coords, dtype=float))
    if x.ndim != 1 or x.size < 1:
        raise ValueError("state must be a vector of dimension >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("state entries must be finite")
    return x


def _vector(v):
    """v as a float array of dimension >= 1 (np.atleast_1d, without its overhead)."""
    v = np.asarray(v, dtype=float)
    return v if v.ndim else v.reshape(1)


def product(inner):
    """The matrix product for operands of inner dimension ``inner``: the bits of ``@``.

    From two inner coordinates on it is ``ndarray.dot``, which calls the BLAS
    routine ``@`` calls (gemv, or ddot for a single row) with half the
    dispatch. With one inner coordinate dot multiplies by a one-element
    operand through BLAS axpy, or forms an outer product through ger, with
    fused multiply-adds: a negative product that underflows is -0.0 there,
    and +0.0 from ``@``, which adds it to +0.0. So that case keeps np.matmul.
    """
    return np.ndarray.dot if inner > 1 else np.matmul


def _all_finite(M):
    """np.isfinite(M).all() for a float array; faster at the small sizes used here.

    A non-finite entry makes the sum inf or NaN, so a finite sum decides at
    once; a sum that overflows from finite entries falls back to the entries.
    """
    v = M.ravel().tolist()
    return math.isfinite(sum(v)) or all(map(math.isfinite, v))


class ControlSignal:
    """A bounded input signal t -> u(t) on [0, horizon].

    ``func`` maps an array of k local times in [0, horizon] to the k input
    vectors, a (k, dim_input) array. :meth:`values` clamps the times to
    [0, horizon] and makes one call of ``func``; so do :meth:`value`, for one
    time, and :meth:`check_bound`. ``bound`` is the declared sup-norm bound,
    spot-checked on a 33-point grid at construction and checkable on a finer
    grid via :meth:`check_bound`. ``info`` carries controller metadata
    (synthesis results, internal-model trajectories) for certificates.
    """

    def __init__(self, horizon, bound, dim_input, func, info=None):
        if horizon <= 0:
            raise ValueError("signal horizon must be positive")
        if bound < 0 or not np.isfinite(bound):
            raise ValueError("signal bound must be finite and nonnegative")
        self.horizon = float(horizon)
        self.bound = float(bound)
        self.dim_input = int(dim_input)
        self._func = func
        self.info = info or {}
        self.check_bound(33)

    def values(self, ts):
        """The inputs at the local times ts, clamped to [0, horizon], as a (k, dim_input) array."""
        ts = np.minimum(np.maximum(np.asarray(ts, dtype=float), 0.0), self.horizon)
        U = np.asarray(self._func(ts), dtype=float)
        if U.shape != (len(ts), self.dim_input):
            raise ValueError(
                "the signal returned shape %s for %d times and %d inputs" % (U.shape, len(ts), self.dim_input)
            )
        return U

    def value(self, t):
        return self.values([t])[0]

    def check_bound(self, n=1000):
        """Max |u(t)| over an n-point grid; raises if it exceeds the bound."""
        U = self.values(np.linspace(0.0, self.horizon, n))
        worst = max(math.sqrt(u.dot(u)) for u in U)
        if worst > self.bound * (1.0 + 1e-9) + 1e-12:
            raise ValueError(
                "signal exceeds its declared bound: %g > %g" % (worst, self.bound)
            )
        return worst


def constant_signal(horizon, u):
    """The signal that holds the input vector u on [0, horizon], with bound |u|."""
    u = _vector(u)
    m = len(u)
    return ControlSignal(horizon, float(np.linalg.norm(u)), m, lambda ts: np.broadcast_to(u, (len(ts), m)))


def zero_signal(horizon, dim_input):
    return constant_signal(horizon, np.zeros(dim_input))


class GeneralSystem:
    """A hand-written field dx/dt = rhs(x, u) with rhs(0, 0) = 0."""

    def __init__(self, dim_state, dim_input, rhs):
        self.dim_state = int(dim_state)
        self.dim_input = int(dim_input)
        self._rhs = rhs
        r0 = self.rhs(np.zeros(self.dim_state), np.zeros(self.dim_input))
        if float(np.max(np.abs(r0))) > ORIGIN_TOL:
            raise ValueError("rhs(0, 0) must vanish (origin is the target equilibrium)")

    def rhs(self, x, u):
        return _vector(self._rhs(x, u))


class AffineSystem:
    """Single-input affine dynamics dx/dt = drift(x) + u * input_field(x).

    ``drift`` and ``input_field`` are square vector fields (anything with
    ``dim``/``odim`` and jet-capable ``eval``, e.g. liecalc expression
    fields); the drift must vanish at the origin.
    """

    def __init__(self, drift, input_field):
        if drift.dim != drift.odim or input_field.dim != input_field.odim:
            raise ValueError("affine systems need square vector fields")
        if drift.dim != input_field.dim:
            raise ValueError("drift and input field dimensions differ")
        self.drift = drift
        self.input_field = input_field
        self.dim_state = drift.dim
        self.dim_input = 1
        f0 = drift(np.zeros(self.dim_state))
        if float(np.max(np.abs(f0))) > ORIGIN_TOL:
            raise ValueError("drift(0) must vanish")

    def rhs(self, x, u):
        return self.drift(x) + float(np.atleast_1d(u)[0]) * self.input_field(x)


class StateLinearSystem:
    """State-dependent linear dynamics dx/dt = A(x) x + B(x) u.

    ``A`` maps a state to an n x n matrix. ``B`` maps a state to an n x m
    matrix, or is a constant n x m matrix: a constant ``B`` is checked here,
    stored as a read-only float array (``constant_B`` is true) and returned
    by :meth:`matrices_at` without any evaluation. Both are finite at the
    origin. ``A`` is looked up on every call, so it may be replaced. Products
    go through :func:`product`, so they have the bits of ``@``.
    """

    def __init__(self, A, B, dim_state, dim_input):
        self.A = A
        self.dim_state = int(dim_state)
        self.dim_input = int(dim_input)
        self._times_x = product(self.dim_state)
        self._times_u = product(self.dim_input)
        self.constant_B = not callable(B)
        if self.constant_B:
            B = np.array(B, dtype=float)
            B.flags.writeable = False
            b0 = B
        else:
            b0 = np.asarray(B(np.zeros(dim_state)), dtype=float)
        self.B = B
        a0 = np.asarray(A(np.zeros(dim_state)), dtype=float)
        if a0.shape != (dim_state, dim_state):
            raise ValueError("A(x) must be %d x %d" % (dim_state, dim_state))
        if b0.shape != (dim_state, dim_input):
            raise ValueError("B(x) must be %d x %d" % (dim_state, dim_input))
        if not (_all_finite(a0) and _all_finite(b0)):
            raise ValueError("system matrices must be finite at the origin")

    def state_matrix(self, x):
        """A(x) as a float array; raises unless every entry is finite."""
        A = np.asarray(self.A(x), dtype=float)
        if not _all_finite(A):
            raise ValueError("system matrices must be finite at finite states")
        return A

    def matrices_at(self, xi):
        xi = np.asarray(xi, dtype=float)
        A = self.state_matrix(xi)
        if self.constant_B:
            return A, self.B
        B = np.asarray(self.B(xi), dtype=float)
        if not _all_finite(B):
            raise ValueError("system matrices must be finite at finite states")
        return A, B

    def rhs(self, x, u):
        """A(x) x + B(x) u for a float state array x."""
        if self.constant_B:
            return self._times_x(self.state_matrix(x), x) + self._times_u(self.B, _vector(u))
        A, B = self.matrices_at(x)
        return self._times_x(A, x) + self._times_u(B, _vector(u))

    def closed_loop_field(self, F):
        """The frozen-gain field x -> (A(x) + B(x) F) x; a constant B F is formed once.

        The field also takes a C-contiguous (k, n) stack of states and returns
        the (k, n) stack of their values, with the bits of one call per row.
        It still evaluates ``A``, and a callable ``B``, once per row, so their
        contract is unchanged, and checks the finiteness of each stack with the
        single-state message. Its products are stacked ``np.matmul`` calls,
        which run per row the BLAS routine :func:`product` runs (gemv for
        (A + BF) x). One product over the whole stack, such as ``X @ M.T``,
        would run gemm, whose fused multiply-adds round differently.
        """
        times_x, times_u = self._times_x, self._times_u
        if self.constant_B:
            # B(x) F is this same product at every x, so the field keeps its bits
            BF = times_u(self.B, F)
            state_matrix = self.state_matrix

            def field(x):
                if x.ndim == 1:
                    return times_x(state_matrix(x) + BF, x)
                return np.matmul(self._stacked(self.A, x) + BF, x[:, :, None])[:, :, 0]

        else:

            def field(x):
                if x.ndim == 1:
                    Ax, Bx = self.matrices_at(x)
                    return times_x(Ax + times_u(Bx, F), x)
                Ax = self._stacked(self.A, x)
                return np.matmul(Ax + np.matmul(self._stacked(self.B, x), F), x[:, :, None])[:, :, 0]

        return field

    @staticmethod
    def _stacked(matrix, X):
        """matrix(x) for every row x of X, stacked; raises unless every entry is finite."""
        M = np.array(list(map(matrix, X)), dtype=float)
        # on a stack of hundreds of entries np.isfinite is the faster test
        if not np.isfinite(M).all():
            raise ValueError("system matrices must be finite at finite states")
        return M


@dataclass
class Trajectory:
    """Integration output on a uniform grid (plus exact endpoint)."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray | None = None
    escaped: bool = False
    escape_time: float | None = None

    def final_state(self):
        return self.states[-1]

    def __len__(self):
        return len(self.times)
