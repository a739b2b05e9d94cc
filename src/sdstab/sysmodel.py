"""Core representations: systems, control signals, trajectories.

Every system has ``dim_state``, ``dim_input`` and ``rhs(x, u)``, so the
integrator and the closed loop take any of them as the plant. Controls are
closed-form functions of arrays of times on [0, horizon] (the controller
clock restarts at every sampling instant), so controllers can produce them
lazily and the integrator fetches a block of inputs in one call. Objects
are not frozen: a state-linear system's ``A`` may be replaced after
construction, and a controller may add to a signal's ``info``.

:func:`at_origin` is the one test for the origin: the frozen-gain
controller's zero signal, the patchwork membership rule and the waiver of
the decrease certificate all read it. It is also the one test that a value
vanishes there, as a system's field and a Lyapunov candidate must.
:func:`rows_product` is the one product over the rows of a stack of
states or inputs, and :func:`_matrix_at` the one reader of a state-linear
system's matrix functions, at a state or at each row of a stack.
"""

import math
import struct
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NonFiniteMatrixError

ORIGIN_TOL = 1e-12


def state_vector(coords):
    """Validate and return a finite 1-D float state vector."""
    x = np.atleast_1d(np.asarray(coords, dtype=float))
    if x.ndim != 1 or x.size < 1:
        raise ValueError("state must be a vector of dimension >= 1")
    if not np.all(np.isfinite(x)):
        raise ValueError("state entries must be finite")
    return x


def at_origin(X):
    """Whether a state is the origin: every coordinate within ORIGIN_TOL of 0.

    For a (k, n) stack of states the answer is a boolean per row; a scalar
    is a state of one coordinate. A NaN coordinate is not at the origin.
    """
    return np.max(np.abs(X), axis=-1) <= ORIGIN_TOL


def origin_value(func, dim, *args):
    """func(0, *args) at the origin of R^dim without NumPy's warnings: at_origin refuses its inf or NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return func(np.zeros(dim), *args)


def rows_product(M, X):
    """M x for each row x of a (k, n) stack X, as a stack of rows.

    M is one matrix, or a (k, ., n) stack with one matrix per row. This
    stacked ``np.matmul`` runs per row the routine ``M @ x`` runs (gemv from
    two inner coordinates on), so each row keeps the bits of its own product.
    One product over the whole stack, such as ``X @ M.T``, would run gemm,
    whose fused multiply-adds round differently.
    """
    return np.matmul(M, X[:, :, None])[:, :, 0]


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


def _finite(v):
    """Whether every float of the list v is finite; faster than np.isfinite at the small sizes used here.

    A non-finite entry makes the sum inf or NaN, so a finite sum decides at
    once; a sum that overflows from finite entries falls back to the entries.
    """
    return math.isfinite(sum(v)) or all(map(math.isfinite, v))


def _all_finite(M):
    """np.isfinite(M).all() for a float array, by :func:`_finite` on its entries."""
    return _finite(M.ravel().tolist())


def matrix_from_entries(entries, shape):
    """The matrix function of a float form: x -> entries(xs) as a float array of ``shape``.

    ``entries`` maps the coordinate list xs of a state to the matrix's
    entries, row-major, as Python floats; the function carries it as its
    ``entries``, which :meth:`StateLinearSystem._linear_stage` reads. A list
    of another length is returned flat, for :func:`_matrix_at` to refuse.
    """
    size = shape[0] * shape[1]

    def matrix(x):
        M = np.array(entries(np.asarray(x, dtype=float).tolist()), dtype=float)
        return M.reshape(shape) if M.size == size else M

    matrix.entries = entries
    return matrix


def _matrix_at(matrix, X, what, shape):
    """matrix(x) at the state X, or stacked at the rows of a (k, n) stack X (by ``matrix.stack`` if
    it has one), as floats. Raises ValueError unless each has ``shape``, and NonFiniteMatrixError,
    naming ``what`` ("state matrix A") and the first such state, unless it is finite."""
    if X.ndim == 1:
        M = np.asarray(matrix(X), dtype=float)
        ok = M.shape == shape and _all_finite(M)
    else:
        stack = getattr(matrix, "stack", None)
        M = np.array(list(map(matrix, X)), dtype=float) if stack is None else np.asarray(stack(X), dtype=float)
        shape = (len(X),) + shape
        # on a stack of hundreds of entries np.isfinite is the faster test
        ok = M.shape == shape and np.isfinite(M).all()
    if ok:
        return M
    if M.shape != shape:
        raise ValueError("the %s(x) must be %d x %d, got shape %s" % (what, *shape, M.shape) if X.ndim == 1 else
                         "the %s(x) of %d states must have shape %s, got %s" % (what, len(X), shape, M.shape))
    x = X if X.ndim == 1 else X[~np.isfinite(M).reshape(len(M), -1).all(axis=1)][0]
    raise NonFiniteMatrixError(
        "system matrices must be finite at finite states: the %s(x) is not finite at x = %s" % (what, x.tolist())
    )


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
        """Max |u(t)| over an n-point grid, NaN when an input is; raises unless it is within the bound.

        One stacked ``np.matmul`` forms every u.u, with the bits of ``u.dot(u)``.
        """
        U = self.values(np.linspace(0.0, self.horizon, n))
        norms = np.sqrt(np.matmul(U[:, None, :], U[:, :, None])[:, 0, 0]).tolist()
        # max() skips a NaN that is not first
        worst = math.nan if any(map(math.isnan, norms)) else max(norms)
        if not worst <= self.bound * (1.0 + 1e-9) + 1e-12:
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
        if not at_origin(origin_value(drift, self.dim_state)):
            raise ValueError("drift(0) must vanish")

    def rhs(self, x, u):
        return self.drift(x) + float(np.atleast_1d(u)[0]) * self.input_field(x)


class StateLinearSystem:
    """State-dependent linear dynamics dx/dt = A(x) x + B(x) u.

    ``A`` maps a state to an n x n matrix. ``B`` maps a state to an n x m
    matrix, or is a constant n x m matrix, stored as a read-only float array
    (``constant_B`` is true) and never evaluated. :func:`_matrix_at` reads
    them, at one state or a stack, for every method and for the check here
    at the origin, where a non-finite matrix is a ValueError; elsewhere it is
    a :class:`~sdstab.errors.NonFiniteMatrixError`, a numerical failure that
    names the state. ``A`` is looked up on every call, so it may be replaced.
    A matrix function may carry a float form, ``A.entries(xs)``: the n*n
    entries of ``A`` at the coordinate list xs, row-major, as Python floats
    with the bits of ``A(x)`` (see :func:`matrix_from_entries`). A stage
    reads it in place of ``A``; an ``A`` without one, such as a counting
    wrapper, is called once per stage. A matrix function may also carry a
    stacked form, ``A.stack(X)``: the (k, n, n) stack of ``A`` at the rows of
    a (k, n) stack of states, with the bits of one call per row; a
    replacement without one is called row by row. Products go through
    :func:`product`, so they have the bits of ``@``. :meth:`_linear_stage`
    builds every stage, the plant's ``stage(ys, w)`` (w a row of
    :meth:`input_terms`), which :meth:`rhs` wraps in one array, and the
    frozen-gain field's, with the RK4 step each carries as ``stage.step``:
    both come from the one stage fragment :func:`_linear_code` writes per
    shape, compiled once for every system and gain of that shape.
    """

    def __init__(self, A, B, dim_state, dim_input):
        self.A = A
        self.dim_state = n = int(dim_state)
        self.dim_input = m = int(dim_input)
        self.constant_B = not callable(B)
        if self.constant_B:
            B = np.array(B, dtype=float)
            B.flags.writeable = False
        self.B = B
        origin = np.zeros(n)
        try:
            self.state_matrix(origin)
            _matrix_at((lambda _x: B) if self.constant_B else B, origin, "input matrix B", (n, m))
        except NonFiniteMatrixError:
            raise ValueError("system matrices must be finite at the origin") from None
        self.stage, _ = self._linear_stage(None)

    def state_matrix(self, x):
        """A(x) as a float array, read by :func:`_matrix_at`."""
        return _matrix_at(self.A, np.asarray(x, dtype=float), "state matrix A", (self.dim_state,) * 2)

    def matrices_at(self, x):
        """A(x) and B(x) as float arrays, each read by :func:`_matrix_at`; a constant B as stored."""
        x = np.asarray(x, dtype=float)
        A = self.state_matrix(x)
        n, m = self.dim_state, self.dim_input
        return A, self.B if self.constant_B else _matrix_at(self.B, x, "input matrix B", (n, m))

    def rhs(self, x, u):
        """A(x) x + B(x) u for a float state array x: the stage on one state."""
        return np.array(self.stage(np.asarray(x, dtype=float).tolist(), self.input_terms(_vector(u)[None])[0]))

    def input_terms(self, U):
        """The input terms of a (k, m) stack of inputs, which ``stage`` takes row by row.

        With a constant B they are the rows B u as float lists, formed by
        :func:`rows_product`; with a callable B they are the inputs themselves.
        """
        return rows_product(self.B, U).tolist() if self.constant_B else U

    def _linear_stage(self, F):
        """The stage (ys, w) -> A(x) x + B(x) u, or with a gain F, (ys, w) -> (A(x) + B(x) F) x, as floats.

        Returns the stage and the constant B's B F (None without F or with a
        callable B), formed here, once. w is a row of :meth:`input_terms`: B u
        with a constant B; u with a callable B, which the stage reads at x and
        turns into B(x) u, or for the field into B(x) F. The stage and the RK4
        step it carries, ``stage.step(xs, h, w_start, w_mid, w_end,
        first_stages)``, which records its first stage itself and has all four
        written into it, are the closures of the shape's compiled code
        (:func:`_linear_code`), bound here to this plan's kept arrays and B F;
        no stage body is written here. Every stage runs the one fragment: it
        fills one buffer of n*n + n floats, kept for the plan, whose first
        n*n entries are viewed as the n x n matrix and last n as the state, in
        one ``struct`` pack (the C doubles NumPy's list assignment would store,
        in about half its time): the matrix entries from ``A.entries(ys)`` when
        ``A`` has a float form (a list of another length than n*n is a
        ValueError) and else from ``A(x)`` (checked to be n x n), plus B F
        entry by entry, on floats, for the field; then the coordinates ys. A
        plain ``A`` and a callable B read the kept state array, so on those
        paths it is filled from ys first; ``A`` must not keep it, or a view of
        it, beyond its call: the next stage refills it. Then one product,
        written into a kept n-array, and :func:`_finite`'s test on its values:
        a non-finite entry of A(x) makes its row of the product inf or NaN
        (inf * 0 is NaN), so only an A(x) of the wrong shape or a product that
        is not finite calls :meth:`state_matrix`, which raises; a finite A(x)
        whose product overflows escapes. The kept arrays are the plan's own:
        its stage and step must not run in two threads at once.
        """
        n, m, nn, closed = self.dim_state, self.dim_input, self.dim_state ** 2, F is not None
        times_x, times_u, B = product(n), product(m), self.B
        BF = times_u(B, F) if closed and self.constant_B else None
        B_at = None if self.constant_B else lambda x: _matrix_at(B, x, "input matrix B", (n, m))
        buf, out = np.empty(nn + n), np.empty(n)
        # M and x are views of buf: filling buf fills both
        stage, step = _linear_code(n, closed, self.constant_B)(
            self, buf[:nn].reshape(n, n), buf[nn:], out, struct.Struct("%dd" % (nn + n)).pack_into,
            memoryview(buf), None if BF is None else BF.ravel().tolist(), F, B_at, times_x, times_u,
        )
        stage.step = step
        return stage, BF

    def closed_loop_field(self, F):
        """The frozen-gain field x -> (A(x) + B(x) F) x: its ``stage`` in one array.

        It also takes a C-contiguous (k, n) stack of states, reads ``A`` and
        a callable ``B`` at the whole stack, and returns the (k, n) stack of
        values with the bits of one call per row: stacked ``np.matmul`` runs
        per row the routine :func:`product` runs (see :func:`rows_product`).
        With ``dim_state``, ``dim_input`` and a ``stage`` that ignores w, it is
        a system without inputs for :func:`~sdstab.odeint.integrate`.
        """
        n, m = self.dim_state, self.dim_input
        # B F is the same product at every x when B is constant, so the stack keeps the stage's bits
        stage, BF = self._linear_stage(F)

        def field(x):
            if x.ndim == 1:
                return np.array(stage(x.tolist(), None))
            A = _matrix_at(self.A, x, "state matrix A", (n, n))
            BFx = np.matmul(_matrix_at(self.B, x, "input matrix B", (n, m)), F) if BF is None else BF
            return rows_product(A + BFx, x)

        field.dim_state, field.dim_input, field.stage = n, m, stage
        return field


@cache
def _linear_code(n, closed, constant_B):
    """The stage and RK4 step of a state-linear shape, compiled once: bind(...) -> (stage, step).

    The shape is n, the frozen-gain field or the plant (``closed``), and a
    constant or a callable B. One source fragment writes the stage of
    :meth:`StateLinearSystem._linear_stage` for the shape, at a state whose
    coordinates it is given as sources: fill the buffer, one product into the
    kept out array, the finiteness test on its values and, for the plant,
    + B u. The plain-``A`` branch, taken when ``A`` has no float form, stays
    in the fragment, since ``A`` may be replaced. The standalone ``stage(ys,
    w)`` runs the fragment once; the step, generated from
    :data:`sdstab.odeint._KERNEL` by :func:`~sdstab.odeint.rk4_source`, runs
    it at each of its four stage states and records the first stage.
    ``bind(owner, M, x, out, fill, view, bf, F, B_at, times_x, times_u)``
    takes what a plan owns (the system, its kept arrays and their fill, the
    constant B's B F entries, the gain, the product routines) and returns both
    closures, so the source is compiled once per shape, not once per gain
    (the README run plans 600 gains). The fragment passes the buffer's floats to the pack as positional
    arguments, adds B F entry by entry by name and tests finiteness on names:
    a starred call, ``map(add, ...)`` and the call of :func:`_finite` each
    cost more than the operations they wrap. On statedep-2d a step of the
    frozen-gain field took about 4.3 us, against 6.6 us for the generic
    kernel calling the stage four times as the stage was before (timeit,
    200,000 steps on a shared 2-core x86-64 VM, CPython 3.11).
    """
    from .odeint import rk4_source  # odeint imports this module

    join = ", ".join
    e, f, g = (["%s%d" % (k, i) for i in range(n * n)] for k in "efg")
    p, q, y = (["%s%d" % (k, i) for i in range(n)] for k in "pqy")
    # B F entry by entry: the constant B's entries f, bound once per plan, or a callable B's g at x
    matrix = join("%s + %s" % v for v in zip(e, f if constant_B else g)) if closed else join(e)
    wrong_length = "the state matrix A(x) must be %d x %d, got %%d entries" % (n, n)

    def fragment(ys, w, k):
        # the coordinates by name, and in one list for the float form and the state array
        named = [v if v.isidentifier() else y[i] for i, v in enumerate(ys)]
        if closed:
            B_terms = [] if constant_B else ["%s, = times_u(B_at(x), F).ravel().tolist()" % join(g)]
        else:
            B_terms = ["%s, = %s" % (join(q), w if constant_B else "times_u(B_at(x), %s).tolist()" % w)]
        out = k if closed else p
        return [
            *("%s = %s" % v for v in zip(named, ys) if v[0] != v[1]),
            "ys = [%s]" % join(named),
            "A = owner.A",
            "entries = getattr(A, 'entries', None)",
            # a plain A and a callable B read the state array
            *([] if constant_B else ["x[:] = ys"]),
            "if entries is None:",
            *(["    x[:] = ys"] if constant_B else []),
            "    A_x = asarray(A(x), dtype=float)",
            "    e = (A_x if A_x.shape == (%d, %d) else owner.state_matrix(x)).ravel().tolist()" % (n, n),
            "else:",
            "    e = entries(ys)",
            "    if len(e) != %d:" % (n * n),
            "        raise ValueError(%r %% len(e))" % wrong_length,
            "%s, = e" % join(e),
            *B_terms,
            # positional arguments only: a starred call builds its tuple first
            "fill(view, 0, %s, %s)" % (matrix, join(named)),
            "%s, = times_x(M, x, out).tolist()" % join(out),
            # _finite's test on the names
            "if not (isfinite(%s) or all(map(isfinite, (%s,)))):" % (" + ".join(out), join(out)),
            "    owner.state_matrix(x)",
            *([] if closed else ["%s = %s + %s" % v for v in zip(k, p, q)]),
        ]

    k = ["k%d" % i for i in range(n)]
    stage = ["def stage(ys, w):", "    %s, = ys" % join(y)]
    stage += ["    " + line for line in fragment(y, "w", k) + ["return [%s]" % join(k)]]
    body = (["%s, = bf" % join(f)] if closed and constant_B else []) + stage
    body += rk4_source(n, fragment, records=True).splitlines() + ["return stage, rk4_step"]
    source = "def bind(owner, M, x, out, fill, view, bf, F, B_at, times_x, times_u):\n"
    namespace = {"__name__": __name__, "asarray": np.asarray, "isfinite": math.isfinite}
    exec(source + "\n".join("    " + line for line in body), namespace)
    return namespace["bind"]


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
