"""Fixed-step explicit integration of controlled ODEs.

Classical 4th-order Runge-Kutta on a uniform grid: runs are bit-reproducible,
which the certificate regression tests rely on. Blow-up (norm above a
threshold, or non-finite values) truncates the trajectory and sets the
escape flag; it is a reported outcome, not an exception, and the step loop
runs with NumPy's overflow and invalid-value warnings off.

The step loop walks the grid in blocks of at most ``BLOCK_STEPS`` steps and
fetches each block's inputs in one call of the signal, before the block is
stepped: the start input (first block only), then each step's midpoint and
end. The input at the end of a step is reused as the next step's start
input. An escape ends the work, and the memory held for inputs, within one
block of where it happens. A caller that replays substeps from the grid
(the frozen-gain controller's playback) can collect each step's first stage
and pass the stack of them to :func:`rk4_stack_step`.

The step loop, :func:`rk4_autonomous_step` and :func:`rk4_stack_step` run
one step kernel. On Python floats a stage maps a state's coordinates and its
input term to the list of field values, and the kernel forms the stage states
x + c*k and the update x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4) coordinate by
coordinate. Arrays are built only where a product or a record needs one: a
state-linear stage makes one state array for A(x) and its product, and one
tolist() (with a callable B, also B(x) and its product); the grid becomes
one array at the end, and only a state near the escape threshold makes one
for x.x. The bits are those of the same expressions on float arrays: NumPy's
elementwise + and * are single IEEE-754 operations, so the same operations in
the same order round alike, signed zeros, infinities and NaN included, and 2*k
is an exact doubling. The float lists pay off on small states only. With the
field's cost left out, a step on lists took about 70 % of the array step's
time at n = 1 to 3, the same at n = 5, and 1.1, 1.4 and 2 times as long at
n = 8, 12 and 20 (one microbenchmark on a shared 2-core x86-64 VM). Every
registry system, README config and benchmark workload that integrates has
n <= 3.

Products stay in NumPy, because OpenBLAS fuses multiply-adds: with OpenBLAS
0.3.31 (Haswell kernels) on x86-64, 85,559 of 200,000 seeded 2 x 2
matrix-vector products and 31,700 of 200,000 2-D dot products differ in the
last bit from the plain Python sums. They go through ``ndarray.dot`` where it
calls the BLAS routine ``@`` calls (gemv, or ddot for a single row): the
same bits with half the dispatch. That is every product with an inner
dimension of two or more (see :func:`sdstab.sysmodel.product`), and the
escape test's x.x at any dimension, since a sum of squares has no negative
product to round. A product with one inner coordinate, such as B F with one
input, stays on ``@``: there dot multiplies through BLAS axpy or ger, and a
negative product that underflows comes out -0.0 where ``@`` gives +0.0. A
constant B's terms B u are formed for a whole block of inputs by one
:func:`~sdstab.sysmodel.rows_product`, with the bits of ``B @ u``.

:func:`rk4_stack_step` runs the kernel with a (k, n) stack of states as its
one coordinate and a column of step sizes as its step: each row keeps the
bits of :func:`rk4_autonomous_step` on that row.
"""

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .sysmodel import Trajectory, state_vector


@dataclass(frozen=True)
class IntegrationConfig:
    step: float = 1e-3
    blowup_norm: float = 1e6

    def __post_init__(self):
        # written so that NaN fails both checks
        if not 0 < self.step < math.inf:
            raise ValueError("integration step must be positive and finite, got %r" % (self.step,))
        # every |x_i| <= 1e150 keeps x.dot(x) finite for up to 1.7e8 coordinates
        if not 1 < self.blowup_norm <= 1e150:
            raise ValueError("blow-up threshold must exceed 1 and not exceed 1e150, got %r" % (self.blowup_norm,))


BLOCK_STEPS = 256  # steps per block of inputs fetched in one call


def _steps(span, h):
    """The steps over a window of length span: (tau, hk, end) for each.

    A step starts at tau and has size hk; it ends at tau + hk, or at span
    when that is within 1e-12 of span or past it. Its end is the next
    step's tau.
    """
    tau = 0.0
    for _ in range(max(1, math.ceil(span / h - 1e-12))):
        hk = min(h, span - tau)
        if hk <= 0:
            return
        end = tau + hk
        if end >= span - 1e-12:
            end = span
        yield tau, hk, end
        tau = end


def integrate(sys, x0, u, window, cfg=IntegrationConfig(), first_stages=None):
    """Integrate dx/dt = rhs(x, u(t - t0)) over window = (t0, t1).

    The control's clock starts at 0 at the window's left edge; its inputs
    are fetched one block of steps at a time, at the times tau + hk/2 and
    tau + hk of each step (and 0 before the first). The final grid point
    lands on t1 exactly (a shorter last step is taken when the window is not
    an integer number of steps). When ``first_stages`` is a list, each
    step's first RK4 stage rhs(x_k, u_k), a float list, is appended to it,
    so entry k belongs to grid point k. An rhs value or a state matrix of
    the wrong shape raises ValueError.

    A system with a ``stage(ys, w)`` (a state-linear system or its
    ``closed_loop_field``) is stepped through it, w being the row of its
    ``input_terms`` of the block that belongs to u; any other system
    through ``rhs(x, u)``, adapted once. Without a signal u is 0.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError("integration window must have positive length")
    x = state_vector(x0)
    if x.size != sys.dim_state:
        raise ValueError("initial state dimension mismatch")

    record_u = u is not None
    stage = getattr(sys, "stage", None) or (lambda ys, w: _stage_list(sys.rhs(np.array(ys), w), sys.dim_state))
    terms = getattr(sys, "input_terms", None) or (lambda U: U)
    blowup = cfg.blowup_norm
    steps = _steps(t1 - t0, cfg.step)
    w_start = None if record_u else terms(np.zeros((1, sys.dim_input)))[0]

    # the grid keeps each state as its list of floats, made into the record's
    # array once; the inputs are kept as one slice of each block's stack
    xs = x.tolist()
    times = [t0]
    states = [xs]
    inputs = []
    escaped = False
    escape_time = None
    # A 1-norm within `inside` passes both escape tests below: the 2-norm is at most the
    # 1-norm, and the margin covers both sums' rounding. NaN or inf makes the 1-norm so.
    inside = blowup * (1 - 4 * (x.size + 2) * 2.0 ** -53)
    # A product that overflows is an escape, which the test below reports:
    # NumPy's overflow and invalid-value warnings would only repeat it. The
    # context is entered once per call, not per step: entering it took about
    # 2 us on a 2-core x86-64 VM.
    with np.errstate(over="ignore", invalid="ignore"):
        while not escaped and (block := list(islice(steps, BLOCK_STEPS))):
            if record_u:
                ts = [tau + d for tau, hk, _ in block for d in (hk / 2, hk)]
                # the first block also asks for the start input
                first = w_start is None
                U = u.values([0.0] + ts if first else ts)
                rows = iter(terms(U))
                if first:
                    w_start = next(rows)
                    inputs.append(U[:1])
                    U = U[1:]
                stepped = len(times)
            for tau, hk, end in block:
                k1 = stage(xs, w_start)
                if first_stages is not None:
                    first_stages.append(k1)
                if record_u:
                    w_mid, w_end = next(rows), next(rows)
                else:
                    w_mid = w_end = w_start
                xs = _rk4_step(stage, xs, hk, k1, w_mid, w_end)
                # Escape unless every |x_i| and then the norm are within the
                # threshold. A state the coordinate test rejects would fail the norm
                # test too; testing it first keeps x.dot(x) from overflowing. NaN fails
                # every comparison and so escapes.
                if not (sum(map(abs, xs)) <= inside or (
                        all(-blowup <= v <= blowup for v in xs) and math.sqrt(np.dot(xs, xs)) <= blowup)):
                    escaped = True
                    escape_time = t0 + end
                    break
                times.append(t0 + end)
                states.append(xs)
                w_start = w_end
            if record_u:
                # the end input of every step taken in the block
                inputs.append(U[1::2][: len(times) - stepped])

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        inputs=np.concatenate(inputs) if record_u else None,
        escaped=escaped,
        escape_time=escape_time,
    )


def rk4_autonomous_step(f, x, h, k1):
    """One classical RK4 step of size h for an autonomous field f.

    ``k1`` is the first stage f(x), computed earlier by the caller (for
    instance collected through :func:`integrate`'s ``first_stages``). The
    playback takes its substeps through :func:`rk4_stack_step`, which runs
    the same kernel on a stack; this single-state form is the reference its
    rows keep the bits of, and a name the benchmark's tracer wraps.
    """
    n = len(x)
    stage = lambda ys, _w: _stage_list(f(np.array(ys)), n)  # noqa: E731
    return np.array(_rk4_step(stage, x.tolist(), h, _stage_list(k1, n), None, None))


def _rk4_step(stage, xs, h, a, w_mid, w_end):
    """One classical RK4 step of size h from the state xs, a list of floats, as a list.

    ``a`` is the first stage, at xs; the later stages are stage(y, w_mid), stage(y, w_mid)
    and stage(y, w_end) at their stage states y, each a list of len(xs) floats.
    """
    half = h / 2
    b = stage([x + half * k for x, k in zip(xs, a)], w_mid)
    c = stage([x + half * k for x, k in zip(xs, b)], w_mid)
    d = stage([x + h * k for x, k in zip(xs, c)], w_end)
    w = h / 6
    return [x + w * (((p + 2 * q) + 2 * r) + s) for x, p, q, r, s in zip(xs, a, b, c, d)]


def rk4_stack_step(f, X, dt, K1):
    """One classical RK4 step for each row of the (k, n) stack X, row i of size dt[i].

    ``f`` maps a C-contiguous (k, n) stack of states to the stack of its
    field values; ``K1`` is f(X), computed earlier by the caller. Row i has
    the bits of ``rk4_autonomous_step(f, X[i], dt[i], K1[i])`` when f keeps
    the bits of single states, as :meth:`StateLinearSystem.closed_loop_field`
    does. Every stage must have the shape of X.
    """
    stage = lambda ys, _w: [_stage_stack(f(ys[0]), X.shape)]  # noqa: E731
    return _rk4_step(stage, [X], dt[:, None], [K1], None, None)[0]


def _stage_stack(K, shape):
    if K.shape != shape:
        raise ValueError(
            "the field returned shape %s for a stack of %d states of dimension %d" % (K.shape, *shape)
        )
    return K


def _stage_list(k, n):
    if k.shape != (n,):
        raise ValueError("the field returned shape %s for a state of dimension %d" % (k.shape, n))
    return k.tolist()


def max_excursion(traj, x_ref):
    """Largest distance of the trajectory from a reference point."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    x_ref = state_vector(x_ref)
    return float(np.max(np.linalg.norm(traj.states - x_ref[None, :], axis=1)))
