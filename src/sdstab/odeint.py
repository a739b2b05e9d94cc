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

Every RK4 step is generated from one source template, ``_KERNEL``, as
``collections.namedtuple`` generates its class. On Python floats a stage maps
a state's coordinates and its input term to the field values, and the step
forms the stage states x + c*k and the update
x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4), written out coordinate by coordinate:
it unpacks the state and each stage into locals and forms each coordinate's
stage state and update by name, with no comprehension, zip or tuple per
coordinate. Each stage is a source fragment of the template (see
:func:`rk4_source`). The generic fragment is one call of a stage function;
the kernel it makes, once per n, takes the first stage from its caller and
serves :func:`rk4_autonomous_step`, :func:`rk4_stack_step` (whose playback
reuses the internal model's first stages) and the step loop on a system
without a generated step (``AffineSystem.rhs``, a duck system). A
state-linear system writes its stage as a fragment of its own, so its
``stage.step`` has all four stages, the first one recorded, written into it
without a call (see :func:`~sdstab.sysmodel._linear_code`), and the step
loop runs it. Arrays are built only where a product or a record needs one:
a state-linear stage fills the one buffer it keeps for A(x) and the state,
writes its product into a kept array and reads it with one tolist() (see
:meth:`~sdstab.sysmodel.StateLinearSystem._linear_stage`); the grid becomes
one array at the end, and only a state near the escape threshold makes one
for x.x. The bits are those of the same expressions on float arrays: NumPy's
elementwise + and * are single IEEE-754 operations, so the same operations in
the same order round alike, signed zeros, infinities and NaN included, and 2*k
is an exact doubling. On a 2-D state with a trivial stage the written-out
step took about 0.55 us against 2.3 us for one comprehension per stage (one
microbenchmark on a shared 2-core x86-64 VM, CPython 3.11).

Products stay in NumPy, because OpenBLAS fuses multiply-adds: with OpenBLAS
0.3.31 on x86-64, 85,559 of 200,000 seeded 2 x 2 matrix-vector products and
31,700 of 200,000 2-D dot products differ in the last bit from the plain
Python sums. Which products round so follows the OpenBLAS kernel picked for
the CPU when the library loads, so the bits of a run do too. They go through
``ndarray.dot`` where it calls the BLAS routine ``@`` calls (gemv, or ddot
for a single row): the same bits with half the dispatch. That is every
product with an inner dimension of two or more (see
:func:`sdstab.sysmodel.product`), and the escape test's x.x at any
dimension, since a sum of squares has no negative product to round. A product with one inner coordinate, such as B F with one
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
from functools import cache
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

    A system with a ``stage(ys, w)`` is stepped through it, w being the row
    of its ``input_terms`` of the block that belongs to u: by the step the
    stage carries as ``stage.step`` (a state-linear system and its
    ``closed_loop_field`` do), or else by the generic kernel calling the
    stage. Any other system is stepped through ``rhs(x, u)``, adapted once.
    Without a signal u is 0.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError("integration window must have positive length")
    x = state_vector(x0)
    if x.size != sys.dim_state:
        raise ValueError("initial state dimension mismatch")

    record_u = u is not None
    stage = getattr(sys, "stage", None) or (lambda ys, w: _stage_list(sys.rhs(np.array(ys), w), sys.dim_state))
    step = getattr(stage, "step", None) or _recording_step(stage, x.size)
    terms = getattr(sys, "input_terms", None) or (lambda U: U)
    blowup = cfg.blowup_norm
    steps = _steps(t1 - t0, cfg.step)
    w_start = w_mid = w_end = None if record_u else terms(np.zeros((1, sys.dim_input)))[0]

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
                if record_u:
                    w_mid, w_end = next(rows), next(rows)
                xs = step(xs, hk, w_start, w_mid, w_end, first_stages)
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
    return np.array(_rk4_kernel(n)(stage, x.tolist(), h, _stage_list(k1, n), None, None))


# One RK4 step on n coordinates, written out coordinate by coordinate. Each
# coordinate runs the expressions x + half*k, x + h*k and
# x + sixth*(((p + 2*q) + 2*r) + s), the stage states in full before each stage.
# {first} takes the first stage, and each later stage is a source fragment.
_KERNEL = """\
def rk4_step({params}):
    {x}, = xs
{first}
    half = h / 2
{b}
{c}
{d}
    sixth = h / 6
    return [{update}]
"""


def rk4_source(n, stage, records=False):
    """The source of the RK4 step on n coordinates from ``_KERNEL``, each stage written by ``stage``.

    ``stage(ys, w, k)`` returns the lines that set the names in the list k to
    the stage at the state whose n coordinates have the sources ys, under the
    input term named w. Without ``records`` the step is
    ``rk4_step(stage, xs, h, a, w_mid, w_end)``, the first stage a passed in.
    With it the step is ``rk4_step(xs, h, w_start, w_mid, w_end,
    first_stages)``: it forms the first stage at xs under w_start itself and
    appends it, as a list, to ``first_stages`` unless that is None.
    """
    x, a, b, c, d = (["%s%d" % (k, i) for i in range(n)] for k in "xabcd")

    def lines(source):
        return "\n".join("    " + line for line in source)

    def at(factor, k, w, out):
        return lines(stage(["%s + %s * %s" % (xi, factor, ki) for xi, ki in zip(x, k)], w, out))

    if records:
        params = "xs, h, w_start, w_mid, w_end, first_stages"
        first = lines(stage(x, "w_start", a) + [
            "if first_stages is not None:", "    first_stages.append([%s])" % ", ".join(a)])
    else:
        params, first = "stage, xs, h, a, w_mid, w_end", lines(["%s, = a" % ", ".join(a)])
    return _KERNEL.format(
        params=params, x=", ".join(x), first=first,
        b=at("half", a, "w_mid", b), c=at("half", b, "w_mid", c), d=at("h", c, "w_end", d),
        update=", ".join("%s + sixth * (((%s + 2 * %s) + 2 * %s) + %s)" % v for v in zip(x, a, b, c, d)),
    )


def _call_stage(ys, w, k):
    """The generic stage fragment: one call of the kernel's ``stage`` argument."""
    return ["%s, = stage([%s], %s)" % (", ".join(k), ", ".join(ys), w)]


@cache
def _rk4_kernel(n):
    """The RK4 step on n coordinates: (stage, xs, h, a, w_mid, w_end) -> the next state, a list.

    ``xs`` is the state, a list of n floats (or of one stack, with n = 1),
    and ``a`` the first stage, at xs; the later stages are stage(y, w_mid),
    stage(y, w_mid) and stage(y, w_end) at their stage states y, each a list
    of n values. The step is generated from ``_KERNEL`` with the generic
    stage fragment, one call of ``stage``, once per n, as
    ``collections.namedtuple`` generates its class. A state-linear system's
    stage carries its own step from the same template, with its stage written
    into it (see :meth:`~sdstab.sysmodel.StateLinearSystem._linear_stage`).
    """
    namespace = {"__name__": __name__}
    exec(rk4_source(n, _call_stage), namespace)
    return namespace["rk4_step"]


def _recording_step(stage, n):
    """The step (xs, h, w_start, w_mid, w_end, first_stages) of the generic kernel on ``stage``."""
    kernel = _rk4_kernel(n)

    def step(xs, h, w_start, w_mid, w_end, first_stages):
        a = stage(xs, w_start)
        if first_stages is not None:
            first_stages.append(a)
        return kernel(stage, xs, h, a, w_mid, w_end)

    return step


def rk4_stack_step(f, X, dt, K1):
    """One classical RK4 step for each row of the (k, n) stack X, row i of size dt[i].

    ``f`` maps a C-contiguous (k, n) stack of states to the stack of its
    field values; ``K1`` is f(X), computed earlier by the caller. Row i has
    the bits of ``rk4_autonomous_step(f, X[i], dt[i], K1[i])`` when f keeps
    the bits of single states, as :meth:`StateLinearSystem.closed_loop_field`
    does. Every stage must have the shape of X.
    """
    stage = lambda ys, _w: [_stage_stack(f(ys[0]), X.shape)]  # noqa: E731
    return _rk4_kernel(1)(stage, [X], dt[:, None], [K1], None, None)[0]


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
