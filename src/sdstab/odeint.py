"""Fixed-step explicit integration of controlled ODEs.

Classical 4th-order Runge-Kutta on a uniform grid: runs are bit-reproducible,
which the certificate regression tests rely on. Blow-up (norm above a
threshold, or non-finite values) truncates the trajectory and sets the
escape flag; it is a reported outcome, not an exception, and the step loop
runs with NumPy's overflow and invalid-value warnings off.

The step loop evaluates the input once per stage time: the input at the end
of a step is reused as the next step's start input. A caller that replays
substeps from the grid (the frozen-gain controller's playback) can collect
each step's first stage and pass it to :func:`rk4_autonomous_step`.

Both run one step kernel. It forms the stage states x + c*k and the update
x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4) coordinate by coordinate on Python
floats, and turns each result back into an array with one np.array call. The
bits are those of the same expressions on float arrays: NumPy's elementwise
+ and * are single IEEE-754 operations, so the same operations in the same
order round alike, signed zeros, infinities and NaN included, and 2*k is an
exact doubling. The float lists pay off on small states only. With the
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
product to round. A product with one inner coordinate, such as B u with one
input, stays on ``@``: there dot multiplies through BLAS axpy or ger, and a
negative product that underflows comes out -0.0 where ``@`` gives +0.0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .sysmodel import Trajectory, state_vector


@dataclass(frozen=True)
class IntegrationConfig:
    step: float = 1e-3
    blowup_norm: float = 1e6

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("integration step must be positive")
        if self.blowup_norm <= 1:
            raise ValueError("blow-up threshold must exceed 1")
        # every |x_i| <= 1e150 keeps x.dot(x) finite for up to 1.7e8 coordinates
        if self.blowup_norm > 1e150:
            raise ValueError("blow-up threshold must not exceed 1e150")


def integrate(sys, x0, u, window, cfg=IntegrationConfig(), first_stages=None):
    """Integrate dx/dt = rhs(x, u(t - t0)) over window = (t0, t1).

    The control's clock starts at 0 at the window's left edge. The final
    grid point lands on t1 exactly (a shorter last step is taken when the
    window is not an integer number of steps). When ``first_stages`` is a
    list, each step's first RK4 stage rhs(x_k, u_k) is appended to it, so
    entry k belongs to grid point k. A stage whose shape is not that of the
    state raises ValueError.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError("integration window must have positive length")
    x = state_vector(x0)
    if x.size != sys.dim_state:
        raise ValueError("initial state dimension mismatch")

    h = cfg.step
    span = t1 - t0
    n_steps = max(1, int(np.ceil(span / h - 1e-12)))
    record_u = u is not None
    rhs = sys.rhs
    blowup = cfg.blowup_norm
    # The input at the end of one step is the input at the start of the
    # next: value() clamps t to the horizon, and a clamped tau ends the loop.
    u_start = u.value(0.0) if record_u else np.zeros(sys.dim_input)

    # x is never mutated (each step builds a new array), and np.array(states)
    # copies, so the grid keeps references rather than copies
    times = [t0]
    states = [x]
    inputs = [u_start] if record_u else None
    escaped = False
    escape_time = None

    tau = 0.0
    xs = x.tolist()
    # A product that overflows is an escape, which the test below reports:
    # NumPy's overflow and invalid-value warnings would only repeat it. The
    # context is entered once per call, not per step: entering it took about
    # 2 us on a 2-core x86-64 VM.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            hk = min(h, span - tau)
            if hk <= 0:
                break
            k1 = rhs(x, u_start)
            if first_stages is not None:
                first_stages.append(k1)
            if record_u:
                u_mid = u.value(tau + hk / 2)
                u_end = u.value(tau + hk)
            else:
                u_mid = u_end = u_start
            x_new, new = _rk4_step(rhs, xs, hk, k1, (u_mid,), (u_end,))
            tau += hk
            if tau >= span - 1e-12:
                tau = span
            # Escape unless every |x_i| and then the norm are within the
            # threshold. A state the coordinate test rejects would fail the norm
            # test too; testing it first keeps x.dot(x) from overflowing. NaN fails
            # every comparison and so escapes.
            if not (all(-blowup <= v <= blowup for v in new) and math.sqrt(x_new.dot(x_new)) <= blowup):
                escaped = True
                escape_time = t0 + tau
                break
            x, xs = x_new, new
            times.append(t0 + tau)
            states.append(x)
            if record_u:
                inputs.append(u_end)
            u_start = u_end

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        inputs=np.array(inputs) if record_u else None,
        escaped=escaped,
        escape_time=escape_time,
    )


def rk4_autonomous_step(f, x, h, k1):
    """One classical RK4 step of size h for an autonomous field f.

    ``k1`` is the first stage f(x), computed earlier by the caller (for
    instance collected through :func:`integrate`'s ``first_stages``).
    """
    return _rk4_step(f, x.tolist(), h, k1)[0]


def _rk4_step(f, xs, h, k1, mid=(), end=()):
    """One classical RK4 step of size h from the state xs, a list of floats.

    ``k1`` is the field at xs; the later stages are f(y, *mid), f(y, *mid)
    and f(y, *end) at their stage states y. Every stage must have shape
    (len(xs),). Returns the new state as an array and as a list.
    """
    shape = (len(xs),)
    half = h / 2
    a = _stage_list(k1, shape)
    b = _stage_list(f(np.array([x + half * k for x, k in zip(xs, a)]), *mid), shape)
    c = _stage_list(f(np.array([x + half * k for x, k in zip(xs, b)]), *mid), shape)
    d = _stage_list(f(np.array([x + h * k for x, k in zip(xs, c)]), *end), shape)
    w = h / 6
    new = [x + w * (((p + 2 * q) + 2 * r) + s) for x, p, q, r, s in zip(xs, a, b, c, d)]
    return np.array(new), new


def _stage_list(k, shape):
    if k.shape != shape:
        raise ValueError("the field returned shape %s for a state of dimension %d" % (k.shape, shape[0]))
    return k.tolist()


def max_excursion(traj, x_ref):
    """Largest distance of the trajectory from a reference point."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    x_ref = state_vector(x_ref)
    return float(np.max(np.linalg.norm(traj.states - x_ref[None, :], axis=1)))
