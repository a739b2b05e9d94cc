"""Fixed-step explicit integration of controlled ODEs.

Classical 4th-order Runge-Kutta on a uniform grid: runs are bit-reproducible,
which the certificate regression tests rely on. Blow-up (norm above a
threshold, or non-finite values) truncates the trajectory and sets the
escape flag; it is a reported outcome, not an exception.

The step loop evaluates the input once per stage time: the input at the end
of a step is reused as the next step's start input. A caller that replays
substeps from the grid (the frozen-gain controller's playback) can collect
each step's first stage and pass it to :func:`rk4_autonomous_step`.
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


def integrate(sys, x0, u, window, cfg=IntegrationConfig(), first_stages=None):
    """Integrate dx/dt = rhs(x, u(t - t0)) over window = (t0, t1).

    The control's clock starts at 0 at the window's left edge. The final
    grid point lands on t1 exactly (a shorter last step is taken when the
    window is not an integer number of steps). When ``first_stages`` is a
    list, each step's first RK4 stage rhs(x_k, u_k) is appended to it, so
    entry k belongs to grid point k.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError("integration window must have positive length")
    x = state_vector(x0)
    if x.size != sys.dim_state:
        raise ValueError("initial state dimension mismatch")

    h = cfg.step
    span = t1 - t0
    n_steps = int(np.ceil(span / h - 1e-12))
    record_u = u is not None
    rhs = sys.rhs
    blowup = cfg.blowup_norm
    # The input at the end of one step is the input at the start of the
    # next: value() clamps t to the horizon, and a clamped tau ends the loop.
    u_start = u.value(0.0) if record_u else np.zeros(sys.dim_input)

    times = [t0]
    states = [x.copy()]
    inputs = [u_start] if record_u else None
    escaped = False
    escape_time = None

    tau = 0.0
    for k in range(n_steps):
        hk = min(h, span - tau)
        if hk <= 0:
            break
        k1 = rhs(x, u_start)
        if first_stages is not None:
            first_stages.append(k1)
        u_mid = u.value(tau + hk / 2) if record_u else u_start
        k2 = rhs(x + (hk / 2) * k1, u_mid)
        k3 = rhs(x + (hk / 2) * k2, u_mid)
        u_end = u.value(tau + hk) if record_u else u_start
        k4 = rhs(x + hk * k3, u_end)
        x_new = x + (hk / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        tau += hk
        if tau >= span - 1e-12:
            tau = span
        # Escape unless every |x_i| and then the norm are within the
        # threshold. A state the coordinate test rejects would fail the norm
        # test too; testing it first keeps x @ x from overflowing. NaN fails
        # every comparison and so escapes.
        if not (all(-blowup <= v <= blowup for v in x_new.tolist()) and math.sqrt(x_new @ x_new) <= blowup):
            escaped = True
            escape_time = t0 + tau
            break
        x = x_new
        times.append(t0 + tau)
        states.append(x.copy())
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
    k2 = f(x + (h / 2) * k1)
    k3 = f(x + (h / 2) * k2)
    k4 = f(x + h * k3)
    return x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def max_excursion(traj, x_ref):
    """Largest distance of the trajectory from a reference point."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    x_ref = state_vector(x_ref)
    return float(np.max(np.linalg.norm(traj.states - x_ref[None, :], axis=1)))
