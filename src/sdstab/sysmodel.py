"""Core representations: systems, control signals, sampling partitions, trajectories.

Everything here is immutable after construction and safe to share across
concurrent workers. Controls are closed-form time functions on [0, horizon]
(the controller clock restarts at every sampling instant), not sampled
arrays, so controllers can produce them lazily.
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


def _all_finite(M):
    """np.isfinite(M).all() for a float array; faster at the small sizes used here."""
    return all(map(math.isfinite, M.ravel().tolist()))


class ControlSignal:
    """A bounded input signal t -> u(t) on [0, horizon].

    ``func`` maps a local time in [0, horizon] to an input vector of
    dimension ``dim_input``; ``bound`` is the declared sup-norm bound,
    spot-checked on a coarse grid at construction and checkable on a fine
    grid via :meth:`check_bound`. ``info`` carries controller metadata
    (synthesis results, internal-model trajectories) for certificates.
    """

    def __init__(self, horizon, bound, dim_input, func, info=None, spot_check=True):
        if horizon <= 0:
            raise ValueError("signal horizon must be positive")
        if bound < 0 or not np.isfinite(bound):
            raise ValueError("signal bound must be finite and nonnegative")
        self.horizon = float(horizon)
        self.bound = float(bound)
        self.dim_input = int(dim_input)
        self._func = func
        self.info = info or {}
        if spot_check:
            self.check_bound(33)

    def value(self, t):
        t = min(max(float(t), 0.0), self.horizon)
        return _vector(self._func(t))

    def check_bound(self, n=1000):
        """Max |u(t)| over an n-point grid; raises if it exceeds the bound."""
        grid = np.linspace(0.0, self.horizon, n)
        worst = max(math.sqrt(u @ u) for u in map(self.value, grid))
        if worst > self.bound * (1.0 + 1e-9) + 1e-12:
            raise ValueError(
                "signal exceeds its declared bound: %g > %g" % (worst, self.bound)
            )
        return worst


def zero_signal(horizon, dim_input):
    u0 = np.zeros(dim_input)
    return ControlSignal(horizon, 0.0, dim_input, lambda t: u0, spot_check=False)


class GeneralSystem:
    """dx/dt = rhs(x, u) with rhs(0, 0) = 0."""

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

    def as_general(self):
        drift, gfield = self.drift, self.input_field

        def rhs(x, u):
            return drift(x) + float(np.atleast_1d(u)[0]) * gfield(x)

        return GeneralSystem(self.dim_state, 1, rhs)


class StateLinearSystem:
    """State-dependent linear dynamics dx/dt = A(x) x + B(x) u."""

    def __init__(self, A, B, dim_state, dim_input):
        self.A = A
        self.B = B
        self.dim_state = int(dim_state)
        self.dim_input = int(dim_input)
        a0 = np.asarray(A(np.zeros(dim_state)), dtype=float)
        b0 = np.asarray(B(np.zeros(dim_state)), dtype=float)
        if a0.shape != (dim_state, dim_state):
            raise ValueError("A(x) must be %d x %d" % (dim_state, dim_state))
        if b0.shape != (dim_state, dim_input):
            raise ValueError("B(x) must be %d x %d" % (dim_state, dim_input))

    def matrices_at(self, xi):
        xi = np.asarray(xi, dtype=float)
        A = np.asarray(self.A(xi), dtype=float)
        B = np.asarray(self.B(xi), dtype=float)
        if not (_all_finite(A) and _all_finite(B)):
            raise ValueError("system matrices must be finite at finite states")
        return A, B

    def as_general(self):
        def rhs(x, u):
            A, B = self.matrices_at(x)
            return A @ x + B @ _vector(u)

        return GeneralSystem(self.dim_state, self.dim_input, rhs)


class SamplingPartition:
    """Strictly increasing sampling times starting at 0, with an optional uniform tail."""

    def __init__(self, times, tail_step=None):
        times = [float(t) for t in times]
        if not times or times[0] != 0.0:
            raise ValueError("a sampling partition starts at time 0")
        for a, b in zip(times, times[1:]):
            if not b > a:
                raise ValueError("sampling times must be strictly increasing")
        if tail_step is not None and tail_step <= 0:
            raise ValueError("tail step must be positive")
        self.times = tuple(times)
        self.tail_step = tail_step

    def boundaries(self, horizon):
        """Interval boundaries covering [0, horizon], flagging tail-generated ones.

        Returns a list of (t, from_tail) with t strictly increasing, first
        entry (0, False), last entry (horizon, ...), using the explicit
        prefix and then the uniform tail.
        """
        horizon = float(horizon)
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        out = []
        for t in self.times:
            if t >= horizon - 1e-12:
                break
            out.append((t, False))
        last = out[-1][0] if out else 0.0
        if self.times[-1] < horizon - 1e-12:
            if self.tail_step is None:
                raise ValueError(
                    "partition prefix ends at %g but horizon is %g and no tail step is set"
                    % (self.times[-1], horizon)
                )
            t = max(last, self.times[-1])
            while t + self.tail_step < horizon - 1e-12:
                t += self.tail_step
                out.append((t, True))
            out.append((horizon, True))
        else:
            out.append((horizon, False))
        return out

    def __len__(self):
        return len(self.times)


def make_uniform_partition(h, count):
    """Uniform partition (k-1)*h for k = 1..count, extendable with step h."""
    if h <= 0:
        raise ValueError("sampling step must be positive")
    if count < 1:
        raise ValueError("partition needs at least one time")
    return SamplingPartition([(k * h) for k in range(count)], tail_step=h)


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
