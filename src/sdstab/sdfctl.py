"""Sampled-data closed loops with numerically checked decrease certificates.

At every sampling instant the controller sees only the sampled state and the
length of the upcoming interval, and returns an open-loop signal for that
interval. The frozen-gain controller synthesizes a stabilizing gain at the
sample, simulates its own internal model of the frozen-gain closed loop, and
plays back the gain applied to the *model* state (not a zero-order hold;
a hold variant is available behind a flag for comparison runs). The plant
may differ from the model; the decrease certificate quantifies the result.
"""

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ControllerError, NoCertifiedStepError, NotStabilizableError
from .odeint import IntegrationConfig, integrate, max_excursion, rk4_autonomous_step
from .patchwork import DOUBLING, active_index
from .sysmodel import ControlSignal, GeneralSystem, state_vector, zero_signal
from .synth import synthesize_gain

MARGINAL_TOL = 1e-10


class SampledController:
    """Plans one bounded open-loop signal per sampling interval."""

    descriptor = "abstract"

    def plan(self, xi, eps):
        raise NotImplementedError


class ZeroController(SampledController):
    descriptor = "zero"

    def __init__(self, dim_input=1):
        self.dim_input = dim_input

    def plan(self, xi, eps):
        return zero_signal(eps, self.dim_input)


class FrozenGainController(SampledController):
    """Gain-scheduled sampled control for state-dependent linear dynamics.

    plan(xi, eps): synthesize F, P, decay at the frozen sample xi, integrate
    the internal model dxh/dt = (A(xh) + B(xh) F) xh from xh(0) = xi, and
    return u(t) = F xh(t) with bound |F| * max |xh|. The internal model uses
    the same integrator configuration as the plant. Between grid points,
    xh(t) is one RK4 substep from the grid point before t; its first stage
    is the one the model run computed at that point, so playback evaluates
    the model field three times per substep, not four.
    """

    def __init__(self, sys, cfg=IntegrationConfig(), zero_order_hold=False):
        self.sys = sys
        self.cfg = cfg
        self.zero_order_hold = zero_order_hold
        self.descriptor = "frozen-gain" + ("-zoh" if zero_order_hold else "")

    def plan(self, xi, eps):
        xi = state_vector(xi)
        m = self.sys.dim_input
        if float(np.max(np.abs(xi))) == 0.0:
            return zero_signal(eps, m)
        A, B = self.sys.matrices_at(xi)
        try:
            synth = synthesize_gain(A, B)
        except NotStabilizableError as exc:
            if exc.point is None:
                exc.point = xi
            raise ControllerError("synthesis failed at sample %s: %s" % (xi, exc)) from exc
        F = synth.gain

        if self.zero_order_hold:
            u_const = F @ xi
            bound = float(np.linalg.norm(u_const))
            sig = ControlSignal(eps, bound, m, lambda t: u_const, spot_check=False)
            sig.info.update({"xi": xi, "synthesis": synth})
            return sig

        sys_ref = self.sys

        def model_rhs(x, _u):
            Ax, Bx = sys_ref.matrices_at(x)
            return (Ax + Bx @ F) @ x

        model_sys = GeneralSystem(self.sys.dim_state, m, model_rhs)
        # first_stage[k] = model_rhs(states[k]): the first stage of every
        # playback substep from grid point k, recorded by the model run
        first_stage = []
        model = integrate(model_sys, xi, None, (0.0, eps), self.cfg, first_stage)
        if model.escaped:
            raise ControllerError(
                "internal model escaped at t=%g for sample %s" % (model.escape_time, xi)
            )

        grid = model.times.tolist()
        states = model.states
        last = max(len(grid) - 2, 0)

        def model_field(x):
            return model_rhs(x, None)

        def model_state(t):
            idx = min(max(bisect_right(grid, t) - 1, 0), last)
            dt = t - grid[idx]
            if dt <= 1e-12:
                return states[idx]
            return rk4_autonomous_step(model_field, states[idx], dt, first_stage[idx])

        bound = float(np.linalg.norm(F, 2) * np.max(np.linalg.norm(states, axis=1)))
        bound *= 1.0 + 1e-6
        sig = ControlSignal(eps, bound, m, lambda t: F @ model_state(t))
        sig.info.update({"xi": xi, "synthesis": synth, "model": model})
        return sig


class PatchworkController(SampledController):
    """Dispatches to region-local plans: interior region's plan inside, the
    active (boundary-maximizing) piece's plan on shared boundaries."""

    descriptor = "patchwork"

    def __init__(self, W, piece_plans, dim_input=1):
        if len(piece_plans) != len(W.family.pieces):
            raise ValueError("one plan per piece")
        self.W = W
        self.piece_plans = list(piece_plans)
        self.dim_input = dim_input

    def plan(self, xi, eps):
        xi = state_vector(xi)
        kind, info = self.W.family.locate(xi)
        if kind == "origin":
            return zero_signal(eps, self.dim_input)
        if kind == "interior":
            idx = info
        elif kind == "boundary":
            idx = active_index(self.W, xi)
        else:
            raise ControllerError("sample %s is outside the patchwork domain" % xi)
        sig = self.piece_plans[idx].plan(xi, eps)
        sig.info["piece"] = idx
        return sig


# -- closed-loop runs -----------------------------------------------------------


@dataclass
class IntervalRecord:
    index: int
    t_start: float
    t_end: float
    xi: np.ndarray
    x_end: np.ndarray
    traj: object
    bound: float
    excursion: float
    from_tail: bool
    info: dict = field(default_factory=dict)

    @property
    def eps(self):
        return self.t_end - self.t_start


@dataclass
class ClosedLoopRun:
    partition: object
    records: list
    escaped: bool = False
    escape_time: float | None = None

    @property
    def samples(self):
        return [rec.xi for rec in self.records]

    def final_state(self):
        return self.records[-1].x_end

    def trajectory(self):
        """Concatenated (times, states, inputs) without duplicated junctions."""
        times, states, inputs = [], [], []
        for k, rec in enumerate(self.records):
            sl = slice(1, None) if k > 0 else slice(None)
            times.append(rec.traj.times[sl])
            states.append(rec.traj.states[sl])
            if rec.traj.inputs is not None:
                inputs.append(rec.traj.inputs[sl])
        return (
            np.concatenate(times),
            np.concatenate(states),
            np.concatenate(inputs) if inputs else None,
        )


def run_closed_loop(plant, ctrl, partition, x0, horizon, cfg=IntegrationConfig()):
    """Sample-and-hold the controller over the partition, integrating the plant.

    The plant trajectory is continuous across sampling instants (each
    interval starts from the previous final state). Escape is recorded in
    the run; a controller failure raises with the partial run attached.
    """
    x = state_vector(x0)
    boundaries = partition.boundaries(horizon)
    records = []
    run = ClosedLoopRun(partition=partition, records=records)
    for k in range(len(boundaries) - 1):
        t0, _ = boundaries[k]
        t1, from_tail = boundaries[k + 1]
        eps = t1 - t0
        try:
            sig = ctrl.plan(x, eps)
        except ControllerError as exc:
            exc.partial_run = run
            raise
        traj = integrate(plant, x, sig, (t0, t1), cfg)
        records.append(
            IntervalRecord(
                index=k,
                t_start=t0,
                t_end=t1,
                xi=x,
                x_end=traj.final_state(),
                traj=traj,
                bound=sig.bound,
                excursion=max_excursion(traj, x),
                from_tail=from_tail,
                info=dict(sig.info),
            )
        )
        if traj.escaped:
            run.escaped = True
            run.escape_time = traj.escape_time
            break
        x = traj.final_state()
    return run


# -- certificates ----------------------------------------------------------------


class PerSampleQuadratic:
    """Per-interval value functions x -> 0.5 x'P x with P synthesized at the sample.

    Intervals planned at the origin (zero signal, no synthesis) fall back to
    0.5 |x|^2; their strict-decrease requirement is waived anyway.
    """

    def for_interval(self, record):
        synth = record.info.get("synthesis")
        P = synth.lyapunov if synth is not None else np.eye(len(record.xi))
        return lambda x: 0.5 * float(np.asarray(x) @ P @ np.asarray(x))


@dataclass
class IntervalCertificate:
    index: int
    t_start: float
    v_start: float
    v_end: float
    margin: float
    v_max: float
    bound_ok: bool
    excursion_ratio: float
    waived: bool = False
    marginal: bool = False

    @property
    def ok(self):
        return self.bound_ok and (self.waived or self.margin > 0.0)


@dataclass
class DecreaseCertificate:
    intervals: list
    escaped: bool
    passed: bool
    uniform_margin: float
    failures: list

    def summary(self):
        return "certificate %s: %d intervals, uniform margin %.3e, %d failure(s)" % (
            "pass" if self.passed else "FAIL",
            len(self.intervals),
            self.uniform_margin,
            len(self.failures),
        )


def certify_decrease(run, V, a=DOUBLING):
    """Check strict per-interval decrease and interval growth bounds along a run.

    V is either a plain callable on states (a fixed Lyapunov function or a
    patchwork glued function) or a per-interval provider such as
    :class:`PerSampleQuadratic`. For each completed interval the margin
    V(start) - V(end) must be strictly positive (waived at the origin), the
    interval maximum of V must stay below a(V(start)), and the excursion per
    unit time is reported as the interval's excursion constant.
    """
    if not run.records:
        raise ValueError("run has no completed intervals")
    per_interval = hasattr(V, "for_interval")
    intervals = []
    failures = []
    margins = []
    for rec in run.records:
        Vk = V.for_interval(rec) if per_interval else V
        v_start = float(Vk(rec.xi))
        v_end = float(Vk(rec.x_end))
        margin = v_start - v_end
        v_max = max(float(Vk(s)) for s in rec.traj.states)
        cap = a(v_start)
        bound_ok = v_max <= cap + 1e-12 * (1.0 + abs(cap))
        waived = float(np.max(np.abs(rec.xi))) == 0.0
        cert = IntervalCertificate(
            index=rec.index,
            t_start=rec.t_start,
            v_start=v_start,
            v_end=v_end,
            margin=margin,
            v_max=v_max,
            bound_ok=bound_ok,
            excursion_ratio=rec.excursion / rec.eps,
            waived=waived,
            marginal=0.0 < margin < MARGINAL_TOL,
        )
        intervals.append(cert)
        if not cert.ok:
            reasons = []
            if not bound_ok:
                reasons.append("growth bound exceeded (%g > %g)" % (v_max, cap))
            if not waived and margin <= 0.0:
                reasons.append("no strict decrease (margin %g)" % margin)
            failures.append("interval %d: %s" % (rec.index, "; ".join(reasons)))
        if not waived:
            margins.append(margin)
    if run.escaped:
        failures.append("trajectory escaped at t=%g" % run.escape_time)
    passed = not failures
    uniform = min(margins) if margins else 0.0
    return DecreaseCertificate(
        intervals=intervals,
        escaped=run.escaped,
        passed=passed,
        uniform_margin=uniform,
        failures=failures,
    )


def adapt_epsilon(plant, ctrl, xi, V, a, eps0, cfg=IntegrationConfig(), max_halvings=20):
    """Halve the sampling step until a single-interval run certifies a strict decrease.

    Returns (accepted step, certificate). Exhausting the halvings raises
    with the (step, margin) trace attached.
    """
    from .sysmodel import make_uniform_partition

    if eps0 <= 0:
        raise ValueError("initial step must be positive")
    xi = state_vector(xi)
    trace = []
    eps = float(eps0)
    for _ in range(max_halvings + 1):
        partition = make_uniform_partition(eps, 2)
        run = run_closed_loop(plant, ctrl, partition, xi, eps, cfg)
        cert = certify_decrease(run, V, a)
        trace.append((eps, cert.uniform_margin))
        if cert.passed:
            return eps, cert
        eps /= 2
    raise NoCertifiedStepError(
        "no certified decrease from %s down to step %g" % (xi, trace[-1][0]), trace=trace
    )
