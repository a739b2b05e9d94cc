"""Sampled-data closed loops with numerically checked decrease certificates.

The sampling instants are ``k*h`` for a step ``h``, made one at a time up
to the horizon (see :func:`sampling_times`). At every instant the
controller (any object with ``plan(xi, eps)``) sees only the sampled state
and the length of the upcoming interval, and returns an open-loop signal
for that interval: a function of an array of times, which the plant's
integration asks for one block of steps at a time. The frozen-gain
controller synthesizes a stabilizing gain at the sample, simulates its own
internal model of the frozen-gain closed loop, and plays back the gain
applied to the *model* state, all queried times at once (not a zero-order
hold; a hold variant is available behind a flag for comparison runs). The
plant may differ from the model; the decrease certificate quantifies the
result. Each interval's verdict lives in its :class:`IntervalCertificate`,
decided once when the certificate is built; everything else reads it. A
sample at the origin (:func:`~sdstab.sysmodel.at_origin`, the one rule the
controllers and the certificate read) gets the zero signal, and its
interval's strict decrease is waived.
"""

import math
from dataclasses import dataclass, field
from itertools import chain, count, pairwise, takewhile

import numpy as np

from .errors import ControllerError, NotStabilizableError
from .odeint import IntegrationConfig, integrate, max_excursion, rk4_stack_step
from .patchwork import DOUBLING, active_indices
from .sysmodel import ControlSignal, at_origin, constant_signal, product, rows_product, state_vector, zero_signal
from .synth import synthesize_gain

MARGINAL_TOL = 1e-10


class ZeroController:
    def __init__(self, dim_input=1):
        self.dim_input = dim_input

    def plan(self, xi, eps):
        return zero_signal(eps, self.dim_input)


class FrozenGainController:
    """Gain-scheduled sampled control for state-dependent linear dynamics.

    plan(xi, eps): at a sample that is at the origin (:func:`at_origin`),
    return the zero signal. Elsewhere synthesize F, P, decay at the frozen
    sample xi, integrate the internal model dxh/dt = (A(xh) + B(xh) F) xh
    from xh(0) = xi, and return u(t) = F xh(t) with bound |F| * max |xh|.
    A failed synthesis, a model escape and a playback that breaks that bound
    (ControlSignal's spot check) raise ControllerError. With a constant B
    the product B F is formed once per plan. The internal model uses the
    same integrator configuration as the plant. Between grid points,
    xh(t) is one RK4 substep from the grid point before t; its first stage
    is the one the model run computed at that point, so playback evaluates
    the model field three times per substep, not four.

    The signal answers an array of times at once, as the plant asks for a
    block of steps: the times within 1e-12 of their grid point read its
    state, the others take their substeps together on (k, n) stacks
    (:func:`rk4_stack_step` on the stacked closed-loop field), and
    u = F xh is one :func:`rows_product`. Per row these are the operations
    of one query at a time, in the same order, so the inputs keep their
    bits. The field evaluates ``A`` at each stage of the stack in one call
    of its stacked form, ``A.stack``, when it has one (the registry
    systems), and row by row otherwise, as after ``A`` is replaced by a
    plain function.
    """

    def __init__(self, sys, cfg=IntegrationConfig(), zero_order_hold=False):
        self.sys = sys
        self.cfg = cfg
        self.zero_order_hold = zero_order_hold

    def plan(self, xi, eps):
        xi = state_vector(xi)
        m = self.sys.dim_input
        if at_origin(xi):
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
            sig = constant_signal(eps, F @ xi)
            sig.info.update({"xi": xi, "synthesis": synth})
            return sig

        model_field = self.sys.closed_loop_field(F)
        # first_stage[k] = model_field(states[k]): the first stage of every
        # playback substep from grid point k, recorded by the model run
        first_stage = []
        model = integrate(model_field, xi, None, (0.0, eps), self.cfg, first_stage)
        if model.escaped:
            stiffness = self.cfg.step * float(np.max(np.abs(np.linalg.eigvals(A + B @ F))))
            raise ControllerError(
                "internal model escaped at t=%g for sample %s; step*max|eig(A+BF)| = %g at the "
                "sample (RK4 is stable only up to about 2.8 on the negative real axis)"
                % (model.escape_time, xi, stiffness)
            )

        grid = model.times
        states = model.states
        slopes = np.array(first_stage)
        last = len(grid) - 2

        def inputs(ts):
            idx = np.searchsorted(grid, ts, side="right") - 1
            np.clip(idx, 0, last, out=idx)
            dt = ts - grid[idx]
            X = states[idx]
            # NaN fails the test and takes a substep, as a scalar comparison would
            far = ~(dt <= 1e-12)
            if far.any():
                i = idx[far]
                X[far] = rk4_stack_step(model_field, states[i], dt[far], slopes[i])
            return rows_product(F, X)

        bound = float(np.linalg.norm(F, 2) * np.max(np.linalg.norm(states, axis=1)))
        bound *= 1.0 + 1e-6
        try:
            sig = ControlSignal(eps, bound, m, inputs)
        except ValueError as exc:  # the spot check found the playback above its bound
            raise ControllerError("playback planned at sample %s: %s" % (xi, exc)) from exc
        sig.info.update({"xi": xi, "synthesis": synth, "model": model})
        return sig


class PatchworkController:
    """Dispatches to region-local plans: interior region's plan inside, the
    active (boundary-maximizing) piece's plan on shared boundaries."""

    def __init__(self, W, piece_plans, dim_input=1):
        if len(piece_plans) != len(W.family.pieces):
            raise ValueError("one plan per piece")
        self.W = W
        self.piece_plans = list(piece_plans)
        self.dim_input = dim_input

    def plan(self, xi, eps):
        xi = state_vector(xi)
        values, kind, _, table = self.W.glue(xi[None])
        if kind[0] == "origin":
            return zero_signal(eps, self.dim_input)
        if kind[0] == "uncovered":
            raise ControllerError("sample %s is outside the patchwork domain" % xi)
        idx = int(active_indices(xi[None], values, table)[0])
        sig = self.piece_plans[idx].plan(xi, eps)
        sig.info["piece"] = idx
        return sig


# -- closed-loop runs -----------------------------------------------------------


def _join_intervals(parts):
    """Concatenate per-interval sequences, dropping each later interval's first
    point: it repeats the previous interval's last point (the junction)."""
    return np.concatenate([part[1:] if k else part for k, part in enumerate(parts)])


@dataclass
class IntervalRecord:
    """One sampling interval: its two sampling instants and the plant trajectory.

    ``t_end`` is the sampling instant, not ``traj.times[-1]``, which is
    ``t_start + (t_end - t_start)`` and can differ from it in the last bit.
    """

    t_start: float
    t_end: float
    traj: object
    info: dict = field(default_factory=dict)

    @property
    def xi(self):
        """The sample the interval's signal was planned at."""
        return self.traj.states[0]

    @property
    def x_end(self):
        return self.traj.states[-1]

    @property
    def eps(self):
        return self.t_end - self.t_start


@dataclass
class ClosedLoopRun:
    """The intervals of a run; an escape ends the run on its last interval."""

    records: list

    @property
    def escaped(self):
        return bool(self.records) and self.records[-1].traj.escaped

    @property
    def escape_time(self):
        return self.records[-1].traj.escape_time if self.escaped else None

    def final_state(self):
        return self.records[-1].x_end

    def trajectory(self):
        """Concatenated (times, states, inputs) without duplicated junctions."""
        trajs = [rec.traj for rec in self.records]
        return (
            _join_intervals([t.times for t in trajs]),
            _join_intervals([t.states for t in trajs]),
            _join_intervals([t.inputs for t in trajs]),
        )


def sampling_times(h, horizon):
    """The sampling instants 0, h, 2h, ... up to the horizon, made one at a time.

    Yields 0.0, then ``k*h`` for k = 1, 2, ... while ``k*h < horizon - 1e-12``,
    then ``horizon``. Each instant is a product, not a running sum, so none
    carries the rounding of the ones before it. Raises ValueError at once
    unless ``h`` and ``horizon`` are positive and finite.
    """
    h, horizon = float(h), float(horizon)
    if not (0.0 < h < math.inf and 0.0 < horizon < math.inf):
        raise ValueError(
            "sampling step and horizon must be positive and finite, got h=%r, horizon=%r" % (h, horizon)
        )
    cut = horizon - 1e-12
    inner = takewhile(lambda t: t < cut, (k * h for k in count(1)))
    return chain((0.0,), inner, (horizon,))


def run_closed_loop(plant, ctrl, h, x0, horizon, cfg=IntegrationConfig()):
    """Sample the controller at the instants ``sampling_times(h, horizon)``, integrating the plant.

    The plant trajectory is continuous across sampling instants (each
    interval starts from the previous final state). Each record keeps the
    plant trajectory of its interval, so its sample and end state, and the
    run's escape flag and time, are read from the trajectories. An escape
    ends the run, and no later instant is made; a controller failure raises
    with the partial run attached.
    """
    x = state_vector(x0)
    run = ClosedLoopRun(records=[])
    for t0, t1 in pairwise(sampling_times(h, horizon)):
        try:
            sig = ctrl.plan(x, t1 - t0)
        except ControllerError as exc:
            exc.partial_run = run
            raise
        traj = integrate(plant, x, sig, (t0, t1), cfg)
        run.records.append(IntervalRecord(t_start=t0, t_end=t1, traj=traj, info=dict(sig.info)))
        if traj.escaped:
            break
        x = traj.final_state()
    return run


# -- certificates ----------------------------------------------------------------


class PerSampleQuadratic:
    """Per-interval value functions x -> 0.5 x'P x with P synthesized at the sample.

    Intervals planned at the origin (zero signal, no synthesis) fall back to
    0.5 |x|^2; their strict-decrease requirement is waived anyway. Each
    function takes one state, or a (k, n) stack of states and returns the k
    values, with the bits of one call per row: the stacked ``np.matmul``
    runs per row the gemv of x'P and then the dot, as :func:`product` does
    (one ``X @ P`` would run gemm, whose fused multiply-adds round
    differently).
    """

    def for_interval(self, record):
        synth = record.info.get("synthesis")
        P = synth.lyapunov if synth is not None else np.eye(len(record.xi))
        times = product(len(P))

        def V(x):
            x = np.asarray(x)
            if x.ndim == 1:
                return 0.5 * float(times(times(x, P), x))
            return 0.5 * np.matmul(np.matmul(x[:, None, :], P), x[:, :, None])[:, 0, 0]

        return V


@dataclass
class IntervalCertificate:
    """One interval's verdict, decided once when it is built: ``reasons`` (empty when it
    passes) names a NaN value of V or V above the cap a(V_start), then an escape, no
    strict decrease or an infinite V_start; ``ok``, ``bound_ok`` and the certificate's
    failures read them."""

    index: int
    t_start: float
    values: list  # V at each grid state of the interval, start to end
    cap: float  # the growth cap a(V_start)
    excursion_ratio: float
    waived: bool = False
    escape_time: float | None = None  # set when the plant escaped on the interval
    bound_ok: bool = field(init=False)
    reasons: list = field(init=False)

    def __post_init__(self):
        reasons = []
        nan_at = next((j for j, v in enumerate(self.values) if math.isnan(v)), None)
        if nan_at is not None:
            reasons.append("V is NaN at grid point %d" % nan_at)
        elif not self.v_max <= self.cap + 1e-12 * (1.0 + abs(self.cap)):
            reasons.append("growth bound exceeded (%g > %g)" % (self.v_max, self.cap))
        self.bound_ok = not reasons
        if self.escape_time is not None:
            reasons.append("trajectory escaped at t=%g" % self.escape_time)
        elif not (self.waived or self.margin > 0.0):  # a NaN margin (inf - inf included) fails
            reasons.append("no strict decrease (margin %g)" % self.margin)
        elif math.isinf(self.v_start):  # its cap and margin are infinite and bound nothing
            reasons.append("V is %g at the sample" % self.v_start)
        self.reasons = reasons

    @property
    def v_start(self):
        return self.values[0]

    @property
    def v_end(self):
        return self.values[-1]

    @property
    def v_max(self):
        """The interval maximum of V, NaN when a value is (``max`` skips a NaN that is not first)."""
        return math.nan if any(map(math.isnan, self.values)) else max(self.values)

    @property
    def margin(self):
        return self.v_start - self.v_end

    @property
    def marginal(self):
        return 0.0 < self.margin < MARGINAL_TOL

    @property
    def ok(self):
        return not self.reasons


@dataclass
class DecreaseCertificate:
    intervals: list

    @property
    def failures(self):
        """One line per failed interval, with its reasons."""
        return ["interval %d: %s" % (ic.index, "; ".join(ic.reasons)) for ic in self.intervals if ic.reasons]

    @property
    def passed(self):
        return all(ic.ok for ic in self.intervals)

    @property
    def uniform_margin(self):
        """The smallest margin over the intervals whose decrease is not waived, NaN when one
        is not finite: an infinite margin bounds nothing."""
        margins = [ic.margin for ic in self.intervals if not ic.waived]
        return min(margins, default=0.0) if all(map(math.isfinite, margins)) else math.nan

    def values(self):
        """V at every point of the run's ``trajectory()``."""
        return _join_intervals([ic.values for ic in self.intervals])

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
    patchwork glued function), evaluated once per grid state, or a
    per-interval provider such as :class:`PerSampleQuadratic`, whose
    function for an interval takes the (k, n) stack of its grid states in
    one call and returns the k values. Each
    :class:`IntervalCertificate` keeps the values and the cap a(V(start)),
    and decides its own verdict from them; an interval whose sample is at
    the origin (:func:`~sdstab.sysmodel.at_origin`) has its strict decrease
    waived. The excursion from the sample per unit time is reported as the
    interval's excursion constant.
    """
    if not run.records:
        raise ValueError("run has no completed intervals")
    per_interval = hasattr(V, "for_interval")
    intervals = []
    # a division by zero in V gives a NaN or infinite value, which its interval
    # reports as a reason; NumPy's warning would only repeat it
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, rec in enumerate(run.records):
            states = rec.traj.states
            values = V.for_interval(rec)(states).tolist() if per_interval else [float(V(s)) for s in states]
            cert = IntervalCertificate(
                index=k,
                t_start=rec.t_start,
                values=values,
                cap=a(values[0]),
                excursion_ratio=max_excursion(rec.traj, rec.xi) / rec.eps,
                waived=bool(at_origin(rec.xi)),
                escape_time=rec.traj.escape_time,
            )
            intervals.append(cert)
    return DecreaseCertificate(intervals=intervals)

