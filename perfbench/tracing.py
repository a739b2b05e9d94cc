"""Per-layer tracing for the benchmark, installed from outside the program.

Each public function of a layer is replaced, at every name its callers use,
by a wrapper that records an aggregated span: call count, total time and
self time (total minus the time of wrapped calls made inside it). Calls are
far too frequent at the hot boundaries (RK4 substeps, control playback,
expression evaluation) to keep one span each, so every boundary is kept as
one aggregate. Counters that need no timing (system-matrix evaluations)
are plain counting wrappers. Nothing in the program's source is changed;
:meth:`Tracer.installed` restores every patched name on exit.

The layer of a span is its name up to the first dot (``odeint``,
``sdfctl`` ...). The benchmark's own loop runs inside a ``bench`` span, so
the self times of all layers add up to the traced wall time.
"""

import contextlib
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("bench", "cli", "sdfctl", "synth", "odeint", "sysmodel", "liecalc", "exprs", "patchwork", "sampling")

LARGE_DIM = 9  # synthesize_gain calls with n >= this count as "large"


class Tracer:
    """Aggregated spans and counters of one traced setup-and-pass."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stack = []
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.seconds = Counter()

    def wrap(self, name, fn, observe=None):
        """Return fn wrapped in the aggregated span ``name``.

        ``observe(args, outcome, dt)`` runs after each call with the return
        value, or the exception raised, to update counters.
        """
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            outcome = None
            t0 = clock()
            try:
                outcome = fn(*args, **kwargs)
            except Exception as exc:
                outcome = exc
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child[0]
                if observe is not None:
                    observe(args, outcome, dt)
            return outcome

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside the span ``name`` and return (result, seconds)."""
        t0 = self.clock()
        result = self.wrap(name, fn)(*args, **kwargs)
        return result, self.clock() - t0

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.spans.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def calls(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the layer boundaries of the loaded ``sdstab`` modules."""
        undo = []
        try:
            _install(self, undo)
            yield self
        finally:
            for step in reversed(undo):
                step()


def _sdstab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "sdstab" or name.startswith("sdstab.")]


def _setattr(undo, owner, attr, value):
    original = getattr(owner, attr)
    undo.append(lambda: setattr(owner, attr, original))
    setattr(owner, attr, value)


def _patch_function(undo, func, wrapper):
    """Rebind every module-level name that refers to func (callers import it by name)."""
    for module in _sdstab_modules():
        for attr, value in list(vars(module).items()):
            if value is func:
                _setattr(undo, module, attr, wrapper)


def _install(tr, undo):
    from sdstab import cli, liecalc, odeint, patchwork, registry, sampling, sdfctl, synth, sysmodel
    from sdstab.liecalc import FV_NEGATIVE, GV_NONZERO

    c, s = tr.counts, tr.seconds

    def fn(func, name, observe=None):
        _patch_function(undo, func, tr.wrap(name, func, observe))

    def method(cls, attr, name, observe=None):
        _setattr(undo, cls, attr, tr.wrap(name, cls.__dict__[attr], observe))

    # cli / sdfctl
    fn(cli.main, "cli.main")
    fn(sdfctl.run_closed_loop, "sdfctl.run_closed_loop")

    def on_certify(args, cert, dt):
        if not isinstance(cert, Exception):
            c["sdfctl.certify.intervals"] += len(cert.intervals)
            c["sdfctl.certify.failed"] += len(cert.failures)

    fn(sdfctl.certify_decrease, "sdfctl.certify_decrease", on_certify)
    method(sdfctl.FrozenGainController, "plan", "sdfctl.plan")

    # synth
    def on_synth(args, res, dt):
        if getattr(args[0], "shape", (1,))[0] >= LARGE_DIM:
            s["synth.synthesize_gain.large"] += dt
        if isinstance(res, Exception):
            c["synth.failed." + type(res).__name__] += 1

    fn(synth.synthesize_gain, "synth.synthesize_gain", on_synth)
    fn(synth.solve_lyapunov, "synth.solve_lyapunov")

    # odeint: the plant run passes a control signal, the internal model passes None
    def on_integrate(args, traj, dt):
        part = "model" if args[2] is None else "plant"
        s["odeint.integrate." + part] += dt
        if not isinstance(traj, Exception):
            c["odeint.%s_steps" % part] += len(traj.times) - 1

    fn(odeint.integrate, "odeint.integrate", on_integrate)
    fn(odeint.rk4_autonomous_step, "odeint.rk4_autonomous_step")

    # sysmodel: control playback, and a counting wrapper on the registry system's A
    method(sysmodel.ControlSignal, "value", "sysmodel.ControlSignal.value")
    method(sysmodel.ControlSignal, "check_bound", "sysmodel.ControlSignal.check_bound")
    builders = registry.SYSTEM_BUILDERS
    original_builders = dict(builders)
    undo.append(lambda: builders.update(original_builders))
    for key, build in original_builders.items():
        builders[key] = _counting_builder(build, c)

    # liecalc / exprs
    def on_prop1(args, rep, dt):
        if isinstance(rep, Exception):
            return
        c["liecalc.clause_evals"] += len(rep.witnesses)
        if rep.classification not in (GV_NONZERO, FV_NEGATIVE):
            c["liecalc.check_prop1_point.deep"] += 1
            s["liecalc.check_prop1_point.deep"] += dt

    fn(liecalc.check_prop1_point, "liecalc.check_prop1_point", on_prop1)
    fn(liecalc.check_corollary1_point, "liecalc.check_corollary1_point")
    method(liecalc.ExprScalarField, "eval", "exprs.ExprScalarField.eval")
    method(liecalc.ExprVectorField, "eval", "exprs.ExprVectorField.eval")

    # patchwork / sampling
    fn(patchwork.verify_patchwork, "patchwork.verify_patchwork")
    fn(patchwork.build_family, "patchwork.build_family")

    def on_boundaries(args, pts, dt):
        if not isinstance(pts, Exception):
            c["patchwork.boundary_points"] += len(pts)

    fn(patchwork.sample_shared_boundaries, "patchwork.sample_shared_boundaries", on_boundaries)
    method(patchwork.PatchworkFamily, "locate", "patchwork.locate")

    def on_constraints(args, vals, dt):
        c["patchwork.constraint_evals"] += len(args[0].constraints)

    method(patchwork.Region, "constraint_values", "patchwork.constraint_values", on_constraints)
    method(patchwork.PatchworkW, "eval", "patchwork.W")
    fn(sampling.ball_points, "sampling.ball_points")
    fn(sampling.box_points, "sampling.box_points")


def _counting_builder(build, counts):
    def counted():
        system = build()
        A = system.A

        def counted_A(x):
            counts["sysmodel.matrix_evals"] += 1
            return A(x)

        system.A = counted_A
        return system

    return counted


# -- per-layer metrics ---------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr):
    """Per-layer metric values (name -> value) of one traced setup-and-pass."""
    c, s = tr.counts, tr.seconds
    plant_steps = c["odeint.plant_steps"]
    prop1_calls = tr.calls("liecalc.check_prop1_point")
    synth_calls = tr.calls("synth.synthesize_gain")
    synth_failed = sum(v for k, v in c.items() if k.startswith("synth.failed."))
    m = {
        "odeint.integrate.plant_s": s["odeint.integrate.plant"],
        "odeint.integrate.model_s": s["odeint.integrate.model"],
        "odeint.plant_steps": plant_steps,
        "odeint.model_steps": c["odeint.model_steps"],
        "sysmodel.matrix_evals": c["sysmodel.matrix_evals"],
        "sysmodel.ControlSignal.value.calls": tr.calls("sysmodel.ControlSignal.value"),
        "sysmodel.ControlSignal.value.s": tr.total_s("sysmodel.ControlSignal.value"),
        "odeint.rk4_autonomous_step.calls": tr.calls("odeint.rk4_autonomous_step"),
        "sdfctl.playback_substeps_per_step": _ratio(tr.calls("odeint.rk4_autonomous_step"), plant_steps),
        "sysmodel.ControlSignal.check_bound.s": tr.total_s("sysmodel.ControlSignal.check_bound"),
        "sdfctl.plan.calls": tr.calls("sdfctl.plan"),
        "sdfctl.plan.self_s": tr.self_s("sdfctl.plan"),
        "sdfctl.run_closed_loop.s": tr.total_s("sdfctl.run_closed_loop"),
        "sdfctl.certify_decrease.s": tr.total_s("sdfctl.certify_decrease"),
        "sdfctl.certify.intervals": c["sdfctl.certify.intervals"],
        "sdfctl.certify.failed": c["sdfctl.certify.failed"],
        "synth.synthesize_gain.calls": synth_calls,
        "synth.synthesize_gain.s": tr.total_s("synth.synthesize_gain"),
        "synth.solve_lyapunov.s": tr.total_s("synth.solve_lyapunov"),
        "synth.synthesize_gain.large_s": s["synth.synthesize_gain.large"],
        "synth.failed.NumericalFailure": c["synth.failed.NumericalFailure"],
        "synth.failed.NotStabilizableError": c["synth.failed.NotStabilizableError"],
        "synth.success_ratio": _ratio(synth_calls - synth_failed, synth_calls),
        "liecalc.check_prop1_point.calls": prop1_calls,
        "liecalc.check_prop1_point.s": tr.total_s("liecalc.check_prop1_point"),
        "liecalc.check_prop1_point.deep_s": s["liecalc.check_prop1_point.deep"],
        "liecalc.check_corollary1_point.s": tr.total_s("liecalc.check_corollary1_point"),
        "liecalc.clause_evals": c["liecalc.clause_evals"],
        "liecalc.deep_share": _ratio(c["liecalc.check_prop1_point.deep"], prop1_calls),
        "exprs.field_evals": tr.calls("exprs.ExprScalarField.eval") + tr.calls("exprs.ExprVectorField.eval"),
        "patchwork.verify_patchwork.s": tr.total_s("patchwork.verify_patchwork"),
        "patchwork.locate.calls": tr.calls("patchwork.locate"),
        "patchwork.locate.s": tr.total_s("patchwork.locate"),
        "patchwork.constraint_evals": c["patchwork.constraint_evals"],
        "patchwork.W.calls": tr.calls("patchwork.W"),
        "patchwork.build_family.s": tr.total_s("patchwork.build_family"),
        "patchwork.sample_shared_boundaries.s": tr.total_s("patchwork.sample_shared_boundaries"),
        "patchwork.boundary_points": c["patchwork.boundary_points"],
        "sampling.ball_points.s": tr.total_s("sampling.ball_points"),
    }
    for layer, value in tr.layer_self_s().items():
        m[layer + ".self_s"] = value
    return m


# Hardware-independent counters: equal on every run of the same seed.
COUNTERS = (
    "odeint.plant_steps",
    "odeint.model_steps",
    "sysmodel.matrix_evals",
    "sysmodel.ControlSignal.value.calls",
    "odeint.rk4_autonomous_step.calls",
    "sdfctl.plan.calls",
    "sdfctl.certify.intervals",
    "sdfctl.certify.failed",
    "synth.synthesize_gain.calls",
    "synth.failed.NumericalFailure",
    "synth.failed.NotStabilizableError",
    "liecalc.check_prop1_point.calls",
    "liecalc.clause_evals",
    "exprs.field_evals",
    "patchwork.locate.calls",
    "patchwork.constraint_evals",
    "patchwork.W.calls",
    "patchwork.boundary_points",
)
