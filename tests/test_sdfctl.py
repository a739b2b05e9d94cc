"""Sampled-data loops: planning, dispatch, certificates, step adaptation."""

from bisect import bisect_right

import numpy as np
import pytest
from scipy.linalg import expm

from sdstab import registry, sdfctl
from sdstab.errors import ControllerError, NoCertifiedStepError, NonFiniteMatrixError
from sdstab.liecalc import ExprScalarField
from sdstab.odeint import IntegrationConfig, integrate, rk4_autonomous_step
from sdstab.patchwork import ClassK, LyapunovPiece, PatchworkFamily, PatchworkW, Region
from sdstab.sdfctl import (
    ClosedLoopRun,
    FrozenGainController,
    IntervalRecord,
    PatchworkController,
    PerSampleQuadratic,
    ZeroController,
    adapt_epsilon,
    certify_decrease,
    run_closed_loop,
)
from sdstab.sysmodel import ControlSignal, GeneralSystem, StateLinearSystem, Trajectory, product, zero_signal

DOUBLING = lambda s: 2 * s  # noqa: E731


def scalar_unstable():
    return StateLinearSystem(lambda x: np.array([[1.0]]), lambda x: np.array([[1.0]]), 1, 1)


class TestFrozenGainPlanning:
    def test_scalar_internal_model_playback(self):
        sys = scalar_unstable()
        ctrl = FrozenGainController(sys)
        sig = ctrl.plan(np.array([1.0]), 0.1)
        # gain for a = b = 1 and the resulting model decay rate
        F = sig.info["synthesis"].gain[0, 0]
        assert F == pytest.approx(-(1 + np.sqrt(2)), abs=1e-10)
        assert sig.value(0.0)[0] == pytest.approx(F)
        traj = integrate(sys, [1.0], sig, (0.0, 0.1))
        assert traj.final_state()[0] == pytest.approx(np.exp(-0.1 * np.sqrt(2)), abs=1e-6)

    def test_zero_sample_zero_signal(self):
        ctrl = FrozenGainController(scalar_unstable())
        sig = ctrl.plan(np.zeros(1), 0.5)
        assert sig.bound == 0.0
        np.testing.assert_array_equal(sig.value(0.3), [0.0])

    @pytest.mark.parametrize("offset, waived", [(1e-13, True), (1e-12, True), (2e-12, False)])
    def test_sample_next_to_the_origin_is_the_origin(self, offset, waived):
        # every |x_i| <= ORIGIN_TOL: the zero signal, no synthesis, and the certificate waives the interval
        plant = registry.statedep_2d()
        run = run_closed_loop(plant, FrozenGainController(plant), 0.05, [offset, -offset], 0.05)
        rec = run.records[0]
        assert ("synthesis" not in rec.info) == waived
        assert (not rec.traj.inputs.any()) == waived
        cert = certify_decrease(run, PerSampleQuadratic())
        assert cert.intervals[0].waived == waived
        if waived:
            # the summary's uniform margin skips the waived interval
            assert cert.passed and cert.uniform_margin == 0.0 and cert.intervals[0].margin != 0.0

    def test_signal_respects_declared_bound(self):
        ctrl = FrozenGainController(scalar_unstable())
        sig = ctrl.plan(np.array([2.0]), 0.4)
        assert sig.check_bound(1000) <= sig.bound * (1 + 1e-9)

    def test_unstabilizable_sample_raises_controller_error(self):
        sys = StateLinearSystem(lambda x: np.array([[1.0]]), lambda x: np.array([[0.0]]), 1, 1)
        ctrl = FrozenGainController(sys)
        with pytest.raises(ControllerError):
            ctrl.plan(np.array([1.0]), 0.1)

    def test_hold_variant_differs_from_model_playback(self):
        sys = scalar_unstable()
        tracked = FrozenGainController(sys).plan(np.array([1.0]), 0.2)
        held = FrozenGainController(sys, zero_order_hold=True).plan(np.array([1.0]), 0.2)
        assert held.value(0.15)[0] == pytest.approx(held.value(0.0)[0])
        assert tracked.value(0.15)[0] != pytest.approx(held.value(0.15)[0])

    def test_causality_signal_is_self_contained(self):
        ctrl = FrozenGainController(scalar_unstable())
        sig = ctrl.plan(np.array([1.0]), 0.1)
        grid = np.linspace(0, 0.1, 21)
        before = [sig.value(t)[0] for t in grid]
        # integrate some other plant from a perturbed future state; the signal is unchanged
        integrate(scalar_unstable(), [17.0], sig, (0.0, 0.1))
        after = [sig.value(t)[0] for t in grid]
        assert before == after

    def test_replanning_is_deterministic(self):
        ctrl = FrozenGainController(scalar_unstable())
        s1 = ctrl.plan(np.array([1.0]), 0.1)
        s2 = ctrl.plan(np.array([1.0]), 0.1)
        grid = np.linspace(0, 0.1, 11)
        assert [s1.value(t)[0] for t in grid] == [s2.value(t)[0] for t in grid]

    def test_internal_model_escape_raises_controller_error(self):
        # strongly non-normal closed loop: the transient peak (~4.6 from (0,1))
        # exceeds a tightened blow-up threshold during the model simulation
        A = np.array([[0.0, 100.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        sys = StateLinearSystem(lambda x: A, lambda x: B, 2, 1)
        ctrl = FrozenGainController(sys, IntegrationConfig(step=1e-3, blowup_norm=3.0))
        with pytest.raises(ControllerError):
            ctrl.plan(np.array([0.0, 1.0]), 2.0)


class TestClosedLoopRuns:
    def test_lti_matches_matrix_exponential(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        sys = StateLinearSystem(lambda x: A, lambda x: B, 2, 1)
        ctrl = FrozenGainController(sys)
        F = ctrl.plan(np.array([1.0, 0.0]), 0.01).info["synthesis"].gain
        Acl = A + B @ F
        x0 = np.array([1.0, -0.5])
        for h in (0.01, 0.1, 0.5):
            run = run_closed_loop(sys, ctrl, h, x0, 4 * h)
            for rec in run.records:
                exact = expm(Acl * rec.t_end) @ x0
                assert np.max(np.abs(rec.x_end - exact)) < 1e-6

    def test_zero_controller_ignores_partition(self):
        plant = GeneralSystem(1, 1, lambda x, u: -x)
        ctrl = ZeroController()
        ra = run_closed_loop(plant, ctrl, 0.1, [1.0], 1.0)
        rb = run_closed_loop(plant, ctrl, 0.5, [1.0], 1.0)
        assert ra.final_state()[0] == pytest.approx(np.exp(-1), abs=1e-9)
        assert rb.final_state()[0] == pytest.approx(np.exp(-1), abs=1e-9)

    def test_escape_recorded_not_raised(self):
        plant = GeneralSystem(1, 1, lambda x, u: x * x)
        run = run_closed_loop(plant, ZeroController(), 0.5, [1.0], 2.0)
        assert run.escaped
        assert run.escape_time == pytest.approx(1.0, abs=0.1)

    def test_long_interval_escape_returns_within_a_block(self):
        # one interval of length 1e6 (a billion integration steps) that escapes near
        # t = ln(1e6) = 13.8: the inputs are asked for one block of steps at a time
        asked = []

        class Zero(ZeroController):
            def plan(self, xi, eps):
                return ControlSignal(eps, 0.0, 1, lambda ts: asked.append(ts.max()) or np.zeros((len(ts), 1)))

        run = run_closed_loop(registry.scalar_unstable(), Zero(), 1e6, [1.0], 1e6)
        assert run.escaped and len(run.records) == 1
        assert 13.8 < run.escape_time < 13.9
        # asked[0] is the spot-check of the bound, at construction
        assert max(asked[1:]) < run.escape_time + 256e-3

    def test_escape_ends_a_run_long_before_its_horizon(self):
        # the instants are made one at a time, so none is made after the escape
        plant = GeneralSystem(1, 1, lambda x, u: x * x)
        run = run_closed_loop(plant, ZeroController(), 0.5, [1.0], 1e9)
        assert run.escaped
        assert [rec.t_end for rec in run.records] == [0.5, 1.0, 1.5]

    def test_trajectory_concatenation_no_duplicates(self):
        plant = GeneralSystem(1, 1, lambda x, u: -x)
        run = run_closed_loop(plant, ZeroController(), 0.25, [1.0], 1.0)
        times, states, inputs = run.trajectory()
        assert np.all(np.diff(times) > 0)
        assert times[0] == 0.0 and times[-1] == 1.0
        assert len(times) == len(states) == len(inputs)

    def test_continuity_across_samples(self):
        sys = scalar_unstable()
        run = run_closed_loop(sys, FrozenGainController(sys), 0.2, [1.0], 1.0)
        for a, b in zip(run.records, run.records[1:]):
            np.testing.assert_array_equal(a.x_end, b.xi)


class TestCertificates:
    def test_frozen_gain_run_passes(self):
        sys = scalar_unstable()
        run = run_closed_loop(sys, FrozenGainController(sys), 0.1, [1.0], 5.0)
        cert = certify_decrease(run, PerSampleQuadratic())
        assert cert.passed
        assert all(ic.margin > 0 for ic in cert.intervals)
        assert abs(run.final_state()[0]) <= np.exp(-5 * np.sqrt(2)) + 1e-6

    def test_no_decrease_fails(self):
        plant = GeneralSystem(2, 1, lambda x, u: np.zeros(2))
        run = run_closed_loop(plant, ZeroController(), 0.2, [3.0, 4.0], 1.0)
        V = ExprScalarField.from_text("x1^2 + x2^2", 2)
        cert = certify_decrease(run, V)
        assert not cert.passed
        assert all(ic.margin == 0.0 for ic in cert.intervals)

    def test_monotone_decay_respects_growth_bound(self):
        plant = GeneralSystem(1, 1, lambda x, u: -x)
        run = run_closed_loop(plant, ZeroController(), 0.2, [1.0], 1.0)
        V = ExprScalarField.from_text("x1^2", 1)
        cert = certify_decrease(run, V, a=DOUBLING)
        assert cert.passed
        for ic in cert.intervals:
            assert ic.v_max <= ic.v_start * (1 + 1e-12)

    def test_telescoping_soundness(self):
        plant = GeneralSystem(1, 1, lambda x, u: -x)
        run = run_closed_loop(plant, ZeroController(), 0.1, [1.0], 1.0)
        V = ExprScalarField.from_text("x1^2", 1)
        cert = certify_decrease(run, V)
        total = sum(ic.margin for ic in cert.intervals)
        v0 = V(run.records[0].xi)
        vK = V(run.final_state())
        assert abs((v0 - total) - vK) <= 1e-8 * len(cert.intervals)

    def test_marginal_decrease_flagged(self):
        plant = GeneralSystem(1, 1, lambda x, u: -x)
        run = run_closed_loop(plant, ZeroController(), 0.1, [1e-6], 0.1)
        V = ExprScalarField.from_text("x1^2", 1)
        cert = certify_decrease(run, V)
        assert cert.passed
        assert cert.intervals[0].marginal

    def test_waived_at_equilibrium(self):
        plant = GeneralSystem(1, 1, lambda x, u: -x)
        run = run_closed_loop(plant, ZeroController(), 0.1, [0.0], 0.1)
        cert = certify_decrease(run, ExprScalarField.from_text("x1^2", 1))
        assert cert.passed
        assert cert.intervals[0].waived

    def test_keeps_V_at_every_grid_state(self):
        sys = registry.statedep_2d()
        run = run_closed_loop(sys, FrozenGainController(sys), 0.05, [2.0, -1.0], 0.2)
        V = PerSampleQuadratic()
        cert = certify_decrease(run, V)
        assert len(cert.intervals) == 4
        for rec, ic in zip(run.records, cert.intervals):
            Vk = V.for_interval(rec)
            assert ic.values == [float(Vk(s)) for s in rec.traj.states]
            assert (ic.v_start, ic.v_end) == (float(Vk(rec.xi)), float(Vk(rec.x_end)))
            assert ic.v_max == max(ic.values)

    def test_escape_fails_certificate(self):
        plant = GeneralSystem(1, 1, lambda x, u: x * x)
        run = run_closed_loop(plant, ZeroController(), 0.5, [1.0], 2.0)
        V = ExprScalarField.from_text("x1^2", 1)
        cert = certify_decrease(run, V)
        assert not cert.passed
        assert run.escaped
        # the escape is named once, on its interval, in place of the margin
        assert cert.failures[-1] == "interval 2: trajectory escaped at t=%g" % run.escape_time
        assert sum("escaped" in line for line in cert.failures) == 1

    def test_escaped_interval_with_a_decrease_fails(self):
        # x2 escapes, but V barely sees it: V falls and stays under its
        # growth bound on the interval, which still must not certify
        plant = GeneralSystem(2, 1, lambda x, u: np.array([-x[0], 50.0 * x[1]]))
        run = run_closed_loop(plant, ZeroController(), 0.5, [1.0, 1.0], 1.0)
        cert = certify_decrease(run, ExprScalarField.from_text("x1^2 + 1e-30*x2^2", 2))
        ic = cert.intervals[0]
        assert run.escaped and len(cert.intervals) == 1
        assert ic.margin > 0 and ic.bound_ok
        assert ic.escape_time == run.escape_time
        assert not ic.ok
        assert cert.failures == ["interval 0: trajectory escaped at t=%g" % run.escape_time]



def one_interval_run(x1s):
    """A hand-built one-interval run of the scalar states x1s on [0, 1]."""
    times = np.linspace(0.0, 1.0, len(x1s))
    traj = Trajectory(times=times, states=np.array(x1s, dtype=float)[:, None])
    return ClosedLoopRun(records=[IntervalRecord(t_start=0.0, t_end=1.0, traj=traj)])


def nan_at(x_nan):
    """V = x1^2, NaN at the state x_nan."""
    return lambda x: np.nan if x[0] == x_nan else x[0] ** 2


class TestOneVerdict:
    STATES = [1.0, 0.8, 0.6, 0.4]

    def assert_consistent(self, cert):
        assert cert.passed == all(ic.ok for ic in cert.intervals)
        assert len(cert.failures) == sum(not ic.ok for ic in cert.intervals)

    def test_nan_at_an_interior_state_fails(self):
        # max() over [1.0, 0.64, nan, 0.16] is 1.0: the NaN must not pass unseen
        cert = certify_decrease(one_interval_run(self.STATES), nan_at(0.6))
        ic = cert.intervals[0]
        assert not ic.ok and not cert.passed
        assert ic.margin > 0
        assert np.isnan(ic.v_max) and not ic.bound_ok
        assert cert.failures == ["interval 0: V is NaN at grid point 2"]
        self.assert_consistent(cert)

    def test_nan_at_the_end_gives_a_reason(self):
        cert = certify_decrease(one_interval_run(self.STATES), nan_at(0.4))
        ic = cert.intervals[0]
        assert not ic.ok and ic.reasons
        assert np.isnan(ic.v_max) and not ic.bound_ok
        assert np.isnan(ic.margin) and np.isnan(cert.uniform_margin)
        assert cert.failures == ["interval 0: V is NaN at grid point 3; no strict decrease (margin nan)"]
        self.assert_consistent(cert)

    def test_ordinary_runs_agree(self):
        rising = certify_decrease(one_interval_run([1.0, 1.2, 1.1]), lambda x: x[0] ** 2)
        assert rising.failures == ["interval 0: no strict decrease (margin -0.21)"]
        assert rising.intervals[0].bound_ok and not rising.intervals[0].ok
        falling = certify_decrease(one_interval_run(self.STATES), lambda x: x[0] ** 2)
        assert falling.passed and falling.failures == []
        assert falling.uniform_margin == falling.intervals[0].margin
        for cert in (rising, falling):
            self.assert_consistent(cert)

    def test_an_infinite_value_at_both_ends_fails(self):
        # the margin inf - inf is NaN, which is no decrease
        cert = certify_decrease(one_interval_run([2.0, 1.5, 1.0]), lambda x: np.inf)
        assert cert.failures == ["interval 0: no strict decrease (margin nan)"]
        self.assert_consistent(cert)

    def test_an_infinite_value_at_the_sample_fails(self):
        # the cap a(inf) and the margin inf - 0.16 are inf: every later value would pass
        cert = certify_decrease(one_interval_run(self.STATES), lambda x: np.inf if x[0] == 1.0 else x[0] ** 2)
        ic = cert.intervals[0]
        assert ic.margin == np.inf and ic.bound_ok and not ic.ok
        assert cert.failures == ["interval 0: V is inf at the sample"]
        self.assert_consistent(cert)

    def test_growth_bound_reason(self):
        cert = certify_decrease(one_interval_run([1.0, 1.5, 0.5]), lambda x: x[0] ** 2)
        ic = cert.intervals[0]
        assert (ic.cap, ic.v_max, ic.bound_ok) == (2.0, 2.25, False)
        assert cert.failures == ["interval 0: growth bound exceeded (2.25 > 2)"]
        self.assert_consistent(cert)


def one_d_patchwork():
    lo = ClassK.power(0.1, 2)
    hi = ClassK.power(10.0, 2)
    box1 = ([0.0], [1.0])
    box2 = ([1.0], [3.0])
    r1 = Region.from_text("x1 > 0 && x1 < 1", 1, box1)
    r2 = Region.from_text("x1 > 1 && x1 < 3", 1, box2)
    V = ExprScalarField.from_text("x1^2", 1)
    pieces = [LyapunovPiece(V, r1, lo, hi), LyapunovPiece(V, r2, lo, hi, samples=64)]
    return PatchworkW(PatchworkFamily(pieces, [0.1, 0.2]))


class TaggedPlan:
    def __init__(self, tag):
        self.tag = tag

    def plan(self, xi, eps):
        sig = zero_signal(eps, 1)
        sig.info["tag"] = self.tag
        return sig


class TestPatchworkDispatch:
    def test_interior_dispatch(self):
        ctrl = PatchworkController(one_d_patchwork(), [TaggedPlan(0), TaggedPlan(1)])
        assert ctrl.plan(np.array([0.5]), 0.1).info["tag"] == 0
        assert ctrl.plan(np.array([2.0]), 0.1).info["tag"] == 1

    def test_boundary_dispatch_uses_active_piece(self):
        ctrl = PatchworkController(one_d_patchwork(), [TaggedPlan(0), TaggedPlan(1)])
        sig = ctrl.plan(np.array([1.0]), 0.1)
        assert sig.info["tag"] == 1  # larger offset piece owns the boundary
        assert sig.info["piece"] == 1

    def test_origin_gives_zero_signal(self):
        ctrl = PatchworkController(one_d_patchwork(), [TaggedPlan(0), TaggedPlan(1)])
        sig = ctrl.plan(np.zeros(1), 0.1)
        assert sig.bound == 0.0

    def test_uncovered_sample_raises(self):
        ctrl = PatchworkController(one_d_patchwork(), [TaggedPlan(0), TaggedPlan(1)])
        with pytest.raises(ControllerError):
            ctrl.plan(np.array([10.0]), 0.1)

    def test_dispatch_never_leaves_region_closure(self):
        W = one_d_patchwork()
        ctrl = PatchworkController(W, [TaggedPlan(0), TaggedPlan(1)])
        rng = np.random.default_rng(3)
        for _ in range(100):
            xi = np.array([rng.uniform(0.01, 2.99)])
            sig = ctrl.plan(xi, 0.1)
            piece = W.family.pieces[sig.info["tag"]]
            assert piece.region.in_closure(xi)


class TestAdaptEpsilon:
    def test_lti_accepts_initial_step(self):
        sys = scalar_unstable()
        eps, cert = adapt_epsilon(sys, FrozenGainController(sys), np.array([1.0]),
                                  PerSampleQuadratic(), DOUBLING, 0.1)
        assert eps == 0.1
        assert cert.passed

    def test_model_mismatch_forces_refinement(self):
        # the controller's model is LTI frozen at the sample; the plant keeps
        # its state dependence, so long intervals lose the decrease
        plant_sl = StateLinearSystem(
            lambda x: np.array([[1.0 + 5.0 * x[0] ** 2]]), lambda x: np.array([[1.0]]), 1, 1
        )
        frozen_A = plant_sl.matrices_at(np.array([1.0]))[0]
        model = StateLinearSystem(lambda x, A=frozen_A: A, lambda x: np.array([[1.0]]), 1, 1)
        eps, cert = adapt_epsilon(plant_sl, FrozenGainController(model),
                                  np.array([1.0]), PerSampleQuadratic(), DOUBLING, 1.0)
        assert eps == 0.25  # regression value from the recorded bisection
        assert cert.passed

    def test_equilibrium_accepts_trivially(self):
        sys = scalar_unstable()
        eps, cert = adapt_epsilon(sys, FrozenGainController(sys), np.zeros(1),
                                  PerSampleQuadratic(), DOUBLING, 0.5)
        assert eps == 0.5
        assert cert.passed

    def test_exhaustion_raises_with_trace(self):
        # hopeless mismatch: the gain is far too weak for the plant's growth
        plant = StateLinearSystem(
            lambda x: np.array([[1.0 + 5.0 * x[0] ** 2]]), lambda x: np.array([[1.0]]), 1, 1
        )
        weak_model = scalar_unstable()
        with pytest.raises(NoCertifiedStepError) as err:
            adapt_epsilon(plant, FrozenGainController(weak_model), np.array([1.0]),
                          PerSampleQuadratic(), DOUBLING, 1.0, max_halvings=6)
        assert len(err.value.trace) == 7


class TestConstantInputMatrix:
    """A constant B (evaluated once, B F formed once per plan) against the same B as a function."""

    def run(self, system):
        cfg = IntegrationConfig()
        ctrl = FrozenGainController(system, cfg)
        run = run_closed_loop(system, ctrl, 0.05, [2.0, -1.0], 1.0, cfg)
        return run, certify_decrease(run, PerSampleQuadratic())

    def test_statedep_run_bitwise_equal(self):
        const = registry.statedep_2d()
        assert const.constant_B
        B = np.array(const.B)
        func = StateLinearSystem(const.A, lambda x: B, 2, 1)
        run_c, cert_c = self.run(const)
        run_f, cert_f = self.run(func)
        assert len(run_c.records) == len(run_f.records) == 20
        _, states_c, inputs_c = run_c.trajectory()
        _, states_f, inputs_f = run_f.trajectory()
        assert np.array_equal(states_c, states_f)
        assert np.array_equal(inputs_c, inputs_f)
        assert cert_c.passed and cert_f.passed
        for ic, jf in zip(cert_c.intervals, cert_f.intervals):
            assert (ic.v_start, ic.v_end, ic.margin, ic.v_max, ic.excursion_ratio) == (
                jf.v_start,
                jf.v_end,
                jf.margin,
                jf.v_max,
                jf.excursion_ratio,
            )

    def test_plan_does_not_evaluate_A_at_the_origin(self):
        # the model run starts at the sample; A(0) was checked when the system was built
        system = registry.statedep_2d()
        A = system.A
        at_origin = []

        def counted(x):
            if not np.any(x):
                at_origin.append(1)
            return A(x)

        system.A = counted
        sig = FrozenGainController(system).plan([0.5, 0.5], 0.05)
        assert len(sig.info["model"].times) > 1
        assert at_origin == []

    def test_replaced_A_is_evaluated(self):
        # a counting wrapper installed after construction must see every A(x)
        system = registry.statedep_2d()
        calls = []
        A = system.A

        def counted(x):
            calls.append(1)
            return A(x)

        system.A = counted
        system.matrices_at([0.5, 0.5])
        assert len(calls) == 1
        system.rhs(np.array([0.5, 0.5]), np.zeros(1))
        assert len(calls) == 2
        sig = FrozenGainController(system).plan([0.5, 0.5], 0.05)
        model_steps = len(sig.info["model"].times) - 1
        assert len(calls) >= 2 + 1 + 4 * model_steps

        # equal to A at the sample (same synthesis, same gain), different along the model run
        system.A = lambda x: A(x) + np.array([[0.0, 0.0], [0.0, x[0] - 0.5]])
        sig2 = FrozenGainController(system).plan([0.5, 0.5], 0.05)
        assert np.array_equal(sig2.info["synthesis"].gain, sig.info["synthesis"].gain)
        assert not np.array_equal(sig2.info["model"].states, sig.info["model"].states)


# -- the batch playback against one RK4 substep per query -------------------------


def playback_reference(system, sig):
    """u(t) = F x(t) one query at a time, as the playback made it before it took stacks."""
    F = sig.info["synthesis"].gain
    model = sig.info["model"]
    field = system.closed_loop_field(F)
    grid = model.times.tolist()
    last = len(grid) - 2
    times = product(system.dim_state)

    def u(t):
        t = min(max(t, 0.0), sig.horizon)
        idx = min(max(bisect_right(grid, t) - 1, 0), last)
        dt = t - grid[idx]
        x = model.states[idx]
        if dt > 1e-12:
            # the first stage the model run recorded at grid point idx
            x = rk4_autonomous_step(field, x, dt, field(x))
        return times(F, x)

    return u


def plant_query_times(eps, h):
    """The midpoint and end of every plant step over an interval of length eps."""
    tau, out = 0.0, []
    while tau < eps - 1e-12:
        hk = min(h, eps - tau)
        out += [tau + hk / 2, tau + hk]
        tau = eps if tau + hk >= eps - 1e-12 else tau + hk
    return out


def two_input_system():
    A = registry.statedep_2d().A
    return StateLinearSystem(A, lambda x: np.array([[1.0, 0.0], [np.cos(x[0]), 1.0 + x[1] ** 2]]), 2, 2)


@pytest.mark.parametrize(
    "build, samples",
    [
        (registry.statedep_2d, [(2.0, -1.0), (-1.5, 1.5), (0.5, 2.0), (1e-3, -2e-3)]),
        (scalar_unstable, [(1.0,), (-3.0,), (1e-7,)]),
        (two_input_system, [(2.0, -1.0), (0.3, 0.7)]),
    ],
    ids=["statedep-2d", "scalar-callable-B", "two-inputs"],
)
@pytest.mark.parametrize("eps", [0.05, 0.0123])
def test_batch_playback_keeps_the_bits_of_one_substep_per_query(build, samples, eps):
    system = build()
    cfg = IntegrationConfig()
    for xi in samples:
        sig = FrozenGainController(system, cfg).plan(np.array(xi), eps)
        u = playback_reference(system, sig)
        spot = np.linspace(0.0, eps, 33).tolist()
        plant = plant_query_times(eps, cfg.step)
        # grid times, and times a hair off the grid on either side of the 1e-12 test
        grid = sig.info["model"].times.tolist()
        near = [t + d for t in grid[1:4] for d in (5e-13, 2e-12, -2e-12)] + [-1.0, eps + 1.0]
        for ts in (spot, plant, grid, near):
            got = sig.values(ts)
            want = np.array([u(t) for t in ts])
            assert got.shape == (len(ts), system.dim_input)
            assert got.tobytes() == want.tobytes(), (xi, eps)
        assert sig.value(plant[0]).tobytes() == u(plant[0]).tobytes()


def test_playback_stage_with_a_non_finite_A_raises():
    system = registry.statedep_2d()
    sig = FrozenGainController(system).plan(np.array([1.0, -1.0]), 0.05)
    system.A = lambda x: np.full((2, 2), np.inf)
    # a grid time reads the model state; a midpoint takes a substep through A
    assert np.isfinite(sig.value(0.002)).all()
    with pytest.raises(ValueError, match="system matrices must be finite at finite states"):
        sig.value(0.0015)
    with pytest.raises(ValueError, match="system matrices must be finite at finite states"):
        sig.values([0.0, 0.0015, 0.002])


def test_playback_over_its_declared_bound_is_a_controller_error():
    # one RK4 step per interval: the model's grid states set the bound, and the
    # substeps between them leave it by a factor of about 70
    plant = registry.statedep_2d()
    ctrl = FrozenGainController(plant, IntegrationConfig(step=0.5))
    with pytest.raises(ControllerError, match="declared bound: 1.92481e\\+07 > 284686") as err:
        ctrl.plan(np.array([0.0, 3.0]), 0.5)
    assert isinstance(err.value.__cause__, ValueError)
    # the run keeps what it completed: here the failure is at the first sample
    with pytest.raises(ControllerError) as err:
        run_closed_loop(plant, ctrl, 0.5, [0.0, 3.0], 5.0, IntegrationConfig(step=0.5))
    assert err.value.partial_run.records == []
    # from (2, -1) every playback stays within its bound
    run = run_closed_loop(plant, ctrl, 0.5, [2.0, -1.0], 5.0, IntegrationConfig(step=0.5))
    assert len(run.records) == 10


def test_non_finite_A_in_the_plans_spot_check_stays_a_numerical_failure(monkeypatch):
    # A is replaced after the model run, so the spot check's substeps meet it:
    # that is a NonFiniteMatrixError (exit 3), not a playback over its bound
    system = registry.statedep_2d()

    class Spoiled(ControlSignal):
        def __init__(self, *args):
            system.A = lambda x: np.full((2, 2), np.inf)
            super().__init__(*args)

    monkeypatch.setattr(sdfctl, "ControlSignal", Spoiled)
    with pytest.raises(NonFiniteMatrixError, match="state matrix A"):
        FrozenGainController(system).plan(np.array([1.0, -1.0]), 0.05)
