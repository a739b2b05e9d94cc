"""Sampled-data loops: planning, dispatch, certificates, step adaptation."""

import numpy as np
import pytest
from scipy.linalg import expm

from sdstab import registry
from sdstab.errors import ControllerError, NoCertifiedStepError
from sdstab.liecalc import ExprScalarField
from sdstab.odeint import IntegrationConfig, integrate
from sdstab.patchwork import ClassK, LyapunovPiece, PatchworkFamily, PatchworkW, Region
from sdstab.sdfctl import (
    FrozenGainController,
    PatchworkController,
    PerSampleQuadratic,
    ZeroController,
    adapt_epsilon,
    certify_decrease,
    run_closed_loop,
)
from sdstab.sysmodel import GeneralSystem, StateLinearSystem, zero_signal

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
