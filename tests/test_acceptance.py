"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import functools
import time

import numpy as np
import pytest
from scipy.linalg import expm

from sdstab import registry
from sdstab.cli import main as cli_main
from sdstab.errors import NotStabilizableError
from sdstab.liecalc import (
    FAIL,
    FV_NEGATIVE,
    GV_NONZERO,
    ODD_BRACKET_NONZERO,
    VDOT_NEGATIVE,
    VDOT_ZERO_YDIR_NONZERO,
    WY_NONZERO,
    BracketField,
    ExprVectorField,
)
from sdstab.odeint import max_excursion
from sdstab.patchwork import sample_shared_boundaries, verify_patchwork
from sdstab.sdfctl import (
    FrozenGainController,
    PerSampleQuadratic,
    ZeroController,
    certify_decrease,
    run_closed_loop,
)
from sdstab.synth import solve_lyapunov, spectral_abscissa, synthesize_gain
from sdstab.sysmodel import StateLinearSystem

from test_liecalc import rand_poly_field


def criterion(num, name, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE %2d %-28s FAIL" % (num, name))
                raise
            dt = time.monotonic() - t0
            assert dt < budget_s, "runtime %.1fs exceeds the %ds budget" % (dt, budget_s)
            print("ACCEPTANCE %2d %-28s PASS  (%.1fs < %ds)" % (num, name, dt, budget_s))

        return wrapper

    return deco


@criterion(1, "lyapunov-residual", 5)
def test_criterion_1_lyapunov_residual():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        G = rng.standard_normal((n, n))
        A = G - (spectral_abscissa(G) + 0.5 + rng.uniform(0, 1)) * np.eye(n)
        R = rng.standard_normal((n, n))
        Q = R @ R.T + 0.1 * np.eye(n)
        P = solve_lyapunov(A, Q)
        res = np.linalg.norm(A.T @ P + P @ A + Q, "fro")
        assert res <= 1e-10 * (1 + np.linalg.norm(Q, "fro"))


@criterion(2, "gain-synthesis", 5)
def test_criterion_2_gain_synthesis():
    rng = np.random.default_rng(202)
    done = 0
    while done < 100:
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        try:
            res = synthesize_gain(A, B)
        except NotStabilizableError:
            continue
        assert res.abscissa < -1e-8
        done += 1
    for _ in range(20):
        a = float(rng.uniform(-2, 2))
        b = float(rng.uniform(0.3, 2))
        res = synthesize_gain(a, b)
        expect = -b * (a + np.sqrt(a * a + b * b)) / (b * b)
        assert abs(res.gain[0, 0] - expect) <= 1e-10


@criterion(3, "lie-calculus", 10)
def test_criterion_3_lie_calculus():
    rng = np.random.default_rng(303)
    checked = 0
    while checked < 100:
        dim = int(rng.integers(2, 5))
        X, Y, Z = (rand_poly_field(rng, dim) for _ in range(3))
        anti_fwd, anti_bwd = BracketField(X, Y), BracketField(Y, X)
        j1 = BracketField(X, BracketField(Y, Z))
        j2 = BracketField(Y, BracketField(Z, X))
        j3 = BracketField(Z, BracketField(X, Y))
        for _ in range(10):
            x = rng.uniform(-0.9, 0.9, dim)
            assert np.max(np.abs(anti_fwd(x) + anti_bwd(x))) <= 1e-8
            assert np.max(np.abs(j1(x) + j2(x) + j3(x))) <= 1e-8
            checked += 1

    fixtures = [
        ("x2, 0", "0, 1", [1.3, -2.2], [-1.0, 0.0]),
        ("x1^2, 0", "0, x1", [0.7, -0.3], [0.0, 0.49]),
        ("x2, -x1", "x1, x2", [1.1, 0.4], [0.0, 0.0]),
        ("sin(x2), 0", "0, x1", [0.8, 0.25], [-0.8 * np.cos(0.25), np.sin(0.25)]),
        ("1, 2", "-3, 5", [0.3, -0.7], [0.0, 0.0]),
    ]
    for fx, gx, x, expect in fixtures:
        br = BracketField(ExprVectorField.from_text(fx, 2), ExprVectorField.from_text(gx, 2))
        np.testing.assert_allclose(br(np.array(x)), expect, atol=1e-9)


@criterion(4, "pointwise-classifier-grid", 10)
def test_criterion_4_grid_classification():
    entry = registry.double_integrator()
    axis = np.linspace(-2.0, 2.0, 41)
    n_checked = 0
    for a in axis:
        for b in axis:
            if a == 0.0 and b == 0.0:
                continue
            p = np.array([a, b])
            rp = entry.classify(p)
            rc = entry.classify_integrator_form(p)
            assert rp.classification != FAIL, p
            assert rc.classification != FAIL, p
            if entry.in_first_region_closure(p):
                if b == 0.0:
                    assert rp.classification == ODD_BRACKET_NONZERO, p
                    assert rc.classification == VDOT_ZERO_YDIR_NONZERO, p
                else:
                    assert rp.classification == FV_NEGATIVE, p
                    assert rc.classification == VDOT_NEGATIVE, p
            else:
                assert rp.classification == GV_NONZERO, p
                assert rc.classification == WY_NONZERO, p
            n_checked += 1
    assert n_checked == 41 * 41 - 1


@criterion(5, "lti-sampled-consistency", 5)
def test_criterion_5_lti_consistency():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    sys = StateLinearSystem(lambda x: A, lambda x: B, 2, 1)
    ctrl = FrozenGainController(sys)
    F = synthesize_gain(A, B).gain
    Acl = A + B @ F
    x0 = np.array([1.0, -0.5])
    for h in (0.01, 0.1, 0.5):
        run = run_closed_loop(sys, ctrl, h, x0, 4 * h)
        for rec in run.records:
            exact = expm(Acl * rec.t_end) @ x0
            assert np.max(np.abs(rec.x_end - exact)) <= 1e-6


X0S = ([2.0, -1.0], [-1.5, 1.5], [0.5, 2.0])
_RUN_CACHE = {}


def _statedep_setup():
    if "ctrl" not in _RUN_CACHE:
        sys = registry.statedep_2d()
        _RUN_CACHE["sys"] = sys
        _RUN_CACHE["ctrl"] = FrozenGainController(sys)
    return _RUN_CACHE["sys"], _RUN_CACHE["ctrl"]


@criterion(6, "state-dependent-end-to-end", 30)
def test_criterion_6_statedep_end_to_end():
    plant, ctrl = _statedep_setup()
    for x0 in X0S:
        run = run_closed_loop(plant, ctrl, 0.05, np.array(x0), 10.0)
        cert = certify_decrease(run, PerSampleQuadratic())
        assert float(np.linalg.norm(run.final_state())) <= 1e-2, x0
        assert cert.passed, cert.failures[:3]
        assert all(ic.margin > 0 for ic in cert.intervals)
        _RUN_CACHE[tuple(x0)] = run


@criterion(7, "patchwork-verification", 10)
def test_criterion_7_patchwork():
    W, sel = registry.patchwork_halfplanes()
    report = verify_patchwork(W, 2.0, samples=10_000, seed=0)
    assert report.passed, "\n".join(report.lines())

    pieces = W.family.pieces
    bps = sample_shared_boundaries(pieces, per_pair=1000, seed=5, anchors=1000)
    assert len(bps) == 1000
    for bp in bps:
        val, _ = W.eval(bp.x)
        oracle = max(
            float(p.V(bp.x)) + W.family.offsets[i] for i, p in enumerate(pieces) if p.region.in_closure(bp.x)
        )
        assert val == oracle


@criterion(8, "excursion-bound", 10)
def test_criterion_8_excursion_ratio_stable_under_halving():
    plant, ctrl = _statedep_setup()
    for x0 in X0S:
        ratios = []
        for eps in (0.05, 0.025, 0.0125):
            run = run_closed_loop(plant, ctrl, eps, np.array(x0), eps)
            rec = run.records[0]
            ratios.append(max_excursion(rec.traj, rec.xi) / rec.eps)
        assert max(ratios) <= 2.0 * min(ratios), (x0, ratios)


@criterion(9, "negative-controls", 5)
def test_criterion_9_negative_controls():
    # equal offsets: distinctness must fail with a boundary witness
    W, _ = registry.patchwork_halfplanes(offsets=[0.1, 0.1])
    report = verify_patchwork(W, 2.0, samples=500, seed=0)
    distinct = next(c for c in report.checks if c.name == "boundary-distinctness")
    assert not distinct.passed and distinct.witness is not None

    # zero controller on the feedback-integrator example: no decrease
    entry = registry.double_integrator()
    run = run_closed_loop(entry.system, ZeroController(), 0.1, [1.0, 0.5], 1.0)
    cert = certify_decrease(run, entry.V2)
    assert not cert.passed

    # uncontrollable unstable mode
    with pytest.raises(NotStabilizableError):
        synthesize_gain(1.0, 0.0)


@criterion(10, "determinism", 30)
def test_criterion_10_byte_identical_csv(tmp_path):
    cfg = tmp_path / "sim.ini"
    cfg.write_text(
        """
[experiment]
kind = simulate
seed = 0
[system]
registry = statedep-2d
[controller]
type = frozen-gain
[partition]
h = 0.05
[run]
x0 = 2, -1
horizon = 2
final_norm = 1
"""
    )
    for sub in ("a", "b"):
        code = cli_main(
            ["simulate", "--config", str(cfg), "--out", str(tmp_path / sub), "--quiet"]
        )
        assert code == 0
    for name in ("traj_0.csv", "cert_0.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
