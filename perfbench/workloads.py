"""The four benchmark workloads and their correctness gates.

Each workload is built from a seed (construction is the set-up the
benchmark times), then run pass after pass by a single caller. ``run``
does only the program's work and returns its raw outputs with per-item
latencies; ``inspect`` turns them into operation counts outside the timed
region; ``check`` applies the correctness gates to all passes of a run.

Seed 0 reproduces the reference configurations (the README experiment,
the criterion-4 grid, ``check-patchwork`` at 10k samples); other seeds vary
the inputs while keeping the amount of work per pass fixed.
"""

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.linalg

from sdstab import cli, liecalc, patchwork, registry, synth
from sdstab.liecalc import (
    FV_NEGATIVE,
    GV_NONZERO,
    ODD_BRACKET_NONZERO,
    VDOT_NEGATIVE,
    VDOT_ZERO_YDIR_NONZERO,
    WY_NONZERO,
    ExprScalarField,
    ExprVectorField,
)
from sdstab.sysmodel import AffineSystem

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def golden(workload):
    """Outputs recorded from the program at seed 0 and full size."""
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)[workload]


@dataclass
class PassResult:
    attempted: int
    failed: int
    items_s: list
    outputs: object
    bytes_written: int = 0  # size of the output files the program wrote
    refused: int = 0  # operations the program declined with a documented error


# -- sim-statedep ----------------------------------------------------------------

SIM_CONFIG = """[experiment]
kind = simulate
seed = 0

[system]
registry = statedep-2d

[controller]
type = frozen-gain

[partition]
h = 0.05
count = 201

[run]
x0 = {x0}
horizon = {horizon}
final_norm = {final_norm}
certificate = per-sample-quadratic
"""

TRAJ_COLUMNS = ("t", "x1", "x2", "u1", "V")
CERT_COLUMNS = ("k", "T_k", "V_start", "V_end", "L_k", "Vmax", "bound_ok", "C_k")
CRITERION6_X0 = ((2.0, -1.0), (-1.5, 1.5), (0.5, 2.0))


def column_digest(path, columns):
    """SHA-256 of the text of the named CSV columns; other columns are ignored."""
    h = hashlib.sha256()
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        idx = [header.index(c) for c in columns]
        for line in fh:
            cells = line.rstrip("\n").split(",")
            h.update((",".join(cells[i] for i in idx) + "\n").encode())
    return h.hexdigest()


class SimStatedep:
    """``sdstab simulate`` in process on the README experiment (statedep-2d, frozen gain)."""

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.full = not smoke
        if seed == 0:
            x0s = CRITERION6_X0
        else:
            rng = np.random.default_rng(seed)
            radius = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, 3))
            angle = rng.uniform(0.0, 2.0 * np.pi, 3)
            x0s = tuple(zip(radius * np.cos(angle), radius * np.sin(angle)))
        if smoke:
            x0s = x0s[:1]
        self.x0s = x0s
        self.out = os.path.join(workdir, "sim")
        os.makedirs(self.out, exist_ok=True)
        config = os.path.join(self.out, "run.ini")
        x0_text = " ; ".join("%r, %r" % (float(a), float(b)) for a, b in x0s)
        with open(config, "w") as fh:
            # the smoke run's short horizon does not reach the 0.01 final norm
            fh.write(SIM_CONFIG.format(x0=x0_text, horizon=0.5 if smoke else 10, final_norm=10 if smoke else 0.01))
        self.argv = ["simulate", "--config", config, "--out", self.out]

    def run(self, clock=perf_counter):
        buf = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue(), [clock() - t0]

    def inspect(self, raw):
        code, text, items = raw
        outputs = {"code": code, "digests": {}}
        size = 0
        result = [line.split() for line in text.splitlines() if line.startswith("RESULT ")]
        if code in (cli.EXIT_OK, cli.EXIT_FAILED) and result:
            attempted, failed = int(result[-1][2]), int(result[-1][3])
        else:
            attempted, failed = 1, 1
        for i in range(len(self.x0s)):
            for stem, columns in (("traj", TRAJ_COLUMNS), ("cert", CERT_COLUMNS)):
                name = "%s_%d.csv" % (stem, i)
                path = os.path.join(self.out, name)
                if os.path.exists(path):
                    outputs["digests"][name] = column_digest(path, columns)
                    size += os.path.getsize(path)
                    os.remove(path)
        return PassResult(attempted, failed, items, outputs, size)

    def check(self, results):
        problems = []
        first = results[0].outputs
        if any(r.outputs["code"] == cli.EXIT_CONFIG for r in results):
            problems.append("sim-statedep: the simulate config was rejected (exit 2)")
        if any(r.outputs["digests"] != first["digests"] for r in results):
            problems.append("sim-statedep: CSV columns differ between passes of one seed")
        if self.seed == 0 and self.full and first["digests"] != golden("sim-statedep")["digests"]:
            problems.append("sim-statedep: CSV column digests differ from the recorded ones")
        return problems


# -- lie-grid ----------------------------------------------------------------------

GRID_POINTS = 41
# Grid extents used for seeds other than 0; the labels and the amount of
# clause work are the same as at extent 2 on each of them.
OTHER_EXTENTS = tuple(1.6 + 0.1 * k for k in range(15))


def grid_points(extent, count):
    """count x count grid on [-extent, extent]^2 without the origin, row-major."""
    axis = np.linspace(-extent, extent, count)
    axis[count // 2] = 0.0
    return [np.array([a, b]) for a in axis for b in axis if not (a == 0.0 and b == 0.0)]


def criterion4_labels(entry, p):
    """(pointwise, integrator-form) labels the double-integrator regions prescribe."""
    if entry.in_first_region_closure(p):
        if p[1] == 0.0:
            return ODD_BRACKET_NONZERO, VDOT_ZERO_YDIR_NONZERO
        return FV_NEGATIVE, VDOT_NEGATIVE
    return GV_NONZERO, WY_NONZERO


class LieGrid:
    """Pointwise Lie-bracket classification over a grid, registry and inline systems.

    ``liecalc`` is called directly: ``check-lie`` hard-codes n_max = 2.
    """

    def __init__(self, seed, smoke, workdir):
        self.full = not smoke
        extent = 2.0
        if seed != 0:
            extent = OTHER_EXTENTS[int(np.random.default_rng(seed).integers(len(OTHER_EXTENTS)))]
        self.points = grid_points(extent, 9 if smoke else GRID_POINTS)
        self.reference = None  # the first pass's labels; later passes must repeat them
        self.entry = registry.double_integrator()
        self.inline = AffineSystem(
            ExprVectorField.from_text("x2^3, -x1^3", 2), ExprVectorField.from_text("0, x1^3", 2)
        )
        self.V = ExprScalarField.from_text("0.25*x1^4 + 0.25*x2^4", 2)

    def run(self, clock=perf_counter):
        labels, items = [], []
        for p in self.points:
            t0 = clock()
            try:
                rp = self.entry.classify(p, n_max=4)
                rc = self.entry.classify_integrator_form(p)
                ri = liecalc.check_prop1_point(self.inline, self.V, p, n_max=4)
                labels.append((rp.classification, rc.classification, ri.classification))
            except Exception as exc:
                labels.append(type(exc).__name__)
            items.append(clock() - t0)
        return labels, items

    def inspect(self, raw):
        labels, items = raw
        failed = sum(1 for lab in labels if isinstance(lab, str))
        if self.reference is None:
            self.reference = labels
        return PassResult(len(labels), failed, items, labels == self.reference)

    def check(self, results):
        problems = []
        labels = self.reference
        if not all(r.outputs for r in results):
            problems.append("lie-grid: labels differ between passes of one seed")
        for p, lab in zip(self.points, labels):
            if isinstance(lab, str):
                continue
            if lab[:2] != criterion4_labels(self.entry, p):
                problems.append("lie-grid: registry labels %s at %s break the region rules" % (lab[:2], p))
                break
        if self.full:
            recorded = golden("lie-grid")["inline_labels"]
            inline = [lab if isinstance(lab, str) else lab[2] for lab in labels]
            if inline != recorded:
                bad = sum(a != b for a, b in zip(inline, recorded))
                problems.append("lie-grid: %d inline-system labels differ from the recorded ones" % bad)
        return problems


# -- patchwork-verify ----------------------------------------------------------------


class PatchworkVerify:
    """Statistical verification of the registry patchwork (offsets chosen in set-up)."""

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.full = not smoke
        self.samples = 500 if smoke else 10_000
        self.W, _ = registry.patchwork_halfplanes(seed=seed)

    def run(self, clock=perf_counter):
        t0 = clock()
        report = patchwork.verify_patchwork(self.W, 2.0, samples=self.samples, seed=self.seed)
        return report, [clock() - t0]

    def inspect(self, raw):
        report, items = raw
        failed = sum(0 if c.passed else 1 for c in report.checks)
        return PassResult(len(report.checks), failed, items, report.checks)

    def check(self, results):
        problems = []
        lines = [c.line() for c in results[0].outputs]
        if any([c.line() for c in r.outputs] != lines for r in results):
            problems.append("patchwork-verify: reports differ between passes of one seed")
        failed = [c.line() for c in results[0].outputs if not c.passed]
        if failed:
            problems.append("patchwork-verify: failed checks: %s" % failed)
        if self.full:
            checked = {c.name: c.checked for c in results[0].outputs}
            if checked != golden("patchwork-verify")["checked"]:
                problems.append("patchwork-verify: checked counts %s differ from the recorded ones" % checked)
        return problems


# -- synth-batch -----------------------------------------------------------------------

RICCATI_RTOL = 1e-8  # relative Frobenius distance to scipy's CARE solution
LYAPUNOV_BACKWARD_TOL = 1e-12  # |A'P + PA + I| / (2|A||P| + |I|)


def oracle_problem(A, B, res):
    """Check one synthesis result against independent oracles; None when it holds."""
    n, m = B.shape
    Acl = A + B @ res.gain
    if not float(np.max(np.linalg.eigvals(Acl).real)) < 0.0:
        return "A+BF is not Hurwitz"
    X = scipy.linalg.solve_continuous_are(A, B, np.eye(n), np.eye(m))
    rel = float(np.linalg.norm(res.riccati - X) / np.linalg.norm(X))
    if not rel <= RICCATI_RTOL:
        return "Riccati solution off scipy's by %.3e (relative)" % rel
    P, eye = res.lyapunov, np.eye(n)
    resid = float(np.linalg.norm(Acl.T @ P + P @ Acl + eye))
    scale = 2.0 * float(np.linalg.norm(Acl)) * float(np.linalg.norm(P)) + float(np.linalg.norm(eye))
    if not resid <= LYAPUNOV_BACKWARD_TOL * scale:
        return "Lyapunov backward error %.3e" % (resid / scale)
    return None


# the errors synthesize_gain documents for pairs it will not return a gain for
REFUSALS = ("NumericalFailure", "NotStabilizableError")


class SynthBatch:
    """Gain synthesis over seeded random pairs, n uniform in 1..12 and m in {1, 2}.

    ``synthesize_gain`` declines some pairs with its documented errors
    (mostly the unscaled residual bound's NumericalFailure). Those pairs stay
    in the batch and are timed; a refusal is a result of the operation,
    counted in ``refused`` (and so in ``ok_ratio``), not a failed operation.
    Any other exception is a failed operation.
    """

    def __init__(self, seed, smoke, workdir):
        # Every seed takes the sizes (n, m) of seed 0's sequence, so the work
        # per pass is the same; other seeds draw their own entries.
        sizes = np.random.default_rng(0)
        entries = np.random.default_rng(seed)
        self.pairs = []
        for _ in range(50 if smoke else 1000):
            n = int(sizes.integers(1, 13))
            m = int(sizes.integers(1, 3))
            pair = (sizes.standard_normal((n, n)), sizes.standard_normal((n, m)))
            if seed != 0:
                pair = (entries.standard_normal((n, n)), entries.standard_normal((n, m)))
            self.pairs.append(pair)
        self.reference = None  # the first pass's results; later passes must repeat them

    def run(self, clock=perf_counter):
        out, items = [], []
        for A, B in self.pairs:
            t0 = clock()
            try:
                res = synth.synthesize_gain(A, B)
            except Exception as exc:
                # without its traceback the exception holds no frames, so a
                # pass's garbage is freed at once and peak RSS stays put
                res = exc.with_traceback(None)
            items.append(clock() - t0)
            out.append(res)
        return out, items

    def inspect(self, raw):
        out, items = raw
        failures = {}
        for res in out:
            if isinstance(res, Exception):
                key = type(res).__name__
                failures[key] = failures.get(key, 0) + 1
        if self.reference is None:
            self.reference = out
        same = all(_same_result(a, b) for a, b in zip(self.reference, out))
        refused = sum(v for k, v in failures.items() if k in REFUSALS)
        return PassResult(len(out), sum(failures.values()) - refused, items,
                          {"failures": failures, "same": same}, refused=refused)

    def check(self, results):
        problems = []
        for (A, B), res in zip(self.pairs, self.reference):
            if isinstance(res, Exception):
                continue
            why = oracle_problem(A, B, res)
            if why:
                problems.append("synth-batch: n=%d m=%d: %s" % (B.shape[0], B.shape[1], why))
                break
        if not all(r.outputs["same"] for r in results):
            problems.append("synth-batch: results differ between passes of one seed")
        return problems


def _same_result(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return all(np.array_equal(x, y) for x, y in ((a.gain, b.gain), (a.lyapunov, b.lyapunov), (a.riccati, b.riccati)))


WORKLOADS = {
    "sim-statedep": SimStatedep,
    "lie-grid": LieGrid,
    "patchwork-verify": PatchworkVerify,
    "synth-batch": SynthBatch,
}

