"""Command-line front end: synthesize / simulate / check-lie / check-patchwork.

One INI config describes one deterministic experiment; all sampling is
seeded, integration is fixed-step, and CSV output is byte-identical across
repeated runs with the same config and seed.

Each command returns its check and failure counts; :func:`main` prints
the ``RESULT`` line. Exit codes: 0 all checks passed; 1 certificate or
verification failure; 2 configuration error, including a config that
leaves nothing to check; 3 numerical failure, including arithmetic
overflow and a system matrix that is not finite at a state the run
reaches.
"""

import argparse
import configparser
import math
import os
import sys
from itertools import accumulate

import numpy as np

from . import registry
from .errors import (
    ConfigError,
    ControllerError,
    NotStabilizableError,
    NumericalFailure,
    OffsetSelectionError,
)
from .exprs import Const, Div, ExprSyntaxError, Pow, coord_names, fold_constants, parse_components
from .liecalc import FAIL, ExprScalarField, ExprVectorField, check_prop1_point
from .odeint import IntegrationConfig
from .patchwork import verify_patchwork
from .sampling import ball_points
from .sdfctl import (
    FrozenGainController,
    PatchworkController,
    PerSampleQuadratic,
    ZeroController,
    certify_decrease,
    run_closed_loop,
)
from .sysmodel import AffineSystem, StateLinearSystem, at_origin, matrix_from_entries, origin_value
from .synth import synthesize_gain

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(v):
    return repr(float(v))


class Config:
    """Typed access to one INI experiment description."""

    def __init__(self, parser):
        self.cp = parser

    @classmethod
    def load(cls, path):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError("cannot parse config %s: %s" % (path, exc)) from exc
        if not read:
            raise ConfigError("config file %s not found" % path)
        return cls(parser)

    def get(self, section, key, default=None, required=False):
        if self.cp.has_option(section, key):
            return self.cp.get(section, key).strip()
        if required:
            raise ConfigError("missing [%s] %s" % (section, key))
        return default

    def number(self, section, key, default=None, kind=float, positive=False):
        """The key as ``kind`` (float or int), required without a default; positive and finite if asked."""
        raw = self.get(section, key, required=default is None)
        value = default
        if raw is not None:
            try:
                value = kind(raw)
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise ConfigError("[%s] %s must be %s, got %r" % (section, key, what, raw)) from None
        if positive and not 0 < value < math.inf:
            raise ConfigError("[%s] %s must be positive and finite, got %r" % (section, key, value))
        return value

    def vectors(self, section, key, dim, required=False):
        """The key's vectors, split on ';', each of ``dim`` finite entries (any number if dim
        is None) split on ','; None when the key is absent. An empty list checks nothing."""
        raw = self.get(section, key, required=required)

        def vector(text):
            try:
                v = np.array([float(tok) for tok in text.split(",")])
            except ValueError:
                v = np.array([math.nan])
            if len(v) == (dim or len(v)) and np.isfinite(v).all():
                return v
            what = "finite numbers" if dim is None else "%d finite numbers" % dim
            raise ConfigError("[%s] %s needs %s per vector, got %r" % (section, key, what, text))

        return None if raw is None else [vector(chunk.strip()) for chunk in raw.split(";") if chunk.strip()]

    def expression(self, section, key, parse):
        """parse(text) of the key, which is required; a syntax error names the key."""
        try:
            return parse(self.get(section, key, required=True))
        except ExprSyntaxError as exc:
            raise ConfigError("[%s] %s: %s" % (section, key, exc)) from exc


def _folded(expr, what):
    """expr with every subtree that names no coordinate evaluated once, here.

    An entry that names no coordinate becomes a Const.
    """
    try:
        # a division by zero gives inf or NaN on any ring; in a constant subtree it is an error
        with np.errstate(divide="raise", invalid="raise"):
            return fold_constants(expr)
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError("cannot evaluate %s %r: %s" % (what, expr, exc)) from exc


def _expr_matrix(cfg, key, dim, cols=None, constant_ok=False):
    """[system] key and its column count: rows split on ';', each a list of expressions
    in x1..xn read as f and g are, so pow(e, k) is one entry.

    It has dim rows of ``cols`` entries, or of as many as its first row. Every
    subtree that names no coordinate is evaluated once, here. The matrix is a
    function of the state, made from its float form (the entries, row-major,
    evaluated on the coordinate list); with ``constant_ok``, the matrix
    itself when no entry names a coordinate.
    """
    names = coord_names(dim)

    def parse(text):  # each row behind as many blanks as precede it: errors give positions in the value
        rows = text.split(";")
        starts = accumulate((len(row) + 1 for row in rows), initial=0)
        return [parse_components(" " * start + row, names) for start, row in zip(starts, rows)]

    rows = cfg.expression("system", key, parse)
    cols = cols or len(rows[0])
    if len(rows) != dim or any(len(row) != cols for row in rows):
        raise ConfigError("[system] %s needs %d rows of %d entries, got rows of %s"
                          % (key, dim, cols, ", ".join(str(len(row)) for row in rows)))
    entries = [_folded(e, "matrix entry") for row in rows for e in row]
    if constant_ok and all(isinstance(e, Const) for e in entries):
        return np.array([e.value for e in entries]).reshape(dim, cols), cols

    # Python floats, not NumPy scalars: the same IEEE operations give the same
    # bits on both, floats are faster and do not warn on overflow. A division
    # by zero gives inf or NaN, which the system reports as a non-finite
    # matrix that names the state; NumPy's warning would only repeat it. Only
    # a division meets NumPy there, so only a dividing matrix enters errstate
    def entries_at(xs):
        return [float(e.eval(xs)) for e in entries]

    def quiet_entries_at(xs):
        with np.errstate(divide="ignore", invalid="ignore"):
            return entries_at(xs)

    return matrix_from_entries(quiet_entries_at if any(map(_divides, entries)) else entries_at, (dim, cols)), cols


def _divides(expr):
    """Whether expr holds a Div or a negative Pow: the nodes whose divisor can be zero."""
    if isinstance(expr, Div) or isinstance(expr, Pow) and expr.exponent < 0:
        return True
    return any(_divides(getattr(expr, s)) for s in ("a", "b") if hasattr(expr, s))


def _build_system(cfg):
    """The configured StateLinearSystem or AffineSystem: a registry entry, or an inline
    system whose A (state-linear, with B) or f (affine, with g) says which it is."""
    name = cfg.get("system", "registry")
    if name is not None:
        if name in registry.SYSTEM_BUILDERS:
            return registry.SYSTEM_BUILDERS[name]()
        if name in registry.AFFINE_BUILDERS:
            return registry.AFFINE_BUILDERS[name]().system
        raise ConfigError(
            "unknown registry system %r (known: %s)"
            % (name, ", ".join(sorted(list(registry.SYSTEM_BUILDERS) + list(registry.AFFINE_BUILDERS))))
        )
    if cfg.get("system", "dim") is not None:  # a bad dim is named before a missing A or f
        cfg.number("system", "dim", kind=int)
    state_linear = cfg.get("system", "A") is not None
    if state_linear == (cfg.get("system", "f") is not None):
        raise ConfigError("[system] needs a registry name, or one of [system] A (state-linear, with B) "
                          "and [system] f (affine, with g); it has %s" % ("both" if state_linear else "neither"))
    dim = cfg.number("system", "dim", kind=int)
    if state_linear:
        A, _ = _expr_matrix(cfg, "A", dim, dim)
        B, m = _expr_matrix(cfg, "B", dim, constant_ok=True)
        return StateLinearSystem(A, B, dim, m)

    def folded_field(key):
        field = cfg.expression("system", key, lambda text: ExprVectorField.from_text(text, dim))
        return ExprVectorField([_folded(c, "[system] %s component" % key) for c in field.components], dim)

    return AffineSystem(folded_field("f"), folded_field("g"))


def _integration_config(cfg):
    step = cfg.number("integrator", "step", default=1e-3, positive=True)
    blowup = cfg.number("integrator", "blowup", default=1e6)
    try:
        return IntegrationConfig(step=step, blowup_norm=blowup)
    except ValueError as exc:  # the step is valid, so it is the threshold
        raise ConfigError("[integrator] blowup: %s" % exc) from exc


def _build_patchwork(cfg, seed):
    name = cfg.get("patchwork", "registry", required=True)  # there are no inline families
    if name not in registry.PATCHWORK_BUILDERS:
        raise ConfigError("unknown patchwork registry entry %r" % name)
    offsets = cfg.vectors("patchwork", "offsets", None)
    if not offsets:
        return registry.PATCHWORK_BUILDERS[name](offsets=None, seed=seed)
    if len(offsets) > 1:
        raise ConfigError("[patchwork] offsets must be one vector, got %d" % len(offsets))
    try:  # the family refuses a wrong count or an offset that is not positive
        return registry.PATCHWORK_BUILDERS[name](offsets=offsets[0], seed=seed)
    except ValueError as exc:
        raise ConfigError("[patchwork] offsets: %s" % exc) from exc


# -- synthesize -----------------------------------------------------------------


def cmd_synthesize(cfg, out_dir, seed, quiet):
    sys_obj = _build_system(cfg)
    if not isinstance(sys_obj, StateLinearSystem):
        raise ConfigError("gain synthesis needs a state-linear system")
    points = cfg.vectors("synthesize", "points", sys_obj.dim_state)
    if points is None:
        radius = cfg.number("synthesize", "radius", default=1.0, positive=True)
        samples = cfg.number("synthesize", "samples", default=32, kind=int, positive=True)
        points = [np.zeros(sys_obj.dim_state)] + list(
            ball_points(sys_obj.dim_state, samples, radius, seed=seed)
        )

    failures = 0
    eig_lo, eig_hi = np.inf, -np.inf
    for xi in points:
        A, B = sys_obj.matrices_at(xi)
        try:
            res = synthesize_gain(A, B)
        except NotStabilizableError as exc:
            failures += 1
            print("point=%s  NOT STABILIZABLE: %s" % (np.round(xi, 6).tolist(), exc))
            continue
        eigs = np.linalg.eigvalsh(res.lyapunov)
        eig_lo = min(eig_lo, float(eigs[0]))
        eig_hi = max(eig_hi, float(eigs[-1]))
        if not quiet:
            print(
                "point=%s  gain=%s  decay=%s  abscissa=%s  eigP=[%s, %s]"
                % (
                    np.round(xi, 6).tolist(),
                    np.round(res.gain, 6).tolist(),
                    _fmt(res.decay),
                    _fmt(res.abscissa),
                    _fmt(eigs[0]),
                    _fmt(eigs[-1]),
                )
            )
    if failures == 0 and np.isfinite(eig_lo):
        print("uniform-bounds: %s <= P <= %s over %d points" % (_fmt(eig_lo), _fmt(eig_hi), len(points)))
    return len(points), failures


# -- simulate -------------------------------------------------------------------


def _write_csv(path, header, rows):
    """One line per row of Python numbers, whose repr is _fmt's text (not so for NumPy scalars)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def _write_trajectory_csv(path, run, cert, n, m, W=None):
    """One row per point of the run; the V column is read from the certificate's
    values, the W column from one glue pass over the states (NaN where uncovered)."""
    times, states, inputs = run.trajectory()
    columns = [times, states, inputs, cert.values()] + ([] if W is None else [W.glue(states)[0]])
    header = ["t"] + ["x%d" % (i + 1) for i in range(n)] + ["u%d" % (j + 1) for j in range(m)]
    header += ["V"] + ([] if W is None else ["W"])
    # converting one row at a time never holds the whole table as Python floats
    _write_csv(path, header, (row.tolist() for row in np.column_stack(columns)))


def _write_certificate_csv(path, cert):
    rows = ([ic.index, ic.t_start, ic.v_start, ic.v_end, ic.margin, ic.v_max, int(ic.bound_ok),
             ic.excursion_ratio] for ic in cert.intervals)
    _write_csv(path, "k,T_k,V_start,V_end,L_k,Vmax,bound_ok,C_k".split(","), rows)


def cmd_simulate(cfg, out_dir, seed, quiet):
    plant = _build_system(cfg)
    icfg = _integration_config(cfg)

    ctrl_type = cfg.get("controller", "type", default="frozen-gain")
    W = None
    if ctrl_type == "zero":
        ctrl = ZeroController(dim_input=plant.dim_input)
    elif ctrl_type not in ("frozen-gain", "frozen-gain-zoh", "patchwork"):
        raise ConfigError("unknown controller type %r" % ctrl_type)
    elif not isinstance(plant, StateLinearSystem):  # every other controller plans frozen-gain intervals
        raise ConfigError("the %s controller needs a state-linear system" % ctrl_type)
    elif ctrl_type == "patchwork":
        W, _ = _build_patchwork(cfg, seed)
        if W.family.dim != plant.dim_state:
            raise ConfigError("[patchwork] registry %r is a family on R^%d; the plant has dim %d"
                              % (cfg.get("patchwork", "registry"), W.family.dim, plant.dim_state))
        plans = [FrozenGainController(plant, icfg) for _ in W.family.pieces]
        ctrl = PatchworkController(W, plans, dim_input=plant.dim_input)
    else:
        ctrl = FrozenGainController(plant, icfg, zero_order_hold=ctrl_type.endswith("zoh"))

    h = cfg.number("partition", "h", positive=True)
    horizon = cfg.number("run", "horizon", positive=True)
    x0s = cfg.vectors("run", "x0", plant.dim_state, required=True)
    final_norm = cfg.number("run", "final_norm", default=1e-2, positive=True)

    V_provider = PerSampleQuadratic()  # unless [run] V gives the certificate
    if cfg.get("run", "V") is not None:
        V_provider = cfg.expression("run", "V", lambda text: ExprScalarField.from_text(text, plant.dim_state))

    def write_trajectory(run, cert, i):
        path = os.path.join(out_dir, "traj_%d.csv" % i)
        _write_trajectory_csv(path, run, cert, plant.dim_state, plant.dim_input, W)
        return path

    n_checks = 0
    n_failures = 0
    for i, x0 in enumerate(x0s):
        try:
            run = run_closed_loop(plant, ctrl, h, x0, horizon, icfg)
        except ControllerError as exc:
            n_checks += 1
            n_failures += 1
            partial, wrote = exc.partial_run, ""
            # keep the intervals completed before the failure, without a cert_i.csv
            if partial.records:
                traj_path = write_trajectory(partial, certify_decrease(partial, V_provider), i)
                wrote = "; wrote %d completed interval(s) to %s" % (len(partial.records), traj_path)
            print("run %d: controller error: %s%s" % (i, exc, wrote))
            continue
        cert = certify_decrease(run, V_provider)
        final = float(np.linalg.norm(run.final_state()))
        ok_norm = final <= final_norm and not run.escaped
        n_checks += len(cert.intervals) + 1
        # an escape fails its interval and the final-norm check, and ends the run
        n_failures += len(cert.failures) + (0 if ok_norm else 1)

        traj_path = write_trajectory(run, cert, i)
        cert_path = os.path.join(out_dir, "cert_%d.csv" % i)
        _write_certificate_csv(cert_path, cert)
        if not quiet:
            print(
                "run %d: x0=%s final|x|=%s %s; %s; wrote %s, %s"
                % (
                    i,
                    x0.tolist(),
                    _fmt(final),
                    "ok" if ok_norm else "ABOVE THRESHOLD",
                    cert.summary(),
                    traj_path,
                    cert_path,
                )
            )
            for line in cert.failures[:10]:
                print("   ", line)
    return n_checks, n_failures


# -- check-lie ------------------------------------------------------------------


def _grid_points(extent, count):
    """The count x count grid on [-extent, extent]^2 without the origin, one point per row."""
    axis = np.linspace(-extent, extent, count)
    if count % 2:
        axis[count // 2] = 0.0  # linspace can land a rounding error away from 0
    pts = [(a, b) for a in axis for b in axis if a != 0.0 or b != 0.0]
    return np.array(pts, dtype=float).reshape(-1, 2)


def _rounded(witnesses):
    return {k: round(v, 6) for k, v in witnesses.items()}


def _fail_details(*reports):
    """The detail of each failing report, each after two spaces, to end a FAIL line."""
    return "".join("  " + r.detail for r in reports if r.classification == FAIL)


def cmd_check_lie(cfg, out_dir, seed, quiet):
    # not positive: extent 0 is a grid of the origin alone, which checks nothing
    extent = cfg.number("grid", "extent", default=2.0)
    if not math.isfinite(extent):
        raise ConfigError("[grid] extent must be finite, got %r" % extent)
    count = cfg.number("grid", "points", default=41, kind=int, positive=True)
    pts = _grid_points(extent, count)
    name = cfg.get("system", "registry")

    n_fail = 0
    if name in registry.AFFINE_BUILDERS:
        entry = registry.AFFINE_BUILDERS[name]()
        for p in pts:
            rp = entry.classify(p)
            rc = entry.classify_integrator_form(p)
            bad = rp.classification == FAIL or rc.classification == FAIL
            n_fail += 1 if bad else 0
            if not quiet or bad:
                # a failing integrator-form report adds its witnesses after the pointwise ones
                witnesses = str(_rounded(rp.witnesses))
                if rc.classification == FAIL:
                    witnesses += "  %s" % _rounded(rc.witnesses)
                print(
                    "p=(%s, %s)  pointwise=%s  integrator=%s  %s%s"
                    % (_fmt(p[0]), _fmt(p[1]), rp.classification, rc.classification, witnesses, _fail_details(rp, rc))
                )
    else:
        sys_obj = _build_system(cfg)
        if not isinstance(sys_obj, AffineSystem):
            raise ConfigError("pointwise checks need an affine system")
        if sys_obj.dim_state != 2:
            raise ConfigError("the check-lie grid is planar; the system has dim %d" % sys_obj.dim_state)
        V = cfg.expression("lie", "V", lambda text: ExprScalarField.from_text(text, sys_obj.dim_state))
        if not at_origin(origin_value(V, sys_obj.dim_state)):
            raise ConfigError("V must vanish at the origin")
        # overflow and division by zero on the grid raise (exit 3, as on the
        # per-point path); NaN is not positive
        with np.errstate(over="raise", divide="raise", invalid="ignore"):
            positive = np.all(V.eval(list(pts.T)) > 0)
        if not positive:
            raise ConfigError("V is not positive away from the origin on the grid")
        for p in pts:
            rp = check_prop1_point(sys_obj, V, p, n_max=2)
            n_fail += 1 if rp.classification == FAIL else 0
            if rp.classification == FAIL:
                print("p=(%s, %s)  pointwise=%s  %s%s"
                      % (_fmt(p[0]), _fmt(p[1]), FAIL, _rounded(rp.witnesses), _fail_details(rp)))
            elif not quiet:
                print("p=(%s, %s)  pointwise=%s" % (_fmt(p[0]), _fmt(p[1]), rp.classification))
    return len(pts), n_fail


# -- check-patchwork -------------------------------------------------------------


def cmd_check_patchwork(cfg, out_dir, seed, quiet):
    samples = cfg.number("patchwork", "samples", default=10_000, kind=int, positive=True)
    radius = cfg.number("patchwork", "radius", default=2.0, positive=True)
    try:
        W, sel = _build_patchwork(cfg, seed)
    except OffsetSelectionError as exc:
        print("offset selection failed at %s: %s" % (exc.point, exc))
        return 1, 1
    if sel is not None and not quiet:
        print("offsets: %s (base %s, spread %s)" % (
            [_fmt(c) for c in sel.offsets], _fmt(sel.c0), _fmt(sel.delta)))
    report = verify_patchwork(W, radius, samples=samples, seed=seed)
    for line in report.lines():
        print(line)
    return len(report.checks), sum(0 if c.passed else 1 for c in report.checks)


# -- entry point ------------------------------------------------------------------


COMMANDS = {
    "synthesize": cmd_synthesize,
    "simulate": cmd_simulate,
    "check-lie": cmd_check_lie,
    "check-patchwork": cmd_check_patchwork,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sdstab",
        description="Sampled-data stabilization toolkit: synthesis, certified runs, pointwise checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--out", default=".", help="output directory for CSV files")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true", help="suppress per-point/per-interval detail")
    args = parser.parse_args(argv)

    try:
        cfg = Config.load(args.config)
        seed = args.seed if args.seed is not None else cfg.number("experiment", "seed", default=0, kind=int)
        if seed < 0:
            raise ConfigError("%s must be a non-negative integer, got %d"
                              % ("[experiment] seed" if args.seed is None else "--seed", seed))
        os.makedirs(args.out, exist_ok=True)
        kind = cfg.get("experiment", "kind", default=args.command)
        if kind != args.command:
            raise ConfigError(
                "config is for %r but the %r command was invoked" % (kind, args.command)
            )
        n_checks, n_failures = COMMANDS[args.command](cfg, args.out, seed, args.quiet)
        if n_checks == 0:
            raise ConfigError("%s: the config leaves nothing to check" % args.command)
    except (NumericalFailure, ArithmeticError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError among them
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    print("RESULT %s %d %d" % ("pass" if n_failures == 0 else "fail", n_checks, n_failures))
    return EXIT_OK if n_failures == 0 else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
