"""Vector-field calculus: Lie brackets, Lie derivatives, pointwise stabilizability tests.

Derivatives are computed with truncated-jet (Taylor-mode) arithmetic rather
than symbolic differentiation, so iterated brackets stay cheap to evaluate:
a bracket field is a *derived* field whose evaluation runs its operands on
first-order jets, and nesting brackets simply nests the jet coefficients.

Zero tests use a scaled tolerance: a quantity q computed from a jet w counts
as zero when |q| <= ZERO_TOL * (1 + max |coefficient of w|). The conditions
being checked are exact sign conditions, so the tolerance is a declared
numerical policy; every report carries the tolerances it used.

The pointwise checkers walk their trees on Python floats taken from
``x.tolist()``: the ring gives the same bits on them as on NumPy scalars
(see :mod:`sdstab.jets`, division included) at a fraction of the cost per
operation. ``check_prop1_point`` walks each distinct clause tree once: the
drift power ``f^jV`` is the j-fold drift clause ``f…fV`` (``f^1V`` is
``fV``), so both names carry the one walk's witness and tolerance.
"""

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .jets import Jet, coeff, magnitude

ZERO_TOL = 1e-9

# classification labels shared by the pointwise checkers
GV_NONZERO = "gV-nonzero"                 # input direction moves V
FV_NEGATIVE = "fV-negative"               # drift strictly decreases V
DRIFT_POWER_NEGATIVE = "drift-power-negative"
ODD_BRACKET_NONZERO = "odd-bracket-nonzero"
EVEN_BRACKET_NEGATIVE = "even-bracket-negative"
MIXED_BRACKET_NONZERO = "mixed-bracket-nonzero"
VDOT_NEGATIVE = "Vdot-negative"           # DV·F < 0
VDOT_ZERO_YDIR_NONZERO = "Vdot-zero-ydir-nonzero"
WY_NONZERO = "dWdy-nonzero"
FAIL = "FAIL"


def _along(F, coords, direction):
    """F evaluated on the first-order jets coords + t*direction.

    The t-coefficient of the result is the directional derivative
    DF(coords)·direction. Coordinates and directions may be scalars, arrays
    or jets of any nesting depth.
    """
    return F.eval([Jet([c, d]) for c, d in zip(coords, direction)])


# -- fields -------------------------------------------------------------------


class VectorField:
    """Map from R^dim to R^odim, evaluable on numbers or jets."""

    dim = 0
    odim = 0

    def eval(self, coords):
        raise NotImplementedError

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.array([float(v) for v in self.eval(list(x))])


class ExprVectorField(VectorField):
    def __init__(self, components, dim):
        self.components = list(components)
        self.dim = int(dim)
        self.odim = len(self.components)

    @classmethod
    def from_text(cls, text, dim, with_y=False):
        from .exprs import coord_names, parse_components

        names = coord_names(dim, with_y=with_y)
        comps = parse_components(text, names)
        return cls(comps, dim + (1 if with_y else 0))

    def eval(self, coords):
        return [c.eval(coords) for c in self.components]

    def __repr__(self):
        return "ExprVectorField(%s)" % (", ".join(repr(c) for c in self.components))


class BracketField(VectorField):
    """Commutator [X, Y] = DY·X - DX·Y as a lazily differentiated field.

    Y is evaluated once, on the jets x + t·X(x): coefficient 0 of every ring
    operation is the plain operation on coefficients 0, so that walk's values
    are Y(x) bit for bit and give the direction of DX·Y.
    """

    def __init__(self, X, Y):
        if X.dim != Y.dim or X.odim != Y.odim or X.dim != X.odim:
            raise ValueError("bracket needs two square fields of equal dimension")
        self.X = X
        self.Y = Y
        self.dim = X.dim
        self.odim = X.odim

    def eval(self, coords):
        dy_x = _along(self.Y, coords, self.X.eval(coords))
        dx_y = _along(self.X, coords, [coeff(w, 0) for w in dy_x])
        return [coeff(a, 1) - coeff(b, 1) for a, b in zip(dy_x, dx_y)]

    def __repr__(self):
        return "[%r, %r]" % (self.X, self.Y)


class ScalarField:
    dim = 0

    def eval(self, coords):
        raise NotImplementedError

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return float(self.eval(list(x)))


class ExprScalarField(ScalarField):
    def __init__(self, expr, dim):
        self.expr = expr
        self.dim = int(dim)

    @classmethod
    def from_text(cls, text, dim, with_y=False):
        from .exprs import coord_names, parse_scalar

        names = coord_names(dim, with_y=with_y)
        return cls(parse_scalar(text, names), dim + (1 if with_y else 0))

    def eval(self, coords):
        return self.expr.eval(coords)

    def __repr__(self):
        return "ExprScalarField(%r)" % (self.expr,)


class LieDerivative(ScalarField):
    """(XV)(x) = DV(x)·X(x), itself evaluable on jets (so it iterates)."""

    def __init__(self, X, V):
        if X.dim != V.dim or X.dim != X.odim:
            raise ValueError("Lie derivative needs a square field matching V's dimension")
        self.X = X
        self.V = V
        self.dim = V.dim

    def eval(self, coords):
        return coeff(_along(self.V, coords, self.X.eval(coords)), 1)


def gradient(V, x):
    """DV(x) as a plain vector, from one walk whose directions are the unit rows."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    out[:] = coeff(_along(V, x.tolist(), np.eye(x.size)), 1)
    return out


def linear_vector_field(A):
    """The field x -> A x as an expression tree (handy fixture builder)."""
    from .exprs import Add, Const, Mul, Var

    A = np.asarray(A, dtype=float)
    rows, n = A.shape
    comps = []
    for i in range(rows):
        node = None
        for j in range(n):
            if A[i, j] == 0.0:
                continue
            term = Mul(Const(A[i, j]), Var(j, "x%d" % (j + 1)))
            node = term if node is None else Add(node, term)
        comps.append(node if node is not None else Const(0.0))
    return ExprVectorField(comps, n)


# -- bracket trees and grading -------------------------------------------------

GEN_DRIFT = "f"
GEN_INPUT = "g"


def bracket_order(tree):
    """Number of generator leaves (each leaf has grade 1, brackets add)."""
    if isinstance(tree, str):
        return 1
    return bracket_order(tree[0]) + bracket_order(tree[1])


def tree_label(tree):
    if isinstance(tree, str):
        return tree
    return "[%s,%s]" % (tree_label(tree[0]), tree_label(tree[1]))


def tree_field(tree, f, g):
    if tree == GEN_DRIFT:
        return f
    if tree == GEN_INPUT:
        return g
    return BracketField(tree_field(tree[0], f, g), tree_field(tree[1], f, g))


def bracket_monomials(max_order):
    """Canonical bracket monomials of grade <= max_order, excluding the bare input generator.

    Mirror-image trees are pruned (they differ only in sign) and trees with
    equal children are dropped (identically zero).
    """
    by_order = {1: [GEN_DRIFT, GEN_INPUT]}
    for L in range(2, max_order + 1):
        seen = set()
        items = []
        for i in range(1, L):
            for a in by_order[i]:
                for b in by_order[L - i]:
                    if a == b:
                        continue
                    t = (a, b) if tree_label(a) <= tree_label(b) else (b, a)
                    lbl = tree_label(t)
                    if lbl not in seen:
                        seen.add(lbl)
                        items.append(t)
        by_order[L] = items
    out = [GEN_DRIFT]
    for L in range(2, max_order + 1):
        out.extend(by_order[L])
    return out


def _monomial_sequences(monomials, budget):
    """All finite sequences of monomials whose grades sum to <= budget."""
    for k, m in enumerate(monomials):
        o = bracket_order(m)
        if o > budget:
            continue
        yield (m,)
        for rest in _monomial_sequences(monomials, budget - o):
            yield (m,) + rest


@cache
def _clause_sequences(n_max, N):
    """(sequence, name) of every annihilation clause of grade N under the n_max monomials.

    The clauses depend on (n_max, N) only, so they are built once; tuples keep
    the cache immutable.
    """
    monomials = [m for m in bracket_monomials(n_max) if bracket_order(m) <= N]
    return tuple(
        (seq, "".join(tree_label(t) for t in seq) + "V") for seq in _monomial_sequences(monomials, N)
    )


# -- condition reports and pointwise checkers ----------------------------------


@dataclass
class ConditionReport:
    point: np.ndarray
    classification: str
    witnesses: dict = field(default_factory=dict)
    taus: dict = field(default_factory=dict)
    n_used: int | None = None
    detail: str = ""


class _Undecided(Exception):
    """A witness or its tolerance is not a number; carries the clause name."""


def _undecided(val, tau):
    """True when a witness decides nothing: a NaN compares false with its tolerance."""
    return math.isnan(val) or not math.isfinite(tau)


def _undecided_detail(name, val, tau):
    return "%s: witness %r, tolerance %r; a NaN witness or a non-finite tolerance decides nothing" % (
        name, val, tau)


def _eval_scaled(ld, x):
    """Evaluate a Lie derivative at x; tolerance scale from its defining jet."""
    w = _along(ld.V, x, ld.X.eval(x))
    return float(coeff(w, 1)), ZERO_TOL * (1.0 + magnitude(w))


def check_prop1_point(sys, V, x, n_max=4):
    """Classify a nonzero point by the pointwise stabilizability conditions.

    Tests, in order: nonvanishing input derivative of V; strict drift
    decrease; then for N = 1..n_max, total annihilation of all drift powers
    and bracket-monomial derivatives of V up to grade N combined with one of
    the four higher-order sign conditions (negative next drift power; odd /
    even iterated input-bracket tests; the mixed drift-bracket test). A NaN
    witness or a non-finite tolerance ends the check with FAIL, and the
    report's detail names that clause.
    """
    if not 1 <= n_max <= 4:
        raise ValueError("n_max must be between 1 and 4")
    x = np.asarray(x, dtype=float)
    xs = x.tolist()  # Python floats at the leaves (see the module notes)
    if not any(xs):
        raise ValueError("the origin is excluded from pointwise checks")

    f = sys.drift
    g = sys.input_field
    witnesses = {}
    taus = {}
    walked = {}

    def record(name, seq):
        # seq lists the clause's trees, outermost first; f^jV is the j-fold f clause
        if seq not in walked:
            W = V
            for t in reversed(seq):
                W = LieDerivative(tree_field(t, f, g), W)
            walked[seq] = _eval_scaled(W, xs)
        val, tau = walked[seq]
        witnesses[name], taus[name] = val, tau
        if _undecided(val, tau):
            raise _Undecided(name)
        return val, tau

    try:
        gv, tau_gv = record("gV", (GEN_INPUT,))
        if abs(gv) > tau_gv:
            return ConditionReport(x, GV_NONZERO, witnesses, taus)

        fv, tau_fv = record("fV", (GEN_DRIFT,))
        if fv < -tau_fv:
            return ConditionReport(x, FV_NEGATIVE, witnesses, taus)

        for N in range(1, n_max + 1):
            vanished = True
            for j in range(1, N + 1):
                val, tau = record("f^%dV" % j, (GEN_DRIFT,) * j)
                if abs(val) > tau:
                    vanished = False
                    break
            if vanished:
                for seq, name in _clause_sequences(n_max, N):
                    val, tau = record(name, seq)
                    if abs(val) > tau:
                        vanished = False
                        break
            if not vanished:
                break

            fn1, tau_fn1 = record("f^%dV" % (N + 1), (GEN_DRIFT,) * (N + 1))
            if fn1 < -tau_fn1:
                return ConditionReport(x, DRIFT_POWER_NEGATIVE, witnesses, taus, n_used=N)

            adj = ("f", "g")
            for _ in range(N - 1):
                adj = (adj, "g")
            qn, tau_qn = record(tree_label(adj) + "V", (adj,))
            if N % 2 == 1 and abs(qn) > tau_qn:
                return ConditionReport(x, ODD_BRACKET_NONZERO, witnesses, taus, n_used=N)
            if N % 2 == 0 and qn < -tau_qn:
                return ConditionReport(x, EVEN_BRACKET_NEGATIVE, witnesses, taus, n_used=N)

            mixed = ("g", "f")
            for _ in range(N - 1):
                mixed = (mixed, "f")
            rn, tau_rn = record(tree_label(mixed) + "V", (mixed,))
            if abs(fn1) <= tau_fn1 and abs(rn) > tau_rn:
                return ConditionReport(x, MIXED_BRACKET_NONZERO, witnesses, taus, n_used=N)

        return ConditionReport(x, FAIL, witnesses, taus, detail="no clause verified")
    except _Undecided as exc:
        name = exc.args[0]
        return ConditionReport(
            x, FAIL, witnesses, taus, detail=_undecided_detail(name, witnesses[name], taus[name])
        )


def check_corollary1_point(F, V, W, region, p):
    """Classify a point of a feedback-integrator system (state (x, y), input drives y).

    ``region`` selects which clause family applies: "D1" checks the strict
    decrease / y-derivative alternative for V on the x-part, "D2" checks the
    nonvanishing y-derivative of W (plus positivity of W off zero when the
    x-part vanishes). In both, a NaN witness (``DV·F``, ``DV·dF/dy`` or
    ``dW/dy``) or a non-finite tolerance ends the check with FAIL and a detail
    that names the clause, as in :func:`check_prop1_point`.
    """
    p = np.asarray(p, dtype=float)
    ps = p.tolist()
    if not any(ps):
        raise ValueError("the origin is excluded from pointwise checks")
    n = V.dim
    if F.dim != n + 1 or F.odim != n or W.dim != n + 1:
        raise ValueError("dimension mismatch between F, V, W")
    x = p[:n]
    y_dir = [0.0] * (n + 1)
    y_dir[n] = 1.0
    witnesses = {}
    taus = {}

    if region == "D1":
        if float(abs(x).max()) <= ZERO_TOL:
            return ConditionReport(
                p, FAIL, witnesses, taus, detail="x-part vanishes on a region that forbids it"
            )
        dv = gradient(V, x)
        fxy = np.array([float(v) for v in F.eval(ps)])
        dvf = float(dv @ fxy)
        tau = ZERO_TOL * (1.0 + float(abs(dv).max()) + float(abs(fxy).max()))
        witnesses["DV·F"] = dvf
        taus["DV·F"] = tau
        if _undecided(dvf, tau):
            return ConditionReport(p, FAIL, witnesses, taus, detail=_undecided_detail("DV·F", dvf, tau))
        if dvf < -tau:
            return ConditionReport(p, VDOT_NEGATIVE, witnesses, taus)
        if abs(dvf) <= tau:
            dfdy = [coeff(w, 1) for w in _along(F, ps, y_dir)]
            dvdfdy = float(dv @ np.array([float(v) for v in dfdy]))
            tau2 = ZERO_TOL * (1.0 + float(abs(dv).max()) + max(abs(float(v)) for v in dfdy))
            witnesses["DV·dF/dy"] = dvdfdy
            taus["DV·dF/dy"] = tau2
            if _undecided(dvdfdy, tau2):
                detail = _undecided_detail("DV·dF/dy", dvdfdy, tau2)
                return ConditionReport(p, FAIL, witnesses, taus, detail=detail)
            if abs(dvdfdy) > tau2:
                return ConditionReport(p, VDOT_ZERO_YDIR_NONZERO, witnesses, taus)
        return ConditionReport(p, FAIL, witnesses, taus, detail="no decrease clause holds")

    if region == "D2":
        w = _along(W, ps, y_dir)
        wy = float(coeff(w, 1))
        wval = float(coeff(w, 0))  # W(p), bit for bit
        tau = ZERO_TOL * (1.0 + abs(wy) + abs(wval))
        witnesses["dW/dy"] = wy
        taus["dW/dy"] = tau
        if _undecided(wy, tau):
            return ConditionReport(p, FAIL, witnesses, taus, detail=_undecided_detail("dW/dy", wy, tau))
        if abs(wy) <= tau:
            return ConditionReport(p, FAIL, witnesses, taus, detail="dW/dy vanishes")
        if float(abs(x).max()) <= ZERO_TOL:
            witnesses["W"] = wval
            taus["W"] = tau
            if wval <= tau:
                return ConditionReport(
                    p, FAIL, witnesses, taus, detail="W vanishes off the origin on the y-axis"
                )
        return ConditionReport(p, WY_NONZERO, witnesses, taus)

    raise ValueError("region must be 'D1' or 'D2'")
