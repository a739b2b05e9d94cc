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
operation. The integrator-form check stays on floats to the end: a gradient
is one float walk per unit direction, which per component makes the same
IEEE operations as one walk on the rows of the identity, and its dot
products and maxima keep the bits of NumPy's ``@`` and ``abs(...).max()``.
``check_prop1_point`` walks each distinct clause tree once: the drift
power ``f^jV`` is the j-fold drift clause ``f…fV`` (``f^1V`` is ``fV``),
so both names carry the one walk's witness and tolerance. Within one call
it also builds each distinct bracket tree once, so a shared subtree is one
field, and evaluates that bracket at the call's point once; nothing is
kept from one call to the next.
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


class _BracketAtPoint(BracketField):
    """A bracket that keeps its value at one coordinate list; other coordinates are evaluated afresh."""

    def __init__(self, X, Y, point):
        super().__init__(X, Y)
        self.point = point
        self.value = None

    def eval(self, coords):
        if coords is not self.point:
            return BracketField.eval(self, coords)
        if self.value is None:
            self.value = BracketField.eval(self, coords)
        return self.value


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
    """DV(x) as a list of floats, from one walk on floats per unit direction."""
    xs = [float(c) for c in x]
    out = []
    for i in range(len(xs)):
        e = [0.0] * len(xs)
        e[i] = 1.0
        out.append(float(coeff(_along(V, xs, e), 1)))
    return out


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
    """A witness or its tolerance is not a number; carries the detail that names the clause."""


def _record(witnesses, taus, name, val, tau):
    """Record a clause's witness and tolerance, and return them.

    Raises _Undecided when they decide nothing: a NaN witness compares false
    with its tolerance, and a non-finite tolerance bounds nothing.
    """
    witnesses[name], taus[name] = val, tau
    if math.isnan(val) or not math.isfinite(tau):
        raise _Undecided(
            "%s: witness %r, tolerance %r; a NaN witness or a non-finite tolerance decides nothing"
            % (name, val, tau)
        )
    return val, tau


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
    fields = {GEN_DRIFT: f, GEN_INPUT: g}

    def field_of(tree):
        # one field per distinct tree, so a shared subtree is one bracket valued at xs once
        if tree not in fields:
            fields[tree] = _BracketAtPoint(field_of(tree[0]), field_of(tree[1]), xs)
        return fields[tree]

    def record(name, seq):
        # seq lists the clause's trees, outermost first; f^jV is the j-fold f clause
        if seq not in walked:
            W = V
            for t in reversed(seq):
                W = LieDerivative(field_of(t), W)
            walked[seq] = _eval_scaled(W, xs)
        return _record(witnesses, taus, name, *walked[seq])

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
        return ConditionReport(x, FAIL, witnesses, taus, detail=exc.args[0])


def _abs_max(values):
    """max |v| over a non-empty list of floats; NaN if any is NaN, as NumPy's max gives."""
    m = 0.0
    for v in values:
        a = abs(v)
        if a != a:  # Python's max skips a NaN that is not first
            return a
        if a > m:
            m = a
    return m


def _dot(a, b):
    """a·b with the bits of NumPy's ``@``, which at length 1 is 0.0 + a*b (+0.0, never -0.0)."""
    if len(a) == 1:
        return 0.0 + a[0] * b[0]
    return float(np.array(a) @ np.array(b))


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
    xs = ps[:n]
    y_dir = [0.0] * (n + 1)
    y_dir[n] = 1.0
    witnesses = {}
    taus = {}

    try:
        if region == "D1":
            if _abs_max(xs) <= ZERO_TOL:
                return ConditionReport(
                    p, FAIL, witnesses, taus, detail="x-part vanishes on a region that forbids it"
                )
            dv = gradient(V, xs)
            dv_max = _abs_max(dv)
            fxy = [float(v) for v in F.eval(ps)]
            dvf = _dot(dv, fxy)
            tau = ZERO_TOL * (1.0 + dv_max + _abs_max(fxy))
            _record(witnesses, taus, "DV·F", dvf, tau)
            if dvf < -tau:
                return ConditionReport(p, VDOT_NEGATIVE, witnesses, taus)
            if abs(dvf) <= tau:
                dfdy = [float(coeff(w, 1)) for w in _along(F, ps, y_dir)]
                dvdfdy = _dot(dv, dfdy)
                tau2 = ZERO_TOL * (1.0 + dv_max + _abs_max(dfdy))
                _record(witnesses, taus, "DV·dF/dy", dvdfdy, tau2)
                if abs(dvdfdy) > tau2:
                    return ConditionReport(p, VDOT_ZERO_YDIR_NONZERO, witnesses, taus)
            return ConditionReport(p, FAIL, witnesses, taus, detail="no decrease clause holds")

        if region == "D2":
            w = _along(W, ps, y_dir)
            wy = float(coeff(w, 1))
            wval = float(coeff(w, 0))  # W(p), bit for bit
            tau = ZERO_TOL * (1.0 + abs(wy) + abs(wval))
            _record(witnesses, taus, "dW/dy", wy, tau)
            if abs(wy) <= tau:
                return ConditionReport(p, FAIL, witnesses, taus, detail="dW/dy vanishes")
            if _abs_max(xs) <= ZERO_TOL:
                witnesses["W"] = wval
                taus["W"] = tau
                if wval <= tau:
                    return ConditionReport(
                        p, FAIL, witnesses, taus, detail="W vanishes off the origin on the y-axis"
                    )
            return ConditionReport(p, WY_NONZERO, witnesses, taus)
    except _Undecided as exc:
        return ConditionReport(p, FAIL, witnesses, taus, detail=exc.args[0])

    raise ValueError("region must be 'D1' or 'D2'")
