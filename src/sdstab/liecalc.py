"""Vector-field calculus: Lie brackets, Lie derivatives, pointwise stabilizability tests.

Derivatives are computed with truncated-jet (Taylor-mode) arithmetic rather
than symbolic differentiation, so iterated brackets stay cheap to evaluate:
a bracket field is a *derived* field whose evaluation runs its operands on
first-order jets, and nesting brackets simply nests the jet coefficients.

Zero tests use a scaled tolerance: a quantity q computed from a jet w counts
as zero when |q| <= ZERO_TOL * (1 + max |coefficient of w|). The conditions
being checked are exact sign conditions, so the tolerance is a declared
numerical policy; every report carries the tolerances it used.
"""

from dataclasses import dataclass, field

import numpy as np

from .jets import Jet, coeff, lift, magnitude

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


def _pair_jets(coords, direction):
    """First-order jets along coords + t*direction, normalizing mixed rings."""
    out = []
    for c, d in zip(coords, direction):
        if isinstance(c, Jet) and not isinstance(d, Jet):
            d = lift(d, c)
        elif isinstance(d, Jet) and not isinstance(c, Jet):
            c = lift(c, d)
        out.append(Jet([c, d]))
    return out


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
    """Commutator [X, Y] = DY·X - DX·Y as a lazily differentiated field."""

    def __init__(self, X, Y):
        if X.dim != Y.dim or X.odim != Y.odim or X.dim != X.odim:
            raise ValueError("bracket needs two square fields of equal dimension")
        self.X = X
        self.Y = Y
        self.dim = X.dim
        self.odim = X.odim

    def eval(self, coords):
        vx = self.X.eval(coords)
        vy = self.Y.eval(coords)
        dy_x = _jvp(self.Y, coords, vx)
        dx_y = _jvp(self.X, coords, vy)
        return [a - b for a, b in zip(dy_x, dx_y)]

    def __repr__(self):
        return "[%r, %r]" % (self.X, self.Y)


def _jvp(F, coords, v):
    """Jacobian-vector product DF(coords)·v via first-order jets."""
    jets = _pair_jets(coords, v)
    return [coeff(w, 1) for w in F.eval(jets)]


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
        v = self.X.eval(coords)
        w = self.V.eval(_pair_jets(coords, v))
        return coeff(w, 1)


def lie_bracket(X, Y):
    return BracketField(X, Y)


def lie_derivative(X, V):
    return LieDerivative(X, V)


def gradient(V, x):
    """DV(x) as a plain vector (one unit-direction jet per coordinate)."""
    x = list(np.asarray(x, dtype=float))
    n = len(x)
    out = np.zeros(n)
    for i in range(n):
        e = [0.0] * n
        e[i] = 1.0
        out[i] = float(coeff(V.eval(_pair_jets(x, e)), 1))
    return out


def directional_scalar(V, x, direction):
    """DV(x)·direction."""
    x = list(np.asarray(x, dtype=float))
    return float(coeff(V.eval(_pair_jets(x, list(direction))), 1))


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


# -- condition reports and pointwise checkers ----------------------------------


@dataclass
class ConditionReport:
    point: np.ndarray
    classification: str
    witnesses: dict = field(default_factory=dict)
    taus: dict = field(default_factory=dict)
    n_used: int | None = None
    detail: str = ""

    @property
    def ok(self):
        return self.classification != FAIL


def _eval_scaled(sf, x):
    """Evaluate a scalar field at x; tolerance scale from the defining jet."""
    if isinstance(sf, LieDerivative):
        v = sf.X.eval(x)
        w = sf.V.eval(_pair_jets(x, v))
        return float(coeff(w, 1)), ZERO_TOL * (1.0 + magnitude(w))
    val = float(sf.eval(x))
    return val, ZERO_TOL * (1.0 + abs(val))


def check_prop1_point(sys, V, x, n_max=4):
    """Classify a nonzero point by the pointwise stabilizability conditions.

    Tests, in order: nonvanishing input derivative of V; strict drift
    decrease; then for N = 1..n_max, total annihilation of all drift powers
    and bracket-monomial derivatives of V up to grade N combined with one of
    the four higher-order sign conditions (negative next drift power; odd /
    even iterated input-bracket tests; the mixed drift-bracket test).
    """
    if not 1 <= n_max <= 4:
        raise ValueError("n_max must be between 1 and 4")
    x = np.asarray(x, dtype=float)
    if float(np.max(np.abs(x))) == 0.0:
        raise ValueError("the origin is excluded from pointwise checks")
    xs = list(x)

    f = sys.drift
    g = sys.input_field
    witnesses = {}
    taus = {}

    def record(name, sf):
        val, tau = _eval_scaled(sf, xs)
        witnesses[name] = val
        taus[name] = tau
        return val, tau

    gv, tau_gv = record("gV", LieDerivative(g, V))
    if abs(gv) > tau_gv:
        return ConditionReport(x, GV_NONZERO, witnesses, taus)

    fv, tau_fv = record("fV", LieDerivative(f, V))
    if fv < -tau_fv:
        return ConditionReport(x, FV_NEGATIVE, witnesses, taus)

    monomials = bracket_monomials(n_max)
    drift_powers = {}
    W = V
    for j in range(1, n_max + 2):
        W = LieDerivative(f, W)
        drift_powers[j] = W

    for N in range(1, n_max + 1):
        vanished = True
        for j in range(1, N + 1):
            val, tau = record("f^%dV" % j, drift_powers[j])
            if abs(val) > tau:
                vanished = False
                break
        if vanished:
            for seq in _monomial_sequences(
                [m for m in monomials if bracket_order(m) <= N], N
            ):
                W = V
                for t in reversed(seq):
                    W = LieDerivative(tree_field(t, f, g), W)
                name = "".join(tree_label(t) for t in seq) + "V"
                val, tau = record(name, W)
                if abs(val) > tau:
                    vanished = False
                    break
        if not vanished:
            break

        fn1, tau_fn1 = record("f^%dV" % (N + 1), drift_powers[N + 1])
        if fn1 < -tau_fn1:
            return ConditionReport(x, DRIFT_POWER_NEGATIVE, witnesses, taus, n_used=N)

        adj = ("f", "g")
        for _ in range(N - 1):
            adj = (adj, "g")
        qn, tau_qn = record(tree_label(adj) + "V", LieDerivative(tree_field(adj, f, g), V))
        if N % 2 == 1 and abs(qn) > tau_qn:
            return ConditionReport(x, ODD_BRACKET_NONZERO, witnesses, taus, n_used=N)
        if N % 2 == 0 and qn < -tau_qn:
            return ConditionReport(x, EVEN_BRACKET_NEGATIVE, witnesses, taus, n_used=N)

        mixed = ("g", "f")
        for _ in range(N - 1):
            mixed = (mixed, "f")
        rn, tau_rn = record(tree_label(mixed) + "V", LieDerivative(tree_field(mixed, f, g), V))
        if abs(fn1) <= tau_fn1 and abs(rn) > tau_rn:
            return ConditionReport(x, MIXED_BRACKET_NONZERO, witnesses, taus, n_used=N)

    return ConditionReport(x, FAIL, witnesses, taus, detail="no clause verified")


def check_corollary1_point(F, V, W, region, p):
    """Classify a point of a feedback-integrator system (state (x, y), input drives y).

    ``region`` selects which clause family applies: "D1" checks the strict
    decrease / y-derivative alternative for V on the x-part, "D2" checks the
    nonvanishing y-derivative of W (plus positivity of W off zero when the
    x-part vanishes).
    """
    p = np.asarray(p, dtype=float)
    if float(np.max(np.abs(p))) == 0.0:
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
        if float(np.max(np.abs(x))) <= ZERO_TOL:
            return ConditionReport(
                p, FAIL, witnesses, taus, detail="x-part vanishes on a region that forbids it"
            )
        dv = gradient(V, x)
        fxy = np.array([float(v) for v in F.eval(list(p))])
        dvf = float(dv @ fxy)
        tau = ZERO_TOL * (1.0 + float(np.max(np.abs(dv))) + float(np.max(np.abs(fxy))))
        witnesses["DV·F"] = dvf
        taus["DV·F"] = tau
        if dvf < -tau:
            return ConditionReport(p, VDOT_NEGATIVE, witnesses, taus)
        if abs(dvf) <= tau:
            dfdy = _jvp(F, list(p), y_dir)
            dvdfdy = float(dv @ np.array([float(v) for v in dfdy]))
            tau2 = ZERO_TOL * (1.0 + float(np.max(np.abs(dv))) + max(abs(float(v)) for v in dfdy))
            witnesses["DV·dF/dy"] = dvdfdy
            taus["DV·dF/dy"] = tau2
            if abs(dvdfdy) > tau2:
                return ConditionReport(p, VDOT_ZERO_YDIR_NONZERO, witnesses, taus)
        return ConditionReport(p, FAIL, witnesses, taus, detail="no decrease clause holds")

    if region == "D2":
        wy = directional_scalar(W, p, y_dir)
        tau = ZERO_TOL * (1.0 + abs(wy) + abs(float(W.eval(list(p)))))
        witnesses["dW/dy"] = wy
        taus["dW/dy"] = tau
        if abs(wy) <= tau:
            return ConditionReport(p, FAIL, witnesses, taus, detail="dW/dy vanishes")
        if float(np.max(np.abs(x))) <= ZERO_TOL:
            wval = float(W.eval(list(p)))
            witnesses["W"] = wval
            taus["W"] = tau
            if wval <= tau:
                return ConditionReport(
                    p, FAIL, witnesses, taus, detail="W vanishes off the origin on the y-axis"
                )
        return ConditionReport(p, WY_NONZERO, witnesses, taus)

    raise ValueError("region must be 'D1' or 'D2'")
