"""Bracket algebra, Lie derivatives, and the pointwise condition checkers."""

import hashlib
import math
import re
from collections import Counter

import numpy as np
import pytest

from sdstab import liecalc, registry
from sdstab.exprs import Add, Const, Mul, Var, parse_scalar, coord_names
from sdstab.jets import Jet, coeff
from sdstab.liecalc import (
    EVEN_BRACKET_NEGATIVE,
    DRIFT_POWER_NEGATIVE,
    FAIL,
    FV_NEGATIVE,
    GV_NONZERO,
    MIXED_BRACKET_NONZERO,
    ODD_BRACKET_NONZERO,
    VDOT_NEGATIVE,
    VDOT_ZERO_YDIR_NONZERO,
    WY_NONZERO,
    BracketField,
    ExprScalarField,
    ExprVectorField,
    LieDerivative,
    bracket_monomials,
    bracket_order,
    check_corollary1_point,
    check_prop1_point,
    gradient,
    tree_label,
)
from sdstab.sysmodel import AffineSystem


def rand_poly_field(rng, dim, degree=3, terms=3):
    """Random polynomial vector field as expression trees."""
    comps = []
    for _ in range(dim):
        node = Const(0.0)
        for _ in range(terms):
            term = Const(float(rng.uniform(-1, 1)))
            for _ in range(int(rng.integers(1, degree + 1))):
                j = int(rng.integers(0, dim))
                term = Mul(term, Var(j, "x%d" % (j + 1)))
            node = Add(node, term)
        comps.append(node)
    return ExprVectorField(comps, dim)


def linear_field(A):
    """The field x -> A x, written out as text."""
    rows = [" + ".join("(%r)*x%d" % (a, j + 1) for j, a in enumerate(row)) for row in A.tolist()]
    return ExprVectorField.from_text(", ".join(rows), len(A))


class TestBrackets:
    def test_linear_commutator(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        br = BracketField(linear_field(A), linear_field(B))
        for _ in range(5):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(br(x), (B @ A - A @ B) @ x, atol=1e-12)

    def test_constant_fields_commute(self):
        X = ExprVectorField.from_text("1, 2", 2)
        Y = ExprVectorField.from_text("-3, 5", 2)
        np.testing.assert_allclose(BracketField(X, Y)([0.3, -0.7]), [0.0, 0.0])

    def test_integrator_pair(self):
        f = ExprVectorField.from_text("x2, 0", 2)
        g = ExprVectorField.from_text("0, 1", 2)
        np.testing.assert_allclose(BracketField(f, g)([1.3, -2.2]), [-1.0, 0.0], atol=1e-14)
        # the tree [[f,g],g]: [f,g] is constant, so its bracket with g vanishes
        for x in ([0.5, 1.0], [-1.0, 2.0]):
            np.testing.assert_allclose(BracketField(BracketField(f, g), g)(x), [0.0, 0.0], atol=1e-14)

    def test_shear_pair(self):
        X = ExprVectorField.from_text("x1^2, 0", 2)
        Y = ExprVectorField.from_text("0, x1", 2)
        x = [0.7, -0.3]
        np.testing.assert_allclose(BracketField(X, Y)(x), [0.0, 0.49], atol=1e-14)
        # the tree [X,[X,Y]] = (0, 2 x1^3)
        np.testing.assert_allclose(BracketField(X, BracketField(X, Y))(x), [0.0, 0.686], atol=1e-14)

    def test_rotation_dilation(self):
        X = ExprVectorField.from_text("x2, -x1", 2)
        Y = ExprVectorField.from_text("x1, x2", 2)
        np.testing.assert_allclose(BracketField(X, Y)([1.1, 0.4]), [0.0, 0.0], atol=1e-14)

    def test_trig_pair(self):
        X = ExprVectorField.from_text("sin(x2), 0", 2)
        Y = ExprVectorField.from_text("0, x1", 2)
        x = [0.8, 0.25]
        expect = [-0.8 * np.cos(0.25), np.sin(0.25)]
        np.testing.assert_allclose(BracketField(X, Y)(x), expect, atol=1e-12)

    def test_three_dimensional_chain(self):
        X = ExprVectorField.from_text("x2, x3, 0", 3)
        Y = ExprVectorField.from_text("0, 0, x1", 3)
        x = [0.5, -1.5, 2.5]
        np.testing.assert_allclose(BracketField(X, Y)(x), [0.0, -0.5, -1.5], atol=1e-14)

    def test_one_walk_of_y_gives_the_two_walk_bits(self):
        # Y(x) is read off the jet walk of Y along X(x): coefficient 0 is the plain value
        X = ExprVectorField.from_text("x2/3 - x1^-2, exp(x1)*cos(x2)", 2)
        Y = ExprVectorField.from_text("(2 - sin(x1*x2)^3)/7, (x1 - 0.7)/(1.5 + x2^2) - x2^4", 2)
        rng = np.random.default_rng(5)
        for x in np.concatenate([rng.standard_normal((20, 2)) * scale for scale in (1e-3, 1.0, 10.0)]):
            xs = list(x)
            dy_x = liecalc._along(Y, xs, X.eval(xs))
            dx_y = liecalc._along(X, xs, Y.eval(xs))
            two_walks = [coeff(a, 1) - coeff(b, 1) for a, b in zip(dy_x, dx_y)]
            assert [float.hex(float(v)) for v in BracketField(X, Y).eval(xs)] == [
                float.hex(float(v)) for v in two_walks
            ]
            assert [float.hex(float(coeff(w, 0))) for w in dy_x] == [float.hex(float(v)) for v in Y.eval(xs)]

    def test_dimension_mismatch(self):
        X = ExprVectorField.from_text("x1", 1)
        Y = ExprVectorField.from_text("x1, x2", 2)
        with pytest.raises(ValueError):
            BracketField(X, Y)


class TestBracketProperties:
    def test_antisymmetry_random(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            dim = int(rng.integers(2, 5))
            X = rand_poly_field(rng, dim)
            Y = rand_poly_field(rng, dim)
            fwd = BracketField(X, Y)
            bwd = BracketField(Y, X)
            for _ in range(10):
                x = rng.uniform(-0.9, 0.9, dim)
                np.testing.assert_allclose(fwd(x) + bwd(x), np.zeros(dim), atol=1e-10)

    def test_jacobi_identity_random(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            dim = int(rng.integers(2, 5))
            X, Y, Z = (rand_poly_field(rng, dim) for _ in range(3))
            t1 = BracketField(X, BracketField(Y, Z))
            t2 = BracketField(Y, BracketField(Z, X))
            t3 = BracketField(Z, BracketField(X, Y))
            for _ in range(5):
                x = rng.uniform(-0.9, 0.9, dim)
                total = t1(x) + t2(x) + t3(x)
                np.testing.assert_allclose(total, np.zeros(dim), atol=1e-8)

    def test_leibniz_product_rule(self):
        rng = np.random.default_rng(17)
        names = coord_names(2)
        V = ExprScalarField(parse_scalar("x1^2 + sin(x2)", names), 2)
        W = ExprScalarField(parse_scalar("x2^3 - x1*x2", names), 2)
        VW = ExprScalarField(Mul(V.expr, W.expr), 2)
        X = rand_poly_field(rng, 2)
        for _ in range(10):
            x = rng.uniform(-0.9, 0.9, 2)
            lhs = LieDerivative(X, VW)(x)
            rhs = LieDerivative(X, V)(x) * W(x) + V(x) * LieDerivative(X, W)(x)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


class TestLieDerivatives:
    def test_radial_decay(self):
        V = ExprScalarField.from_text("0.5*x1^2 + 0.5*x2^2", 2)
        X = ExprVectorField.from_text("-x1, -x2", 2)
        x = np.array([0.6, -0.8])
        assert LieDerivative(X, V)(x) == pytest.approx(-1.0, abs=1e-14)

    def test_iterated_integrator(self):
        f = ExprVectorField.from_text("x2, 0", 2)
        V = ExprScalarField.from_text("0.5*x1^2", 2)
        fV = LieDerivative(f, V)
        f2V = LieDerivative(f, fV)
        assert fV([2.0, 3.0]) == pytest.approx(6.0)
        assert f2V([2.0, 3.0]) == pytest.approx(9.0)

    def test_gradient_matches_finite_differences(self):
        V = ExprScalarField.from_text("exp(x1)*sin(x2) + x1*x2^2", 2)
        x = np.array([0.4, -1.1])
        g = gradient(V, x)
        h = 6e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (V(x + e) - V(x - e)) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6 * (1 + abs(fd))


class TestBracketTrees:
    def test_orders(self):
        assert bracket_order("f") == 1
        assert bracket_order(("f", "g")) == 2
        assert bracket_order((("f", "g"), "g")) == 3

    def test_monomials_exclude_bare_input(self):
        monos = bracket_monomials(2)
        labels = {tree_label(t) for t in monos}
        assert labels == {"f", "[f,g]"}

    def test_monomials_order_three(self):
        labels = {tree_label(t) for t in bracket_monomials(3)}
        assert "g" not in labels
        assert "[f,[f,g]]" in labels or "[[f,g],f]" in labels
        assert all(bracket_order(t) <= 3 for t in bracket_monomials(3))


def integrator_system():
    f = ExprVectorField.from_text("x2, 0", 2)
    g = ExprVectorField.from_text("0, 1", 2)
    return AffineSystem(f, g)


class TestPointwiseChecker:
    def test_drift_decrease(self):
        V = ExprScalarField.from_text("0.5*x1^2", 2)
        rep = check_prop1_point(integrator_system(), V, [1.0, -1.0])
        assert rep.classification == FV_NEGATIVE
        assert rep.witnesses["fV"] == pytest.approx(-1.0)

    def test_odd_bracket_on_axis(self):
        V = ExprScalarField.from_text("0.5*x1^2", 2)
        rep = check_prop1_point(integrator_system(), V, [1.0, 0.0])
        assert rep.classification == ODD_BRACKET_NONZERO
        assert rep.n_used == 1
        assert rep.witnesses["[f,g]V"] == pytest.approx(-1.0)

    def test_input_derivative_nonzero(self):
        V = ExprScalarField.from_text("0.5*x1^2 + 0.5*x2^2", 2)
        rep = check_prop1_point(integrator_system(), V, [0.0, 1.0])
        assert rep.classification == GV_NONZERO
        assert rep.witnesses["gV"] == pytest.approx(1.0)

    def test_drift_power_negative(self):
        f = ExprVectorField.from_text("x2, -x1", 2)
        g = ExprVectorField.from_text("0, 1", 2)
        V = ExprScalarField.from_text("0.5*x1^2", 2)
        rep = check_prop1_point(AffineSystem(f, g), V, [1.0, 0.0])
        assert rep.classification == DRIFT_POWER_NEGATIVE
        assert rep.n_used == 1

    def test_even_bracket_negative(self):
        f = ExprVectorField.from_text("-x2^2, 0", 2)
        g = ExprVectorField.from_text("0, 1", 2)
        V = ExprScalarField.from_text("0.5*x1^2", 2)
        rep = check_prop1_point(AffineSystem(f, g), V, [1.0, 0.0])
        assert rep.classification == EVEN_BRACKET_NEGATIVE
        assert rep.n_used == 2

    def test_unclassifiable_point_fails(self):
        V = ExprScalarField.from_text("0.5*x1^2", 2)
        rep = check_prop1_point(integrator_system(), V, [1.0, 1.0])
        assert rep.classification == FAIL

    def test_nan_witness_fails_naming_its_clause(self):
        # fV and the drift powers overflow to NaN at this point; a NaN compares
        # false with its tolerance, so it must not pass as a vanished clause
        f = ExprVectorField.from_text("x1^3, 0", 2)
        g = ExprVectorField.from_text("0, x2", 2)
        V = ExprScalarField.from_text("x2*x1^2 + 0.5*x1^2", 2)
        with np.errstate(all="ignore"):
            rep = check_prop1_point(AffineSystem(f, g), V, [1e100, 0.0])
        assert rep.classification == FAIL
        assert rep.detail.startswith("fV: witness nan")
        assert list(rep.witnesses) == ["gV", "fV"]
        assert "ffV" not in rep.witnesses and "f^3V" not in rep.witnesses

    def test_non_finite_tolerance_fails(self, monkeypatch):
        evaluate = liecalc._eval_scaled
        monkeypatch.setattr(liecalc, "_eval_scaled", lambda ld, x: (evaluate(ld, x)[0], float("inf")))
        V = ExprScalarField.from_text("0.5*x1^2 + 0.5*x2^2", 2)
        rep = check_prop1_point(integrator_system(), V, [0.0, 1.0])
        assert rep.classification == FAIL
        assert rep.detail.startswith("gV: witness 1.0, tolerance inf")

    def test_division_by_zero_gives_ieee_values(self):
        # x1^2/x2 at x2 = 0: the witness is -inf with NumPy's warning, not a ZeroDivisionError
        V = ExprScalarField.from_text("0.5*x1^2 + 0.5*x2^2 + x1^2/x2", 2)
        with pytest.warns(RuntimeWarning, match="divide by zero encountered in scalar divide"):
            rep = check_prop1_point(integrator_system(), V, [1.0, 0.0])
        assert rep.classification == FAIL
        assert rep.witnesses == {"gV": -math.inf}
        assert rep.taus == {"gV": math.inf}
        assert rep.detail.startswith("gV: witness -inf")

    def test_rescaling_invariance(self):
        names = coord_names(2)
        V = ExprScalarField(parse_scalar("0.5*x1^2", names), 2)
        V2 = ExprScalarField(Mul(Const(2.0), parse_scalar("0.5*x1^2", names)), 2)
        for p in ([1.0, -1.0], [1.0, 0.0], [0.5, 0.25], [1.0, 1.0]):
            a = check_prop1_point(integrator_system(), V, p).classification
            b = check_prop1_point(integrator_system(), V2, p).classification
            assert a == b

    def test_origin_rejected(self):
        V = ExprScalarField.from_text("0.5*x1^2", 2)
        with pytest.raises(ValueError):
            check_prop1_point(integrator_system(), V, [0.0, 0.0])

    def test_each_named_derivative_evaluated_once(self, monkeypatch):
        # one walk per distinct tree: f^jV is the j-fold f clause, so f^1V reuses
        # the walk of fV, f^2V that of ffV and f^3V that of fffV
        f = ExprVectorField.from_text("x2^3, -x1^3", 2)
        g = ExprVectorField.from_text("0, x1^3", 2)
        V = ExprScalarField.from_text("0.25*x1^4 + 0.25*x2^4", 2)
        generators = {f: "f", g: "g"}

        def label(field):
            if isinstance(field, BracketField):
                return "[%s,%s]" % (label(field.X), label(field.Y))
            return generators[field]

        def spelled(ld):
            return label(ld.X) + (spelled(ld.V) if isinstance(ld.V, LieDerivative) else "V")

        calls = []
        evaluate = liecalc._eval_scaled
        monkeypatch.setattr(liecalc, "_eval_scaled", lambda ld, x: calls.append(spelled(ld)) or evaluate(ld, x))
        rep = check_prop1_point(AffineSystem(f, g), V, [0.0, 1.0], n_max=4)
        assert rep.classification == MIXED_BRACKET_NONZERO and rep.n_used == 3
        trees = [re.sub(r"^f\^(\d)V$", lambda m: "f" * int(m.group(1)) + "V", n) for n in rep.witnesses]
        assert len(trees) == 17 and len(set(trees)) == 14
        assert calls == list(dict.fromkeys(trees))

        # each drift power carries the bits of its j-fold clause and of the chain built apart
        W = V
        for j in range(1, 5):
            W = LieDerivative(f, W)
            want = tuple(map(float.hex, evaluate(W, [0.0, 1.0])))
            for name in ["f^%dV" % j] + (["f" * j + "V"] if j < 4 else []):
                assert (float.hex(rep.witnesses[name]), float.hex(rep.taus[name])) == want, name

    def test_each_bracket_valued_once_at_the_point(self, monkeypatch):
        # [f,g] is inside [f,g]V, [[f,g],g]V, [[f,g],f]V and more; at the point of one
        # check its value is formed once, and the next check forms it again
        f = ExprVectorField.from_text("x2^3, -x1^3", 2)
        g = ExprVectorField.from_text("0, x1^3", 2)
        V = ExprScalarField.from_text("0.25*x1^4 + 0.25*x2^4", 2)
        at_point = []
        evaluate = BracketField.eval

        def counted(field, coords):
            if not any(isinstance(c, Jet) for c in coords):
                at_point.append(repr(field))
            return evaluate(field, coords)

        monkeypatch.setattr(BracketField, "eval", counted)
        reports = [check_prop1_point(AffineSystem(f, g), V, [0.0, 1.0], n_max=4) for _ in range(2)]
        counts = Counter(at_point)
        assert len(counts) >= 5 and set(counts.values()) == {2}
        assert reports[0].witnesses == reports[1].witnesses

    def test_n_max_validated(self):
        V = ExprScalarField.from_text("0.5*x1^2", 2)
        for n_max in (0, 5, 7):
            with pytest.raises(ValueError):
                check_prop1_point(integrator_system(), V, [1.0, 0.0], n_max=n_max)

    def test_clause_sequences_are_the_generators_output(self):
        for n_max in range(1, 5):
            monomials = bracket_monomials(n_max)
            for N in range(1, n_max + 1):
                cached = liecalc._clause_sequences(n_max, N)
                seqs = list(liecalc._monomial_sequences([m for m in monomials if bracket_order(m) <= N], N))
                assert isinstance(cached, tuple) and all(isinstance(c, tuple) for c in cached)
                assert [seq for seq, _ in cached] == seqs
                assert [name for _, name in cached] == ["".join(tree_label(t) for t in s) + "V" for s in seqs]
                assert liecalc._clause_sequences(n_max, N) is cached


class TestIntegratorFormChecker:
    def setup_method(self):
        self.F = ExprVectorField.from_text("y", 1, with_y=True)
        self.V = ExprScalarField.from_text("0.5*x1^2", 1)
        self.W = ExprScalarField.from_text("0.5*y^2", 1, with_y=True)

    def test_strict_decrease(self):
        rep = check_corollary1_point(self.F, self.V, self.W, "D1", [1.0, -1.0])
        assert rep.classification == VDOT_NEGATIVE
        assert rep.witnesses["DV·F"] == pytest.approx(-1.0)

    def test_bracket_clause_on_axis(self):
        rep = check_corollary1_point(self.F, self.V, self.W, "D1", [1.0, 0.0])
        assert rep.classification == VDOT_ZERO_YDIR_NONZERO
        assert rep.witnesses["DV·dF/dy"] == pytest.approx(1.0)

    def test_second_region_clause(self):
        rep = check_corollary1_point(self.F, self.V, self.W, "D2", [0.0, 1.0])
        assert rep.classification == WY_NONZERO
        assert rep.witnesses["dW/dy"] == pytest.approx(1.0)
        assert rep.witnesses["W"] == pytest.approx(0.5)

    def test_increase_direction_fails(self):
        rep = check_corollary1_point(self.F, self.V, self.W, "D1", [1.0, 1.0])
        assert rep.classification == FAIL

    def test_vanishing_x_part_fails_first_region(self):
        rep = check_corollary1_point(self.F, self.V, self.W, "D1", [0.0, 1.0])
        assert rep.classification == FAIL

    def test_nan_y_derivative_fails_naming_it(self):
        # y^3 - y^3 is inf - inf = NaN at y = 1e200, and so is the tolerance;
        # a NaN compares false with its tolerance, so it must not count as nonzero
        W = ExprScalarField.from_text("y^3 - y^3 + y", 1, with_y=True)
        with np.errstate(all="ignore"):
            rep = check_corollary1_point(self.F, self.V, W, "D2", [0.5, 1e200])
        assert rep.classification == FAIL
        assert rep.detail.startswith("dW/dy: witness nan, tolerance nan")
        assert list(rep.witnesses) == ["dW/dy"]

    def test_nan_decrease_witness_fails_naming_it(self):
        # x1^3 - x1^3 is inf - inf = NaN at x1 = 1e200, so DV·F and its tolerance are NaN
        V = ExprScalarField.from_text("x1^3 - x1^3 + 0.5*x1^2", 1)
        with np.errstate(all="ignore"):
            rep = check_corollary1_point(self.F, V, self.W, "D1", [1e200, 1.0])
        assert rep.classification == FAIL
        assert rep.detail.startswith("DV·F: witness nan, tolerance nan")
        assert list(rep.witnesses) == ["DV·F"]

    def test_nan_y_derivative_of_the_decrease_fails_naming_it(self):
        # F = 1/y - 1/y vanishes at y = 1e-300, but its y-derivative is -inf + inf
        F = ExprVectorField.from_text("1/y - 1/y", 1, with_y=True)
        with np.errstate(all="ignore"):
            rep = check_corollary1_point(F, self.V, self.W, "D1", [1.0, 1e-300])
        assert rep.classification == FAIL
        assert rep.witnesses["DV·F"] == 0.0
        assert rep.detail.startswith("DV·dF/dy: witness nan, tolerance nan")

    def test_flat_w_fails_second_region(self):
        W_flat = ExprScalarField.from_text("0.5*x1^2", 1, with_y=True)
        rep = check_corollary1_point(self.F, self.V, W_flat, "D2", [1.0, 1.0])
        assert rep.classification == FAIL

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            check_corollary1_point(self.F, self.V, self.W, "D2", [0.0, 0.0])

    def test_region_name_validated(self):
        with pytest.raises(ValueError):
            check_corollary1_point(self.F, self.V, self.W, "D3", [1.0, 0.0])

    def test_decrease_witness_of_a_signed_zero_product_is_plus_zero(self):
        # DV·F is -2.0 * 0.0 here; NumPy's dot product, which the check keeps, adds it to +0.0
        rep = check_corollary1_point(self.F, self.V, self.W, "D1", [-2.0, 0.0])
        assert rep.classification == VDOT_ZERO_YDIR_NONZERO
        assert float.hex(rep.witnesses["DV·F"]) == "0x0.0p+0"


def array_formula(F, V, p):
    """(witness, tolerance) of the integrator-form clauses from the gradient walk on unit-row arrays."""
    n = V.dim
    ps = [float(c) for c in p]
    dv = np.empty(n)
    dv[:] = coeff(liecalc._along(V, ps[:n], np.eye(n)), 1)
    fxy = np.array(F(p))
    dfdy = np.array([float(coeff(w, 1)) for w in liecalc._along(F, ps, [0.0] * n + [1.0])])
    return dv, {
        name: (float(dv @ u), liecalc.ZERO_TOL * (1.0 + float(abs(dv).max()) + float(abs(u).max())))
        for name, u in (("DV·F", fxy), ("DV·dF/dy", dfdy))
    }


class TestIntegratorFormOnTwoStates:
    V = ExprScalarField.from_text("0.5*x1^2 + x1*x2 + x2^2", 2)
    W = ExprScalarField.from_text("0.5*y^2 + x1*y", 2, with_y=True)

    @pytest.mark.parametrize(
        "F, p, names",
        [
            ("y*(x1 - x2^2), y*sin(x1) + x1*x2*y^2", [0.7, -1.3, 0.4], ["DV·F"]),
            ("y*(x1 - x2^2), y*sin(x1) + x1*x2*y^2", [-0.3, 1.1, -0.9], ["DV·F"]),
            # F vanishes at y = 0, so the y-derivative clause decides
            ("y*(x1 - x2^2), y*sin(x1) + x1*x2*y^2", [0.7, -1.3, 0.0], ["DV·F", "DV·dF/dy"]),
            # the second entry of F is inf - inf = NaN, after a first entry of -inf
            ("y*(x1 - x2^2), x2^3 - x2^3", [1.0, 1e200, 0.5], ["DV·F"]),
            # F vanishes, and the second entry of dF/dy is -inf + inf = NaN after a finite one
            ("y*x1, 1/y - 1/y", [1.0, 2.0, 1e-300], ["DV·F", "DV·dF/dy"]),
        ],
    )
    def test_float_check_keeps_the_bits_of_the_array_formula(self, F, p, names):
        F = ExprVectorField.from_text(F, 2, with_y=True)
        with np.errstate(all="ignore"):
            rep = check_corollary1_point(F, self.V, self.W, "D1", p)
            dv, want = array_formula(F, self.V, p)
            assert list(map(float.hex, gradient(self.V, p[:2]))) == list(map(float.hex, dv.tolist()))
        assert list(rep.witnesses) == names
        for name in names:
            got = (rep.witnesses[name], rep.taus[name])
            assert tuple(map(float.hex, got)) == tuple(map(float.hex, want[name])), name
        if any(map(math.isnan, rep.witnesses.values())):
            assert rep.classification == FAIL and math.isnan(rep.taus[names[-1]])


# SHA-256 of every witness, tau, label and n_used of three reports on the 41x41
# extent-2 grid below; the benchmark gate compares labels only, so this pins the bits
WITNESS_SHA256 = "84c0a0ef61364b14952bb7e4df2abfc0b9c6a0e3b69cd59d0de2ccff46104e56"


def witness_digest():
    axis = np.linspace(-2.0, 2.0, 41)
    axis[20] = 0.0
    entry = registry.double_integrator()
    inline = AffineSystem(
        ExprVectorField.from_text("x2^3, -x1^3", 2), ExprVectorField.from_text("0, x1^3", 2)
    )
    V = ExprScalarField.from_text("0.25*x1^4 + 0.25*x2^4", 2)
    h = hashlib.sha256()
    for a in axis:
        for b in axis:
            if a == 0.0 and b == 0.0:
                continue
            p = np.array([a, b])
            for rep in (
                entry.classify(p, n_max=4),
                entry.classify_integrator_form(p),
                check_prop1_point(inline, V, p, n_max=4),
            ):
                for name, w in rep.witnesses.items():
                    row = (rep.classification, name, float.hex(w), float.hex(rep.taus[name]), rep.n_used)
                    h.update(repr(row).encode())
                h.update(repr((rep.classification, rep.n_used)).encode())
    return h.hexdigest()


def test_witnesses_keep_their_bits():
    assert witness_digest() == WITNESS_SHA256
