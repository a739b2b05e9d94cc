"""Expression grammar: parsing, precedence, evaluation, error positions."""

import math

import numpy as np
import pytest

from sdstab.exprs import (
    ExprSyntaxError,
    coord_names,
    fold_constants,
    is_constant,
    parse_components,
    parse_constraints,
    parse_scalar,
)
from sdstab.jets import Jet

NAMES2 = coord_names(2)


def ev(text, *coords, names=None):
    return parse_scalar(text, names or NAMES2).eval(list(coords))


def test_precedence_and_unary_minus():
    assert ev("1 + 2*3", 0, 0) == 7.0
    assert ev("-2^2", 0, 0) == -4.0  # unary minus binds looser than the power
    assert ev("(1+1)^3", 0, 0) == 8.0
    assert ev("2 - 3 - 4", 0, 0) == -5.0
    assert ev("12 / 3 / 2", 0, 0) == 2.0


def test_coordinates_and_functions():
    assert ev("x1*x2 + sin(x1)", 2.0, 3.0) == pytest.approx(6 + math.sin(2.0))
    assert ev("exp(-x1)", 1.0, 0.0) == pytest.approx(math.exp(-1))
    assert ev("cos(x2)^2 + sin(x2)^2", 0.0, 0.83) == pytest.approx(1.0)


def test_pow_function_form():
    assert ev("pow(x1, 3)", 2.0, 0.0) == 8.0
    assert ev("pow(x1 + 1, -1)", 1.0, 0.0) == 0.5


def test_scientific_numbers():
    assert ev("1e-3 + 2.5E2", 0, 0) == pytest.approx(250.001)


def test_y_coordinate_for_integrator_systems():
    names = coord_names(1, with_y=True)
    assert ev("0.5*y^2 + x1", 2.0, 3.0, names=names) == pytest.approx(6.5)


def test_vector_components():
    comps = parse_components("x2, -x1 + 1", NAMES2)
    assert [c.eval([3.0, 4.0]) for c in comps] == [4.0, -2.0]


def test_constraints_positive_inside():
    cons = parse_constraints("x1 > 0 && x1^2 + x2^2 < 4", NAMES2)
    inside = [c.eval([1.0, 0.5]) for c in cons]
    outside = [c.eval([-1.0, 0.5]) for c in cons]
    assert all(v > 0 for v in inside)
    assert not all(v > 0 for v in outside)


def test_unknown_name_reports_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_scalar("x1 + bogus", NAMES2)
    assert err.value.pos == 5


def test_trailing_garbage_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_scalar("x1 + 1 )", NAMES2)


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_scalar("x1^1.5", NAMES2)


@pytest.mark.parametrize("text, pos", [("1e999", 0), ("x1 + 2e400", 5), ("-1e309*x2", 1)])
def test_non_finite_literal_rejected(text, pos):
    with pytest.raises(ExprSyntaxError, match="number out of range") as err:
        parse_scalar(text, NAMES2)
    assert err.value.pos == pos


def test_largest_finite_literal_parses():
    node = parse_scalar("1.7976931348623157e308", NAMES2)
    assert node.eval([0.0, 0.0]) == 1.7976931348623157e308
    assert parse_scalar(repr(node), NAMES2).eval([0.0, 0.0]) == 1.7976931348623157e308


def test_unknown_function_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_scalar("tanh(x1)", NAMES2)


def test_constraint_needs_comparison():
    with pytest.raises(ExprSyntaxError):
        parse_constraints("x1 + 1", NAMES2)


def test_is_constant():
    names = ["x1", "x2"]
    assert is_constant(parse_scalar("-1", names))
    assert is_constant(parse_scalar("sin(2)^2 / (1 + 3)", names))
    assert not is_constant(parse_scalar("0 * x1", names))
    assert not is_constant(parse_scalar("pow(1 + x2, 2)", names))
    assert not is_constant(parse_scalar("-exp(x1)", names))


class TestFoldConstants:
    TEXTS = [
        "sin(x1)*(1/3)",
        "x2^2 - exp(2)*cos(1/7)*x1",
        "(1 + 2)^-2 / x1 + (-0)*x2",
        "x1/(3 - 1/3)^3",
    ]

    @pytest.mark.parametrize("text", TEXTS)
    def test_same_bits_on_floats_arrays_and_jets(self, text):
        tree = parse_scalar(text, NAMES2)
        folded = fold_constants(tree)
        assert repr(tree) == repr(parse_scalar(text, NAMES2))  # the input is not changed
        rng = np.random.default_rng(5)
        for x in rng.uniform(-3.0, 3.0, (50, 2)):
            xs = x.tolist()
            assert float.hex(folded.eval(xs)) == float.hex(tree.eval(xs))
            jets = [Jet([v, d]) for v, d in zip(xs, rng.normal(size=2).tolist())]
            got, want = folded.eval(jets), tree.eval(jets)
            assert [float.hex(float(c)) for c in got.coeffs] == [float.hex(float(c)) for c in want.coeffs]
        pts = list(rng.uniform(-3.0, 3.0, (2, 40)))
        assert np.array_equal(folded.eval(pts), tree.eval(pts))

    def test_constant_subtrees_become_constants(self):
        folded = fold_constants(parse_scalar("sin(x1)*(1/4) + (2 - 3)*x2", NAMES2))
        assert repr(folded) == "((sin(x1) * 0.25) + ((-1.0) * x2))"
        assert repr(fold_constants(parse_scalar("2^3", NAMES2))) == "8.0"

    @pytest.mark.parametrize("text", ["x1 + 1e300*1e300", "x1*(1e300*1e300 - 1e300*1e300)"])
    def test_nonfinite_constant_raises(self, text):
        with pytest.raises(ValueError, match="evaluates to"):
            fold_constants(parse_scalar(text, NAMES2))
