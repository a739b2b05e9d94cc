"""Property tests: random expression trees against independent oracles.

Trees over x1, x2 use ``+ - * / ^ sin cos exp``. Denominators and the bases
of negative powers have the form ``c + b*b`` with ``c >= 0.5``, so every
tree is smooth on the whole plane. The oracle is sympy: the tree is
rebuilt with exact rational constants, differentiated symbolically and
evaluated at 40 significant digits. Float results must agree to a
tolerance that grows with the largest intermediate value of the
evaluation, which bounds how far rounding errors can be amplified.

The sampling instants ``sampling_times(h, horizon)`` are checked against
their rules: 0 first, the horizon last, every inner instant ``k*h``.
"""

import math

import mpmath
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sdstab.exprs import (  # noqa: E402
    Add,
    Const,
    Div,
    Func,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    parse_scalar,
)
from sdstab.jets import Jet, coeff  # noqa: E402
from sdstab.liecalc import (  # noqa: E402
    BracketField,
    ExprScalarField,
    ExprVectorField,
    LieDerivative,
    _eval_scaled,
    gradient,
)
from sdstab.sdfctl import sampling_times  # noqa: E402

NAMES = ["x1", "x2"]
SYMBOLS = sympy.symbols("x1 x2")
EPS = np.finfo(float).eps
MAX_SIZE = 1e3  # examples with a larger intermediate value are discarded

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# -- trees ----------------------------------------------------------------------

coefficients = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
offsets = st.floats(0.5, 2.0)
leaves = st.one_of(st.just(Var(0, "x1")), st.just(Var(1, "x2")), coefficients.map(Const))


def _positive(b, c):
    return Add(Const(c), Mul(b, b))


def _branches(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(lambda a, b, c: Div(a, _positive(b, c)), children, children, offsets),
        st.builds(Pow, children, st.integers(0, 4)),
        st.builds(lambda b, c, k: Pow(_positive(b, c), -k), children, offsets, st.integers(1, 3)),
        st.builds(Neg, children),
        # one branch per function: a sampled name would mostly be the first
        *(st.builds(Func, st.just(name), children) for name in ("sin", "cos", "exp")),
    )


trees = st.recursive(leaves, _branches, max_leaves=8)
points = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
directions = st.tuples(st.floats(0.25, 1.5), st.floats(-1.5, -0.25))


def subtrees(t):
    yield t
    for slot in ("a", "b"):
        if hasattr(t, slot):
            yield from subtrees(getattr(t, slot))


def calls_sin_or_cos(t):
    return any(isinstance(s, Func) and s.name in ("sin", "cos") for s in subtrees(t))


def to_sympy(t):
    if isinstance(t, Const):
        return sympy.Rational(t.value)
    if isinstance(t, Var):
        return SYMBOLS[t.index]
    if isinstance(t, Neg):
        return -to_sympy(t.a)
    if isinstance(t, Pow):
        return to_sympy(t.a) ** t.exponent
    if isinstance(t, Func):
        return getattr(sympy, t.name)(to_sympy(t.a))
    a, b = to_sympy(t.a), to_sympy(t.b)
    return {Add: a + b, Sub: a - b, Mul: a * b, Div: a / b}[type(t)]


def exact(expr, p):
    """The sympy expression at the float point p, to 40 significant digits."""
    f = sympy.lambdify(SYMBOLS, expr, "mpmath")
    with mpmath.workdps(40):
        return float(f(mpmath.mpf(p[0]), mpmath.mpf(p[1])))


def size(w):
    """Largest absolute value among the (nested) coefficients of w."""
    if isinstance(w, Jet):
        return max(size(c) for c in w.coeffs)
    return float(np.max(np.abs(w)))


def unit_jets(p):
    return [Jet([np.float64(c), row]) for c, row in zip(p, np.eye(2))]


def largest_intermediate(ts, coords):
    """Largest value (and, on jets, derivative) met while evaluating the trees ts."""
    with np.errstate(all="ignore"):
        try:
            s = max(size(sub.eval(coords)) for t in ts for sub in subtrees(t))
        except OverflowError:  # math.exp past the float range
            s = math.inf
    assume(s <= MAX_SIZE)
    return s


def close(got, want, scale, power=2):
    return abs(got - want) <= 1e-11 * (1.0 + scale) ** power


# -- values and derivatives against sympy ------------------------------------------


@PROPERTY
@given(trees, points)
def test_values_match_sympy(t, p):
    s = largest_intermediate([t], [np.float64(c) for c in p])
    got = float(ExprScalarField(t, 2)(p))
    assert close(got, exact(to_sympy(t), p), s), repr(t)


@PROPERTY
@given(trees, points)
def test_one_walk_gradient_matches_sympy(t, p):
    s = largest_intermediate([t], unit_jets(p))
    got = gradient(ExprScalarField(t, 2), p)
    e = to_sympy(t)
    for i, x in enumerate(SYMBOLS):
        assert close(got[i], exact(sympy.diff(e, x), p), s), (repr(t), i)


@PROPERTY
@given(st.lists(trees, min_size=4, max_size=4), points)
def test_bracket_matches_sympy_jacobians(ts, p):
    s = largest_intermediate(ts, unit_jets(p))
    F, G = ExprVectorField(ts[:2], 2), ExprVectorField(ts[2:], 2)
    got = BracketField(F, G)(p)
    f = sympy.Matrix([to_sympy(t) for t in ts[:2]])
    g = sympy.Matrix([to_sympy(t) for t in ts[2:]])
    want = g.jacobian(SYMBOLS) * f - f.jacobian(SYMBOLS) * g
    for i in range(2):
        assert close(got[i], exact(want[i], p), s, power=3), (ts, i)


@PROPERTY
@given(st.lists(trees, min_size=3, max_size=3), points)
def test_iterated_lie_derivative_matches_sympy(ts, p):
    # fgV = D(DV·g)·f: the outer derivative runs on jets whose coefficients are jets
    s = largest_intermediate(ts, unit_jets(p))
    f, g = ExprVectorField(ts[1:], 2), ExprVectorField(ts[:0:-1], 2)
    got = LieDerivative(f, LieDerivative(g, ExprScalarField(ts[0], 2)))(p)
    v, a, b = (sympy.Matrix([to_sympy(t)]) for t in ts)
    gv = v.jacobian(SYMBOLS) * b.col_join(a)
    want = gv.jacobian(SYMBOLS) * a.col_join(b)
    assert close(got, exact(want[0], p), s, power=3), ts


@PROPERTY
@given(trees, points, directions)
def test_taylor_coefficients_along_a_line_match_sympy(t, p, d):
    # order-3 jets: coefficient k is the k-th derivative of t(p + r·d) in r at 0, over k!
    coords = [Jet([np.float64(c), np.float64(e), 0.0, 0.0]) for c, e in zip(p, d)]
    s = largest_intermediate([t], coords)
    w = t.eval(coords)
    r = sympy.Symbol("r")
    line = to_sympy(t).subs(
        {x: x + r * sympy.Rational(e) for x, e in zip(SYMBOLS, d)}, simultaneous=True
    )
    for k in range(4):
        want = sympy.diff(line, r, k).subs(r, 0) / sympy.factorial(k)
        assert close(float(coeff(w, k)), exact(want, p), s, power=k + 2), (repr(t), k)


# -- one walk over an array of points ---------------------------------------------


def per_point(fn, cols):
    return np.array([fn([np.float64(c) for c in pt]) for pt in zip(*cols)])


def assert_batch_equals_points(batch, pointwise, ts, s):
    batch = np.broadcast_to(batch, pointwise.shape)
    if any(calls_sin_or_cos(t) for t in ts):
        # sin and cos run NumPy's vector loops on arrays and math on scalars;
        # the two may differ in the last bit, and later operations carry that along
        np.testing.assert_allclose(batch, pointwise, rtol=0, atol=16 * EPS * (1.0 + s) ** 2)
    else:
        assert np.array_equal(batch, pointwise)


@PROPERTY
@given(trees, st.lists(points, min_size=1, max_size=16))
def test_batch_values_equal_per_point_values(t, pts):
    cols = [np.array(c) for c in zip(*pts)]
    s = max(largest_intermediate([t], [np.float64(c) for c in pt]) for pt in pts)
    batch = np.asarray(t.eval(cols), dtype=float)
    assert_batch_equals_points(batch, per_point(t.eval, cols), [t], s)


def _exp_branches(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Func, st.just("exp"), children),
    )


exp_trees = st.recursive(leaves, _exp_branches, max_leaves=6).map(lambda t: Func("exp", t))


@PROPERTY
@given(exp_trees, st.lists(points, min_size=1, max_size=16))
def test_exp_tree_keeps_its_bits_from_point_to_batch(t, pts):
    # exp is NumPy's on scalars and arrays alike, so a point evaluated alone
    # and the same point in a batch give the same bits
    cols = [np.array(c) for c in zip(*pts)]
    for pt in pts:  # discards examples that leave the float range
        largest_intermediate([t], [np.float64(c) for c in pt])
    batch = np.broadcast_to(t.eval(cols), (len(pts),))
    assert np.array_equal(batch, per_point(t.eval, cols)), repr(t)


@PROPERTY
@given(st.lists(trees, min_size=3, max_size=3), st.lists(points, min_size=1, max_size=16))
def test_batch_lie_derivative_equals_per_point(ts, pts):
    cols = [np.array(c) for c in zip(*pts)]
    s = max(largest_intermediate(ts, unit_jets(pt)) for pt in pts)
    ld = LieDerivative(ExprVectorField(ts[1:], 2), ExprScalarField(ts[0], 2))
    batch = np.asarray(ld.eval(cols), dtype=float)
    # a Lie derivative sums products of a derivative and a field value
    assert_batch_equals_points(batch, per_point(ld.eval, cols), ts, (1.0 + s) ** 2)


# -- Python floats and NumPy scalars at the leaves -----------------------------------

# any denominator and any power, so that a point may divide by zero or leave the float range
wild_leaves = st.one_of(
    st.just(Var(0, "x1")), st.just(Var(1, "x2")), st.sampled_from([0.0, -0.0, 1.0]).map(Const), leaves
)


def _wild_branches(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(-3, 4)),
        st.builds(Neg, children),
        *(st.builds(Func, st.just(name), children) for name in ("sin", "cos", "exp")),
    )


wild_trees = st.recursive(wild_leaves, _wild_branches, max_leaves=8)
# signed zeros, subnormals and values whose products overflow, besides ordinary ones
edge_coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-160, 1.3e154, -1e200, 1e308]),
    st.floats(-2.0, 2.0),
)


def scaled_bits(ld, coords):
    """float.hex of the witness and tolerance of ld at coords, or the exception raised."""
    try:
        with np.errstate(all="ignore"):
            return tuple(float.hex(v) for v in _eval_scaled(ld, coords))
    except (ArithmeticError, ValueError) as exc:  # exp past the float range, sin(inf)
        return type(exc).__name__


@PROPERTY
@given(st.lists(wild_trees, min_size=3, max_size=3), st.tuples(edge_coordinates, edge_coordinates))
def test_python_float_leaves_keep_the_numpy_bits(ts, p):
    # the pointwise checkers evaluate on Python floats; NaN hexes to 'nan' whatever its sign
    ld = LieDerivative(ExprVectorField(ts[1:], 2), ExprScalarField(ts[0], 2))
    assert scaled_bits(ld, list(p)) == scaled_bits(ld, [np.float64(c) for c in p]), (ts, p)


# -- the grammar ------------------------------------------------------------------


@PROPERTY
@given(trees, points)
def test_repr_parses_back_to_the_same_tree(t, p):
    back = parse_scalar(repr(t), NAMES)
    assert repr(back) == repr(t)
    coords = [np.float64(c) for c in p]
    with np.errstate(all="ignore"):
        try:
            want = t.eval(coords)
        except OverflowError:
            return
        assert np.array_equal(back.eval(coords), want, equal_nan=True)


# -- sampling instants ---------------------------------------------------------------

GAP = 1e-12  # instants before the horizon this close to it, or closer, give way to it


@st.composite
def steps_and_horizons(draw):
    """(h, horizon); the horizon is sometimes a multiple k*h, or within a few GAPs of one."""
    h = draw(st.floats(1e-3, 5.0))
    near = st.sampled_from([-2e-12, -5e-13, 0.0, 5e-13, 2e-12])
    near_grid = st.builds(lambda k, d: k * h + d, st.integers(1, 400), near)
    horizon = draw(st.one_of(st.floats(1e-15, 20.0), near_grid))
    return h, horizon


@settings(PROPERTY, max_examples=500)  # cheap examples; the cut-offs need many
@given(steps_and_horizons())
def test_partition_boundaries(case):
    h, horizon = case
    b = list(sampling_times(h, horizon))
    assert b[0] == 0.0 and b[-1] == horizon
    # every inner instant is k*h bit for bit: a product, not a running sum
    assert b[1:-1] == [k * h for k in range(1, len(b) - 1)]
    assert all(s < t for s, t in zip(b, b[1:]))
    # 0 is an instant whatever the horizon; no later one lies within GAP of it
    assert all(t < horizon - GAP for t in b[1:-1])
    # and the next multiple of h would not have been
    assert (len(b) - 1) * h >= horizon - GAP
