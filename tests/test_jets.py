"""Jet arithmetic against finite differences and closed-form series."""

import math
import warnings

import numpy as np
import pytest

from sdstab.jets import Jet, coeff, jcos, jexp, jpow, jsin, lift, magnitude


def test_polynomial_series_coefficients():
    # p(u) = u^2 + 3u along u(t) = 2 + t: p = 10 + 7t + t^2
    u = Jet([2.0, 1.0, 0.0])
    p = jpow(u, 2) + u * 3.0
    assert [c for c in p.coeffs] == [10.0, 7.0, 1.0]


def test_exp_series_matches_taylor():
    u = Jet([0.3, 1.0, 0.0, 0.0, 0.0])
    e = jexp(u)
    for k, c in enumerate(e.coeffs):
        assert c == pytest.approx(math.exp(0.3) / math.factorial(k), rel=1e-14)


def test_series_of_a_curved_argument():
    # u = 0.3 + t + t^2: exp(u) = e^0.3 (1 + t + 3/2 t^2 + 7/6 t^3 + ...),
    # sin(t + t^2) = t + t^2 - t^3/6 + ..., cos(t + t^2) = 1 - t^2/2 - t^3 + ...
    u = Jet([0.3, 1.0, 1.0, 0.0])
    np.testing.assert_allclose(jexp(u).coeffs, np.exp(0.3) * np.array([1, 1, 1.5, 7 / 6]), rtol=1e-15)
    v = Jet([0.0, 1.0, 1.0, 0.0])
    np.testing.assert_allclose(jsin(v).coeffs, [0, 1, 1, -1 / 6], atol=1e-15)
    np.testing.assert_allclose(jcos(v).coeffs, [1, 0, -0.5, -1], atol=1e-15)


def test_sin_cos_derivative_chain():
    u = Jet([0.7, 1.0, 0.0, 0.0])
    s, c = jsin(u), jcos(u)
    assert s.coeffs[1] == pytest.approx(math.cos(0.7), rel=1e-14)
    assert c.coeffs[1] == pytest.approx(-math.sin(0.7), rel=1e-14)
    assert s.coeffs[2] == pytest.approx(-math.sin(0.7) / 2, rel=1e-13)
    assert c.coeffs[2] == pytest.approx(-math.cos(0.7) / 2, rel=1e-13)


@pytest.mark.parametrize("func, plain", [(jsin, math.sin), (jcos, math.cos)], ids=["sin", "cos"])
@pytest.mark.parametrize("scalar", [float, np.float64], ids=["float", "numpy"])
def test_sin_and_cos_of_an_infinite_scalar_are_nan_without_a_warning(func, plain, scalar):
    # math raises at +-inf; the scalar ring gives NumPy's NaN there, without its warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [func(scalar(v)) for v in (np.inf, -np.inf, 0.5)]
    assert math.isnan(got[0]) and math.isnan(got[1])
    assert got[2] == plain(0.5)


def test_division_roundtrip():
    p = Jet([1.0, 2.0, 3.0, -1.0])
    q = Jet([2.0, 1.0, 0.5, 0.25])
    r = (p / q) * q
    np.testing.assert_allclose(r.coeffs, p.coeffs, rtol=1e-14)


def test_negative_power_is_reciprocal():
    u = Jet([2.0, 1.0, 0.0])
    r = jpow(u, -2) * jpow(u, 2)
    np.testing.assert_allclose(r.coeffs, [1.0, 0.0, 0.0], atol=1e-15)


def test_zero_power_is_one():
    u = Jet([3.0, 1.0])
    r = jpow(u, 0)
    assert r.coeffs == (1.0, 0.0)


@pytest.mark.parametrize("x0", [0.2, -1.3, 2.5])
def test_first_two_coefficients_match_central_differences(x0):
    def f(x):
        return math.exp(0.3 * x) * math.sin(x) + x**3

    def jet_f(u):
        return jexp(u * 0.3) * jsin(u) + jpow(u, 3)

    w = jet_f(Jet([x0, 1.0, 0.0]))
    h = abs(x0) * 6e-6 + 6e-6
    d1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
    d2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
    scale = 1.0 + abs(d1) + abs(d2)
    assert abs(w.coeffs[1] - d1) <= 1e-6 * scale
    assert abs(2 * w.coeffs[2] - d2) <= 1e-5 * scale


def test_nested_jets_give_mixed_partials():
    # F(a, b) = a^2 b: d2F/dadb = 2a, read from a jet in a whose coefficients are jets in b
    a0, b0 = 1.5, -0.75
    b = Jet([b0, 1.0])
    a = Jet([lift(a0, b), lift(1.0, b)])
    w = jpow(a, 2) * lift(0.0, b)  # warming check: zero times anything is zero
    assert magnitude(w) == 0.0
    w = jpow(a, 2) * Jet([b, lift(0.0, b)])
    mixed = coeff(coeff(w, 1), 1)
    assert mixed == pytest.approx(2 * a0, rel=1e-14)


def test_order_zero_jet_reproduces_plain_eval():
    u = Jet([1.1])
    assert jexp(u).coeffs[0] == pytest.approx(math.exp(1.1), rel=1e-15)
    assert jpow(u, 3).coeffs[0] == pytest.approx(1.1**3, rel=1e-15)


def test_coeff_and_magnitude_on_plain_numbers():
    assert coeff(2.5, 0) == 2.5
    assert coeff(2.5, 1) == 0.0
    assert magnitude(Jet([1.0, Jet([-3.0, 2.0])])) == 3.0


def test_magnitude_is_nan_wherever_the_nan_is():
    nan = float("nan")
    for w in (
        Jet([1.0, nan]),
        Jet([nan, 1.0]),
        Jet([Jet([2.0, 1.0]), Jet([-3.0, nan])]),
        Jet([Jet([nan, 1.0]), Jet([-3.0, 2.0])]),
        Jet([5.0, -2.0, nan]),
    ):
        assert math.isnan(magnitude(w))
    assert magnitude(Jet([-4.0, 1.0])) == magnitude(Jet([1.0, -4.0])) == 4.0
    assert magnitude(Jet([float("-inf"), 1.0])) == math.inf


# -- the ring against the general Cauchy loop, bit for bit ----------------------
# The reference operations below are the plain loops over coefficients that every
# order once took; the fast first-order paths must give the same IEEE results.

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1.7e308, 1.3e154, -2e-310, 1.0, -3.0]


def ref_add(u, v):
    if isinstance(u, Jet) and isinstance(v, Jet):
        return Jet([ref_add(a, b) for a, b in zip(u.coeffs, v.coeffs)])
    if isinstance(u, Jet):
        return Jet((ref_add(u.coeffs[0], v),) + u.coeffs[1:])
    if isinstance(v, Jet):
        return ref_add(v, u)
    return u + v


def ref_neg(u):
    return Jet([ref_neg(c) for c in u.coeffs]) if isinstance(u, Jet) else -u


def ref_sub(u, v):
    if isinstance(u, Jet) and isinstance(v, Jet):
        return Jet([ref_sub(a, b) for a, b in zip(u.coeffs, v.coeffs)])
    if isinstance(u, Jet):
        return Jet((ref_sub(u.coeffs[0], v),) + u.coeffs[1:])
    if isinstance(v, Jet):
        return ref_add(ref_neg(v), u)
    return u - v


def ref_mul(u, v):
    if isinstance(u, Jet) and isinstance(v, Jet):
        a, b = u.coeffs, v.coeffs
        out = []
        for k in range(len(a)):
            s = ref_mul(a[0], b[k])
            for j in range(1, k + 1):
                s = ref_add(s, ref_mul(a[j], b[k - j]))
            out.append(s)
        return Jet(out)
    if isinstance(u, Jet):
        return Jet([ref_mul(c, v) for c in u.coeffs])
    if isinstance(v, Jet):
        return ref_mul(v, u)
    return u * v


def ref_div(u, v):
    if isinstance(u, Jet) and isinstance(v, Jet):
        p, q = u.coeffs, v.coeffs
        d = [ref_div(p[0], q[0])]
        for k in range(1, len(p)):
            acc = p[k]
            for j in range(k):
                acc = ref_sub(acc, ref_mul(d[j], q[k - j]))
            d.append(ref_div(acc, q[0]))
        return Jet(d)
    if isinstance(u, Jet):
        return Jet([ref_div(c, v) for c in u.coeffs])
    if isinstance(v, Jet):
        return ref_div(lift(u, v), v)
    return np.divide(u, v)  # IEEE on every scalar: a Python float over zero too


def ref_pow(u, p):
    if p == 0:
        return lift(1.0, u)
    if p < 0:
        return ref_div(lift(1.0, u), ref_pow(u, -p))
    acc, base, n = None, u, p
    while n:
        if n & 1:
            acc = base if acc is None else ref_mul(acc, base)
        n >>= 1
        if n:
            base = ref_mul(base, base)
    return acc


def bits(w):
    """Nested float.hex of every coefficient (NaN reads 'nan' whatever its sign)."""
    if isinstance(w, Jet):
        return ("jet", [bits(c) for c in w.coeffs])
    if isinstance(w, np.ndarray):
        return ("array", w.shape, [float.hex(float(e)) for e in w.ravel()])
    return float.hex(float(w))


def outcome(fn, *args):
    try:
        with np.errstate(all="ignore"):
            return bits(fn(*args))
    except ArithmeticError as exc:
        return type(exc).__name__


def random_leaf(rng, arrays):
    def one():
        if rng.random() < 0.3:
            return SPECIAL[int(rng.integers(len(SPECIAL)))]
        return float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4))

    return np.array([one() for _ in range(3)]) if arrays else one()


def random_jet(rng, depth, arrays, order=1):
    """A jet of the given order whose coefficients are order-1 jets nested `depth` levels."""
    if depth < 0:
        return random_leaf(rng, arrays)
    return Jet([random_jet(rng, depth - 1, arrays) for _ in range(order + 1)])


@pytest.mark.parametrize("arrays", [False, True], ids=["floats", "arrays"])
@pytest.mark.parametrize("depth", range(5))
def test_first_order_ring_matches_the_loop_bitwise(depth, arrays):
    rng = np.random.default_rng(100 + 10 * depth + arrays)
    for _ in range(40 if depth < 3 else 10):
        u = random_jet(rng, depth, arrays)
        v = random_jet(rng, depth, arrays)
        s = random_leaf(rng, arrays)
        cases = [
            (lambda a, b: a + b, ref_add, u, v),
            (lambda a, b: a - b, ref_sub, u, v),
            (lambda a, b: a * b, ref_mul, u, v),
            (lambda a, b: a / b, ref_div, u, v),
            (lambda a, b: a + b, ref_add, u, s),
            (lambda a, b: a + b, ref_add, s, u),
            (lambda a, b: a - b, ref_sub, u, s),
            (lambda a, b: a - b, ref_sub, s, u),
            (lambda a, b: a * b, ref_mul, u, s),
            (lambda a, b: a * b, ref_mul, s, u),
            (lambda a, b: a / b, ref_div, u, s),
            (lambda a, b: a / b, ref_div, s, u),
        ]
        for op, ref, a, b in cases:
            assert outcome(op, a, b) == outcome(ref, a, b)
        assert outcome(lambda a: -a, u) == outcome(ref_neg, u)
        for p in range(-3, 7):
            assert outcome(jpow, u, p) == outcome(ref_pow, u, p), p


@pytest.mark.parametrize("order", [2, 3])
def test_higher_orders_keep_the_loop(order):
    rng = np.random.default_rng(order)
    for arrays in (False, True):
        for depth in (-1, 0, 1):
            u = random_jet(rng, depth, arrays, order=order) if depth >= 0 else Jet(
                [random_leaf(rng, arrays) for _ in range(order + 1)]
            )
            v = Jet([random_jet(rng, depth - 1, arrays) for _ in range(order + 1)])
            s = random_leaf(rng, arrays)
            for op, ref in ((lambda a, b: a + b, ref_add), (lambda a, b: a - b, ref_sub),
                            (lambda a, b: a * b, ref_mul), (lambda a, b: a / b, ref_div)):
                assert outcome(op, u, v) == outcome(ref, u, v)
                assert outcome(op, u, s) == outcome(ref, u, s)
                assert outcome(op, s, u) == outcome(ref, s, u)
            assert outcome(lambda a: -a, u) == outcome(ref_neg, u)
            for p in range(-3, 7):
                assert outcome(jpow, u, p) == outcome(ref_pow, u, p), p


def test_square_doubles_exactly_at_the_float_edges():
    # the slope of u*u is a0*a1 + a1*a0; the square forms it as (a0*a1)*2.0
    for a0 in SPECIAL:
        for a1 in SPECIAL:
            u = Jet([a0, a1])
            assert bits(jpow(u, 2)) == bits(ref_mul(u, u))


def test_public_constructor_still_checks():
    with pytest.raises(ValueError):
        Jet([])
