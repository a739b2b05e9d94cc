"""Jet arithmetic against finite differences and closed-form series."""

import math

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
