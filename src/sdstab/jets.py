"""Truncated Taylor-series (jet) arithmetic over one scalar ring.

A :class:`Jet` represents sum_k c_k t^k truncated at a fixed order. Any
value that is not a Jet is a scalar of the coefficient ring: a Python or
NumPy float, or a float array (one jet per array element, evaluated in a
single pass). Coefficients may themselves be Jets; nesting is what makes
iterated directional derivatives (and hence nested Lie brackets) work: to
differentiate a quantity that is itself a first-order jet, evaluate it with
coefficients that are jets in a second, independent parameter.

All binary operations between two jets require equal truncation order,
which holds by construction everywhere in this package. A scalar operand
acts as a constant jet. Integer powers are repeated products on every ring,
so a polynomial gives the same bits on an array as element by element;
so does ``exp``, which is NumPy's on scalars too (past the float range a
scalar raises ``OverflowError``, as :func:`math.exp` does). ``sin`` and
``cos`` use :mod:`math` on scalars and NumPy on arrays.
"""

import math
import sys

import numpy as np

_EXP_MAX = math.log(sys.float_info.max)  # the largest argument whose exp is finite


def lift(value, exemplar):
    """Embed the constant `value` into the coefficient ring of `exemplar`."""
    if isinstance(exemplar, Jet):
        c0 = exemplar.coeffs[0]
        rest = len(exemplar.coeffs) - 1
        return Jet([lift(value, c0)] + [lift(0.0, c0)] * rest)
    return value


class Jet:
    __slots__ = ("coeffs",)
    # a NumPy operand on the left defers to the Jet operation
    __array_ufunc__ = None

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("jet needs at least one coefficient")

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __repr__(self):
        return "Jet(%s)" % (list(self.coeffs),)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet([a + b for a, b in zip(self.coeffs, other.coeffs)])
        return Jet((self.coeffs[0] + other,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet([a - b for a, b in zip(self.coeffs, other.coeffs)])
        return Jet((self.coeffs[0] - other,) + self.coeffs[1:])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(len(a)):
            s = a[0] * b[k]
            for j in range(1, k + 1):
                s = s + a[j] * b[k - j]
            out.append(s)
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        p, q = self.coeffs, other.coeffs
        d = [p[0] / q[0]]
        for k in range(1, len(p)):
            acc = p[k]
            for j in range(k):
                acc = acc - d[j] * q[k - j]
            d.append(acc / q[0])
        return Jet(d)

    def __rtruediv__(self, other):
        return lift(other, self) / self


# -- elementary functions (work on every scalar of the ring and on jets) -------


def jexp(u):
    if not isinstance(u, Jet):
        if isinstance(u, np.ndarray):
            return np.exp(u)
        # math.exp differs from NumPy's exp in the last bit on some arguments
        if _EXP_MAX < u < math.inf:
            raise OverflowError("math range error")
        return float(np.exp(u))
    cs = u.coeffs
    e = [jexp(cs[0])]
    for k in range(1, len(cs)):
        acc = cs[1] * e[k - 1]
        for j in range(2, k + 1):
            acc = acc + (cs[j] * e[k - j]) * float(j)
        e.append(acc * (1.0 / k))
    return Jet(e)


def _sincos(u):
    cs = u.coeffs
    s = [jsin(cs[0])]
    c = [jcos(cs[0])]
    for k in range(1, len(cs)):
        sa = cs[1] * c[k - 1]
        ca = cs[1] * s[k - 1]
        for j in range(2, k + 1):
            sa = sa + (cs[j] * c[k - j]) * float(j)
            ca = ca + (cs[j] * s[k - j]) * float(j)
        s.append(sa * (1.0 / k))
        c.append(ca * (-1.0 / k))
    return Jet(s), Jet(c)


def jsin(u):
    if not isinstance(u, Jet):
        return np.sin(u) if isinstance(u, np.ndarray) else math.sin(u)
    return _sincos(u)[0]


def jcos(u):
    if not isinstance(u, Jet):
        return np.cos(u) if isinstance(u, np.ndarray) else math.cos(u)
    return _sincos(u)[1]


def jpow(u, p):
    """Integer power by repeated squaring; negative powers via reciprocal."""
    if not isinstance(p, int):
        raise ValueError("jet powers must have integer exponents")
    if p == 0:
        return lift(1.0, u)
    if p < 0:
        return lift(1.0, u) / jpow(u, -p)
    acc = None
    base = u
    n = p
    while n:
        if n & 1:
            acc = base if acc is None else acc * base
        n >>= 1
        if n:
            base = base * base
    return acc


# -- extraction helpers ------------------------------------------------------


def coeff(w, k):
    """k-th Taylor coefficient of `w`; a scalar is a constant jet."""
    if isinstance(w, Jet):
        return w.coeffs[k]
    return w if k == 0 else 0.0


def magnitude(w):
    """Largest absolute value among all (nested) coefficients of `w`."""
    if isinstance(w, Jet):
        return max(magnitude(c) for c in w.coeffs)
    return abs(w)
