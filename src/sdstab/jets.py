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
acts as a constant jet, and dividing by one divides every coefficient.
Integer powers are repeated products on every ring, so a polynomial gives
the same bits on an array as element by element; so does ``exp``, which is
NumPy's on scalars too (past the float range a scalar raises
``OverflowError``, as :func:`math.exp` does). ``sin`` and ``cos`` use
:mod:`math` on scalars, where ±inf gives NaN, as NumPy does, without a
warning, and NumPy on arrays. Coefficient 0 of every
operation is the plain operation on coefficients 0, so coefficient 0 of a
jet evaluation is the plain evaluation, bit for bit.

Division is IEEE on every scalar. :func:`jdiv`, which jet division and the
``/`` of expression trees use, divides as Python does, and only where a
Python float meets a zero divisor divides again as a NumPy float: ``1/0``
is ``inf`` and ``0/0`` is NaN, with NumPy's ``RuntimeWarning`` (or
``FloatingPointError`` under :func:`numpy.errstate`), not a
``ZeroDivisionError``. Every other ring operation is the same IEEE
operation on Python floats and NumPy scalars, so a walk gives the same bits
on either; Python floats are faster, but only NumPy scalars warn (or raise)
on overflow.

Every jet the package builds is first order (``x + t·d``), so the ring
operations unroll that order: the same products and sums in the same order
as the general Cauchy loop, which higher orders still take. A first-order
square forms its slope ``a0*a1 + a1*a0`` as ``(a0*a1)*2.0``. That is exact:
products commute bitwise at every nesting level, and ``x + x == x*2.0`` in
IEEE arithmetic, overflow and signed zero included.
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

    def __repr__(self):
        return "Jet(%s)" % (list(self.coeffs),)

    # -- ring operations ---------------------------------------------------
    # First-order jets (the only order the package builds) take unrolled paths
    # that form the same products and sums, in the same order, as the loops.

    def __add__(self, other):
        a = self.coeffs
        if isinstance(other, Jet):
            b = other.coeffs
            if len(a) == 2:
                return _jet((a[0] + b[0], a[1] + b[1]))
            return _jet(tuple([x + y for x, y in zip(a, b)]))
        return _jet((a[0] + other,) + a[1:])

    __radd__ = __add__

    def __neg__(self):
        a = self.coeffs
        if len(a) == 2:
            return _jet((-a[0], -a[1]))
        return _jet(tuple([-c for c in a]))

    def __sub__(self, other):
        a = self.coeffs
        if isinstance(other, Jet):
            b = other.coeffs
            if len(a) == 2:
                return _jet((a[0] - b[0], a[1] - b[1]))
            return _jet(tuple([x - y for x, y in zip(a, b)]))
        return _jet((a[0] - other,) + a[1:])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self.coeffs
        if not isinstance(other, Jet):
            if len(a) == 2:
                return _jet((a[0] * other, a[1] * other))
            return _jet(tuple([c * other for c in a]))
        b = other.coeffs
        if len(a) == 2:
            return _jet((a[0] * b[0], a[0] * b[1] + a[1] * b[0]))
        out = []
        for k in range(len(a)):
            s = a[0] * b[k]
            for j in range(1, k + 1):
                s = s + a[j] * b[k - j]
            out.append(s)
        return _jet(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return _jet(tuple([jdiv(c, other) for c in self.coeffs]))
        p, q = self.coeffs, other.coeffs
        d = [jdiv(p[0], q[0])]
        for k in range(1, len(p)):
            acc = p[k]
            for j in range(k):
                acc = acc - d[j] * q[k - j]
            d.append(jdiv(acc, q[0]))
        return Jet(d)

    def __rtruediv__(self, other):
        return lift(other, self) / self


_new = object.__new__


def _jet(coeffs):
    """A Jet on a coefficient tuple built by a ring operation (no copy, no check)."""
    out = _new(Jet)
    out.coeffs = coeffs
    return out


# -- elementary functions (work on every scalar of the ring and on jets) -------


def jdiv(a, b):
    """a / b with IEEE results on every scalar (see the module notes on division)."""
    try:
        return a / b
    except ZeroDivisionError:  # only a Python float divided by zero gets here
        return np.float64(a) / b


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
        if isinstance(u, np.ndarray):
            return np.sin(u)
        try:
            return math.sin(u)
        except ValueError:  # +-inf: NumPy's NaN, without its warning
            return math.nan
    return _sincos(u)[0]


def jcos(u):
    if not isinstance(u, Jet):
        if isinstance(u, np.ndarray):
            return np.cos(u)
        try:
            return math.cos(u)
        except ValueError:  # +-inf: NumPy's NaN, without its warning
            return math.nan
    return _sincos(u)[1]


def jpow(u, p):
    """Integer power by repeated squaring; negative powers via reciprocal."""
    if not isinstance(p, int):
        raise ValueError("jet powers must have integer exponents")
    if p == 0:
        return lift(1.0, u)
    if p < 0:
        return jdiv(lift(1.0, u), jpow(u, -p))
    acc = None
    base = u
    n = p
    while n:
        if n & 1:
            acc = base if acc is None else acc * base
        n >>= 1
        if n:
            base = _square(base)
    return acc


def _square(u):
    """u * u, bit for bit; a first-order jet forms its slope as (a0*a1)*2.0 (see the module notes)."""
    if isinstance(u, Jet) and len(u.coeffs) == 2:
        a0, a1 = u.coeffs
        return _jet((_square(a0), (a0 * a1) * 2.0))
    return u * u


# -- extraction helpers ------------------------------------------------------


def coeff(w, k):
    """k-th Taylor coefficient of `w`; a scalar is a constant jet."""
    if isinstance(w, Jet):
        return w.coeffs[k]
    return w if k == 0 else 0.0


def magnitude(w):
    """Largest absolute value among all (nested) coefficients of `w`; NaN if any is NaN."""
    if isinstance(w, Jet):
        # max() would keep a NaN only where it came first
        m = 0.0
        for c in w.coeffs:
            v = magnitude(c)
            if v != v:
                return v
            if v > m:
                m = v
        return m
    return abs(w)
