"""Closed-form expression trees and their plain-text infix grammar.

The expression language covers constants, coordinates, ``+ - * /``, unary
minus, ``sin``, ``cos``, ``exp`` and integer powers (``^`` or ``pow(e, k)``).
Trees evaluate on the one scalar ring of :mod:`sdstab.jets`: fed floats
they give values, fed float arrays they give the values at every point in
one walk, and fed jets (of floats or of arrays) they give directional
derivatives or higher-order Taylor coefficients. ``repr`` writes a tree in
the grammar, and parsing it back gives a tree with the same ``repr``.

Coordinates are named ``x1 .. xn`` plus an optional trailing ``y`` (used by
feedback-integrator systems where the control enters through an added
integrator state).

Region constraints reuse the grammar with strict inequalities joined by
``&&``: each ``lhs > rhs`` / ``lhs < rhs`` becomes a function that is
positive exactly on the open set it defines.
"""

import math
import re

from .jets import jcos, jdiv, jexp, jpow, jsin


class ExprSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# -- nodes -------------------------------------------------------------------


class Expr:
    __slots__ = ()

    def eval(self, coords):
        raise NotImplementedError


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def eval(self, coords):
        return self.value

    def __repr__(self):
        if math.copysign(1.0, self.value) < 0:
            return "(-%r)" % (-self.value,)  # the grammar has no signed literals
        return repr(self.value)


class Var(Expr):
    __slots__ = ("index", "name")

    def __init__(self, index, name):
        self.index = index
        self.name = name

    def eval(self, coords):
        return coords[self.index]

    def __repr__(self):
        return self.name


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __repr__(self):
        return "(%r %s %r)" % (self.a, self.symbol, self.b)


class Add(_Binary):
    symbol = "+"

    def eval(self, coords):
        return self.a.eval(coords) + self.b.eval(coords)


class Sub(_Binary):
    symbol = "-"

    def eval(self, coords):
        return self.a.eval(coords) - self.b.eval(coords)


class Mul(_Binary):
    symbol = "*"

    def eval(self, coords):
        return self.a.eval(coords) * self.b.eval(coords)


class Div(_Binary):
    symbol = "/"

    def eval(self, coords):
        return jdiv(self.a.eval(coords), self.b.eval(coords))


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a

    def eval(self, coords):
        return -self.a.eval(coords)

    def __repr__(self):
        return "(-%r)" % (self.a,)


class Pow(Expr):
    __slots__ = ("a", "exponent")

    def __init__(self, a, exponent):
        self.a = a
        self.exponent = int(exponent)

    def eval(self, coords):
        return jpow(self.a.eval(coords), self.exponent)

    def __repr__(self):
        return "(%r^%d)" % (self.a, self.exponent)


class Func(Expr):
    __slots__ = ("name", "a")
    _table = {"sin": jsin, "cos": jcos, "exp": jexp}

    def __init__(self, name, a):
        self.name = name
        self.a = a

    def eval(self, coords):
        return self._table[self.name](self.a.eval(coords))

    def __repr__(self):
        return "%s(%r)" % (self.name, self.a)


def is_constant(expr):
    """True when the tree names no coordinate."""
    if isinstance(expr, Var):
        return False
    return all(is_constant(getattr(expr, s)) for s in ("a", "b") if hasattr(expr, s))


# -- tokenizer / parser -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>&&|[-+*/^(),<>]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError("unexpected character %r" % text[pos:pos + 1], pos)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def coord_names(dim, with_y=False):
    """Standard coordinate naming: x1..xn, optionally followed by y."""
    names = ["x%d" % (i + 1) for i in range(dim)]
    if with_y:
        names.append("y")
    return names


class _Parser:
    def __init__(self, text, names):
        self.tokens = _tokenize(text)
        self.k = 0
        self.names = list(names)

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.advance()
        if val != value:
            raise ExprSyntaxError("expected %r, found %r" % (value, val or "end of input"), pos)

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            rhs = self.unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def unary(self):
        if self.peek()[1] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            node = Pow(node, self.integer())
        return node

    def integer(self):
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        kind, val, pos = self.advance()
        if kind != "num" or not re.fullmatch(r"\d+", val):
            raise ExprSyntaxError("exponent must be an integer", pos)
        return sign * int(val)

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise ExprSyntaxError("number out of range", pos)
            return Const(value)
        if kind == "ident":
            if self.peek()[1] == "(":
                return self.call(val, pos)
            try:
                idx = self.names.index(val)
            except ValueError:
                raise ExprSyntaxError(
                    "unknown name %r (coordinates: %s)" % (val, ", ".join(self.names)), pos
                ) from None
            return Var(idx, val)
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError("expected a value, found %r" % (val or "end of input"), pos)

    def call(self, name, pos):
        self.expect("(")
        if name == "pow":
            base = self.expr()
            self.expect(",")
            exponent = self.integer()
            self.expect(")")
            return Pow(base, exponent)
        if name not in Func._table:
            raise ExprSyntaxError("unknown function %r" % name, pos)
        arg = self.expr()
        self.expect(")")
        return Func(name, arg)

    def done(self):
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected trailing input %r" % val, pos)


def parse_scalar(text, names):
    """Parse one scalar expression over the given coordinate names."""
    p = _Parser(text, names)
    node = p.expr()
    p.done()
    return node


def parse_components(text, names):
    """Parse a comma-separated list of expressions (vector field components)."""
    p = _Parser(text, names)
    comps = [p.expr()]
    while p.peek()[1] == ",":
        p.advance()
        comps.append(p.expr())
    p.done()
    return comps


def parse_constraints(text, names):
    """Parse ``expr > expr && ...`` into positive-inside constraint trees."""
    p = _Parser(text, names)
    constraints = []
    while True:
        lhs = p.expr()
        kind, val, pos = p.advance()
        if val == ">":
            rhs = p.expr()
            constraints.append(Sub(lhs, rhs))
        elif val == "<":
            rhs = p.expr()
            constraints.append(Sub(rhs, lhs))
        else:
            raise ExprSyntaxError("expected '<' or '>', found %r" % (val or "end of input"), pos)
        if p.peek()[1] == "&&":
            p.advance()
            continue
        p.done()
        return constraints
