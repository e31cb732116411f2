"""Scalar expressions on phase-space charts.

Expressions are parsed from a small arithmetic grammar and evaluated over
plain floats or over dual scalars that carry exact first (and optionally
second) derivatives through every operation.  All derivative information
in the rest of the library flows through this module.

Grammar (ASCII, ^ is exponentiation):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Precedence is therefore ^ > unary minus > * / > + -, with ^ binding
right-associatively: 2^3^2 is 2^(3^2) = 512, and -x^2 is -(x^2).

Variable naming convention: q1..qn, p1..pn, plus t and z where the
geometry provides them.  The chart variable list is supplied by the
caller; any other identifier is rejected at parse time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression",
    "DualScalar",
    "DomainError",
    "UnknownVariable",
    "UnknownFunction",
    "parse",
    "evaluate",
    "jet",
    "gradient",
    "hessian",
    "value_and_derivatives",
    "serialize",
]


class DomainError(ValueError):
    """Evaluation left the real domain (log of non-positive, sqrt of
    negative, division by zero, non-integer power of a non-positive base,
    overflow).  The message names the offending subexpression."""


class UnknownVariable(ValueError):
    """Identifier is not among the chart variables (or is unbound)."""


class UnknownFunction(ValueError):
    """Call to a function outside the supported set."""


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True, slots=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Node"
    exponent: "Node"


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    arg: "Node"


Node = Const | Var | Neg | Add | Sub | Mul | Div | Pow | Call


@dataclass(frozen=True)
class Expression:
    """A parsed expression together with its variable context.

    free_vars lists the chart variables that actually occur, in chart
    order.  Instances are immutable and safe to share across threads.
    """

    ast: Node
    free_vars: tuple[str, ...]
    chart_vars: tuple[str, ...]

    def __str__(self):
        return serialize(self)


# ---------------------------------------------------------------------------
# Dual scalars


class DualScalar:
    """Forward-mode dual number: value, first partials d1, and (in
    second-order mode) the symmetric matrix d2 of second partials.

    d1 has one slot per active variable; d2 is None in first-order mode.
    Arithmetic implements the chain rule exactly, so derivatives are
    exact up to floating-point rounding.  d2 stays symmetric by
    construction: every update is a symmetric matrix plus a pair of
    mirrored outer products.
    """

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value, d1, d2=None):
        self.value = float(value)
        self.d1 = np.asarray(d1, dtype=float)
        self.d2 = None if d2 is None else np.asarray(d2, dtype=float)

    @staticmethod
    def seed(values, order=1):
        """Duals for a point: unit d1 vectors, zero d2 if order == 2."""
        values = np.asarray(values, dtype=float)
        m = values.size
        out = []
        for i in range(m):
            d1 = np.zeros(m)
            d1[i] = 1.0
            d2 = np.zeros((m, m)) if order == 2 else None
            out.append(DualScalar(values[i], d1, d2))
        return out

    # -- helpers ----------------------------------------------------------

    def _like(self, value, d1, d2):
        return DualScalar(value, d1, d2 if self.d2 is not None else None)

    @staticmethod
    def _coerce(x, template):
        if isinstance(x, DualScalar):
            return x
        m = template.d1.size
        d2 = np.zeros((m, m)) if template.d2 is not None else None
        return DualScalar(float(x), np.zeros(m), d2)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = DualScalar._coerce(other, self)
        d2 = None if self.d2 is None else self.d2 + o.d2
        return DualScalar(self.value + o.value, self.d1 + o.d1, d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = DualScalar._coerce(other, self)
        d2 = None if self.d2 is None else self.d2 - o.d2
        return DualScalar(self.value - o.value, self.d1 - o.d1, d2)

    def __rsub__(self, other):
        o = DualScalar._coerce(other, self)
        return o - self

    def __mul__(self, other):
        o = DualScalar._coerce(other, self)
        d1 = self.d1 * o.value + o.d1 * self.value
        d2 = None
        if self.d2 is not None:
            d2 = (self.d2 * o.value + o.d2 * self.value
                  + np.outer(self.d1, o.d1) + np.outer(o.d1, self.d1))
        return DualScalar(self.value * o.value, d1, d2)

    __rmul__ = __mul__

    def _reciprocal(self):
        if self.value == 0.0:
            raise ZeroDivisionError("dual reciprocal of zero")
        v = self.value
        d1 = -self.d1 / (v * v)
        d2 = None
        if self.d2 is not None:
            d2 = -self.d2 / (v * v) + (np.outer(self.d1, self.d1)
                                       + np.outer(self.d1, self.d1)) / (v ** 3)
        return DualScalar(1.0 / v, d1, d2)

    def __truediv__(self, other):
        o = DualScalar._coerce(other, self)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        o = DualScalar._coerce(other, self)
        return o * self._reciprocal()

    def __neg__(self):
        d2 = None if self.d2 is None else -self.d2
        return DualScalar(-self.value, -self.d1, d2)

    def __pow__(self, k):
        """Power with a constant real exponent.

        Integer k is valid for any base (except 0 with k < 0); a
        non-integer k requires a strictly positive base.
        """
        if isinstance(k, DualScalar):
            raise TypeError("dual exponents go through exp/log")
        kf = float(k)
        v = self.value
        if kf == 0.0:
            m = self.d1.size
            d2 = np.zeros((m, m)) if self.d2 is not None else None
            return DualScalar(1.0, np.zeros(m), d2)
        if kf.is_integer():
            ki = int(kf)
            if v == 0.0 and ki < 0:
                raise ZeroDivisionError("zero base with negative exponent")
            val = v ** ki
            c1 = float(ki) * v ** (ki - 1)
            d1 = c1 * self.d1
            d2 = None
            if self.d2 is not None:
                # ki == 1 would hit 0**-1 at v = 0; the coefficient is 0 anyway
                c2 = float(ki * (ki - 1)) * v ** (ki - 2) if ki != 1 else 0.0
                d2 = c1 * self.d2 + c2 * np.outer(self.d1, self.d1)
            return DualScalar(val, d1, d2)
        if v <= 0.0:
            raise ValueError("non-integer power of a non-positive base")
        val = v ** kf
        c1 = kf * v ** (kf - 1.0)
        d1 = c1 * self.d1
        d2 = None
        if self.d2 is not None:
            c2 = kf * (kf - 1.0) * v ** (kf - 2.0)
            d2 = c1 * self.d2 + c2 * np.outer(self.d1, self.d1)
        return DualScalar(val, d1, d2)

    def _apply(self, val, c1, c2):
        """Lift a scalar function through the chain rule: c1 = f'(v),
        c2 = f''(v) evaluated at self.value."""
        d1 = c1 * self.d1
        d2 = None
        if self.d2 is not None:
            d2 = c1 * self.d2 + c2 * np.outer(self.d1, self.d1)
        return DualScalar(val, d1, d2)

    def __repr__(self):
        return f"DualScalar({self.value!r}, d1={self.d1!r}, d2={self.d2!r})"


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh")


def _tokenize(source):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip pure whitespace tail
            if source[pos:].strip() == "":
                break
            raise SyntaxError(f"unexpected character {source[pos:].lstrip()[0]!r} at position {pos}")
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source, chart_vars):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        self.chart_vars = tuple(chart_vars)
        self.used = set()

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind == "op" and text == op:
            return self.advance()
        raise SyntaxError(f"expected {op!r} at position {pos}, found {text or 'end of input'!r}")

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise SyntaxError(f"unexpected {text!r} at position {pos}")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(base, self.unary())
        return base

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in _FUNCTIONS:
                    raise UnknownFunction(f"unknown function {text!r} at position {pos}")
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text not in self.chart_vars:
                raise UnknownVariable(f"unknown variable {text!r} at position {pos}")
            self.used.add(text)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise SyntaxError(f"expected a value at position {pos}, found {text or 'end of input'!r}")


def parse(source, chart_vars):
    """Parse source over the given ordered chart variables.

    Raises SyntaxError with position information, UnknownVariable for an
    identifier outside chart_vars, UnknownFunction for an unsupported
    call.  free_vars of the result is the subset of chart_vars actually
    used, in chart order.
    """
    if not str(source).strip():
        raise SyntaxError("empty expression")
    names = list(chart_vars)
    if len(set(names)) != len(names):
        raise ValueError("chart variables must be distinct")
    p = _Parser(str(source), names)
    ast = p.parse()
    free = tuple(v for v in names if v in p.used)
    return Expression(ast=ast, free_vars=free, chart_vars=tuple(names))


# ---------------------------------------------------------------------------
# Evaluation

# value, first derivative, second derivative at a point v
_FN_TABLE = {
    "sin": (math.sin, math.cos, lambda v: -math.sin(v)),
    "cos": (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v)),
    "tan": (math.tan, lambda v: 1.0 + math.tan(v) ** 2,
            lambda v: 2.0 * math.tan(v) * (1.0 + math.tan(v) ** 2)),
    "exp": (math.exp, math.exp, math.exp),
    "log": (math.log, lambda v: 1.0 / v, lambda v: -1.0 / (v * v)),
    "sqrt": (math.sqrt, lambda v: 0.5 / math.sqrt(v),
             lambda v: -0.25 / math.sqrt(v) ** 3),
    "sinh": (math.sinh, math.cosh, math.sinh),
    "cosh": (math.cosh, math.sinh, math.cosh),
}


def _val(x):
    return x.value if isinstance(x, DualScalar) else float(x)


def _domain_error(msg, node):
    return DomainError(f"{msg} in '{serialize(node)}'")


def _eval(node, env):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise UnknownVariable(f"unbound variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, Add):
        return _eval(node.left, env) + _eval(node.right, env)
    if isinstance(node, Sub):
        return _eval(node.left, env) - _eval(node.right, env)
    if isinstance(node, Mul):
        return _eval(node.left, env) * _eval(node.right, env)
    if isinstance(node, Div):
        num = _eval(node.left, env)
        den = _eval(node.right, env)
        if _val(den) == 0.0:
            raise _domain_error("division by zero", node)
        return num / den
    if isinstance(node, Pow):
        return _eval_pow(node, env)
    if isinstance(node, Call):
        return _eval_call(node, env)
    raise TypeError(f"not an expression node: {node!r}")


def _eval_pow(node, env):
    base = _eval(node.base, env)
    expo = _eval(node.exponent, env)
    bval = _val(base)
    try:
        if isinstance(expo, DualScalar):
            # variable exponent: u^w = exp(w*log(u)), needs u > 0
            if bval <= 0.0:
                raise _domain_error("variable power of a non-positive base", node)
            return _exp_any(expo * _log_any(base))
        ev = float(expo)
        if ev.is_integer():
            if bval == 0.0 and ev < 0.0:
                raise _domain_error("division by zero", node)
            if isinstance(base, DualScalar):
                return base ** int(ev)
            return bval ** int(ev)
        if bval <= 0.0:
            raise _domain_error("non-integer power of a non-positive base", node)
        if isinstance(base, DualScalar):
            return base ** ev
        return bval ** ev
    except OverflowError:
        raise _domain_error("overflow", node) from None


def _log_any(x):
    if isinstance(x, DualScalar):
        v = x.value
        return x._apply(math.log(v), 1.0 / v, -1.0 / (v * v))
    return math.log(x)


def _exp_any(x):
    if isinstance(x, DualScalar):
        e = math.exp(x.value)
        return x._apply(e, e, e)
    return math.exp(x)


def _eval_call(node, env):
    v = _eval(node.arg, env)
    vv = _val(v)
    name = node.func
    if name == "log" and vv <= 0.0:
        raise _domain_error("log of non-positive value", node)
    if name == "sqrt":
        if vv < 0.0:
            raise _domain_error("sqrt of negative value", node)
        if vv == 0.0 and isinstance(v, DualScalar):
            raise _domain_error("sqrt derivative at zero", node)
    f, f1, f2 = _FN_TABLE[name]
    try:
        if isinstance(v, DualScalar):
            return v._apply(f(vv), f1(vv), f2(vv))
        return f(vv)
    except OverflowError:
        raise _domain_error("overflow", node) from None


def evaluate(e, env):
    """Evaluate an Expression in an environment of floats/DualScalars.

    All names in e.free_vars must be bound.  Same environment gives a
    bit-identical result.
    """
    return _eval(e.ast, env)


def jet(e, point, order=2):
    """(value, gradient, hessian) of e at point (a sequence in chart
    order) in one dual sweep; partials run over *all* chart variables
    and vanish for absent ones.  hessian is None when order is 1."""
    point = np.asarray(point, dtype=float)
    m = len(e.chart_vars)
    if point.size != m:
        raise ValueError(f"point has {point.size} components, chart has {m}")
    out = _eval(e.ast, dict(zip(e.chart_vars, DualScalar.seed(point, order))))
    if isinstance(out, DualScalar):
        return out.value, out.d1, out.d2
    return float(out), np.zeros(m), np.zeros((m, m)) if order == 2 else None


def gradient(e, point):
    """First partials of e with respect to every chart variable."""
    return jet(e, point, order=1)[1]


def hessian(e, point):
    """Symmetric matrix of second partials over the chart variables."""
    return jet(e, point)[2]


def value_and_derivatives(e, point):
    """(value, gradient, hessian) in one second-order dual sweep."""
    return jet(e, point)


# ---------------------------------------------------------------------------
# Serialization

_LEVEL_ATOM = 5


def _level(node):
    if isinstance(node, (Add, Sub)):
        return 1
    if isinstance(node, (Mul, Div)):
        return 2
    if isinstance(node, Neg):
        return 3
    if isinstance(node, Pow):
        return 4
    return _LEVEL_ATOM


def _wrap(text, need):
    return f"({text})" if need else text


def _unparse(node):
    lvl = _level(node)
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_unparse(node.arg)})"
    if isinstance(node, Neg):
        inner = _unparse(node.arg)
        return "-" + _wrap(inner, _level(node.arg) < 3)
    if isinstance(node, Pow):
        base = _wrap(_unparse(node.base), _level(node.base) < _LEVEL_ATOM)
        expo = _wrap(_unparse(node.exponent), _level(node.exponent) < 3)
        return f"{base}^{expo}"
    ops = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
    op = ops[type(node)]
    left = _wrap(_unparse(node.left), _level(node.left) < lvl)
    right = _wrap(_unparse(node.right), _level(node.right) <= lvl)
    return f"{left}{op}{right}"


def serialize(e):
    """Canonical text form; parsing it back gives a structurally
    identical tree."""
    node = e.ast if isinstance(e, Expression) else e
    return _unparse(node)
