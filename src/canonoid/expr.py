"""Scalar expressions on phase-space charts.

Expressions are parsed from a small arithmetic grammar.  All derivative
information in the rest of the library flows through this module, from
one engine: vector forward mode over the sample axis (Griewank &
Walther, Evaluating Derivatives, 2nd ed., ch. 3 and 13).  On its first
evaluation at a given derivative order an expression is compiled into a
tree of closures, cached on the expression, that map a stack of N
points (N, m) to an array jet: the values (N,), the exact first partials
(N, m) and, at order 2, the second partials (N, m, m) over the m chart
variables.  jet() takes one point or a stack; evaluate(), gradient(),
hessian() and value_and_derivatives() are its one-point forms.

One point at order 0 or 1 takes a second target of the same compiler
(point_jet()): the same compile walk and builders with float ops in
place of the array ops, giving a float value and a tuple of float
partials.  A one-point sweep costs numpy's overhead per call, not
arithmetic, and the integrators make one per Runge-Kutta stage, so the
shape of the input selects the target.  Each float operation is the one
numpy performs on a row, so a point gives the numbers of its row in a
stacked sweep bit for bit.

Domain checks are masks over the stack (plain tests at one point): a
DomainError names the subexpression and the first failing row.
Overflow from finite input in a power, exp, sinh or cosh is a
DomainError too, while a product or sum that overflows gives inf, as
float arithmetic does, for the callers' finiteness guards to report.
The sweep itself never prints numpy floating-point warnings.

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

import collections
import functools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expression",
    "DomainError",
    "UnknownVariable",
    "UnknownFunction",
    "parse",
    "evaluate",
    "jet",
    "point_jet",
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

    @functools.cached_property
    def _kernels(self):
        """Compiled sweeps, filled on first use: the array sweeps keyed
        by derivative order, the one-point sweeps by ("point", order)."""
        return {}

    def __getstate__(self):
        # the compiled closures cannot be pickled; they are rebuilt
        state = dict(self.__dict__)
        state.pop("_kernels", None)
        return state


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
# Jets
#
# An expression is compiled once per target and derivative order into a
# tree of closures.  The array target maps a stack of points X of shape
# (N, m) to a jet (v, d1, d2): the values (N,), the first partials
# (N, m) and, at order 2, the second partials (N, m, m) over the m chart
# variables.  Below the requested order d1 and d2 are None.  A seeded
# variable carries a broadcastable (1, m) unit row as d1 and the float
# 0.0 as d2, and constant subtrees are folded into plain floats at
# compile time, so constants never allocate derivative arrays.  Every
# second-order update adds symmetric terms, so Hessians are symmetric
# to the last bit.
#
# The point target maps one point, a list of m Python floats, to a jet
# at order 0 or 1: v is a float, d1 a tuple of m floats and d2 None.
# On one point a sweep's cost is numpy's overhead per call on (1,)
# arrays, not arithmetic, so this target does the arithmetic on floats.
# Each of its ops does what the array op does to one row: the same
# float operations in the same order, x*x where numpy squares, and
# numpy's own ufuncs for the functions and the other powers, which
# libm's differ from in the last bit.  A point's jet therefore equals
# its row of a stacked sweep bit for bit.  Both targets share the
# compile walk, the builders and the folded constants.

# name: (f, f' from (v, f), f'' from (v, f, f'))
_FN_TABLE = {
    "sin": (np.sin, lambda v, f: np.cos(v), lambda v, f, d: -f),
    "cos": (np.cos, lambda v, f: -np.sin(v), lambda v, f, d: -f),
    "tan": (np.tan, lambda v, f: 1.0 + f * f, lambda v, f, d: 2.0 * f * d),
    "exp": (np.exp, lambda v, f: f, lambda v, f, d: f),
    "log": (np.log, lambda v, f: 1.0 / v, lambda v, f, d: -d * d),
    "sqrt": (np.sqrt, lambda v, f: 0.5 / f, lambda v, f, d: -0.5 * d / v),
    "sinh": (np.sinh, lambda v, f: np.cosh(v), lambda v, f, d: f),
    "cosh": (np.cosh, lambda v, f: np.sinh(v), lambda v, f, d: f),
}
# functions that can overflow on a finite argument
_OVERFLOWING = frozenset({"exp", "sinh", "cosh"})

# The ops of one target.  seed(j, m, order) builds the closure of chart
# variable j; the others map jets (and folded float constants) to jets.
_Ops = collections.namedtuple(
    "_Ops",
    "seed neg shift scale quot add sub mul div pow_const pow_var apply")


def _domain_error(msg, node, row):
    return DomainError(f"{msg} in '{serialize(node)}' at row {row}")


def _shift(a, c):
    return a[0] + c, a[1], a[2]


def _const_jet(c, order):
    return c, 0.0 if order else None, 0.0 if order == 2 else None


# -- array ops ----------------------------------------------------------------


def _forbid(bad, msg, node):
    """Raise DomainError at the first row where the mask bad is set."""
    if bad.any():
        raise _domain_error(msg, node, int(np.argmax(bad)))


def _check_overflow(val, node, *inputs):
    """An infinite or NaN value from finite inputs is an overflow."""
    # one dot product is finite unless some entry is inf or NaN (or
    # beyond 1e154, which the exact test below then clears)
    if math.isfinite(val @ val):
        return
    bad = ~np.isfinite(val)
    for x in inputs:
        bad &= np.isfinite(x)
    _forbid(bad, "overflow", node)


@functools.cache
def _unit_row(m, j):
    """d1 seed of chart variable j: a read-only view, which the kernel
    copies before handing it out."""
    row = np.eye(m)[j:j + 1]
    row.flags.writeable = False
    return row


def _seed(j, m, order):
    d1 = _unit_row(m, j) if order else None
    d2 = 0.0 if order == 2 else None
    return lambda X: (X[:, j], d1, d2)


def _outer2(a1, b1):
    """a1 b1^T + b1 a1^T per row, symmetric by construction."""
    o = a1[:, :, None] * b1[:, None, :]
    return o + o.transpose(0, 2, 1)


def _chain(a, val, c1, c2):
    """Jet of f(a) from val = f, c1 = f' and c2 = f'' at a's values
    (c2 is None below order 2); called at order >= 1."""
    _, d1, d2 = a
    g1 = d1 * c1[:, None]
    if d2 is None:
        return val, g1, None
    return val, g1, (d2 * c1[:, None, None]
                     + c2[:, None, None] * (d1[:, :, None] * d1[:, None, :]))


def _neg(a):
    v, d1, d2 = a
    return -v, None if d1 is None else -d1, None if d2 is None else -d2


def _scale(a, c):
    v, d1, d2 = a
    return v * c, None if d1 is None else d1 * c, None if d2 is None else d2 * c


def _quot(a, c):
    v, d1, d2 = a
    return v / c, None if d1 is None else d1 / c, None if d2 is None else d2 / c


def _add(a, b):
    (av, a1, a2), (bv, b1, b2) = a, b
    return (av + bv, None if a1 is None else a1 + b1,
            None if a2 is None else a2 + b2)


def _sub(a, b):
    (av, a1, a2), (bv, b1, b2) = a, b
    return (av - bv, None if a1 is None else a1 - b1,
            None if a2 is None else a2 - b2)


def _mul(a, b):
    (av, a1, a2), (bv, b1, b2) = a, b
    v = av * bv
    if a1 is None:
        return v, None, None
    ac, bc = av[:, None], bv[:, None]
    d1 = a1 * bc + b1 * ac
    if a2 is None:
        return v, d1, None
    return v, d1, a2 * bc[:, :, None] + b2 * ac[:, :, None] + _outer2(a1, b1)


def _div(a, b, node):
    """a / b for a jet b; a is a jet or a constant jet (c, 0.0, 0.0)."""
    (av, a1, a2), (bv, b1, b2) = a, b
    _forbid(bv == 0.0, "division by zero", node)
    q = av / bv
    if b1 is None:
        return q, None, None
    r = bv[:, None]
    q1 = (a1 - b1 * q[:, None]) / r
    if b2 is None:
        return q, q1, None
    return q, q1, (a2 - b2 * q[:, None, None] - _outer2(b1, q1)) / r[:, :, None]


def _power_coeff(v, c, e):
    """c * v**e, exactly zero when c is (never 0 * inf at v = 0)."""
    if c == 0.0:
        return np.zeros_like(v)
    return c * v if e == 1.0 else c * v ** e


def _pow_const(a, k, node):
    """a^k for a constant exponent k.  An integer k is valid for any
    base except 0 with k < 0; a non-integer k needs a positive base."""
    v, d1, d2 = a
    if not k.is_integer():
        _forbid(v <= 0.0, "non-integer power of a non-positive base", node)
    elif k < 0.0:
        _forbid(v == 0.0, "division by zero", node)
    val = v ** k
    _check_overflow(val, node, v)
    if d1 is None:
        return val, None, None
    c2 = None if d2 is None else _power_coeff(v, k * (k - 1.0), k - 2.0)
    return _chain(a, val, _power_coeff(v, k, k - 1.0), c2)


def _pow_var(a, b, node):
    """a^b for a variable exponent b; a is a jet or a float base.

    Values follow real powers: an integer-valued exponent allows any
    base but 0 with a negative exponent.  Derivatives in the exponent
    need a positive base everywhere."""
    const = type(a) is float
    av = a if const else a[0]
    bv, b1, b2 = b
    if b1 is None:
        whole = bv == np.floor(bv)
        zero = whole & (av == 0.0) & (bv < 0.0)
        bad = zero | (~whole & (av <= 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise _domain_error("division by zero" if zero[i] else
                                "non-integer power of a non-positive base",
                                node, i)
        val = np.power(av, bv)
        _check_overflow(val, node, av, bv)
        return val, None, None
    if const:
        if av <= 0.0:
            raise _domain_error("variable power of a non-positive base",
                                node, 0)
        p = _scale(b, math.log(av))
    else:
        _forbid(av <= 0.0, "variable power of a non-positive base", node)
        c2 = None if a[2] is None else -1.0 / (av * av)
        p = _mul(b, _chain(a, np.log(av), 1.0 / av, c2))
    val = np.power(av, bv)
    _check_overflow(val, node, av, bv)
    # a^b = exp(p) with p = b log a; every derivative of exp is val
    return _chain(p, val, val, None if b2 is None else val)


def _apply(a, node):
    v, d1, d2 = a
    name = node.func
    if name == "log":
        _forbid(v <= 0.0, "log of non-positive value", node)
    elif name == "sqrt":
        _forbid(v < 0.0, "sqrt of negative value", node)
        if d1 is not None:
            _forbid(v == 0.0, "sqrt derivative at zero", node)
    f, f1, f2 = _FN_TABLE[name]
    val = f(v)
    if name in _OVERFLOWING:
        _check_overflow(val, node, v)
    if d1 is None:
        return val, None, None
    c1 = f1(v, val)
    return _chain(a, val, c1, None if d2 is None else f2(v, val, c1))


_ARRAY = _Ops(seed=_seed, neg=_neg, shift=_shift, scale=_scale, quot=_quot,
              add=_add, sub=_sub, mul=_mul, div=_div, pow_const=_pow_const,
              pow_var=_pow_var, apply=_apply)


# -- point ops: one row of the array ops, on floats ---------------------------


def _f_check_overflow(val, node, *inputs):
    if not math.isfinite(val) and all(map(math.isfinite, inputs)):
        raise _domain_error("overflow", node, 0)


def _f_seed(j, m, order):
    d1 = tuple(float(i == j) for i in range(m)) if order else None
    return lambda x: (x[j], d1, None)


def _f_chain(a, val, c1):
    return val, tuple([x * c1 for x in a[1]]), None


def _f_neg(a):
    v, d1, _ = a
    return -v, None if d1 is None else tuple([-x for x in d1]), None


def _f_scale(a, c):
    v, d1, _ = a
    return v * c, None if d1 is None else tuple([x * c for x in d1]), None


def _f_quot(a, c):
    v, d1, _ = a
    return v / c, None if d1 is None else tuple([x / c for x in d1]), None


def _f_add(a, b):
    (av, a1, _), (bv, b1, _) = a, b
    return (av + bv, None if a1 is None else tuple(map(operator.add, a1, b1)),
            None)


def _f_sub(a, b):
    (av, a1, _), (bv, b1, _) = a, b
    return (av - bv, None if a1 is None else tuple(map(operator.sub, a1, b1)),
            None)


def _f_mul(a, b):
    (av, a1, _), (bv, b1, _) = a, b
    if a1 is None:
        return av * bv, None, None
    return av * bv, tuple([x * bv + y * av for x, y in zip(a1, b1)]), None


def _f_div(a, b, node):
    (av, a1, _), (bv, b1, _) = a, b
    if bv == 0.0:
        raise _domain_error("division by zero", node, 0)
    q = av / bv
    if b1 is None:
        return q, None, None
    if type(a1) is float:
        a1 = (a1,) * len(b1)   # a constant jet's 0.0
    return q, tuple([(x - y * q) / bv for x, y in zip(a1, b1)]), None


def _f_power(v, k):
    """What v ** k does to one entry of an array v for a float k: numpy
    squares at k = 2 (and special-cases a few other k)."""
    return v * v if k == 2.0 else float(np.power(v, k))


def _f_pow_const(a, k, node):
    v, d1, _ = a
    if k == 2.0:
        val = v * v   # numpy squares; no domain test applies
    else:
        if not k.is_integer():
            if v <= 0.0:
                raise _domain_error(
                    "non-integer power of a non-positive base", node, 0)
        elif k < 0.0 and v == 0.0:
            raise _domain_error("division by zero", node, 0)
        val = float(np.power(v, k))
    if not math.isfinite(val) and math.isfinite(v):
        raise _domain_error("overflow", node, 0)
    if d1 is None:
        return val, None, None
    # k v^(k-1), formed as _power_coeff forms it
    c1 = k * v if k == 2.0 else 0.0 if k == 0.0 else k * _f_power(v, k - 1.0)
    return val, tuple([x * c1 for x in d1]), None


def _f_vpower(a, b):
    """One entry of np.power over two arrays: an array exponent takes
    none of the special cases of a scalar one, so neither may this."""
    return float(np.power((a,), (b,))[0])


def _f_pow_var(a, b, node):
    const = type(a) is float
    av = a if const else a[0]
    bv, b1, _ = b
    if b1 is None:
        whole = math.isinf(bv) or bv.is_integer()   # bv == floor(bv)
        if whole and av == 0.0 and bv < 0.0:
            raise _domain_error("division by zero", node, 0)
        if not whole and av <= 0.0:
            raise _domain_error("non-integer power of a non-positive base",
                                node, 0)
        val = _f_vpower(av, bv)
        _f_check_overflow(val, node, av, bv)
        return val, None, None
    if av <= 0.0:
        raise _domain_error("variable power of a non-positive base", node, 0)
    if const:
        p = _f_scale(b, math.log(av))
    else:
        p = _f_mul(b, _f_chain(a, float(np.log(av)), 1.0 / av))
    val = _f_vpower(av, bv)
    _f_check_overflow(val, node, av, bv)
    return _f_chain(p, val, val)


def _f_apply(a, node):
    v, d1, _ = a
    name = node.func
    if name == "log":
        if v <= 0.0:
            raise _domain_error("log of non-positive value", node, 0)
    elif name == "sqrt":
        if v < 0.0:
            raise _domain_error("sqrt of negative value", node, 0)
        if d1 is not None and v == 0.0:
            raise _domain_error("sqrt derivative at zero", node, 0)
    f, f1, _ = _FN_TABLE[name]
    val = float(f(v))
    if name in _OVERFLOWING:
        _f_check_overflow(val, node, v)
    if d1 is None:
        return val, None, None
    return _f_chain(a, val, float(f1(v, val)))


_POINT = _Ops(seed=_f_seed, neg=_f_neg, shift=_shift, scale=_f_scale,
              quot=_f_quot, add=_f_add, sub=_f_sub, mul=_f_mul, div=_f_div,
              pow_const=_f_pow_const, pow_var=_f_pow_var, apply=_f_apply)


# -- compilation ---------------------------------------------------------------


def _build_add(ops, node, order, a, b):
    shift, add = ops.shift, ops.add
    if type(a) is float:
        return lambda X: shift(b(X), a)
    if type(b) is float:
        return lambda X: shift(a(X), b)
    return lambda X: add(a(X), b(X))


def _build_sub(ops, node, order, a, b):
    shift, neg, sub = ops.shift, ops.neg, ops.sub
    if type(a) is float:
        return lambda X: shift(neg(b(X)), a)
    if type(b) is float:
        return lambda X: shift(a(X), -b)
    return lambda X: sub(a(X), b(X))


def _build_mul(ops, node, order, a, b):
    scale, mul = ops.scale, ops.mul
    if type(a) is float:
        return lambda X: scale(b(X), a)
    if type(b) is float:
        return lambda X: scale(a(X), b)
    return lambda X: mul(a(X), b(X))


def _build_div(ops, node, order, a, b):
    quot, div = ops.quot, ops.div
    if type(b) is float:
        if b == 0.0:
            raise _domain_error("division by zero", node, 0)
        return lambda X: quot(a(X), b)
    if type(a) is float:
        ca = _const_jet(a, order)
        return lambda X: div(ca, b(X), node)
    return lambda X: div(a(X), b(X), node)


def _build_pow(ops, node, order, a, b):
    pow_const, pow_var = ops.pow_const, ops.pow_var
    if type(b) is float:
        return lambda X: pow_const(a(X), b, node)
    if type(a) is float:
        return lambda X: pow_var(a, b(X), node)
    return lambda X: pow_var(a(X), b(X), node)


def _build_neg(ops, node, order, a):
    neg = ops.neg
    return lambda X: neg(a(X))


def _build_call(ops, node, order, a):
    apply = ops.apply
    return lambda X: apply(a(X), node)


_NODE_COMPILERS = {Neg: _build_neg, Add: _build_add, Sub: _build_sub,
                   Mul: _build_mul, Div: _build_div, Pow: _build_pow,
                   Call: _build_call}


def _children(node):
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base, node.exponent)
    return (node.left, node.right)


def _compile(node, order, index, ops):
    """A float for a constant subtree, else a closure from the target's
    input to its jet."""
    kind = type(node)
    if kind is Const:
        return node.value
    if kind is Var:
        try:
            j = index[node.name]
        except KeyError:
            raise UnknownVariable(f"unbound variable {node.name!r}") from None
        return ops.seed(j, len(index), order)
    build = _NODE_COMPILERS[kind]
    kids = [_compile(k, order, index, ops) for k in _children(node)]
    if any(type(k) is not float for k in kids):
        return build(ops, node, order, *kids)
    # fold on the array target whatever the target, so both share every
    # constant: run the value closure once on one-row constant jets
    consts = [lambda X, c=np.array([k]): (c, None, None) for k in kids]
    return float(build(_ARRAY, node, 0, *consts)(None)[0][0])


def _calls_numpy(node):
    """Whether the point sweep of node calls a numpy ufunc: for any
    function and any power but a square."""
    kind = type(node)
    if kind is Const or kind is Var:
        return False
    if kind is Call or kind is Pow and node.exponent != Const(2.0):
        return True
    return any(map(_calls_numpy, _children(node)))


def _array_kernel(e, order):
    """The compiled stacked sweep of e at the given order, returning
    fresh arrays of the full stacked shapes."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    index = {name: j for j, name in enumerate(e.chart_vars)}
    m = len(index)
    f = _compile(e.ast, order, index, _ARRAY)
    if type(f) is float:
        const = _const_jet(f, order)
        f = lambda X: (np.full(len(X), const[0]),) + const[1:]   # noqa: E731

    def run(X):
        v, d1, d2 = f(X)
        n = len(X)
        if v.base is not None:
            v = v.copy()   # a bare variable is a view of X
        if d1 is not None and (type(d1) is float or d1.base is not None
                               or d1.shape[0] != n):
            d1 = np.broadcast_to(d1, (n, m)).copy()
        if d2 is not None and (type(d2) is float or d2.base is not None
                               or d2.shape[0] != n):
            d2 = np.broadcast_to(d2, (n, m, m)).copy()
        return v, d1, d2

    return run


def _point_kernel(e, order):
    """The compiled one-point sweep of e at order 0 or 1, from a list of
    m floats to a float jet."""
    index = {name: j for j, name in enumerate(e.chart_vars)}
    f = _compile(e.ast, order, index, _POINT)
    if type(f) is float:
        const = (f, (0.0,) * len(index) if order else None, None)
        return lambda x: const
    if not _calls_numpy(e.ast):
        return f   # float arithmetic neither warns nor raises

    def quiet(x):
        with np.errstate(all="ignore"):
            return f(x)

    return quiet


def _size_error(X, m):
    size = X.shape[-1] if X.ndim else 1
    return ValueError(f"point has {size} components, chart has {m}")


def point_jet(e, point, order=1):
    """(value, partials) of e at one point (m,) in chart order, as a
    float and a tuple of m floats (None at order 0), from the float
    sweep: equal bit for bit to the point's row of a stacked jet().
    Order 0 or 1; a DomainError names the failing subexpression and
    row 0."""
    x = np.asarray(point, dtype=float)
    m = len(e.chart_vars)
    if x.shape != (m,):
        raise _size_error(x, m)
    if order not in (0, 1):
        raise ValueError(f"order must be 0 or 1 at one point, got {order!r}")
    kernels = e._kernels
    run = kernels.get(("point", order))
    if run is None:
        with np.errstate(all="ignore"):
            run = kernels.setdefault(("point", order), _point_kernel(e, order))
    v, d1, _ = run(x.tolist())
    return v, d1


def jet(e, points, order=2):
    """(value, gradient, hessian) of e in one sweep, over all chart
    variables (partials vanish for absent ones).

    points is one point (m,) in chart order or a stack (N, m); the
    results are then a float, (m,) and (m, m), or (N,), (N, m) and
    (N, m, m).  The gradient is None at order 0 and the hessian below
    order 2.  The shape picks the target: one point at order 0 or 1
    runs the float sweep of point_jet(), anything else the stacked
    array sweep (one point as a stack of one).  Both give the same
    numbers.  A DomainError names the failing subexpression and the
    first failing row (0 for a single point).
    """
    X = np.asarray(points, dtype=float)
    m = len(e.chart_vars)
    if X.ndim == 1 and order in (0, 1):
        v, d1 = point_jet(e, X, order)
        return v, None if d1 is None else np.array(d1), None
    single = X.ndim == 1
    if single:
        X = X[None]
    if X.ndim != 2 or X.shape[1] != m:
        raise _size_error(X, m)
    kernels = e._kernels
    with np.errstate(all="ignore"):
        run = kernels.get(order) or kernels.setdefault(order,
                                                       _array_kernel(e, order))
        v, d1, d2 = run(X)
    if single:
        return (float(v[0]), None if d1 is None else d1[0],
                None if d2 is None else d2[0])
    return v, d1, d2


def evaluate(e, env):
    """Value of e at one point given as a mapping of chart variable
    names to floats; every free variable must be bound."""
    for name in e.free_vars:
        if name not in env:
            raise UnknownVariable(f"unbound variable {name!r}")
    return jet(e, [env.get(name, 0.0) for name in e.chart_vars], order=0)[0]


def gradient(e, point):
    """First partials of e with respect to every chart variable."""
    return jet(e, point, order=1)[1]


def hessian(e, point):
    """Symmetric matrix of second partials over the chart variables."""
    return jet(e, point)[2]


def value_and_derivatives(e, point):
    """(value, gradient, hessian) in one second-order sweep."""
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
