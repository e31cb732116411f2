"""Scalar expressions on phase-space charts.

Expressions are parsed from a small arithmetic grammar.  All derivative
information in the rest of the library flows through this module, from
one engine: forward mode by source transformation (Griewank & Walther,
Evaluating Derivatives, 2nd ed., ch. 3 and 6).  On its first evaluation
at a given derivative order an expression is written, once, into the
straight-line Python source of its sweep over its own free variables,
cached on the expression: one local per value and per first and second
partial that is not structurally zero.  The sweep runs on the numpy
columns of a stack (N, m) that hold those variables, and jet() scatters
its partials into the values (N,), the exact first partials (N, m) and
the second partials (N, m, m) over the m chart variables; one point
(m,) is the one-row stack, so it gets the numbers of its row in any
stack bit for bit.  jet() takes one point or a stack, and evaluate(),
gradient() and value_and_derivatives() are its named forms.  Each text
compiles once per process, through one cache keyed by the text, so
expressions of one shape over different variables, such as
p1^3/3 + sin(p1)/2 and p2^3/3 + sin(p2)/2, share one code object, each
bound to its own constants and its own nodes.

Python floats appear only in the texts of point_function(), which
writes a formula over the value and first partials of one or more
order-1 sweeps, each at its own input terms, into one straight-line
float function: the integrators' one-state field and the RK4 step with
its four stages, where numpy's overhead per call would cost more than
the arithmetic.  Each float operation is the one numpy performs on an
entry, so such a function gives the numbers of the array formulas bit
for bit.  call_function() writes a formula the same way, but each
field it calls stays a call of a function passed at run time, so its
text holds no expression: the Dormand-Prince attempt.

Domain checks are masks over the stack (inline tests in a float
text): a DomainError names the subexpression and the first failing row.
Overflow from finite input in a power, exp, sinh or cosh is a
DomainError too, while a product or sum that overflows gives inf, as
float arithmetic does, for the callers' finiteness guards to report.
The stacked sweep runs under quiet(), so it never prints numpy
floating-point warnings; a float function runs under its caller's
error state, as the integrators set it.

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

import functools
import math
import operator
import re

import numpy as np

__all__ = [
    "Expression",
    "DomainError",
    "UnknownVariable",
    "UnknownFunction",
    "parse",
    "evaluate",
    "jet",
    "gradient",
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
# The floating-point rule


def quiet(f):
    """f run under canonoid's one floating-point rule: numpy ignores
    every floating-point error, and the inf or NaN reaches a guard that
    names its sample.  The entries that the checks call, jet and the
    cond(J) guard take it; the lower layers run under their caller's
    state."""

    @functools.wraps(f)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return f(*args, **kwargs)

    return quiet


# ---------------------------------------------------------------------------
# Records


class Record:
    """Base of canonoid's immutable value types.  __init__ (positional
    or keyword), structural == and hash, repr and pickling are written
    once here over each subclass's __slots__, so importing canonoid
    generates no code.  A record that caches properties lists "__dict__"
    in its __slots__; the cache stays out of ==, hash and pickles."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(s for s in cls.__slots__ if s != "__dict__")

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        items = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({items})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


# ---------------------------------------------------------------------------
# AST nodes


class Const(Record):
    __slots__ = ("value",)


class Var(Record):
    __slots__ = ("name",)


class Neg(Record):
    __slots__ = ("arg",)


class Add(Record):
    __slots__ = ("left", "right")


class Sub(Record):
    __slots__ = ("left", "right")


class Mul(Record):
    __slots__ = ("left", "right")


class Div(Record):
    __slots__ = ("left", "right")


class Pow(Record):
    __slots__ = ("base", "exponent")


class Call(Record):
    __slots__ = ("func", "arg")


class Expression(Record):
    """A parsed expression together with its variable context.

    free_vars lists the chart variables that actually occur, in chart
    order.  Instances are immutable and safe to share across threads.
    """

    __slots__ = ("ast", "free_vars", "chart_vars", "__dict__")

    def __str__(self):
        return serialize(self)

    @functools.cached_property
    def _kernels(self):
        """Compiled sweeps, filled on first use: the array sweep with
        the chart columns of its inputs and of its partials keyed by
        derivative order, and under "vf" and "rk4" the one-state
        dynamical field and the RK4 step that geometry and dynamics emit
        with point_function()."""
        return {}


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

# the binary operators, symbol: (node, level).  A higher level binds
# tighter: unary minus sits between * / and ^, at _NEG_LEVEL, and an
# atom above every operator.  The parser and the writer both read this.
_OPERATORS = {"+": (Add, 1), "-": (Sub, 1), "*": (Mul, 2), "/": (Div, 2),
              "^": (Pow, 4)}
_NEG_LEVEL = 3
_ATOM_LEVEL = 5


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

    def expr(self, level=1):
        """The operands one level up joined left to right by the operators
        of this level: the grammar's expr at level 1, term at level 2 and
        unary at _NEG_LEVEL."""
        if level == _NEG_LEVEL:
            return self.unary()
        node = self.expr(level + 1)
        while True:
            # no number's or name's text is an operator's symbol
            op = _OPERATORS.get(self.peek()[1])
            if op is None or op[1] != level:
                return node
            self.advance()
            node = op[0](node, self.expr(level + 1))

    def unary(self):
        """The grammar's unary and power."""
        if self.peek()[1] == "-":
            self.advance()
            return Neg(self.unary())
        base = self.atom()
        if self.peek()[1] != "^":
            return base
        self.advance()
        return Pow(base, self.unary())

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            if self.peek()[1] == "(":
                if text not in _DERIVATIVES:
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
# One emitter compiles an expression, once per derivative order, into
# the straight-line Python source of its sweep (forward mode by source
# transformation, Griewank & Walther ch. 6).  The source holds one local
# per node value, per structurally non-zero first partial (one per
# column) and per non-zero second partial (one per (i, j) entry with
# i <= j).  Each local applies its rule's float operations in a fixed
# order (for a product, (a2 b + b2 a) + (a1_i b1_j + a1_j b1_i)), with
# the structurally zero terms dropped; a seeded variable's own partial
# is the unit, by which nothing is multiplied.  Every second-order rule
# is symmetric in (i, j), so Hessians are symmetric to the last bit.
#
# A jet's text runs on the array namespace over the expression's free
# variables only: X is the (N,) columns of a stack that hold them, its
# first-partial tuple holds the partials that are not structurally zero,
# and jet() scatters the results into fresh (N, m) and (N, m, m) arrays.
# One point runs as the one-row stack.  The texts of
# point_function() are order 1 and run on the float namespace, which
# differs from the array one only in the checks (an inline test, not a
# mask that names the first failing row), in the powers (numpy's
# shortcuts for a scalar exponent, or np.power on one entry) and in
# float() around numpy's ufuncs, which libm's differ from in the last
# bit.  So both give the numbers of a row bit for bit.
#
# The text keeps every check and the values that its result or a check
# reads; it drops every other value.
#
# A structurally zero partial is 0.0 even at non-finite input, where the
# dense product would give the NaN of 0*inf; the callers' finiteness
# guards still see the NaN or inf of the value and of every partial the
# input reaches.
#
# Constant subtrees are folded while emitting, through the order-0 rules
# run on one-element arrays.  Constants, the DomainError messages and,
# in an array text, the unit partial of a variable reach the text only
# through the bound tuples K and E; the rest of it is the emitter's
# locals, integer indices, namespace names and the numbers of the rules
# themselves.  So an array text computes in the number type of its
# columns and of K, and every text compiles once per process, through
# _code, a cache keyed by the text, and each expression binds its own K
# and E to the shared code object: a DomainError names that
# expression's own node and row.

# name: (f' from the argument a and the value f, f'' from a, f and d = f')
_DERIVATIVES = {
    "sin": ("cos({a})", "-{f}"),
    "cos": ("-sin({a})", "-{f}"),
    "tan": ("1.0 + {f} * {f}", "2.0 * {f} * {d}"),
    "exp": ("{f}", "{f}"),
    "log": ("1.0 / {a}", "-{d} * {d}"),
    "sqrt": ("0.5 / {f}", "-0.5 * {d} / {a}"),
    "sinh": ("cosh({a})", "{f}"),
    "cosh": ("sinh({a})", "{f}"),
}
# functions that can overflow on a finite argument
_OVERFLOWING = frozenset({"exp", "sinh", "cosh"})


def _domain_error(msg, node, row):
    return DomainError(f"{msg} in '{serialize(node)}' at row {row}")


def _plus(a, b):
    if a is None:
        return b
    return a if b is None else f"({a} + {b})"


def _minus(a, b):
    if b is None:
        return a
    return f"(-{b})" if a is None else f"({a} - {b})"


def _over(a, b):
    return None if a is None else f"({a} / {b})"


def _children(node):
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base, node.exponent)
    return (node.left, node.right)


# the emitter's locals, as they appear in a text
_LOCAL = re.compile(r"\bt\d+\b")


def _render(call, guards):
    """The line of a check: a call, or with guards an inline test that
    calls only when the check fires."""
    name, *args = call
    text = f"{name}({', '.join(args)})"
    if guards and name == "check":
        return f"if {args[0]}: fail({args[1]})"
    if guards and name == "overflow":
        # v - v is 0.0 for a finite v and NaN, which is true, otherwise
        return f"if {args[0]} - {args[0]}: {text}"
    return text


class _Emitter:
    """Writes the sweep of one expression at one order.

    A jet is (value, first, second): the local of the value and dicts
    from column j, and from (i, j) with i <= j, to the locals of the
    partials that are not structurally zero.  A constant subtree is a
    float.  Second partials vanish outside the pairs of columns with a
    first partial, which every rule keeps true.

    The j-th of the variables it is given reads the text inputs[j],
    X[j] unless a caller sets other inputs between sweeps written into
    one emitter, and the partials' columns are those positions.  Equal
    constants and equal (message, node) pairs share one bound entry,
    and a check written once on a local is not written again.
    """

    one = "1.0"   # the unit partial of a variable; products elide it

    def __init__(self, order, variables=()):
        self.order = order
        self.index = {name: j for j, name in enumerate(variables)}
        self.inputs = [f"X[{j}]" for j in range(len(variables))]
        self.lines = []   # (locals, text) of values, (None, call) of a check
        self.consts = []
        self.errors = []
        self.names = {}
        self.slots = {}
        self.written = set()

    def let(self, text):
        """The local holding text, written on its first use: equal
        texts share one local."""
        if text == self.one or text.isidentifier():
            return text
        name = self.names.get(text)
        if name is None:
            name = self.names[text] = f"t{len(self.names)}"
            # a text that opens with a parenthesis is one group
            self.lines.append((name, text[1:-1] if text[0] == "(" else text))
        return name

    def unpack(self, text, m):
        """m new locals, bound in one line to the items of sequence text."""
        names = [f"t{len(self.names) + i}" for i in range(m)]
        self.names.update(zip(names, names))   # keys let never looks up
        self.lines.append((", ".join(names) + ",", text))
        return names

    def bind(self, a):
        """A float a, or a term's text held in a local."""
        return a if type(a) is float else _Term(self.let(a.text))

    def slot(self, table, key, item):
        """The index of item in table, appended on the first use of key."""
        i = self.slots.get(key)
        if i is None:
            i = self.slots[key] = len(table)
            table.append(item)
        return i

    def partials(self, items):
        return {k: self.let(t) for k, t in items if t is not None}

    def times(self, a, b):
        """Text of a * b, None (zero) if a factor is, one factor if the
        other is the unit."""
        if a is None or b is None:
            return None
        if a == self.one:
            return b
        return a if b == self.one else f"({a} * {b})"

    def outer(self, a1, b1, i, j):
        """Entry (i, j) of a1 b1^T + b1 a1^T."""
        return _plus(self.times(a1.get(i), b1.get(j)),
                     self.times(a1.get(j), b1.get(i)))

    def const(self, c):
        key = ("K", c.hex() if type(c) is float else id(c))
        return f"K[{self.slot(self.consts, key, c)}]"

    def as_jet(self, a):
        """a, or the jet of a constant a."""
        return (self.const(a), {}, {}) if type(a) is float else a

    def pairs(self, *firsts):
        """The (i, j), i <= j, over the columns of the first partials,
        at order 2."""
        if self.order < 2:
            return ()
        cols = sorted(set().union(*firsts))
        return [(i, j) for n, i in enumerate(cols) for j in cols[n:]]

    def error(self, msg, node):
        """The text of the bound (msg, node) that a DomainError names."""
        return f"E[{self.slot(self.errors, (msg, id(node)), (msg, node))}]"

    def call(self, name, *args):
        call = (name, *args)
        if call not in self.written:
            self.written.add(call)
            self.lines.append((None, call))

    def check(self, test, msg, node):
        self.call("check", test, self.error(msg, node))

    def overflow(self, val, node, *inputs):
        """An infinite or NaN val from finite inputs is an overflow."""
        self.call("overflow", val, self.error("overflow", node), *inputs)

    def compile(self, result, params=("X",), guards=False):
        """The code of run(*params) returning the text result.  It keeps
        every check and the values that result or a check reads, in
        their order, and drops every other value.  With guards (a text
        bound to floats only) each check is an inline test."""
        live = set(_LOCAL.findall(result))
        body = [f"return {result}"]
        for name, line in reversed(self.lines):
            if name is None:
                line = _render(line, guards)
            elif not live.isdisjoint(_LOCAL.findall(name)):
                line = f"{name} = {line}"
            else:
                continue
            live.update(_LOCAL.findall(line))
            body.append(line)
        return _code("\n    ".join([f"def run({', '.join(params)}):",
                                      *reversed(body)]))

    def visit(self, node):
        kind = type(node)
        if kind is Const:
            return node.value
        if kind is Var:
            try:
                j = self.index[node.name]
            except KeyError:
                raise UnknownVariable(
                    f"unbound variable {node.name!r}") from None
            first = {j: self.one} if self.order else {}
            return self.let(self.inputs[j]), first, {}
        kids = [self.visit(k) for k in _children(node)]
        if all(type(k) is float for k in kids):
            return _fold(node, kids)
        return self.rule(node, kids)

    def rule(self, node, kids):
        return getattr(self, "_" + type(node).__name__.lower())(node, *kids)

    def _each(self, f, a, b):
        """Value and partials of the entrywise rule f of two jets."""
        (av, a1, a2), (bv, b1, b2) = a, b
        return (self.let(f(av, bv)),
                self.partials((i, f(a1.get(i), b1.get(i)))
                              for i in a1.keys() | b1.keys()),
                self.partials((ij, f(a2.get(ij), b2.get(ij)))
                              for ij in a2.keys() | b2.keys()))

    def _neg(self, node, a):
        return self._each(_minus, (None, {}, {}), a)

    def _add(self, node, a, b):
        return self._each(_plus, self.as_jet(a), self.as_jet(b))

    def _sub(self, node, a, b):
        return self._each(_minus, self.as_jet(a), self.as_jet(b))

    def _mul(self, node, a, b):
        (av, a1, a2), (bv, b1, b2) = self.as_jet(a), self.as_jet(b)
        times = self.times
        return (self.let(f"({av} * {bv})"),
                self.partials(
                    (i, _plus(times(a1.get(i), bv), times(b1.get(i), av)))
                    for i in a1.keys() | b1.keys()),
                self.partials(
                    (ij, _plus(_plus(times(a2.get(ij), bv),
                                     times(b2.get(ij), av)),
                               self.outer(a1, b1, *ij)))
                    for ij in self.pairs(a1, b1)))

    def _div(self, node, a, b):
        if type(b) is float:
            if b == 0.0:
                raise _domain_error("division by zero", node, 0)
        else:
            self.check(f"{b[0]} == 0.0", "division by zero", node)
        (av, a1, a2), (bv, b1, b2) = self.as_jet(a), self.as_jet(b)
        q = self.let(f"({av} / {bv})")
        q1 = self.partials(
            (i, _over(_minus(a1.get(i), self.times(b1.get(i), q)), bv))
            for i in a1.keys() | b1.keys())
        return q, q1, self.partials(
            (ij, _over(_minus(_minus(a2.get(ij), self.times(b2.get(ij), q)),
                              self.outer(b1, q1, *ij)), bv))
            for ij in self.pairs(a1, b1))

    def _pow(self, node, a, b):
        if type(b) is float:
            return self._pow_const(node, a, b)
        return self._pow_var(node, a, b)

    def power(self, v, e):
        """Text of v**e for a constant e; numpy squares at e = 2."""
        return f"({v} * {v})" if e == 2.0 else f"pw({v}, {self.const(e)})"

    def coeff(self, v, c, e):
        """The text of c * v**e, None when c is zero (never 0 * inf at
        v = 0); v**0 is 1 for every v."""
        if c == 0.0:
            return None
        if e == 0.0:
            return self.const(c)
        return self.let(f"({self.const(c)} * "
                        f"{v if e == 1.0 else self.power(v, e)})")

    def _pow_const(self, node, a, k):
        """a^k for a constant exponent k.  An integer k is valid for any
        base except 0 with k < 0; a non-integer k needs a positive base."""
        v = a[0]
        if not k.is_integer():
            self.check(f"{v} <= 0.0",
                       "non-integer power of a non-positive base", node)
        elif k < 0.0:
            self.check(f"{v} == 0.0", "division by zero", node)
        val = self.let(self.power(v, k))
        self.overflow(val, node, v)
        c1 = self.coeff(v, k, k - 1.0) if self.order else None
        c2 = self.coeff(v, k * (k - 1.0), k - 2.0) if self.order == 2 else None
        return self.chain(a, val, c1, c2)

    def _pow_var(self, node, a, b):
        """a^b for a variable exponent b; a is a jet or a float base.

        Values follow real powers: an integer-valued exponent allows any
        base but 0 with a negative exponent.  Derivatives in the exponent
        need a positive base everywhere."""
        bv, b1, b2 = b
        if not self.order:
            av = self.as_jet(a)[0]
            self.call("powcheck", av, bv,
                      self.error("division by zero", node),
                      self.error("non-integer power of a non-positive base",
                                 node))
            return self.vpow(node, av, bv), {}, {}
        if type(a) is float:
            av = self.const(a)
            if a <= 0.0:
                self.call("fail", self.error(
                    "variable power of a non-positive base", node))
                return av, {}, {}
            # p = b log a
            log_a = self.const(float(np.log(a)))
            p = (None, *[self.partials((k, self.times(x, log_a))
                                       for k, x in d.items())
                         for d in (b1, b2)])
        else:
            av = a[0]
            self.check(f"{av} <= 0.0", "variable power of a non-positive base",
                       node)
            c2 = (self.let(f"(-1.0 / ({av} * {av}))") if self.order == 2
                  else None)
            p = self._mul(node, b, self.chain(a, self.let(f"log({av})"),
                                              self.let(f"(1.0 / {av})"), c2))
        # a^b = exp(p); every derivative of exp is the value
        val = self.vpow(node, av, bv)
        return self.chain(p, val, val, val if self.order == 2 else None)

    def vpow(self, node, a, b):
        val = self.let(f"vpow({a}, {b})")
        self.overflow(val, node, a, b)
        return val

    def _call(self, node, a):
        name, v = node.func, a[0]
        if name not in _DERIVATIVES:
            raise UnknownFunction(f"unknown function {name!r}")
        if name == "log":
            self.check(f"{v} <= 0.0", "log of non-positive value", node)
        elif name == "sqrt":
            self.check(f"{v} < 0.0", "sqrt of negative value", node)
            if self.order:
                self.check(f"{v} == 0.0", "sqrt derivative at zero", node)
        val = self.let(f"{name}({v})")
        if name in _OVERFLOWING:
            self.overflow(val, node, v)
        if not self.order:
            return val, {}, {}
        f1, f2 = _DERIVATIVES[name]
        c1 = self.let(f1.format(a=v, f=val))
        c2 = self.let(f2.format(a=v, f=val, d=c1)) if self.order == 2 else None
        return self.chain(a, val, c1, c2)

    def chain(self, a, val, c1, c2):
        """Jet of f(a) from the locals val = f, c1 = f' and c2 = f'' at
        a's value (None where zero or above the order)."""
        _, a1, a2 = a
        times = self.times
        return (val, self.partials((i, times(x, c1)) for i, x in a1.items()),
                self.partials(
                    ((i, j), _plus(times(a2.get((i, j)), c1),
                                   times(c2, times(a1.get(i), a1.get(j)))))
                    for i, j in self.pairs(a1)))


# the texts a process keeps compiled; one check at n = 4 emits fewer
# than ten distinct ones
_CODE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source):
    """The code object of an emitted text, compiled once per process:
    every expression whose sweep has this text shares it."""
    return compile(source, "<jet>", "exec")


def _bind(code, namespace, consts, errors):
    """The function run of code, reading its own constants K and its
    own (message, node) table E."""
    scope = dict(namespace, K=consts, E=errors)
    exec(code, scope)
    return scope["run"]


@quiet
def _fold(node, values):
    """node's value over constant children: its order-0 rule run on
    one-element arrays, so constants fold through the array semantics."""
    em = _Emitter(0)
    v = em.rule(node, [(em.const(np.array([c])), {}, {}) for c in values])[0]
    run = _bind(em.compile(v), _ARRAYS, tuple(em.consts), tuple(em.errors))
    return float(run(None)[0])


# -- the two namespaces -------------------------------------------------------


def _fail(what):
    raise _domain_error(*what, 0)


def _rows_check(bad, what):
    """Raise at the first row where the mask bad is set."""
    if bad.any():
        raise _domain_error(*what, int(np.argmax(bad)))


def _rows_overflow(val, what, *inputs):
    # one dot product is finite unless some entry is inf or NaN (or
    # beyond 1e154, which the exact test below then clears)
    if math.isfinite(val @ val):
        return
    bad = ~np.isfinite(val)
    for x in inputs:
        bad &= np.isfinite(x)
    _rows_check(bad, what)


def _rows_power_domain(a, b, zero, fraction):
    whole = b == np.floor(b)
    at_zero = whole & (a == 0.0) & (b < 0.0)
    bad = at_zero | (~whole & (a <= 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise _domain_error(*(zero if at_zero[i] else fraction), i)


def _point_overflow(val, what, *inputs):
    if not math.isfinite(val) and all(map(math.isfinite, inputs)):
        raise _domain_error(*what, 0)


def _on_floats(f):
    return lambda x: float(f(x))


def _vpow(a, b):
    """a**b with an array exponent.  numpy takes its shortcuts for a
    scalar exponent (1/a, sqrt, a*a) wherever the exponent's stride is
    0, as in a broadcast stack or one made by x[None]; a copy has a
    stride, so a row's power does not depend on the stack's layout."""
    return np.power(a, b if b.strides[0] else b.copy())


_ARRAYS = {
    **{name: getattr(np, name) for name in _DERIVATIVES},
    "pw": operator.pow, "vpow": _vpow,
    "check": _rows_check, "overflow": _rows_overflow,
    "powcheck": _rows_power_domain, "fail": _fail,
}
_FLOATS = {
    **{name: _on_floats(getattr(np, name)) for name in _DERIVATIVES},
    "pw": lambda v, e: float(np.power(v, e)),
    # an array exponent takes none of the shortcuts of a scalar one
    "vpow": lambda a, b: float(np.power((a,), (b,))[0]),
    "overflow": _point_overflow, "fail": _fail,
}


def _sweep(e, order):
    """(run, inputs, cols, pairs): e's sweep at the given order over
    its free variables, bound to the array namespace and emitted once
    per order, with the chart columns of its inputs, of its non-zero
    first partials and the (i, j) entries of its non-zero second ones.
    run(X) reads the columns inputs as X and returns the value and
    those partials, in that order."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    found = e._kernels.get(order)
    if found is not None:
        return found
    em = _Emitter(order, e.free_vars)
    if order:   # the unit partial is a K entry, as every number it reads
        em.one = f"K[{em.slot(em.consts, 'one', 1.0)}]"
    v, d1, d2 = em.as_jet(em.visit(e.ast))
    cols, pairs = sorted(d1), sorted(d2)
    first = "(" + "".join(d1[j] + ", " for j in cols) + ")"
    second = "(" + "".join(d2[ij] + ", " for ij in pairs) + ")"
    code = em.compile(f"{v}, {first if order else None}, "
                      f"{second if order == 2 else None}")
    run = _bind(code, _ARRAYS, tuple(em.consts), tuple(em.errors))
    # the free variables are in chart order, so sorted stays sorted
    chart = [e.chart_vars.index(name) for name in e.free_vars]
    return e._kernels.setdefault(order, (
        run, chart, [chart[j] for j in cols],
        [(chart[i], chart[j]) for i, j in pairs]))


def _text(a):
    """The text of a term or of a finite float constant."""
    return a.text if type(a) is _Term else repr(float(a))


class _Term:
    """A float of the emitted text: +, - and * of terms, or of a term
    and a float constant (c * term too), write the text of that one
    float operation, parenthesised, so a formula run on terms writes its
    own operations in its own association."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def __add__(self, other):
        return _Term(f"({self.text} + {_text(other)})")

    def __sub__(self, other):
        return _Term(f"({self.text} - {_text(other)})")

    def __mul__(self, other):
        return _Term(f"({self.text} * {_text(other)})")

    def __rmul__(self, other):
        return _Term(f"({_text(other)} * {self.text})")

    def __neg__(self):
        return _Term(f"(-{self.text})")


def point_function(e, formula, field, params=()):
    """Compile formula into one straight-line function run(X, *params)
    from a point's list of m floats X and the floats named by params to
    a fresh list of floats.

    formula(x, f, *args) runs once, on terms: x stands for X's
    coordinates and args for the params.  f(inputs) writes e's order-1
    float sweep at the m input terms into the text and returns the
    terms of field(inputs, value, gradient), each held in a local, with
    e's value and m first partials at the inputs.  formula may call f
    any number of times, and returns a list of terms and float
    constants.  Each term's text repeats the float operations formula
    and field performed, in their order, so run gives their numbers on
    floats bit for bit, and its checks raise the DomainErrors of the
    sweeps in the order formula made them.  Only the values that the
    result or a check reads are computed.  The text is bound to the
    float namespace only, and each check in it is an inline test that
    makes no call unless it fires."""
    em = _Emitter(1, e.chart_vars)
    m = len(e.chart_vars)

    def f(inputs):
        inputs = [em.bind(a) for a in inputs]
        em.inputs = [_text(a) for a in inputs]
        v, d1, _ = em.as_jet(em.visit(e.ast))
        grad = [_Term(d1.get(j, "0.0")) for j in range(m)]
        return [em.bind(a) for a in field(inputs, _Term(v), grad)]

    x = [em.bind(_Term(f"X[{j}]")) for j in range(m)]
    out = formula(x, f, *map(_Term, params))
    code = em.compile("[" + ", ".join(map(_text, out)) + "]",
                      ("X", *params), guards=True)
    return _bind(code, _FLOATS, tuple(em.consts), tuple(em.errors))


def call_function(formula, m, params=()):
    """Compile formula into one straight-line function run(X, *params,
    f) from a list of m floats X, the floats named by params and a
    function f from a list of m floats to a sequence of m floats, to a
    tuple of lists of floats.

    formula(x, f, *args) runs once, on terms, as for point_function,
    but no expression is written into the text: each call f(inputs)
    writes a call of run's own argument f on the list of the input
    terms, unpacks its m results into locals and returns their terms.
    So run makes, in formula's order, each call whose results formula
    uses, whatever f is.  formula returns a tuple of lists of terms,
    and each term's text repeats the float operations formula
    performed, in their order, so run gives formula's numbers on floats
    bit for bit (a NaN's sign aside, which CPython's float operations
    do not fix)."""
    em = _Emitter(0)

    def f(inputs):
        args = ", ".join(em.let(a.text) for a in inputs)
        return list(map(_Term, em.unpack(f"f([{args}])", m)))

    x = list(map(_Term, em.unpack("X", m)))
    out = formula(x, f, *map(_Term, params))
    result = ", ".join(f"[{', '.join(em.let(a.text) for a in part)}]"
                       for part in out)
    return _bind(em.compile(result, ("X", *params, "f")), {}, (), ())


def _symmetric(out, pairs, second):
    for (i, j), x in zip(pairs, second):
        out[..., i, j] = out[..., j, i] = x
    return out


def _size_error(X, m):
    size = X.shape[-1] if X.ndim else 1
    return ValueError(f"point has {size} components, chart has {m}")


def as_points(x):
    """x as an array in its number type, which only this decides: an
    object array (of Fractions, say) as it is, anything else float64."""
    x = np.asarray(x)
    return x if x.dtype == object else x.astype(float, copy=False)


@quiet
def jet(e, points, order=2):
    """(value, gradient, hessian) of e in one sweep, over all chart
    variables (partials vanish for absent ones).

    points is one point (m,) in chart order or a stack (N, m), read by
    as_points; the results are then a number, (m,) and (m, m), or (N,),
    (N, m) and (N, m, m), in its number type.  The gradient is None at
    order 0 and the hessian below order 2.  One point runs as the
    one-row stack, so it gives the numbers of its row in any stack.  A
    DomainError names the failing subexpression and the first failing
    row (0 for a single point).
    """
    X = as_points(points)
    m = len(e.chart_vars)
    if X.ndim not in (1, 2) or X.shape[-1] != m:
        raise _size_error(X, m)
    run, inputs, cols, pairs = _sweep(e, order)
    n = len(X) if X.ndim == 2 else 1
    columns = X.reshape(n, m).T
    v, d1, d2 = run([columns[j] for j in inputs])
    if type(v) is not np.ndarray or v.base is not None:
        v = np.full(n, v)   # a constant, or a column of X
    if d1 is not None:
        g = np.zeros((n, m), X.dtype)
        for j, x in zip(cols, d1):
            g[:, j] = x
        d1 = g
    if d2 is not None:
        d2 = _symmetric(np.zeros((n, m, m), X.dtype), pairs, d2)
    if X.ndim == 1:
        return (v.tolist()[0], None if d1 is None else d1[0],
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


def value_and_derivatives(e, point):
    """(value, gradient, hessian) in one second-order sweep."""
    return jet(e, point)


# ---------------------------------------------------------------------------
# Serialization

_SYMBOLS = {node: symbol for symbol, (node, _) in _OPERATORS.items()}
_LEVELS = {Neg: _NEG_LEVEL, **dict(_OPERATORS.values())}


def _wrap(node, level):
    """node's text, parenthesised when it binds looser than level."""
    text = _unparse(node)
    loose = _LEVELS.get(type(node), _ATOM_LEVEL) < level
    return f"({text})" if loose else text


def _unparse(node):
    kind = type(node)
    if kind is Const:
        return repr(node.value)
    if kind is Var:
        return node.name
    if kind is Call:
        return f"{node.func}({_unparse(node.arg)})"
    if kind is Neg:
        return "-" + _wrap(node.arg, _NEG_LEVEL)
    symbol, level = _SYMBOLS[kind], _LEVELS[kind]
    left, right = _children(node)
    if kind is Pow:   # right-associative, with a unary exponent
        return f"{_wrap(left, level + 1)}^{_wrap(right, _NEG_LEVEL)}"
    return f"{_wrap(left, level)}{symbol}{_wrap(right, level + 1)}"


def serialize(e):
    """Canonical text form; parsing it back gives a structurally
    identical tree."""
    node = e.ast if isinstance(e, Expression) else e
    return _unparse(node)
