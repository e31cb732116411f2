"""Parser and forward-mode AD tests.

The derivative oracle is central finite differencing through evaluate(),
the value-only sweep, so the chain rule of the array jets is checked
against value computation with no shared derivative code.
"""

import math
import pickle
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonoid import expr
from canonoid.expr import (
    Add, Call, Const, Div, DomainError, Mul, Neg, Pow, Sub, UnknownFunction,
    UnknownVariable, Var,
)
from canonoid.geometry import GeometryKind, point_field

GRAD_RTOL = 1e-6
HESS_RTOL = 1e-4
FD_STEP = 1e-5

QPTZ = ["q1", "p1", "t", "z"]

# 20 expressions exercising every operator and function at a safe point
FD_CORPUS = [
    "q1^2*p1 + 3*q1",
    "sin(q1)*cos(p1)",
    "exp(q1/2) + log(p1)",
    "sqrt(q1^2 + p1^2 + 1)",
    "q1/(1 + p1^2)",
    "tan(q1/4)",
    "sinh(q1)*cosh(p1/2)",
    "q1^3 - 2*q1*p1 + p1^4/4",
    "exp(-q1^2/2)",
    "log(q1^2 + 1)*p1",
    "q1^p1",
    "2^q1",
    "(q1 + p1)^3",
    "1/(q1 - p1)",
    "cos(q1*p1) + sin(t)",
    "q1*p1*t*z",
    "sqrt(exp(q1))",
    "(sin(q1) + 2)^1.5",
    "q1^2/p1 - t/z",
    "cosh(log(1 + q1^2))",
]
FD_POINT = np.array([0.7, 1.3, 0.4, 1.1])


def fd_gradient(e, x, h=FD_STEP):
    x = np.asarray(x, dtype=float)
    g = np.zeros(x.size)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp = expr.evaluate(e, dict(zip(e.chart_vars, xp)))
        fm = expr.evaluate(e, dict(zip(e.chart_vars, xm)))
        g[i] = (fp - fm) / (2 * h)
    return g


def fd_hessian(e, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    m = x.size

    def f(y):
        return expr.evaluate(e, dict(zip(e.chart_vars, y)))

    H = np.zeros((m, m))
    f0 = f(x)
    for i in range(m):
        for j in range(i, m):
            if i == j:
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                H[i, i] = (f(xp) - 2 * f0 + f(xm)) / h**2
            else:
                xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
                xpp[[i, j]] += h
                xmm[[i, j]] -= h
                xpm[i] += h
                xpm[j] -= h
                xmp[i] -= h
                xmp[j] += h
                H[i, j] = H[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h**2)
    return H


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_term_free_vars():
    e = expr.parse("p1^2/2", ["q1", "p1"])
    assert e.free_vars == ("p1",)
    assert e.chart_vars == ("q1", "p1")


def test_parse_tree_shape_precedence():
    e = expr.parse("q1*p1 - sin(t)", ["q1", "p1", "t"])
    assert e.ast == Sub(Mul(Var("q1"), Var("p1")), Call("sin", Var("t")))


def test_power_right_associative():
    e = expr.parse("2^3^2", [])
    assert expr.evaluate(e, {}) == 512.0


def test_unary_minus_binds_looser_than_power():
    e = expr.parse("-q1^2", ["q1"])
    assert e.ast == Neg(Pow(Var("q1"), Const(2.0)))
    assert expr.evaluate(e, {"q1": 3.0}) == -9.0


def test_negative_exponent_literal():
    e = expr.parse("q1^-2", ["q1"])
    assert e.ast == Pow(Var("q1"), Neg(Const(2.0)))
    assert expr.evaluate(e, {"q1": 2.0}) == 0.25


def test_mixed_precedence():
    e = expr.parse("1 + 2*3^2", [])
    assert expr.evaluate(e, {}) == 19.0
    e = expr.parse("(1 + 2)*3^2", [])
    assert expr.evaluate(e, {}) == 27.0


def test_nodes_are_immutable_values():
    a = Add(Var("q1"), Mul(Const(2.0), Var("p1")))
    b = Add(Var("q1"), Mul(Const(2.0), Var("p1")))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Sub(Var("q1"), Mul(Const(2.0), Var("p1")))
    assert Add(Var("q1"), Var("p1")) != Add(Var("p1"), Var("q1"))
    assert Const(1.0) != 1.0 and Var("q1") != "q1"
    assert Call(func="sin", arg=Var("t")) == Call("sin", Var("t"))
    assert repr(Pow(Var("q1"), Const(2.0))) == (
        "Pow(base=Var(name='q1'), exponent=Const(value=2.0))")
    with pytest.raises(AttributeError):
        a.left = Var("p1")
    with pytest.raises(AttributeError):
        del a.right
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(TypeError):
        Add(Var("q1"))
    with pytest.raises(TypeError):
        Add(Var("q1"), Var("p1"), right=Var("t"))
    e = expr.parse("q1 + 2*p1", ["q1", "p1"])
    assert e.ast == a
    assert e == expr.parse("q1 + 2*p1", ["q1", "p1"])
    assert hash(e) == hash(expr.parse("q1 + 2*p1", ["q1", "p1"]))
    assert e != expr.parse("q1 + 2*p1", ["q1", "p1", "t"])
    with pytest.raises(AttributeError):
        e.ast = Var("q1")


def test_free_vars_chart_order_not_occurrence_order():
    e = expr.parse("p1 + q1", ["q1", "p1"])
    assert e.free_vars == ("q1", "p1")


def test_parse_errors():
    with pytest.raises(SyntaxError, match="position"):
        expr.parse("q1 +", ["q1"])
    with pytest.raises(SyntaxError):
        expr.parse("(q1", ["q1"])
    with pytest.raises(SyntaxError):
        expr.parse("q1 p1", ["q1", "p1"])
    with pytest.raises(SyntaxError):
        expr.parse("   ", ["q1"])
    with pytest.raises(SyntaxError):
        expr.parse("q1 @ p1", ["q1", "p1"])
    with pytest.raises(UnknownVariable):
        expr.parse("q2", ["q1"])
    with pytest.raises(UnknownFunction):
        expr.parse("foo(q1)", ["q1"])
    with pytest.raises(ValueError):
        expr.parse("q1", ["q1", "q1"])


# ---------------------------------------------------------------------------
# evaluation


def test_eval_simple():
    e = expr.parse("p1^2/2", ["q1", "p1"])
    assert expr.evaluate(e, {"p1": 2.0}) == 2.0


def test_eval_pythagorean():
    e = expr.parse("sin(q1)^2 + cos(q1)^2", ["q1"])
    assert abs(expr.evaluate(e, {"q1": 0.7}) - 1.0) < 1e-15


def test_eval_product_duals():
    e = expr.parse("q1*p1", ["q1", "p1"])
    value, d1, _ = expr.jet(e, [3.0, 5.0], order=1)
    assert value == 15.0
    assert np.array_equal(d1, [5.0, 3.0])


def test_eval_deterministic():
    e = expr.parse("sin(q1)*exp(p1) - q1/p1", ["q1", "p1"])
    env = {"q1": 0.3, "p1": 1.7}
    assert expr.evaluate(e, env) == expr.evaluate(e, env)


def test_eval_unbound_variable():
    e = expr.parse("q1", ["q1"])
    with pytest.raises(UnknownVariable):
        expr.evaluate(e, {})


def test_domain_errors():
    cases = [
        ("log(q1)", {"q1": 0.0}),
        ("log(q1)", {"q1": -1.0}),
        ("sqrt(q1)", {"q1": -1.0}),
        ("1/q1", {"q1": 0.0}),
        ("(-2)^0.5", {"q1": 0.0}),
        ("q1^0.5", {"q1": -3.0}),
        ("q1^-1", {"q1": 0.0}),
        ("exp(q1)", {"q1": 1e6}),
    ]
    for src, env in cases:
        e = expr.parse(src, ["q1"])
        with pytest.raises(DomainError):
            expr.evaluate(e, env)


def test_domain_error_names_subexpression():
    e = expr.parse("q1 + log(p1 - 1)", ["q1", "p1"])
    with pytest.raises(DomainError, match=r"log\(p1-1\.0\)"):
        expr.evaluate(e, {"q1": 0.0, "p1": 1.0})


def test_variable_exponent_positive_base():
    e = expr.parse("q1^p1", ["q1", "p1"])
    assert abs(expr.evaluate(e, {"q1": 2.0, "p1": 3.0}) - 8.0) < 1e-12
    # integer-valued exponent keeps a negative base legal...
    assert expr.evaluate(e, {"q1": -2.0, "p1": 3.0}) == -8.0
    # ...a fractional value does not
    with pytest.raises(DomainError):
        expr.evaluate(e, {"q1": -2.0, "p1": 0.5})
    # differentiating in the exponent needs a positive base even at
    # integer exponent values: d/dp of (-2)^p is not real
    with pytest.raises(DomainError):
        expr.gradient(e, [-2.0, 3.0])


# ---------------------------------------------------------------------------
# gradients and hessians


def test_gradient_simple():
    e = expr.parse("p1^2/2", ["q1", "p1"])
    assert np.array_equal(expr.gradient(e, [1.0, 2.0]), [0.0, 2.0])


def test_gradient_mixed():
    e = expr.parse("q1^2*p1", ["q1", "p1"])
    assert np.array_equal(expr.gradient(e, [1.0, 1.0]), [2.0, 1.0])


def test_gradient_absent_variable_is_zero():
    e = expr.parse("p1^3", ["q1", "p1", "t"])
    g = expr.gradient(e, [1.0, 2.0, 5.0])
    assert g[0] == 0.0 and g[2] == 0.0 and g[1] == 12.0


def test_gradient_constant_expression():
    e = expr.parse("3.5", ["q1", "p1"])
    assert np.array_equal(expr.gradient(e, [1.0, 2.0]), [0.0, 0.0])


def test_every_derivative_entry_checks_the_point_size():
    e = expr.parse("q1*p1", ["q1", "p1"])
    for fn in (expr.gradient, expr.jet, expr.value_and_derivatives):
        with pytest.raises(ValueError, match="3 components, chart has 2"):
            fn(e, [1.0, 2.0, 3.0])


def test_hessian_bilinear():
    e = expr.parse("q1*p1", ["q1", "p1"])
    assert np.array_equal(expr.jet(e, [2.0, 7.0])[2], [[0.0, 1.0], [1.0, 0.0]])


def test_hessian_cubic():
    e = expr.parse("p1^3/3", ["q1", "p1"])
    H = expr.jet(e, [0.0, 2.0])[2]
    assert H[1, 1] == 4.0


def test_polynomial_exactness_degree_four():
    # dyadic point keeps every intermediate exact, so equality is exact
    e = expr.parse("q1^4 + 3*q1^2*p1 - p1^2", ["q1", "p1"])
    q, p = 0.5, 0.25
    g = expr.gradient(e, [q, p])
    assert np.array_equal(g, [4 * q**3 + 6 * q * p, 3 * q**2 - 2 * p])
    H = expr.jet(e, [q, p])[2]
    assert np.array_equal(H, [[12 * q**2 + 6 * p, 6 * q], [6 * q, -2.0]])


def test_gradient_matches_finite_differences():
    for src in FD_CORPUS:
        e = expr.parse(src, QPTZ)
        ad = expr.gradient(e, FD_POINT)
        fd = fd_gradient(e, FD_POINT)
        err = np.max(np.abs(ad - fd) / np.maximum(np.abs(fd), 1.0))
        assert err < GRAD_RTOL, f"{src}: {err}"


def test_hessian_matches_finite_differences():
    for src in FD_CORPUS:
        e = expr.parse(src, QPTZ)
        ad = expr.jet(e, FD_POINT)[2]
        fd = fd_hessian(e, FD_POINT)
        err = np.max(np.abs(ad - fd) / np.maximum(np.abs(fd), 1.0))
        assert err < HESS_RTOL, f"{src}: {err}"


def test_hessian_symmetric_by_construction():
    for src in FD_CORPUS:
        e = expr.parse(src, QPTZ)
        H = expr.jet(e, FD_POINT)[2]
        assert np.array_equal(H, H.T)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_gradient_linearity(a):
    e1 = "sin(q1)*p1"
    e2 = "q1^2 - p1^3"
    combo = expr.parse(f"{a!r}*({e1}) + ({e2})", ["q1", "p1"])
    x = [0.6, 1.4]
    g1 = expr.gradient(expr.parse(e1, ["q1", "p1"]), x)
    g2 = expr.gradient(expr.parse(e2, ["q1", "p1"]), x)
    g = expr.gradient(combo, x)
    assert np.allclose(g, a * g1 + g2, rtol=0, atol=1e-9 * max(1.0, abs(a)))


# ---------------------------------------------------------------------------
# serialization round-trips

ROUND_TRIP_CORPUS = [
    "1",
    "2.5",
    "1e-05",
    "3.25e2",
    "0.125",
    "q1",
    "z",
    "t",
    "-q1",
    "--q1",
    "q1 + p1",
    "q1 - p1",
    "q1 + p1 + t",
    "q1 - p1 - t",
    "q1 - (p1 - t)",
    "q1 + (p1 + t)",
    "q1*p1",
    "q1/p1",
    "q1/p1/t",
    "q1/(p1/t)",
    "q1*(p1 + t)",
    "(q1 + p1)*t",
    "q1 - p1*t",
    "(q1 - p1)*t",
    "q1^2",
    "q1^2^3",
    "(q1^2)^3",
    "q1^-2",
    "q1^(p1 + 1)",
    "(-q1)^2",
    "-q1^2",
    "(q1 + p1)^2",
    "2^q1",
    "q1^p1",
    "sin(q1)",
    "cos(q1 + p1)",
    "tan(q1/2)",
    "exp(-q1)",
    "log(q1)",
    "sqrt(q1 + 1)",
    "sinh(q1)",
    "cosh(q1)",
    "sin(cos(q1))",
    "sin(q1)^2 + cos(q1)^2",
    "-sin(q1)",
    "q1*-p1",
    "-(q1 + p1)",
    "-(q1*p1)",
    "1/(1 + exp(-q1))",
    "q1^2*p1^3 - 4*q1*p1 + 7",
    "sqrt(q1^2 + p1^2)/2",
    "exp(q1)*sin(p1)*cos(t)",
    "z - p1*q1",
    "(q1 + 2)*(p1 - 3)",
    "2*3 - 4/5",
    "q1^2 - -p1",
    "p1^2/2   ",
]


def test_round_trip_corpus_covers_grammar():
    assert len(ROUND_TRIP_CORPUS) >= 50


def test_serialize_parse_round_trip():
    for src in ROUND_TRIP_CORPUS:
        e = expr.parse(src, QPTZ)
        text = expr.serialize(e)
        e2 = expr.parse(text, QPTZ)
        assert e2.ast == e.ast, f"{src!r} -> {text!r}"
        # serializer is a fixed point of parse∘serialize
        assert expr.serialize(e2) == text


def test_dual_second_order_symmetry():
    # u = q1, v = p1; w = (u*v + u/(v + 2))*1 and r = w*u - v^3
    r = expr.parse("(q1*p1 + q1/(p1 + 2.0))*1.0*q1 - p1^3", ["q1", "p1"])
    _, _, d2 = expr.jet(r, [1.2, 0.7], order=2)
    assert np.array_equal(d2, d2.T)


# ---------------------------------------------------------------------------
# stacked sweeps: one call over many points

BOX_POINTS = st.lists(
    st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=4, max_size=4),
    min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(src=st.sampled_from(ROUND_TRIP_CORPUS), points=BOX_POINTS,
       order=st.sampled_from([0, 1, 2]))
def test_stacked_rows_match_single_points(src, points, order):
    e = expr.parse(src, QPTZ)
    X = np.array(points)
    v, d1, d2 = expr.jet(e, X, order)
    assert v.shape == (len(X),)
    for i, x in enumerate(X):
        vi, gi, hi = expr.jet(e, x, order)
        # one point runs the text of its row's sweep
        assert vi == v[i]
        # the value is the same at every order
        assert vi == expr.evaluate(e, dict(zip(QPTZ, x)))
        if order >= 1:
            assert np.array_equal(d1[i], gi)
        if order == 2:
            assert np.array_equal(d2[i], hi)


@settings(max_examples=30, deadline=None)
@given(src=st.sampled_from(ROUND_TRIP_CORPUS), points=BOX_POINTS)
def test_stacked_jet_matches_finite_differences(src, points):
    e = expr.parse(src, QPTZ)
    X = np.array(points)
    _, d1, d2 = expr.jet(e, X, order=2)
    for i, x in enumerate(X):
        fd = fd_gradient(e, x)
        err = np.max(np.abs(d1[i] - fd) / np.maximum(np.abs(fd), 1.0))
        assert err < GRAD_RTOL, f"{src}: {err}"
        fd = fd_hessian(e, x)
        err = np.max(np.abs(d2[i] - fd) / np.maximum(np.abs(fd), 1.0))
        assert err < HESS_RTOL, f"{src}: {err}"


def test_domain_error_on_a_stack_names_first_failing_row():
    e = expr.parse("q1 + log(p1 - 1)", ["q1", "p1"])
    X = np.array([[0.0, 2.0], [0.0, 3.0], [0.0, 1.0], [0.0, 0.5]])
    with pytest.raises(DomainError, match=r"log\(p1-1\.0\)' at row 2"):
        expr.jet(e, X, order=1)
    e = expr.parse("exp(q1)", ["q1"])
    with pytest.raises(DomainError, match="overflow in 'exp\\(q1\\)' at row 1"):
        expr.jet(e, np.array([[1.0], [1e6], [1e7]]), order=0)


def test_evaluated_expression_pickles():
    # the compiled sweeps cached on an expression stay out of its pickle
    e = expr.parse("sin(q1)*p1^2", ["q1", "p1"])
    g = expr.gradient(e, [0.3, 0.4])
    assert "_kernels" in vars(e)
    e2 = pickle.loads(pickle.dumps(e))
    assert e2 == e and "_kernels" not in vars(e2)
    assert np.array_equal(expr.gradient(e2, [0.3, 0.4]), g)


# ---------------------------------------------------------------------------
# one kernel per shape: a sweep runs over the expression's own variables,
# and equal texts share one code object, bound to each expression's own
# constants and nodes

N4 = ["q1", "q2", "q3", "q4", "p1", "p2", "p3", "p4"]


def test_equal_shaped_expressions_share_one_code_object():
    a = expr.parse("p1^3/3 + sin(p1)/2", N4)
    b = expr.parse("p2^3/3 + sin(p2)/2", N4)
    c = expr.parse("p3^3/3 + sin(p3)/5", N4)   # another constant
    X = np.random.default_rng(4).uniform(0.5, 1.5, (6, 8))
    for order in (0, 1, 2):
        runs = [expr._sweep(e, order)[0] for e in (a, b, c)]
        assert runs[0].__code__ is runs[1].__code__ is runs[2].__code__
    run, inputs, cols, pairs = expr._sweep(b, 2)
    assert (inputs, cols, pairs) == ([5], [5], [(5, 5)])
    # the first-partial tuple holds the one partial that is not zero
    first = run([X[:, 5]])[1]
    assert len(first) == 1 and type(first[0]) is not float
    for e, col, k, h in ((a, 4, 3.0, 2.0), (b, 5, 3.0, 2.0),
                         (c, 6, 3.0, 5.0)):
        p = X[:, col]
        v, d1, d2 = expr.jet(e, X)
        # each value is the formula's numpy operations, in their order
        # and at the expression's own column and constants, bit for bit
        assert v.tobytes() == (p ** 3.0 / k + np.sin(p) / h).tobytes()
        grad = np.zeros((6, 8))
        grad[:, col] = 3.0 * (p * p) / k + np.cos(p) / h
        assert d1.tobytes() == grad.tobytes()
        hess = np.zeros((6, 8, 8))
        hess[:, col, col] = 6.0 * p / k + -np.sin(p) / h
        assert d2.tobytes() == hess.tobytes()


@pytest.mark.parametrize("first", [0, 1])
def test_a_shared_kernel_names_each_expressions_own_node(first):
    # log(p1 - 2) and log(p2 - 2) share one code object; each raises
    # the DomainError of its own node and row, whichever ran first
    X = np.full((4, 8), 3.0)
    X[1, 4] = X[2, 5] = 1.0
    cases = [(expr.parse("log(p1 - 2)", N4), r"log\(p1-2\.0\)' at row 1"),
             (expr.parse("log(p2 - 2)", N4), r"log\(p2-2\.0\)' at row 2")]
    for e, message in cases[first:] + cases[:first]:
        with pytest.raises(DomainError, match=message):
            expr.jet(e, X, order=1)
    assert (expr._sweep(cases[0][0], 1)[0].__code__
            is expr._sweep(cases[1][0], 1)[0].__code__)


# ---------------------------------------------------------------------------
# exact numbers: an array text reads every number through K, so its code
# object bound to the Fraction images of K runs in exact arithmetic on
# object columns of Fractions


def exact(e):
    """e with its array sweep at every order bound to the Fraction
    images of its constants: the same code objects, run exactly on the
    object arrays that expr.as_points passes through.  A function call,
    float-only in canonoid, returns the Fraction of its float value, so
    an expression with sin or exp runs the exact route on exact images
    of its calls (the rules of tan, log and sqrt write float numbers of
    their own)."""
    calls = {name: np.frompyfunc(
        lambda v, f=getattr(np, name): Fraction(float(f(float(v)))), 1, 1)
        for name in expr._DERIVATIVES}
    for order in (0, 1, 2):
        run, *columns = expr._sweep(e, order)
        K = tuple(map(Fraction, run.__globals__["K"]))
        scope = dict(run.__globals__, K=K, **calls)
        e._kernels[order] = (types.FunctionType(run.__code__, scope),
                             *columns)
    return e


def test_the_unit_partial_is_a_bound_constant():
    # q1's own partial and the unit over 3 in the partial of p1/3 read
    # the unit through K, so bound to Fractions they are exactly 1 and
    # 1/3, while the float sweep of the same text keeps its floats
    x = [Fraction(1, 2), Fraction(5, 7)]
    for source, want in (("q1", [1, 0]), ("p1/3", [0, Fraction(1, 3)])):
        e = expr.parse(source, ["q1", "p1"])
        floats = expr.gradient(e, np.array(x, dtype=float))
        assert floats.dtype == float and np.allclose(floats, np.float64(want))
        grad = expr.gradient(exact(e), np.array(x, dtype=object))
        assert list(grad) == want, source
        assert all(type(v) is not float for v in grad), source
    # one state's value comes back in its own number type
    v = expr.evaluate(exact(expr.parse("p1/3", ["q1", "p1"])),
                      {"p1": Fraction(5, 7)})
    assert v == Fraction(5, 21) and type(v) is Fraction


# ---------------------------------------------------------------------------
# one point: the float text of point_function() and the point's jet
# against a one-row stack


def float_sweep(e, x, order):
    """(value, partials) of e at one point: at order 1 a float and a
    list of m floats from the float text that expr.point_function emits
    for them, cached on e, the text the integrators run, under the
    floating-point rule that integrate sets for it; at order 0 the
    value of jet() at the point and None."""
    if order == 0:
        return expr.jet(e, x, 0)[0], None
    run = e._kernels.get("test-sweep")
    if run is None:
        run = e._kernels["test-sweep"] = expr.quiet(expr.point_function(
            e, lambda x, f: f(x), lambda inputs, v, grad: [v, *grad]))
    v, *d1 = run([float(c) for c in x])
    return v, d1


def stack_of_one(e, x, order):
    v, d1, _ = expr.jet(e, np.asarray(x, dtype=float)[None], order)
    return v[0], None if d1 is None else d1[0]


def point_and_stack_agree(e, x, order):
    """Both routes raise the same DomainError, or give the same numbers
    (NaN in the same places)."""
    try:
        v, d1 = float_sweep(e, x, order)
    except DomainError as err:
        with pytest.raises(DomainError) as stacked:
            stack_of_one(e, x, order)
        assert str(stacked.value) == str(err)
        assert str(err).endswith("at row 0")
        return str(err)
    sv, sd1 = stack_of_one(e, x, order)
    assert type(v) is float
    assert np.array_equal(v, sv, equal_nan=True), (v, sv)
    if order:
        assert all(type(c) is float for c in d1)
        assert np.array_equal(d1, sd1, equal_nan=True), (d1, sd1)
    return None


INF, NAN = math.inf, math.nan
# (source over q1, p1; point; the DomainError message at order 0 and at
# order 1, None for none)
DOMAIN_CASES = [
    ("log(q1)", [0.0, 1.0], "log of non-positive value in 'log(q1)'", ...),
    ("log(q1)", [-1.0, 1.0], "log of non-positive value", ...),
    ("sqrt(q1)", [-1.0, 1.0], "sqrt of negative value", ...),
    ("sqrt(q1)*p1", [0.0, 1.0], None, "sqrt derivative at zero"),
    ("1/q1", [0.0, 1.0], "division by zero in '1.0/q1'", ...),
    ("q1/(p1 - 1)", [2.0, 1.0], "division by zero", ...),
    ("1/(q1*1e-200*1e-200)", [1.0, 1.0], "division by zero", ...),
    ("q1^-1", [0.0, 1.0], "division by zero", ...),
    ("q1^0.5", [-3.0, 1.0], "non-integer power of a non-positive base", ...),
    ("q1^1.5", [0.0, 1.0], "non-integer power of a non-positive base", ...),
    ("q1^p1", [-2.0, 0.5], "non-integer power of a non-positive base",
     "variable power of a non-positive base"),
    ("q1^p1", [0.0, -1.0], "division by zero",
     "variable power of a non-positive base"),
    ("q1^p1", [-2.0, 3.0], None, "variable power of a non-positive base"),
    ("(-2)^p1", [1.0, 3.0], None, "variable power of a non-positive base"),
    ("q1^2", [1e200, 1.0], "overflow in 'q1^2.0'", ...),
    ("q1^3", [1e200, 1.0], "overflow", ...),
    ("q1^p1", [10.0, 400.0], "overflow", ...),
    ("2^q1", [5000.0, 1.0], "overflow", ...),
    ("exp(q1)", [1e6, 1.0], "overflow in 'exp(q1)'", ...),
    ("sinh(q1)", [1e6, 1.0], "overflow", ...),
    ("cosh(q1)", [-1e6, 1.0], "overflow", ...),
    # non-finite input propagates as on a stack, with no error
    ("sin(q1)", [INF, 1.0], None, ...),
    ("tan(q1)", [INF, 1.0], None, ...),
    ("cos(q1)*p1", [NAN, 1.0], None, ...),
    ("q1*p1", [0.0, INF], None, ...),
    ("q1/p1", [INF, INF], None, ...),
    ("q1 - p1", [INF, INF], None, ...),
    ("exp(q1)", [INF, 1.0], None, ...),
    ("exp(q1)", [-INF, 1.0], None, ...),
    ("cosh(q1)", [-INF, 1.0], None, ...),
    ("log(q1)", [INF, 1.0], None, ...),
    ("log(q1)", [NAN, 1.0], None, ...),
    ("sqrt(q1)", [INF, 1.0], None, ...),
    ("sqrt(q1)", [NAN, 1.0], None, ...),
    ("q1^2", [NAN, 1.0], None, ...),
    ("q1^2", [INF, 1.0], None, ...),
    ("q1^3", [-INF, 1.0], None, ...),
    ("q1^-1", [INF, 1.0], None, ...),
    ("q1^0.5", [INF, 1.0], None, ...),
    ("q1^p1", [INF, 2.0], None, ...),
    ("q1^p1", [2.0, INF], None, ...),
    ("q1^p1", [NAN, 2.0], None, ...),
    ("2^q1", [-INF, 1.0], None, ...),
    ("q1*1e200*1e200", [1.0, 1.0], None, ...),
]


@pytest.mark.parametrize("src,x,message0,message1", DOMAIN_CASES)
@pytest.mark.parametrize("order", [0, 1])
def test_point_domain_and_non_finite_parity(src, x, message0, message1,
                                            order):
    e = expr.parse(src, ["q1", "p1"])
    message = message0 if order == 0 or message1 is ... else message1
    got = point_and_stack_agree(e, x, order)
    if message is None:
        assert got is None
    else:
        assert got is not None and message in got


# exponent values at which numpy's power with a scalar exponent takes
# a shortcut (square, square root, reciprocal) that an array exponent
# does not take
SPECIAL_EXPONENTS = [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("src", ["q1^p1", "2^p1", "(q1 + 1)^(p1*2)",
                                 "q1^2", "q1^3", "q1^0.5", "q1^-1", "q1^1",
                                 "q1^0"])
@pytest.mark.parametrize("order", [0, 1])
def test_point_powers_match_a_stack_bit_for_bit(src, order):
    e = expr.parse(src, ["q1", "p1"])
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.uniform(0.1, 3.0, 600),
                         np.tile(SPECIAL_EXPONENTS, 100)])
    v, d1, _ = expr.jet(e, X, order)
    for i, x in enumerate(X):
        pv, pd1 = float_sweep(e, x, order)
        assert pv == v[i], (src, x)
        if order:
            assert np.array_equal(pd1, d1[i]), (src, x)


@pytest.mark.parametrize("const,var,c", [
    ("40.4^q1", "q2^q1", 40.4),
    ("2^q1", "q2^q1", 2.0),
])
def test_a_constant_gives_the_numbers_of_a_variable_at_its_value(const, var,
                                                                  c):
    # the log of a constant base is numpy's, as a variable base's is:
    # math.log(40.4) is numpy's log plus one ulp
    X = np.column_stack([np.linspace(0.1, 3.0, 30), np.full(30, c)])
    v, d1, d2 = expr.jet(expr.parse(const, ["q1", "q2"]), X)
    w, e1, e2 = expr.jet(expr.parse(var, ["q1", "q2"]), X)
    assert np.array_equal(v, w)
    assert np.array_equal(d1[:, 0], e1[:, 0])
    assert np.array_equal(d2[:, 0, 0], e2[:, 0, 0])


@pytest.mark.parametrize("src", ["q1^p1", "2^p1", "(q1 + 1)^(p1*2)"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_point_jet_does_not_depend_on_the_stack_layout(src, order):
    # an exponent column of stride 0, as in x[None] or a broadcast stack,
    # would let numpy's power take its scalar-exponent shortcuts; the
    # point and every one-point stack give the row of an ordinary stack
    e = expr.parse(src, ["q1", "p1"])
    rng = np.random.default_rng(3)
    X = np.column_stack([rng.uniform(0.1, 3.0, 600),
                         np.tile(SPECIAL_EXPONENTS, 100)])
    want = expr.jet(e, X, order)
    for i, x in enumerate(X):
        row = [None if w is None else w[i] for w in want]
        stacks = (x[None], np.array([x]), np.broadcast_to(x, (3, 2)))
        for stack in stacks:
            for got, w in zip(expr.jet(e, stack, order), row):
                assert (got is None) if w is None else (got == w).all(), \
                    (src, x, stack.strides)
        for got, w in zip(expr.jet(e, x, order), row):
            assert (got is None) if w is None else np.array_equal(got, w)


@settings(max_examples=60, deadline=None)
@given(src=st.sampled_from(ROUND_TRIP_CORPUS + FD_CORPUS), points=BOX_POINTS,
       order=st.sampled_from([0, 1, 2]))
def test_point_jet_equals_stacked_rows(src, points, order):
    e = expr.parse(src, QPTZ)
    X = np.array(points)
    try:
        v, d1, d2 = expr.jet(e, X, order)
    except DomainError as err:
        # as 1/(q1 - p1) at q1 = p1: the failing row alone fails alike
        head, row = str(err).rsplit(" ", 1)
        with pytest.raises(DomainError) as single:
            expr.jet(e, X[int(row)], order)
        assert str(single.value) == f"{head} 0"
        return
    for i, x in enumerate(X):
        # jet() runs one point as the one-row stack, at every order
        jv, jd1, jd2 = expr.jet(e, x, order)
        assert jv == v[i]
        assert (jd1 is None) if order == 0 else np.array_equal(jd1, d1[i])
        assert (jd2 is None) if order < 2 else np.array_equal(jd2, d2[i])
        if order < 2:
            pv, pd1 = float_sweep(e, x, order)
            assert pv == jv
            assert (pd1 is None) if order == 0 else np.array_equal(pd1, jd1)


def test_structurally_zero_partials_stay_zero_on_non_finite_input():
    # no rule reaches the p1 partials of sin(q1), so they read 0.0, not
    # the NaN of 0*cos(inf); the value and the q1 partials are NaN
    e = expr.parse("sin(q1)", ["q1", "p1"])
    for order in (1, 2):
        v, d1, d2 = expr.jet(e, [INF, 1.0], order)
        assert math.isnan(v) and math.isnan(d1[0]) and d1[1] == 0.0
        if order == 2:
            assert math.isnan(d2[0, 0])
            assert d2[0, 1] == d2[1, 0] == d2[1, 1] == 0.0
    v, d1, d2 = expr.jet(e, np.array([[0.5, 1.0], [INF, 1.0]]))
    assert np.isfinite(d1[0]).all() and np.isfinite(d2[0]).all()
    assert math.isnan(d1[1, 0]) and d1[1, 1] == 0.0
    assert d2[1, 0, 1] == d2[1, 1, 0] == d2[1, 1, 1] == 0.0
    assert float_sweep(e, [INF, 1.0], 1)[1][1] == 0.0


def test_point_hessian_where_the_log_base_square_underflows():
    # d2 log(q1)/dq1^2 = -1/q1^2 is -inf once q1^2 underflows, at one
    # point as in a stack
    e = expr.parse("q1^p1", ["q1", "p1"])
    x = [1e-170, 2.5]
    v, d1, d2 = expr.jet(e, x, 2)
    sv, sd1, sd2 = expr.jet(e, np.array([x]), 2)
    assert v == sv[0] and np.array_equal(d1, sd1[0])
    assert np.array_equal(d2, sd2[0], equal_nan=True)
    assert math.isnan(d2[0, 0])


def _dense_rule(rule, a, b):
    """The order-2 product or quotient rule on dense stacked jets
    (value (N,), gradient (N, m), Hessian (N, m, m)), summed in the
    emitter's float order."""
    (av, a1, a2), (bv, b1, b2) = a, b

    def outer(u, w):   # u_i w_j + u_j w_i
        return u[:, :, None] * w[:, None, :] + u[:, None, :] * w[:, :, None]

    if rule == "*":
        return (av * bv, a1 * bv[:, None] + b1 * av[:, None],
                (a2 * bv[:, None, None] + b2 * av[:, None, None])
                + outer(a1, b1))
    q = av / bv
    q1 = (a1 - b1 * q[:, None]) / bv[:, None]
    return (q, q1, ((a2 - b2 * q[:, None, None]) - outer(b1, q1))
            / bv[:, None, None])


@pytest.mark.parametrize("rule", ["*", "/"])
def test_order_two_rules_keep_their_float_association(rule):
    # the emitter's jet of sin(q1) <rule> exp(q1) equals, bit for bit,
    # the dense rule over the jets of its factors: a rule summed in
    # another order differs in the last bit at some of these points
    x = np.linspace(-2.0, 2.0, 257)
    X = np.stack([x, np.full_like(x, 0.5)], axis=1)
    e0 = np.array([1.0, 0.0])
    h00 = np.zeros((len(x), 2, 2))
    h00[:, 0, 0] = 1.0
    s, c, ex = np.sin(x), np.cos(x), np.exp(x)
    sin_jet = (s, c[:, None] * e0, -s[:, None, None] * h00)
    exp_jet = (ex, ex[:, None] * e0, ex[:, None, None] * h00)
    want = _dense_rule(rule, sin_jet, exp_jet)
    got = expr.jet(expr.parse(f"sin(q1) {rule} exp(q1)", ["q1", "p1"]), X)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# guards of the emitter


@pytest.mark.parametrize("order", [0, 1, 2])
def test_a_constant_zero_divisor_is_a_domain_error_at_every_order(order):
    # the divisor folds to the constant 0.0 while the sweep is emitted,
    # and its check fails at row 0 when the text runs, not before
    e = expr.parse("q1/(2-2)", ["q1", "p1"])
    for x in ([1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]]):
        with pytest.raises(DomainError,
                           match=r"^division by zero in 'q1/\(2\.0-2\.0\)' "
                                 r"at row 0$"):
            expr.jet(e, x, order)
    expr._sweep(expr.parse("q1/0", ["q1"]), order)
    g = GeometryKind("symplectic", 1)
    field = point_field(g, g.parse("p1/0 + q1"))
    with pytest.raises(DomainError,
                       match=r"^division by zero in 'p1/0\.0' at row 0$"):
        field([1.0, 2.0])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_an_unknown_function_is_refused_before_its_text_runs(order):
    # the names of an emitted text resolve through the builtins: without
    # the emitter's own check this node would call open() on the column
    e = expr.Expression(ast=Call("open", Var("q1")), free_vars=("q1",),
                        chart_vars=("q1",))
    with pytest.raises(UnknownFunction, match="unknown function 'open'"):
        expr.jet(e, [[1.0]], order)
    assert e._kernels == {}


def test_a_sweep_has_orders_zero_to_two():
    e = expr.parse("q1", ["q1"])
    with pytest.raises(ValueError, match="order must be 0, 1 or 2, got 3"):
        expr._sweep(e, 3)
