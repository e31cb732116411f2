"""Parser and forward-mode AD tests.

The derivative oracle is central finite differencing through evaluate(),
the value-only sweep, so the chain rule of the array jets is checked
against value computation with no shared derivative code.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonoid import expr
from canonoid.expr import (
    Add, Call, Const, Div, DomainError, Mul, Neg, Pow, Sub, UnknownFunction,
    UnknownVariable, Var,
)

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
    for fn in (expr.gradient, expr.hessian, expr.value_and_derivatives):
        with pytest.raises(ValueError, match="3 components, chart has 2"):
            fn(e, [1.0, 2.0, 3.0])


def test_hessian_bilinear():
    e = expr.parse("q1*p1", ["q1", "p1"])
    assert np.array_equal(expr.hessian(e, [2.0, 7.0]), [[0.0, 1.0], [1.0, 0.0]])


def test_hessian_cubic():
    e = expr.parse("p1^3/3", ["q1", "p1"])
    H = expr.hessian(e, [0.0, 2.0])
    assert H[1, 1] == 4.0


def test_polynomial_exactness_degree_four():
    # dyadic point keeps every intermediate exact, so equality is exact
    e = expr.parse("q1^4 + 3*q1^2*p1 - p1^2", ["q1", "p1"])
    q, p = 0.5, 0.25
    g = expr.gradient(e, [q, p])
    assert np.array_equal(g, [4 * q**3 + 6 * q * p, 3 * q**2 - 2 * p])
    H = expr.hessian(e, [q, p])
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
        ad = expr.hessian(e, FD_POINT)
        fd = fd_hessian(e, FD_POINT)
        err = np.max(np.abs(ad - fd) / np.maximum(np.abs(fd), 1.0))
        assert err < HESS_RTOL, f"{src}: {err}"


def test_hessian_symmetric_by_construction():
    for src in FD_CORPUS:
        e = expr.parse(src, QPTZ)
        H = expr.hessian(e, FD_POINT)
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
        np.testing.assert_array_max_ulp(v[i], vi, maxulp=2)
        # the value is the same at every order
        assert vi == expr.evaluate(e, dict(zip(QPTZ, x)))
        if order >= 1:
            np.testing.assert_array_max_ulp(d1[i], gi, maxulp=2)
        if order == 2:
            np.testing.assert_array_max_ulp(d2[i], hi, maxulp=2)


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
    e2 = pickle.loads(pickle.dumps(e))
    assert e2 == e
    assert np.array_equal(expr.gradient(e2, [0.3, 0.4]), g)
