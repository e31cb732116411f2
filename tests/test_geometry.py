"""Structure tensors, Hamiltonian/evolution fields, and bracket axioms."""

import dis
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonoid import expr, geometry
from canonoid.geometry import (
    GeometryKind, WrongGeometry, contract, dynamical_vf,
    hamiltonian_vf, hamiltonian_vf_jacobian, jacobi_bracket, point_field,
    poisson_bracket, structure_at_point,
)

AXIOM_TOL = 1e-9
CONSISTENCY_TOL = 1e-12

SYMP1 = GeometryKind("symplectic", 1)
SYMP2 = GeometryKind("symplectic", 2)
COSY1 = GeometryKind("cosymplectic", 1)
CONT1 = GeometryKind("contact", 1)
COCO1 = GeometryKind("cocontact", 1)


# ---------------------------------------------------------------------------
# layout


def test_chart_layouts():
    assert SYMP2.chart_vars == ("q1", "q2", "p1", "p2")
    assert COSY1.chart_vars == ("q1", "p1", "t")
    assert CONT1.chart_vars == ("q1", "p1", "z")
    assert COCO1.chart_vars == ("t", "q1", "p1", "z")
    assert SYMP2.dim == 4 and COSY1.dim == 3 and COCO1.dim == 4


def test_index_helpers_cocontact():
    g = GeometryKind("cocontact", 2)
    assert g.q_indices == (1, 2)
    assert g.p_indices == (3, 4)
    assert g.t_index == 0
    assert g.z_index == 5
    assert g.x_indices == (1, 2, 3, 4)


def test_kind_validation():
    with pytest.raises(ValueError, match="kind must be one of"):
        GeometryKind("sympletcic", 1)
    with pytest.raises(ValueError, match="n must be a positive integer, got 0"):
        GeometryKind("symplectic", 0)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        GeometryKind(kind="symplectic", n=1.0)


def test_kind_is_an_immutable_value():
    g = GeometryKind("contact", 2)
    assert g.dim == 5   # cached on the instance, outside == and hash
    assert g == GeometryKind(kind="contact", n=2)
    assert hash(g) == hash(GeometryKind("contact", 2))
    assert g != GeometryKind("contact", 1) and g != CONT1
    assert g != GeometryKind("symplectic", 2)
    assert repr(g) == "GeometryKind(kind='contact', n=2)"
    with pytest.raises(AttributeError):
        g.n = 3


def test_two_form_wedge_convention():
    # omega(e_q, e_p) = +1 per pair
    s = structure_at_point(SYMP2)
    assert s.two_form[0, 2] == 1.0
    assert s.two_form[1, 3] == 1.0
    assert np.array_equal(s.two_form, -s.two_form.T)


# ---------------------------------------------------------------------------
# Reeb conditions (exact, Darboux form): the Reeb fields are the unit
# vectors along z and t


def unit(g, i):
    e = np.zeros(g.dim)
    e[i] = 1.0
    return e


def test_reeb_cosymplectic():
    s = structure_at_point(COSY1)
    reeb = unit(COSY1, COSY1.t_index)
    assert np.array_equal(contract(s.two_form, reeb), np.zeros(3))
    assert float(s.eta @ reeb) == 1.0


def test_reeb_contact():
    x = np.array([0.4, -1.2, 0.3])
    s = structure_at_point(CONT1, x)
    reeb = unit(CONT1, CONT1.z_index)
    assert float(s.theta @ reeb) == 1.0
    assert np.array_equal(contract(s.two_form, reeb), np.zeros(3))
    # theta = dz - p dq carries the point's p
    assert s.theta[0] == 1.2 and s.theta[1] == 0.0 and s.theta[2] == 1.0


def test_reeb_cocontact_four_conditions():
    x = np.array([0.1, 0.4, -0.7, 2.0])
    s = structure_at_point(COCO1, x)
    reeb_z = unit(COCO1, COCO1.z_index)
    reeb_t = unit(COCO1, COCO1.t_index)
    assert float(s.theta @ reeb_z) == 1.0
    assert float(s.eta @ reeb_z) == 0.0
    assert np.array_equal(contract(s.two_form, reeb_z), np.zeros(4))
    assert float(s.theta @ reeb_t) == 0.0
    assert float(s.eta @ reeb_t) == 1.0
    assert np.array_equal(contract(s.two_form, reeb_t), np.zeros(4))


def test_contact_structure_requires_point():
    with pytest.raises(ValueError):
        structure_at_point(CONT1)


# ---------------------------------------------------------------------------
# Hamiltonian / evolution fields


def test_harmonic_oscillator_field():
    H = SYMP1.parse("p1^2/2 + q1^2/2")
    X = hamiltonian_vf(SYMP1, H, [1.0, 0.0])
    assert np.array_equal(X, [0.0, -1.0])


def test_contact_field_example():
    H = CONT1.parse("p1^2/2 + q1^2/2 + 0.1*z")
    X = hamiltonian_vf(CONT1, H, [0.0, 1.0, 0.0])
    assert np.allclose(X, [1.0, -0.1, 0.5], rtol=0, atol=1e-15)


def test_reeb_type_system():
    # constant Hamiltonian: X_1 = -d/dz
    H = CONT1.parse("1")
    X = hamiltonian_vf(CONT1, H, [0.3, -0.8, 5.0])
    assert np.array_equal(X, [0.0, 0.0, -1.0])


def test_cosymplectic_evolution_example():
    H = COSY1.parse("p1^2/2 + t*q1")
    E = dynamical_vf(COSY1, H, [0.0, 1.0, 2.0])
    assert np.array_equal(E, [1.0, -2.0, 1.0])
    X = hamiltonian_vf(COSY1, H, [0.0, 1.0, 2.0])
    assert X[2] == 0.0


def test_symplectic_evolution_is_hamiltonian():
    H = SYMP1.parse("p1^2/2 + sin(q1)")
    x = [0.3, 1.1]
    assert np.array_equal(dynamical_vf(SYMP1, H, x), hamiltonian_vf(SYMP1, H, x))


def test_cocontact_evolution_example():
    H = COCO1.parse("p1^2/2")
    E = dynamical_vf(COCO1, H, [0.0, 0.0, 2.0, 0.0])
    assert np.array_equal(E, [1.0, 2.0, 0.0, 2.0])


def test_dimension_mismatch():
    H = SYMP1.parse("p1^2/2")
    with pytest.raises(ValueError):
        hamiltonian_vf(SYMP1, H, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0])
def test_one_state_has_the_chart_dimension(x):
    assert SYMP1.check_state([1.0, 2.0]).shape == (2,)
    with pytest.raises(ValueError, match="chart dimension is 2"):
        SYMP1.check_state(x)


def test_field_linearity():
    f = "p1^2/2 + q1^2/2 + 0.3*z"
    h = "q1*p1 + z^2"
    a = 2.75
    combo = CONT1.parse(f"({f}) + {a!r}*({h})")
    x = np.array([0.5, -0.4, 0.9])
    Xf = hamiltonian_vf(CONT1, CONT1.parse(f), x)
    Xh = hamiltonian_vf(CONT1, CONT1.parse(h), x)
    assert np.allclose(hamiltonian_vf(CONT1, combo, x), Xf + a * Xh,
                       rtol=0, atol=1e-12)


def test_vf_jacobian_matches_finite_differences():
    cases = [
        (SYMP1, "sin(q1)*p1^2 + cos(p1)", np.array([0.4, 0.8])),
        (COSY1, "p1^2/2 + t*q1^3", np.array([0.5, 1.1, 0.7])),
        (CONT1, "p1^2/2 + q1^2/2 + 0.2*z + q1*z^2", np.array([0.3, -0.6, 0.5])),
        (COCO1, "p1^2/2 + sin(t)*q1 + 0.1*z*p1", np.array([0.2, 0.4, 1.3, -0.5])),
    ]
    h = 1e-6
    for g, src, x in cases:
        H = g.parse(src)
        X0, dX = hamiltonian_vf_jacobian(g, H, x)
        assert np.allclose(X0, hamiltonian_vf(g, H, x), rtol=0, atol=1e-14)
        fd = np.zeros_like(dX)
        for j in range(g.dim):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (hamiltonian_vf(g, H, xp) - hamiltonian_vf(g, H, xm)) / (2 * h)
        assert np.max(np.abs(dX - fd)) < 1e-6, (g.kind, src)


# ---------------------------------------------------------------------------
# one state runs on floats, a stack on arrays: the same numbers

# Hamiltonian terms over two chart variables a and b, covering all eight
# functions, variable exponents and division; every one is defined on
# the box [0.5, 1.5] of the states below.
FIELD_TERMS = [
    "sin({a})", "cos({a}*{b})", "tan({a}/4)", "exp({a}/2)", "log({a} + {b})",
    "sqrt({a}^2 + {b})", "sinh({a})", "cosh({a} - {b})", "{a}^{b}",
    "2^{a}", "({a} + 1)^(2*{b})", "{a}/({b} + 1)", "1/{a}", "{a}^2",
    "{a}^3/3", "{a}^0.5", "{a}^-1", "{a}*{b}", "0.2*{a}",
]


@st.composite
def kind_hamiltonian_states(draw, kinds=geometry.KINDS):
    g = GeometryKind(draw(st.sampled_from(kinds)),
                     draw(st.sampled_from([1, 2])))
    names = st.sampled_from(g.chart_vars)
    terms = draw(st.lists(st.tuples(st.sampled_from(FIELD_TERMS), names, names,
                                    st.sampled_from(["+", "-", "*"])),
                          min_size=1, max_size=4))
    src = "0"
    for term, a, b, op in terms:
        src = f"({src}) {op} {term.format(a=a, b=b)}"
    states = draw(st.lists(
        st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=g.dim,
                 max_size=g.dim), min_size=1, max_size=5))
    return g, g.parse(src), np.array(states)


@settings(max_examples=80, deadline=None)
@given(case=kind_hamiltonian_states())
def test_one_state_fields_equal_stacked_rows(case):
    g, H, X = case
    for field in (hamiltonian_vf, dynamical_vf):
        stacked = field(g, H, X)
        for i, x in enumerate(X):
            single = field(g, H, x)
            assert single.shape == (g.dim,)
            assert np.array_equal(single, stacked[i]), (g, str(H), x)


@pytest.mark.parametrize("kind", geometry.KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_list_state_field_equals_array_field(kind, data):
    # the list form the Runge-Kutta loops carry: the same numbers as
    # Python floats, in a fresh list each call
    g, H, X = data.draw(kind_hamiltonian_states(kinds=(kind,)))
    for x in X:
        expected = dynamical_vf(g, H, x).tolist()
        got = dynamical_vf(g, H, x.tolist())
        assert type(got) is list and all(type(v) is float for v in got)
        assert got == expected, (g, str(H), x)
        got[0] = float("nan")
        got.append(0.0)
        assert dynamical_vf(g, H, x.tolist()) == expected


def count_ops(run, op):
    """How often the bytecode of an emitted function divides (op "/")
    or loads the name op."""
    if op == "/":   # BINARY_TRUE_DIVIDE before Python 3.11
        return sum(i.opname == "BINARY_TRUE_DIVIDE"
                   or (i.opname == "BINARY_OP" and i.argrepr == "/")
                   for i in dis.get_instructions(run))
    return sum(i.opname.startswith("LOAD") and i.argval == op
               for i in dis.get_instructions(run))


def test_point_field_drops_the_dead_value():
    # X_H of p1^2/2 reads dH/dp = (2*p1)/2 only: H's own value p1^2/2 is
    # not divided out, while its overflow check stays
    f = point_field(SYMP1, SYMP1.parse("p1^2/2"))
    assert count_ops(f, "/") == 1
    assert count_ops(f, "overflow") == 1
    assert f([0.25, 3.0]) == [3.0, -0.0]
    with pytest.raises(expr.DomainError,
                       match=re.escape("overflow in 'p1^2.0' at row 0")):
        f([0.25, 1e200])


def test_point_field_checks_make_no_call_until_they_fire():
    g = SYMP1
    f = point_field(g, g.parse("p1^2/2 + 1/q1"))
    events = []

    def profile(frame, event, arg):
        events.append((event, frame.f_code.co_name if arg is None
                       else getattr(arg, "__name__", arg)))

    sys.setprofile(profile)
    try:
        v = f([0.5, 3.0])
    finally:
        sys.setprofile(None)
    assert v == [3.0, 4.0]
    # the field's own frame, then the call that ends the profile: no
    # check was called
    assert [e for e in events if e[0].endswith("call")] == \
        [("call", "run"), ("c_call", "setprofile")]
    with pytest.raises(expr.DomainError, match="division by zero in '1.0/q1'"):
        f([0.0, 3.0])


# ---------------------------------------------------------------------------
# brackets: examples


def test_canonical_bracket():
    q = SYMP1.parse("q1")
    p = SYMP1.parse("p1")
    assert poisson_bracket(SYMP1, q, p, [0.7, -0.3]) == 1.0
    assert poisson_bracket(SYMP1, q, q, [0.7, -0.3]) == 0.0


def test_poisson_chain_rule_example():
    f = SYMP1.parse("q1^2")
    h = SYMP1.parse("p1^2")
    assert poisson_bracket(SYMP1, f, h, [2.0, 3.0]) == 24.0


def test_poisson_wrong_geometry():
    f = CONT1.parse("q1")
    with pytest.raises(WrongGeometry):
        poisson_bracket(CONT1, f, f, [0.0, 0.0, 0.0])
    f = SYMP1.parse("q1")
    with pytest.raises(WrongGeometry):
        jacobi_bracket(SYMP1, f, f, [0.0, 0.0])


def test_jacobi_bracket_canonical_pair():
    q = CONT1.parse("q1")
    p = CONT1.parse("p1")
    assert jacobi_bracket(CONT1, q, p, [0.2, 0.5, -1.0]) == 1.0


def test_jacobi_bracket_z_against_z_independent():
    # {z, h} = p dh/dp - h for z-independent h
    z = CONT1.parse("z")
    h = CONT1.parse("q1^2 + q1*p1^2")
    x = np.array([1.3, 0.7, 0.4])
    q, p = x[0], x[1]
    expected = p * (2 * q * p) - (q**2 + q * p**2)
    assert abs(jacobi_bracket(CONT1, z, h, x) - expected) < 1e-13


def test_cosymplectic_bracket_ignores_t():
    f = COSY1.parse("q1*t")
    h = COSY1.parse("p1*t")
    x = [0.5, -0.2, 3.0]
    # only the q/p derivatives enter: {q t, p t} = t*t
    assert abs(poisson_bracket(COSY1, f, h, x) - 9.0) < 1e-13


# ---------------------------------------------------------------------------
# bracket axioms on random polynomials

POLY_NAMES = {"symplectic": ["q1", "p1"], "contact": ["q1", "p1", "z"],
              "cosymplectic": ["q1", "p1", "t"], "cocontact": ["t", "q1", "p1", "z"]}


def random_poly(rng, names, nterms=3, max_exp=2):
    terms = []
    for _ in range(nterms):
        c = round(float(rng.uniform(-2, 2)), 3)
        factors = [repr(c)]
        for v in names:
            e = int(rng.integers(0, max_exp + 1))
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def bracket_val_grad(g, f, h, x):
    """Value and chart-gradient of the bracket, assembled from the
    gradients and Hessians of f and h (oracle for nested brackets)."""
    x = np.asarray(x, dtype=float)
    fv, gf, Hf = expr.value_and_derivatives(f, x)
    hv, gh, Hh = expr.value_and_derivatives(h, x)
    qi, pi = list(g.q_indices), list(g.p_indices)
    val = float(gf[qi] @ gh[pi] - gf[pi] @ gh[qi])
    grad = (Hf[qi, :].T @ gh[pi] + Hh[pi, :].T @ gf[qi]
            - Hf[pi, :].T @ gh[qi] - Hh[qi, :].T @ gf[pi])
    if g.kind in ("contact", "cocontact"):
        zi = g.z_index
        p = x[pi]
        sh = float(p @ gh[pi]) - hv
        sf = float(p @ gf[pi]) - fv
        val += gf[zi] * sh - gh[zi] * sf
        dsh = p @ Hh[pi, :] - gh
        dsf = p @ Hf[pi, :] - gf
        for pa in pi:
            dsh[pa] += gh[pa]
            dsf[pa] += gf[pa]
        grad += Hf[zi, :] * sh + gf[zi] * dsh - Hh[zi, :] * sf - gh[zi] * dsf
    return val, grad


def outer_bracket(g, f, x, wv, gw):
    """{f, w} where w is known only through its value and gradient."""
    x = np.asarray(x, dtype=float)
    fv = expr.evaluate(f, g.env(x))
    gf = expr.gradient(f, x)
    qi, pi = list(g.q_indices), list(g.p_indices)
    val = float(gf[qi] @ gw[pi] - gf[pi] @ gw[qi])
    if g.kind in ("contact", "cocontact"):
        zi = g.z_index
        p = x[pi]
        val += gf[zi] * (float(p @ gw[pi]) - wv) - gw[zi] * (float(p @ gf[pi]) - fv)
    return val


def jacobi_identity_residual(g, f, h, k, x):
    r = 0.0
    for a, b, c in ((f, h, k), (h, k, f), (k, f, h)):
        wv, gw = bracket_val_grad(g, b, c, x)
        r += outer_bracket(g, a, x, wv, gw)
    return r


def test_poisson_axioms_random_polys():
    rng = np.random.default_rng(2024)
    names = POLY_NAMES["symplectic"]
    for _ in range(20):
        f = SYMP1.parse(random_poly(rng, names))
        h = SYMP1.parse(random_poly(rng, names))
        k = SYMP1.parse(random_poly(rng, names))
        fg = SYMP1.parse(f"({expr.serialize(f)})*({expr.serialize(h)})")
        x = rng.uniform(-1.5, 1.5, size=2)
        env = SYMP1.env(x)
        # antisymmetry
        assert abs(poisson_bracket(SYMP1, f, h, x)
                   + poisson_bracket(SYMP1, h, f, x)) < AXIOM_TOL
        # Leibniz {fg, k} = f {h... here f*h against k
        lhs = poisson_bracket(SYMP1, fg, k, x)
        rhs = (expr.evaluate(f, env) * poisson_bracket(SYMP1, h, k, x)
               + expr.evaluate(h, env) * poisson_bracket(SYMP1, f, k, x))
        assert abs(lhs - rhs) < AXIOM_TOL
        # Jacobi identity
        assert abs(jacobi_identity_residual(SYMP1, f, h, k, x)) < AXIOM_TOL


def test_jacobi_bracket_axioms_random_polys():
    rng = np.random.default_rng(77)
    names = POLY_NAMES["contact"]
    for _ in range(20):
        f = CONT1.parse(random_poly(rng, names))
        h = CONT1.parse(random_poly(rng, names))
        k = CONT1.parse(random_poly(rng, names))
        x = rng.uniform(-1.5, 1.5, size=3)
        assert abs(jacobi_bracket(CONT1, f, h, x)
                   + jacobi_bracket(CONT1, h, f, x)) < AXIOM_TOL
        assert abs(jacobi_identity_residual(CONT1, f, h, k, x)) < AXIOM_TOL


def test_jacobi_bracket_leibniz_violation():
    # {q p, z} - q {p, z} - p {q, z} = -q p at any point: the contact
    # bracket is Jacobi, not Poisson
    f = CONT1.parse("q1")
    h = CONT1.parse("p1")
    fh = CONT1.parse("q1*p1")
    zf = CONT1.parse("z")
    x = np.array([1.0, 1.0, 0.0])
    lhs = jacobi_bracket(CONT1, fh, zf, x)
    rhs = (expr.evaluate(f, CONT1.env(x)) * jacobi_bracket(CONT1, h, zf, x)
           + expr.evaluate(h, CONT1.env(x)) * jacobi_bracket(CONT1, f, zf, x))
    violation = lhs - rhs
    assert abs(violation) > 0.1
    assert abs(violation - (-1.0)) < 1e-13


def test_contact_consistency_with_field():
    # {f, h} = X_h(f) + f R(h)
    rng = np.random.default_rng(5)
    names = POLY_NAMES["contact"]
    for _ in range(10):
        f = CONT1.parse(random_poly(rng, names))
        h = CONT1.parse(random_poly(rng, names))
        x = rng.uniform(-1.2, 1.2, size=3)
        lhs = jacobi_bracket(CONT1, f, h, x)
        Xh = hamiltonian_vf(CONT1, h, x)
        gf = expr.gradient(f, x)
        rh = expr.gradient(h, x)[CONT1.z_index]
        rhs = float(gf @ Xh) + expr.evaluate(f, CONT1.env(x)) * rh
        assert abs(lhs - rhs) < CONSISTENCY_TOL


def test_contact_evolution_identity():
    # dH/dt along X_H equals {H,H} - H R(H) = -H dH/dz
    rng = np.random.default_rng(11)
    names = POLY_NAMES["contact"]
    for _ in range(10):
        H = CONT1.parse(random_poly(rng, names))
        x = rng.uniform(-1.2, 1.2, size=3)
        X = hamiltonian_vf(CONT1, H, x)
        gH = expr.gradient(H, x)
        lhs = float(gH @ X)
        Hv = expr.evaluate(H, CONT1.env(x))
        rhs = -Hv * gH[CONT1.z_index]
        assert abs(lhs - rhs) < CONSISTENCY_TOL


def test_cocontact_jacobi_bracket_matches_contact_on_slice():
    # t-independent functions: the cocontact bracket reduces to contact
    rng = np.random.default_rng(8)
    for _ in range(5):
        src_f = random_poly(rng, ["q1", "p1", "z"])
        src_h = random_poly(rng, ["q1", "p1", "z"])
        xq, xp, xz = rng.uniform(-1, 1, size=3)
        v_contact = jacobi_bracket(CONT1, CONT1.parse(src_f), CONT1.parse(src_h),
                                   [xq, xp, xz])
        v_cocontact = jacobi_bracket(COCO1, COCO1.parse(src_f), COCO1.parse(src_h),
                                     [0.3, xq, xp, xz])
        assert abs(v_contact - v_cocontact) < 1e-13
