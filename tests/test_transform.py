"""Transformation layer: Jacobians, Lagrange brackets, canonical and
canonoid certification, K recovery.

Oracle values used below are worked by hand:

* F = (q, p^3/3), H = p^2/2 on the plane: [q, p] = p^2, the candidate
  K-gradient is (0, p^3), and K = p^4/4 with K(0, 0) = 0.
* F = (q, q*p), same H: the candidate gradient is (0, q*p) whose curl
  is p, so the map is canonoid nowhere with p != 0.
* contact scaling (q, c*p, c*z): pulled-back one-form is c times the
  original, so the canonical residual is max(|c-1|*|p|, |c-1|) and the
  new Hamiltonian is K = c*H for every H.
"""

import numpy as np
import pytest

from canonoid import expr, geometry, transform
from canonoid.geometry import GeometryKind, WrongGeometry
from canonoid.transform import (
    NonCanonoid, SingularReeb, TransformMap, candidate_K_gradient,
    check_canonical, check_canonoid, jacobian, jacobian_and_hessians,
    lagrange_brackets, lagrange_derivative, recover_K,
)

EXACT = 1e-14
NUMERIC = 1e-10

SYMP1 = GeometryKind("symplectic", 1)
SYMP2 = GeometryKind("symplectic", 2)
COSY1 = GeometryKind("cosymplectic", 1)
CONT1 = GeometryKind("contact", 1)
COCO1 = GeometryKind("cocontact", 1)


def tmap(g, sources):
    return TransformMap.parse(g, sources)


# ---------------------------------------------------------------------------
# construction and validation


def test_component_count_checked():
    with pytest.raises(ValueError, match="components"):
        tmap(SYMP1, ["q1", "p1", "q1"])


def test_time_component_must_be_literal_t():
    with pytest.raises(ValueError, match="literal"):
        tmap(COSY1, ["q1", "p1", "t+0"])
    with pytest.raises(ValueError, match="literal"):
        tmap(COCO1, ["2*t", "q1", "p1", "z"])
    # bare t is fine
    tmap(COSY1, ["q1", "p1", "t"])
    tmap(COCO1, ["t", "q1", "p1", "z"])


def test_parse_from_mapping():
    F = tmap(SYMP1, {"q1": "p1", "p1": "0-q1"})
    J = jacobian(F, [0.3, 0.8])
    assert np.allclose(J, [[0.0, 1.0], [-1.0, 0.0]], atol=EXACT)
    with pytest.raises(ValueError, match="missing"):
        tmap(SYMP1, {"q1": "p1"})
    with pytest.raises(ValueError, match="unexpected"):
        tmap(SYMP1, {"q1": "q1", "p1": "p1", "z": "z"})


def test_identity_jacobian():
    F = TransformMap.identity(SYMP2)
    J = jacobian(F, [0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(J, np.eye(4))


def test_singular_jacobian_rejected():
    F = tmap(SYMP1, ["q1^2/2", "p1"])
    with pytest.raises(ValueError, match="singular"):
        jacobian(F, [0.0, 1.0])
    # fine away from the singular locus
    J = jacobian(F, [2.0, 1.0])
    assert np.allclose(J, [[2.0, 0.0], [0.0, 1.0]], atol=EXACT)


# ---------------------------------------------------------------------------
# Lagrange brackets


def test_cubic_momentum_bracket():
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    for p in (0.5, 1.0, 2.0):
        lam = lagrange_brackets(F, [0.7, p])
        assert abs(lam[0, 1] - p * p) < EXACT
        assert abs(lam[1, 0] + p * p) < EXACT


def test_lagrange_antisymmetry_exact():
    rng = np.random.default_rng(7)
    F = tmap(SYMP2, ["q1*p2", "exp(q2)", "p1^2", "q1+p2*q2"])
    for _ in range(10):
        x = rng.uniform(0.2, 1.5, size=4)
        lam = lagrange_brackets(F, x)
        assert np.array_equal(lam, -lam.T)


def test_contact_scaling_z_row_vanishes():
    F = tmap(CONT1, ["q1", "2*p1", "2*z"])
    lam = lagrange_brackets(F, [0.4, 1.3, 0.9])
    zi = CONT1.z_index
    assert np.array_equal(lam[zi, :], np.zeros(3))
    assert np.array_equal(lam[:, zi], np.zeros(3))
    assert abs(lam[0, 1] - 2.0) < EXACT


def test_lagrange_derivative_matches_finite_differences():
    F = tmap(SYMP1, ["q1*p1", "sin(p1)+q1^2"])
    x = np.array([0.6, 1.1])
    dLam = lagrange_derivative(F, x)
    h = 1e-6
    for nu in range(2):
        e = np.zeros(2)
        e[nu] = h
        lp = lagrange_brackets(F, x + e)
        lm = lagrange_brackets(F, x - e)
        fd = (lp - lm) / (2 * h)
        assert np.max(np.abs(dLam[nu] - fd)) < 1e-8


# ---------------------------------------------------------------------------
# canonical check


def test_rotation_is_canonical():
    F = tmap(SYMP1, ["cos(0.7)*q1 + sin(0.7)*p1",
                     "cos(0.7)*p1 - sin(0.7)*q1"])
    samples = np.array([[0.1, 0.2], [1.0, -1.0], [3.0, 0.5]])
    res = check_canonical(SYMP1, F, samples)
    assert res.canonical
    assert res.max_residual < EXACT


def test_shear_of_rotation_is_canonical():
    # symplectic maps compose: shear (q + 0.3 p, p) after a rotation
    rot_q = "cos(0.7)*q1 + sin(0.7)*p1"
    rot_p = "cos(0.7)*p1 - sin(0.7)*q1"
    F = tmap(SYMP1, [f"{rot_q} + 0.3*({rot_p})", rot_p])
    res = check_canonical(SYMP1, F, [[0.4, 1.7], [-2.0, 0.3]])
    assert res.canonical
    assert res.max_residual < EXACT


def test_cubic_momentum_not_canonical():
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    samples = np.array([[0.0, 0.5], [0.0, 1.0], [0.0, 2.0]])
    res = check_canonical(SYMP1, F, samples)
    assert not res.canonical
    expected = max(abs(p * p - 1.0) for p in samples[:, 1])
    assert abs(res.max_residual - expected) < EXACT


def test_contact_scaling_canonical_residual():
    F = tmap(CONT1, ["q1", "2*p1", "2*z"])
    res = check_canonical(CONT1, F, [[1.0, 0.5, 0.0]])
    # theta_bar - theta = (-p, 0, 1) at the sample
    assert not res.canonical
    assert abs(res.max_residual - 1.0) < EXACT
    res = check_canonical(CONT1, F, [[1.0, 3.0, 0.0]])
    assert abs(res.max_residual - 3.0) < EXACT


def test_contact_identity_canonical():
    F = TransformMap.identity(CONT1)
    res = check_canonical(CONT1, F, [[0.3, 1.4, -0.2]])
    assert res.canonical
    assert res.max_residual == 0.0


def test_cosymplectic_eta_pullback_exact():
    F = tmap(COSY1, ["q1 + t^2", "p1", "t"])
    _, J, _ = transform._eval_components(F, np.array([0.5, 0.5, 2.0]))
    assert np.array_equal(J[COSY1.t_index, :], np.array([0.0, 0.0, 1.0]))


def test_cocontact_identity_canonical():
    F = TransformMap.identity(COCO1)
    res = check_canonical(COCO1, F, [[0.5, 0.3, 1.4, -0.2]])
    assert res.canonical
    assert res.max_residual == 0.0


# ---------------------------------------------------------------------------
# candidate K gradient (symplectic kinds)


def test_identity_gradient_recovers_dH():
    g = SYMP1
    F = TransformMap.identity(g)
    H = g.parse("q1^2/2 + p1^4/4")
    for x in ([0.3, 0.9], [1.2, -0.4]):
        kg = candidate_K_gradient(g, F, H, x)
        grad = expr.gradient(H, np.asarray(x, dtype=float))
        assert np.max(np.abs(kg.d_x - grad)) < EXACT
        assert kg.d_t is None


def test_cubic_momentum_gradient():
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    for p in (0.5, 1.5, 2.0):
        kg = candidate_K_gradient(g, F, H, [0.4, p])
        assert np.max(np.abs(kg.d_x - np.array([0.0, p ** 3]))) < EXACT


def test_shear_product_gradient_has_curl():
    g = SYMP1
    F = tmap(g, ["q1", "q1*p1"])
    H = g.parse("p1^2/2")
    x = np.array([0.8, 1.3])
    G, dG, _ = transform._k_gradient_pieces(g, F, H, x)
    assert np.max(np.abs(G - np.array([0.0, x[0] * x[1]]))) < EXACT
    dGx = dG[:, [0, 1]]
    assert np.allclose(dGx, [[0.0, 0.0], [x[1], x[0]]], atol=EXACT)
    assert abs(np.max(np.abs(dGx - dGx.T)) - x[1]) < EXACT


def test_contact_kind_has_no_gradient_candidate():
    F = TransformMap.identity(CONT1)
    H = CONT1.parse("p1^2/2")
    with pytest.raises(WrongGeometry):
        candidate_K_gradient(CONT1, F, H, [0.1, 0.2, 0.3])


def test_cosymplectic_gradient_with_time_part():
    g = COSY1
    F = tmap(g, ["q1", "1.5*p1", "t"])
    H = g.parse("p1^2/2 + t*q1")
    q, p, t = 0.8, 1.3, 2.0
    kg = candidate_K_gradient(g, F, H, [q, p, t])
    assert np.max(np.abs(kg.d_x - np.array([1.5 * t, 1.5 * p]))) < EXACT
    # dK/dt from the x-line integral at fixed t: 1.5*q
    assert abs(kg.d_t - 1.5 * q) < NUMERIC


# ---------------------------------------------------------------------------
# canonoid check


def test_cubic_momentum_is_canonoid():
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    samples = np.array([[0.0, 0.5], [0.5, 1.0], [1.0, 2.0]])
    res = check_canonoid(g, F, H, samples)
    assert res.canonoid
    assert res.max_residual < EXACT
    assert set(res.components) == {"closedness"}
    # K = p^4/4 up to the base gauge K(samples[0]) = 0
    expected = samples[:, 1] ** 4 / 4 - samples[0, 1] ** 4 / 4
    assert np.max(np.abs(res.K_probe - expected)) < NUMERIC


def test_shear_product_is_not_canonoid():
    g = SYMP1
    F = tmap(g, ["q1", "q1*p1"])
    H = g.parse("p1^2/2")
    samples = np.array([[0.5, 0.5], [1.0, 1.5]])
    res = check_canonoid(g, F, H, samples)
    assert not res.canonoid
    assert abs(res.max_residual - 1.5) < EXACT
    assert res.K_probe is None


def test_canonical_implies_canonoid():
    g = SYMP1
    F = tmap(g, ["cos(0.7)*q1 + sin(0.7)*p1",
                 "cos(0.7)*p1 - sin(0.7)*q1"])
    H = g.parse("q1^2*p1 + sin(q1)")
    samples = np.array([[0.2, 0.1], [0.9, -0.7], [1.4, 0.8]])
    res = check_canonoid(g, F, H, samples)
    assert res.canonoid
    assert res.max_residual < 1e-12
    assert np.all(np.isfinite(res.K_probe))


def test_constant_shift_of_H_changes_nothing():
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    samples = np.array([[0.2, 0.4], [1.0, 1.1]])
    r1 = check_canonoid(g, F, g.parse("p1^2/2"), samples)
    r2 = check_canonoid(g, F, g.parse("p1^2/2 + 5"), samples)
    assert r1.components == r2.components
    assert np.array_equal(r1.K_probe, r2.K_probe)


def test_cosymplectic_scaling_is_canonoid():
    g = COSY1
    F = tmap(g, ["q1", "1.5*p1", "t"])
    H = g.parse("p1^2/2 + t*q1")
    samples = np.array([[0.0, 0.0, 0.0], [0.5, 1.0, 1.0], [1.0, -0.5, 2.0]])
    res = check_canonoid(g, F, H, samples)
    assert res.canonoid
    assert res.max_residual < EXACT
    assert set(res.components) == {"closedness", "time_bracket"}
    # K = 1.5 H, and the base gauge zeroes K on the q = p = 0 fiber
    expected = 1.5 * (samples[:, 1] ** 2 / 2 + samples[:, 2] * samples[:, 0])
    assert np.max(np.abs(res.K_probe - expected)) < NUMERIC


def test_time_dependent_scaling_fails_structurally():
    # P = (1 + t) p makes the candidate gradient closed in x at each t,
    # yet [q, t] = p != 0: trace conservation along the evolution field
    # genuinely fails for this map, so the verdict must be negative.
    g = COSY1
    F = tmap(g, ["q1", "p1 + t*p1", "t"])
    H = g.parse("p1^2/2")
    samples = np.array([[0.3, 0.8, 0.5], [1.0, 1.2, 1.5]])
    res = check_canonoid(g, F, H, samples)
    assert not res.canonoid
    assert res.components["closedness"] < EXACT
    assert abs(res.components["time_bracket"] - 1.2) < EXACT


def test_contact_scaling_is_canonoid_with_K_equal_2H():
    g = CONT1
    F = tmap(g, ["q1", "2*p1", "2*z"])
    H = g.parse("(q1^2 + p1^2)/2")
    samples = np.array([[0.6, 0.8, 0.1], [1.0, -0.3, 0.4]])
    res = check_canonoid(g, F, H, samples)
    assert res.canonoid
    assert res.max_residual < EXACT
    hvals = np.array([expr.evaluate(H, g.env(x)) for x in samples])
    assert np.max(np.abs(res.K_probe - 2.0 * hvals)) < EXACT


def test_contact_scaling_canonoid_for_any_H():
    # the scaled contact structure differs by a constant conformal
    # factor, so the defining conditions close for every Hamiltonian
    g = CONT1
    F = tmap(g, ["q1", "0.5*p1", "0.5*z"])
    H = g.parse("q1^2*p1 + sin(z) + exp(q1)/2")
    samples = np.array([[0.4, 1.1, 0.2], [0.9, 0.7, -0.5]])
    res = check_canonoid(g, F, H, samples)
    assert res.canonoid
    assert res.max_residual < 1e-12


def test_contact_nonexample_reported():
    g = CONT1
    F = tmap(g, ["q1", "p1^2", "z"])
    H = g.parse("(q1^2 + p1^2)/2")
    res = check_canonoid(g, F, H, [[0.7, 1.2, 0.3]])
    assert not res.canonoid
    assert res.max_residual > 1e-2


def test_cocontact_scaling_is_canonoid():
    g = COCO1
    F = tmap(g, ["t", "q1", "3*p1", "3*z"])
    H = g.parse("(q1^2 + p1^2)/2")
    samples = np.array([[0.0, 0.6, 0.8, 0.1], [1.0, 1.0, -0.3, 0.4]])
    res = check_canonoid(g, F, H, samples)
    assert res.canonoid
    assert set(res.components) == {"contact_condition", "eta_contraction",
                                   "time_bracket"}
    assert res.components["eta_contraction"] == 0.0
    assert res.components["time_bracket"] == 0.0
    hvals = np.array([expr.evaluate(H, g.env(x)) for x in samples])
    assert np.max(np.abs(res.K_probe - 3.0 * hvals)) < EXACT


def test_reeb_solve_rejects_degenerate_coframe():
    M = np.zeros((4, 3))
    M[0] = [1.0, 0.0, 0.0]
    rhs = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(SingularReeb):
        transform._solve_reeb(M, rhs, "test coframe")


def test_nearly_singular_pullback_raises():
    g = CONT1
    F = tmap(g, ["q1", "p1/1000000000000000000000000000000", "z"])
    H = g.parse("p1^2/2")
    with pytest.raises(SingularReeb):
        check_canonoid(g, F, H, [[0.5, 1.0, 0.2]])


# ---------------------------------------------------------------------------
# K recovery


def test_recover_K_quartic():
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    base = np.array([0.0, 0.0])
    for q, p in [(0.5, 1.0), (1.0, 2.0), (-0.5, 1.7), (2.5, 3.0)]:
        K = recover_K(g, F, H, [q, p], base)
        assert abs(K - p ** 4 / 4) < NUMERIC


def test_recover_K_at_base_is_zero():
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    base = np.array([0.4, 0.8])
    assert recover_K(g, F, H, base, base) == 0.0


def test_recover_K_gauge_shift():
    # moving the base point shifts K by a constant
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    b1 = np.array([0.0, 0.0])
    b2 = np.array([0.0, 1.0])
    x = np.array([0.7, 1.5])
    K1 = recover_K(g, F, H, x, b1)
    K2 = recover_K(g, F, H, x, b2)
    assert abs((K1 - K2) - 0.25) < NUMERIC  # K(b2) - K(b1) = 1/4


def test_recover_K_rejects_open_gradient():
    g = SYMP1
    F = tmap(g, ["q1", "q1*p1"])
    H = g.parse("p1^2/2")
    with pytest.raises(NonCanonoid):
        recover_K(g, F, H, [1.5, 1.5], np.array([0.5, 0.5]))


def test_recover_K_cosymplectic_fixed_time_slice():
    g = COSY1
    F = tmap(g, ["q1", "1.5*p1", "t"])
    H = g.parse("p1^2/2 + t*q1")
    base = np.array([0.0, 0.0, 0.0])
    for q, p, t in [(0.5, 1.0, 0.0), (1.0, 0.5, 2.0), (-0.4, 1.2, 3.5)]:
        K = recover_K(g, F, H, [q, p, t], base)
        assert abs(K - 1.5 * (p * p / 2 + t * q)) < NUMERIC


def test_recover_K_contact_is_algebraic():
    g = CONT1
    F = tmap(g, ["q1", "2*p1", "2*z"])
    H = g.parse("(q1^2 + p1^2)/2 + 0.2*z")
    x = np.array([0.6, 0.8, 0.3])
    K = recover_K(g, F, H, x, np.zeros(3))
    hval = expr.evaluate(H, g.env(x))
    assert abs(K - 2.0 * hval) < EXACT


def test_jacobian_and_hessians_shapes():
    g = CONT1
    F = tmap(g, ["q1 + z^2", "p1*q1", "z"])
    vals, J, H = jacobian_and_hessians(F, np.array([0.5, 1.0, 0.7]))
    assert vals.shape == (3,) and J.shape == (3, 3) and H.shape == (3, 3, 3)
    assert abs(vals[0] - (0.5 + 0.49)) < EXACT
    assert abs(H[0][2, 2] - 2.0) < EXACT
    assert abs(H[1][0, 1] - 1.0) < EXACT


def test_stacked_jacobian_and_hessians_match_single_points():
    g = CONT1
    F = tmap(g, ["q1 + z^2", "p1*q1", "z + sin(p1)"])
    X = np.array([[0.5, 1.0, 0.7], [0.9, 0.6, 1.3], [1.2, 1.4, 0.2]])
    vals, J, H = jacobian_and_hessians(F, X)
    assert vals.shape == (3, 3) and J.shape == (3, 3, 3)
    assert H.shape == (3, 3, 3, 3)
    for i, x in enumerate(X):
        vi, Ji, Hi = jacobian_and_hessians(F, x)
        assert np.array_equal(vals[i], vi) and np.array_equal(J[i], Ji)
        assert np.array_equal(H[i], Hi)


def test_non_finite_jacobian_is_rejected_before_the_singularity_test():
    # the product overflows to inf without raising; det(J) would be NaN,
    # which an exact comparison with 0 lets through
    F = tmap(SYMP1, ["q1", "p1*1e200*1e200*q1"])
    with pytest.raises(transform.NonFiniteResidual,
                       match="non-finite residual at sample 0 in transform "
                             "component p1"):
        jacobian(F, [1.0, 1.0])
    # on a stack the first failing row is named
    F = tmap(SYMP1, ["q1", "p1*q1*1e300"])
    with pytest.raises(transform.NonFiniteResidual,
                       match="non-finite residual at sample 1 in transform "
                             "component p1"):
        jacobian_and_hessians(F, [[1.0, 1.0], [1e10, 1.0], [1e20, 1.0]])


def test_recover_K_stack_matches_single_points():
    for g, sources, H in (
            (SYMP1, ["q1", "p1^3/3"], "p1^2/2"),
            (COSY1, ["q1", "1.5*p1", "t"], "p1^2/2 + t*q1")):
        F = tmap(g, sources)
        H = g.parse(H)
        rng = np.random.default_rng(17)
        X = rng.uniform(0.5, 2.5, size=(5, g.dim))
        base = X[0]
        K = recover_K(g, F, H, X, base)
        assert K.shape == (5,)
        for i, x in enumerate(X):
            single = recover_K(g, F, H, x, base)
            assert abs(K[i] - single) <= 1e-13 * max(1.0, abs(single))
