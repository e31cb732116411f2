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
from hypothesis import given, settings
from hypothesis import strategies as st

from canonoid import expr, geometry, transform
from canonoid.geometry import GeometryKind
from canonoid.transform import (
    NonCanonoid, SingularReeb, SingularTransform, TransformMap, check_canonical, check_canonoid, jacobian, jacobian_and_hessians,
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
    res = check_canonical(F, samples)
    assert res.canonical
    assert res.max_residual < EXACT


def test_shear_of_rotation_is_canonical():
    # symplectic maps compose: shear (q + 0.3 p, p) after a rotation
    rot_q = "cos(0.7)*q1 + sin(0.7)*p1"
    rot_p = "cos(0.7)*p1 - sin(0.7)*q1"
    F = tmap(SYMP1, [f"{rot_q} + 0.3*({rot_p})", rot_p])
    res = check_canonical(F, [[0.4, 1.7], [-2.0, 0.3]])
    assert res.canonical
    assert res.max_residual < EXACT


def test_cubic_momentum_not_canonical():
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    samples = np.array([[0.0, 0.5], [0.0, 1.0], [0.0, 2.0]])
    res = check_canonical(F, samples)
    assert not res.canonical
    expected = max(abs(p * p - 1.0) for p in samples[:, 1])
    assert abs(res.max_residual - expected) < EXACT


def test_contact_scaling_canonical_residual():
    F = tmap(CONT1, ["q1", "2*p1", "2*z"])
    res = check_canonical(F, [[1.0, 0.5, 0.0]])
    # theta_bar - theta = (-p, 0, 1) at the sample
    assert not res.canonical
    assert abs(res.max_residual - 1.0) < EXACT
    res = check_canonical(F, [[1.0, 3.0, 0.0]])
    assert abs(res.max_residual - 3.0) < EXACT


def test_contact_identity_canonical():
    F = TransformMap.identity(CONT1)
    res = check_canonical(F, [[0.3, 1.4, -0.2]])
    assert res.canonical
    assert res.max_residual == 0.0


def test_cosymplectic_eta_pullback_exact():
    F = tmap(COSY1, ["q1 + t^2", "p1", "t"])
    _, J, _ = transform._eval_components(F, np.array([0.5, 0.5, 2.0]))
    assert np.array_equal(J[COSY1.t_index, :], np.array([0.0, 0.0, 1.0]))


def test_cocontact_identity_canonical():
    F = TransformMap.identity(COCO1)
    res = check_canonical(F, [[0.5, 0.3, 1.4, -0.2]])
    assert res.canonical
    assert res.max_residual == 0.0


# ---------------------------------------------------------------------------
# candidate K gradient (symplectic kinds)


def test_identity_gradient_recovers_dH():
    g = SYMP1
    F = TransformMap.identity(g)
    H = g.parse("q1^2/2 + p1^4/4")
    for x in ([0.3, 0.9], [1.2, -0.4]):
        x = np.array(x)
        G = transform._k_gradient_only(F, H, x)
        assert np.max(np.abs(G - expr.gradient(H, x))) < EXACT


def test_cubic_momentum_gradient():
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    for p in (0.5, 1.5, 2.0):
        G = transform._k_gradient_only(F, H, np.array([0.4, p]))
        assert np.max(np.abs(G - np.array([0.0, p ** 3]))) < EXACT


def test_shear_product_gradient_has_curl():
    g = SYMP1
    F = tmap(g, ["q1", "q1*p1"])
    H = g.parse("p1^2/2")
    x = np.array([0.8, 1.3])
    G = transform._k_gradient_only(F, H, x)
    dG, _ = transform._k_gradient_pieces(F, H, x)
    assert np.max(np.abs(G - np.array([0.0, x[0] * x[1]]))) < EXACT
    dGx = dG[:, [0, 1]]
    assert np.allclose(dGx, [[0.0, 0.0], [x[1], x[0]]], atol=EXACT)
    assert abs(np.max(np.abs(dGx - dGx.T)) - x[1]) < EXACT


# ---------------------------------------------------------------------------
# canonoid check


def test_cubic_momentum_is_canonoid():
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    samples = np.array([[0.0, 0.5], [0.5, 1.0], [1.0, 2.0]])
    res = check_canonoid(F, H, samples)
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
    res = check_canonoid(F, H, samples)
    assert not res.canonoid
    assert abs(res.max_residual - 1.5) < EXACT
    assert res.K_probe is None


def test_closedness_defect_is_the_largest_asymmetric_entry():
    # over (q1, q2, p1, p2) the asymmetric part dGx - dGx^T holds +-2 at
    # (0, 1) and +-0.5 at (2, 3): the defect is their largest magnitude,
    # 2, not the 5 of the magnitudes summed (nor the 0 of the signed sum)
    dG = np.zeros((4, 4))
    dG[0, 1], dG[1, 0] = 3.0, 1.0
    dG[2, 3], dG[3, 2] = 0.25, 0.75
    dG[1, 2] = dG[2, 1] = 7.0   # symmetric: closed
    assert transform._closedness_defect(SYMP2, dG) == 2.0
    assert np.array_equal(
        transform._closedness_defect(SYMP2, np.stack([dG, -4.0 * dG])),
        [2.0, 8.0])
    # the t-column of a cosymplectic candidate takes no part
    dGt = np.zeros((2, 3))
    dGt[0, 1], dGt[1, 0], dGt[0, 2] = 1.5, -1.0, 9.0
    assert transform._closedness_defect(COSY1, dGt) == 2.5


def test_canonical_implies_canonoid():
    g = SYMP1
    F = tmap(g, ["cos(0.7)*q1 + sin(0.7)*p1",
                 "cos(0.7)*p1 - sin(0.7)*q1"])
    H = g.parse("q1^2*p1 + sin(q1)")
    samples = np.array([[0.2, 0.1], [0.9, -0.7], [1.4, 0.8]])
    res = check_canonoid(F, H, samples)
    assert res.canonoid
    assert res.max_residual < 1e-12
    assert np.all(np.isfinite(res.K_probe))


def test_constant_shift_of_H_changes_nothing():
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    samples = np.array([[0.2, 0.4], [1.0, 1.1]])
    r1 = check_canonoid(F, g.parse("p1^2/2"), samples)
    r2 = check_canonoid(F, g.parse("p1^2/2 + 5"), samples)
    assert r1.components == r2.components
    assert np.array_equal(r1.K_probe, r2.K_probe)


def test_cosymplectic_scaling_is_canonoid():
    g = COSY1
    F = tmap(g, ["q1", "1.5*p1", "t"])
    H = g.parse("p1^2/2 + t*q1")
    samples = np.array([[0.0, 0.0, 0.0], [0.5, 1.0, 1.0], [1.0, -0.5, 2.0]])
    res = check_canonoid(F, H, samples)
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
    res = check_canonoid(F, H, samples)
    assert not res.canonoid
    assert res.components["closedness"] < EXACT
    assert abs(res.components["time_bracket"] - 1.2) < EXACT


def test_contact_scaling_is_canonoid_with_K_equal_2H():
    g = CONT1
    F = tmap(g, ["q1", "2*p1", "2*z"])
    H = g.parse("(q1^2 + p1^2)/2")
    samples = np.array([[0.6, 0.8, 0.1], [1.0, -0.3, 0.4]])
    res = check_canonoid(F, H, samples)
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
    res = check_canonoid(F, H, samples)
    assert res.canonoid
    assert res.max_residual < 1e-12


def test_contact_nonexample_reported():
    g = CONT1
    F = tmap(g, ["q1", "p1^2", "z"])
    H = g.parse("(q1^2 + p1^2)/2")
    res = check_canonoid(F, H, [[0.7, 1.2, 0.3]])
    assert not res.canonoid
    assert res.max_residual > 1e-2


def test_cocontact_scaling_is_canonoid():
    g = COCO1
    F = tmap(g, ["t", "q1", "3*p1", "3*z"])
    H = g.parse("(q1^2 + p1^2)/2")
    samples = np.array([[0.0, 0.6, 0.8, 0.1], [1.0, 1.0, -0.3, 0.4]])
    res = check_canonoid(F, H, samples)
    assert res.canonoid
    assert set(res.components) == {"contact_condition", "eta_contraction",
                                   "time_bracket"}
    assert res.components["eta_contraction"] == 0.0
    assert res.components["time_bracket"] == 0.0
    hvals = np.array([expr.evaluate(H, g.env(x)) for x in samples])
    assert np.max(np.abs(res.K_probe - 3.0 * hvals)) < EXACT


def _contact_coframes(count):
    """count copies of the identity's contact coframe at p = 0 for n = 1:
    the row of theta = dz, then the rows of the transposed Lagrange
    matrix of dq ^ dp.  Its Reeb field is d/dz."""
    M = np.zeros((count, 4, 3))
    M[:, 0, 2] = 1.0
    M[:, 1, 1] = -1.0
    M[:, 2, 0] = 1.0
    return M


def test_reeb_solve_rejects_degenerate_coframe():
    M = _contact_coframes(4)
    M[2, 1:] = 0.0      # sample 2 keeps its one-form, loses its two-form
    with pytest.raises(SingularReeb, match="rank-deficient at sample 2"):
        transform._reeb_fields(M, 1, "test coframe")


def test_reeb_inconsistent_coframe_is_named():
    # full rank, but the one-form dz also lies in the two-form's rows, so
    # no field pairs to 1 with it and lies in the kernel of the rows
    M = _contact_coframes(3)
    M[1, 3] = [0.0, 0.0, 1.0]
    with pytest.raises(SingularReeb,
                       match="no consistent Reeb solution at sample 1"):
        transform._reeb_fields(M, 1, "test coframe")


def test_nearly_singular_pullback_raises():
    g = CONT1
    F = tmap(g, ["q1", "p1/1000000000000000000000000000000", "z"])
    H = g.parse("p1^2/2")
    with pytest.raises(SingularReeb):
        check_canonoid(F, H, [[0.5, 1.0, 0.2]])


# ---------------------------------------------------------------------------
# cross-kind lifts: a symplectic pair lifted to cosymplectic and a contact
# pair lifted to cocontact, with t -> t and H free of t, at the same
# (q, p[, z]) samples and t = 0.7.  The canonoid computation is shared
# on the symplectic kinds, so the lift agrees bit for bit; the cocontact
# residual solves two Reeb fields instead of one and moves by rounding.

LIFT_T = 0.7


def _lift_pair(kind, n, F_sources, H_source, samples):
    """check_canonoid of F, H on `kind`, and of their lift with t at the
    same samples."""
    lifted = {"symplectic": "cosymplectic", "contact": "cocontact"}[kind]
    t = np.full((len(samples), 1), LIFT_T)
    out = []
    for k, X in ((kind, samples),
                 (lifted, np.hstack([samples, t]) if kind == "symplectic"
                  else np.hstack([t, samples]))):
        g = GeometryKind(k, n)
        F = dict(F_sources, t="t") if g.t_index is not None else F_sources
        out.append(check_canonoid(tmap(g, F), g.parse(H_source), X))
    return out


def _bench_cubic(n):
    F = {}
    for i in range(1, n + 1):
        F.update({f"q{i}": f"q{i}", f"p{i}": f"p{i}^3/3 + sin(p{i})/2"})
    return F, " + ".join(f"p{i}^2/2" for i in range(1, n + 1))


def _oscillator_scaling(n):
    # criterion 10's family: (q_i, p_i) scaled by 1 + a_i E_i, with E_i
    # the i-th oscillator's energy and H the sum of them
    F, energies = {}, []
    for i, a in zip(range(1, n + 1), (1.0, 0.5)):
        e = f"((q{i}^2 + p{i}^2)/2)"
        F.update({f"q{i}": f"q{i}*(1 + {a}*{e})",
                  f"p{i}": f"p{i}*(1 + {a}*{e})"})
        energies.append(e)
    return F, " + ".join(energies)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", [_bench_cubic, _oscillator_scaling])
def test_symplectic_lift_keeps_canonoid_bit_for_bit(family, n):
    samples = np.random.default_rng(80 + n).uniform(0.5, 1.5, (25, 2 * n))
    base, lift = _lift_pair("symplectic", n, *family(n), samples)
    assert base.canonoid and lift.canonoid
    assert lift.max_residual == base.max_residual
    assert lift.components == dict(base.components, time_bracket=0.0)
    assert np.array_equal(lift.K_probe, base.K_probe)


def _contact_scaling(c, n):
    # the scaling (q, c*p, c*z) with a z-dependent H, so that both Reeb
    # fields of the cocontact lift enter its residual
    F = {"z": f"{c}*z"}
    for i in range(1, n + 1):
        F.update({f"q{i}": f"q{i}", f"p{i}": f"{c}*p{i}"})
    H = " + ".join(f"(q{i}^2 + p{i}^2)/2" for i in range(1, n + 1))
    return F, H + " + 0.2*z"


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("c", [2, 3])
def test_contact_lift_keeps_canonoid(c, n):
    samples = np.random.default_rng(90 + n).uniform(0.5, 1.5, (25, 2 * n + 1))
    base, lift = _lift_pair("contact", n, *_contact_scaling(c, n), samples)
    assert base.canonoid and lift.canonoid
    assert np.array_equal(lift.K_probe, base.K_probe)
    gap = (lift.components["contact_condition"]
           - base.components["contact_condition"])
    assert abs(gap) <= 1e-14
    assert lift.components["eta_contraction"] == 0.0
    assert lift.components["time_bracket"] == 0.0


# ---------------------------------------------------------------------------
# K recovery


def test_gl_rule_is_leggauss_bit_for_bit():
    # the literal table stands in for numpy.polynomial, which no CLI
    # process loads; compared by bytes, so a signed zero or a last ulp
    # of any node or weight counts
    nodes, weights = transform._gl_rule()
    want = np.polynomial.legendre.leggauss(transform.GL_NODES_PER_UNIT)
    assert len(nodes) == len(weights) == transform.GL_NODES_PER_UNIT
    assert nodes.tobytes() == want[0].tobytes()
    assert weights.tobytes() == want[1].tobytes()


def test_recover_K_quartic():
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    base = np.array([0.0, 0.0])
    for q, p in [(0.5, 1.0), (1.0, 2.0), (-0.5, 1.7), (2.5, 3.0)]:
        K = recover_K(F, H, [q, p], base)
        assert abs(K - p ** 4 / 4) < NUMERIC


def test_recover_K_on_a_segment_one_panel_cannot_resolve():
    # K = 1.5 H for the scaling map; along the segment from the origin
    # sin(2 q1) turns through 80 radians, which one 32-node panel cannot
    # integrate and one panel per unit of length does to rounding
    g = SYMP1
    F = tmap(g, ["q1", "1.5*p1"])
    H = g.parse("sin(2*q1) + p1^2/2")
    X = np.array([[40.0, 1.0], [-25.0, 0.5], [0.3, 0.2]])
    K = recover_K(F, H, X, np.zeros(2))
    want = 1.5 * (np.sin(2 * X[:, 0]) + X[:, 1] ** 2 / 2)
    assert np.max(np.abs(K - want)) < 1e-10


def test_recover_K_at_base_is_zero():
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    base = np.array([0.4, 0.8])
    assert recover_K(F, H, base, base) == 0.0


def test_recover_K_gauge_shift():
    # moving the base point shifts K by a constant
    g = SYMP1
    F = tmap(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    b1 = np.array([0.0, 0.0])
    b2 = np.array([0.0, 1.0])
    x = np.array([0.7, 1.5])
    K1 = recover_K(F, H, x, b1)
    K2 = recover_K(F, H, x, b2)
    assert abs((K1 - K2) - 0.25) < NUMERIC  # K(b2) - K(b1) = 1/4


def test_recover_K_rejects_open_gradient():
    g = SYMP1
    F = tmap(g, ["q1", "q1*p1"])
    H = g.parse("p1^2/2")
    with pytest.raises(NonCanonoid):
        recover_K(F, H, [1.5, 1.5], np.array([0.5, 0.5]))


def test_recover_K_cosymplectic_fixed_time_slice():
    g = COSY1
    F = tmap(g, ["q1", "1.5*p1", "t"])
    H = g.parse("p1^2/2 + t*q1")
    base = np.array([0.0, 0.0, 0.0])
    for q, p, t in [(0.5, 1.0, 0.0), (1.0, 0.5, 2.0), (-0.4, 1.2, 3.5)]:
        K = recover_K(F, H, [q, p, t], base)
        assert abs(K - 1.5 * (p * p / 2 + t * q)) < NUMERIC


def test_recover_K_contact_is_algebraic():
    g = CONT1
    F = tmap(g, ["q1", "2*p1", "2*z"])
    H = g.parse("(q1^2 + p1^2)/2 + 0.2*z")
    x = np.array([0.6, 0.8, 0.3])
    K = recover_K(F, H, x, np.zeros(3))
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


def test_fold_max_rejects_a_nan_residual():
    # max(0.0, nan) is 0.0: a NaN folded as a number would read as a pass
    assert np.array_equal(
        transform.fold_max([[1e-9, 3.0], [2e-9, 1.0]]), [2e-9, 3.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(transform.NonFiniteResidual,
                           match="non-finite residual at sample 1$"):
            transform.fold_max([[0.0, 1.0], [bad, 0.0], [np.nan, 0.0]])


def test_non_finite_state_is_rejected_at_its_sample():
    # at an inf state the sweeps give 0.0 for partials no rule reaches,
    # but the value and the reached partials are NaN: still rejected
    F = tmap(SYMP1, ["sin(q1)", "p1 + q1^3"])
    with pytest.raises(transform.NonFiniteResidual,
                       match="non-finite residual at sample 2 in transform "
                             "component q1"):
        jacobian_and_hessians(F, [[0.5, 1.0], [1.0, 1.0], [np.inf, 1.0]])


def test_ill_conditioned_jacobian_rejected():
    # det(J) = 1e-15 is not 0, but J = [[1, 0], [p, q]] has cond(J)
    # about 2e15 at q = 1e-15: no residual means anything there
    F = tmap(SYMP1, ["q1", "q1*p1"])
    with pytest.raises(SingularTransform,
                       match=r"transform Jacobian is singular at sample 1 "
                             r".*: cond\(J\) = 2\.000e\+15 > 1e\+12"):
        lagrange_brackets(F, [[0.5, 1.0], [1e-15, 1.0]])
    # fine where it is well-conditioned
    assert lagrange_brackets(F, [[0.5, 1.0]])[0, 0, 1] == 0.5


def _unscreened_guard(J, x):
    """The singularity test without its screen: np.linalg.cond(J, 1) of
    every sample, each J scaled by the power of two that brings max |J|
    into [0.5, 1), as the guard scales it."""
    J = J.reshape(-1, J.shape[-1], J.shape[-1])
    _, exp = np.frexp(np.max(np.abs(J), axis=(1, 2)))
    cond = np.linalg.cond(np.ldexp(J, -exp[:, None, None]), 1)
    bad = ~(cond <= transform.CONDITION_LIMIT)
    if bad.any():
        i = int(np.argmax(bad))
        point = np.asarray(x).reshape(-1, J.shape[-1])[i]
        raise SingularTransform(
            f"transform Jacobian is singular at sample {i} {point}: "
            f"cond(J) = {cond[i]:.3e} > {transform.CONDITION_LIMIT:.0e}")


def _guard_outcome(guard, J, x):
    try:
        guard(J, x)
    except SingularTransform as e:
        return str(e)
    return None


def _jacobian(kind, rng, d, exponent):
    """One d x d Jacobian: "well" conditioned, "near" the limit (cond_1
    close to 10**exponent), "singular" (two equal columns), or with an
    "inf" or a "nan" entry."""
    if kind == "near":
        U, V = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in "UV")
        s = np.ones(d)
        s[-1] = 10.0 ** -exponent
        # cond_1 scales with 1/s_d once s_d is far below the others
        s[-1] *= np.linalg.cond((U * s) @ V, 1) * s[-1]
        return (U * s) @ V
    J = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    if kind == "singular":
        J[:, -1] = J[:, 0]
    elif kind in ("inf", "nan"):
        J[tuple(rng.integers(0, d, 2))] = np.inf if kind == "inf" else np.nan
    return J


@settings(max_examples=150, deadline=None)
@given(d=st.integers(2, 9),
       kinds=st.lists(st.sampled_from(["well", "near", "singular", "inf",
                                       "nan"]), min_size=1, max_size=8),
       exponents=st.lists(st.floats(11.0, 13.0), min_size=8, max_size=8),
       scale=st.sampled_from([1.0, 1e-300, 1e-162, 1e-149, 1e149, 1e155,
                              1e300]),
       seed=st.integers(0, 2**32 - 1))
def test_screened_guard_raises_as_the_exact_cond_does(d, kinds, exponents,
                                                      scale, seed):
    # the screen certifies a sample only where its bound on cond_1 is
    # below half the limit; every other sample takes np.linalg.cond, so
    # the guard raises at the same sample with the same message, also
    # at scales where the squares of J's entries, or its inverse, would
    # under- or overflow without the prescale
    rng = np.random.default_rng(seed)
    J = scale * np.array([_jacobian(k, rng, d, e)
                          for k, e in zip(kinds, exponents)])
    x = rng.uniform(0.5, 1.5, (len(J), d))
    want = _guard_outcome(_unscreened_guard, J, x)
    assert _guard_outcome(transform._require_nonsingular, J, x) == want
    assert (_guard_outcome(transform._require_nonsingular, J[0], x[0])
            == _guard_outcome(_unscreened_guard, J[0], x[0]))


def test_guard_reads_no_scale_as_singular():
    # cond_1(J) = 1e10 at the scale 1e-300: unscaled, the inverse that
    # np.linalg.cond takes overflows and reads as cond(J) = inf
    F = tmap(SYMP1, ["1e-300*q1", "1e-310*p1"])
    assert np.array_equal(jacobian(F, [0.5, 1.0]), np.diag([1e-300, 1e-310]))
    assert np.isinf(np.linalg.cond(np.diag([1e-300, 1e-310]), 1))
    # a singular J is still singular at that scale
    F = tmap(SYMP1, ["1e-300*q1", "1e-300*q1 + 1e-320*p1"])
    with pytest.raises(SingularTransform, match=r"cond\(J\) = 2\.000e\+20 "):
        jacobian(F, [0.5, 1.0])


def test_guard_screen_keeps_its_margin():
    # a nearly rank-one 2 x 2 Jacobian along u = (1, sqrt(2) - 1), where
    # cond_1 is 0.73 of the bound B = 2 |J|_F^2/|det J|: just beyond the
    # limit, with B below twice the limit.  Only a screen that sends
    # every B above half the limit on to the exact cond rejects it
    u = np.array([1.0, np.sqrt(2.0) - 1.0])
    w = np.array([-u[1], u[0]])
    J = np.outer(u, u) + 1.1e-12 * np.outer(w, w)
    bound = 2 * np.sum(J * J) / abs(np.linalg.det(J))
    limit = transform.CONDITION_LIMIT
    assert limit < np.linalg.cond(J, 1) < bound < 2 * limit
    with pytest.raises(SingularTransform,
                       match=r"at sample 0 .*: cond\(J\) = 1\.325e\+12"):
        transform._require_nonsingular(J[None], np.ones((1, 2)))


def test_recover_K_stack_matches_single_points():
    for g, sources, H in (
            (SYMP1, ["q1", "p1^3/3"], "p1^2/2"),
            (COSY1, ["q1", "1.5*p1", "t"], "p1^2/2 + t*q1")):
        F = tmap(g, sources)
        H = g.parse(H)
        rng = np.random.default_rng(17)
        X = rng.uniform(0.5, 2.5, size=(5, g.dim))
        base = X[0]
        K = recover_K(F, H, X, base)
        assert K.shape == (5,)
        for i, x in enumerate(X):
            single = recover_K(F, H, x, base)
            assert abs(K[i] - single) <= 1e-13 * max(1.0, abs(single))
