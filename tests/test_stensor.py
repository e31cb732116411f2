"""Structure tensor, torsion, Lenard identity, involution matrices.

Hand-worked oracles:

* F = (q, p^3/3): pulled-back form is p^2 dq^dp, so S = p^2 I and
  tr S = 2 p^2, tr S^2 = 2 p^4 (8 and 32 at p = 2).
* contact scaling (q, 2p, 2z): x-block 2I, z-row (2p, 0, 0), trace 4.
* any n=1 symplectic map: the x-block is conformal, lam(x) I, so the
  torsion cancels exactly; nonzero torsion needs n >= 2 coupling such
  as P1 = p1 + q2 p1^2 below.

The torsion formula itself is cross-checked against a central
finite-difference assembly of the same component expression, and the
Lenard residual is the package's dual-path derivative check.
"""

import numpy as np
import pytest

from canonoid import stensor, transform
from canonoid.dynamics import lie_derivative_S
from canonoid.expr import DomainError
from canonoid.geometry import GeometryKind, full_two_form
from canonoid.stensor import (
    InvolutionResult, SingularPullback, involution_matrix,
    lenard_identity_residual, nijenhuis_torsion, s_tensor, trace_powers,
)
from canonoid.transform import TransformMap

EXACT = 1e-14
IDENTITY_TOL = 1e-8
FD_TOL = 1e-5

SYMP1 = GeometryKind("symplectic", 1)
SYMP2 = GeometryKind("symplectic", 2)
COSY1 = GeometryKind("cosymplectic", 1)
CONT1 = GeometryKind("contact", 1)
COCO1 = GeometryKind("cocontact", 1)

# torsionful coupling on the 4-dimensional chart
TORSIONFUL = TransformMap.parse(
    SYMP2, ["q1", "q2", "p1 + q2*p1^2", "p2"])


def tmap(g, sources):
    return TransformMap.parse(g, sources)


# ---------------------------------------------------------------------------
# s_tensor assembly


def test_identity_map_gives_identity_block():
    for g in (SYMP1, SYMP2, COSY1, CONT1, COCO1):
        F = TransformMap.identity(g)
        x = np.linspace(0.4, 1.2, g.dim)
        s = s_tensor(g, F, x)
        xi = list(g.x_indices)
        assert np.array_equal(s.matrix[np.ix_(xi, xi)], np.eye(2 * g.n))


def test_cubic_momentum_conformal():
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    for p in (0.5, 1.0, 2.0):
        s = s_tensor(SYMP1, F, [0.3, p])
        assert np.max(np.abs(s.matrix - p * p * np.eye(2))) < EXACT


def test_contact_scaling_structure():
    F = tmap(CONT1, ["q1", "2*p1", "2*z"])
    p = 1.3
    s = s_tensor(CONT1, F, [0.4, p, 0.9])
    S = s.matrix
    assert np.allclose(S[:2, :2], 2.0 * np.eye(2), atol=EXACT)
    zi = CONT1.z_index
    assert abs(S[zi, 0] - 2.0 * p) < EXACT
    assert S[zi, 1] == 0.0
    assert np.array_equal(S[:2, zi], np.zeros(2))
    assert abs(np.trace(S) - 4.0) < EXACT


def test_structural_rows_exact():
    F = tmap(COCO1, ["t", "q1 + sin(t)", "p1*exp(q1/4)", "z + q1*p1"])
    x = np.array([0.7, 0.5, 1.1, 0.3])
    s = s_tensor(COCO1, F, x)
    ti, zi = COCO1.t_index, COCO1.z_index
    assert np.array_equal(s.matrix[ti, :], np.zeros(4))
    qi, pi = COCO1.q_indices[0], COCO1.p_indices[0]
    assert np.array_equal(s.matrix[zi, :], x[pi] * s.matrix[qi, :])
    assert s.structural_zeros[ti].all() and s.structural_zeros[zi].all()
    assert not s.structural_zeros[qi].any()


def test_reconstruction_roundtrip():
    cases = [
        (SYMP1, ["q1*p1", "sin(p1) + q1^2"]),
        (SYMP2, ["q1", "q2 + p1^2", "p1 + q2*p1^2", "p2*q1"]),
        (COSY1, ["q1 + t^2", "p1*q1", "t"]),
        (CONT1, ["q1 + z", "p1 + q1^2", "z + 0.3*q1*p1"]),
        (COCO1, ["t", "q1 + z^2", "p1*z", "z + q1"]),
    ]
    for g, sources in cases:
        F = tmap(g, sources)
        x = np.linspace(0.5, 1.3, g.dim)
        S = s_tensor(g, F, x).matrix
        lam = transform.lagrange_brackets(F, x)
        omega = full_two_form(g)
        xi = list(g.x_indices)
        back = (S.T @ omega)[:, xi]
        assert np.max(np.abs(back - lam[:, xi])) < 1e-12, g.kind


def test_domain_error_propagates():
    F = tmap(SYMP1, ["q1", "p1*log(q1)"])
    with pytest.raises(DomainError):
        s_tensor(SYMP1, F, [-1.0, 0.5])


# ---------------------------------------------------------------------------
# traces


def test_identity_traces():
    F = TransformMap.identity(SYMP2)
    t = trace_powers(SYMP2, F, [0.1, 0.2, 0.3, 0.4], 5)
    assert np.array_equal(t, np.full(5, 4.0))


def test_cubic_momentum_traces_at_two():
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    t = trace_powers(SYMP1, F, [0.7, 2.0], 2)
    assert abs(t[0] - 8.0) < EXACT
    assert abs(t[1] - 32.0) < EXACT


def test_conformal_trace_equality():
    # 2x2: tr(S^2) >= (tr S)^2 / 2 with equality iff S is a multiple of I
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    t = trace_powers(SYMP1, F, [0.4, 1.7], 2)
    assert abs(t[1] - t[0] ** 2 / 2) < 1e-12


def test_trace_power_limit():
    F = TransformMap.identity(SYMP1)
    with pytest.raises(ValueError, match="kmax"):
        trace_powers(SYMP1, F, [0.1, 0.2], 11)
    with pytest.raises(ValueError, match="kmax"):
        trace_powers(SYMP1, F, [0.1, 0.2], 0)


def test_traces_match_eigenvalues():
    x = np.array([0.7, 1.1, 0.8, 0.5])
    S = s_tensor(SYMP2, TORSIONFUL, x).matrix
    t = trace_powers(SYMP2, TORSIONFUL, x, 4)
    lams = np.linalg.eigvals(S)
    for k in range(1, 5):
        assert abs(t[k - 1] - np.sum(lams ** k).real) < 1e-8


def test_contact_full_trace_structure():
    # with z-dependent components the mixed column feeds the z-row:
    # tr(S^k) must equal tr((A + c w^T)^k) by the cyclic trace identity
    g = CONT1
    F = tmap(g, ["q1 + z", "p1 + q1^2", "z + 0.3*q1*p1"])
    x = np.array([0.8, 1.2, 0.4])
    s = s_tensor(g, F, x)
    xi = list(g.x_indices)
    A = s.matrix[np.ix_(xi, xi)]
    c = s.matrix[xi, g.z_index]
    w = np.zeros(2)
    for qi, pi in zip(g.q_indices, g.p_indices):
        w[xi.index(qi)] = x[pi]
    t_full = trace_powers(g, F, x, 4)
    M = A + np.outer(c, w)
    P = M.copy()
    for k in range(4):
        if k > 0:
            P = P @ M
        assert abs(t_full[k] - np.trace(P)) < 1e-12


def test_cocontact_trace_drops_time():
    g = COCO1
    F = tmap(g, ["t", "q1 + z^2", "p1*z", "z + q1"])
    x = np.array([0.6, 0.9, 1.1, 0.7])
    S = s_tensor(g, F, x).matrix
    keep = [i for i in range(4) if i != g.t_index]
    sub = S[np.ix_(keep, keep)]
    t_full = trace_powers(g, F, x, 3)
    P = sub.copy()
    for k in range(3):
        if k > 0:
            P = P @ sub
        assert abs(t_full[k] - np.trace(P)) < 1e-12


# ---------------------------------------------------------------------------
# torsion


def test_torsion_zero_for_identity_and_linear():
    for F in (TransformMap.identity(SYMP2),
              tmap(SYMP2, ["q1 + 0.5*p2", "q2", "p1", "p2 - 0.5*q1"])):
        N = nijenhuis_torsion(SYMP2, F, [0.3, 0.6, 0.9, 1.2]).components
        assert np.max(np.abs(N)) == 0.0


def test_torsion_zero_for_conformal():
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    N = nijenhuis_torsion(SYMP1, F, [0.4, 1.6]).components
    assert np.max(np.abs(N)) < EXACT


def test_any_plane_map_is_torsion_free():
    # n = 1: the x-block is always a conformal factor times the
    # identity, so the cancellation is structural
    rng = np.random.default_rng(11)
    F = tmap(SYMP1, ["q1*p1 + sin(q1)", "exp(p1/2) + q1^2"])
    for _ in range(5):
        x = rng.uniform(0.3, 1.4, size=2)
        N = nijenhuis_torsion(SYMP1, F, x).components
        assert np.max(np.abs(N)) < EXACT


def test_torsion_antisymmetry_exact():
    x = np.array([0.7, 1.1, 0.8, 0.5])
    N = nijenhuis_torsion(SYMP2, TORSIONFUL, x).components
    assert np.array_equal(N, -N.transpose(0, 2, 1))


def _fd_torsion(g, F, x, h=1e-6):
    xi = list(g.x_indices)
    m = len(xi)

    def block(y):
        s = s_tensor(g, F, y).matrix
        return s[np.ix_(xi, xi)]

    A = block(x)
    dA = np.zeros((m, m, m))
    for a, nu in enumerate(xi):
        e = np.zeros(g.dim)
        e[nu] = h
        dA[a] = (block(x + e) - block(x - e)) / (2 * h)
    return (np.einsum("nlg,nb->lbg", dA, A)
            - np.einsum("nlb,ng->lbg", dA, A)
            + np.einsum("gnb,ln->lbg", dA, A)
            - np.einsum("bng,ln->lbg", dA, A))


def test_torsionful_map_against_finite_differences():
    x = np.array([0.7, 1.1, 0.8, 0.5])
    N = nijenhuis_torsion(SYMP2, TORSIONFUL, x).components
    assert np.max(np.abs(N)) > 0.1  # genuinely obstructed
    N_fd = _fd_torsion(SYMP2, TORSIONFUL, x)
    assert np.max(np.abs(N - N_fd)) < FD_TOL


def test_contact_torsion_against_finite_differences():
    g = CONT1
    F = tmap(g, ["q1 + z", "p1 + q1^2", "z + 0.3*q1*p1"])
    x = np.array([0.8, 1.2, 0.4])
    N = nijenhuis_torsion(g, F, x).components
    assert N.shape == (2, 2, 2)
    N_fd = _fd_torsion(g, F, x)
    assert np.max(np.abs(N - N_fd)) < FD_TOL


# ---------------------------------------------------------------------------
# Lenard identity


LENARD_CASES = [
    (SYMP1, ["q1", "p1^3/3"]),
    (SYMP1, ["q1*p1 + sin(q1)", "exp(p1/2) + q1^2"]),
    (SYMP2, ["q1", "q2", "p1 + q2*p1^2", "p2"]),
    (COSY1, ["q1 + t^2", "p1*q1", "t"]),
    (CONT1, ["q1 + z", "p1 + q1^2", "z + 0.3*q1*p1"]),
    (COCO1, ["t", "q1 + z^2", "p1*z", "z + q1"]),
]


def test_lenard_identity_zero_for_identity_map():
    F = TransformMap.identity(SYMP2)
    x = np.array([0.3, 0.6, 0.9, 1.2])
    for k in (1, 2, 3):
        assert lenard_identity_residual(SYMP2, F, x, k) == 0.0


def test_lenard_identity_random_points():
    rng = np.random.default_rng(23)
    for g, sources in LENARD_CASES:
        F = tmap(g, sources)
        for _ in range(20):
            x = rng.uniform(0.5, 1.4, size=g.dim)
            for k in (1, 2, 3):
                r = lenard_identity_residual(g, F, x, k)
                assert r < IDENTITY_TOL, (g.kind, sources, k, r)


def test_full_trace_gradients_against_finite_differences():
    # the involution check uses the full-chart jet route, z-row included
    h = 1e-6
    for g, sources in LENARD_CASES:
        F = tmap(g, sources)
        x = np.linspace(0.6, 1.3, g.dim)
        grads = stensor._trace_grads(g, F, x, 4, block="full")
        fd = np.zeros_like(grads)
        for a, nu in enumerate(g.x_indices):
            e = np.zeros(g.dim)
            e[nu] = h
            fd[:, a] = (trace_powers(g, F, x + e, 4)
                        - trace_powers(g, F, x - e, 4)) / (2 * h)
        assert np.max(np.abs(grads - fd)) < FD_TOL * max(1.0, np.max(np.abs(fd))), g.kind


def test_lenard_sides_individually_nonzero():
    # guards the dual-path check against degenerating into 0 == 0
    x = np.array([0.7, 1.1, 0.8, 0.5])
    N = nijenhuis_torsion(SYMP2, TORSIONFUL, x).components
    S = s_tensor(SYMP2, TORSIONFUL, x).matrix
    lhs = np.einsum("lbg,gl->b", N, np.linalg.matrix_power(S, 1))
    assert np.max(np.abs(lhs)) > 1e-2
    assert lenard_identity_residual(SYMP2, TORSIONFUL, x, 2) < IDENTITY_TOL


def test_lenard_k_validation():
    F = TransformMap.identity(SYMP1)
    with pytest.raises(ValueError):
        lenard_identity_residual(SYMP1, F, [0.1, 0.2], 0)
    with pytest.raises(ValueError):
        lenard_identity_residual(SYMP1, F, [0.1, 0.2], 10)


# ---------------------------------------------------------------------------
# involution


def test_linear_map_traces_constant():
    F = tmap(SYMP2, ["q1 + 0.5*p2", "q2", "p1", "p2 - 0.5*q1"])
    samples = np.array([[0.3, 0.6, 0.9, 1.2], [1.0, 0.2, 0.5, 0.8]])
    res = involution_matrix(SYMP2, F, samples, 3)
    assert isinstance(res, InvolutionResult)
    assert np.max(res.unbarred) < 1e-10
    assert np.max(res.barred) < 1e-10
    assert res.skipped == 0
    assert res.max_condition >= 1.0


def test_momentum_only_traces_in_involution():
    # traces depend on p alone, so both bracket variants vanish exactly
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    samples = np.array([[0.3, 0.8], [1.0, 1.5], [0.2, 2.0]])
    res = involution_matrix(SYMP1, F, samples, 3)
    assert np.max(res.unbarred) == 0.0
    assert np.max(res.barred) == 0.0


def test_torsion_free_samples_are_in_involution():
    F = tmap(SYMP1, ["q1*p1 + sin(q1)", "exp(p1/2) + q1^2"])
    rng = np.random.default_rng(5)
    samples = rng.uniform(0.4, 1.3, size=(12, 2))
    worst_torsion = max(
        np.max(np.abs(nijenhuis_torsion(SYMP1, F, x).components))
        for x in samples)
    assert worst_torsion < 1e-10
    res = involution_matrix(SYMP1, F, samples, 4)
    assert np.max(res.unbarred) < IDENTITY_TOL
    assert np.max(res.barred) < IDENTITY_TOL


def test_singular_pullback_raised_when_block_degenerate():
    # (Q, P, Z) = (q, z, p): the pulled-back two-form is dq^dz, whose
    # (q, p) block vanishes identically
    F = tmap(CONT1, ["q1", "z", "p1"])
    with pytest.raises(SingularPullback):
        involution_matrix(CONT1, F, [[0.4, 0.7, 0.2]], 2)


def test_singular_samples_skipped_with_count():
    g = CONT1
    F = tmap(g, ["q1", "z + p1^2/2", "p1"])
    # Jacobian stays invertible everywhere, but the (q, p) block of the
    # pullback is p dq^dp: fine at p != 0, singular at p = 0
    samples = np.array([[0.5, 1.0, 0.2], [0.5, 0.0, 0.2]])
    res = involution_matrix(g, F, samples, 2)
    assert res.skipped == 1
    assert np.isfinite(res.max_condition)


def test_stacked_layers_match_single_points():
    # row i of every stacked call equals the call at that one point
    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.max(np.abs(b)))

    rng = np.random.default_rng(5)
    for g, sources in LENARD_CASES:
        F = tmap(g, sources)
        H = g.parse("q1^2/2 + p1^3/3"
                    + (" + 0.2*z" if g.z_index is not None else "")
                    + (" + t*q1" if g.t_index is not None else ""))
        X = rng.uniform(0.5, 1.4, size=(6, g.dim))
        stacked = {
            "traces": trace_powers(g, F, X, 4),
            "torsion": nijenhuis_torsion(g, F, X).components,
            "lenard": [lenard_identity_residual(g, F, X, k) for k in (1, 2, 3)],
            "lie": lie_derivative_S(g, F, H, X),
        }
        for i, x in enumerate(X):
            assert close(stacked["traces"][i], trace_powers(g, F, x, 4))
            assert close(stacked["torsion"][i],
                         nijenhuis_torsion(g, F, x).components)
            for k, r in zip((1, 2, 3), stacked["lenard"]):
                assert close(r[i], lenard_identity_residual(g, F, x, k))
            assert close(stacked["lie"][i], lie_derivative_S(g, F, H, x))
