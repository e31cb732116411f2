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
from canonoid.geometry import GeometryKind, structure_at_point
from canonoid.stensor import (
    InvolutionResult, SingularPullback, involution_matrix,
    lenard_identity_residual, nijenhuis_torsion, s_tensor, trace_powers,
)
from canonoid.transform import TransformMap

from test_transform import (
    LIFT_T, _bench_cubic, _contact_scaling, _oscillator_scaling,
)

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
        s = s_tensor(F, x)
        xi = list(g.x_indices)
        assert np.array_equal(s[np.ix_(xi, xi)], np.eye(2 * g.n))


def test_cubic_momentum_conformal():
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    for p in (0.5, 1.0, 2.0):
        s = s_tensor(F, [0.3, p])
        assert np.max(np.abs(s - p * p * np.eye(2))) < EXACT


def test_contact_scaling_structure():
    F = tmap(CONT1, ["q1", "2*p1", "2*z"])
    p = 1.3
    S = s_tensor(F, [0.4, p, 0.9])
    assert np.allclose(S[:2, :2], 2.0 * np.eye(2), atol=EXACT)
    zi = CONT1.z_index
    assert abs(S[zi, 0] - 2.0 * p) < EXACT
    assert S[zi, 1] == 0.0
    assert np.array_equal(S[:2, zi], np.zeros(2))
    assert abs(np.trace(S) - 4.0) < EXACT


def test_structural_rows_exact():
    F = tmap(COCO1, ["t", "q1 + sin(t)", "p1*exp(q1/4)", "z + q1*p1"])
    x = np.array([0.7, 0.5, 1.1, 0.3])
    s = s_tensor(F, x)
    ti, zi = COCO1.t_index, COCO1.z_index
    assert np.array_equal(s[ti, :], np.zeros(4))
    qi, pi = COCO1.q_indices[0], COCO1.p_indices[0]
    assert np.array_equal(s[zi, :], x[pi] * s[qi, :])


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
        S = s_tensor(F, x)
        lam = transform.lagrange_brackets(F, x)
        omega = structure_at_point(g, x).two_form
        xi = list(g.x_indices)
        back = (S.T @ omega)[:, xi]
        assert np.max(np.abs(back - lam[:, xi])) < 1e-12, g.kind


def test_domain_error_propagates():
    F = tmap(SYMP1, ["q1", "p1*log(q1)"])
    with pytest.raises(DomainError):
        s_tensor(F, [-1.0, 0.5])


# ---------------------------------------------------------------------------
# traces


def test_identity_traces():
    F = TransformMap.identity(SYMP2)
    t = trace_powers(F, [0.1, 0.2, 0.3, 0.4], 5)
    assert np.array_equal(t, np.full(5, 4.0))


def test_cubic_momentum_traces_at_two():
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    t = trace_powers(F, [0.7, 2.0], 2)
    assert abs(t[0] - 8.0) < EXACT
    assert abs(t[1] - 32.0) < EXACT


def test_conformal_trace_equality():
    # 2x2: tr(S^2) >= (tr S)^2 / 2 with equality iff S is a multiple of I
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    t = trace_powers(F, [0.4, 1.7], 2)
    assert abs(t[1] - t[0] ** 2 / 2) < 1e-12


def test_trace_power_limit():
    F = TransformMap.identity(SYMP1)
    with pytest.raises(ValueError, match="kmax"):
        trace_powers(F, [0.1, 0.2], 11)
    with pytest.raises(ValueError, match="kmax"):
        trace_powers(F, [0.1, 0.2], 0)


def test_traces_match_eigenvalues():
    x = np.array([0.7, 1.1, 0.8, 0.5])
    S = s_tensor(TORSIONFUL, x)
    t = trace_powers(TORSIONFUL, x, 4)
    lams = np.linalg.eigvals(S)
    for k in range(1, 5):
        assert abs(t[k - 1] - np.sum(lams ** k).real) < 1e-8


def test_contact_full_trace_structure():
    # with z-dependent components the mixed column feeds the z-row:
    # tr(S^k) must equal tr((A + c w^T)^k) by the cyclic trace identity
    g = CONT1
    F = tmap(g, ["q1 + z", "p1 + q1^2", "z + 0.3*q1*p1"])
    x = np.array([0.8, 1.2, 0.4])
    s = s_tensor(F, x)
    xi = list(g.x_indices)
    A = s[np.ix_(xi, xi)]
    c = s[xi, g.z_index]
    w = np.zeros(2)
    for qi, pi in zip(g.q_indices, g.p_indices):
        w[xi.index(qi)] = x[pi]
    t_full = trace_powers(F, x, 4)
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
    S = s_tensor(F, x)
    keep = [i for i in range(4) if i != g.t_index]
    sub = S[np.ix_(keep, keep)]
    t_full = trace_powers(F, x, 3)
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
        N = nijenhuis_torsion(F, [0.3, 0.6, 0.9, 1.2])
        assert np.max(np.abs(N)) == 0.0


def test_torsion_zero_for_conformal():
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    N = nijenhuis_torsion(F, [0.4, 1.6])
    assert np.max(np.abs(N)) < EXACT


def test_any_plane_map_is_torsion_free():
    # n = 1: the x-block is always a conformal factor times the
    # identity, so the cancellation is structural
    rng = np.random.default_rng(11)
    F = tmap(SYMP1, ["q1*p1 + sin(q1)", "exp(p1/2) + q1^2"])
    for _ in range(5):
        x = rng.uniform(0.3, 1.4, size=2)
        N = nijenhuis_torsion(F, x)
        assert np.max(np.abs(N)) < EXACT


def test_torsion_antisymmetry_exact():
    x = np.array([0.7, 1.1, 0.8, 0.5])
    N = nijenhuis_torsion(TORSIONFUL, x)
    assert np.array_equal(N, -N.transpose(0, 2, 1))


def _fd_torsion(g, F, x, h=1e-6):
    xi = list(g.x_indices)
    m = len(xi)

    def block(y):
        s = s_tensor(F, y)
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
    N = nijenhuis_torsion(TORSIONFUL, x)
    assert np.max(np.abs(N)) > 0.1  # genuinely obstructed
    N_fd = _fd_torsion(SYMP2, TORSIONFUL, x)
    assert np.max(np.abs(N - N_fd)) < FD_TOL


def _hand_torsion(x):
    """N of TORSIONFUL at x.  F = (q1, q2, p1 + q2 p1^2, p2) pulls omega
    back to a dq1^dp1 + p1^2 dq1^dq2 + dq2^dp2, a = 1 + 2 q2 p1, so over
    (q1, q2, p1, p2) S has the rows (a, 0, 0, 0), (0, 1, 0, 0),
    (0, p1^2, a, 0) and (-p1^2, 0, 0, 1).  Three components of N^l_bg
    are independent and non-zero, N^0_01 = N^2_21 = N^3_02 = 2 q2 p1^2,
    with their antisymmetric partners."""
    c = 2 * x[1] * x[2] ** 2
    N = np.zeros((4, 4, 4))
    for lo, b, gam in ((0, 0, 1), (2, 2, 1), (3, 0, 2)):
        N[lo, b, gam], N[lo, gam, b] = c, -c
    return N


def test_torsionful_map_hand_computed():
    x = [0.25, 0.5, 1.0, 2.0]   # every intermediate is exact: c = 1
    assert np.array_equal(nijenhuis_torsion(TORSIONFUL, x),
                          _hand_torsion(x))
    x = [0.3, 0.7, 1.3, 0.2]
    assert np.allclose(nijenhuis_torsion(TORSIONFUL, x),
                       _hand_torsion(x), rtol=1e-14, atol=0.0)


def test_contact_torsion_against_finite_differences():
    g = CONT1
    F = tmap(g, ["q1 + z", "p1 + q1^2", "z + 0.3*q1*p1"])
    x = np.array([0.8, 1.2, 0.4])
    N = nijenhuis_torsion(F, x)
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
    r = lenard_identity_residual(F, x, 3)
    for k in (1, 2, 3):
        assert r[k - 1] == 0.0


def test_lenard_identity_random_points():
    rng = np.random.default_rng(23)
    for g, sources in LENARD_CASES:
        F = tmap(g, sources)
        for _ in range(20):
            x = rng.uniform(0.5, 1.4, size=g.dim)
            rs = lenard_identity_residual(F, x, 3)
            for k in (1, 2, 3):
                r = rs[k - 1]
                assert r < IDENTITY_TOL, (g.kind, sources, k, r)


def test_full_trace_gradients_against_finite_differences():
    # the involution check differentiates the full-chart traces through
    # the assembled dS, z-row included
    h = 1e-6
    for g, sources in LENARD_CASES:
        F = tmap(g, sources)
        x = np.linspace(0.6, 1.3, g.dim)
        grads = stensor._explicit_trace_grads(g, *stensor.s_and_ds(F, x), 4)
        fd = np.zeros_like(grads)
        for a, nu in enumerate(g.x_indices):
            e = np.zeros(g.dim)
            e[nu] = h
            fd[:, a] = (trace_powers(F, x + e, 4)
                        - trace_powers(F, x - e, 4)) / (2 * h)
        assert np.max(np.abs(grads - fd)) < FD_TOL * max(1.0, np.max(np.abs(fd))), g.kind


def test_lenard_sides_individually_nonzero():
    # guards the dual-path check against degenerating into 0 == 0
    x = np.array([0.7, 1.1, 0.8, 0.5])
    N = nijenhuis_torsion(TORSIONFUL, x)
    S = s_tensor(TORSIONFUL, x)
    lhs = np.einsum("lbg,gl->b", N, np.linalg.matrix_power(S, 1))
    assert np.max(np.abs(lhs)) > 1e-2
    assert lenard_identity_residual(TORSIONFUL, x, 2)[1] < IDENTITY_TOL


def test_lenard_k_validation():
    F = TransformMap.identity(SYMP1)
    with pytest.raises(ValueError):
        lenard_identity_residual(F, [0.1, 0.2], 0)
    with pytest.raises(ValueError):   # kmax + 1 exceeds KMAX_LIMIT
        lenard_identity_residual(F, [0.1, 0.2], 10)


# ---------------------------------------------------------------------------
# involution


def test_linear_map_traces_constant():
    F = tmap(SYMP2, ["q1 + 0.5*p2", "q2", "p1", "p2 - 0.5*q1"])
    samples = np.array([[0.3, 0.6, 0.9, 1.2], [1.0, 0.2, 0.5, 0.8]])
    res = involution_matrix(F, samples, 3)
    assert isinstance(res, InvolutionResult)
    assert np.max(res.unbarred) < 1e-10
    assert np.max(res.barred) < 1e-10
    assert res.skipped == 0
    assert res.max_condition >= 1.0


def test_momentum_only_traces_in_involution():
    # traces depend on p alone, so both bracket variants vanish exactly
    F = tmap(SYMP1, ["q1", "p1^3/3"])
    samples = np.array([[0.3, 0.8], [1.0, 1.5], [0.2, 2.0]])
    res = involution_matrix(F, samples, 3)
    assert np.max(res.unbarred) == 0.0
    assert np.max(res.barred) == 0.0


def test_involution_bracket_hand_computed():
    # F = (q1, q2, p1 + q2 p1^2, p2 + q1 p2^2) has S = [[B, 0], [C, B]]
    # with B = diag(l, m), l = 1 + 2 q2 p1, m = 1 + 2 q1 p2, so
    # tr S^k = 2 l^k + 2 m^k and, with {l, m} = 4 (q1 p1 - q2 p2),
    #   {tr S, tr S^2}   = 8 (m - l) {l, m},
    #   {tr S, tr S^3}   = 12 (m^2 - l^2) {l, m},
    #   {tr S^2, tr S^3} = 24 l m (m - l) {l, m}.
    # At the first sample l = 1.25, m = 3 and {l, m} = 1; at the second
    # l = 2, m = 1.25 and {l, m} = 1.5, where every bracket is smaller,
    # so the entries are the first sample's, not the two summed.
    F = tmap(SYMP2, ["q1", "q2", "p1 + q2*p1^2", "p2 + q1*p2^2"])
    samples = np.array([[1.0, 0.25, 0.5, 1.0], [0.5, 0.5, 1.0, 0.25]])
    res = involution_matrix(F, samples, 3)
    assert np.array_equal(res.unbarred, [[0.0, 14.0, 89.25],
                                         [14.0, 0.0, 157.5],
                                         [89.25, 157.5, 0.0]])
    res = involution_matrix(F, samples[1:], 3)
    assert np.array_equal(res.unbarred, [[0.0, 9.0, 43.875],
                                         [9.0, 0.0, 67.5],
                                         [43.875, 67.5, 0.0]])


def test_torsion_free_samples_are_in_involution():
    F = tmap(SYMP1, ["q1*p1 + sin(q1)", "exp(p1/2) + q1^2"])
    rng = np.random.default_rng(5)
    samples = rng.uniform(0.4, 1.3, size=(12, 2))
    worst_torsion = max(
        np.max(np.abs(nijenhuis_torsion(F, x)))
        for x in samples)
    assert worst_torsion < 1e-10
    res = involution_matrix(F, samples, 4)
    assert np.max(res.unbarred) < IDENTITY_TOL
    assert np.max(res.barred) < IDENTITY_TOL


def test_singular_pullback_raised_when_block_degenerate():
    # (Q, P, Z) = (q, z, p): the pulled-back two-form is dq^dz, whose
    # (q, p) block vanishes identically
    F = tmap(CONT1, ["q1", "z", "p1"])
    with pytest.raises(SingularPullback):
        involution_matrix(F, [[0.4, 0.7, 0.2]], 2)


def test_singular_samples_skipped_with_count():
    g = CONT1
    F = tmap(g, ["q1", "z + p1^2/2", "p1"])
    # Jacobian stays invertible everywhere, but the (q, p) block of the
    # pullback is p dq^dp: fine at p != 0, singular at p = 0
    samples = np.array([[0.5, 1.0, 0.2], [0.5, 0.0, 0.2]])
    res = involution_matrix(F, samples, 2)
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
            "traces": trace_powers(F, X, 4),
            "torsion": nijenhuis_torsion(F, X),
            "lenard": lenard_identity_residual(F, X, 3),
            "lie": lie_derivative_S(F, H, X),
        }
        for i, x in enumerate(X):
            assert close(stacked["traces"][i], trace_powers(F, x, 4))
            assert close(stacked["torsion"][i],
                         nijenhuis_torsion(F, x))
            single = lenard_identity_residual(F, x, 3)
            for k in (1, 2, 3):
                assert close(stacked["lenard"][i, k - 1], single[k - 1])
            assert close(stacked["lie"][i], lie_derivative_S(F, H, x))


def test_entries_read_one_jets_bundle_as_their_states(monkeypatch):
    # each entry given F's Jets at the states returns what it returns
    # for the states themselves, and all of them share one sweep
    rng = np.random.default_rng(11)
    sweep = transform.jacobian_and_hessians
    for g, sources in LENARD_CASES:
        F = tmap(g, sources)
        H = g.parse("q1^2/2 + p1^3/3"
                    + (" + 0.2*z" if g.z_index is not None else ""))
        X = rng.uniform(0.5, 1.4, size=(5, g.dim))
        entries = [
            lambda x: nijenhuis_torsion(F, x),
            lambda x: lenard_identity_residual(F, x, 3),
            lambda x: involution_matrix(F, x, 3).unbarred,
            lambda x: lie_derivative_S(F, H, x),
            lambda x: list(
                transform.check_canonoid(F, H, x).components.values()),
        ]
        expected = [entry(X) for entry in entries]
        calls = []
        monkeypatch.setattr(transform, "jacobian_and_hessians",
                            lambda F, x: calls.append(x) or sweep(F, x))
        jets = transform.Jets(F, X)
        for entry, want in zip(entries, expected):
            assert np.array_equal(entry(jets), want)
        monkeypatch.undo()
        assert sum(np.array_equal(x, X) for x in calls) == 1
        assert len(jets) == 5


def test_jets_of_another_transform_are_rejected():
    F, G = tmap(SYMP1, ["q1", "p1^3/3"]), tmap(SYMP1, ["q1", "2*p1"])
    jets = transform.Jets(F, [[0.5, 1.0]])
    assert transform.Jets.of(F, jets) is jets
    with pytest.raises(ValueError, match="another transform"):
        nijenhuis_torsion(G, jets)


def test_one_state_bundle_reads_as_its_one_row_stack():
    # the checks over a stack of samples take one state's Jets as they
    # take the state itself: as the one-row stack
    for g, sources in LENARD_CASES:
        F = tmap(g, sources)
        H = g.parse("q1^2/2 + p1^3/3"
                    + (" + 0.2*z" if g.z_index is not None else ""))
        x = np.linspace(0.6, 1.3, g.dim)
        for entry in (lambda s: transform.check_canonoid(F, H, s),
                      lambda s: involution_matrix(F, s, 3)):
            want, got = entry(x), entry(transform.Jets(F, x))
            for a, b in zip(want._values(), got._values(), strict=True):
                assert (np.array_equal(a, b) if isinstance(a, np.ndarray)
                        else a == b), g.kind


# ---------------------------------------------------------------------------
# cross-kind lifts: with F's geometry the only source of the kind, each
# kind's branch is pinned by lifting a symplectic pair to cosymplectic
# and a contact pair to cocontact (t -> t, H free of t) at the same
# samples and t = LIFT_T.  The families are those of the canonoid lift
# tests in test_transform, whose contact S is constant, and TORSIONFUL's
# coupling, whose S is not, so that it tells the x-block from any other
# 2n x 2n block of the cocontact chart.  The lifted S gains a zero t-row
# and t-column, so every layer agrees with the unlifted one bit for bit
# on the shared block, except the involution brackets: their matrix
# products run on blocks one row and column bigger, which may round
# differently, so they are held to a bound relative to the product of
# the two trace gradients' norms.

LIFT_KINDS = {"symplectic": "cosymplectic", "contact": "cocontact"}
# |lifted - unlifted bracket| <= LIFT_BRACKET_REL * |grad tr S^i| |grad tr S^j|
LIFT_BRACKET_REL = 64 * np.finfo(float).eps


def _torsionful(n, z=""):
    """TORSIONFUL's P1 = p1 + q_n p1^2 (q1 at n = 1) on n oscillators,
    with z -> z and the term z added to H when z is given."""
    F = {f"q{i}": f"q{i}" for i in range(1, n + 1)}
    F.update({f"p{i}": f"p{i}" for i in range(1, n + 1)},
             p1=f"p1 + q{n}*p1^2")
    H = " + ".join(f"(q{i}^2 + p{i}^2)/2" for i in range(1, n + 1))
    if z:
        F["z"] = "z"
        H += " + " + z
    return F, H


# name: (kind, family); a family maps n to the sources of F and of H
LIFT_FAMILIES = {
    "cubic": ("symplectic", _bench_cubic),
    "oscillator-scaling": ("symplectic", _oscillator_scaling),
    "torsionful": ("symplectic", _torsionful),
    "contact-scaling-2": ("contact", lambda n: _contact_scaling(2, n)),
    "contact-scaling-3": ("contact", lambda n: _contact_scaling(3, n)),
    "contact-torsionful": ("contact", lambda n: _torsionful(n, "0.2*z")),
}


def _lift_layers(kind, n, F_sources, H_source, X):
    """Every S layer of F, H on `kind` at the states X, the Lie
    derivative without its t-row and t-column, and the x-direction
    gradients of tr S^k, k = 1..4."""
    g = GeometryKind(kind, n)
    if g.t_index is not None:
        F_sources = dict(F_sources, t="t")
    F = tmap(g, F_sources)
    inv = involution_matrix(F, X, 4)
    keep = [i for i in range(g.dim) if i != g.t_index]
    lie = lie_derivative_S(F, g.parse(H_source), X)
    layers = {
        "traces": trace_powers(F, X, 4),
        "torsion": nijenhuis_torsion(F, X),
        "lenard": lenard_identity_residual(F, X, 3),
        "lie": lie[:, keep][:, :, keep],
    }
    grads = stensor._explicit_trace_grads(g, *stensor.s_and_ds(F, X), 4)
    return layers, inv, grads


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", LIFT_FAMILIES)
def test_lift_keeps_every_s_layer(name, n):
    kind, family = LIFT_FAMILIES[name]
    d = 2 * n + (kind == "contact")
    X = np.random.default_rng(7).uniform(0.5, 1.5, (25, d))
    t = np.full((25, 1), LIFT_T)
    X_lift = np.hstack([X, t]) if kind == "symplectic" else np.hstack([t, X])
    base, base_inv, grads = _lift_layers(kind, n, *family(n), X)
    lift, lift_inv, _ = _lift_layers(LIFT_KINDS[kind], n, *family(n), X_lift)
    for layer in base:
        assert np.array_equal(lift[layer], base[layer]), layer
    norms = np.linalg.norm(grads, axis=-1)
    bound = LIFT_BRACKET_REL * np.max(norms[:, :, None] * norms[:, None, :],
                                      axis=0)
    for variant in ("unbarred", "barred"):
        gap = np.abs(getattr(lift_inv, variant) - getattr(base_inv, variant))
        assert np.all(gap <= bound), (variant, gap, bound)
    assert lift_inv.skipped == base_inv.skipped
