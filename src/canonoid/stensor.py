"""The mixed (1,1) structure tensor S of a transformation.

S is assembled pointwise from the Lagrange brackets: on the (q, p) rows
S^a_B solves eps_{la} S^a_B = [x^B, x^l], i.e. the x-rows are
eps_inv @ Lam[x, :].  The time row is zero by construction and the z
row is the momentum-weighted combination S^z_B = sum_i p_i S^{q_i}_B;
both constraints are applied exactly, not numerically.

Traces of matrix powers of S are the candidate constants of motion.
The Nijenhuis torsion of the x-block is the obstruction to their
pairwise involution, and the Lenard trace identity

    N^l_{bg} (S^{k-1})^g_l
        = (1/k) S^n_b d tr(S^k)/dx^n - (1/(k+1)) d tr(S^{k+1})/dx^b

holds for every (1,1) tensor field: the two cross terms of the torsion
contraction cancel identically, leaving only the normalized trace
gradients.

One assembler, s_and_ds, builds S and dS by the product rule from the
bracket derivatives of a transform.Jets bundle; torsion, the Lenard
left side, the involution trace gradients d tr(S^k) = k tr(S^(k-1) dS)
and the Lie derivative all take S and dS from it.  The Lenard right
side alone takes its trace gradients from a matrix jet (value plus
tangent stack, built from the bundle's J and component Hessians and
pushed through the matrix powers of the x-block), never from the
bundle's bracket derivatives, so lenard_identity_residual compares two
derivative routes that share only the component sweep, which makes it
a strong end-to-end check of every derivative in this module.

Torsion and the Lenard identity live on the x-block only; the trace
and involution computations use the full matrix, whose constrained
rows keep the extra columns out of the trace algebra.

Every function takes one state (d,) or a stack of states (N, d) and
returns the single or the stacked result; those built on s_and_ds also
take F's Jets at the states.  The matrix algebra runs over a leading
sample axis, under np.errstate, so a non-finite entry reaches the
caller's residual fold instead of a floating-point warning.
"""

from __future__ import annotations

import numpy as np

from . import expr, transform
from .geometry import canonical_eps
from .transform import CONDITION_LIMIT

__all__ = [
    "InvolutionResult",
    "SingularPullback",
    "s_tensor",
    "s_and_ds",
    "trace_powers",
    "nijenhuis_torsion",
    "lenard_identity_residual",
    "involution_matrix",
    "KMAX_LIMIT",
    "CONDITION_LIMIT",
]

KMAX_LIMIT = 10


class SingularPullback(ValueError):
    """The x-block of the Lagrange matrix was singular at every sample,
    so the barred bracket variant could not be computed anywhere."""


class InvolutionResult(expr.Record):
    """Pairwise bracket magnitudes of the trace functions: entry (i, j)
    holds max |{tr S^(i+1), tr S^(j+1)}| over the samples.  skipped
    counts samples where the barred variant was dropped because the
    Lagrange x-block was singular or too ill-conditioned."""

    __slots__ = ("unbarred", "barred", "skipped", "max_condition")


def _check_kmax(kmax):
    k = int(kmax)
    if k < 1 or k > KMAX_LIMIT:
        raise ValueError(f"kmax must be in 1..{KMAX_LIMIT}, got {kmax}")
    return k


def _assemble(g, lam, x):
    """S from Lagrange brackets lam[..., :, :] at the states x (one
    state, or a stack matching lam's leading axis); a stack of bracket
    derivatives gives the matching stack of x-row and weighted z-row
    terms of dS."""
    xs = g.x_slice
    S = np.zeros(lam.shape)
    S[..., xs, :] = canonical_eps(g.n).T @ lam[..., xs, :]
    zi = g.z_index
    if zi is not None:
        # the momentum weights broadcast over the axes between a state
        # and its matrix row
        shape = x.shape[:-1] + (1,) * (lam.ndim - x.ndim)
        for qi, pi in zip(g.q_indices, g.p_indices):
            S[..., zi, :] += x[..., pi].reshape(shape) * S[..., qi, :]
    return S


def s_tensor(g, F, x):
    """S^A_B at x, rows = output index; a stack of states gives a stack
    of matrices."""
    x = g.check_states(x)
    return _assemble(g, transform.lagrange_brackets(F, x), x)


def trace_powers(g, F, x, kmax):
    """tr(S^k) for k = 1..kmax, by repeated multiplication: (kmax,) at
    one state, (N, kmax) for a stack."""
    kmax = _check_kmax(kmax)
    S = s_tensor(g, F, x)
    out = np.zeros(S.shape[:-2] + (kmax,))
    P = S
    out[..., 0] = np.trace(P, axis1=-2, axis2=-1)
    with np.errstate(all="ignore"):
        for k in range(1, kmax):
            P = P @ S
            out[..., k] = np.trace(P, axis1=-2, axis2=-1)
    return out


def s_and_ds(g, F, x):
    """Full-chart S and dS[nu] = dS/dx^nu, assembled by the product rule
    from the bracket derivatives of F's Jets at x.  The structural rows
    are differentiated through their defining constraints: the t-row
    stays zero and the z-row picks up the derivative of its momentum
    weights."""
    jets = transform.Jets.of(F, x)
    with np.errstate(all="ignore"):
        S = _assemble(g, jets.lam, jets.x)
        dS = _assemble(g, jets.dLam, jets.x)
        if g.z_index is not None:
            for qi, pi in zip(g.q_indices, g.p_indices):
                dS[..., pi, g.z_index, :] += S[..., qi, :]
    return S, dS


def _x_block(g, S, dS):
    """x-block A of S and dA[n] = dA/dx^n along the x-directions."""
    xs = g.x_slice
    return S[..., xs, xs], dS[..., xs, xs, xs]


def _torsion(A, dA):
    # half with the beta slot fixed; antisymmetrizing it reproduces all
    # four terms of the component formula and keeps N^l_{bg} = -N^l_{gb}
    # exact in floating point
    M = (np.einsum("...nlg,...nb->...lbg", dA, A)
         + np.einsum("...gnb,...ln->...lbg", dA, A))
    return M - np.swapaxes(M, -1, -2)


def nijenhuis_torsion(g, F, x):
    """N^l_{bg} = dA^l_g/dx^n A^n_b - dA^l_b/dx^n A^n_g
    + (dA^n_b/dx^g - dA^n_g/dx^b) A^l_n, over the x-block; antisymmetric
    in the two lower slots."""
    A, dA = _x_block(g, *s_and_ds(g, F, x))
    with np.errstate(all="ignore"):
        return _torsion(A, dA)


def _explicit_trace_grads(g, S, dS, kmax):
    """Gradients over the x-directions of tr(S^k), k = 1..kmax, of the
    full-chart S from the assembled dS: d tr(S^k) = k tr(S^(k-1) dS).
    Shape (kmax, nd), or (N, kmax, nd) for a stack."""
    dSx = dS[..., g.x_slice, :, :]
    grads = np.zeros(S.shape[:-2] + (kmax, dSx.shape[-3]))
    grads[..., 0, :] = np.trace(dSx, axis1=-2, axis2=-1)
    P = S
    with np.errstate(all="ignore"):
        for k in range(1, kmax):
            if k > 1:
                P = P @ S
            grads[..., k, :] = (k + 1) * np.einsum("...ab,...nba->...n",
                                                   P, dSx)
    return grads


# ---------------------------------------------------------------------------
# Matrix-jet route to the trace gradients of the x-block, independent of
# the explicit product-rule assembly above.  A jet is a pair (value
# (..., m, m), tangent stack (..., nd, m, m)) whose tangents run over
# the nd x-directions.


def _jet_mul(A, B):
    (a, da), (b, db) = A, B
    return a @ b, da @ b[..., None, :, :] + a[..., None, :, :] @ db


def _trace_grads(g, jets, kmax):
    """Gradients over the x-directions of tr(A^k), k = 1..kmax, for the
    x-block A of S: the jet of J from the component Hessians of the
    Jets is pushed through Lam, A and the powers of A, never reading
    the bundle's Lam or dLam.  Shape (kmax, nd), or (N, kmax, nd) for a
    stack."""
    xs = g.x_slice
    _, J, Hc = jets.sweep
    J = J[..., xs]
    dJ = np.moveaxis(Hc[..., xs, xs], -1, -3)
    qs, ps = g.q_slice, g.p_slice
    b, db = _jet_mul((np.swapaxes(J[..., qs, :], -1, -2),
                      np.swapaxes(dJ[..., qs, :], -1, -2)),
                     (J[..., ps, :], dJ[..., ps, :]))
    eps_inv = canonical_eps(g.n).T
    A = (eps_inv @ (b - np.swapaxes(b, -1, -2)),
         eps_inv @ (db - np.swapaxes(db, -1, -2)))
    grads = np.zeros(jets.x.shape[:-1] + (kmax, A[0].shape[-1]))
    P = A
    with np.errstate(all="ignore"):
        for k in range(kmax):
            if k > 0:
                P = _jet_mul(P, A)
            grads[..., k, :] = np.trace(P[1], axis1=-2, axis2=-1)
    return grads


def lenard_identity_residual(g, F, x, kmax):
    """Sup-norm gap between the two sides of the trace identity at x for
    every k = 1..kmax: shape (kmax,) at one state, (N, kmax) for a stack.

    Left side: torsion contracted with S^(k-1), both from the explicit
    derivative assembly.  Right side: normalized trace gradients from
    the matrix-jet route.  The identity is unconditional, so any
    nonzero residual beyond rounding exposes a derivative bug.
    """
    kmax = int(kmax)
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if kmax + 1 > KMAX_LIMIT:
        raise ValueError(f"kmax + 1 exceeds the power limit {KMAX_LIMIT}")
    jets = transform.Jets.of(F, x)
    A, dA = _x_block(g, *s_and_ds(g, F, jets))
    grads = _trace_grads(g, jets, kmax + 1)
    out = np.zeros(jets.x.shape[:-1] + (kmax,))
    with np.errstate(all="ignore"):
        N = _torsion(A, dA)
        AT = np.swapaxes(A, -1, -2)
        for k in range(1, kmax + 1):
            lhs = np.einsum("...lbg,...gl->...b", N,
                            np.linalg.matrix_power(A, k - 1))
            rhs = ((AT @ grads[..., k - 1, :, None])[..., 0] / k
                   - grads[..., k, :] / (k + 1))
            out[..., k - 1] = np.max(np.abs(lhs - rhs), axis=-1)
    return out


def involution_matrix(g, F, samples, kmax):
    """Pairwise brackets of the trace functions over samples.

    unbarred entry (i, j): max |{tr S^(i+1), tr S^(j+1)}| with the flat
    bracket grad_f^T eps grad_h.  barred: the bracket of the pulled-back
    structure, -grad_f^T L^{-1} grad_h with L the Lagrange x-block
    (inverted by LU with partial pivoting; condition number reported).
    The gradients and L come from one s_and_ds sweep: L = eps S[x, x].
    Samples whose L is singular or has condition number beyond
    CONDITION_LIMIT are skipped for the barred variant and counted;
    if every sample is skipped the barred bracket is unavailable and
    SingularPullback is raised.  A non-finite bracket raises
    transform.NonFiniteResidual.
    """
    kmax = _check_kmax(kmax)
    jets = transform.Jets.of(F, samples, stack=True)
    S, dS = s_and_ds(g, F, jets)
    grads = _explicit_trace_grads(g, S, dS, kmax)
    gT = np.swapaxes(grads, 1, 2)
    eps = canonical_eps(g.n)
    with np.errstate(all="ignore"):
        L = eps @ S[:, g.x_slice, g.x_slice]
        unbarred = np.abs(grads @ eps @ gT)
        cond = np.linalg.cond(L)
    usable = np.isfinite(cond) & (cond <= CONDITION_LIMIT)
    unbarred = transform.fold_max(unbarred)
    n = len(jets)
    if not usable.any():
        raise SingularPullback(f"Lagrange x-block singular at all {n} samples")
    # skipped samples keep a zero row, so fold indices stay sample indices
    barred = np.zeros((n, kmax, kmax))
    with np.errstate(all="ignore"):
        barred[usable] = np.abs(
            -grads[usable] @ np.linalg.solve(L[usable], gT[usable]))
    return InvolutionResult(unbarred=unbarred,
                            barred=transform.fold_max(barred),
                            skipped=int(n - usable.sum()),
                            max_condition=float(np.max(cond[usable])))
