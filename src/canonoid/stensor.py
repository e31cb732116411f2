"""The mixed (1,1) structure tensor S of a transformation.

S is assembled pointwise from the Lagrange brackets: on the (q, p) rows
S^a_B solves eps_{al} S^a_B = [x^B, x^l] with eps = [[0, I], [-I, 0]],
so the x-rows, eps^T Lam[x, :], are read off Lam by index: S[q] =
-Lam[p] and S[p] = Lam[q].  The time row is zero by construction and
the z row is the momentum-weighted combination S^z_B = sum_i p_i
S^{q_i}_B; both constraints are applied exactly, not numerically.

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

The transform F carries its geometry, so the public functions read the
kind from F.geometry and take no GeometryKind: s_tensor(F, x),
s_and_ds(F, x), trace_powers(F, x, kmax), nijenhuis_torsion(F, x),
lenard_identity_residual(F, x, kmax) and involution_matrix(F, samples,
kmax).  A function takes the geometry only where no other argument
carries it: F does, an array does not (_assemble, _x_block).

Every function takes one state (d,) or a stack of states (N, d) and
returns the single or the stacked result; those built on s_and_ds also
take F's Jets at the states, in the number type of the Jets' sweep: a
Fraction sweep gives a Lenard residual of exactly 0.  The matrix
algebra runs over a leading sample axis under expr.quiet (s_tensor and
s_and_ds under their caller's error state), so a non-finite entry
reaches the caller's residual fold instead of a floating-point warning.
"""

import itertools
import operator

import numpy as np

from . import expr, transform
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
    k = operator.index(kmax)
    if k < 1 or k > KMAX_LIMIT:
        raise ValueError(f"kmax must be in 1..{KMAX_LIMIT}, got {kmax}")
    return k


def _eps_swap(M, axis):
    """eps^T M (axis -2) or M eps (axis -1) on M's x-axis: the p half,
    negated, before the q half; _assemble writes S's rows so in place."""
    q, p = np.split(M, 2, axis=axis)
    return np.concatenate([-p, q], axis=axis)


def _powers(S, kmax, mul=np.matmul):
    """S, S^2, ..., S^kmax, each the previous power times S: the order in
    which numpy's matrix power forms the square and the cube."""
    return itertools.accumulate(itertools.repeat(S, kmax), mul)


def _assemble(g, lam, x):
    """S from Lagrange brackets lam[..., :, :] at the states x (one
    state, or a stack matching lam's leading axis); a stack of bracket
    derivatives gives the matching stack of x-row and weighted z-row
    terms of dS."""
    S = np.zeros(lam.shape, dtype=lam.dtype)
    np.negative(lam[..., g.p_slice, :], out=S[..., g.q_slice, :])
    S[..., g.p_slice, :] = lam[..., g.q_slice, :]
    zi = g.z_index
    if zi is not None:
        # the momentum weights broadcast over the axes between a state
        # and its matrix row
        shape = x.shape[:-1] + (1,) * (lam.ndim - x.ndim)
        for qi, pi in zip(g.q_indices, g.p_indices):
            S[..., zi, :] += x[..., pi].reshape(shape) * S[..., qi, :]
    return S


def s_tensor(F, x):
    """S^A_B at x, rows = output index; a stack of states gives a stack
    of matrices."""
    g = F.geometry
    x = g.check_states(x)
    return _assemble(g, transform.lagrange_brackets(F, x), x)


@expr.quiet
def trace_powers(F, x, kmax):
    """tr(S^k) for k = 1..kmax, by repeated multiplication: (kmax,) at
    one state, (N, kmax) for a stack."""
    kmax = _check_kmax(kmax)
    S = s_tensor(F, x)
    out = np.zeros(S.shape[:-2] + (kmax,), dtype=S.dtype)
    for k, P in enumerate(_powers(S, kmax)):
        out[..., k] = np.trace(P, axis1=-2, axis2=-1)
    return out


def s_and_ds(F, x):
    """Full-chart S and dS[nu] = dS/dx^nu, assembled by the product rule
    from the bracket derivatives of F's Jets at x.  The structural rows
    are differentiated through their defining constraints: the t-row
    stays zero and the z-row picks up the derivative of its momentum
    weights."""
    g = F.geometry
    jets = transform.Jets.of(F, x)
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


@expr.quiet
def nijenhuis_torsion(F, x):
    """N^l_{bg} = dA^l_g/dx^n A^n_b - dA^l_b/dx^n A^n_g
    + (dA^n_b/dx^g - dA^n_g/dx^b) A^l_n, over the x-block; antisymmetric
    in the two lower slots."""
    A, dA = _x_block(F.geometry, *s_and_ds(F, x))
    return _torsion(A, dA)


def _explicit_trace_grads(g, S, dS, kmax):
    """Gradients over the x-directions of tr(S^k), k = 1..kmax, of the
    full-chart S from the assembled dS: d tr(S^k) = k tr(S^(k-1) dS).
    Shape (kmax, nd), or (N, kmax, nd) for a stack."""
    dSx = dS[..., g.x_slice, :, :]
    grads = np.zeros(S.shape[:-2] + (kmax, dSx.shape[-3]), dtype=S.dtype)
    grads[..., 0, :] = np.trace(dSx, axis1=-2, axis2=-1)
    for k, P in enumerate(_powers(S, kmax - 1), 1):
        grads[..., k, :] = (k + 1) * np.einsum("...ab,...nba->...n", P, dSx)
    return grads


# ---------------------------------------------------------------------------
# Matrix-jet route to the trace gradients of the x-block, independent of
# the explicit product-rule assembly above.  A jet is a pair (value
# (..., m, m), tangent stack (..., nd, m, m)) whose tangents run over
# the nd x-directions.


def _jet_mul(A, B):
    (a, da), (b, db) = A, B
    return a @ b, da @ b[..., None, :, :] + a[..., None, :, :] @ db


def _trace_grads(jets, kmax):
    """Gradients over the x-directions of tr(A^k), k = 1..kmax, for the
    x-block A of S: the jet of J from the component Hessians of the
    Jets is pushed through Lam, A and the powers of A, never reading
    the bundle's Lam or dLam.  Shape (kmax, nd), or (N, kmax, nd) for a
    stack."""
    g = jets.F.geometry
    xs = g.x_slice
    _, J, Hc = jets.sweep
    J = J[..., xs]
    dJ = np.moveaxis(Hc[..., xs, xs], -1, -3)
    qs, ps = g.q_slice, g.p_slice
    b, db = _jet_mul((np.swapaxes(J[..., qs, :], -1, -2),
                      np.swapaxes(dJ[..., qs, :], -1, -2)),
                     (J[..., ps, :], dJ[..., ps, :]))
    A = tuple(_eps_swap(m - np.swapaxes(m, -1, -2), -2) for m in (b, db))
    grads = np.zeros(jets.x.shape[:-1] + (kmax, 2 * g.n), dtype=A[0].dtype)
    for k, P in enumerate(_powers(A, kmax, _jet_mul)):
        grads[..., k, :] = np.trace(P[1], axis1=-2, axis2=-1)
    return grads


@expr.quiet
def lenard_identity_residual(F, x, kmax):
    """Sup-norm gap between the two sides of the trace identity at x for
    every k = 1..kmax: shape (kmax,) at one state, (N, kmax) for a stack.

    Left side: torsion contracted with S^(k-1), both from the explicit
    derivative assembly.  Right side: normalized trace gradients from
    the matrix-jet route.  The identity is unconditional, so any
    nonzero residual beyond rounding exposes a derivative bug.
    """
    kmax = operator.index(kmax)
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if kmax + 1 > KMAX_LIMIT:
        raise ValueError(f"kmax + 1 exceeds the power limit {KMAX_LIMIT}")
    jets = transform.Jets.of(F, x)
    A, dA = _x_block(F.geometry, *s_and_ds(F, jets))
    grads = _trace_grads(jets, kmax + 1)
    out = np.zeros(jets.x.shape[:-1] + (kmax,), dtype=A.dtype)
    N = _torsion(A, dA)
    AT = np.swapaxes(A, -1, -2)
    # S^0 laid out as the stack, as numpy's matrix power gives it
    eye = np.empty_like(A)
    eye[...] = np.eye(A.shape[-1], dtype=A.dtype)
    for k, P in enumerate(itertools.chain([eye], _powers(A, kmax - 1)), 1):
        lhs = np.einsum("...lbg,...gl->...b", N, P)
        rhs = ((AT @ grads[..., k - 1, :, None])[..., 0] / k
               - grads[..., k, :] / (k + 1))
        out[..., k - 1] = np.max(np.abs(lhs - rhs), axis=-1)
    return out


@expr.quiet
def involution_matrix(F, samples, kmax):
    """Pairwise brackets of the trace functions over samples.

    unbarred entry (i, j): max |{tr S^(i+1), tr S^(j+1)}| with the flat
    bracket grad_f^T eps grad_h.  barred: the bracket of the pulled-back
    structure, -grad_f^T L^{-1} grad_h with L the Lagrange x-block
    (inverted by LU with partial pivoting; condition number reported).
    The gradients come from one s_and_ds sweep; L = eps S[x, x] is the
    bundle's own Lagrange x-block, float-only in the cond and the solve.
    Samples whose L is singular or has condition number beyond
    CONDITION_LIMIT are skipped for the barred variant and counted;
    if every sample is skipped the barred bracket is unavailable and
    SingularPullback is raised.  A non-finite bracket or L (before its
    cond) raises transform.NonFiniteResidual naming its first sample.
    """
    kmax = _check_kmax(kmax)
    g = F.geometry
    jets = transform.Jets.of(F, samples, stack=True)
    S, dS = s_and_ds(F, jets)
    grads = _explicit_trace_grads(g, S, dS, kmax)
    gT = np.swapaxes(grads, 1, 2)
    L = jets.lam[:, g.x_slice, g.x_slice]
    unbarred = np.abs(_eps_swap(grads, -1) @ gT)
    unbarred = transform.fold_max(unbarred)
    transform.fold_max(L)
    cond = np.linalg.cond(L)
    usable = np.isfinite(cond) & (cond <= CONDITION_LIMIT)
    n = len(jets)
    if not usable.any():
        raise SingularPullback(f"Lagrange x-block singular at all {n} samples")
    # skipped samples keep a zero row, so fold indices stay sample indices
    barred = np.zeros((n, kmax, kmax))
    barred[usable] = np.abs(
        -grads[usable] @ np.linalg.solve(L[usable], gT[usable]))
    return InvolutionResult(unbarred=unbarred,
                            barred=transform.fold_max(barred),
                            skipped=int(n - usable.sum()),
                            max_condition=float(np.max(cond[usable])))
