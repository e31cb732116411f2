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
gradients.  lenard_identity_residual evaluates the two sides through
disjoint code paths (explicit product-rule assembly of dS on the left,
a matrix jet, value plus tangent stack, pushed through the matrix
powers on the right), which makes it a strong end-to-end check of
every derivative in this module.

Torsion and the Lenard identity live on the x-block only; the trace
and involution computations use the full matrix, whose constrained
rows keep the extra columns out of the trace algebra.

Every function takes one state (d,) or a stack of states (N, d) and
returns the single or the stacked result: the matrix algebra runs over
a leading sample axis, under np.errstate, so a non-finite entry reaches
the caller's residual fold instead of a floating-point warning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transform
from .geometry import canonical_eps

__all__ = [
    "STensorSample",
    "TorsionSample",
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
CONDITION_LIMIT = 1e12


class SingularPullback(ValueError):
    """The x-block of the Lagrange matrix was singular at every sample,
    so the barred bracket variant could not be computed anywhere."""


@dataclass(frozen=True)
class STensorSample:
    """S at one point over the full coordinate list.  structural_zeros
    marks the rows fixed by the geometry (zero t-row, momentum-weighted
    z-row) rather than computed from brackets."""

    matrix: np.ndarray
    structural_zeros: np.ndarray


@dataclass(frozen=True)
class TorsionSample:
    """Torsion components N^l_{bg} over the x-block, antisymmetric in
    the two lower slots."""

    components: np.ndarray


@dataclass(frozen=True)
class InvolutionResult:
    """Pairwise bracket magnitudes of the trace functions: entry (i, j)
    holds max |{tr S^(i+1), tr S^(j+1)}| over the samples.  skipped
    counts samples where the barred variant was dropped because the
    Lagrange x-block was singular or too ill-conditioned."""

    unbarred: np.ndarray
    barred: np.ndarray
    skipped: int
    max_condition: float


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
    S = _assemble(g, transform.lagrange_brackets(F, x), x)
    mask = np.zeros(S.shape, dtype=bool)
    if g.t_index is not None:
        mask[..., g.t_index, :] = True
    if g.z_index is not None:
        mask[..., g.z_index, :] = True
    return STensorSample(matrix=S, structural_zeros=mask)


def trace_powers(g, F, x, kmax):
    """tr(S^k) for k = 1..kmax, by repeated multiplication: (kmax,) at
    one state, (N, kmax) for a stack."""
    kmax = _check_kmax(kmax)
    S = s_tensor(g, F, x).matrix
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
    from the bracket derivatives.  The structural rows are
    differentiated through their defining constraints: the t-row stays
    zero and the z-row picks up the derivative of its momentum
    weights."""
    x = g.check_states(x)
    _, _, _, lam, dLam = transform.bracket_jet(F, x)
    S = _assemble(g, lam, x)
    dS = _assemble(g, dLam, x)
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
    + (dA^n_b/dx^g - dA^n_g/dx^b) A^l_n, over the x-block."""
    A, dA = _x_block(g, *s_and_ds(g, F, x))
    with np.errstate(all="ignore"):
        return TorsionSample(components=_torsion(A, dA))


# ---------------------------------------------------------------------------
# Matrix-jet route to trace gradients (independent of the explicit
# product-rule assembly above).  A jet is a pair (value (..., m, m),
# tangent stack (..., nd, m, m)) whose tangents run over the nd
# x-directions.


def _jet_mul(A, B):
    (a, da), (b, db) = A, B
    return a @ b, da @ b[..., None, :, :] + a[..., None, :, :] @ db


def _trace_grads(g, F, x, kmax, block):
    """Gradients over the x-directions of tr(S^k), k = 1..kmax, for the
    full-chart S (block='full') or its x-block (block='x'): the jet of
    J from the component Hessians is pushed through Lam, S and the
    powers of S.  Shape (kmax, nd), or (N, kmax, nd) for a stack."""
    x = g.check_states(x)
    xi = list(g.x_indices)
    nd = len(xi)
    idx = xi if block == "x" else list(range(g.dim))
    m = len(idx)
    _, J, Hc = transform.jacobian_and_hessians(F, x)
    J = J[..., idx]
    dJ = np.moveaxis(Hc[..., idx, :][..., xi], -1, -3)
    qs, ps = list(g.q_indices), list(g.p_indices)
    b, db = _jet_mul((np.swapaxes(J[..., qs, :], -1, -2),
                      np.swapaxes(dJ[..., qs, :], -1, -2)),
                     (J[..., ps, :], dJ[..., ps, :]))
    lam, dlam = b - np.swapaxes(b, -1, -2), db - np.swapaxes(db, -1, -2)
    rows = [idx.index(i) for i in xi]
    eps_inv = canonical_eps(g.n).T
    lead = x.shape[:-1]
    S = np.zeros(lead + (m, m))
    dS = np.zeros(lead + (nd, m, m))
    S[..., rows, :] = eps_inv @ lam[..., rows, :]
    dS[..., rows, :] = eps_inv @ dlam[..., rows, :]
    if block == "full" and g.z_index is not None:
        zi = g.z_index
        for qi, pi in zip(qs, ps):
            # z-row += p_i S[q_i], where p_i's tangent is its unit x-direction
            p = x[..., pi, None]
            S[..., zi, :] += p * S[..., qi, :]
            dS[..., zi, :] += p[..., None] * dS[..., qi, :]
            dS[..., xi.index(pi), zi, :] += S[..., qi, :]
    grads = np.zeros(lead + (kmax, nd))
    P = (S, dS)
    with np.errstate(all="ignore"):
        for k in range(kmax):
            if k > 0:
                P = _jet_mul(P, (S, dS))
            grads[..., k, :] = np.trace(P[1], axis1=-2, axis2=-1)
    return grads


def lenard_identity_residual(g, F, x, k):
    """Sup-norm gap between the two sides of the trace identity at x: a
    float at one state, an (N,) array for a stack.

    Left side: torsion contracted with S^(k-1), both from the explicit
    derivative assembly.  Right side: normalized trace gradients from
    the matrix-jet route.  The identity is unconditional, so any
    nonzero residual beyond rounding exposes a derivative bug.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k + 1 > KMAX_LIMIT:
        raise ValueError(f"k + 1 exceeds the power limit {KMAX_LIMIT}")
    x = g.check_states(x)
    A, dA = _x_block(g, *s_and_ds(g, F, x))
    grads = _trace_grads(g, F, x, k + 1, block="x")
    with np.errstate(all="ignore"):
        lhs = np.einsum("...lbg,...gl->...b", _torsion(A, dA),
                        np.linalg.matrix_power(A, k - 1))
        rhs = ((np.swapaxes(A, -1, -2) @ grads[..., k - 1, :, None])[..., 0] / k
               - grads[..., k, :] / (k + 1))
        r = np.max(np.abs(lhs - rhs), axis=-1)
    return float(r) if x.ndim == 1 else r


def involution_matrix(g, F, samples, kmax):
    """Pairwise brackets of the trace functions over samples.

    unbarred entry (i, j): max |{tr S^(i+1), tr S^(j+1)}| with the flat
    bracket grad_f^T eps grad_h.  barred: the bracket of the pulled-back
    structure, -grad_f^T L^{-1} grad_h with L the Lagrange x-block
    (inverted by LU with partial pivoting; condition number reported).
    Samples whose L is singular or has condition number beyond
    CONDITION_LIMIT are skipped for the barred variant and counted;
    if every sample is skipped the barred bracket is unavailable and
    SingularPullback is raised.  A non-finite bracket raises
    transform.NonFiniteResidual.
    """
    kmax = _check_kmax(kmax)
    samples = g.check_states(transform.as_samples(samples))
    xs = g.x_slice
    grads = _trace_grads(g, F, samples, kmax, block="full")
    gT = np.swapaxes(grads, 1, 2)
    L = transform.lagrange_brackets(F, samples)[:, xs, xs]
    with np.errstate(all="ignore"):
        unbarred = np.abs(grads @ canonical_eps(g.n) @ gT)
        cond = np.linalg.cond(L)
    usable = np.isfinite(cond) & (cond <= CONDITION_LIMIT)
    unbarred = transform.fold_max(unbarred)
    n = samples.shape[0]
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
