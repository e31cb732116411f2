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
    """S from Lagrange brackets lam[..., :, :]; a stack of bracket
    derivatives gives the matching stack of x-row and weighted z-row
    terms of dS."""
    xi = list(g.x_indices)
    S = np.zeros(lam.shape)
    S[..., xi, :] = canonical_eps(g.n).T @ lam[..., xi, :]
    zi = g.z_index
    if zi is not None:
        for qi, pi in zip(g.q_indices, g.p_indices):
            S[..., zi, :] += x[pi] * S[..., qi, :]
    return S


def s_tensor(g, F, x):
    """S^A_B at x, rows = output index."""
    x = g.check_state(x)
    S = _assemble(g, transform.lagrange_brackets(F, x), x)
    mask = np.zeros(S.shape, dtype=bool)
    if g.t_index is not None:
        mask[g.t_index, :] = True
    if g.z_index is not None:
        mask[g.z_index, :] = True
    return STensorSample(matrix=S, structural_zeros=mask)


def trace_powers(g, F, x, kmax):
    """tr(S^k) for k = 1..kmax, by repeated multiplication."""
    kmax = _check_kmax(kmax)
    S = s_tensor(g, F, x).matrix
    out = np.zeros(kmax)
    P = S.copy()
    out[0] = np.trace(P)
    for k in range(1, kmax):
        P = P @ S
        out[k] = np.trace(P)
    return out


def s_and_ds(g, F, x):
    """Full-chart S and dS[nu] = dS/dx^nu, assembled by the product rule
    from the bracket derivatives.  The structural rows are
    differentiated through their defining constraints: the t-row stays
    zero and the z-row picks up the derivative of its momentum
    weights."""
    x = g.check_state(x)
    _, _, _, lam, dLam = transform.bracket_jet(F, x)
    S = _assemble(g, lam, x)
    dS = _assemble(g, dLam, x)
    if g.z_index is not None:
        for qi, pi in zip(g.q_indices, g.p_indices):
            dS[pi, g.z_index, :] += S[qi, :]
    return S, dS


def _x_block(g, S, dS):
    """x-block A of S and dA[n] = dA/dx^n along the x-directions."""
    xi = list(g.x_indices)
    return S[np.ix_(xi, xi)], dS[np.ix_(xi, xi, xi)]


def _torsion(A, dA):
    # half with the beta slot fixed; antisymmetrizing it reproduces all
    # four terms of the component formula and keeps N^l_{bg} = -N^l_{gb}
    # exact in floating point
    M = (np.einsum("nlg,nb->lbg", dA, A)
         + np.einsum("gnb,ln->lbg", dA, A))
    return M - M.transpose(0, 2, 1)


def nijenhuis_torsion(g, F, x):
    """N^l_{bg} = dA^l_g/dx^n A^n_b - dA^l_b/dx^n A^n_g
    + (dA^n_b/dx^g - dA^n_g/dx^b) A^l_n, over the x-block."""
    A, dA = _x_block(g, *s_and_ds(g, F, x))
    return TorsionSample(components=_torsion(A, dA))


# ---------------------------------------------------------------------------
# Matrix-jet route to trace gradients (independent of the explicit
# product-rule assembly above).  A jet is a pair (value (m, m), tangent
# stack (nd, m, m)) whose tangents run over the nd x-directions.


def _jet_mul(A, B):
    (a, da), (b, db) = A, B
    return a @ b, da @ b + a @ db


def _trace_grads(g, F, x, kmax, block):
    """Gradients over the x-directions of tr(S^k), k = 1..kmax, for the
    full-chart S (block='full') or its x-block (block='x'): the jet of
    J from the component Hessians is pushed through Lam, S and the
    powers of S."""
    xi = list(g.x_indices)
    nd = len(xi)
    idx = xi if block == "x" else list(range(g.dim))
    m = len(idx)
    _, J, Hc = transform.jacobian_and_hessians(F, x)
    J = J[:, idx]
    dJ = np.moveaxis(Hc[:, idx][:, :, xi], 2, 0)
    qs, ps = list(g.q_indices), list(g.p_indices)
    b, db = _jet_mul((J[qs].T, dJ[:, qs].transpose(0, 2, 1)),
                     (J[ps], dJ[:, ps]))
    lam, dlam = b - b.T, db - db.transpose(0, 2, 1)
    rows = [idx.index(i) for i in xi]
    eps_inv = canonical_eps(g.n).T
    S = np.zeros((m, m))
    dS = np.zeros((nd, m, m))
    S[rows] = eps_inv @ lam[rows]
    dS[:, rows] = eps_inv @ dlam[:, rows]
    if block == "full" and g.z_index is not None:
        zi = g.z_index
        for qi, pi in zip(qs, ps):
            # z-row += p_i S[q_i], where p_i's tangent is its unit x-direction
            S[zi] += x[pi] * S[qi]
            dS[:, zi] += x[pi] * dS[:, qi]
            dS[xi.index(pi), zi] += S[qi]
    grads = np.zeros((kmax, nd))
    P = (S, dS)
    for k in range(kmax):
        if k > 0:
            P = _jet_mul(P, (S, dS))
        grads[k] = np.trace(P[1], axis1=1, axis2=2)
    return grads


def lenard_identity_residual(g, F, x, k):
    """Sup-norm gap between the two sides of the trace identity at x.

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
    x = g.check_state(x)
    A, dA = _x_block(g, *s_and_ds(g, F, x))
    lhs = np.einsum("lbg,gl->b", _torsion(A, dA),
                    np.linalg.matrix_power(A, k - 1))
    grads = _trace_grads(g, F, x, k + 1, block="x")
    rhs = A.T @ grads[k - 1] / k - grads[k] / (k + 1)
    return float(np.max(np.abs(lhs - rhs)))


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
    samples = transform.as_samples(samples)
    xi = list(g.x_indices)
    eps = canonical_eps(g.n)
    unbarred = []
    barred = []
    skipped = 0
    max_condition = 0.0
    for x in samples:
        x = g.check_state(x)
        grads = _trace_grads(g, F, x, kmax, block="full")
        unbarred.append(np.abs(grads @ eps @ grads.T))
        L = transform.lagrange_brackets(F, x)[np.ix_(xi, xi)]
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.linalg.cond(L)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            skipped += 1
            barred.append(0.0)   # keeps fold indices equal to sample indices
            continue
        max_condition = max(max_condition, float(cond))
        barred.append(np.abs(-grads @ np.linalg.solve(L, grads.T)))
    unbarred = transform.fold_max(unbarred)
    if skipped == samples.shape[0]:
        raise SingularPullback(
            f"Lagrange x-block singular at all {samples.shape[0]} samples")
    return InvolutionResult(unbarred=unbarred,
                            barred=transform.fold_max(barred),
                            skipped=skipped, max_condition=max_condition)
