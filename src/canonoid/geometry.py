"""Darboux-coordinate phase-space structures.

Four geometries are supported, with fixed coordinate layouts:

    symplectic    dim 2n    (q1..qn, p1..pn)
    cosymplectic  dim 2n+1  (q1..qn, p1..pn, t)
    contact       dim 2n+1  (q1..qn, p1..pn, z)
    cocontact     dim 2n+2  (t, q1..qn, p1..pn, z)

All matrices in the library use these orderings.  The canonical
two-form block follows the convention (dq ∧ dp)(X, Y) =
dq(X) dp(Y) - dq(Y) dp(X), so that omega(e_mu, e_nu) equals the
constant matrix eps = [[0, I], [-I, 0]] on the (q, p) block.

Interior products use (X ⌟ omega)(Y) = omega(X, Y); in components that
is M.T @ X for a two-form with matrix M (see contract()).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import expr

__all__ = [
    "GeometryKind",
    "StructureAtPoint",
    "WrongGeometry",
    "structure_at_point",
    "hamiltonian_vf",
    "hamiltonian_vf_jacobian",
    "dynamical_vf",
    "dynamical_vf_jacobian",
    "poisson_bracket",
    "jacobi_bracket",
    "canonical_eps",
    "contract",
]

KINDS = ("symplectic", "cosymplectic", "contact", "cocontact")


class WrongGeometry(TypeError):
    """Operation not defined for this geometry kind."""


@dataclass(frozen=True)
class GeometryKind:
    """One of the four phase-space structures with n degrees of freedom."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    @functools.cached_property
    def dim(self):
        base = 2 * self.n
        if self.kind in ("cosymplectic", "contact"):
            return base + 1
        if self.kind == "cocontact":
            return base + 2
        return base

    @functools.cached_property
    def chart_vars(self):
        qs = [f"q{i}" for i in range(1, self.n + 1)]
        ps = [f"p{i}" for i in range(1, self.n + 1)]
        if self.kind == "symplectic":
            return tuple(qs + ps)
        if self.kind == "cosymplectic":
            return tuple(qs + ps + ["t"])
        if self.kind == "contact":
            return tuple(qs + ps + ["z"])
        return tuple(["t"] + qs + ps + ["z"])

    # -- index layout (computed once per instance) --------------------------

    @functools.cached_property
    def q_indices(self):
        off = 1 if self.kind == "cocontact" else 0
        return tuple(range(off, off + self.n))

    @functools.cached_property
    def p_indices(self):
        off = 1 if self.kind == "cocontact" else 0
        return tuple(range(off + self.n, off + 2 * self.n))

    @functools.cached_property
    def x_indices(self):
        """Positions of the (q, p) block in chart order."""
        return self.q_indices + self.p_indices

    @functools.cached_property
    def q_slice(self):
        """q_indices as a slice (the q block is contiguous), so indexing
        with it gives a view instead of a fancy-index copy."""
        return slice(self.q_indices[0], self.q_indices[-1] + 1)

    @functools.cached_property
    def p_slice(self):
        return slice(self.p_indices[0], self.p_indices[-1] + 1)

    @functools.cached_property
    def x_slice(self):
        return slice(self.x_indices[0], self.x_indices[-1] + 1)

    @functools.cached_property
    def t_index(self):
        if self.kind == "cosymplectic":
            return 2 * self.n
        if self.kind == "cocontact":
            return 0
        return None

    @functools.cached_property
    def z_index(self):
        if self.kind == "contact":
            return 2 * self.n
        if self.kind == "cocontact":
            return 2 * self.n + 1
        return None

    def check_state(self, x):
        """x as one float state of shape (dim,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"state has shape {x.shape}, chart dimension is {self.dim}")
        return x

    def check_states(self, x):
        """x as floats: one state (dim,) or a stack of states (N, dim)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ValueError(
                f"state has shape {x.shape}, chart dimension is {self.dim}")
        return x

    def env(self, x):
        return dict(zip(self.chart_vars, self.check_state(x)))

    def parse(self, source):
        return expr.parse(source, self.chart_vars)


def canonical_eps(n):
    """eps = [[0, I], [-I, 0]]: the matrix of dq^i ∧ dp_i on the x-block."""
    eps = np.zeros((2 * n, 2 * n))
    eps[:n, n:] = np.eye(n)
    eps[n:, :n] = -np.eye(n)
    return eps


def contract(two_form, X):
    """Interior product (X ⌟ omega) as a covector: omega(X, .); stacks
    of two-forms (N, d, d) and vectors (N, d) contract row by row."""
    M = np.asarray(two_form)
    return (np.swapaxes(M, -1, -2) @ np.asarray(X)[..., None])[..., 0]


@dataclass(frozen=True)
class StructureAtPoint:
    """Constant Darboux-form structure data at a point.

    two_form is the full chart-dimension matrix (the canonical eps block
    embedded at the x-indices).  theta/eta are one-form component
    vectors, None where the geometry has no such form.
    """

    two_form: np.ndarray
    theta: np.ndarray | None = None
    eta: np.ndarray | None = None


def full_two_form(g):
    """The canonical two-form (omega, Omega, or d theta) on the full chart."""
    d = g.dim
    M = np.zeros((d, d))
    xi = np.array(g.x_indices)
    M[np.ix_(xi, xi)] = canonical_eps(g.n)
    return M


def structure_at_point(g, x=None):
    """Structure tensors of g in Darboux form (point-independent except
    for theta, which carries the p-coordinates of x).  For a stack of
    states x (N, d) theta is the matching (N, d) stack."""
    d = g.dim
    M = full_two_form(g)
    eta = None
    if g.t_index is not None:
        eta = np.zeros(d)
        eta[g.t_index] = 1.0
    if g.z_index is None:
        return StructureAtPoint(two_form=M, eta=eta)
    # theta = dz - p_i dq^i needs the point for its p-components
    if x is None:
        raise ValueError(f"{g.kind} structure needs the evaluation point")
    x = g.check_states(x)
    theta = np.zeros(x.shape)
    theta[..., g.z_index] = 1.0
    theta[..., g.q_slice] = -x[..., g.p_slice]
    return StructureAtPoint(two_form=M, theta=theta, eta=eta)


# ---------------------------------------------------------------------------
# Vector fields


def _assemble_vf(g, x, Hval, grad):
    X = np.zeros(grad.shape)
    qs, ps = g.q_slice, g.p_slice
    X[..., qs] = grad[..., ps]
    zi = g.z_index
    if zi is None:
        X[..., ps] = -grad[..., qs]
        return X
    p = x[..., ps]
    X[..., ps] = -(grad[..., qs] + p * grad[..., zi, None])
    X[..., zi] = (p * grad[..., ps]).sum(axis=-1) - Hval
    return X


def hamiltonian_vf(g, H, x):
    """Components of the Hamiltonian vector field X_H at x, one state
    (d,) or a stack (N, d).

    symplectic/cosymplectic: (dH/dp, -dH/dq), zero t-component;
    contact/cocontact: (dH/dp, -(dH/dq + p dH/dz), p.dH/dp - H), zero
    t-component.
    """
    x = g.check_states(x)
    Hval, grad, _ = expr.jet(H, x, order=1)
    return _assemble_vf(g, x, Hval, grad)


def hamiltonian_vf_jacobian(g, H, x):
    """(X_H, dX_H) with the Jacobian assembled from the gradient and
    Hessian of H; row = component, column = derivative direction."""
    x = g.check_states(x)
    Hval, grad, hess = expr.value_and_derivatives(H, x)
    X = _assemble_vf(g, x, Hval, grad)
    dX = np.zeros(hess.shape)
    qs, ps = g.q_slice, g.p_slice
    dX[..., qs, :] = hess[..., ps, :]
    zi = g.z_index
    if zi is None:
        dX[..., ps, :] = -hess[..., qs, :]
        return X, dX
    p = x[..., ps]
    dX[..., ps, :] = -(hess[..., qs, :] + p[..., :, None] * hess[..., zi, None, :])
    dX[..., zi, :] = (p[..., None, :] @ hess[..., ps, :])[..., 0, :] - grad
    # the -p_a dH/dz and p_a dH/dp_a terms differentiated in p_a
    diag = g.p_indices
    dX[..., diag, diag] -= grad[..., zi, None]
    dX[..., zi, ps] += grad[..., ps]
    return X, dX


def _add_time(g, X):
    if g.t_index is not None:
        X[..., g.t_index] += 1.0
    return X


def dynamical_vf(g, H, x):
    """The field whose integral curves are the physical trajectories:
    X_H for symplectic/contact, and for cosymplectic/cocontact the
    evolution field E_H = X_H + d/dt."""
    return _add_time(g, hamiltonian_vf(g, H, x))


def dynamical_vf_jacobian(g, H, x):
    """(V, dV) for the dynamical field; the added time component is
    constant, so dV equals dX_H."""
    X, dX = hamiltonian_vf_jacobian(g, H, x)
    return _add_time(g, X), dX


# ---------------------------------------------------------------------------
# Brackets


def poisson_bracket(g, f, h, x):
    """Canonical-coordinate Poisson bracket sum_i (df/dq dh/dp -
    df/dp dh/dq); t-derivatives never enter."""
    if g.kind not in ("symplectic", "cosymplectic"):
        raise WrongGeometry(f"Poisson bracket undefined for {g.kind}")
    x = g.check_state(x)
    gf = expr.gradient(f, x)
    gh = expr.gradient(h, x)
    qs, ps = g.q_slice, g.p_slice
    return float(np.dot(gf[qs], gh[ps]) - np.dot(gf[ps], gh[qs]))


def jacobi_bracket(g, f, h, x):
    """Contact/cocontact Jacobi bracket: the Poisson terms plus
    df/dz (p.dh/dp - h) - dh/dz (p.df/dp - f)."""
    if g.kind not in ("contact", "cocontact"):
        raise WrongGeometry(f"Jacobi bracket undefined for {g.kind}")
    x = g.check_state(x)
    fval, gf, _ = expr.jet(f, x, order=1)
    hval, gh, _ = expr.jet(h, x, order=1)
    qs, ps = g.q_slice, g.p_slice
    zi = g.z_index
    p = x[ps]
    core = float(np.dot(gf[qs], gh[ps]) - np.dot(gf[ps], gh[qs]))
    return (core
            + gf[zi] * (float(np.dot(p, gh[ps])) - hval)
            - gh[zi] * (float(np.dot(p, gf[ps])) - fval))
