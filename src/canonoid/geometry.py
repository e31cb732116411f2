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
    "point_field",
    "poisson_bracket",
    "jacobi_bracket",
    "canonical_eps",
    "contract",
]

KINDS = ("symplectic", "cosymplectic", "contact", "cocontact")


class WrongGeometry(TypeError):
    """Operation not defined for this geometry kind."""


class GeometryKind(expr.Record):
    """One of the four phase-space structures with n degrees of freedom."""

    __slots__ = ("kind", "n", "__dict__")

    def __init__(self, kind, n):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        super().__init__(kind, n)

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


class StructureAtPoint(expr.Record):
    """Constant Darboux-form structure data at a point.

    two_form is the full chart-dimension matrix (the canonical eps block
    embedded at the x-indices).  theta/eta are one-form component
    vectors, None where the geometry has no such form.
    """

    __slots__ = ("two_form", "theta", "eta")


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
        return StructureAtPoint(two_form=M, theta=None, eta=eta)
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


def _assemble_vf(g, X, x, Hval, grad):
    """Write X_H into X from the value and gradient of H, coordinate by
    coordinate: X[i], x[i] and grad[i] are columns (N,) over a stack and
    the terms of expr.point_function at one state, so both run this one
    formula."""
    zi = g.z_index
    p_dH = None   # p.dH/dp, summed left to right as numpy sums n <= 7 terms
    for q, p in zip(g.q_indices, g.p_indices):
        X[q] = grad[p]
        if zi is None:
            X[p] = -grad[q]
            continue
        X[p] = -(grad[q] + x[p] * grad[zi])
        term = x[p] * grad[p]
        p_dH = term if p_dH is None else p_dH + term
    if zi is not None:
        X[zi] = p_dH - Hval


def point_field(g, H):
    """The dynamical field of (g, H) at one state: a function from a
    list of g.dim floats to a fresh list, one straight-line text that
    writes _assemble_vf after H's order-1 float sweep, with the constant
    t-component of the evolution field.  It is emitted once and cached
    on H with the geometry it was built for, found again by identity:
    a lookup keyed by the GeometryKind would hash and compare it, about
    1.5 us a call."""
    found = H._kernels.get("vf")
    if found is not None and found[0] is g:
        return found[1]
    if H.chart_vars != g.chart_vars:
        raise ValueError(f"H is written on {H.chart_vars}, the chart of "
                         f"{g.kind} n={g.n} is {g.chart_vars}")

    def formula(x, Hval, grad):
        V = [0.0] * g.dim
        _assemble_vf(g, V, x, Hval, grad)
        if g.t_index is not None:
            V[g.t_index] = 1.0
        return V

    field = expr.point_function(H, formula)
    H._kernels["vf"] = (g, field)
    return field


def hamiltonian_vf(g, H, x):
    """Components of the Hamiltonian vector field X_H at x, one state
    (d,) or a stack (N, d).

    symplectic/cosymplectic: (dH/dp, -dH/dq), zero t-component;
    contact/cocontact: (dH/dp, -(dH/dq + p dH/dz), p.dH/dp - H), zero
    t-component.
    """
    x = g.check_states(x)
    if x.ndim == 1:
        X = np.array(point_field(g, H)(x.tolist()))
        if g.t_index is not None:
            X[g.t_index] = 0.0   # the evolution field's dt/dt
        return X
    Hval, grad, _ = expr.jet(H, x, order=1)
    X = np.zeros(x.shape)
    _assemble_vf(g, X.T, x.T, Hval, grad.T)
    return X


def hamiltonian_vf_jacobian(g, H, x):
    """(X_H, dX_H) with the Jacobian assembled from the gradient and
    Hessian of H; row = component, column = derivative direction."""
    x = g.check_states(x)
    Hval, grad, hess = expr.value_and_derivatives(H, x)
    X = np.zeros(x.shape)
    _assemble_vf(g, X.T, x.T, Hval, grad.T)
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
    evolution field E_H = X_H + d/dt.

    x is one state (d,) or a stack (N, d), and the field comes back in
    the same shape.  One state may also be a Python list of d floats:
    the field is then a fresh list, with the same numbers as for the
    state as an array.  Any other list is read as an array.  One state
    runs point_field(g, H); the integrators call this list form once
    per stage.
    """
    if type(x) is list and len(x) == g.dim and type(x[0]) is float:
        return point_field(g, H)(x)
    x = g.check_states(x)
    if x.ndim == 1:
        return np.array(point_field(g, H)(x.tolist()))
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
