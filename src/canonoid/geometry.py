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

This module is the one home of the Darboux formulas, which transform
reads: omega and theta = dz - p dq, written once as their pullbacks by
a map (pullback_two_form, pullback_theta and their derivatives), whose
pullback by the identity is the canonical structure; X_H and its
Jacobian; the chart layout, one table in GeometryKind.chart_vars.
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
    "pullback_two_form",
    "pullback_two_form_derivative",
    "pullback_theta",
    "pullback_theta_derivative",
    "hamiltonian_vf",
    "hamiltonian_vf_jacobian",
    "dynamical_vf",
    "dynamical_vf_jacobian",
    "point_field",
    "field_function",
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
    def chart_vars(self):
        """The chart layout, the one table keyed by the kind: the
        dimension and the positions of q, p, t and z are read off it."""
        qs = tuple(f"q{i}" for i in range(1, self.n + 1))
        ps = tuple(f"p{i}" for i in range(1, self.n + 1))
        before, after = {"symplectic": ((), ()),
                         "cosymplectic": ((), ("t",)),
                         "contact": ((), ("z",)),
                         "cocontact": (("t",), ("z",))}[self.kind]
        return before + qs + ps + after

    @functools.cached_property
    def dim(self):
        return len(self.chart_vars)

    @functools.cached_property
    def q_slice(self):
        """The q block as a slice (the q, p and x blocks are contiguous),
        so indexing with it gives a view instead of a fancy-index copy."""
        q1 = self.chart_vars.index("q1")
        return slice(q1, q1 + self.n)

    @functools.cached_property
    def p_slice(self):
        return slice(self.q_slice.stop, self.q_slice.stop + self.n)

    @functools.cached_property
    def x_slice(self):
        return slice(self.q_slice.start, self.p_slice.stop)

    @functools.cached_property
    def q_indices(self):
        return tuple(range(self.dim)[self.q_slice])

    @functools.cached_property
    def p_indices(self):
        return tuple(range(self.dim)[self.p_slice])

    @functools.cached_property
    def x_indices(self):
        """Positions of the (q, p) block in chart order."""
        return self.q_indices + self.p_indices

    @functools.cached_property
    def t_index(self):
        """Position of t, None where the chart has none; z_index is z's."""
        return self.chart_vars.index("t") if "t" in self.chart_vars else None

    @functools.cached_property
    def z_index(self):
        return self.chart_vars.index("z") if "z" in self.chart_vars else None

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

    def check_chart(self, e, name="H"):
        """Raise ValueError, naming both charts, unless the expression e
        is written on this geometry's chart: its partials are read by
        position in chart order."""
        if e.chart_vars != self.chart_vars:
            raise ValueError(f"{name} is written on {e.chart_vars}, the chart "
                             f"of {self.kind} n={self.n} is {self.chart_vars}")

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


# ---------------------------------------------------------------------------
# The Darboux forms pulled back by a map F, from its values vals (d,),
# Jacobian J (d, d) (row = target coordinate) and component Hessians
# hess (d, d, d), or stacks of them.  The canonical structure is the
# pullback by the identity.


def pullback_two_form(g, J):
    """F*(dq^i ∧ dp_i): the Lagrange brackets [x^mu, x^nu] =
    dQ^i/dx^mu dP_i/dx^nu - dQ^i/dx^nu dP_i/dx^mu."""
    B = np.swapaxes(J[..., g.q_slice, :], -1, -2) @ J[..., g.p_slice, :]
    return B - np.swapaxes(B, -1, -2)


def pullback_two_form_derivative(g, J, hess):
    """dLam[nu, mu, mu'] = d[x^mu, x^mu']/dx^nu, by the product rule."""
    qs, ps = g.q_slice, g.p_slice
    # a[nu] = sum_i outer(dJQ_i/dx^nu, JP_i) + outer(JQ_i, dJP_i/dx^nu)
    a = (np.einsum("...inm,...ik->...nmk", hess[..., qs, :, :], J[..., ps, :])
         + np.einsum("...im,...ink->...nmk", J[..., qs, :], hess[..., ps, :, :]))
    return a - np.swapaxes(a, -1, -2)


def pullback_theta(g, vals, J):
    """F*(dz - p_i dq^i) = dZ - P_i dQ^i."""
    theta = J[..., g.z_index, :].copy()
    for qi, pi in zip(g.q_indices, g.p_indices):
        theta -= vals[..., pi, None] * J[..., qi, :]
    return theta


def pullback_theta_derivative(g, vals, J, hess):
    """dtheta[mu, a] = d(F*theta)_mu/dx^a; the dP_i factor sits in the
    derivative slot a."""
    dtheta = hess[..., g.z_index, :, :].copy()
    for qi, pi in zip(g.q_indices, g.p_indices):
        dtheta -= (J[..., qi, :, None] * J[..., pi, None, :]
                   + vals[..., pi, None, None] * hess[..., qi, :, :])
    return dtheta


class StructureAtPoint(expr.Record):
    """The structure tensors at a point: two_form is the chart-dimension
    matrix of omega (d theta on the contact kinds), theta and eta the
    one-form component vectors, None where the geometry has no such
    form."""

    __slots__ = ("two_form", "theta", "eta")


def structure_at_point(g, x=None):
    """The structure of g in Darboux form at one state x (d,) or a stack
    (N, d): its pullback by the identity, at values x and J = I.  Only
    theta reads x, so the kinds without theta need none."""
    if x is None:
        if g.z_index is not None:
            raise ValueError(f"{g.kind} structure needs the evaluation point")
        x = np.zeros(g.dim)
    x = g.check_states(x)
    eye = np.broadcast_to(np.eye(g.dim), x.shape + (g.dim,))
    theta = None if g.z_index is None else pullback_theta(g, x, eye)
    eta = None if g.t_index is None else eye[..., g.t_index, :]
    return StructureAtPoint(pullback_two_form(g, eye), theta, eta)


# ---------------------------------------------------------------------------
# Vector fields


def _assemble_vf(g, X, x, Hval, grad):
    """Write X_H into X from the value and gradient of H, coordinate by
    coordinate: X[i], x[i] and grad[i] are columns (N,) over a stack,
    entries at one state (d,), and the terms of expr.point_function in
    an emitted float text, so all of them run this one formula."""
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


def _field(g, x, Hval, grad):
    """The dynamical field as a list, _assemble_vf with the constant
    t-component of the evolution field."""
    V = [0.0] * g.dim
    _assemble_vf(g, V, x, Hval, grad)
    if g.t_index is not None:
        V[g.t_index] = 1.0
    return V


def field_function(g, H, key, formula, params=()):
    """expr.point_function of formula(x, f, *args) over H, where
    f(inputs) gives the terms of the dynamical field of (g, H) at the
    input terms: one straight-line float function run(x, *params) of a
    state as a list of g.dim floats.  It is emitted once and cached on
    H under key with the geometry it was built for, found again by
    identity: a lookup keyed by the GeometryKind would hash and compare
    it, about 1.5 us a call."""
    found = H._kernels.get(key)
    if found is not None and found[0] is g:
        return found[1]
    g.check_chart(H)
    run = expr.point_function(H, formula, functools.partial(_field, g),
                              params)
    H._kernels[key] = (g, run)
    return run


def point_field(g, H):
    """The dynamical field of (g, H) at one state: a function from a
    list of g.dim floats to a fresh list, one straight-line text that
    writes _assemble_vf after H's order-1 float sweep, with the constant
    t-component of the evolution field, cached on H under "vf"."""
    return field_function(g, H, "vf", lambda x, f: f(x))


def hamiltonian_vf(g, H, x):
    """Components of the Hamiltonian vector field X_H at x, one state
    (d,) or a stack (N, d).

    symplectic/cosymplectic: (dH/dp, -dH/dq), zero t-component;
    contact/cocontact: (dH/dp, -(dH/dq + p dH/dz), p.dH/dp - H), zero
    t-component.
    """
    g.check_chart(H)
    x = g.check_states(x)
    Hval, grad, _ = expr.jet(H, x, order=1)
    X = np.zeros(x.shape)
    _assemble_vf(g, X.T, x.T, Hval, grad.T)
    return X


def hamiltonian_vf_jacobian(g, H, x):
    """(X_H, dX_H) with the Jacobian assembled from the gradient and
    Hessian of H; row = component, column = derivative direction."""
    g.check_chart(H)
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
    the same shape, from H's stacked jet (one state is the one-row
    stack).  One state may also be a Python list of d floats: the field
    is then a fresh list from point_field(g, H), H's emitted float
    function, with the same numbers as for the state as an array.  Any
    other list is read as an array.  rk45-adaptive calls this list form
    once per stage, seven times per attempt, so it reads the field that
    H caches under "vf" itself, with one lookup and the geometry's
    identity test, and calls point_field only to emit it; rk4 takes its
    steps from one emitted text and never calls it.
    """
    if type(x) is list and len(x) == g.dim and type(x[0]) is float:
        found = H._kernels.get("vf")
        if found is not None and found[0] is g:
            return found[1](x)
        return point_field(g, H)(x)
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
    return _bracket(g, ("symplectic", "cosymplectic"), "Poisson", f, h, x)


def jacobi_bracket(g, f, h, x):
    """Contact/cocontact Jacobi bracket: the Poisson terms plus
    df/dz (p.dh/dp - h) - dh/dz (p.df/dp - f)."""
    return _bracket(g, ("contact", "cocontact"), "Jacobi", f, h, x)


def _bracket(g, kinds, name, f, h, x):
    if g.kind not in kinds:
        raise WrongGeometry(f"{name} bracket undefined for {g.kind}")
    g.check_chart(f, "f")
    g.check_chart(h, "h")
    x = g.check_state(x)
    fval, gf, _ = expr.jet(f, x, order=1)
    hval, gh, _ = expr.jet(h, x, order=1)
    qs, ps, zi = g.q_slice, g.p_slice, g.z_index
    core = float(np.dot(gf[qs], gh[ps]) - np.dot(gf[ps], gh[qs]))
    if zi is None:
        return core
    p = x[ps]
    return (core
            + gf[zi] * (float(np.dot(p, gh[ps])) - hval)
            - gh[zi] * (float(np.dot(p, gf[ps])) - fval))
