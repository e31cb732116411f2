"""Candidate transformations and their certification.

A TransformMap holds one expression per target coordinate in the fixed
chart ordering.  From its Jacobian we assemble Lagrange brackets

    [x^mu, x^nu] = sum_i dQ^i/dx^mu dP_i/dx^nu - dQ^i/dx^nu dP_i/dx^mu

(the components of the pulled-back two-form; only the (Q, P) component
pairs enter, never T or Z).  On top of those this module decides
canonical status (pullback reproduces the structure), canonoid status
(the original dynamics stays Hamiltonian for some new K with respect to
the pulled-back structure), and recovers K numerically.

Canonoid detection is residual-based on sample points: closedness of a
candidate dK can be certified on a sampled region only.  Charts are
assumed star-shaped around the integration base point so that closed
implies exact.

For the time-dependent geometries the time component T must be the
literal expression "t"; construction rejects anything else.  Their
canonoid residual includes the time-bracket structural component
max_mu |[x^mu, t]|: when it vanishes the pulled-back Reeb field reduces
to d/dt, which is what makes trace conservation along the evolution
field sound.  Both components are reported separately.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .geometry import (
    GeometryKind, WrongGeometry, canonical_eps, contract, full_two_form,
    hamiltonian_vf_jacobian, structure_at_point,
)

__all__ = [
    "TransformMap",
    "CanonicalResult",
    "CanonoidResult",
    "KGradient",
    "SingularReeb",
    "NonCanonoid",
    "NonFiniteResidual",
    "fold_max",
    "jacobian",
    "jacobian_and_hessians",
    "lagrange_brackets",
    "lagrange_derivative",
    "bracket_jet",
    "as_samples",
    "check_canonical",
    "candidate_K_gradient",
    "check_canonoid",
    "recover_K",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-8
GL_NODES_PER_UNIT = 32


class SingularReeb(ValueError):
    """The pulled-back coframe does not determine a Reeb field at a
    sample point (the pullback fails to be a contact structure there)."""


class NonCanonoid(ValueError):
    """K reconstruction was attempted where the candidate gradient is
    not closed; the line integral would be path-dependent."""


class NonFiniteResidual(ArithmeticError):
    """A residual came out NaN or infinite (overflow in the map or the
    Hamiltonian), so no verdict can be drawn from it."""


def fold_max(residuals, label="sample"):
    """Largest of the per-sample residuals, elementwise when each is a
    vector of components.  A NaN or infinite entry raises
    NonFiniteResidual naming its index: the builtin max(0.0, nan)
    returns 0.0 and would turn it into a pass."""
    worst = 0.0
    for i, r in enumerate(residuals):
        if not np.all(np.isfinite(r)):
            raise NonFiniteResidual(f"non-finite residual at {label} {i}")
        worst = np.maximum(worst, r)
    return worst


@dataclass(frozen=True)
class TransformMap:
    """A diffeomorphism candidate, one component expression per target
    coordinate in chart order."""

    geometry: GeometryKind
    components: tuple

    def __post_init__(self):
        g = self.geometry
        if len(self.components) != g.dim:
            raise ValueError(
                f"{g.kind} needs {g.dim} components, got {len(self.components)}")
        for c in self.components:
            if c.chart_vars != g.chart_vars:
                raise ValueError("component parsed over a different chart")
        ti = g.t_index
        if ti is not None:
            comp = self.components[ti]
            if comp.ast != expr.Var("t"):
                raise ValueError(
                    "the time component must be the literal expression 't'")

    @classmethod
    def parse(cls, g, sources):
        """Build from expression texts: a sequence in chart order or a
        mapping keyed by target coordinate name."""
        if isinstance(sources, dict):
            missing = [v for v in g.chart_vars if v not in sources]
            extra = [k for k in sources if k not in g.chart_vars]
            if missing or extra:
                raise ValueError(
                    f"transform components must match {g.chart_vars}; "
                    f"missing {missing}, unexpected {extra}")
            sources = [sources[v] for v in g.chart_vars]
        comps = tuple(expr.parse(s, g.chart_vars) for s in sources)
        return cls(geometry=g, components=comps)

    @classmethod
    def identity(cls, g):
        return cls.parse(g, list(g.chart_vars))


@dataclass(frozen=True)
class CanonicalResult:
    canonical: bool
    max_residual: float


@dataclass(frozen=True)
class CanonoidResult:
    canonoid: bool
    max_residual: float
    K_probe: np.ndarray | None
    components: dict


@dataclass(frozen=True)
class KGradient:
    """Candidate gradient of K: the (q, p) part from the bracket
    relations, plus the separately-completed t-partial where the
    geometry has time (None otherwise)."""

    d_x: np.ndarray
    d_t: float | None


# ---------------------------------------------------------------------------
# Jacobians and Lagrange brackets


def _eval_components(F, x, order=2):
    """values, Jacobian rows and (for order 2) Hessians of all
    components at x."""
    g = F.geometry
    x = g.check_state(x)
    d = g.dim
    vals = np.zeros(d)
    J = np.zeros((d, d))
    H = np.zeros((d, d, d)) if order == 2 else None
    for c, comp in enumerate(F.components):
        vals[c], J[c], hess = expr.jet(comp, x, order)
        if order == 2:
            H[c] = hess
    return vals, J, H


def _require_nonsingular(J, x):
    """The map is not a diffeomorphism where its Jacobian determinant
    vanishes."""
    if np.linalg.det(J) == 0.0:
        raise ValueError(f"transform Jacobian is singular at {np.asarray(x)}")


def jacobian(F, x):
    """Jacobian matrix (row = target coordinate, column = source
    coordinate).  Raises if the determinant vanishes at x."""
    _, J, _ = _eval_components(F, x, order=1)
    _require_nonsingular(J, x)
    return J


def jacobian_and_hessians(F, x):
    """(values, Jacobian, per-component Hessians) in one sweep; raises
    like jacobian() at a singular point."""
    vals, J, H = _eval_components(F, x, order=2)
    _require_nonsingular(J, x)
    return vals, J, H


def _lagrange_from_jacobian(g, J):
    JQ = J[list(g.q_indices), :]
    JP = J[list(g.p_indices), :]
    B = JQ.T @ JP
    return B - B.T


def lagrange_brackets(F, x):
    """Lagrange matrix [x^mu, x^nu] at x over the full coordinate list;
    antisymmetric by construction."""
    _, J, _ = _eval_components(F, x, order=1)
    return _lagrange_from_jacobian(F.geometry, J)


def lagrange_derivative(F, x, J=None, H=None):
    """dLam[nu, mu, mu'] = d[x^mu, x^mu']/dx^nu, assembled by the
    product rule from component Jacobians and Hessians."""
    g = F.geometry
    if J is None or H is None:
        _, J, H = _eval_components(F, x, order=2)
    d = g.dim
    dLam = np.zeros((d, d, d))
    for qi, pi in zip(g.q_indices, g.p_indices):
        # a[nu] = outer(dJQ/dx^nu, JP) + outer(JQ, dJP/dx^nu)
        a = (H[qi].T[:, :, None] * J[pi][None, None, :]
             + J[qi][None, :, None] * H[pi].T[:, None, :])
        dLam += a - a.transpose(0, 2, 1)
    return dLam


def bracket_jet(F, x):
    """(values, J, Hessians, Lam, dLam) at x from one second-order sweep
    of the components; raises at a singular Jacobian."""
    vals, J, Hc = jacobian_and_hessians(F, x)
    lam = _lagrange_from_jacobian(F.geometry, J)
    return vals, J, Hc, lam, lagrange_derivative(F, x, J=J, H=Hc)


# ---------------------------------------------------------------------------
# Canonical check


def _pullback_theta(g, vals, J):
    """Components of F*theta = dZ - P_i dQ^i."""
    theta = J[g.z_index, :].copy()
    for qi, pi in zip(g.q_indices, g.p_indices):
        theta -= vals[pi] * J[qi, :]
    return theta


def as_samples(samples):
    """samples as a non-empty (N, d) float array."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[0] == 0:
        raise ValueError("samples must be non-empty")
    return samples


def check_canonical(g, F, samples, tol=DEFAULT_TOL):
    """Does F preserve the structure?  Residual is the max over samples
    of the sup-norm difference between pulled-back and original
    structure tensors."""
    samples = as_samples(samples)
    omega = full_two_form(g)

    def residual(x):
        vals, J, _ = _eval_components(F, x, order=1)
        s = structure_at_point(g, x)
        if s.theta is None:
            gaps = [(_lagrange_from_jacobian(g, J) - omega).ravel()]
        else:
            gaps = [_pullback_theta(g, vals, J) - s.theta]
        if s.eta is not None:
            gaps.append(J[g.t_index, :] - s.eta)
        return np.max(np.abs(np.concatenate(gaps)))

    worst = float(fold_max(residual(x) for x in samples))
    return CanonicalResult(canonical=worst <= tol, max_residual=worst)


# ---------------------------------------------------------------------------
# Canonoid: candidate K gradient (symplectic kinds)


def _k_gradient_pieces(g, F, H, x):
    """G = (X_H contracted into the pulled-back two-form, x-part) and
    its derivative matrix dG over all chart directions.

    G_mu = sum L_{mu nu} (eps_inv grad_x H)_nu with L the x-block of the
    Lagrange matrix; this is the bracket form of the K-gradient
    relations for the (q, p) components of dK.
    """
    xi = list(g.x_indices)
    _, _, _, lam, dLam = bracket_jet(F, x)
    _, gradH, hessH = expr.value_and_derivatives(H, x)
    eps_inv = canonical_eps(g.n).T
    L = lam[np.ix_(xi, xi)]
    u = eps_inv @ gradH[xi]
    G = L @ u
    d = g.dim
    dG = np.zeros((2 * g.n, d))
    for a in range(d):
        dG[:, a] = dLam[a][np.ix_(xi, xi)] @ u + L @ (eps_inv @ hessH[np.ix_(xi, [a])].ravel())
    return G, dG, lam


def _k_gradient_only(g, F, H, x):
    """G alone, from first-order data (quadrature inner loop)."""
    xi = list(g.x_indices)
    lam = lagrange_brackets(F, x)
    grad = expr.gradient(H, x)
    return lam[np.ix_(xi, xi)] @ (canonical_eps(g.n).T @ grad[xi])


def _closedness_defect(g, dG):
    """Largest asymmetric part of the x-Jacobian of the candidate dK."""
    xi = list(g.x_indices)
    dGx = dG[:, xi]
    return np.max(np.abs(dGx - dGx.T))


def candidate_K_gradient(g, F, H, x, base_point=None):
    """The (q, p) gradient of the candidate K from the Lagrange-bracket
    relations; for cosymplectic the t-partial is completed separately by
    integrating the t-derivative of the x-gradient from the base point
    (gauge: K vanishes on the base fiber for every t)."""
    if g.kind in ("contact", "cocontact"):
        raise WrongGeometry("K is algebraic for contact kinds; use recover_K")
    x = g.check_state(x)
    G, dG, _ = _k_gradient_pieces(g, F, H, x)
    if g.kind == "symplectic":
        return KGradient(d_x=G, d_t=None)
    ti = g.t_index
    if base_point is None:
        base = np.zeros(g.dim)
    else:
        base = g.check_state(base_point)
    base = base.copy()
    base[ti] = x[ti]

    def dGt(y):
        _, dG_y, _ = _k_gradient_pieces(g, F, H, y)
        return dG_y[:, ti]

    d_t = _segment_integral(g, base, x, dGt)
    return KGradient(d_x=G, d_t=d_t)


@functools.cache
def _gl_rule():
    """Gauss-Legendre nodes and weights on [-1, 1]; cached because a
    call costs about a millisecond."""
    return np.polynomial.legendre.leggauss(GL_NODES_PER_UNIT)


def _gl_panels(a_pt, b_pt):
    """Composite Gauss-Legendre nodes/weights on the straight segment
    a->b parameterized over s in [0,1]: one 32-node panel per unit of
    segment length."""
    seg = b_pt - a_pt
    length = float(np.linalg.norm(seg))
    panels = max(1, math.ceil(length))
    nodes, weights = _gl_rule()
    ss, ws, mids = [], [], []
    for k in range(panels):
        lo, hi = k / panels, (k + 1) / panels
        ss.append((lo + hi) / 2 + (hi - lo) / 2 * nodes)
        ws.append((hi - lo) / 2 * weights)
        mids.append((lo + hi) / 2)
    return np.concatenate(ss), np.concatenate(ws), np.array(mids), seg


def _segment_integral(g, a_pt, b_pt, covector_fn):
    """Integral of a covector field along the x-part of the straight
    segment from a_pt to b_pt (chart points; only x-coordinates vary)."""
    xi = list(g.x_indices)
    ss, ws, _, seg = _gl_panels(a_pt, b_pt)
    seg_x = seg[xi]
    total = 0.0
    for s, w in zip(ss, ws):
        y = a_pt + s * seg
        total += w * float(covector_fn(y) @ seg_x)
    return total


def check_canonoid(g, F, H, samples, tol=DEFAULT_TOL):
    """Is F canonoid for the dynamics of H, on the sampled region?

    symplectic: residual is the closedness defect of the candidate dK
    (max asymmetric part of its x-Jacobian).  cosymplectic: the same
    plus the time-bracket structural component.  contact/cocontact:
    K := -theta_bar(X_H), and the residual is the defect of the
    remaining defining condition(s), with the Reeb field(s) of the
    pulled-back structure solved pointwise; cocontact adds the
    eta_bar-contraction and time-bracket components.

    K_probe holds K at the samples: recovered by line integral for the
    symplectic kinds (only when the verdict passed), algebraic for the
    contact kinds.
    """
    samples = as_samples(samples)
    if g.kind in ("symplectic", "cosymplectic"):
        return _check_canonoid_symplectic(g, F, H, samples, tol)
    return _check_canonoid_contact(g, F, H, samples, tol)


def _check_canonoid_symplectic(g, F, H, samples, tol):
    ti = g.t_index

    def residuals(x):
        _, dG, lam = _k_gradient_pieces(g, F, H, x)
        r = [_closedness_defect(g, dG)]
        if ti is not None:
            r.append(np.max(np.abs(lam[:, ti])))
        return r

    worst = fold_max(residuals(x) for x in samples)
    components = {name: float(v)
                  for name, v in zip(("closedness", "time_bracket"), worst)}
    worst = max(components.values())
    ok = worst <= tol
    K_probe = None
    if ok:
        base = samples[0]
        K_probe = np.array([recover_K(g, F, H, x, base, tol=tol) for x in samples])
    return CanonoidResult(canonoid=ok, max_residual=worst,
                          K_probe=K_probe, components=components)


def _solve_reeb(M, rhs, what):
    d = M.shape[1]
    if np.linalg.matrix_rank(M) < d:
        raise SingularReeb(f"{what}: pulled-back coframe is rank-deficient")
    R, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    defect = float(np.max(np.abs(M @ R - rhs)))
    if defect > 1e-8 * max(1.0, float(np.max(np.abs(M)))):
        raise SingularReeb(f"{what}: no consistent Reeb solution "
                           f"(defect {defect:.3e})")
    return R


def _contact_point_data(g, F, H, x):
    """J, Lagrange matrix, theta_bar, X_H, K and dK at one point."""
    vals, J, Hc = jacobian_and_hessians(F, x)
    lam = _lagrange_from_jacobian(g, J)
    theta_bar = _pullback_theta(g, vals, J)
    X, dX = hamiltonian_vf_jacobian(g, H, x)
    # dtheta[mu, a] = d theta_bar_mu / dx^a; the dP_i factor sits in the
    # derivative slot a
    dtheta = Hc[g.z_index].copy()
    for qi, pi in zip(g.q_indices, g.p_indices):
        dtheta -= np.outer(J[qi, :], J[pi, :]) + vals[pi] * Hc[qi]
    K = -float(theta_bar @ X)
    dK = -(dtheta.T @ X) - (dX.T @ theta_bar)
    return J, lam, theta_bar, X, K, dK


def _check_canonoid_contact(g, F, H, samples, tol):
    rows = []
    Ks = []
    for x in samples:
        J, lam, theta_bar, X, K, dK = _contact_point_data(g, F, H, x)
        Ks.append(K)
        if g.kind == "contact":
            M = np.vstack([theta_bar, lam.T])
            rhs = np.zeros(g.dim + 1)
            rhs[0] = 1.0
            R = _solve_reeb(M, rhs, "contact Reeb")
            resid = contract(lam, X) - dK + float(dK @ R) * theta_bar
            rows.append([np.max(np.abs(resid))])
        else:
            eta_bar = J[g.t_index, :]
            M = np.vstack([theta_bar, eta_bar, lam.T])
            rhs_z = np.zeros(g.dim + 2)
            rhs_z[0] = 1.0
            rhs_t = np.zeros(g.dim + 2)
            rhs_t[1] = 1.0
            Rz = _solve_reeb(M, rhs_z, "cocontact z-Reeb")
            Rt = _solve_reeb(M, rhs_t, "cocontact t-Reeb")
            resid = (contract(lam, X) - dK
                     + float(dK @ Rz) * theta_bar + float(dK @ Rt) * eta_bar)
            rows.append([np.max(np.abs(resid)), abs(eta_bar @ X),
                         np.max(np.abs(lam[:, g.t_index]))])
    names = ("contact_condition", "eta_contraction", "time_bracket")
    components = {name: float(v) for name, v in zip(names, fold_max(rows))}
    worst = max(components.values())
    return CanonoidResult(canonoid=worst <= tol, max_residual=worst,
                          K_probe=np.array(Ks), components=components)


def recover_K(g, F, H, x, base_point, tol=DEFAULT_TOL):
    """K at x.

    contact/cocontact: K = -theta_bar(X_H), exactly (base_point is not
    used; K is determined algebraically, no gauge freedom).

    symplectic: line integral of the candidate K-gradient along the
    straight segment from base_point to x, normalized so K(base) = 0.
    cosymplectic: the same within the fixed-t slice of x (the gauge
    makes K vanish on the base fiber for every t).  Raises NonCanonoid
    when the closedness defect at a panel midpoint exceeds tol.
    """
    x = g.check_state(x)
    if g.kind in ("contact", "cocontact"):
        _, _, _, _, K, _ = _contact_point_data(g, F, H, x)
        return K
    base = g.check_state(base_point).copy()
    if g.kind == "cosymplectic":
        base[g.t_index] = x[g.t_index]
    _, _, mids, seg = _gl_panels(base, x)
    for s in mids:
        y = base + s * seg
        _, dG, _ = _k_gradient_pieces(g, F, H, y)
        defect = float(_closedness_defect(g, dG))
        if defect > tol:
            raise NonCanonoid(
                f"candidate K-gradient is not closed near {y} "
                f"(defect {defect:.3e} > {tol:.1e})")
    return _segment_integral(g, base, x,
                             lambda y: _k_gradient_only(g, F, H, y))
