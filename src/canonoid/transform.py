"""Candidate transformations and their certification.

A TransformMap holds one expression per target coordinate in the fixed
chart ordering.  A Jets bundle holds the map's values, Jacobian J and
Hessians at a stack of states from one sweep, which every check of the
stack reads, with the pulled-back two-form (the Lagrange brackets) and
its derivative.  The Darboux formulas all live in geometry: the
pullbacks of omega and theta, the canonical structure, and X_H with its
Jacobian.  On top of those this module decides canonical status
(pullback reproduces the structure), canonoid status (the original
dynamics stays Hamiltonian for some new K with respect to the
pulled-back structure), and recovers K numerically.
On the contact kinds K = -theta_bar(X_H) is algebraic, and the residual
reads the Reeb field(s) of the pulled-back structure, from one SVD per
sample over the stack.

Canonoid detection is residual-based on sample points: closedness of a
candidate dK can be certified on a sampled region only.  Charts are
assumed star-shaped around the integration base point so that closed
implies exact.

A TransformMap carries its geometry, so the checks read the kind from
F.geometry and take no GeometryKind: check_canonical(F, samples),
check_canonoid(F, H, samples) and recover_K(F, H, x, base_point).  A
function takes the geometry only where no other argument carries it:
F does, an Expression or an array does not.  H must be written on the
chart of F.geometry; check_canonoid and recover_K raise ValueError,
naming both charts, when it is not.

For the time-dependent geometries the time component T must be the
literal expression "t"; construction rejects anything else.  Their
canonoid residual includes the time-bracket structural component
max_mu |[x^mu, t]|: when it vanishes the pulled-back Reeb field reduces
to d/dt, which is what makes trace conservation along the evolution
field sound.  Both components are reported separately.
"""

import functools

import numpy as np

from . import expr
from .geometry import (
    contract, hamiltonian_vf, hamiltonian_vf_jacobian, pullback_theta,
    pullback_theta_derivative, pullback_two_form,
    pullback_two_form_derivative, structure_at_point,
)

__all__ = [
    "TransformMap",
    "CanonicalResult",
    "CanonoidResult",
    "SingularReeb",
    "SingularTransform",
    "NonCanonoid",
    "NonFiniteResidual",
    "fold_max",
    "jacobian",
    "jacobian_and_hessians",
    "lagrange_brackets",
    "lagrange_derivative",
    "Jets",
    "as_samples",
    "check_canonical",
    "check_canonoid",
    "recover_K",
    "DEFAULT_TOL",
    "CONDITION_LIMIT",
]

DEFAULT_TOL = 1e-8
# largest condition number of a matrix this package inverts or treats
# as invertible: the transform's Jacobian, the Lagrange x-block
CONDITION_LIMIT = 1e12
GL_NODES_PER_UNIT = 32
QUADRATURE_BLOCK = 256


class SingularReeb(ValueError):
    """The pulled-back coframe does not determine a Reeb field at a
    sample point (the pullback fails to be a contact structure there)."""


class SingularTransform(ValueError):
    """The transform's Jacobian is singular, or too ill-conditioned to
    tell from singular, at a sample: the map is no diffeomorphism
    there."""


class NonCanonoid(ValueError):
    """K reconstruction was attempted where the candidate gradient is
    not closed; the line integral would be path-dependent."""


class NonFiniteResidual(ArithmeticError):
    """A residual came out NaN or infinite (overflow in the map or the
    Hamiltonian), so no verdict can be drawn from it."""


def fold_max(residuals):
    """Largest of the stacked per-sample residuals (one row per sample),
    elementwise when each row is a vector of components.  A NaN or
    infinite entry raises NonFiniteResidual naming its first row: the
    builtin max(0.0, nan) returns 0.0 and would turn it into a pass."""
    r = np.asarray(residuals, dtype=float)
    finite = np.isfinite(r.reshape(len(r), -1)).all(axis=1)
    if not finite.all():
        raise NonFiniteResidual(
            f"non-finite residual at sample {int(np.argmin(finite))}")
    return r.max(axis=0, initial=0.0)


class TransformMap(expr.Record):
    """A diffeomorphism candidate, one component expression per target
    coordinate in chart order."""

    __slots__ = ("geometry", "components")

    def __init__(self, geometry, components):
        super().__init__(geometry, components)
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


class CanonicalResult(expr.Record):
    __slots__ = ("canonical", "max_residual")


class CanonoidResult(expr.Record):
    __slots__ = ("canonoid", "max_residual", "K_probe", "components")


# ---------------------------------------------------------------------------
# Jacobians and Lagrange brackets.  Every function here takes one state
# (d,) or a stack (N, d) and returns the matching single or stacked
# result.


def _eval_components(F, x, order=2):
    """values, Jacobian rows and (for order 2) Hessians of all
    components at x, one sweep per component over every point.  A
    non-finite value, Jacobian entry or Hessian entry raises
    NonFiniteResidual naming the first such sample and its component."""
    g = F.geometry
    x = g.check_states(x)
    X = x.reshape(-1, g.dim)
    n, d = X.shape
    vals = np.empty((n, d), X.dtype)
    J = np.empty((n, d, d), X.dtype)
    H = np.empty((n, d, d, d), X.dtype) if order == 2 else None
    for c, comp in enumerate(F.components):
        vals[:, c], J[:, c], hess = expr.jet(comp, X, order)
        if H is not None:
            H[:, c] = hess
    finite = np.isfinite(np.asarray(vals, dtype=float))
    finite &= np.isfinite(np.asarray(J, dtype=float)).all(axis=2)
    if H is not None:
        finite &= np.isfinite(np.asarray(H, dtype=float)).all(axis=(2, 3))
    if not finite.all():
        i, c = np.argwhere(~finite)[0]
        raise NonFiniteResidual(
            f"non-finite residual at sample {i} in transform component "
            f"{g.chart_vars[c]}")
    if x.ndim == 1:
        return vals[0], J[0], None if H is None else H[0]
    return vals, J, H


@expr.quiet
def _require_nonsingular(J, x):
    """Raise SingularTransform at the first sample where cond(J) is
    beyond CONDITION_LIMIT or not finite: det(J) == 0 alone would
    certify a map with cond(J) = 1e30.  The 1-norm cond, from one LU
    inverse per sample, is within a factor d of the 2-norm one and
    costs half its SVD.

    A screen certifies most samples from one det of the stack.  For a
    d x d matrix cond_2 = s_1/s_d <= s_1^d/|det| (each singular value
    s_i is at most s_1), s_1 <= |J|_F and cond_1 <= d cond_2, so
    B = d |J|_F^d/|det J|, computed as d/|det(J/|J|_F)|, bounds cond_1.
    A sample with B <= CONDITION_LIMIT/2 is certified.  The computed
    det is the exact det of J perturbed by LU's backward error, a
    relative d*eps or so of J; at cond_1 <= 5e11 that moves the exact
    cond_1 and the value np.linalg.cond computes from its own LU inverse
    by a relative d*eps*cond_1 < 1e-3 each, far inside the factor 2.
    Each J is first scaled by the power of two that brings max |J| into
    [0.5, 1), exactly short of entries 1e308 below the largest: no cond
    changes, and neither |J|_F nor the inverse np.linalg.cond takes
    under- or overflows for J's scale alone.  Samples with a NaN or inf
    bound take the exact cond, which raises where and as it would
    alone."""
    d = J.shape[-1]
    J = np.asarray(J, dtype=float).reshape(-1, d, d)
    _, exp = np.frexp(np.max(np.abs(J), axis=(1, 2)))
    J = np.ldexp(J, -exp[:, None, None])
    norm = np.sqrt(np.einsum("nij,nij->n", J, J))
    bound = d / np.abs(np.linalg.det(J / norm[:, None, None]))
    lim = CONDITION_LIMIT / 2
    unsure = np.flatnonzero(~(bound <= lim))
    if not unsure.size:
        return
    cond = np.linalg.cond(J[unsure], 1)
    bad = ~(cond <= CONDITION_LIMIT)
    if bad.any():
        k = int(np.argmax(bad))
        i = int(unsure[k])
        point = np.asarray(x).reshape(-1, d)[i]
        raise SingularTransform(
            f"transform Jacobian is singular at sample {i} {point}: "
            f"cond(J) = {cond[k]:.3e} > {CONDITION_LIMIT:.0e}")


def jacobian(F, x):
    """Jacobian matrix (row = target coordinate, column = source
    coordinate).  Raises SingularTransform where it is singular or
    ill-conditioned."""
    _, J, _ = _eval_components(F, x, order=1)
    _require_nonsingular(J, x)
    return J


def jacobian_and_hessians(F, x):
    """(values, Jacobian, per-component Hessians) in one sweep; raises
    like jacobian() at a singular point."""
    vals, J, H = _eval_components(F, x, order=2)
    _require_nonsingular(J, x)
    return vals, J, H


def lagrange_brackets(F, x):
    """Lagrange matrix [x^mu, x^nu] at x over the full coordinate list;
    antisymmetric by construction.  Raises like jacobian() at a
    singular point."""
    return pullback_two_form(F.geometry, jacobian(F, x))


def lagrange_derivative(F, x):
    """dLam[nu, mu, mu'] = d[x^mu, x^mu']/dx^nu, assembled by the
    product rule from component Jacobians and (symmetric) Hessians.
    Raises like jacobian() at a singular point."""
    return Jets(F, x).dLam


class Jets:
    """F's second-order jets at one state (d,) or a stack (N, d), each
    computed on its first read: `sweep` (values, J, component Hessians)
    from one jacobian_and_hessians call, the Lagrange matrix `lam` and
    its derivative `dLam`."""

    def __init__(self, F, x):
        self.F = F
        self.x = F.geometry.check_states(x)

    @classmethod
    def of(cls, F, x, stack=False):
        """x itself when it is a bundle of F, else F's bundle at the
        states x.  When stack is set the bundle is of a non-empty (N, d)
        stack: one state, as an array or a bundle, is the one-row
        stack."""
        if not isinstance(x, cls):
            return cls(F, as_samples(x) if stack else x)
        if x.F is not F:
            raise ValueError("the jets were taken of another transform")
        if stack and x.x.ndim == 1:
            return cls(F, x.x[None])
        return x

    def __len__(self):
        return len(self.x)

    @functools.cached_property
    def sweep(self):
        return jacobian_and_hessians(self.F, self.x)

    @functools.cached_property
    def lam(self):
        return pullback_two_form(self.F.geometry, self.sweep[1])

    @functools.cached_property
    def dLam(self):
        return pullback_two_form_derivative(self.F.geometry,
                                            *self.sweep[1:])


# ---------------------------------------------------------------------------
# Canonical check


def as_samples(samples):
    """samples as a non-empty (N, d) array, read by expr.as_points."""
    samples = np.atleast_2d(expr.as_points(samples))
    if samples.shape[0] == 0:
        raise ValueError("samples must be non-empty")
    return samples


@expr.quiet
def check_canonical(F, samples, tol=DEFAULT_TOL):
    """Does F preserve the structure of F.geometry?  Residual is the max
    over samples of the sup-norm difference between pulled-back and
    original structure tensors."""
    g = F.geometry
    samples = as_samples(samples)
    vals, J, _ = _eval_components(F, samples, order=1)
    s = structure_at_point(g, samples)
    if s.theta is None:
        gaps = [(pullback_two_form(g, J) - s.two_form)
                .reshape(len(samples), -1)]
    else:
        gaps = [pullback_theta(g, vals, J) - s.theta]
    if s.eta is not None:
        gaps.append(J[:, g.t_index, :] - s.eta)
    residuals = np.max(np.abs(np.concatenate(gaps, axis=1)), axis=1)
    worst = float(fold_max(residuals))
    return CanonicalResult(canonical=worst <= tol, max_residual=worst)


# ---------------------------------------------------------------------------
# Canonoid: candidate K gradient (symplectic kinds)


def _x_block(g, M):
    """The (q, p) block of the trailing two axes of M."""
    return M[..., g.x_slice, g.x_slice]


def _k_gradient_pieces(F, H, x):
    """(dG, lam): the derivative matrix dG over all chart directions of
    G = (X_H contracted into the pulled-back two-form, x-part), and the
    Lagrange matrix, at the states or the Jets x.

    G_mu = -sum L_{mu nu} (X_H)_nu with L the x-block of the Lagrange
    matrix; -X_H on the x-block is eps_inv grad_x H, so this is the
    bracket form of the K-gradient relations for the (q, p) components
    of dK.  _k_gradient_only gives G itself.
    """
    g = F.geometry
    jets = Jets.of(F, x)
    lam, dLam = jets.lam, jets.dLam
    X, dX = hamiltonian_vf_jacobian(g, H, jets.x)
    L = _x_block(g, lam)
    u = -X[..., g.x_slice]
    # dG[:, a] = dLam[a]_xx @ u + L @ du/dx^a
    along = (_x_block(g, dLam) @ u[..., None, :, None])[..., 0]
    dG = np.swapaxes(along, -1, -2) + L @ -dX[..., g.x_slice, :]
    return dG, lam


def _k_gradient_only(F, H, x):
    """G alone, from first-order data (quadrature inner loop)."""
    g = F.geometry
    L = _x_block(g, lagrange_brackets(F, x))
    u = -hamiltonian_vf(g, H, x)[..., g.x_slice]
    return (L @ u[..., None])[..., 0]


def _closedness_defect(g, dG):
    """Largest asymmetric part of the x-Jacobian of the candidate dK."""
    dGx = dG[..., g.x_slice]
    return np.max(np.abs(dGx - np.swapaxes(dGx, -1, -2)), axis=(-2, -1))


# (node, weight) of the negative half of the GL_NODES_PER_UNIT-node
# Gauss-Legendre rule on [-1, 1], as np.polynomial.legendre.leggauss
# gives them; it symmetrises its result, so the positive half mirrors
# these bit for bit, and repr of a float reads back exactly
_GL_HALF = (
    (-0.9972638618494816, 0.007018610009470506),
    (-0.9856115115452684, 0.016274394730905743),
    (-0.9647622555875064, 0.025392065309262024),
    (-0.9349060759377397, 0.034273862913021765),
    (-0.8963211557660521, 0.042835898022226836),
    (-0.84936761373257, 0.05099805926237609),
    (-0.7944837959679424, 0.058684093478535565),
    (-0.7321821187402897, 0.06582222277636168),
    (-0.6630442669302152, 0.07234579410884834),
    (-0.5877157572407623, 0.07819389578707023),
    (-0.5068999089322294, 0.08331192422694671),
    (-0.42135127613063533, 0.08765209300440378),
    (-0.33186860228212767, 0.09117387869576378),
    (-0.23928736225213706, 0.09384439908080451),
    (-0.1444719615827965, 0.09563872007927471),
    (-0.048307665687738324, 0.09654008851472766),
)


@functools.cache
def _gl_rule():
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], equal bit
    for bit to np.polynomial.legendre.leggauss(GL_NODES_PER_UNIT), from
    a literal table, so that no process loads numpy.polynomial for it."""
    x, w = np.array(_GL_HALF).T
    return np.concatenate([x, -x[::-1]]), np.concatenate([w, w[::-1]])


@expr.quiet
def check_canonoid(F, H, samples, tol=DEFAULT_TOL):
    """Is F canonoid for the dynamics of H, on the sampled region of
    F.geometry?

    symplectic: residual is the closedness defect of the candidate dK
    (max asymmetric part of its x-Jacobian).  cosymplectic: the same
    plus the time-bracket structural component.  contact/cocontact:
    K := -theta_bar(X_H), and the residual is the defect of the
    remaining defining condition(s), with the Reeb field(s) of the
    pulled-back structure from one SVD per sample over the stack;
    cocontact adds the eta_bar-contraction and time-bracket components.

    K_probe holds K at the samples: recovered by line integral for the
    symplectic kinds (only when the verdict passed), algebraic for the
    contact kinds.  samples may be F's Jets at them.  H must be written
    on the chart of F.geometry.
    """
    F.geometry.check_chart(H)
    jets = Jets.of(F, samples, stack=True)
    if F.geometry.kind in ("symplectic", "cosymplectic"):
        return _check_canonoid_symplectic(F, H, jets, tol)
    return _check_canonoid_contact(F, H, jets, tol)


def _check_canonoid_symplectic(F, H, jets, tol):
    g = F.geometry
    ti = g.t_index
    dG, lam = _k_gradient_pieces(F, H, jets)
    cols = [_closedness_defect(g, dG)]
    if ti is not None:
        cols.append(np.max(np.abs(lam[:, :, ti]), axis=1))
    worst = fold_max(np.stack(cols, axis=1))
    components = {name: float(v)
                  for name, v in zip(("closedness", "time_bracket"), worst)}
    worst = max(components.values())
    ok = worst <= tol
    K_probe = recover_K(F, H, jets.x, jets.x[0], tol=tol) if ok else None
    return CanonoidResult(canonoid=ok, max_residual=worst,
                          K_probe=K_probe, components=components)


def _reeb_fields(M, k, what):
    """The k Reeb fields, as the columns of R (N, d, k), of the stacked
    coframe matrices M (N, k + d, d): column i solves M R_i = e_i, so
    it pairs to delta_ij with the k one-forms in M's first rows and
    lies in the kernel of the two-form in the rows after them.  One SVD
    per sample over the stack gives the rank test (with matrix_rank's
    tolerance), the least-squares solutions and their defect.  Raises
    NonFiniteResidual, before the SVD, at the first sample where M is
    not finite, and SingularReeb where it is rank-deficient or M R = e
    has no solution."""
    fold_max(M)
    d = M.shape[2]
    rhs = np.eye(k + d)[:, :k]
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    deficient = s[:, -1] <= s[:, 0] * (k + d) * np.finfo(float).eps
    if deficient.any():
        i = int(np.argmax(deficient))
        raise SingularReeb(
            f"{what}: pulled-back coframe is rank-deficient at sample {i}")
    R = np.swapaxes(Vt, 1, 2) @ ((np.swapaxes(U, 1, 2) @ rhs) / s[..., None])
    defect = np.max(np.abs(M @ R - rhs), axis=(1, 2))
    bound = 1e-8 * np.maximum(1.0, np.max(np.abs(M), axis=(1, 2)))
    inconsistent = ~(defect <= bound)
    if inconsistent.any():
        i = int(np.argmax(inconsistent))
        raise SingularReeb(f"{what}: no consistent Reeb solution at sample "
                           f"{i} (defect {defect[i]:.3e})")
    return R


def _contact_point_data(F, H, x):
    """J, Lagrange matrix, theta_bar, X_H, K and dK at the states or the
    Jets x."""
    g = F.geometry
    jets = Jets.of(F, x)
    try:
        vals, J, Hc = jets.sweep
    except SingularTransform as e:
        # no pulled-back coframe determines a Reeb field there
        raise SingularReeb(str(e)) from e
    lam = jets.lam
    theta_bar = pullback_theta(g, vals, J)
    X, dX = hamiltonian_vf_jacobian(g, H, jets.x)
    dtheta = pullback_theta_derivative(g, vals, J, Hc)
    K = -np.einsum("...i,...i->...", theta_bar, X)
    dK = -contract(dtheta, X) - contract(dX, theta_bar)
    return J, lam, theta_bar, X, K, dK


def _check_canonoid_contact(F, H, jets, tol):
    g = F.geometry
    J, lam, theta_bar, X, K, dK = _contact_point_data(F, H, jets)
    resid = contract(lam, X) - dK
    # one Reeb field per pulled-back one-form: R_i pairs to delta_ij with
    # the forms and lies in the kernel of the pulled-back two-form
    forms = [theta_bar]
    if g.kind == "cocontact":
        forms.append(J[:, g.t_index, :])
    M = np.concatenate([f[:, None, :] for f in forms]
                       + [np.swapaxes(lam, 1, 2)], axis=1)
    R = _reeb_fields(M, len(forms), f"{g.kind} Reeb")
    resid += sum(np.einsum("ni,ni->n", dK, R[:, :, i])[:, None] * form
                 for i, form in enumerate(forms))
    rows = [np.max(np.abs(resid), axis=1)]
    if g.kind == "cocontact":
        rows += [np.abs(np.einsum("ni,ni->n", forms[1], X)),
                 np.max(np.abs(lam[:, :, g.t_index]), axis=1)]
    names = ("contact_condition", "eta_contraction", "time_bracket")
    components = {name: float(v) for name, v in
                  zip(names, fold_max(np.stack(rows, axis=1)))}
    worst = max(components.values())
    return CanonoidResult(canonoid=worst <= tol, max_residual=worst,
                          K_probe=K, components=components)


@expr.quiet
def recover_K(F, H, x, base_point, tol=DEFAULT_TOL):
    """K at x, on F.geometry: a float for one state, an (N,) array for
    a stack.  H must be written on the chart of F.geometry.

    contact/cocontact: K = -theta_bar(X_H), exactly (base_point is not
    used; K is determined algebraically, no gauge freedom).

    symplectic: line integral of the candidate K-gradient along the
    straight segment from base_point to x, normalized so K(base) = 0,
    by the composite Gauss-Legendre rule with one 32-node panel per
    unit of segment length.  cosymplectic: the same within the fixed-t
    slice of x (the gauge makes K vanish on the base fiber for every
    t).  Raises NonCanonoid when the closedness defect at a panel
    midpoint exceeds tol (or is not finite).  The panel midpoints of
    all states are checked in one sweep, the quadrature nodes of all
    states integrated in another.
    """
    g = F.geometry
    g.check_chart(H)
    x = g.check_states(x)
    X = x.reshape(-1, g.dim)
    if g.kind in ("contact", "cocontact"):
        K = _contact_point_data(F, H, X)[4]
    else:
        base = np.repeat(g.check_state(base_point)[None], len(X), axis=0)
        if g.kind == "cosymplectic":
            base[:, g.t_index] = X[:, g.t_index]
        # the composite Gauss-Legendre rule over s in [0, 1] on each
        # segment base + s (X - base): one panel per unit of its length
        seg = X - base
        counts = np.ceil(np.linalg.norm(seg, axis=1)).clip(1).astype(int)
        own = np.repeat(np.arange(len(X)), counts)
        k = np.arange(own.size) - np.repeat(np.cumsum(counts) - counts, counts)
        lo, hi = k / counts[own], (k + 1) / counts[own]
        mids, half = (lo + hi) / 2, (hi - lo) / 2
        centres = base[own] + mids[:, None] * seg[own]
        dG, _ = _k_gradient_pieces(F, H, centres)
        defect = _closedness_defect(g, dG)
        open_ = ~(defect <= tol)
        if open_.any():
            i = int(np.argmax(open_))
            raise NonCanonoid(
                f"candidate K-gradient is not closed near {centres[i]} "
                f"(defect {defect[i]:.3e} > {tol:.1e})")
        nodes, weights = _gl_rule()
        s = (mids[:, None] + half[:, None] * nodes).reshape(-1, 1)
        own = np.repeat(own, nodes.size)
        step = seg[own]
        Y = base[own] + s * step
        # fixed-size blocks bound the (nodes, d, d) temporaries of the sweep
        C = np.concatenate([_k_gradient_only(F, H, Y[i:i + QUADRATURE_BLOCK])
                            for i in range(0, len(Y), QUADRATURE_BLOCK)])
        # per-segment sums in node order
        w = (half[:, None] * weights).ravel()
        K = np.bincount(own, w * np.einsum("kj,kj->k", C, step[:, g.x_slice]),
                        len(X))
    return float(K[0]) if x.ndim == 1 else K
