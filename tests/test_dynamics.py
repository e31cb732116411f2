"""Integration and drift measurement against closed-form solutions.

Oracles:

* harmonic oscillator H = (q^2+p^2)/2: (q, p)(t) = (cos t, -sin t)
  from (1, 0).
* damped contact oscillator H = (q^2+p^2)/2 + 0.2 z: q satisfies
  q'' + 0.2 q' + q = 0, so with (q, p)(0) = (1, 0) and
  w = sqrt(1 - 0.01): q = e^{-0.1 t}(cos wt + (0.1/w) sin wt),
  p = -e^{-0.1 t} sin(wt)/w.
* cosymplectic H = p^2/2 + t q: p = p0 - t^2/2, q = q0 + p0 t - t^3/6;
  the system is affine with nilpotent matrix, so RK4 reproduces it to
  rounding.
* Reeb-type H = 1 on contact charts: z(t) = z0 - t with every other
  coordinate frozen.
"""

import numpy as np
import pytest

from canonoid import stensor, transform
from canonoid.dynamics import (
    StepFailure, drift_report, integrate, lie_derivative_S,
)
from canonoid.expr import DomainError
from canonoid.geometry import GeometryKind
from canonoid.transform import TransformMap

SYMP1 = GeometryKind("symplectic", 1)
COSY1 = GeometryKind("cosymplectic", 1)
CONT1 = GeometryKind("contact", 1)
COCO1 = GeometryKind("cocontact", 1)

HARMONIC = SYMP1.parse("(q1^2 + p1^2)/2")


# ---------------------------------------------------------------------------
# integrate


def test_harmonic_oscillator_returns():
    traj = integrate(SYMP1, HARMONIC, [1.0, 0.0], (0.0, 2 * np.pi), 1000)
    assert np.max(np.abs(traj.states[-1] - np.array([1.0, 0.0]))) < 1e-8


def test_harmonic_energy_drift_small():
    traj = integrate(SYMP1, HARMONIC, [1.0, 0.0], (0.0, 10.0), 10000)
    rep = drift_report(traj, [("H", lambda X: (X[:, 0] ** 2 + X[:, 1] ** 2) / 2)])
    assert rep.observables["H"].max_rel_drift < 1e-6


def test_rk4_grid_uniform_and_increasing():
    traj = integrate(SYMP1, HARMONIC, [1.0, 0.0], (0.0, 1.0), 64)
    d = np.diff(traj.times)
    assert np.all(d > 0)
    assert np.max(np.abs(d - 1.0 / 64)) < 1e-15
    assert traj.states.shape == (65, 2)


def test_damped_contact_oscillator_against_linear_ode():
    g = CONT1
    H = g.parse("(q1^2 + p1^2)/2 + 0.2*z")
    traj = integrate(g, H, [1.0, 0.0, 0.0], (0.0, 3.0), 3000)
    w = np.sqrt(1.0 - 0.01)
    t = traj.times
    q_ref = np.exp(-0.1 * t) * (np.cos(w * t) + (0.1 / w) * np.sin(w * t))
    p_ref = -np.exp(-0.1 * t) * np.sin(w * t) / w
    assert np.max(np.abs(traj.states[:, 0] - q_ref)) < 1e-6
    assert np.max(np.abs(traj.states[:, 1] - p_ref)) < 1e-6
    # energy-like quantity decays under damping
    e = (traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2) / 2
    assert e[-1] < 0.6 * e[0]


def test_cosymplectic_quadrature_exact():
    g = COSY1
    H = g.parse("p1^2/2 + t*q1")
    q0, p0 = 0.5, 2.0
    traj = integrate(g, H, [q0, p0, 0.0], (0.0, 2.0), 200)
    t = traj.times
    assert np.max(np.abs(traj.states[:, 1] - (p0 - t ** 2 / 2))) < 1e-12
    assert np.max(np.abs(traj.states[:, 0]
                         - (q0 + p0 * t - t ** 3 / 6))) < 1e-12


def test_reeb_type_flow_exact():
    g = CONT1
    H = g.parse("1")
    traj = integrate(g, H, [0.25, 0.5, 0.0], (0.0, 1.0), 16)
    assert np.array_equal(traj.states[:, 2], -traj.times)
    assert np.all(traj.states[:, 0] == 0.25)
    assert np.all(traj.states[:, 1] == 0.5)


def test_cocontact_reeb_type_flow():
    g = COCO1
    H = g.parse("1")
    traj = integrate(g, H, [0.0, 0.25, 0.5, 1.0], (0.0, 1.0), 16)
    zi = g.z_index
    assert np.array_equal(traj.states[:, zi], 1.0 - traj.times)


def test_time_coordinate_pinned_to_times():
    g = COSY1
    H = g.parse("p1^2/2 + sin(t)*q1")
    traj = integrate(g, H, [0.3, 0.7, 0.5], (0.5, 2.5), 100)
    assert np.array_equal(traj.states[:, g.t_index], traj.times)
    g2 = COCO1
    H2 = g2.parse("(q1^2 + p1^2)/2 + 0.1*z + t")
    traj2 = integrate(g2, H2, [1.0, 0.4, 0.2, 0.0], (1.0, 2.0), 50,
                      method="rk45-adaptive")
    assert np.array_equal(traj2.states[:, g2.t_index], traj2.times)


def test_initial_time_mismatch_rejected():
    g = COSY1
    H = g.parse("p1^2/2")
    with pytest.raises(ValueError, match="starts at"):
        integrate(g, H, [0.3, 0.7, 0.0], (1.0, 2.0), 10)


def test_argument_validation():
    with pytest.raises(ValueError, match="method"):
        integrate(SYMP1, HARMONIC, [1.0, 0.0], (0.0, 1.0), 10, method="euler")
    with pytest.raises(ValueError, match="steps"):
        integrate(SYMP1, HARMONIC, [1.0, 0.0], (0.0, 1.0), 0)
    with pytest.raises(ValueError, match="t_span"):
        integrate(SYMP1, HARMONIC, [1.0, 0.0], (1.0, 1.0), 10)


def test_adaptive_matches_closed_form():
    traj = integrate(SYMP1, HARMONIC, [1.0, 0.0], (0.0, 10.0), 100,
                     method="rk45-adaptive")
    ref = np.array([np.cos(10.0), -np.sin(10.0)])
    assert np.max(np.abs(traj.states[-1] - ref)) < 1e-6
    assert np.all(np.diff(traj.times) > 0)
    assert abs(traj.times[-1] - 10.0) < 1e-12


def test_adaptive_step_underflow():
    with pytest.raises(StepFailure, match="underflow"):
        integrate(SYMP1, HARMONIC, [1.0, 0.0], (0.0, 1.0), 10,
                  method="rk45-adaptive", rtol=0.0, atol=0.0)


def test_finite_time_blowup_fails_loudly():
    H = SYMP1.parse("q1^2*p1")
    with pytest.raises((StepFailure, DomainError, OverflowError)):
        integrate(SYMP1, H, [1.0, 1.0], (0.0, 2.0), 100,
                  method="rk45-adaptive")


# ---------------------------------------------------------------------------
# drift_report


def test_free_particle_traces_exactly_conserved():
    g = SYMP1
    F = TransformMap.parse(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    traj = integrate(g, H, [0.0, 1.5], (0.0, 5.0), 500)

    def trace_k(k):
        return lambda X: stensor.trace_powers(g, F, X, 4)[:, k - 1]

    rep = drift_report(traj, [(f"trS^{k}", trace_k(k)) for k in (1, 2, 3, 4)])
    for k in (1, 2, 3, 4):
        d = rep.observables[f"trS^{k}"]
        assert d.max_abs_drift < 1e-10
        assert d.max_rel_drift < 1e-10
    assert abs(rep.observables["trS^1"].initial - 2 * 1.5 ** 2) < 1e-14


def test_negative_control_drifts():
    # non-canonoid map on the harmonic orbit: tr S = 2q is not conserved
    g = SYMP1
    F = TransformMap.parse(g, ["q1", "q1*p1"])
    traj = integrate(g, HARMONIC, [1.0, 0.0], (0.0, 3.0), 300)
    rep = drift_report(
        traj, [("trS", lambda X: stensor.trace_powers(g, F, X, 1)[:, 0])])
    assert rep.observables["trS"].max_abs_drift > 1e-2


def test_drift_report_fields():
    traj = integrate(SYMP1, HARMONIC, [1.0, 0.0], (0.0, 1.0), 10)
    rep = drift_report(traj, [("q", lambda X: X[:, 0])])
    d = rep.observables["q"]
    assert d.initial == 1.0
    assert d.max_abs_drift >= 0.0
    assert d.slope < 0.0  # q decreases over [0, 1]
    # relative drift of a tiny-initial observable divides by 1, not |f0|
    rep2 = drift_report(traj, [("p", lambda X: X[:, 1])])
    d2 = rep2.observables["p"]
    assert d2.max_rel_drift == d2.max_abs_drift


# ---------------------------------------------------------------------------
# Lie derivative of S along the dynamics


def test_lie_derivative_vanishes_for_canonoid_pair():
    g = SYMP1
    F = TransformMap.parse(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    for x in ([0.4, 1.2], [1.0, 0.7], [-0.5, 1.6]):
        lie = lie_derivative_S(g, F, H, x)
        assert np.max(np.abs(lie)) < 1e-9


def test_lie_derivative_negative_control():
    g = SYMP1
    F = TransformMap.parse(g, ["q1", "q1*p1"])
    H = g.parse("p1^2/2")
    lie = lie_derivative_S(g, F, H, [0.5, 1.2])
    # S = q I and dS/dq = I, so L_V S = p I exactly
    assert np.allclose(lie, 1.2 * np.eye(2), atol=1e-12)


def test_lie_derivative_cosymplectic_time_column():
    g = COSY1
    F = TransformMap.parse(g, ["q1", "1.5*p1", "t"])
    H = g.parse("p1^2/2 + t*q1")
    x = np.array([0.8, 1.3, 2.0])
    lie = lie_derivative_S(g, F, H, x)
    xi = list(g.x_indices)
    ti = g.t_index
    # x-block vanishes; only the dt-column survives
    assert np.max(np.abs(lie[np.ix_(xi, xi)])) < 1e-9
    assert np.max(np.abs(lie[ti, :])) < 1e-12
    # and it equals the time derivative of the K-gradient rotated by
    # the inverse structure matrix (assembled through a separate path)
    _, dG, _ = transform._k_gradient_pieces(g, F, H, x)
    eps_inv = np.array([[0.0, -1.0], [1.0, 0.0]])
    expected = -eps_inv @ dG[:, ti]
    assert np.max(np.abs(lie[xi, ti] - expected)) < 1e-8
    assert np.max(np.abs(expected - np.array([0.0, -1.5]))) < 1e-12


def test_lie_derivative_contact_scaling():
    g = CONT1
    F = TransformMap.parse(g, ["q1", "2*p1", "2*z"])
    H = g.parse("(q1^2 + p1^2)/2")
    lie = lie_derivative_S(g, F, H, [0.6, 0.8, 0.1])
    assert np.max(np.abs(lie)) < 1e-9


def test_lie_derivative_cocontact_scaling():
    g = COCO1
    F = TransformMap.parse(g, ["t", "q1", "3*p1", "3*z"])
    H = g.parse("(q1^2 + p1^2)/2")
    lie = lie_derivative_S(g, F, H, [0.5, 0.6, 0.8, 0.1])
    assert np.max(np.abs(lie)) < 1e-9
