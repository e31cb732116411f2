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

import json
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from canonoid import cli, dynamics, geometry, stensor, transform
from canonoid.dynamics import (
    StepFailure, drift_report, integrate, lie_derivative_S,
)
from canonoid.expr import DomainError
from canonoid.geometry import GeometryKind, dynamical_vf, point_field
from canonoid.transform import TransformMap

from test_cli import base_config, write_config
from test_geometry import count_ops, kind_hamiltonian_states

SYMP1 = GeometryKind("symplectic", 1)
SYMP2 = GeometryKind("symplectic", 2)
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
    assert rep["H"].max_rel_drift < 1e-6


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
    with pytest.raises(ValueError, match="wider than a float"):
        integrate(SYMP1, HARMONIC, [1.0, 0.0], (-1e308, 1e308), 10)


# An oscillator parsed on the cocontact n = 1 chart (t, q1, p1, z) and
# read on the symplectic n = 2 chart (q1, q2, p1, p2), and the other way
# round for the Jacobi bracket: both charts have four coordinates, so
# reading H's partials by position would go unnoticed.  SHEAR2 is not
# canonoid for H misread as q2^2/2 + p1^2/2, so check_canonoid does not
# reach recover_K.  FLAT2 is singular everywhere: check_canonoid checks
# H's chart before it sweeps the map, so the chart error is reported.
SHEAR2 = TransformMap.parse(SYMP2, ["q1", "q2", "q1*p1", "p2"])
FLAT2 = TransformMap.parse(SYMP2, ["q1", "q1", "p1", "p2"])
X4 = np.array([0.6, 0.8, 1.1, 0.9])
H_COCO = COCO1.parse("q1^2/2 + p1^2/2")
H_SYMP = SYMP2.parse("q1^2/2 + p1^2/2")
# name: (H, the geometry that reads it, the call)
CHART_ENTRIES = {
    "hamiltonian_vf": (H_COCO, SYMP2, lambda H: geometry.hamiltonian_vf(
        SYMP2, H, X4)),
    "hamiltonian_vf_jacobian": (
        H_COCO, SYMP2,
        lambda H: geometry.hamiltonian_vf_jacobian(SYMP2, H, X4)),
    "dynamical_vf": (H_COCO, SYMP2, lambda H: dynamical_vf(SYMP2, H, X4)),
    "point_field": (H_COCO, SYMP2, lambda H: point_field(SYMP2, H)),
    "poisson_bracket": (H_COCO, SYMP2, lambda H: geometry.poisson_bracket(
        SYMP2, SYMP2.parse("q1"), H, X4)),
    "jacobi_bracket": (H_SYMP, COCO1, lambda H: geometry.jacobi_bracket(
        COCO1, COCO1.parse("q1"), H, X4)),
    "check_canonoid": (H_COCO, SYMP2,
                       lambda H: transform.check_canonoid(SHEAR2, H, [X4])),
    "check_canonoid-singular-map": (
        H_COCO, SYMP2, lambda H: transform.check_canonoid(FLAT2, H, [X4])),
    "recover_K": (H_COCO, SYMP2,
                  lambda H: transform.recover_K(SHEAR2, H, X4, X4 / 2)),
    "lie_derivative_S": (H_COCO, SYMP2,
                         lambda H: lie_derivative_S(SHEAR2, H, X4)),
    "integrate-rk4": (H_COCO, SYMP2,
                      lambda H: integrate(SYMP2, H, X4, (0.0, 1.0), 4)),
    "integrate-rk45": (H_COCO, SYMP2, lambda H: integrate(
        SYMP2, H, X4, (0.0, 1.0), 4, method="rk45-adaptive")),
}


@pytest.mark.parametrize("entry", CHART_ENTRIES)
def test_hamiltonian_on_another_chart_is_rejected(entry):
    H, g, call = CHART_ENTRIES[entry]
    with pytest.raises(ValueError, match=re.escape(
            f"is written on {H.chart_vars}, the chart of {g.kind} n={g.n} "
            f"is {g.chart_vars}")):
        call(H)


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


def test_adaptive_zero_state_without_tolerance_fails_at_start():
    # err = 0 against a zero scale: 0/0 is NaN as in numpy, so the ratio
    # is inf and every attempt is rejected, never a ZeroDivisionError
    with pytest.raises(StepFailure, match=re.escape("underflow at t = 0.0 ")):
        integrate(SYMP1, HARMONIC, [0.0, 0.0], (0.0, 1.0), 10,
                  method="rk45-adaptive", rtol=0.0, atol=0.0)


def test_finite_time_blowup_fails_loudly():
    H = SYMP1.parse("q1^2*p1")
    with pytest.raises((StepFailure, DomainError)):
        integrate(SYMP1, H, [1.0, 1.0], (0.0, 2.0), 100,
                  method="rk45-adaptive")


# ---------------------------------------------------------------------------
# rk4 against a reference on numpy arrays


def _reference_rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_rk4(g, H, x0, t_span, steps, stages=None):
    """(times, states) of rk4 with every stage on a (d,) array and the
    field taken from a one-row stack, so nothing of the float path of
    integrate() is shared but the field's numbers.  A list given as
    stages gets one entry per field call."""
    t0, t1 = t_span
    h = (t1 - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    y = np.array(x0, dtype=float)
    ti = g.t_index
    if ti is not None:
        y[ti] = t0
    states = np.zeros((steps + 1, g.dim))
    states[0] = y

    def f(state):
        if stages is not None:
            stages.append(state)
        return dynamical_vf(g, H, state[None, :])[0]

    with np.errstate(all="ignore"):
        for k in range(steps):
            y = _reference_rk4_step(f, y, h)
            if ti is not None:
                y[ti] = times[k + 1]
            states[k + 1] = y
    return times, states


def _outcome(run):
    try:
        return run()
    except DomainError as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(case=kind_hamiltonian_states(), steps=st.integers(1, 12),
       span=st.floats(min_value=0.01, max_value=0.5))
def test_rk4_equals_array_reference(case, steps, span):
    g, H, X = case
    x0 = X[0]
    t0 = 0.0 if g.t_index is None else float(x0[g.t_index])
    t_span = (t0, t0 + span)
    got = _outcome(lambda: integrate(g, H, x0, t_span, steps, "rk4"))
    ref = _outcome(lambda: reference_rk4(g, H, x0, t_span, steps))
    if isinstance(ref, str):
        assert got == ref, (g, str(H))
        return
    times, states = ref
    assert np.array_equal(got.times, times)
    assert np.array_equal(got.states, states, equal_nan=True), (g, str(H))


def test_rk4_blowup_matches_reference():
    # the field overflows in the first stage of some step: the same
    # DomainError as the reference, not a Python OverflowError
    H = SYMP1.parse("q1^2*p1")
    for run in (lambda: integrate(SYMP1, H, [1.0, 1.0], (0.0, 2.0), 100),
                lambda: reference_rk4(SYMP1, H, [1.0, 1.0], (0.0, 2.0), 100)):
        with pytest.raises(DomainError,
                           match=re.escape("overflow in 'q1^2.0' at row 0")):
            run()
    # large steps, and stages whose own arithmetic overflows to inf and
    # then NaN: the same states as the reference, and no OverflowError
    # or ZeroDivisionError from the float arithmetic
    for src, x0, t_span, steps in (("p1^4", [0.0, 3.0], (0.0, 1e3), 10),
                                   ("1e300*p1*q1", [1.0, 1.0], (0.0, 1e10), 5)):
        H = SYMP1.parse(src)
        traj = integrate(SYMP1, H, x0, t_span, steps)
        _, states = reference_rk4(SYMP1, H, x0, t_span, steps)
        assert np.array_equal(traj.states, states, equal_nan=True), src
    assert np.isnan(traj.states[-1, 1])


# (H, x0, t1, steps, step, stage) on the symplectic n = 1 chart from
# t = 0: the reference's first DomainError arises in that stage of that
# step, after a stage 1 that passed its checks
STAGE_ERRORS = [
    ("-p1 + 1/q1", [0.25, -1.0], 0.5, 1, 1, 2),
    ("-p1 + log(q1)", [0.1, -1.0], 0.5, 1, 1, 2),
    ("p1*q1^3", [0.75, -1.0], 2.0, 4, 4, 2),
    ("p1^2/2 - 1/q1", [0.5, -1.0], 0.5, 1, 1, 3),
    ("-p1^3/3 + log(q1)", [0.1, -1.0], 0.6, 3, 1, 3),
    ("p1*q1^3", [0.75, -1.0], 1.5, 5, 5, 3),
    ("-p1 + 1/q1", [0.25, -1.0], 1.0, 4, 1, 4),
    ("-p1 + log(q1)", [0.1, -1.0], 0.6, 3, 1, 4),
    ("p1*q1^3", [2.0, -1.0], 1.0, 2, 2, 4),
]


@pytest.mark.parametrize("src, x0, t1, steps, step, stage", STAGE_ERRORS)
def test_rk4_raises_the_first_error_of_any_stage(src, x0, t1, steps, step,
                                                  stage):
    # every stage's checks stay in the emitted step, in stage order, so
    # the first DomainError is the reference's whichever stage raises it
    H = SYMP1.parse(src)
    calls = []
    with pytest.raises(DomainError) as ref:
        reference_rk4(SYMP1, H, x0, (0.0, t1), steps, calls)
    assert divmod(len(calls) - 1, 4) == (step - 1, stage - 1)
    with pytest.raises(DomainError) as got:
        integrate(SYMP1, H, x0, (0.0, t1), steps)
    assert str(got.value) == str(ref.value)


def test_rk4_with_sin_t_runs_quietly():
    # a step that calls numpy runs under np.errstate: the same states as
    # the reference, and an overflow in stage 4 of np.power's cube is the
    # reference's DomainError, not a RuntimeWarning
    g = COSY1
    H = g.parse("p1*q1 + sin(t)*q1^3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(g, H, [0.3, 0.7, 0.5], (0.5, 2.5), 100)
        times, states = reference_rk4(g, H, [0.3, 0.7, 0.5], (0.5, 2.5), 100)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)
        calls = []
        x0 = [3e102, 1.0, 0.5]
        message = re.escape("overflow in 'q1^3.0' at row 0")
        for run in (lambda: reference_rk4(g, H, x0, (0.5, 1.5), 1, calls),
                    lambda: integrate(g, H, x0, (0.5, 1.5), 1)):
            with pytest.raises(DomainError, match=message):
                run()
    assert len(calls) == 4


def test_rk4_step_forms_only_the_inputs_the_sweep_reads():
    # p1^2/2 does not read q: the step forms no q input for stages 2-4.
    # Its one stage-4 input is p's, and stages 2 and 3 share p's input
    # (dH/dq is the constant -0.0), so the overflow check of p1^2 is
    # written once for both: stages 1, 2 = 3 and 4
    step = dynamics.rk4_step(SYMP1, SYMP1.parse("p1^2/2"))
    assert count_ops(step, "h") == 1
    assert count_ops(step, "half") == 1
    assert count_ops(step, "overflow") == 3
    assert step([0.25, 3.0], 0.5, 0.25, 0.5 / 6.0) == [1.75, 3.0]


def test_only_rk45_dispatches_through_dynamical_vf(monkeypatch):
    # the benchmark tracer infers Dormand-Prince attempts from calls of
    # the name dynamics binds, seven per attempt; rk4 makes none.  Each
    # attempt ends in one _error_ratio call, which counts the attempts
    calls = []
    seen = []   # the field calls made before each attempt's ratio
    error_ratio = dynamics._error_ratio

    def counting(g, H, x):
        calls.append(x)
        return dynamical_vf(g, H, x)

    def counting_ratio(*args):
        seen.append(len(calls))
        return error_ratio(*args)

    monkeypatch.setattr(dynamics, "dynamical_vf", counting)
    monkeypatch.setattr(dynamics, "_error_ratio", counting_ratio)
    H = CONT1.parse("(q1^2 + p1^2)/2 + 0.2*z")
    traj = integrate(CONT1, H, [1.0, 0.0, 0.0], (0.0, 3.0), 30)
    assert len(traj.times) == 31 and calls == [] and seen == []
    traj = integrate(CONT1, H, [1.0, 0.0, 0.0], (0.0, 30.0), 10,
                     method="rk45-adaptive")
    assert len(seen) >= len(traj.times) - 1 > 0
    assert seen == [7 * a for a in range(1, len(seen) + 1)]
    assert len(calls) == 7 * len(seen)


# ---------------------------------------------------------------------------
# Dormand-Prince on floats against the array formulas

# the tableau as the (7, 7) matrix whose row i weights the stages before i
_A = np.zeros((7, 7))
for _i, _row in enumerate(dynamics._DP_A, start=1):
    _A[_i, :_i] = _row
_B5 = _A[6]
_B4 = np.array(dynamics._DP_B4)


def _order_defects(A, b5, b4):
    """|defect| of the 8 order conditions through order 4 for each of
    the weight rows b5 and b4 of the (7, 7) tableau A, whose row sums
    are the nodes c, and of b5 . c^4 = 1/5."""
    c = A.sum(axis=1)
    ac = A @ c
    out = []
    for b in (b5, b4):
        out += [b.sum() - 1, b @ c - 1 / 2, b @ c ** 2 - 1 / 3, b @ ac - 1 / 6,
                b @ c ** 3 - 1 / 4, b @ (c * ac) - 1 / 8,
                b @ (A @ c ** 2) - 1 / 12, b @ (A @ ac) - 1 / 24]
    out.append(b5 @ c ** 4 - 1 / 5)
    return np.abs(out)


def test_dp_tableau_order_conditions():
    # the table that dp_step is read off meets Dormand and Prince's
    # conditions, and none of its rows survives a swap of two different
    # weights (in exact arithmetic every such swap breaks a condition;
    # the smallest break in floats is about 9e-4)
    assert np.max(_order_defects(_A, _B5, _B4)) < 1e-14
    for r in range(1, 8):
        row = _A[r, :r] if r < 7 else _B4
        for i in range(len(row)):
            for j in range(i):
                if row[i] == row[j]:
                    continue
                A, b4 = _A.copy(), _B4.copy()
                swapped = A[r] if r < 7 else b4
                swapped[[i, j]] = swapped[[j, i]]
                assert np.max(_order_defects(A, A[6], b4)) > 1e-6, (r, i, j)


def _reference_dp_step(f, y, h):
    """(y5, err, stages) of one Dormand-Prince step with every stage,
    tableau product and the error estimate on (d,) arrays: the products
    are BLAS dot products, which need not sum left to right."""
    K = np.empty((7, y.size))
    K[0] = f(y)
    for i in range(1, 7):
        K[i] = f(y + h * (_A[i, :i] @ K[:i]))
    return y + h * (_B5 @ K), h * ((_B5 - _B4) @ K), K


@settings(max_examples=80, deadline=None)
@given(case=kind_hamiltonian_states(), h=st.floats(1e-3, 0.05))
def test_dp_step_matches_array_reference(case, h):
    # the same step to within rounding: 4 ulps of each component's scale
    # |y| + h max |K|, for the new state and for the error estimate (the
    # difference of two such updates; the stages' inputs differ by
    # rounding at that scale, and a field component that cancels to
    # rounding noise, as the z-row of X_H may, passes it on)
    g, H, X = case
    y = X[0]
    f = point_field(g, H)
    with np.errstate(all="ignore"):
        ref = _outcome(lambda: _reference_dp_step(
            lambda state: dynamical_vf(g, H, state[None, :])[0], y, h))
    got = _outcome(lambda: dynamics.dp_step(g.dim)(y.tolist(), h, f))
    if isinstance(ref, str) or isinstance(got, str):
        assert got == ref, (g, str(H))
        return
    y5, err, K = ref
    reach = h * np.max(np.abs(K), axis=0)
    # a step that moves the state by more than a tenth of its size, or
    # through a field that overflows, amplifies the stages' rounding
    # differences by more than a few ulps
    assume(np.isfinite(K).all() and np.all(reach <= 0.1 * (1 + np.abs(y))))
    got_y5, got_err = got
    ulps = 4 * np.finfo(float).eps * (np.abs(y) + reach)
    assert np.all(np.abs(np.array(got_y5) - y5) <= ulps), (g, str(H))
    assert np.all(np.abs(np.array(got_err) - err) <= ulps), (g, str(H))


SPECIAL_FLOATS = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1e300, -1e300,
                  math.inf, -math.inf, math.nan]
SOME_FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                        st.floats(allow_nan=True))


def _bits(values):
    """The bytes of a list of floats, every NaN read as one NaN: -0.0
    differs from 0.0, but the sign of a NaN does not count: where both
    operands are NaN, CPython's generic float operations keep the sign
    of one and its specialised ones that of the other."""
    return struct.pack(f"{len(values)}d",
                       *(math.nan if v != v else v for v in values))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(2, 8))
def test_emitted_dp_attempt_is_the_formula_on_floats(data, d):
    # the emitted attempt makes the formula's seven field calls, on the
    # same inputs, and returns its y5 and error bit for bit, also where
    # stages, states or the step are inf or NaN
    state = st.lists(SOME_FLOATS, min_size=d, max_size=d)
    y, stages = data.draw(state), data.draw(st.lists(state, min_size=7,
                                                     max_size=7))
    h = data.draw(SOME_FLOATS)

    def field(inputs):
        returns = iter(stages)

        def f(x):
            inputs.append(_bits(x))
            return next(returns)

        return f

    got_inputs, ref_inputs = [], []
    got = dynamics.dp_step(d)(y, h, field(got_inputs))
    ref = dynamics._dp_stepper(field(ref_inputs))(y, h)
    assert got_inputs == ref_inputs and len(got_inputs) == 7
    assert [_bits(v) for v in got] == [_bits(v) for v in ref]


def _numpy_error_ratio(err, y, y_new, rtol, atol):
    with np.errstate(all="ignore"):
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        ratio = np.sqrt(np.mean((np.array(err) / scale) ** 2))
    return float(ratio) if np.isfinite(ratio) else math.inf


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.integers(2, 12),
       rtol=st.sampled_from([0.0, 1e-10, 1e-3]),
       atol=st.sampled_from([0.0, 1e-12, 1.0]))
def test_error_ratio_keeps_numpy_semantics(data, d, rtol, atol):
    # the float norm sums left to right, which is numpy's mean bit for
    # bit for d < 8; from 8 terms numpy sums pairwise, and the two agree
    # to rounding.  inf wherever numpy's is not finite (x/0, 0/0, NaN,
    # overflow), and it never raises
    entries = st.lists(SOME_FLOATS, min_size=d, max_size=d)
    err, y, y_new = (data.draw(entries) for _ in range(3))
    got = dynamics._error_ratio(err, y, y_new, rtol, atol)
    ref = _numpy_error_ratio(err, y, y_new, rtol, atol)
    if d < 8:
        assert got == ref
    else:
        assert got == ref or math.isclose(got, ref, rel_tol=d * 2.0 ** -52)


# ---------------------------------------------------------------------------
# drift_report


def test_free_particle_traces_exactly_conserved():
    g = SYMP1
    F = TransformMap.parse(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    traj = integrate(g, H, [0.0, 1.5], (0.0, 5.0), 500)

    def trace_k(k):
        return lambda X: stensor.trace_powers(F, X, 4)[:, k - 1]

    rep = drift_report(traj, [(f"trS^{k}", trace_k(k)) for k in (1, 2, 3, 4)])
    for k in (1, 2, 3, 4):
        d = rep[f"trS^{k}"]
        assert d.max_abs_drift < 1e-10
        assert d.max_rel_drift < 1e-10
    assert abs(rep["trS^1"].initial - 2 * 1.5 ** 2) < 1e-14


def test_negative_control_drifts():
    # non-canonoid map on the harmonic orbit: tr S = 2q is not conserved
    g = SYMP1
    F = TransformMap.parse(g, ["q1", "q1*p1"])
    traj = integrate(g, HARMONIC, [1.0, 0.0], (0.0, 3.0), 300)
    rep = drift_report(
        traj, [("trS", lambda X: stensor.trace_powers(F, X, 1)[:, 0])])
    assert rep["trS"].max_abs_drift > 1e-2


def test_drift_report_fields(tmp_path, capfd):
    traj = integrate(SYMP1, HARMONIC, [1.0, 0.0], (0.0, 1.0), 10)
    rep = drift_report(traj, [("q", lambda X: X[:, 0])])
    d = rep["q"]
    assert d.initial == 1.0
    assert d.max_abs_drift >= 0.0
    assert d.slope < 0.0  # q decreases over [0, 1]
    # the least-squares slope, in closed form
    want = np.polyfit(traj.times, traj.states[:, 0], 1)[0]
    assert d.slope == pytest.approx(want, rel=1e-12)
    # relative drift of a tiny-initial observable divides by 1, not |f0|
    rep2 = drift_report(traj, [("p", lambda X: X[:, 1])])
    d2 = rep2["p"]
    assert d2.max_rel_drift == d2.max_abs_drift
    # a series that never moves has slope 0.0 exactly, a line its own
    t = np.linspace(2.0, 7.0, 101)
    line = dynamics.Trajectory(times=t, states=np.column_stack([t, t]))
    rep3 = drift_report(line, [("const", lambda X: np.full(len(X), 0.1)),
                               ("line", lambda X: 3.0 * X[:, 0] - 1.0)])
    assert rep3["const"].slope == 0.0
    assert not math.copysign(1.0, rep3["const"].slope) < 0.0
    assert rep3["line"].slope == pytest.approx(3.0, rel=1e-13)
    # at a span of 1e-300 or 1e300 the trace series of a report still
    # give slope 0.0, and nothing reaches stderr
    for span in ([0, 1e-300], [0, 1e300]):
        data = base_config()
        data["checks"] = ["traces"]
        data["trajectory"]["t_span"] = span
        out = tmp_path / f"out{span[1]:g}"
        assert cli.main(["report", "--config", write_config(tmp_path, data),
                         "--out", str(out)]) == 0
        assert capfd.readouterr() == ("", "")
        drift = json.loads((out / "report.json").read_text())[
            "checks"]["traces"]["drift"]
        assert {d["slope"] for d in drift.values()} == {0.0}


# ---------------------------------------------------------------------------
# Lie derivative of S along the dynamics


def test_lie_derivative_vanishes_for_canonoid_pair():
    g = SYMP1
    F = TransformMap.parse(g, ["q1", "p1^3/3"])
    H = g.parse("p1^2/2")
    for x in ([0.4, 1.2], [1.0, 0.7], [-0.5, 1.6]):
        lie = lie_derivative_S(F, H, x)
        assert np.max(np.abs(lie)) < 1e-9


def test_lie_derivative_negative_control():
    g = SYMP1
    F = TransformMap.parse(g, ["q1", "q1*p1"])
    H = g.parse("p1^2/2")
    lie = lie_derivative_S(F, H, [0.5, 1.2])
    # S = q I and dS/dq = I, so L_V S = p I exactly
    assert np.allclose(lie, 1.2 * np.eye(2), atol=1e-12)


def test_lie_derivative_cosymplectic_time_column():
    g = COSY1
    F = TransformMap.parse(g, ["q1", "1.5*p1", "t"])
    H = g.parse("p1^2/2 + t*q1")
    x = np.array([0.8, 1.3, 2.0])
    lie = lie_derivative_S(F, H, x)
    xi = list(g.x_indices)
    ti = g.t_index
    # x-block vanishes; only the dt-column survives
    assert np.max(np.abs(lie[np.ix_(xi, xi)])) < 1e-9
    assert np.max(np.abs(lie[ti, :])) < 1e-12
    # and it equals the time derivative of the K-gradient rotated by
    # the inverse structure matrix (assembled through a separate path)
    dG, _ = transform._k_gradient_pieces(F, H, x)
    eps_inv = np.array([[0.0, -1.0], [1.0, 0.0]])
    expected = -eps_inv @ dG[:, ti]
    assert np.max(np.abs(lie[xi, ti] - expected)) < 1e-8
    assert np.max(np.abs(expected - np.array([0.0, -1.5]))) < 1e-12


def test_lie_derivative_contact_scaling():
    g = CONT1
    F = TransformMap.parse(g, ["q1", "2*p1", "2*z"])
    H = g.parse("(q1^2 + p1^2)/2")
    lie = lie_derivative_S(F, H, [0.6, 0.8, 0.1])
    assert np.max(np.abs(lie)) < 1e-9


def test_lie_derivative_cocontact_scaling():
    g = COCO1
    F = TransformMap.parse(g, ["t", "q1", "3*p1", "3*z"])
    H = g.parse("(q1^2 + p1^2)/2")
    lie = lie_derivative_S(F, H, [0.5, 0.6, 0.8, 0.1])
    assert np.max(np.abs(lie)) < 1e-9
