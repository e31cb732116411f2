"""Trajectory integration and conservation measurements.

Equations of motion are the Hamiltonian field for symplectic and
contact charts and the evolution field (with dt/dt = 1) for the
time-extended ones.  Two steppers: classic fixed-step RK4 and an
embedded Dormand-Prince 5(4) pair with proportional step control.
Both carry the state as a list of Python floats and call
dynamical_vf(g, H, state) once per stage, seven times per Dormand-Prince
attempt; its list form runs the one-state field geometry.point_field
emits once per Hamiltonian.  RK4 forms each stage with the float
operations of the (d,) array formulas, in their order.  Dormand-Prince
sums each stage's weighted stages, the 5th-order update and the error
estimate left to right with the zero weights dropped, so its steps do
not depend on a BLAS library.

For the time-extended geometries the t-coordinate is pinned to the
accumulated integration time after every step: its exact equation is
dt/dt = 1, which every Runge-Kutta scheme integrates without
truncation error, so the assignment only removes rounding noise and
keeps the Trajectory invariant exact.

Drift statistics quantify "constant along the trajectory" for a list
of observables; relative drift is measured against max(|f(0)|, 1) so
conserved quantities near zero do not blow up the ratio.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import expr, stensor, transform
from .geometry import dynamical_vf, dynamical_vf_jacobian

__all__ = [
    "Trajectory",
    "ObservableDrift",
    "DriftReport",
    "StepFailure",
    "integrate",
    "drift_report",
    "lie_derivative_S",
    "METHODS",
    "DEFAULT_RTOL",
]

METHODS = ("rk4", "rk45-adaptive")
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
T0_MATCH_TOL = 1e-9


class StepFailure(RuntimeError):
    """The adaptive controller drove the step size below the resolvable
    minimum without meeting the error tolerance."""


class Trajectory(expr.Record):
    __slots__ = ("times", "states", "geometry", "hamiltonian")


class ObservableDrift(expr.Record):
    __slots__ = ("initial", "max_abs_drift", "max_rel_drift", "slope")


class DriftReport(expr.Record):
    __slots__ = ("observables",)


# ---------------------------------------------------------------------------
# steppers

# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math.
# 6 (1980) 19-26): row i weights the stages before stage i + 2.  The
# last row is also the 5th-order weights.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
# the error weights b5 - b4
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_A[-1] + (0.0,), _DP_B4))


def _dp_stepper(f):
    """One Dormand-Prince attempt on Python floats with the one-state
    field f: step(y, h) -> (y5, err) from the state y and the step h.
    Every stage and the error sum their weighted stages left to right,
    with the zero weights dropped; the tableau is bound once, here."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6) = _DP_A
    e1, _, e3, e4, e5, e6, e7 = _DP_E

    def step(y, h):
        k1 = f(y)
        k2 = f([a + h * (a21 * c1) for a, c1 in zip(y, k1)])
        k3 = f([a + h * (a31 * c1 + a32 * c2)
                for a, c1, c2 in zip(y, k1, k2)])
        k4 = f([a + h * (a41 * c1 + a42 * c2 + a43 * c3)
                for a, c1, c2, c3 in zip(y, k1, k2, k3)])
        k5 = f([a + h * (a51 * c1 + a52 * c2 + a53 * c3 + a54 * c4)
                for a, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)])
        k6 = f([a + h * (a61 * c1 + a62 * c2 + a63 * c3 + a64 * c4
                         + a65 * c5)
                for a, c1, c2, c3, c4, c5 in zip(y, k1, k2, k3, k4, k5)])
        y5 = [a + h * (b1 * c1 + b3 * c3 + b4 * c4 + b5 * c5 + b6 * c6)
              for a, c1, c3, c4, c5, c6 in zip(y, k1, k3, k4, k5, k6)]
        k7 = f(y5)
        err = [h * (e1 * c1 + e3 * c3 + e4 * c4 + e5 * c5 + e6 * c6
                    + e7 * c7)
               for c1, c3, c4, c5, c6, c7 in zip(k1, k3, k4, k5, k6, k7)]
        return y5, err

    return step


def _error_ratio(err, y, y_new, rtol, atol):
    """RMS of err / (atol + rtol max(|y|, |y_new|)) over the components,
    summed left to right, which is numpy's mean bit for bit for d < 8
    (from 8 terms numpy's pairwise sum rounds differently), with numpy's
    semantics: the max keeps a NaN, x/0 is inf and 0/0 NaN, and a ratio
    that is not finite is inf, so the step is rejected.  Squares are
    e*e, which unlike e**2 cannot raise OverflowError."""
    s = 0.0
    for e, a, b in zip(err, y, y_new):
        a, b = abs(a), abs(b)
        scale = atol + rtol * (a if a > b or a != a else b)
        if scale == 0.0:
            return math.inf
        r = e / scale
        s += r * r
    ratio = math.sqrt(s / len(err))
    return ratio if math.isfinite(ratio) else math.inf


def integrate(g, H, x0, t_span, steps, method="rk4",
              rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Advance the dynamical field of (g, H) from x0 over t_span.

    rk4 takes exactly `steps` uniform steps; rk45-adaptive treats
    (t1 - t0)/steps as the initial step suggestion and controls the
    local error against rtol/atol, clipping the final step onto t1.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    t0, t1 = (float(t_span[0]), float(t_span[1]))
    if not t1 > t0:
        raise ValueError(f"t_span must increase, got ({t0}, {t1})")
    y = g.check_state(x0).copy()
    ti = g.t_index
    if ti is not None and abs(y[ti] - t0) > T0_MATCH_TOL:
        raise ValueError(
            f"x0 has t = {y[ti]} but integration starts at t = {t0}")
    if ti is not None:
        y[ti] = t0
    # each stage calls dynamical_vf by the name bound here, so a wrapper
    # installed on that name sees every stage
    f = functools.partial(dynamical_vf, g, H)

    # a non-finite field value propagates into the states, where the
    # guards of the trace checks report it; numpy stays quiet
    with np.errstate(all="ignore"):
        if method == "rk4":
            h = (t1 - t0) / steps
            times = t0 + h * np.arange(steps + 1)
            states = np.zeros((steps + 1, g.dim))
            states[0] = y
            # the state is a list of floats; each entry takes the float
            # operations, in their order, of y + (0.5*h)*k for the
            # middle stages and y + (h/6)*(((k1 + 2 k2) + 2 k3) + k4)
            y = y.tolist()
            half, sixth = 0.5 * h, h / 6.0
            for k in range(1, steps + 1):
                k1 = f(y)
                k2 = f([a + half * b for a, b in zip(y, k1)])
                k3 = f([a + half * b for a, b in zip(y, k2)])
                k4 = f([a + h * b for a, b in zip(y, k3)])
                y = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
                if ti is not None:
                    y[ti] = float(times[k])
                states[k] = y
            return Trajectory(times=times, states=states, geometry=g,
                              hamiltonian=H)

        span = t1 - t0
        h = span / steps
        h_min = 1e-14 * span
        t = t0
        y = y.tolist()
        times = [t0]
        states = [y]
        step = _dp_stepper(f)
        while t < t1 - 1e-14 * span:
            h = min(h, t1 - t)
            y_new, err = step(y, h)
            ratio = _error_ratio(err, y, y_new, rtol, atol)
            if ratio <= 1.0:
                t = t + h
                y = y_new
                if ti is not None:
                    y[ti] = t
                times.append(t)
                states.append(y)
            factor = (5.0 if ratio == 0.0
                      else min(5.0, max(0.2, 0.9 * ratio ** -0.2)))
            h = h * factor
            if h < h_min:
                raise StepFailure(
                    f"step size underflow at t = {t} (h = {h:.3e})")
        return Trajectory(times=np.array(times), states=np.array(states),
                          geometry=g, hamiltonian=H)


# ---------------------------------------------------------------------------
# drift statistics


def drift_report(traj, observables):
    """Summarize (name, f) pairs over the trajectory: each f maps the
    stack of stored states (T, d) to its (T,) values in one call, and
    the report measures the deviation from the initial value."""
    T = traj.states.shape[0]
    if T < 1:
        raise ValueError("trajectory has no states")
    out = {}
    for name, fn in observables:
        vals = np.asarray(fn(traj.states), dtype=float)
        if vals.shape != (T,):
            raise ValueError(f"observable {name!r} gave shape {vals.shape} "
                             f"for {T} states")
        f0 = vals[0]
        dev = np.abs(vals - f0)
        max_abs = float(np.max(dev))
        rel = max_abs / max(abs(f0), 1.0)
        if T > 1:
            slope = float(np.polyfit(traj.times, vals, 1)[0])
        else:
            slope = 0.0
        out[name] = ObservableDrift(initial=float(f0), max_abs_drift=max_abs,
                                    max_rel_drift=rel, slope=slope)
    return DriftReport(observables=out)


# ---------------------------------------------------------------------------
# Lie derivative of S along the dynamical field


def lie_derivative_S(g, F, H, x):
    """(L_V S)^A_B = V^n dS^A_B/dx^n - S^n_B dV^A/dx^n + S^A_n dV^n/dx^B
    with V the dynamical field of the geometry, over the full chart, at
    one state or a stack of states, or F's Jets at them.

    S and dS come from stensor.s_and_ds.
    """
    jets = transform.Jets.of(F, x)
    with np.errstate(all="ignore"):
        S, dS = stensor.s_and_ds(g, F, jets)
        V, dV = dynamical_vf_jacobian(g, H, jets.x)
        return np.einsum("...n,...nab->...ab", V, dS) - dV @ S + S @ dV
