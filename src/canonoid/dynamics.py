"""Trajectory integration and conservation measurements.

Equations of motion are the Hamiltonian field for symplectic and
contact charts and the evolution field (with dt/dt = 1) for the
time-extended ones.  Two steppers: classic fixed-step RK4 and an
embedded Dormand-Prince 5(4) pair with proportional step control.

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

from dataclasses import dataclass

import numpy as np

from . import stensor
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


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    geometry: object
    hamiltonian: object


@dataclass(frozen=True)
class ObservableDrift:
    initial: float
    max_abs_drift: float
    max_rel_drift: float
    slope: float


@dataclass(frozen=True)
class DriftReport:
    observables: dict


# ---------------------------------------------------------------------------
# steppers

# Dormand-Prince 5(4) tableau
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192,
                   -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _rk4_step(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _dp_step(f, y, h):
    ks = [f(y)]
    for row in _DP_A[1:]:
        yi = y + h * sum(a * k for a, k in zip(row, ks))
        ks.append(f(yi))
    ks = np.array(ks)
    y5 = y + h * (_DP_B5 @ ks)
    err = h * ((_DP_B5 - _DP_B4) @ ks)
    return y5, err


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

    def f(state):
        return dynamical_vf(g, H, state)

    # a non-finite field value propagates into the states, where the
    # guards of the trace checks report it; numpy stays quiet
    with np.errstate(all="ignore"):
        if method == "rk4":
            h = (t1 - t0) / steps
            times = t0 + h * np.arange(steps + 1)
            states = np.zeros((steps + 1, g.dim))
            if ti is not None:
                y[ti] = t0
            states[0] = y
            for k in range(steps):
                y = _rk4_step(f, y, h)
                if ti is not None:
                    y[ti] = times[k + 1]
                states[k + 1] = y
            return Trajectory(times=times, states=states, geometry=g,
                              hamiltonian=H)

        # rk45-adaptive
        span = t1 - t0
        h = span / steps
        h_min = 1e-14 * span
        t = t0
        if ti is not None:
            y[ti] = t0
        times = [t0]
        states = [y.copy()]
        while t < t1 - 1e-14 * span:
            h = min(h, t1 - t)
            y_new, err = _dp_step(f, y, h)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            ratio = np.sqrt(np.mean((err / scale) ** 2))
            if not np.isfinite(ratio):
                ratio = np.inf
            if ratio <= 1.0:
                t = t + h
                y = y_new
                if ti is not None:
                    y[ti] = t
                times.append(t)
                states.append(y.copy())
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
    one state or a stack of states.

    S and dS come from stensor.s_and_ds.
    """
    with np.errstate(all="ignore"):
        S, dS = stensor.s_and_ds(g, F, x)
        V, dV = dynamical_vf_jacobian(g, H, x)
        return np.einsum("...n,...nab->...ab", V, dS) - dV @ S + S @ dV
