"""Trajectory integration and conservation measurements.

Equations of motion are the Hamiltonian field for symplectic and
contact charts and the evolution field (with dt/dt = 1) for the
time-extended ones.  Two steppers: classic fixed-step RK4 and an
embedded Dormand-Prince 5(4) pair with proportional step control.
Each stage calls geometry.dynamical_vf once, on the state as a list of
Python floats.  RK4 carries its state as such a list and forms each
stage on floats, with the float operations of the (d,) array formulas
in their order.  Dormand-Prince keeps its stages and error norm on
numpy arrays: its tableau products are BLAS dot products, which do not
sum left to right, so float sums would move its trajectories in the
last bit.

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

from . import stensor, transform
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

# Dormand-Prince 5(4) tableau; row i of _DP_A weights the stages before i
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192,
                   -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _dp_step(f, y, h):
    K = np.empty((len(_DP_A), y.size))
    K[0] = f(y)
    for i in range(1, len(_DP_A)):
        K[i] = f(y + h * (_DP_A[i, :i] @ K[:i]))
    y5 = y + h * (_DP_B5 @ K)
    err = h * ((_DP_B5 - _DP_B4) @ K)
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
            # the state is a list of floats; each entry takes the float
            # operations, in their order, of y + (0.5*h)*k for the
            # middle stages and y + (h/6)*(((k1 + 2 k2) + 2 k3) + k4)
            y = y.tolist()
            half, sixth = 0.5 * h, h / 6.0
            for k in range(1, steps + 1):
                k1 = dynamical_vf(g, H, y)
                k2 = dynamical_vf(g, H, [a + half * b for a, b in zip(y, k1)])
                k3 = dynamical_vf(g, H, [a + half * b for a, b in zip(y, k2)])
                k4 = dynamical_vf(g, H, [a + h * b for a, b in zip(y, k3)])
                y = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
                if ti is not None:
                    y[ti] = float(times[k])
                states[k] = y
            return Trajectory(times=times, states=states, geometry=g,
                              hamiltonian=H)

        # rk45-adaptive: stages on numpy arrays, handed to the field as
        # lists of floats
        def f(state):
            return dynamical_vf(g, H, state.tolist())

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
    one state or a stack of states, or F's Jets at them.

    S and dS come from stensor.s_and_ds.
    """
    jets = transform.Jets.of(F, x)
    with np.errstate(all="ignore"):
        S, dS = stensor.s_and_ds(g, F, jets)
        V, dV = dynamical_vf_jacobian(g, H, jets.x)
        return np.einsum("...n,...nab->...ab", V, dS) - dV @ S + S @ dV
