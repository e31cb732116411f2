"""Trajectory integration and conservation measurements.

Equations of motion are the Hamiltonian field for symplectic and
contact charts and the evolution field (with dt/dt = 1) for the
time-extended ones.  Two steppers: classic fixed-step RK4 and an
embedded Dormand-Prince 5(4) pair with proportional step control.
Both carry the state as a list of Python floats.  RK4 takes each step
from one straight-line text emitted once per (H, geometry), with H's
float sweep written in it at all four stages; each stage and the
update take the float operations of the (d,) array formulas, in their
order.  Dormand-Prince takes each attempt from one straight-line text
emitted once per state dimension d, dp_step(d), that expr.call_function
writes from the list formula _dp_stepper run on terms, one loop over
the rows of the tableau _DP_A: each stage's input, the 5th-order
update (the last row) and the error estimate sum their weighted stages
left to right with the zero weights dropped, so its steps do not
depend on a BLAS library.  The text does not depend on H: each of its
seven stages calls the field it is given, which integrate makes
dynamical_vf(g, H, state), whose list form runs the one-state field
geometry.point_field emits once per Hamiltonian.

Both methods store an accepted step through one path.  It pins the
t-coordinate of the time-extended geometries to the step's time, RK4's
t0 + h*k or Dormand-Prince's accumulated time: its exact equation
dt/dt = 1 every Runge-Kutta scheme integrates without truncation
error, so the pin only removes rounding noise.  Then it packs the time
and the row into buffers of doubles, read once as the Trajectory's
times (T,) and states (T, d), which is all a Trajectory holds.

Drift statistics quantify "constant along the trajectory" for a list
of observables: drift_report maps each observable's name to its
ObservableDrift.  Relative drift is measured against max(|f(0)|, 1) so
conserved quantities near zero do not blow up the ratio.  The slope is
the closed-form least-squares slope of f - f(0) against the times
scaled to [0, 1], over their span: 0.0 for a series that never moves.
"""

import array
import functools
import math
import operator
import struct

import numpy as np

from . import expr, stensor, transform
from .geometry import dynamical_vf, dynamical_vf_jacobian, field_function

__all__ = [
    "Trajectory",
    "ObservableDrift",
    "StepFailure",
    "integrate",
    "rk4_step",
    "dp_step",
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
    __slots__ = ("times", "states")


class ObservableDrift(expr.Record):
    __slots__ = ("initial", "max_abs_drift", "max_rel_drift", "slope")


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


def _rk4(y, f, h, half, sixth):
    """One RK4 step of the field f from the state y: each entry takes
    the float operations, in their order, of y + (0.5*h)*k for the
    middle stages and y + (h/6)*(((k1 + 2 k2) + 2 k3) + k4)."""
    k1 = f(y)
    k2 = f([a + half * b for a, b in zip(y, k1)])
    k3 = f([a + half * b for a, b in zip(y, k2)])
    k4 = f([a + h * b for a, b in zip(y, k3)])
    return [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def rk4_step(g, H):
    """_rk4 on H's field, emitted as one straight-line float function
    step(y, h, half, sixth) of a state as a list of g.dim floats, with
    half = 0.5*h and sixth = h/6, and cached on H."""
    return field_function(g, H, "rk4", _rk4, ("h", "half", "sixth"))


def _weighted(weights, stages):
    """The sum of w * k over the non-zero weights w and their stages k,
    left to right."""
    return functools.reduce(operator.add, [w * k for w, k in
                                           zip(weights, stages) if w])


def _dp_stepper(f):
    """One Dormand-Prince attempt with the one-state field f: step(y,
    h) -> (y5, err) from the state y and the step h, read off the
    tableau: row i of _DP_A gives the input of stage i + 2, its last
    row y5, where the seventh stage is taken, and _DP_E the error.
    dp_step emits it as straight-line text; the tests run it on floats."""

    def step(y, h):
        ks = [f(y)]
        for row in _DP_A:
            y_next = [a + h * _weighted(row, k) for a, *k in zip(y, *ks)]
            ks.append(f(y_next))
        return y_next, [h * _weighted(_DP_E, k) for k in zip(*ks)]

    return step


@functools.cache
def dp_step(d):
    """_dp_stepper on a state of d floats, emitted as one straight-line
    float function step(y, h, f) -> (y5, err) with f the one-state
    field: each stage is one call of f, seven per attempt, so the text
    depends on d only and is cached per d."""
    return expr.call_function(lambda x, f, h: _dp_stepper(f)(x, h), d,
                              ("h",))


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


@expr.quiet
def integrate(g, H, x0, t_span, steps, method="rk4",
              rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Advance the dynamical field of (g, H) from x0 over t_span.

    rk4 takes exactly `steps` uniform steps; rk45-adaptive treats
    (t1 - t0)/steps as the initial step suggestion and controls the
    local error against rtol/atol, clipping the final step onto t1.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    steps = operator.index(steps)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    t0, t1 = (float(t_span[0]), float(t_span[1]))
    if not t1 > t0:
        raise ValueError(f"t_span must increase, got ({t0}, {t1})")
    if not math.isfinite(t1 - t0):
        raise ValueError(f"t_span is wider than a float, got ({t0}, {t1})")
    y = g.check_state(x0).tolist()
    ti = g.t_index
    if ti is not None and abs(y[ti] - t0) > T0_MATCH_TOL:
        raise ValueError(
            f"x0 has t = {y[ti]} but integration starts at t = {t0}")
    # accept stores the state y reached at time t, t-coordinate pinned,
    # in buffers of doubles, which hold no float objects, read once
    times, rows = array.array("d"), bytearray()
    record, extend = times.append, rows.extend
    pack = struct.Struct(f"{g.dim}d").pack

    def accept(t, y):
        if ti is not None:
            y[ti] = t
        record(t)
        extend(pack(*y))

    accept(t0, y)
    span = t1 - t0
    h = span / steps
    if method == "rk4":
        half, sixth = 0.5 * h, h / 6.0
        step = rk4_step(g, H)
        for k in range(1, steps + 1):
            y = step(y, h, half, sixth)
            accept(t0 + h * k, y)
    else:
        t, h_min = t0, 1e-14 * span
        # each stage calls dynamical_vf by the name bound here, so a
        # wrapper installed on that name sees every stage
        f = functools.partial(dynamical_vf, g, H)
        step = dp_step(g.dim)
        while t < t1 - h_min:
            h = min(h, t1 - t)
            y_new, err = step(y, h, f)
            ratio = _error_ratio(err, y, y_new, rtol, atol)
            if ratio <= 1.0:
                t, y = t + h, y_new
                accept(t, y)
            factor = (5.0 if ratio == 0.0
                      else min(5.0, max(0.2, 0.9 * ratio ** -0.2)))
            h = h * factor
            if h < h_min:
                raise StepFailure(
                    f"step size underflow at t = {t} (h = {h:.3e})")
    return Trajectory(times=np.frombuffer(times),
                      states=np.frombuffer(rows).reshape(-1, g.dim))


# ---------------------------------------------------------------------------
# drift statistics


@expr.quiet
def drift_report(traj, observables):
    """name -> ObservableDrift for the (name, f) pairs over the
    trajectory: each f maps the stack of stored states (T, d) to its
    (T,) values in one call, and its drift is the deviation from the
    initial value, whose slope is the module's closed-form one."""
    T = traj.states.shape[0]
    if T < 1:
        raise ValueError("trajectory has no states")
    if T > 1:   # the times, scaled to [0, 1] and centred
        span = traj.times[-1] - traj.times[0]
        c = (traj.times - traj.times[0]) / span
        c -= c.mean()
        norm = (c * c).sum()
    out = {}
    for name, fn in observables:
        vals = np.asarray(fn(traj.states), dtype=float)
        if vals.shape != (T,):
            raise ValueError(f"observable {name!r} gave shape {vals.shape} "
                             f"for {T} states")
        f0 = vals[0]
        drift = vals - f0
        max_abs = float(np.max(np.abs(drift)))
        rel = max_abs / max(abs(f0), 1.0)
        # numpy's pairwise sums: a BLAS dot's threads and kernels vary
        slope = float((c * drift).sum() / norm / span) if T > 1 else 0.0
        out[name] = ObservableDrift(initial=float(f0), max_abs_drift=max_abs,
                                    max_rel_drift=rel, slope=slope)
    return out


# ---------------------------------------------------------------------------
# Lie derivative of S along the dynamical field


@expr.quiet
def lie_derivative_S(F, H, x):
    """(L_V S)^A_B = V^n dS^A_B/dx^n - S^n_B dV^A/dx^n + S^A_n dV^n/dx^B
    with V the dynamical field of H on F.geometry, over the full chart,
    at one state or a stack of states, or F's Jets at them.

    The geometry is F's: a function takes it only where no other
    argument carries it (F does, an Expression does not).  S and dS
    come from stensor.s_and_ds; H on another chart than F's raises
    ValueError from geometry.dynamical_vf_jacobian.
    """
    jets = transform.Jets.of(F, x)
    S, dS = stensor.s_and_ds(F, jets)
    V, dV = dynamical_vf_jacobian(F.geometry, H, jets.x)
    return np.einsum("...n,...nab->...ab", V, dS) - dV @ S + S @ dV
