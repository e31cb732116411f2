"""In-process tracing of canonoid's public layer functions.

``Tracer`` wraps each function named in ``LAYERS``. It installs the
wrapper under every name that binds the function in any canonoid module,
because some modules import a function by name (``dynamics`` binds
``dynamical_vf`` itself), so patching the defining module alone would miss
their calls. ``remove`` puts every original back.

Per function it records calls, total time and self time (total minus the
time spent in wrapped callees). A few calls are also observed, to measure
ratios where the work happens; see ``Tracer.metrics``.
"""

from __future__ import annotations

import functools
import inspect
import time

import numpy as np

LAYERS = {
    "cli": ("load_config", "draw_samples", "main"),
    "expr": ("parse", "evaluate", "gradient", "value_and_derivatives"),
    "geometry": ("dynamical_vf", "dynamical_vf_jacobian",
                 "hamiltonian_vf_jacobian", "structure_at_point"),
    "transform": ("jacobian_and_hessians", "lagrange_brackets",
                  "lagrange_derivative", "check_canonical", "check_canonoid",
                  "recover_K"),
    "stensor": ("s_tensor", "trace_powers", "nijenhuis_torsion",
                "lenard_identity_residual", "involution_matrix"),
    "dynamics": ("integrate", "drift_report", "lie_derivative_S"),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)
# Name -> unit of every ratio and count besides the per-function ones.
RATIOS = {
    "transform.jacobian_and_hessians.distinct_point_ratio": "ratio",
    "dynamics.rk.steps_accepted": "count",
    "dynamics.rk45.accept_ratio": "ratio",
    "cli.trace_cache.hit_ratio": "ratio",
    "stensor.involution.skipped_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
# Stages of one Dormand-Prince step: each attempt calls the field 7 times.
DP_STAGES = 7


def metric_units():
    """Every metric name a traced run emits, with its unit."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
        units[f"{name}.total_ms"] = "ms"
    units.update(RATIOS)
    return units


def _argument(fn, args, kwargs, name):
    """The value `fn(*args, **kwargs)` receives as parameter `name`."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _ratio(num, den):
    return num / den if den else 0.0


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Wraps the ``LAYERS`` functions of the given canonoid modules.

    ``modules`` maps each short module name (``"cli"``, ``"expr"``, ...)
    to the imported module. Use as a context manager, or call
    ``install`` and ``remove``.
    """

    def __init__(self, modules):
        self.modules = modules
        self.stats = {name: _Stat() for name in FUNCTIONS}
        self._stack = []
        self._patched = []
        self._points = set()
        self._transforms = {}
        self._rk45_accepted = 0
        self._rk45_field_calls = 0
        self._rk_accepted = 0
        self._obs_evals = 0
        self._obs_depth = 0
        self._obs_trace_calls = 0
        self._inv_samples = 0
        self._inv_skipped = 0
        self._observers = {
            "transform.jacobian_and_hessians": self._observe_points,
            "dynamics.integrate": self._observe_integrate,
            "stensor.involution_matrix": self._observe_involution,
            "stensor.trace_powers": self._observe_trace_powers,
        }

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        # cli.trace_observables is wrapped only to count observable
        # evaluations for the trace-cache hit ratio; it is not timed.
        self._orig_observables = self.modules["cli"].trace_observables
        self._patch_everywhere(self._orig_observables,
                               self._counting_observables)
        for mod_name, funcs in LAYERS.items():
            for func in funcs:
                orig = getattr(self.modules[mod_name], func)
                self._patch_everywhere(orig,
                                       self._wrap(f"{mod_name}.{func}", orig))
        return self

    def _patch_everywhere(self, orig, wrapper):
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, orig))

    def remove(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        observer = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                if observer is None:
                    return fn(*args, **kwargs)
                return observer(fn, args, kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def _counting_observables(self, *args, **kwargs):
        return [(name, self._count_evals(fn))
                for name, fn in self._orig_observables(*args, **kwargs)]

    def _count_evals(self, fn):
        def evaluator(x):
            self._obs_evals += 1
            self._obs_depth += 1
            try:
                return fn(x)
            finally:
                self._obs_depth -= 1
        return evaluator

    def _observe_points(self, fn, args, kwargs):
        # A point is distinct per transform; holding the transform keeps
        # its id from being reused by a later one.
        F = _argument(fn, args, kwargs, "F")
        self._transforms[id(F)] = F
        x = np.asarray(_argument(fn, args, kwargs, "x"), dtype=float)
        self._points.add((id(F), x.tobytes()))
        return fn(*args, **kwargs)

    def _observe_integrate(self, fn, args, kwargs):
        field = self.stats["geometry.dynamical_vf"]
        before = field.calls
        traj = fn(*args, **kwargs)
        accepted = len(traj.times) - 1
        self._rk_accepted += accepted
        if _argument(fn, args, kwargs, "method") == "rk45-adaptive":
            self._rk45_accepted += accepted
            self._rk45_field_calls += field.calls - before
        return traj

    def _observe_involution(self, fn, args, kwargs):
        res = fn(*args, **kwargs)
        self._inv_samples += len(_argument(fn, args, kwargs, "samples"))
        self._inv_skipped += res.skipped
        return res

    def _observe_trace_powers(self, fn, args, kwargs):
        if self._obs_depth:
            self._obs_trace_calls += 1
        return fn(*args, **kwargs)

    # -- results -----------------------------------------------------------

    def metrics(self, traced_wall, untraced_wall):
        """Name -> value for every name in ``metric_units()``."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_ms"] = stat.self * 1e3
            out[f"{name}.total_ms"] = stat.total * 1e3
        jh_calls = self.stats["transform.jacobian_and_hessians"].calls
        out["transform.jacobian_and_hessians.distinct_point_ratio"] = \
            _ratio(len(self._points), jh_calls)
        out["dynamics.rk.steps_accepted"] = self._rk_accepted
        out["dynamics.rk45.accept_ratio"] = _ratio(
            self._rk45_accepted, self._rk45_field_calls / DP_STAGES)
        out["cli.trace_cache.hit_ratio"] = (
            1.0 - _ratio(self._obs_trace_calls, self._obs_evals)
            if self._obs_evals else 0.0)
        out["stensor.involution.skipped_ratio"] = _ratio(
            self._inv_skipped, self._inv_samples)
        out["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall) - 1.0
        return out
