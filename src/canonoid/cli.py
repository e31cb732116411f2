"""Experiment runner: JSON config in, JSON report and CSV series out.

Configs are validated against a versioned schema (``"schema": 1``); any
violation raises ConfigError naming the offending field by its dotted
path.  Checks execute in dependency order

    canonical, canonoid, traces, torsion, lenard, involution,
    lie_derivative

and the report records one entry per requested check with a verdict in
{pass, fail, not-applicable} plus the measured residual.

Determinism: sampling uses xorshift64*, a fixed 64-bit generator (state
update x ^= x >> 12; x ^= x << 25; x ^= x >> 27; output is the state
times 2685821657736338717 mod 2^64; uniforms take the top 53 bits).
Seed 0 is remapped to 0x9E3779B97F4A7C15 because the all-zero state is
a fixed point.  Identical config and seed give byte-identical
report.json; wall-clock timestamps go to a separate meta file so they
never perturb the report bytes.

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 configuration or execution error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, dynamics, stensor, transform
from .geometry import KINDS, GeometryKind
from .stensor import SingularPullback
from .transform import TransformMap

__all__ = [
    "ConfigError",
    "CheckError",
    "ExperimentConfig",
    "Xorshift64Star",
    "load_config",
    "validate_config",
    "draw_samples",
    "trace_observables",
    "run",
    "main",
    "CHECK_NAMES",
    "STRUCTURAL_CHECKS",
    "DEFAULT_TOLERANCES",
]

CHECK_NAMES = ("canonical", "canonoid", "traces", "torsion", "lenard",
               "involution", "lie_derivative")
STRUCTURAL_CHECKS = ("canonical", "canonoid", "torsion", "lenard",
                     "involution", "lie_derivative")
DEFAULT_TOLERANCES = {
    "canonical": 1e-8,
    "canonoid": 1e-8,
    "drift": 1e-7,
    "torsion": 1e-10,
    "lenard": 1e-8,
    "involution": 1e-8,
    "lie_derivative": 1e-8,
}
DEFAULT_KMAX = 4
DEFAULT_SAMPLE_COUNT = 25

_MASK64 = (1 << 64) - 1
_XS_MULT = 2685821657736338717
_ZERO_SEED_SUBSTITUTE = 0x9E3779B97F4A7C15


class ConfigError(ValueError):
    """Configuration rejected; the message starts with the dotted path
    of the offending field."""


class CheckError(RuntimeError):
    """A check failed to execute (as opposed to failing its verdict)."""

    def __init__(self, check, cause):
        super().__init__(f"check '{check}' failed to execute: {cause}")
        self.check = check
        self.cause = cause


class Xorshift64Star:
    """Deterministic cross-platform sample generator."""

    def __init__(self, seed):
        s = int(seed) & _MASK64
        if s == 0:
            s = _ZERO_SEED_SUBSTITUTE
        self.state = s

    def next_u64(self):
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _XS_MULT) & _MASK64

    def uniform(self):
        # top 53 bits scaled into [0, 1)
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_in(self, lo, hi):
        return lo + (hi - lo) * self.uniform()


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: GeometryKind
    hamiltonian: object
    transform: TransformMap
    sample_box: dict
    sample_count: int
    seed: int
    checks: tuple
    kmax: int
    trajectory: dict | None
    tolerances: dict


# ---------------------------------------------------------------------------
# config loading and validation


def _require(data, field, kind, path):
    if field not in data:
        raise ConfigError(f"{path or field}: missing required field")
    value = data[field]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path or field}: expected {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _number(value, path):
    """value as a finite float.  json reads Infinity and NaN, and --tol
    reads inf and nan, but no field means anything with them: an
    infinite tolerance would pass every check."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        value = float(value)
    except OverflowError:   # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value}")
    return value


def validate_config(data):
    """Dict -> ExperimentConfig, raising ConfigError with the dotted
    path of the first offending field."""
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be an object")
    schema = _require(data, "schema", int, "schema")
    if schema != 1:
        raise ConfigError(f"schema: unsupported version {schema}")

    geo = _require(data, "geometry", dict, "geometry")
    kind = _require(geo, "kind", str, "geometry.kind")
    if kind not in KINDS:
        raise ConfigError(f"geometry.kind: must be one of {list(KINDS)}")
    n = _require(geo, "n", int, "geometry.n")
    if isinstance(n, bool) or n < 1:
        raise ConfigError("geometry.n: must be a positive integer")
    g = GeometryKind(kind, n)

    ham_src = _require(data, "hamiltonian", str, "hamiltonian")
    try:
        H = g.parse(ham_src)
    except Exception as e:
        raise ConfigError(f"hamiltonian: {e}") from e

    tr_map = _require(data, "transform", dict, "transform")
    for name, src in tr_map.items():
        if not isinstance(src, str):
            raise ConfigError(f"transform.{name}: expected string")
    try:
        F = TransformMap.parse(g, tr_map)
    except Exception as e:
        raise ConfigError(f"transform: {e}") from e

    box_raw = _require(data, "sample_box", dict, "sample_box")
    box = {}
    for name in g.chart_vars:
        if name not in box_raw:
            raise ConfigError(f"sample_box.{name}: missing range")
        rng = box_raw[name]
        if (not isinstance(rng, (list, tuple)) or len(rng) != 2):
            raise ConfigError(f"sample_box.{name}: expected [lo, hi]")
        lo = _number(rng[0], f"sample_box.{name}")
        hi = _number(rng[1], f"sample_box.{name}")
        if not hi > lo:
            raise ConfigError(f"sample_box.{name}: need lo < hi")
        box[name] = (lo, hi)
    extra = [k for k in box_raw if k not in g.chart_vars]
    if extra:
        raise ConfigError(f"sample_box: unexpected key(s) {extra}")

    count = data.get("sample_count", DEFAULT_SAMPLE_COUNT)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError("sample_count: must be a positive integer")

    seed = _require(data, "seed", int, "seed")
    if isinstance(seed, bool):
        raise ConfigError("seed: must be an integer")

    checks_raw = data.get("checks", list(CHECK_NAMES))
    if not isinstance(checks_raw, list) or not checks_raw:
        raise ConfigError("checks: expected a non-empty list")
    for c in checks_raw:
        if c not in CHECK_NAMES:
            raise ConfigError(f"checks: unknown check '{c}'")
    # dependency order regardless of listing order
    checks = tuple(c for c in CHECK_NAMES if c in checks_raw)

    kmax = data.get("kmax", DEFAULT_KMAX)
    if isinstance(kmax, bool) or not isinstance(kmax, int) \
            or not 1 <= kmax <= stensor.KMAX_LIMIT:
        raise ConfigError(f"kmax: must be an integer in 1..{stensor.KMAX_LIMIT}")

    traj = data.get("trajectory")
    if traj is not None:
        if not isinstance(traj, dict):
            raise ConfigError("trajectory: expected an object")
        x0 = _require(traj, "x0", list, "trajectory.x0")
        if len(x0) != g.dim:
            raise ConfigError(
                f"trajectory.x0: expected {g.dim} coordinates, got {len(x0)}")
        x0 = [_number(v, "trajectory.x0") for v in x0]
        span = _require(traj, "t_span", list, "trajectory.t_span")
        if len(span) != 2:
            raise ConfigError("trajectory.t_span: expected [t0, t1]")
        t0 = _number(span[0], "trajectory.t_span")
        t1 = _number(span[1], "trajectory.t_span")
        if not t1 > t0:
            raise ConfigError("trajectory.t_span: need t0 < t1")
        steps = _require(traj, "steps", int, "trajectory.steps")
        if isinstance(steps, bool) or steps < 1:
            raise ConfigError("trajectory.steps: must be a positive integer")
        method = traj.get("method", "rk4")
        if method not in dynamics.METHODS:
            raise ConfigError(
                f"trajectory.method: must be one of {list(dynamics.METHODS)}")
        if g.t_index is not None and abs(x0[g.t_index] - t0) > 1e-9:
            raise ConfigError(
                "trajectory.x0: t coordinate must equal t_span[0]")
        traj = {"x0": x0, "t_span": (t0, t1), "steps": steps,
                "method": method}
    if "traces" in checks and traj is None:
        raise ConfigError("trajectory: required when 'traces' is requested")

    tol = dict(DEFAULT_TOLERANCES)
    tol_raw = data.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise ConfigError("tolerances: expected an object")
    for key, value in tol_raw.items():
        if key not in DEFAULT_TOLERANCES:
            raise ConfigError(f"tolerances.{key}: unknown tolerance")
        v = _number(value, f"tolerances.{key}")
        if v <= 0:
            raise ConfigError(f"tolerances.{key}: must be positive")
        tol[key] = v

    known = {"schema", "geometry", "hamiltonian", "transform", "sample_box",
             "sample_count", "seed", "checks", "kmax", "trajectory",
             "tolerances"}
    unknown = [k for k in data if k not in known]
    if unknown:
        raise ConfigError(f"config: unknown field(s) {unknown}")

    return ExperimentConfig(geometry=g, hamiltonian=H, transform=F,
                            sample_box=box, sample_count=count,
                            seed=int(seed), checks=checks, kmax=kmax,
                            trajectory=traj, tolerances=tol)


def load_config(path, kmax=None, tol=None, seed=None):
    """(ExperimentConfig, config hash) for the JSON file at path, with
    the --kmax/--tol/--seed overrides written into the raw dict before
    validation.  The hash covers the canonical JSON of that effective
    dict and the tool version, so outputs are reused only under the
    same effective config."""
    try:
        data = json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON ({e})") from e
    if isinstance(data, dict):
        if kmax is not None:
            data["kmax"] = kmax
        if tol is not None:
            data["tolerances"] = dict.fromkeys(DEFAULT_TOLERANCES, tol)
        if seed is not None:
            data["seed"] = seed
    cfg = validate_config(data)
    effective = json.dumps({"config": data, "tool_version": __version__},
                           sort_keys=True)
    return cfg, hashlib.sha256(effective.encode()).hexdigest()


# ---------------------------------------------------------------------------
# sampling and observables


def draw_samples(g, box, count, seed):
    """count points, coordinates drawn in chart order from the box."""
    rng = Xorshift64Star(seed)
    out = np.zeros((count, g.dim))
    for i in range(count):
        for j, name in enumerate(g.chart_vars):
            lo, hi = box[name]
            out[i, j] = rng.uniform_in(lo, hi)
    return out


def trace_observables(g, F, kmax):
    """(name, evaluator) pairs for tr(S^k), k = 1..kmax.  An evaluator
    maps a stack of states (T, d) to (T,) values; all of them share one
    trace computation per stack."""
    cache = {}

    def table(X):
        key = X.tobytes()
        if key not in cache:
            cache[key] = stensor.trace_powers(g, F, X, kmax)
        return cache[key]

    return [(f"trS{k}", lambda X, k=k: table(X)[:, k - 1])
            for k in range(1, kmax + 1)]


# ---------------------------------------------------------------------------
# individual checks


def _entry(cfg, tol_name, residual, **details):
    """A check's report entry: its verdict on residual against the
    tolerance tol_name, the residual and the tolerance, plus details."""
    tol = cfg.tolerances[tol_name]
    return {"verdict": "pass" if residual <= tol else "fail",
            "residual": residual, "tolerance": tol, **details}


def _check_canonical(cfg, samples):
    res = transform.check_canonical(cfg.geometry, cfg.transform, samples,
                                    tol=cfg.tolerances["canonical"])
    return _entry(cfg, "canonical", float(res.max_residual))


def _check_canonoid(cfg, jets):
    res = transform.check_canonoid(cfg.geometry, cfg.transform,
                                   cfg.hamiltonian, jets,
                                   tol=cfg.tolerances["canonoid"])
    return _entry(
        cfg, "canonoid", float(res.max_residual),
        components={k: float(v) for k, v in res.components.items()},
        K_probe=None if res.K_probe is None else res.K_probe.tolist())


def _check_traces(cfg, out_dir):
    g = cfg.geometry
    tr = cfg.trajectory
    traj = dynamics.integrate(g, cfg.hamiltonian, tr["x0"], tr["t_span"],
                              tr["steps"], tr["method"])
    obs = trace_observables(g, cfg.transform, cfg.kmax)
    rep = dynamics.drift_report(traj, obs)
    if out_dir is not None:
        _write_csv(out_dir / "invariants.csv", traj, obs)
    worst = float(transform.fold_max(
        [d.max_rel_drift for d in rep.observables.values()], "observable"))
    drift = {name: asdict(d) for name, d in rep.observables.items()}
    return _entry(cfg, "drift", worst, method=tr["method"],
                  steps=tr["steps"], drift=drift)


def _check_torsion(cfg, jets):
    N = stensor.nijenhuis_torsion(cfg.geometry, cfg.transform, jets)
    rows = np.abs(N).reshape(len(jets), -1)
    return _entry(cfg, "torsion",
                  float(transform.fold_max(np.max(rows, axis=1))))


def _check_lenard(cfg, jets):
    kmax = max(1, min(3, cfg.kmax - 1))
    worst_k = transform.fold_max(stensor.lenard_identity_residual(
        cfg.geometry, cfg.transform, jets, kmax))
    per_k = {str(k): float(r) for k, r in enumerate(worst_k, start=1)}
    return _entry(cfg, "lenard", max(per_k.values()), per_k=per_k)


def _check_involution(cfg, jets):
    try:
        res = stensor.involution_matrix(cfg.geometry, cfg.transform, jets,
                                        cfg.kmax)
    except SingularPullback as e:
        return {
            "verdict": "not-applicable",
            "residual": None,
            "tolerance": cfg.tolerances["involution"],
            "detail": str(e),
        }
    unb = float(np.max(res.unbarred))
    brd = float(np.max(res.barred))
    # involution_matrix rejects non-finite brackets
    return _entry(cfg, "involution", max(unb, brd), unbarred_max=unb,
                  barred_max=brd, skipped=res.skipped,
                  max_condition=float(res.max_condition))


def _check_lie_derivative(cfg, jets):
    g = cfg.geometry
    ti = g.t_index
    lie = np.abs(dynamics.lie_derivative_S(g, cfg.transform, cfg.hamiltonian,
                                           jets))
    if ti is None:
        cols = [np.max(lie, axis=(1, 2)), np.zeros(len(jets))]
    else:
        # the dt-column is the one slot a time-dependent K may
        # legitimately occupy; measured separately
        cols = [np.max(np.delete(lie, ti, axis=2), axis=(1, 2)),
                np.max(lie[:, :, ti], axis=1)]
    worst, t_col = map(float, transform.fold_max(np.stack(cols, axis=1)))
    return _entry(cfg, "lie_derivative", worst,
                  time_column_max=t_col if ti is not None else None)


def _run_checks(cfg, names, out_dir):
    results = {}
    samples = draw_samples(cfg.geometry, cfg.sample_box, cfg.sample_count,
                           cfg.seed)
    # F's jets at the samples, shared by every structural check but
    # canonical; the one sweep runs in the first check that reads them
    jets = transform.Jets(cfg.transform, samples)
    runners = {
        "canonical": lambda: _check_canonical(cfg, samples),
        "canonoid": lambda: _check_canonoid(cfg, jets),
        "traces": lambda: _check_traces(cfg, out_dir),
        "torsion": lambda: _check_torsion(cfg, jets),
        "lenard": lambda: _check_lenard(cfg, jets),
        "involution": lambda: _check_involution(cfg, jets),
        "lie_derivative": lambda: _check_lie_derivative(cfg, jets),
    }
    for name in CHECK_NAMES:
        if name not in names:
            continue
        try:
            results[name] = runners[name]()
        except Exception as e:
            raise CheckError(name, e) from e
    return results


# ---------------------------------------------------------------------------
# output


def _write_csv(path, traj, observables):
    table = np.column_stack(
        [traj.times] + [fn(traj.states) for _, fn in observables])
    with open(path, "w") as out:
        out.write("time," + ",".join(name for name, _ in observables) + "\n")
        # row by row from Python floats: neither whole columns as lists
        # nor the whole text are ever held at once
        for row in table:
            out.write(",".join([f"{v:.17g}" for v in row.tolist()]) + "\n")


def _report_dict(cfg, config_hash, results):
    return {
        "schema": 1,
        "tool_version": __version__,
        "config_hash": config_hash,
        "geometry": {"kind": cfg.geometry.kind, "n": cfg.geometry.n},
        "seed": cfg.seed,
        "kmax": cfg.kmax,
        "sample_count": cfg.sample_count,
        "executed": [n for n in CHECK_NAMES if n in results],
        "checks": results,
    }


def _write_json(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_meta(out_dir, name):
    meta = {"written_at": datetime.datetime.now(datetime.timezone.utc)
            .isoformat()}
    _write_json(out_dir / f"{name}_meta.json", meta)


def _exit_code(results):
    return 1 if any(r.get("verdict") == "fail" for r in results.values()) \
        else 0


def run(config_path, out_dir, kmax=None, tol=None, seed=None):
    """Full pipeline: all requested checks, report.json plus CSV output.
    Returns the report dict; files land in out_dir."""
    cfg, config_hash = load_config(config_path, kmax=kmax, tol=tol, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = _run_checks(cfg, cfg.checks, out)
    report = _report_dict(cfg, config_hash, results)
    _write_json(out / "report.json", report)
    _write_meta(out, "report")
    return report


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(cfg, config_hash, out):
    names = tuple(c for c in cfg.checks if c in STRUCTURAL_CHECKS)
    results = _run_checks(cfg, names, out)
    _write_json(out / "check.json", _report_dict(cfg, config_hash, results))
    return _exit_code(results)


def _cmd_integrate(cfg, config_hash, out):
    if cfg.trajectory is None:
        raise ConfigError("trajectory: required for 'integrate'")
    g = cfg.geometry
    tr = cfg.trajectory
    traj = dynamics.integrate(g, cfg.hamiltonian, tr["x0"], tr["t_span"],
                              tr["steps"], tr["method"])
    coords = [(name, lambda X, j=j: X[:, j])
              for j, name in enumerate(g.chart_vars)]
    _write_csv(out / "trajectory.csv", traj, coords)
    return 0


def _cmd_invariants(cfg, config_hash, out):
    if cfg.trajectory is None:
        raise ConfigError("trajectory: required for 'invariants'")
    results = _run_checks(cfg, ("traces",), out)
    _write_json(out / "invariants.json",
                _report_dict(cfg, config_hash, results))
    return _exit_code(results)


def _cmd_report(cfg, config_hash, out):
    """Merge prior check/invariants outputs when present and consistent
    with this config; compute whatever is missing."""
    results = {}
    for fname in ("check.json", "invariants.json"):
        path = out / fname
        if not path.exists():
            continue
        try:
            prior = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        if prior.get("config_hash") != config_hash:
            continue
        for name, entry in prior.get("checks", {}).items():
            if name in cfg.checks:
                results[name] = entry
    missing = tuple(c for c in cfg.checks if c not in results)
    results.update(_run_checks(cfg, missing, out))
    report = _report_dict(cfg, config_hash, results)
    _write_json(out / "report.json", report)
    _write_meta(out, "report")
    return _exit_code(results)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="canonoid",
        description="verify canonical/canonoid transformations and their "
                    "conserved quantities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("check", "run the structural checks only"),
            ("integrate", "integrate the configured trajectory to CSV"),
            ("invariants", "integrate and measure trace drift"),
            ("report", "run everything and write the merged report")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        p.add_argument("--kmax", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    commands = {
        "check": _cmd_check,
        "integrate": _cmd_integrate,
        "invariants": _cmd_invariants,
        "report": _cmd_report,
    }
    try:
        cfg, config_hash = load_config(args.config, kmax=args.kmax,
                                       tol=args.tol, seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return commands[args.command](cfg, config_hash, out)
    except (ConfigError, CheckError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
