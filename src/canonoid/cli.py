"""Experiment runner: JSON config in, JSON report and CSV series out.

Configs are validated against a versioned schema (``"schema": 1``); any
violation raises ConfigError naming the offending field by its dotted
path.  One table, _CHECKS, holds each check once, in dependency order,
with its tolerance key, its default tolerance and its runner;
CHECK_NAMES, STRUCTURAL_CHECKS and DEFAULT_TOLERANCES are read off it.
Checks run in that order whatever order the config lists them in, and
_entry builds each one's report entry: a verdict in {pass, fail,
not-applicable} and the measured residual.

Every command, and run(), goes through one runner, _execute, from a
config file to the command's file in the output directory (COMMANDS
names them): check.json holds the structural checks the config
requests, trajectory.csv the integrated states, invariants.json the
traces check, and report.json every requested check.  report, and
run() with it, reuses an entry of check.json or invariants.json only
if it was written under the same config hash and _entry could have
built it under that config; it computes the rest.

Determinism: sampling uses xorshift64*, a fixed 64-bit generator (state
update x ^= x >> 12; x ^= x << 25; x ^= x >> 27; output is the state
times 2685821657736338717 mod 2^64; uniforms take the top 53 bits).
A seed is an integer in 0..2^64-1, so that no two seeds share a state.
Seed 0 is remapped to 0x9E3779B97F4A7C15 because the all-zero state is
a fixed point.  Identical config and seed give byte-identical
report.json; wall-clock timestamps go to a separate meta file so they
never perturb the report bytes.

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless it is
already set, so a CLI process starts numpy without an OpenBLAS worker
thread it would never use; once numpy has loaded it removes the
variable again if it set it.

The module runs its imports with the garbage collector off, so that
numpy's import-time heap is built without some thirty collections over
it; it then moves the heap to the oldest generation without reading it
and turns the collector back on if it was on.  A CLI process enters
through console(), which freezes that heap before it runs main(), so
that the collections during the run skip it, and then ends the process
with os._exit once its streams are flushed, so that the interpreter
does not tear the heap down object by object; under a tracer or a
profiler it exits normally instead, so that their exit hooks run.
Importing this module and calling main() leave the collector's setting
and the objects it has frozen as they find them.

The command line is read with getopt: the command word, then the
options of _OPTIONS, each as --name VALUE or --name=VALUE or by a
unique prefix of its name; -h or --help prints the help to stdout.

Exit codes: 0 all requested checks pass (and --help), 1 at least one
check failed, 2 usage, configuration or execution error, a config file
that does not decode as JSON and a trajectory that integrate cannot
finish included.
"""

from __future__ import annotations

import gc

# `import numpy` allocates some 22,000 objects, nearly all of which live
# as long as the process, and the collector would traverse them about
# thirty times while they arrive.  So the imports run with the collector
# off, and the importer's setting comes back afterwards.
_collecting = gc.isenabled()
gc.disable()
try:
    import datetime
    import getopt
    import json
    import math
    import os
    import sys
    from pathlib import Path

    # The config hash is the one SHA-256 a run takes, and hashlib would
    # map OpenSSL's libcrypto for it, some 3 MB resident and a few ms of
    # import.  CPython's own module gives the same digest: _sha256 on
    # 3.10-3.11, _sha2 from 3.12.  A build without either falls back.
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256

    # canonoid's matrices are at most (2n+2) x (2n+2) per sample, far
    # too small for a threaded BLAS to pay off, yet OpenBLAS starts a
    # worker thread at `import numpy`, and that worker costs about as
    # much CPU as the import itself.  So the CLI asks for one thread
    # before numpy loads, and takes the request back once it has:
    # OpenBLAS reads it only at load, and a program that imports
    # canonoid.cli keeps its environment.  A user's own
    # OPENBLAS_NUM_THREADS wins and stays.
    _blas_unset = "OPENBLAS_NUM_THREADS" not in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    import numpy as np

    if _blas_unset:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)

    from . import __version__, dynamics, expr, stensor, transform
    from .geometry import KINDS, GeometryKind
    from .stensor import SingularPullback
    from .transform import TransformMap
finally:
    if _collecting:
        # All those objects are still in the youngest generation, which
        # the first allocation after gc.enable() would collect, reading
        # every one of them.  freeze() and unfreeze() move them to the
        # oldest generation unread, unless the importer has frozen
        # objects of its own, which unfreeze() would thaw.
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        gc.enable()

__all__ = [
    "ConfigError",
    "ExecutionError",
    "CheckError",
    "ExperimentConfig",
    "Xorshift64Star",
    "load_config",
    "validate_config",
    "draw_samples",
    "trace_observables",
    "run",
    "main",
    "console",
    "CHECK_NAMES",
    "STRUCTURAL_CHECKS",
    "DEFAULT_TOLERANCES",
]

DEFAULT_KMAX = 4
DEFAULT_SAMPLE_COUNT = 25
# rows of invariants.csv formatted per write
CSV_BLOCK_ROWS = 256

_MASK64 = (1 << 64) - 1
_XS_MULT = 2685821657736338717
_ZERO_SEED_SUBSTITUTE = 0x9E3779B97F4A7C15


class ConfigError(ValueError):
    """Configuration rejected; the message starts with the dotted path
    of the offending field."""


class ExecutionError(RuntimeError):
    """A command failed to execute (as opposed to failing a verdict)."""


class CheckError(ExecutionError):
    """A check failed to execute."""

    def __init__(self, check, cause):
        super().__init__(f"check '{check}' failed to execute: {cause}")
        self.check = check
        self.cause = cause


class Xorshift64Star:
    """Deterministic cross-platform sample generator."""

    def __init__(self, seed):
        s = int(seed)
        if not 0 <= s <= _MASK64:
            # masked to 64 bits, two seeds would draw one sample set
            raise ValueError(f"seed {s} outside 0..2^64-1")
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


class ExperimentConfig(expr.Record):
    __slots__ = ("geometry", "hamiltonian", "transform", "sample_box",
                 "sample_count", "seed", "checks", "kmax", "trajectory",
                 "tolerances")


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


def _interval(pair, path, lo, hi):
    """The two finite numbers of pair, increasing, whose width hi - lo
    is a float too: no draw or step in a wider range is finite."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ConfigError(f"{path}: expected [{lo}, {hi}]")
    a, b = (_number(v, path) for v in pair)
    if not b > a:
        raise ConfigError(f"{path}: need {lo} < {hi}")
    if not math.isfinite(b - a):
        raise ConfigError(f"{path}: {hi} - {lo} overflows")
    return a, b


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
    extra = [k for k in geo if k not in ("kind", "n")]
    if extra:
        raise ConfigError(f"geometry: unexpected key(s) {extra}")
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
        box[name] = _interval(box_raw[name], f"sample_box.{name}", "lo", "hi")
    extra = [k for k in box_raw if k not in g.chart_vars]
    if extra:
        raise ConfigError(f"sample_box: unexpected key(s) {extra}")

    count = data.get("sample_count", DEFAULT_SAMPLE_COUNT)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise ConfigError("sample_count: must be a positive integer")

    seed = _require(data, "seed", int, "seed")
    if isinstance(seed, bool) or not 0 <= seed <= _MASK64:
        raise ConfigError("seed: must be an integer in 0..2^64-1")

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
        t0, t1 = _interval(span, "trajectory.t_span", "t0", "t1")
        steps = _require(traj, "steps", int, "trajectory.steps")
        if isinstance(steps, bool) or steps < 1:
            raise ConfigError("trajectory.steps: must be a positive integer")
        method = traj.get("method", "rk4")
        if method not in dynamics.METHODS:
            raise ConfigError(
                f"trajectory.method: must be one of {list(dynamics.METHODS)}")
        if (g.t_index is not None
                and abs(x0[g.t_index] - t0) > dynamics.T0_MATCH_TOL):
            raise ConfigError(
                "trajectory.x0: t coordinate must equal t_span[0]")
        extra = [k for k in traj
                 if k not in ("x0", "t_span", "steps", "method")]
        if extra:
            raise ConfigError(f"trajectory: unexpected key(s) {extra}")
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

    unknown = [k for k in data
               if k != "schema" and k not in ExperimentConfig.__slots__]
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
    except (ValueError, RecursionError) as e:
        # invalid JSON, invalid UTF-8, or nesting beyond the decoder's
        # recursion limit
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
    return cfg, sha256(effective.encode()).hexdigest()


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


def trace_observables(F, kmax):
    """(name, evaluator) pairs for tr(S^k), k = 1..kmax.  An evaluator
    maps a stack of states (T, d) to (T,) values; all of them share one
    trace computation per stack."""
    cache = {}

    def table(X):
        key = X.tobytes()
        if key not in cache:
            cache[key] = stensor.trace_powers(F, X, kmax)
        return cache[key]

    return [(f"trS{k}", lambda X, k=k: table(X)[:, k - 1])
            for k in range(1, kmax + 1)]


# ---------------------------------------------------------------------------
# individual checks


def _entry(cfg, name, residual, **details):
    """Check name's report entry: the verdict on residual against its
    tolerance (not-applicable if None), residual, tolerance, details."""
    tol = cfg.tolerances[_CHECKS[name][0]]
    verdict = ("not-applicable" if residual is None
               else "pass" if residual <= tol else "fail")
    return {"verdict": verdict, "residual": residual, "tolerance": tol,
            **details}


def _check_canonical(cfg, jets, out_dir):
    # an order-1 sweep of its own: canonical reads no Hessians
    res = transform.check_canonical(cfg.transform, jets.x)
    return float(res.max_residual), {}


def _check_canonoid(cfg, jets, out_dir):
    res = transform.check_canonoid(cfg.transform, cfg.hamiltonian, jets,
                                   tol=cfg.tolerances["canonoid"])
    return float(res.max_residual), {
        "components": {k: float(v) for k, v in res.components.items()},
        "K_probe": None if res.K_probe is None else res.K_probe.tolist()}


def _trajectory(cfg):
    # the trajectory dict's keys are integrate's parameter names
    return dynamics.integrate(cfg.geometry, cfg.hamiltonian, **cfg.trajectory)


def _check_traces(cfg, jets, out_dir):
    traj = _trajectory(cfg)
    obs = trace_observables(cfg.transform, cfg.kmax)
    rep = dynamics.drift_report(traj, obs)
    for name, d in rep.items():
        if not (math.isfinite(d.max_rel_drift) and math.isfinite(d.slope)):
            raise transform.NonFiniteResidual(
                f"non-finite residual at observable {name}")
    if out_dir is not None:
        _write_csv(out_dir / "invariants.csv", traj, obs)
    drift = {name: {key: getattr(d, key) for key in d.__slots__}
             for name, d in rep.items()}
    return float(max(d.max_rel_drift for d in rep.values())), {
        "method": cfg.trajectory["method"],
        "steps": cfg.trajectory["steps"], "drift": drift}


def _check_torsion(cfg, jets, out_dir):
    N = stensor.nijenhuis_torsion(cfg.transform, jets)
    rows = np.abs(N).reshape(len(jets), -1)
    return float(transform.fold_max(np.max(rows, axis=1))), {}


def _check_lenard(cfg, jets, out_dir):
    kmax = max(1, min(3, cfg.kmax - 1))
    worst_k = transform.fold_max(stensor.lenard_identity_residual(
        cfg.transform, jets, kmax))
    per_k = {str(k): float(r) for k, r in enumerate(worst_k, start=1)}
    return max(per_k.values()), {"per_k": per_k}


def _check_involution(cfg, jets, out_dir):
    try:
        res = stensor.involution_matrix(cfg.transform, jets, cfg.kmax)
    except SingularPullback as e:
        return None, {"detail": str(e)}
    unb = float(np.max(res.unbarred))
    brd = float(np.max(res.barred))
    # involution_matrix rejects non-finite brackets
    return max(unb, brd), {"unbarred_max": unb, "barred_max": brd,
                           "skipped": res.skipped,
                           "max_condition": float(res.max_condition)}


def _check_lie_derivative(cfg, jets, out_dir):
    ti = cfg.geometry.t_index
    lie = np.abs(dynamics.lie_derivative_S(cfg.transform, cfg.hamiltonian,
                                           jets))
    if ti is None:
        return float(transform.fold_max(np.max(lie, axis=(1, 2)))), {
            "time_column_max": None}
    # the dt-column is the one slot a time-dependent K may legitimately
    # occupy; measured separately
    cols = [np.max(np.delete(lie, ti, axis=2), axis=(1, 2)),
            np.max(lie[:, :, ti], axis=1)]
    worst, t_col = map(float, transform.fold_max(np.stack(cols, axis=1)))
    return worst, {"time_column_max": t_col}


# check: (tolerance key, default tolerance, runner), in dependency order.
# A runner maps (cfg, F's jets at the samples, output directory or None)
# to its residual and the details of its report entry.  traces is the
# one check that integrates; the others are structural.
_CHECKS = {
    "canonical": ("canonical", 1e-8, _check_canonical),
    "canonoid": ("canonoid", 1e-8, _check_canonoid),
    "traces": ("drift", 1e-7, _check_traces),
    "torsion": ("torsion", 1e-10, _check_torsion),
    "lenard": ("lenard", 1e-8, _check_lenard),
    "involution": ("involution", 1e-8, _check_involution),
    "lie_derivative": ("lie_derivative", 1e-8, _check_lie_derivative),
}
CHECK_NAMES = tuple(_CHECKS)
STRUCTURAL_CHECKS = tuple(c for c in CHECK_NAMES if c != "traces")
DEFAULT_TOLERANCES = {key: tol for key, tol, _ in _CHECKS.values()}


def _run_checks(cfg, names, out_dir):
    samples = draw_samples(cfg.geometry, cfg.sample_box, cfg.sample_count,
                           cfg.seed)
    # F's jets at the samples, shared by every structural check but
    # canonical; the one sweep runs in the first check that reads them
    jets = transform.Jets(cfg.transform, samples)
    results = {}
    for name, (_, _, runner) in _CHECKS.items():
        if name in names:
            try:
                residual, details = runner(cfg, jets, out_dir)
            except Exception as e:
                raise CheckError(name, e) from e
            results[name] = _entry(cfg, name, residual, **details)
    return results


# ---------------------------------------------------------------------------
# output


def _write_csv(path, traj, observables):
    table = np.column_stack(
        [traj.times] + [fn(traj.states) for _, fn in observables])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as out:
        out.write("time," + ",".join(name for name, _ in observables) + "\n")
        # one % operation per block of Python floats: neither whole
        # columns as lists nor the whole text are ever held at once
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            out.write(row * len(block) % tuple(block.ravel().tolist()))


def _write_json(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

# name: (help text, output file)
COMMANDS = {
    "check": ("run the structural checks only", "check.json"),
    "integrate": ("integrate the configured trajectory to CSV",
                  "trajectory.csv"),
    "invariants": ("integrate and measure trace drift", "invariants.json"),
    "report": ("run everything and write the merged report", "report.json"),
}


def _reusable(cfg, name, entry):
    """Whether _entry could have built the dict entry for check name
    under cfg: cfg's tolerance and a finite residual with the verdict
    the rule gives, or involution's not-applicable with a null one."""
    residual = entry.get("residual")
    if not (isinstance(residual, float) and 0.0 <= residual < math.inf
            or residual is None and name == "involution"):
        return False
    return entry == {**entry, **_entry(cfg, name, residual)}


def _prior_results(cfg, config_hash, out):
    """The entries of cfg.checks held by check.json and invariants.json
    in out, written under config_hash, that pass _reusable.  A file that
    is not a UTF-8 JSON object with an object "checks" is skipped."""
    results = {}
    for command in ("check", "invariants"):
        try:
            prior = json.loads((out / COMMANDS[command][1])
                               .read_text(encoding="utf-8"))
        except (FileNotFoundError, ValueError, RecursionError):
            continue
        if not isinstance(prior, dict) \
                or prior.get("config_hash") != config_hash \
                or not isinstance(prior.get("checks"), dict):
            continue
        results.update((name, entry) for name, entry in prior["checks"].items()
                       if name in cfg.checks and isinstance(entry, dict)
                       and _reusable(cfg, name, entry))
    return results


def _execute(command, config_path, out_dir, kmax=None, tol=None, seed=None):
    """Run command on the config at config_path, with the overrides, and
    write its output file into the directory out_dir, made if missing:
    (the report dict, None for integrate; exit code)."""
    cfg, config_hash = load_config(config_path, kmax=kmax, tol=tol, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / COMMANDS[command][1]
    if command in ("integrate", "invariants") and cfg.trajectory is None:
        raise ConfigError(f"trajectory: required for '{command}'")
    if command == "integrate":
        coords = [(name, lambda X, j=j: X[:, j])
                  for j, name in enumerate(cfg.geometry.chart_vars)]
        try:
            traj = _trajectory(cfg)
        except Exception as e:
            raise ExecutionError(f"integration failed: {e}") from e
        _write_csv(target, traj, coords)
        return None, 0
    results = {}
    if command == "check":
        names = [c for c in cfg.checks if c in STRUCTURAL_CHECKS]
    elif command == "invariants":
        names = ["traces"]
    else:
        results = _prior_results(cfg, config_hash, out)
        names = [c for c in cfg.checks if c not in results]
    results.update(_run_checks(cfg, names, out))
    report = {
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
    _write_json(target, report)
    if command == "report":
        _write_json(out / "report_meta.json", {
            "written_at": datetime.datetime.now(datetime.timezone.utc)
            .isoformat()})
    failed = any(r.get("verdict") == "fail" for r in results.values())
    return report, 1 if failed else 0


def run(config_path, out_dir, kmax=None, tol=None, seed=None):
    """`canonoid report` as a function: returns the report dict.  Files
    land in out_dir, where same-config prior outputs are reused."""
    return _execute("report", config_path, out_dir, kmax, tol, seed)[0]


# option: (type of its value, its metavar, help text); every option
# takes one value
_OPTIONS = {
    "config": (str, "PATH", "the JSON config (required)"),
    "out": (str, "DIR", "the output directory, made if missing "
                        "(default: out)"),
    "kmax": (int, "K", "override the config's kmax"),
    "tol": (float, "TOL", "set every tolerance"),
    "seed": (int, "SEED", "override the config's seed"),
}
_USAGE = ("usage: canonoid {" + ",".join(COMMANDS) + "} --config PATH\n"
          "                [--out DIR] [--kmax K] [--tol TOL] [--seed SEED]")


def _help():
    """The text that -h and --help print."""
    def table(rows):
        return [f"  {name:<14} {text}" for name, text in rows]

    options = [(f"--{name} {metavar}", text)
               for name, (_, metavar, text) in _OPTIONS.items()]
    return "\n".join([
        _USAGE, "", "verify canonical/canonoid transformations and their "
        "conserved quantities", "", "commands:",
        *table((name, text) for name, (text, _) in COMMANDS.items()), "",
        "options:", *table(options),
        *table([("-h, --help", "show this help and exit")])])


def _parse_argv(argv):
    """(command, {option: value}) of the list argv, None for -h or
    --help: the command word, then the options of _OPTIONS.  A usage
    error raises getopt.GetoptError."""
    command = argv[0] if argv else None
    opts, extra = getopt.getopt(argv[1:] if command in COMMANDS else argv,
                                "h", ["help", *(f"{n}=" for n in _OPTIONS)])
    if any(opt in ("-h", "--help") for opt, _ in opts):
        return None
    if command not in COMMANDS:
        got = "nothing" if command is None else repr(command)
        raise getopt.GetoptError(f"expected a command ({', '.join(COMMANDS)})"
                                 f" first, got {got}")
    if extra:
        raise getopt.GetoptError(f"unexpected argument {extra[0]!r}")
    values = {"out": "out"}
    for opt, arg in opts:
        name = opt[2:]
        kind = _OPTIONS[name][0]
        try:
            values[name] = kind(arg)
        except ValueError:
            raise getopt.GetoptError(
                f"option {opt}: invalid {kind.__name__} value {arg!r}") from None
    if "config" not in values:
        raise getopt.GetoptError("option --config is required")
    return command, values


def console(argv=None):
    """main(argv) as the process entry of `canonoid` and `python -m
    canonoid.cli`: it ends the process with main's exit code and does
    not return.  It freezes the heap once the imports are done, so that
    no collection during the run traverses numpy's import-time objects;
    collection stays enabled, so the cycles a run makes are still
    collected.  Once main has returned it flushes stdout and stderr and
    leaves through os._exit, which skips the interpreter's teardown of
    the heap and with it the atexit handlers.  Under a trace or profile
    function (cProfile, trace, coverage) it leaves through sys.exit
    instead, so that their exit hooks run.  An exception leaves through
    the interpreter as usual."""
    gc.freeze()
    code = main(argv)
    if sys.gettrace() is None and sys.getprofile() is None:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    sys.exit(code)


def main(argv=None):
    """The canonoid command line on argv (sys.argv[1:] if None): the
    exit code.  It leaves the garbage collector as it finds it, so tests
    and programs call it in-process; console() is the process entry.
    A usage error prints the usage and an error line to stderr and
    returns 2."""
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    except getopt.GetoptError as e:
        print(f"{_USAGE}\nerror: {e}", file=sys.stderr)
        return 2
    if parsed is None:
        print(_help())
        return 0
    command, values = parsed
    try:
        return _execute(command, values.pop("config"), values.pop("out"),
                        **values)[1]
    except (ConfigError, ExecutionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    console()
