"""Output oracle: decides whether one CLI run of a benchmark job is correct.

A run fails when its exit code, any verdict, or any expected output file
differs from what the job's config family must give, or when any number in
its report is not finite. The benchmark checks finiteness itself because
the program can fold a NaN residual into ``pass 0.0``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from workloads import (COMMAND_OUTPUT, EXPECTED_EXIT, EXPECTED_VERDICT,
                       STRUCTURAL)


@dataclass
class Outcome:
    """What the oracle found in one run's output directory."""
    problems: list = field(default_factory=list)
    points: int = 0       # pointwise evaluations: samples and stored states
    rk_steps: int = 0     # accepted integrator steps

    @property
    def ok(self):
        return not self.problems


def check_run(job, out_dir, returncode):
    out = Outcome()
    expected_exit = EXPECTED_EXIT[job.command]
    if returncode != expected_exit:
        out.problems.append(f"exit code {returncode}, expected {expected_exit}")
    report = _load_json(out_dir / COMMAND_OUTPUT[job.command], out)
    if report is not None:
        _check_report(job, report, out)
    if "traces" in job.checks:
        _check_series(job, out_dir / "invariants.csv", out)
    if job.command == "report":
        meta = _load_json(out_dir / "report_meta.json", out)
        if meta is not None and "written_at" not in meta:
            out.problems.append("report_meta.json: no written_at")
    out.points += sum(job.config["sample_count"]
                      for c in job.checks if c in STRUCTURAL)
    return out


def _load_json(path, out):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        out.problems.append(f"{path.name}: {e}")
        return None


def _check_report(job, report, out):
    cfg = job.config
    name = COMMAND_OUTPUT[job.command]
    try:
        header = (report["geometry"], report["seed"], report["kmax"],
                  report["sample_count"], report["executed"])
        checks = report["checks"]
    except (KeyError, TypeError) as e:
        out.problems.append(f"{name}: malformed ({e!r})")
        return
    want = (cfg["geometry"], cfg["seed"], cfg["kmax"], cfg["sample_count"],
            list(job.checks))
    if header != want:
        out.problems.append(f"{name}: header {header} != {want}")
    if sorted(checks) != sorted(job.checks):
        out.problems.append(f"{name}: checks {sorted(checks)}")
        return
    for check, entry in checks.items():
        verdict = entry.get("verdict")
        if verdict != EXPECTED_VERDICT[check]:
            out.problems.append(
                f"{check}: verdict {verdict}, expected "
                f"{EXPECTED_VERDICT[check]}")
        residual = entry.get("residual")
        if not isinstance(residual, (int, float)) or \
                not math.isfinite(residual):
            out.problems.append(f"{check}: residual {residual!r}")
        if not is_finite_tree(entry):
            out.problems.append(f"{check}: non-finite value in entry")


def _check_series(job, path, out):
    traj = job.config["trajectory"]
    t0, t1 = traj["t_span"]
    kmax = job.config["kmax"]
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        out.problems.append(f"{path.name}: {e}")
        return
    want_header = ",".join(["time"] + [f"trS{k}" for k in range(1, kmax + 1)])
    if not lines or lines[0] != want_header:
        out.problems.append(f"{path.name}: bad header")
        return
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as e:
        out.problems.append(f"{path.name}: {e}")
        return
    if len(rows) < 2 or any(len(r) != kmax + 1 for r in rows):
        out.problems.append(f"{path.name}: malformed rows")
        return
    if not all(math.isfinite(v) for r in rows for v in r):
        out.problems.append(f"{path.name}: non-finite value")
    times = [r[0] for r in rows]
    if times[0] != t0 or abs(times[-1] - t1) > 1e-9 * (t1 - t0) or \
            any(b <= a for a, b in zip(times, times[1:])):
        out.problems.append(f"{path.name}: time grid does not cover "
                            f"[{t0}, {t1}] in increasing order")
    if traj["method"] == "rk4" and len(rows) != traj["steps"] + 1:
        out.problems.append(f"{path.name}: {len(rows)} rows for "
                            f"{traj['steps']} rk4 steps")
    out.points += len(rows)
    out.rk_steps += len(rows) - 1


def is_finite_tree(value):
    """True when every number in a parsed JSON value is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(is_finite_tree(v) for v in value.values())
    if isinstance(value, list):
        return all(is_finite_tree(v) for v in value)
    return True
