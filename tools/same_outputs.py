"""Compare the outputs of two canonoid source trees on the benchmark jobs.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Runs every job of the benchmark workloads (bench/workloads.py) on seeds 1
and 2 as one ``python3 -m canonoid.cli`` process per job, with the tree's
``src`` first on PYTHONPATH, as bench/run.py runs them: one tree after the
other, so whatever a fresh CLI process does before numpy loads is part of
what is compared. Then it compares, job by job, the exit code, the
standard error and the bytes of every output file except
``report_meta.json`` (which holds a wall-clock timestamp). It prints every
difference and exits 1, or prints a summary and exits 0. A differing JSON
or CSV file whose numbers are the only difference is reported with the
largest absolute and relative difference among them.

Then it runs the error-path jobs of ERROR_JOBS the same way, once each:
no benchmark job reaches an error path, yet a change to one shows in its
exit code and standard error.  A usage-error job gives its own command
line in place of the command.

Jobs run from a scratch directory with relative paths, so a path that
reaches an error message reads the same for both trees.  A job that runs
longer than JOB_TIMEOUT_S is stopped and reported as a difference.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

SEEDS = (1, 2)
SKIPPED = {"report_meta.json"}
JOB_TIMEOUT_S = 120


def _n1_config(hamiltonian, transform, checks, method="rk4",
               t_span=(0, 3), q1_range=(0.5, 1.5)):
    """An n = 1 config whose trajectory leaves from (-1, 1): symplectic,
    or contact (from z = 0) where the transform has a z component."""
    contact = "z" in transform
    return {"schema": 1,
            "geometry": {"kind": "contact" if contact else "symplectic",
                         "n": 1},
            "hamiltonian": hamiltonian, "transform": transform,
            "sample_box": {"q1": list(q1_range), "p1": [0.5, 1.5],
                           **({"z": [0.5, 1.5]} if contact else {})},
            "sample_count": 10, "seed": 1, "checks": checks,
            "trajectory": {"x0": [-1.0, 1.0] + [0.0] * contact,
                           "t_span": list(t_span), "steps": 10,
                           "method": method}}


_IDENTITY = {"q1": "q1", "p1": "p1"}
_CUBIC = {"q1": "q1", "p1": "p1^3/3"}
# its Lagrange brackets overflow to inf
_HUGE = {"q1": "1e200*q1", "p1": "1e200*p1"}
# (name, command or command line, config); {config} and {out} in a
# command line are the job's paths
ERROR_JOBS = [
    # q' = -q^2 from q = -1 blows up at t = 1
    ("integrate-step-underflow", "integrate",
     _n1_config("-p1*q1^2", _IDENTITY, ["traces"], "rk45-adaptive")),
    ("integrate-overflow", "integrate",
     _n1_config("-p1*q1^2", _IDENTITY, ["traces"])),
    ("report-canonical-fail", "report",
     _n1_config("p1^2/2", _CUBIC, ["canonical"])),
    ("invariants-non-finite-trace", "invariants",
     _n1_config("p1^2/2", {"q1": "1e100*q1", "p1": "1e100*p1"}, ["traces"])),
    ("check-overflowing-component", "check",
     _n1_config("p1^2/2", {"q1": "q1", "p1": "p1*1e200*1e200*q1"},
                ["canonical", "torsion", "lie_derivative"])),
    # the drift slope of trace series that never move, at extreme spans
    ("invariants-tiny-span", "invariants",
     _n1_config("p1^2/2", _CUBIC, ["traces"], t_span=(0, 1e-300))),
    ("invariants-huge-span", "invariants",
     _n1_config("p1^2/2", _CUBIC, ["traces"], t_span=(0, 1e300))),
    # a range whose width hi - lo overflows
    ("check-overflowing-box", "check",
     _n1_config("p1^2/2", _CUBIC, ["canonical"],
                q1_range=(-1e308, 1e308))),
    # an infinite pulled-back coframe, which no SVD may see
    ("report-contact-canonoid-infinite-coframe", "report",
     _n1_config("p1^2/2 + z", {**_HUGE, "z": "1e200*z"}, ["canonoid"])),
    # an infinite Lagrange x-block, with finite trace gradients
    ("report-involution-infinite-lagrange-block", "report",
     {**_n1_config("p1^2/2", _HUGE, ["involution"]), "kmax": 1}),
    # each check on its way to a non-finite residual, warning-free
    *((f"huge-{c}", "invariants" if c == "traces" else "report",
       _n1_config("p1^2/2", _HUGE, [c]))
      for c in ("canonical", "canonoid", "traces", "torsion", "lenard",
                "involution", "lie_derivative")),
    ("report-canonoid-overflowing-hamiltonian", "report",
     _n1_config("1e308*p1^4", _CUBIC, ["canonoid"])),
    ("report-contact-canonical-huge", "report",
     _n1_config("p1^2/2 + z", {**_HUGE, "z": "z"}, ["canonical"])),
    # usage errors of the argv reader
    ("usage-unknown-option",
     ["check", "--config", "{config}", "--out", "{out}", "--bogus"],
     _n1_config("p1^2/2", _CUBIC, ["canonical"])),
    ("usage-kmax-not-an-integer",
     ["check", "--config", "{config}", "--out", "{out}", "--kmax", "2.5"],
     _n1_config("p1^2/2", _CUBIC, ["canonical"])),
    ("usage-missing-config", ["check", "--out", "{out}"],
     _n1_config("p1^2/2", _CUBIC, ["canonical"])),
]


def all_jobs():
    """(job directory, command, config) for every job of every workload
    and seed, then the error-path jobs."""
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for job in workloads.jobs(workload, seed):
                yield (f"{workload}/seed{seed}/{job.name}", job.command,
                       job.config)
    for name, command, config in ERROR_JOBS:
        yield f"errors/{name}", command, config


def run_tree(tree, work):
    """Run every job as a CLI process of tree with `work` as the working
    directory; job directory -> (exit code, standard error), or (None,
    "") for a job stopped after JOB_TIMEOUT_S."""
    src = (tree / "src").resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    where = subprocess.run(
        [sys.executable, "-c", "import canonoid; print(canonoid.__file__)"],
        env=env, capture_output=True, text=True).stdout.strip()
    if not where or not Path(where).resolve().is_relative_to(src):
        sys.exit(f"canonoid of {tree} loaded from {where!r}, not {src}")
    results = {}
    for name, command, data in all_jobs():
        (work / name).mkdir(parents=True)
        config = f"{name}/config.json"
        (work / config).write_text(json.dumps(data, indent=1))
        if isinstance(command, str):
            command = [command, "--config", "{config}", "--out", "{out}"]
        args = [a.format(config=config, out=f"{name}/out") for a in command]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "canonoid.cli", *args],
                cwd=work, env=env, stdin=subprocess.DEVNULL,
                capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            results[name] = (None, "")
            continue
        results[name] = (proc.returncode, proc.stderr)
    return results


class _Mismatch(Exception):
    """Two outputs differ in more than their numbers."""


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _cells(data):
    """The cells of a CSV file, one list per line."""
    return [line.split(",") for line in data.decode().splitlines()]


def _leaves(a, b):
    """The pairs of numbers at the same place in two parsed outputs;
    _Mismatch where anything else differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise _Mismatch(f"keys {sorted(a)} != {sorted(b)}")
        for key in a:
            yield from _leaves(a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise _Mismatch(f"lengths {len(a)} != {len(b)}")
        for x, y in zip(a, b):
            yield from _leaves(x, y)
    elif type(a) in (int, float) and type(b) in (int, float):
        yield a, b
    elif isinstance(a, str) and isinstance(b, str) \
            and _number(a) is not None and _number(b) is not None:
        yield _number(a), _number(b)   # CSV cells
    elif a != b:
        raise _Mismatch(f"{a!r} != {b!r}")


def number_difference(fname, data_a, data_b):
    """Text of the largest absolute and relative difference among the
    numbers of two JSON or CSV files, or of how they differ otherwise."""
    try:
        if fname.endswith(".json"):
            pairs = list(_leaves(json.loads(data_a), json.loads(data_b)))
        elif fname.endswith(".csv"):
            pairs = list(_leaves(_cells(data_a), _cells(data_b)))
        else:
            return "differs"
    except _Mismatch as e:
        return f"differs beyond its numbers: {e}"
    worst_abs = worst_rel = 0.0
    moved = 0
    for x, y in pairs:
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        moved += 1
        d = abs(x - y)
        if not d < math.inf:   # an inf, or a NaN against a number
            worst_abs = worst_rel = math.inf
            continue
        worst_abs = max(worst_abs, d)
        worst_rel = max(worst_rel, d / max(abs(x), abs(y)))
    return (f"differs in {moved} of {len(pairs)} numbers: largest absolute "
            f"difference {worst_abs:.3e}, relative {worst_rel:.3e}")


def _output_names(out):
    """The compared files of an output directory; none where the job
    stopped before it made the directory, as on a config error."""
    if not out.is_dir():
        return set()
    return {p.name for p in out.iterdir()} - SKIPPED


def differences(work_a, runs_a, work_b, runs_b):
    """The text of every difference between the two runs, and the
    number of output files compared."""
    found = []
    files = 0
    for name in runs_a:
        (code_a, err_a), (code_b, err_b) = runs_a[name], runs_b[name]
        stopped = [tree for tree, code in (("parent", code_a),
                                           ("change", code_b)) if code is None]
        if stopped:
            found.append(f"{name}: timed out after {JOB_TIMEOUT_S} s "
                         f"({', '.join(stopped)})")
            continue
        if code_a != code_b:
            found.append(f"{name}: exit code {code_a} != {code_b}")
        if err_a != err_b:
            found.append(f"{name}: stderr {err_a!r} != {err_b!r}")
        out_a, out_b = work_a / name / "out", work_b / name / "out"
        names_a, names_b = _output_names(out_a), _output_names(out_b)
        if names_a != names_b:
            found.append(f"{name}: output files {sorted(names_a)} != "
                         f"{sorted(names_b)}")
        for fname in sorted(names_a & names_b):
            files += 1
            data_a = (out_a / fname).read_bytes()
            data_b = (out_b / fname).read_bytes()
            if data_a != data_b:
                found.append(f"{name}: {fname} "
                             + number_difference(fname, data_a, data_b))
    return found, files


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    trees = [Path(a) for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / label for label in ("parent", "change")]
        runs = []
        for tree, work in zip(trees, works):
            work.mkdir()
            runs.append(run_tree(tree, work))
        found, files = differences(works[0], runs[0], works[1], runs[1])
    for diff in found:
        print(f"difference: {diff}")
    if found:
        print(f"{len(found)} differences: {len(runs[0])} jobs, {files} "
              f"output files, exit codes and stderr")
        return 1
    print(f"no difference: {len(runs[0])} jobs, {files} output files, "
          f"exit codes and stderr")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
