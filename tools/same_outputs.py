"""Compare the outputs of two canonoid source trees on the benchmark jobs.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Runs every job of the benchmark workloads (bench/workloads.py) on seeds 1
and 2 through each tree's ``canonoid.cli.main``, in this process, one tree
after the other. Then it compares, job by job, the exit code, the standard
error and the bytes of every output file except ``report_meta.json``
(which holds a wall-clock timestamp). It prints the first difference and
exits 1, or prints a summary and exits 0.

Each tree is imported from its own ``src`` directory. Jobs run from a
scratch directory with relative paths, so a path that reaches an error
message reads the same for both trees.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

SEEDS = (1, 2)
SKIPPED = {"report_meta.json"}


def all_jobs():
    """(job directory, job) for every job of every workload and seed."""
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for job in workloads.jobs(workload, seed):
                yield f"{workload}/seed{seed}/{job.name}", job


def import_cli(tree):
    """canonoid.cli of `tree`, with any canonoid imported before dropped."""
    for name in [m for m in sys.modules
                 if m == "canonoid" or m.startswith("canonoid.")]:
        del sys.modules[name]
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("canonoid.cli")
    finally:
        sys.path.remove(str(src))
    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"canonoid.cli of {tree} loaded from {cli.__file__}")
    return cli


def run_tree(tree, work):
    """Run every job through tree's CLI with `work` as the working
    directory; job directory -> (exit code, standard error)."""
    cli = import_cli(tree)
    results = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for name, job in all_jobs():
            Path(name).mkdir(parents=True)
            config = f"{name}/config.json"
            Path(config).write_text(json.dumps(job.config, indent=1))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = cli.main([job.command, "--config", config,
                                     "--out", f"{name}/out"])
                except Exception:
                    code = "exception"
                    err.write(traceback.format_exc())
            results[name] = (code, err.getvalue())
    finally:
        os.chdir(cwd)
    return results


def first_difference(work_a, runs_a, work_b, runs_b):
    """Text of the first difference between the two runs, or None; and
    the number of output files compared."""
    files = 0
    for name in runs_a:
        (code_a, err_a), (code_b, err_b) = runs_a[name], runs_b[name]
        if code_a != code_b:
            return f"{name}: exit code {code_a} != {code_b}", files
        if err_a != err_b:
            return f"{name}: stderr {err_a!r} != {err_b!r}", files
        out_a, out_b = work_a / name / "out", work_b / name / "out"
        names_a = {p.name for p in out_a.iterdir()} - SKIPPED
        names_b = {p.name for p in out_b.iterdir()} - SKIPPED
        if names_a != names_b:
            return (f"{name}: output files {sorted(names_a)} != "
                    f"{sorted(names_b)}"), files
        for fname in sorted(names_a):
            files += 1
            if (out_a / fname).read_bytes() != (out_b / fname).read_bytes():
                return f"{name}: {fname} differs", files
    return None, files


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
        diff, files = first_difference(works[0], runs[0], works[1], runs[1])
    if diff is not None:
        print(f"difference: {diff}")
        return 1
    print(f"no difference: {len(runs[0])} jobs, {files} output files, "
          f"exit codes and stderr")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
