"""Benchmark of the canonoid command line, run from the root of a checkout.

    python3 bench/run.py --workload check-n4 --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it runs the workload's jobs as a user would: one fresh
``python3 -m canonoid.cli`` process per config, one after another (a closed
loop with a single client). It repeats the jobs round-robin until the next
one would end after ``--seconds``, checks every output, and reports the
end-to-end metrics from per-job means, scaled by the machine's speed
(see CALIBRATION_REF_S).

With ``--trace 1`` it runs one pass as processes, then one untraced and one
traced pass in this process, and reports the per-layer metrics of the
traced pass. ``--seconds`` does not apply there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import oracle
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
# Set-up is timed this many times per run and reported as the mean.
SETUP_REPEATS = 7
# Imports the CLI and parses the configs given as arguments, as a command
# does before it runs any check.
SETUP_CODE = ("import sys, canonoid.cli as cli\n"
              "for path in sys.argv[1:]:\n"
              "    cli.load_config(path)\n"
              "print(cli.__file__)\n")
# A shared machine's speed drifts by tens of percent within minutes, so the
# times of one run are scaled to a reference speed. A fixed pure-Python
# loop that does not use canonoid is timed before every process the run
# starts and once after the last; the mean times of that phase (set-up, or
# the timed jobs) are multiplied by CALIBRATION_REF_S / (the mean loop time
# of the phase). CALIBRATION_REF_S is the loop time on an unloaded 2-core
# Xeon VM, so scaled times read as seconds on that machine. The unscaled
# times are printed under "# info".
CALIBRATION_REF_S = 0.136
CALIBRATION_LOOPS = 200_000
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
             "peak_rss_mb": "MB", "samples_per_s": "1/s"}
MODULES = ("cli", "expr", "geometry", "transform", "stensor", "dynamics")


class BenchError(RuntimeError):
    """The benchmark cannot run here: no result is printed."""


def child_env():
    """The caller's environment, importing canonoid from SRC first, with
    bytecode caching on: an installed package does not recompile its
    sources on every run, so neither does a timed process."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, cwd, log):
    """Run argv to completion; (wall s, user+sys CPU s, max RSS MB, exit code).
    Standard output and error go to the file `log`."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def calibration_s():
    """Time of a fixed float loop, a gauge of the machine's current speed."""
    t0 = time.perf_counter()
    acc = [0.0] * 8
    for i in range(CALIBRATION_LOOPS):
        x = i * 1e-3
        for j in range(8):
            acc[j] = acc[j] * 0.999 + x * (j + 1)
    return time.perf_counter() - t0


class Gauge:
    """Samples `calibration_s` and turns the samples into a speed factor."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(calibration_s())

    def factor(self):
        """Multiply a time by this to get it at the reference speed."""
        return CALIBRATION_REF_S / statistics.mean(self.samples)


def cli_argv(job, config, out_dir):
    return [job.command, "--config", str(config), "--out", str(out_dir)]


class Bench:
    """Runs `jobs` with scratch files in the directory `work`, counting
    attempted and failed runs."""

    def __init__(self, jobs, work):
        self.jobs = jobs
        self.work = work
        self.configs = {}
        for job in self.jobs:
            path = work / f"{job.name}.json"
            path.write_text(json.dumps(job.config, indent=1))
            self.configs[job.name] = path
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # -- set-up ------------------------------------------------------------

    def setup_once(self):
        log = self.work / "setup.log"
        argv = [sys.executable, "-c", SETUP_CODE,
                *map(str, self.configs.values())]
        wall, _, _, code = spawn(argv, self.work, log)
        if code != 0:
            raise BenchError(f"set-up failed:\n{log.read_text()[-2000:]}")
        return wall, log.read_text().strip()

    def warm_up(self):
        """Fill the bytecode cache and check which canonoid is imported."""
        _, loaded_from = self.setup_once()
        if Path(loaded_from).resolve() != SRC / "canonoid" / "cli.py":
            raise BenchError(f"canonoid.cli loaded from {loaded_from}, "
                             f"not from {SRC}")

    def setup_s(self, gauge):
        """Unscaled mean set-up time."""
        times = []
        for _ in range(SETUP_REPEATS):
            gauge.sample()
            times.append(self.setup_once()[0])
        gauge.sample()
        return statistics.mean(times)

    # -- one job -----------------------------------------------------------

    def record(self, job, out_dir, code, label, reference=None):
        """Check one run's outputs; with `reference`, a directory of the
        same job's process run, its files must also match byte for byte."""
        outcome = oracle.check_run(job, out_dir, code)
        for name in output_files(job) if reference else ():
            if not files_equal(out_dir / name, reference / name):
                outcome.problems.append(
                    f"{name} differs from the untraced process run")
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            self.problems.extend(f"{label} {job.name}: {p}"
                                 for p in outcome.problems)
        return outcome

    def run_process(self, job, out_dir):
        argv = [sys.executable, "-m", "canonoid.cli",
                *cli_argv(job, self.configs[job.name], out_dir)]
        out_dir.mkdir(parents=True)
        wall, cpu, rss, code = spawn(argv, self.work, out_dir / "cli.log")
        outcome = self.record(job, out_dir, code, "process")
        return wall, cpu, rss, outcome

    # -- untraced timing ---------------------------------------------------

    def timed(self, seconds, gauge):
        """Round-robin passes over the jobs until the next job would end
        after `seconds`; every job runs at least once.

        Returns unscaled (wall, cpu, peak RSS, points, RK steps) of one
        pass: the sums over jobs of each job's mean time, and the largest
        of each job's median peak RSS."""
        runs = {job.name: [] for job in self.jobs}
        start = time.perf_counter()
        n = 0
        while True:
            job = self.jobs[n % len(self.jobs)]
            if n >= len(self.jobs):
                last = runs[job.name][-1][0] + gauge.samples[-1]
                if time.perf_counter() - start + last > seconds:
                    break
            gauge.sample()
            out_dir = self.work / f"run{n}"
            runs[job.name].append(self.run_process(job, out_dir))
            shutil.rmtree(out_dir)
            n += 1
        gauge.sample()
        self.runs_per_job = min(len(rs) for rs in runs.values())
        return (sum(statistics.mean(r[0] for r in rs) for rs in runs.values()),
                sum(statistics.mean(r[1] for r in rs) for rs in runs.values()),
                max(statistics.median(r[2] for r in rs)
                    for rs in runs.values()),
                sum(rs[0][3].points for rs in runs.values()),
                sum(rs[0][3].rk_steps for rs in runs.values()))

    # -- traced pass -------------------------------------------------------

    def in_process(self, cli, job, label, reference=None):
        """Run `job` through cli.main in this process; its wall time in s."""
        out_dir = self.work / f"{label}-{job.name}"
        out_dir.mkdir()
        t0 = time.perf_counter()
        try:
            code = cli.main(cli_argv(job, self.configs[job.name], out_dir))
        except Exception:   # a crash is a failed run, not a lost result
            code = "an exception"
            (out_dir / "cli.log").write_text(traceback.format_exc())
        wall = time.perf_counter() - t0
        self.record(job, out_dir, code, label, reference)
        return wall

    def traced(self):
        """Per job: a process run kept as the reference output, then an
        untraced and a traced run in this process, each timed after a
        speed-gauge sample. Returns the tracer's metrics."""
        modules = import_canonoid()
        cli = modules["cli"]
        tr = tracer.Tracer(modules)
        gauges = {"untraced": Gauge(), "traced": Gauge()}
        walls = {"untraced": 0.0, "traced": 0.0}
        for job in self.jobs:
            reference = self.work / f"process-{job.name}"
            self.run_process(job, reference)
            gauges["untraced"].sample()
            walls["untraced"] += self.in_process(cli, job, "untraced")
            gauges["traced"].sample()
            with tr:
                walls["traced"] += self.in_process(cli, job, "traced",
                                                   reference)
        scaled = {k: walls[k] * gauges[k].factor() for k in walls}
        return tr.metrics(scaled["traced"], scaled["untraced"])


def output_files(job):
    """Files whose bytes must not depend on how the CLI was run."""
    names = [workloads.COMMAND_OUTPUT[job.command]]
    if "traces" in job.checks:
        names.append("invariants.csv")
    return names


def files_equal(a, b):
    try:
        return a.read_bytes() == b.read_bytes()
    except OSError:
        return False


def import_canonoid():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {m: importlib.import_module(f"canonoid.{m}") for m in MODULES}
    for mod in modules.values():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise BenchError(f"{mod.__name__} loaded from {mod.__file__}")
    return modules


# -- metadata (recorded, never gated on) --------------------------------------


def git_commit():
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata():
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "commit": git_commit(), "src_lines": src_lines}


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def measure(args, work):
    """(bench, metric name -> value, unit, info dict)."""
    bench = Bench(workloads.jobs(args.workload, args.seed), work)
    bench.warm_up()
    info = {}
    if args.trace:
        values = bench.traced()
        units = tracer.metric_units()
    else:
        setup_gauge, gauge = Gauge(), Gauge()
        setup = bench.setup_s(setup_gauge)
        wall, cpu, rss, points, steps = bench.timed(args.seconds, gauge)
        f = gauge.factor()
        values = {"wall_s": wall * f, "cpu_s": cpu * f,
                  "setup_s": setup * setup_gauge.factor(),
                  "peak_rss_mb": rss, "samples_per_s": points / (wall * f)}
        units = E2E_UNITS
        info = {"unscaled_wall_s": wall, "unscaled_cpu_s": cpu,
                "unscaled_setup_s": setup, "speed_factor": f,
                "setup_speed_factor": setup_gauge.factor(),
                "runs_per_job": bench.runs_per_job,
                "points_per_pass": points, "rk_steps_per_pass": steps,
                "rk_steps_per_s": steps / (wall * f)}
    info["failed_ratio"] = bench.failed / bench.attempted
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return bench, metrics, info


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "canonoid" / "cli.py").is_file():
        print(f"error: no canonoid sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench, metrics, info = measure(args, work)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# meta " + json.dumps(metadata(), sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True))
    for problem in bench.problems[:50]:
        print(f"# FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
