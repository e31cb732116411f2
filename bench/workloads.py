"""Workload configs for the canonoid benchmark and the verdicts they must get.

Every workload is a list of ``Job``s: one ``canonoid`` CLI call on one
generated config. The benchmark seed goes only into each config's ``seed``
field, so two seeds differ only in the sample points drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

KINDS = ("symplectic", "cosymplectic", "contact", "cocontact")
STRUCTURAL = ("canonical", "canonoid", "torsion", "lenard", "involution",
              "lie_derivative")
ALL_CHECKS = ("canonical", "canonoid", "traces") + STRUCTURAL[2:]
BOX = [0.5, 1.5]
KMAX = 4
X0 = {"q": 0.3, "p": 1.0, "z": 0.3}   # t starts at t_span[0]

# On both config families `canonical` fails and every other check passes.
EXPECTED_VERDICT = {name: "pass" for name in ALL_CHECKS}
EXPECTED_VERDICT["canonical"] = "fail"
# The JSON file each command writes, and its expected exit code.
COMMAND_OUTPUT = {"check": "check.json", "invariants": "invariants.json",
                  "report": "report.json"}
EXPECTED_EXIT = {"check": 1, "invariants": 0, "report": 1}


@dataclass(frozen=True)
class Job:
    """One CLI call: ``canonoid <command> --config <name>.json``."""
    name: str
    command: str
    config: dict

    @property
    def checks(self):
        return tuple(self.config["checks"])


def chart_vars(kind, n):
    qs = [f"q{i}" for i in range(1, n + 1)]
    ps = [f"p{i}" for i in range(1, n + 1)]
    return {"symplectic": qs + ps, "cosymplectic": qs + ps + ["t"],
            "contact": qs + ps + ["z"],
            "cocontact": ["t"] + qs + ps + ["z"]}[kind]


def _family(kind, n):
    """(transform, hamiltonian) of the config family for this kind."""
    idx = range(1, n + 1)
    if kind in ("symplectic", "cosymplectic"):
        F = {f"q{i}": f"q{i}" for i in idx}
        F.update({f"p{i}": f"p{i}^3/3 + sin(p{i})/2" for i in idx})
        H = " + ".join(f"p{i}^2/2" for i in idx)
    else:
        F = {f"q{i}": f"2*q{i}" for i in idx}
        F.update({f"p{i}": f"p{i}" for i in idx})
        F["z"] = "2*z"
        H = " + ".join(f"(q{i}^2 + p{i}^2)/2" for i in idx) + " + 0.2*z"
    if kind in ("cosymplectic", "cocontact"):
        F["t"] = "t"
    return F, H


def make_config(kind, n, seed, checks, sample_count, trajectory=None):
    names = chart_vars(kind, n)
    F, H = _family(kind, n)
    cfg = {
        "schema": 1,
        "geometry": {"kind": kind, "n": n},
        "hamiltonian": H,
        "transform": {v: F[v] for v in names},
        "sample_box": {v: list(BOX) for v in names},
        "sample_count": sample_count,
        "seed": seed,
        "checks": list(checks),
        "kmax": KMAX,
    }
    if trajectory is not None:
        t0, t1, steps, method = trajectory
        cfg["trajectory"] = {
            "x0": [X0[v[0]] if v != "t" else t0 for v in names],
            "t_span": [t0, t1], "steps": steps, "method": method}
    return cfg


def _long_trajectory(kind):
    if kind in ("symplectic", "cosymplectic"):
        return (0.0, 10.0, 10_000, "rk4")
    return (0.0, 400.0, 100, "rk45-adaptive")


def jobs(workload, seed):
    """The jobs of one pass of `workload`, in run order."""
    if workload == "check-n4":
        return [Job(f"{k}-n4", "check",
                    make_config(k, 4, seed, STRUCTURAL, 25))
                for k in KINDS]
    if workload == "invariants-long":
        return [Job(f"{k}-n1", "invariants",
                    make_config(k, 1, seed, ["traces"], 25,
                                _long_trajectory(k)))
                for k in KINDS]
    if workload == "report-wide":
        return [Job(f"{k}-n{n}", "report",
                    make_config(k, n, seed, ALL_CHECKS, 100,
                                (0.0, 10.0, 1000, "rk4")))
                for n in (1, 2) for k in KINDS]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("check-n4", "invariants-long", "report-wide")
