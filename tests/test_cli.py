"""Config validation, the sample generator, report determinism, CSV
output, subcommand exit codes, and flag overrides."""

import datetime
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import canonoid
from canonoid import cli, dynamics, expr, stensor, transform
from canonoid.cli import (CHECK_NAMES, DEFAULT_TOLERANCES, STRUCTURAL_CHECKS,
                          CheckError, ConfigError, Xorshift64Star,
                          draw_samples, load_config, validate_config)
from canonoid.geometry import KINDS, GeometryKind

EXACT = 1e-12
# CPython's own SHA-256 module, from which the config hash is taken
# without loading OpenSSL: _sha256 up to 3.11, _sha2 from 3.12
LEAN_SHA256 = next((name for name in ("_sha256", "_sha2")
                    if importlib.util.find_spec(name)), None)


def base_config():
    return {
        "schema": 1,
        "geometry": {"kind": "symplectic", "n": 1},
        "hamiltonian": "p1^2/2",
        "transform": {"q1": "q1", "p1": "p1^3/3"},
        "sample_box": {"q1": [0.5, 1.5], "p1": [0.5, 1.5]},
        "sample_count": 10,
        "seed": 42,
        "checks": ["canonical", "canonoid", "traces", "torsion", "lenard",
                   "involution", "lie_derivative"],
        "kmax": 4,
        "trajectory": {"x0": [0.0, 1.5], "t_span": [0.0, 10.0],
                       "steps": 400, "method": "rk4"},
    }


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# PRNG


def test_prng_frozen_u64_vectors():
    # reference values for the documented xorshift64* algorithm
    assert [Xorshift64Star(42).next_u64() for _ in range(1)] == \
        [6255019084209693600]
    r = Xorshift64Star(42)
    assert [r.next_u64() for _ in range(3)] == [
        6255019084209693600,
        14430073426741505498,
        14575455857230217846,
    ]
    r = Xorshift64Star(123456789)
    assert [r.next_u64() for _ in range(3)] == [
        17131907776045769687,
        9120621550721899595,
        5237368999691878260,
    ]


def test_prng_zero_seed_is_remapped():
    r = Xorshift64Star(0)
    vals = [r.next_u64() for _ in range(3)]
    assert vals == [
        973819730272012410,
        6108091081255984487,
        12125365036566318712,
    ]
    # and never collapses to the all-zero fixed point
    assert all(v != 0 for v in vals)


def test_prng_rejects_seeds_beyond_64_bits():
    # masked to 64 bits, -1 would draw the samples of 2^64 - 1
    Xorshift64Star(2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            Xorshift64Star(seed)


SYMP1 = GeometryKind("symplectic", 1)
IDENTITY_MAP = transform.TransformMap.identity(SYMP1)
# the entries that take a count, each called with it
COUNT_ENTRIES = {
    "integrate-steps": lambda n: dynamics.integrate(
        SYMP1, SYMP1.parse("p1^2/2"), [1.0, 0.0], (0.0, 1.0), n),
    "trace-powers-kmax": lambda n: stensor.trace_powers(
        IDENTITY_MAP, [0.1, 0.2], n),
    "lenard-kmax": lambda n: stensor.lenard_identity_residual(
        IDENTITY_MAP, [0.1, 0.2], n),
    "prng-seed": Xorshift64Star,
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES.values(), ids=COUNT_ENTRIES)
def test_a_count_is_an_integer_not_a_truncated_float(entry):
    # a numpy integer is a count; 2.7 is not 2
    entry(2)
    entry(np.int64(2))
    with pytest.raises(TypeError):
        entry(2.7)


def test_prng_uniform_range_and_vectors():
    r = Xorshift64Star(42)
    us = [r.uniform() for _ in range(3)]
    assert us == [0.33908526400192196, 0.7822558479199243,
                  0.7901370452687786]
    r = Xorshift64Star(987)
    for _ in range(1000):
        u = r.uniform()
        assert 0.0 <= u < 1.0


def test_draw_samples_deterministic_and_in_box():
    from canonoid.geometry import GeometryKind
    g = GeometryKind("cosymplectic", 1)
    box = {"q1": (-1.0, 1.0), "p1": (2.0, 3.0), "t": (0.0, 0.5)}
    a = draw_samples(g, box, 20, seed=5)
    b = draw_samples(g, box, 20, seed=5)
    assert np.array_equal(a, b)
    assert a.shape == (20, 3)
    assert np.all(a[:, 0] >= -1.0) and np.all(a[:, 0] < 1.0)
    assert np.all(a[:, 1] >= 2.0) and np.all(a[:, 1] < 3.0)
    c = draw_samples(g, box, 20, seed=6)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize("mutator,fragment", [
    (lambda d: d.pop("schema"), "schema"),
    (lambda d: d.update(schema=2), "schema"),
    (lambda d: d["geometry"].update(kind="elliptic"), "geometry.kind"),
    (lambda d: d["geometry"].update(n=0), "geometry.n"),
    (lambda d: d["geometry"].update(dimension=7), "geometry: unexpected"),
    (lambda d: d.pop("hamiltonian"), "hamiltonian"),
    (lambda d: d.update(hamiltonian="p1*("), "hamiltonian"),
    (lambda d: d["transform"].pop("p1"), "transform"),
    (lambda d: d["transform"].update(extra="q1"), "transform"),
    (lambda d: d["transform"].update(q1=3), "transform.q1"),
    (lambda d: d.pop("sample_box"), "sample_box"),
    (lambda d: d["sample_box"].pop("q1"), "sample_box.q1"),
    (lambda d: d["sample_box"].update(p1=[2.0, 1.0]), "sample_box.p1"),
    (lambda d: d["sample_box"].update(z=[0, 1]), "sample_box"),
    pytest.param(lambda d: d["sample_box"].update(q1=[-1e308, 1e308]),
                 "sample_box.q1: hi - lo overflows", id="box-width-overflows"),
    (lambda d: d.update(sample_count=0), "sample_count"),
    (lambda d: d.pop("seed"), "seed"),
    pytest.param(lambda d: d.update(seed=-1), "seed", id="seed-negative"),
    pytest.param(lambda d: d.update(seed=2**64), "seed", id="seed-2^64"),
    (lambda d: d.update(checks=["bogus"]), "checks"),
    (lambda d: d.update(checks=[]), "checks"),
    (lambda d: d.update(kmax=11), "kmax"),
    (lambda d: d.update(kmax=0), "kmax"),
    (lambda d: d["trajectory"].update(x0=[1.0]), "trajectory.x0"),
    (lambda d: d["trajectory"].update(t_span=[3.0, 1.0]), "trajectory.t_span"),
    pytest.param(lambda d: d["trajectory"].update(t_span=[-1e308, 1e308]),
                 "trajectory.t_span: t1 - t0 overflows",
                 id="t_span-width-overflows"),
    (lambda d: d["trajectory"].update(steps=0), "trajectory.steps"),
    (lambda d: d["trajectory"].update(method="euler"), "trajectory.method"),
    (lambda d: d["trajectory"].update(rtol=1e-3), "trajectory: unexpected"),
    (lambda d: d.update(tolerances={"bogus": 1e-8}), "tolerances.bogus"),
    (lambda d: d.update(tolerances={"drift": -1.0}), "tolerances.drift"),
    (lambda d: d.update(surprise=1), "config"),
    # the config's attribute cache is no field
    pytest.param(lambda d: d.update(__dict__={}),
                 r"config: unknown field\(s\) \['__dict__'\]",
                 id="dict-slot-no-field"),
    pytest.param(lambda d: d.update(geometry=["symplectic", 1]),
                 "geometry: expected dict, got list", id="geometry-list"),
    pytest.param(lambda d: d["trajectory"].update(x0=[0.0, "1.5"]),
                 "trajectory.x0: expected a number", id="x0-string"),
    pytest.param(lambda d: d["sample_box"].update(q1=[0.5]),
                 r"sample_box.q1: expected \[lo, hi\]", id="box-range-single"),
    pytest.param(lambda d: d.update(trajectory=[0.0, 1.5]),
                 "trajectory: expected an object", id="trajectory-list"),
    pytest.param(lambda d: d.update(tolerances=1e-8),
                 "tolerances: expected an object", id="tolerances-number"),
])
def test_config_errors_name_the_field(mutator, fragment):
    data = base_config()
    mutator(data)
    with pytest.raises(ConfigError, match=fragment):
        validate_config(data)


@pytest.mark.parametrize("top", [[], "config", 1, None],
                         ids=["list", "string", "number", "null"])
def test_a_config_that_is_not_an_object_is_refused(tmp_path, capsys, top):
    with pytest.raises(ConfigError,
                       match=r"^config: top level must be an object$"):
        validate_config(top)
    path = write_config(tmp_path, top)
    assert run_cli(["check", "--config", path,
                    "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "error: config: top level must be an object\n"


def test_traces_requires_trajectory():
    data = base_config()
    del data["trajectory"]
    with pytest.raises(ConfigError, match="trajectory"):
        validate_config(data)
    data["checks"] = ["canonical", "canonoid"]
    cfg = validate_config(data)
    assert cfg.trajectory is None


def test_time_kind_x0_must_match_t0():
    data = base_config()
    data["geometry"] = {"kind": "cosymplectic", "n": 1}
    data["transform"] = {"q1": "q1", "p1": "p1", "t": "t"}
    data["sample_box"] = {"q1": [0.5, 1.5], "p1": [0.5, 1.5], "t": [0, 1]}
    data["trajectory"] = {"x0": [1.0, 0.5, 0.3], "t_span": [0.0, 1.0],
                          "steps": 10, "method": "rk4"}
    with pytest.raises(ConfigError, match="trajectory.x0"):
        validate_config(data)


def test_checks_sorted_into_dependency_order():
    data = base_config()
    data["checks"] = ["involution", "traces", "canonoid", "canonical"]
    cfg = validate_config(data)
    assert cfg.checks == ("canonical", "canonoid", "traces", "involution")


def test_defaults_applied():
    data = base_config()
    del data["checks"]
    del data["kmax"]
    del data["sample_count"]
    cfg = validate_config(data)
    assert cfg.checks == CHECK_NAMES
    assert cfg.kmax == 4
    assert cfg.sample_count == 25
    assert cfg.tolerances == DEFAULT_TOLERANCES


def test_checks_and_default_tolerances_are_the_documented_ones():
    # literals, not the table they are derived from, so a wrong row shows
    order = ("canonical", "canonoid", "traces", "torsion", "lenard",
             "involution", "lie_derivative")
    assert CHECK_NAMES == order
    assert STRUCTURAL_CHECKS == order[:2] + order[3:]
    assert list(DEFAULT_TOLERANCES.items()) == [
        ("canonical", 1e-8), ("canonoid", 1e-8), ("drift", 1e-7),
        ("torsion", 1e-10), ("lenard", 1e-8), ("involution", 1e-8),
        ("lie_derivative", 1e-8)]


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="config"):
        load_config(path)


@pytest.mark.parametrize("overrides", [
    {}, {"kmax": 2}, {"tol": 1e-6}, {"seed": 7},
    {"kmax": 2, "tol": 1e-6, "seed": 7},
], ids=["no-flags", "kmax", "tol", "seed", "all-flags"])
def test_config_hash_is_sha256_of_the_effective_json(tmp_path, overrides):
    # the documented hash: SHA-256 of the sorted-key JSON of the config
    # with the flags written in (--tol sets every tolerance) and the
    # tool version, by hashlib, whatever module load_config takes it from
    data = base_config()
    path = write_config(tmp_path, data)
    if "kmax" in overrides:
        data["kmax"] = overrides["kmax"]
    if "tol" in overrides:
        data["tolerances"] = dict.fromkeys(DEFAULT_TOLERANCES,
                                           overrides["tol"])
    if "seed" in overrides:
        data["seed"] = overrides["seed"]
    effective = json.dumps({"config": data,
                            "tool_version": canonoid.__version__},
                           sort_keys=True)
    assert load_config(path, **overrides)[1] \
        == hashlib.sha256(effective.encode()).hexdigest()


@pytest.mark.parametrize("content", [
    b'{"schema": 1, "hamiltonian": "p1\xff"}',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["invalid-utf8", "beyond-recursion-limit"])
def test_undecodable_config_exits_two(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert run_cli(["check", "--config", str(path),
                    "--out", str(tmp_path / "out")]) == 2
    assert "config: invalid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run() and report content


def test_run_cubic_momentum_report(tmp_path):
    path = write_config(tmp_path, base_config())
    report = cli.run(path, tmp_path / "out")
    checks = report["checks"]
    # canonoid but not canonical
    assert checks["canonical"]["verdict"] == "fail"
    assert checks["canonical"]["residual"] > 1e-2
    assert checks["canonoid"]["verdict"] == "pass"
    assert checks["canonoid"]["residual"] <= EXACT
    assert checks["canonoid"]["K_probe"] is not None
    assert len(checks["canonoid"]["K_probe"]) == 10
    assert checks["traces"]["verdict"] == "pass"
    assert checks["torsion"]["verdict"] == "pass"
    assert checks["lenard"]["verdict"] == "pass"
    assert checks["involution"]["verdict"] == "pass"
    assert checks["involution"]["skipped"] == 0
    assert checks["lie_derivative"]["verdict"] == "pass"
    assert report["executed"] == list(base_config()["checks"])
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "invariants.csv").exists()


def test_run_identity_all_pass(tmp_path):
    data = base_config()
    data["transform"] = {"q1": "q1", "p1": "p1"}
    path = write_config(tmp_path, data)
    report = cli.run(path, tmp_path / "out")
    for name, entry in report["checks"].items():
        assert entry["verdict"] == "pass", name
        assert entry["residual"] <= EXACT


def test_contact_scaling_K_probe_matches_scaled_energy(tmp_path):
    data = base_config()
    data["geometry"] = {"kind": "contact", "n": 1}
    data["hamiltonian"] = "(q1^2 + p1^2)/2 + 0.2*z"
    data["transform"] = {"q1": "2*q1", "p1": "p1", "z": "2*z"}
    data["sample_box"] = {"q1": [0.5, 1.5], "p1": [0.5, 1.5],
                          "z": [-0.5, 0.5]}
    data["checks"] = ["canonical", "canonoid"]
    del data["trajectory"]
    path = write_config(tmp_path, data)
    report = cli.run(path, tmp_path / "out")
    assert report["checks"]["canonical"]["verdict"] == "fail"
    assert report["checks"]["canonoid"]["verdict"] == "pass"

    cfg, _ = load_config(path)
    samples = draw_samples(cfg.geometry, cfg.sample_box, cfg.sample_count,
                           cfg.seed)
    K = report["checks"]["canonoid"]["K_probe"]
    for x, k_val in zip(samples, K):
        h_val = expr.evaluate(cfg.hamiltonian, cfg.geometry.env(x))
        assert abs(k_val - 2.0 * h_val) < 1e-10


def test_cosymplectic_time_column_reported(tmp_path):
    data = base_config()
    data["geometry"] = {"kind": "cosymplectic", "n": 1}
    data["hamiltonian"] = "p1^2/2 + t*q1"
    data["transform"] = {"q1": "q1", "p1": "1.5*p1", "t": "t"}
    data["sample_box"] = {"q1": [0.5, 1.5], "p1": [0.5, 1.5], "t": [0, 2]}
    data["checks"] = ["canonoid", "lie_derivative"]
    del data["trajectory"]
    path = write_config(tmp_path, data)
    report = cli.run(path, tmp_path / "out")
    lie = report["checks"]["lie_derivative"]
    assert lie["verdict"] == "pass"
    assert lie["residual"] <= EXACT
    # dK/dt = 0.5 p^2 -> mixed second derivative 1.5 p / p slot
    assert abs(lie["time_column_max"] - 1.5) < EXACT
    assert report["checks"]["canonoid"]["components"]["time_bracket"] <= EXACT


def test_reports_byte_identical(tmp_path):
    path = write_config(tmp_path, base_config())
    cli.run(path, tmp_path / "a")
    cli.run(path, tmp_path / "b")
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    # wall clock lives outside the report
    assert b"written_at" not in a
    assert (tmp_path / "a" / "report_meta.json").exists()


def test_report_meta_stamps_the_utc_wall_clock(tmp_path):
    # written_at is the ISO-8601 stamp, to the microsecond and in UTC,
    # of the moment the report was written, taken with the time module
    path = write_config(tmp_path, base_config())
    start = datetime.datetime.now(datetime.timezone.utc)
    cli.run(path, tmp_path / "out")
    end = datetime.datetime.now(datetime.timezone.utc)
    meta = json.loads((tmp_path / "out" / "report_meta.json").read_text())
    stamp = datetime.datetime.fromisoformat(meta["written_at"])
    assert stamp.utcoffset() == datetime.timedelta(0)
    assert start <= stamp <= end
    assert stamp.isoformat(timespec="microseconds") == meta["written_at"]
    assert "datetime" not in vars(cli)


def test_seed_changes_samples_not_format(tmp_path):
    path = write_config(tmp_path, base_config())
    r1 = cli.run(path, tmp_path / "a", seed=1)
    r2 = cli.run(path, tmp_path / "b", seed=2)
    assert r1["checks"]["canonoid"]["K_probe"] != \
        r2["checks"]["canonoid"]["K_probe"]
    assert r1["seed"] == 1 and r2["seed"] == 2


def test_trace_observables_share_one_table_per_stack(monkeypatch):
    # tr S^k = 2 p1^(2k) for this map, so two stacks differ in each trace
    F = transform.TransformMap.parse(GeometryKind("symplectic", 1),
                                     ["q1", "p1^3/3"])
    stacks = []
    trace_powers = stensor.trace_powers
    monkeypatch.setattr(stensor, "trace_powers", lambda F, X, kmax:
                        stacks.append(X) or trace_powers(F, X, kmax))
    obs = cli.trace_observables(F, 3)
    X = np.array([[0.5, 0.5], [1.0, 1.0]])
    Y = X + 0.5
    at_x = [fn(X) for _, fn in obs]
    assert len(stacks) == 1
    at_y = [fn(Y) for _, fn in obs]
    assert len(stacks) == 2 and stacks[1] is Y
    for k, (a, b) in enumerate(zip(at_x, at_y)):
        assert np.array_equal(b, trace_powers(F, Y, 3)[:, k])
        assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# CSV output


def test_invariants_csv_format(tmp_path):
    path = write_config(tmp_path, base_config())
    report = cli.run(path, tmp_path / "out")
    lines = (tmp_path / "out" / "invariants.csv").read_text().splitlines()
    assert lines[0] == "time,trS1,trS2,trS3,trS4"
    assert len(lines) == 1 + 400 + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    drift = report["checks"]["traces"]["drift"]
    for k in range(1, 5):
        assert first[k] == drift[f"trS{k}"]["initial"]


def test_csv_round_trips_17_digits(tmp_path):
    from canonoid.cli import _write_csv
    from canonoid.dynamics import Trajectory
    states = np.array([[0.1, 1 / 3], [np.pi, np.e]])
    traj = Trajectory(times=np.array([0.0, 0.1]), states=states)
    path = tmp_path / "t.csv"
    _write_csv(path, traj, [("q1", lambda X: X[:, 0]), ("p1", lambda X: X[:, 1])])
    lines = path.read_text().splitlines()
    assert lines[0] == "time,q1,p1"
    row = lines[2].split(",")
    assert float(row[1]) == np.pi
    assert float(row[2]) == np.e


def per_row_csv(times, columns):
    """invariants.csv as one f-string per value, row by row."""
    table = np.column_stack([times] + columns)
    lines = ["time," + ",".join(f"c{k}" for k in range(len(columns)))]
    lines += [",".join([f"{v:.17g}" for v in row.tolist()]) for row in table]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("rows", [1, cli.CSV_BLOCK_ROWS, cli.CSV_BLOCK_ROWS + 1,
                                  "special"])
def test_csv_blocks_equal_per_value_formatting(tmp_path, rows):
    from canonoid.dynamics import Trajectory
    if rows == "special":
        special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1e300,
                   1 / 3, np.pi]
        states = np.array([special, special[::-1]]).T
    else:
        states = np.random.default_rng(rows).standard_normal((rows, 2)) * 1e5
    times = np.linspace(0.0, 1.0, len(states))
    traj = Trajectory(times=times, states=states)
    path = tmp_path / "t.csv"
    cli._write_csv(path, traj, [("c0", lambda X: X[:, 0]),
                                ("c1", lambda X: X[:, 1])])
    assert path.read_bytes() == per_row_csv(times, [states[:, 0], states[:, 1]])


def test_import_generates_no_code():
    # the records are plain classes: importing the CLI loads no
    # dataclasses and compiles no source text, as a @dataclass or a
    # namedtuple does per class.  numpy and the standard library that
    # canonoid imports load before the hook, so it sees canonoid alone.
    code = (
        f"import functools, getopt, {LEAN_SHA256 or 'hashlib'}\n"
        "import json, math\n"
        "import operator, pathlib, re, sys, time\n"
        "import numpy\n"
        "generated = []\n"
        "sys.addaudithook(lambda event, args: generated.append(args)\n"
        "                 if event == 'compile' and args[1] == '<string>'\n"
        "                 else None)\n"
        "import canonoid.cli\n"
        "print('dataclasses' in sys.modules, len(generated))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "0"]


@pytest.mark.parametrize("module", [
    pytest.param("_hashlib", marks=pytest.mark.skipif(
        LEAN_SHA256 is None, reason="no builtin SHA-256 module")),
    "numpy.polynomial",
    "argparse",
    "locale",
    "__future__",
])
def test_check_run_loads_no_module_it_has_no_use_for(tmp_path, module):
    # the config hash comes from CPython's own SHA-256, not OpenSSL's
    # through hashlib, K recovery's Gauss-Legendre rule from a literal
    # table, not numpy.polynomial, and the argv from getopt, not
    # argparse, whose messages look up gettext's translations through
    # locale, and no module imports __future__ for annotations it does
    # not have: neither the import nor a symplectic check whose canonoid
    # passes, so that K recovery runs, adds the module to what numpy
    # loaded
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import canonoid.cli as cli\n"
            "code = cli.main(sys.argv[2:])\n"
            "print(code, sys.argv[1] in set(sys.modules) - before)\n")
    assert run_python(code, module, "check", "--config", path,
                      "--out", str(out)) == ["1", "False"]
    canonoid_entry = json.loads((out / "check.json").read_text())[
        "checks"]["canonoid"]
    assert canonoid_entry["verdict"] == "pass"
    assert len(canonoid_entry["K_probe"]) == base_config()["sample_count"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_cli_starts_numpy_with_one_blas_thread():
    # canonoid.cli sets OPENBLAS_NUM_THREADS to 1 before numpy loads, so
    # a fresh import runs as many threads as numpy alone told to use one
    # BLAS thread (a count, not the number 1, so any BLAS build agrees);
    # then it removes the variable again, and a value the user set stays.
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}

    def child(module, **extra):
        code = (f"import os, {module}\n"
                "print(len(os.listdir('/proc/self/task')),\n"
                "      os.environ.get('OPENBLAS_NUM_THREADS'))\n")
        r = subprocess.run([sys.executable, "-c", code],
                           env=dict(env, **extra), capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr
        return r.stdout.split()

    threads, blas = child("canonoid.cli")
    assert threads == child("numpy", OPENBLAS_NUM_THREADS="1")[0]
    assert blas == "None"
    assert child("canonoid.cli", OPENBLAS_NUM_THREADS="2")[1] == "2"


# ---------------------------------------------------------------------------
# subcommands and exit codes


def run_cli(args):
    return cli.main(args)


def test_subcommand_exit_codes(tmp_path):
    path = write_config(tmp_path, base_config())
    out = str(tmp_path / "out")
    # canonical fails for the cubic momentum map
    assert run_cli(["check", "--config", path, "--out", out]) == 1
    assert run_cli(["integrate", "--config", path, "--out", out]) == 0
    assert run_cli(["invariants", "--config", path, "--out", out]) == 0
    assert run_cli(["report", "--config", path, "--out", out]) == 1
    for fname in ("check.json", "trajectory.csv", "invariants.csv",
                  "invariants.json", "report.json", "report_meta.json"):
        assert (tmp_path / "out" / fname).exists(), fname


def test_report_after_check_and_invariants_equals_a_fresh_report(tmp_path):
    path = write_config(tmp_path, base_config())
    after_dir = str(tmp_path / "after")
    run_cli(["check", "--config", path, "--out", after_dir])
    run_cli(["invariants", "--config", path, "--out", after_dir])
    run_cli(["report", "--config", path, "--out", after_dir])
    direct_dir = str(tmp_path / "direct")
    run_cli(["report", "--config", path, "--out", direct_dir])
    after = (tmp_path / "after" / "report.json").read_bytes()
    direct = (tmp_path / "direct" / "report.json").read_bytes()
    assert after == direct


@pytest.mark.parametrize("prior", [False, True])
def test_run_writes_the_report_of_the_report_command(tmp_path, monkeypatch,
                                                     prior):
    path = write_config(tmp_path, base_config())
    by_run, by_cli = tmp_path / "run", tmp_path / "cli"
    if prior:
        for out in (by_run, by_cli):
            run_cli(["check", "--config", path, "--out", str(out)])
            run_cli(["invariants", "--config", path, "--out", str(out)])
    computed = []
    run_checks = cli._run_checks

    def recording(cfg, names, out):
        computed.extend(names)
        return run_checks(cfg, names, out)

    monkeypatch.setattr(cli, "_run_checks", recording)
    cli.run(path, by_run)
    # earlier outputs of the same config are read by no check: run()
    # computes every one
    assert computed == list(CHECK_NAMES)
    run_cli(["report", "--config", path, "--out", str(by_cli)])
    assert (by_run / "report.json").read_bytes() == \
        (by_cli / "report.json").read_bytes()


@pytest.mark.parametrize("prior", [
    lambda h: b"[]",
    lambda h: b'{"config_hash": "\xff"}',
    lambda h: json.dumps({"config_hash": h, "checks": []}).encode(),
    lambda h: json.dumps({"config_hash": h,
                          "checks": {"canonical": []}}).encode(),
    # entries no check computed under this config: canonical fails here
    lambda h: json.dumps({"config_hash": h, "checks": {
        "canonical": {"verdict": "pass"}}}).encode(),
    lambda h: json.dumps({"config_hash": h, "checks": {
        "canonical": {"verdict": "pass", "residual": 1.0,
                      "tolerance": 1e-8}}}).encode(),
    lambda h: json.dumps({"config_hash": h, "checks": {
        "canonical": {"verdict": "pass", "residual": float("nan"),
                      "tolerance": 1e-8}}}).encode(),
    lambda h: json.dumps({"config_hash": h, "checks": {
        "canonical": {"verdict": "pass", "residual": 1.0,
                      "tolerance": 10.0}}}).encode(),
    # a pass consistent with its own residual and the config's tolerance,
    # under the config's own hash, that no check computed: canonical
    # fails on this config
    lambda h: json.dumps({"config_hash": h, "checks": {
        "canonical": {"verdict": "pass", "residual": 1e-9,
                      "tolerance": 1e-8}}}).encode(),
], ids=["array", "invalid-utf8", "checks-array", "entry-array", "bare-pass",
        "verdict-against-residual", "nan-residual", "other-tolerance",
        "same-hash-forged-pass"])
def test_report_skips_unusable_prior_outputs(tmp_path, prior):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    out.mkdir()
    (out / "check.json").write_bytes(prior(load_config(path)[1]))
    assert run_cli(["report", "--config", path, "--out", str(out)]) == 1
    run_cli(["report", "--config", path, "--out", str(tmp_path / "fresh")])
    assert (out / "report.json").read_bytes() == \
        (tmp_path / "fresh" / "report.json").read_bytes()


def test_stale_prior_outputs_ignored(tmp_path):
    path = write_config(tmp_path, base_config())
    out = str(tmp_path / "out")
    run_cli(["check", "--config", path, "--out", out])
    # different config in the same out dir
    data = base_config()
    data["seed"] = 777
    path2 = write_config(tmp_path, data, name="other.json")
    assert run_cli(["report", "--config", path2, "--out", out]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 777
    # the prior entries are consistent with their residuals; report
    # reads none of them
    run_cli(["report", "--config", path2, "--out", str(tmp_path / "fresh")])
    assert (tmp_path / "out" / "report.json").read_bytes() == \
        (tmp_path / "fresh" / "report.json").read_bytes()


def test_all_pass_exits_zero(tmp_path):
    data = base_config()
    data["transform"] = {"q1": "q1", "p1": "p1"}
    path = write_config(tmp_path, data)
    assert run_cli(["report", "--config", path,
                    "--out", str(tmp_path / "out")]) == 0


def test_missing_config_exits_two(tmp_path, capsys):
    code = run_cli(["check", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "out")])
    assert code == 2


def test_config_error_exits_two(tmp_path, capsys):
    data = base_config()
    del data["sample_box"]
    path = write_config(tmp_path, data)
    code = run_cli(["check", "--config", path,
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "sample_box" in capsys.readouterr().err


@pytest.mark.parametrize("mutator,field", [
    (lambda d: d.update(tolerances={"canonical": float("inf")}),
     "tolerances.canonical"),
    (lambda d: d.update(tolerances={"drift": float("nan")}),
     "tolerances.drift"),
    (lambda d: d.update(tolerances={"torsion": 10**400}),
     "tolerances.torsion"),
    (lambda d: d["sample_box"].update(q1=[0.5, float("inf")]),
     "sample_box.q1"),
    (lambda d: d["sample_box"].update(p1=[float("-inf"), 1.0]),
     "sample_box.p1"),
    (lambda d: d["trajectory"].update(x0=[float("nan"), 1.5]),
     "trajectory.x0"),
    (lambda d: d["trajectory"].update(t_span=[0.0, float("inf")]),
     "trajectory.t_span"),
])
def test_non_finite_config_numbers_are_rejected(mutator, field):
    data = base_config()
    mutator(data)
    with pytest.raises(ConfigError,
                       match=f"{field}: expected a finite number"):
        validate_config(data)


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_flag_exits_two(tmp_path, capsys, tol):
    # an infinite tolerance passed `canonical` with residual 1.26
    path = write_config(tmp_path, base_config())
    code = run_cli(["check", "--config", path, "--out", str(tmp_path / "out"),
                    "--tol", tol])
    assert code == 2
    assert "tolerances.canonical: expected a finite number" in \
        capsys.readouterr().err
    assert not (tmp_path / "out" / "check.json").exists()


def test_infinity_literal_in_config_exits_two(tmp_path, capsys):
    # Python's json reads the non-standard literals Infinity and NaN
    data = base_config()
    del data["trajectory"]
    data["checks"] = ["canonical"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data)[:-1]
                    + ', "tolerances": {"canonical": Infinity}}')
    code = run_cli(["check", "--config", str(path),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "tolerances.canonical: expected a finite number" in \
        capsys.readouterr().err


def test_execution_error_names_check(tmp_path, capsys):
    data = base_config()
    data["hamiltonian"] = "log(q1)"
    data["sample_box"] = {"q1": [-2.0, -1.0], "p1": [0.5, 1.5]}
    data["checks"] = ["canonoid"]
    del data["trajectory"]
    path = write_config(tmp_path, data)
    code = run_cli(["check", "--config", path,
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "canonoid" in capsys.readouterr().err


def test_integrate_without_a_trajectory_exits_two(tmp_path, capsys):
    data = base_config()
    data["checks"] = ["canonical"]
    del data["trajectory"]
    path = write_config(tmp_path, data)
    assert run_cli(["integrate", "--config", path,
                    "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == \
        "error: trajectory: required for 'integrate'\n"
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_involution_with_a_singular_x_block_is_not_applicable(tmp_path):
    # F swaps q1 and z: its Lagrange x-block is singular at every sample
    data = {**base_config(),
            "geometry": {"kind": "contact", "n": 1},
            "hamiltonian": "(q1^2 + p1^2)/2 + 0.2*z",
            "transform": {"q1": "z", "p1": "p1", "z": "q1"},
            "sample_box": {"q1": [0.5, 1.5], "p1": [0.5, 1.5],
                           "z": [-0.5, 0.5]},
            "sample_count": 5, "checks": ["involution"]}
    del data["trajectory"]
    path = write_config(tmp_path, data)
    out = tmp_path / "out"
    # not-applicable is no failure, so the run exits 0 (ROADMAP item 14)
    assert run_cli(["check", "--config", path, "--out", str(out)]) == 0
    entry = json.loads((out / "check.json").read_text())["checks"]
    assert entry == {"involution": {
        "verdict": "not-applicable", "residual": None, "tolerance": 1e-8,
        "detail": "Lagrange x-block singular at all 5 samples"}}


def _without(path, *keys):
    report = json.loads(path.read_text())
    for key in keys:
        del report[key]
    return report


@pytest.mark.parametrize("command,checks", [
    ("invariants", CHECK_NAMES),
    ("check", ["traces"]),
    ("report", ["traces"]),
])
def test_a_run_that_reads_no_samples_draws_none(tmp_path, monkeypatch,
                                                command, checks):
    # only the structural checks read the samples: a sample stack far
    # too big to allocate is never drawn unless one of them runs
    drawn = []
    draw = cli.draw_samples
    monkeypatch.setattr(cli, "draw_samples",
                        lambda *args: drawn.append(args) or draw(*args))
    outputs = []
    for count in (25, 2**62):
        data = {**base_config(), "checks": list(checks),
                "sample_count": count}
        out = tmp_path / str(count)
        assert run_cli([command, "--config", write_config(tmp_path, data),
                        "--out", str(out)]) == 0
        outputs.append(out)
    assert drawn == []
    target = cli.COMMANDS[command][1]
    assert _without(outputs[0] / target, "config_hash", "sample_count") \
        == _without(outputs[1] / target, "config_hash", "sample_count")
    csv = [out / "invariants.csv" for out in outputs]
    if command == "check":
        assert not csv[0].exists()
    else:
        assert csv[0].read_bytes() == csv[1].read_bytes()


def test_the_samples_are_drawn_once_per_config(monkeypatch):
    drawn = []
    draw = cli.draw_samples
    monkeypatch.setattr(cli, "draw_samples",
                        lambda *args: drawn.append(args) or draw(*args))
    cfg = validate_config(base_config())
    cli._run_checks(cfg, CHECK_NAMES, None)
    assert len(drawn) == 1 and cfg.jets is cfg.jets
    # the drawn bundle stays out of the config's value
    assert cfg == validate_config(base_config())
    assert np.array_equal(cfg.jets.x, draw(cfg.geometry, cfg.sample_box,
                                           cfg.sample_count, cfg.seed))


def test_a_structural_check_names_itself_when_the_draw_fails(tmp_path, capsys):
    data = {**base_config(), "sample_count": 2**62,
            "checks": ["traces", "torsion", "lenard"]}
    path = write_config(tmp_path, data)
    assert run_cli(["report", "--config", path,
                    "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: check 'torsion' failed to execute: "
                          f"cannot draw {2**62} samples: ") \
        and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "report.json").exists()


def test_sample_stack_too_big_is_an_execution_error(tmp_path, capsys):
    # numpy refuses a 2^62-row stack without allocating it; the draw is
    # an execution error, not a failed check
    data = base_config()
    data["sample_count"] = 2**62
    data["checks"] = ["canonical"]
    del data["trajectory"]
    path = write_config(tmp_path, data)
    assert run_cli(["check", "--config", path,
                    "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"cannot draw {2**62} samples" in err
    assert not (tmp_path / "out" / "check.json").exists()


@pytest.mark.parametrize("method,cause", [
    ("rk45-adaptive", "step size underflow at t = 0.99999999999"),
    ("rk4", "overflow in 'q1^2.0' at row 0"),
], ids=["rk45-adaptive", "rk4"])
def test_failed_trajectory_is_an_execution_error(tmp_path, capsys, method,
                                                 cause):
    # q' = -q^2 from q = -1 blows up at t = 1
    data = base_config()
    data["hamiltonian"] = "-p1*q1^2"
    data["transform"] = {"q1": "q1", "p1": "p1"}
    data["trajectory"] = {"x0": [-1.0, 1.0], "t_span": [0, 3], "steps": 10,
                          "method": method}
    path = write_config(tmp_path, data)
    for command in ("integrate", "invariants"):
        assert run_cli([command, "--config", path,
                        "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert cause in err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_report_ignores_outputs_of_other_overrides(tmp_path):
    path = write_config(tmp_path, base_config())
    out = str(tmp_path / "out")
    assert run_cli(["check", "--config", path, "--out", out,
                    "--seed", "7", "--tol", "10"]) == 0
    # a plain report runs a different effective config, and reads no
    # earlier output in any case
    assert run_cli(["report", "--config", path, "--out", out]) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 42
    for name in STRUCTURAL_CHECKS:
        assert report["checks"][name]["tolerance"] == DEFAULT_TOLERANCES[name]
    assert report["checks"]["canonical"]["verdict"] == "fail"


# ---------------------------------------------------------------------------
# non-finite residuals


@pytest.mark.parametrize("check", ["canonical", "torsion", "lie_derivative"])
def test_overflow_is_an_execution_error(tmp_path, capsys, check):
    # float products overflow to inf without raising; every residual
    # built from this map is NaN or infinite
    data = base_config()
    data["transform"] = {"q1": "q1", "p1": "p1*1e200*1e200*q1"}
    data["checks"] = [check]
    del data["trajectory"]
    path = write_config(tmp_path, data)
    assert run_cli(["check", "--config", path,
                    "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"check '{check}'" in err
    assert "non-finite residual at sample 0" in err


def test_overflowing_component_value_is_an_execution_error(tmp_path, capsys):
    # the value of p1 overflows while its Jacobian stays finite; the
    # symplectic checks read only J, so only the component guard sees it
    data = base_config()
    data["transform"] = {"q1": "q1", "p1": "p1 + 1e200*1e200"}
    data["checks"] = list(STRUCTURAL_CHECKS)
    del data["trajectory"]
    path = write_config(tmp_path, data)
    assert run_cli(["check", "--config", path,
                    "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "check 'canonical'" in err
    assert "non-finite residual at sample 0 in transform component p1" in err



def test_singular_transform_is_an_execution_error(tmp_path, capsys):
    # P = 0*p collapses the momentum axis: the traces of S all read 0 and
    # are trivially conserved, so only the singularity test stops a pass
    data = base_config()
    data["transform"] = {"q1": "q1", "p1": "0*p1"}
    data["checks"] = ["traces"]
    path = write_config(tmp_path, data)
    assert run_cli(["invariants", "--config", path,
                    "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "check 'traces'" in err
    assert "transform Jacobian is singular" in err


def n1_config(kind, transform):
    g = GeometryKind(kind, 1)
    H = "p1^2/2 + q1^2/2" + (" + 0.1*z" if g.z_index is not None else "")
    return {
        "schema": 1,
        "geometry": {"kind": kind, "n": 1},
        "hamiltonian": H,
        "transform": transform,
        "sample_box": {v: [0.5, 1.5] for v in g.chart_vars},
        "sample_count": 3,
        "seed": 42,
        "trajectory": {"x0": [0.0 if v == "t" else 0.5 for v in g.chart_vars],
                       "t_span": [0.0, 1.0], "steps": 5, "method": "rk4"},
    }


@pytest.mark.parametrize("kind", ["contact", "cocontact"])
def test_overflowing_contact_hamiltonian_is_a_non_finite_residual(kind):
    # X_H and dK come out infinite; assembling the residual from them
    # must leave the verdict to the guard, not raise a RuntimeWarning
    data = n1_config(kind, {v: v for v in GeometryKind(kind, 1).chart_vars})
    data["hamiltonian"] = "p1^2/2*1e200*1e200"
    with pytest.raises(CheckError) as info:
        cli._run_checks(validate_config(data), ("canonoid",), None)
    assert isinstance(info.value.cause, transform.NonFiniteResidual)


def test_non_finite_trace_names_its_observable(tmp_path):
    # tr S^2 overflows at every state; its drift comes out NaN, and the
    # check that fails to execute leaves no invariants.csv behind
    data = base_config()
    data["transform"] = {"q1": "1e100*q1", "p1": "1e100*p1"}
    data["checks"] = ["traces"]
    data["trajectory"]["steps"] = 10
    with pytest.raises(CheckError,
                       match="non-finite residual at observable trS2$"):
        cli._run_checks(validate_config(data), ("traces",), tmp_path)
    assert list(tmp_path.iterdir()) == []


# the Lagrange brackets of F = 1e200 (q1, p1) overflow to inf
HUGE = {"q1": "1e200*q1", "p1": "1e200*p1"}


@pytest.mark.parametrize("check,hamiltonian,transform_", [
    *((check, "p1^2/2", HUGE) for check in CHECK_NAMES),
    ("canonoid", "1e308*p1^4", {"q1": "q1", "p1": "p1^3/3"}),
    ("canonical", "p1^2/2 + z", {**HUGE, "z": "z"}),
], ids=[*CHECK_NAMES, "canonoid-overflowing-H", "contact-canonical"])
def test_a_non_finite_residual_is_one_quiet_line(tmp_path, capfd, check,
                                                 hamiltonian, transform_):
    # numpy prints no floating-point warning on the way to the guard; a
    # warning that reaches the test is an error, and changes the message
    kind = "contact" if "z" in transform_ else "symplectic"
    data = n1_config(kind, transform_)
    data["hamiltonian"] = hamiltonian
    data["checks"] = [check]
    command = "invariants" if check == "traces" else "report"
    assert run_cli([command, "--config", write_config(tmp_path, data),
                    "--out", str(tmp_path / "out")]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith(f"error: check '{check}' failed to execute: "
                          "non-finite residual at ") \
        and err.count("\n") == 1, err


@pytest.fixture
def finite_lapack(monkeypatch):
    """np.linalg.svd and np.linalg.cond reject a non-finite matrix: on
    an infinite one the SVD may never return, or fail with LAPACK's
    message instead of naming the sample."""
    for name in ("svd", "cond"):
        def checked(a, *args, original=getattr(np.linalg, name), name=name,
                    **kwargs):
            if not np.isfinite(a).all():
                raise AssertionError(f"np.linalg.{name} of a non-finite "
                                     "matrix")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, checked)


@pytest.mark.parametrize("check,kind,transform_", [
    ("canonoid", "contact", {**HUGE, "z": "1e200*z"}),
    # with kmax = 1 the trace gradients stay finite: only L is not
    ("involution", "symplectic", HUGE),
], ids=["contact-reeb-coframe", "involution-lagrange-block"])
def test_no_non_finite_matrix_reaches_lapack(finite_lapack, check, kind,
                                             transform_):
    data = n1_config(kind, transform_)
    data["kmax"] = 1
    with pytest.raises(CheckError, match="non-finite residual at sample 0$"):
        cli._run_checks(validate_config(data), (check,), None)


def count_sample_sweeps(monkeypatch, cfg, names):
    """Run the checks `names` of cfg: their results, and the number of
    second-order sweeps of F over its sample stack."""
    samples = draw_samples(cfg.geometry, cfg.sample_box, cfg.sample_count,
                           cfg.seed)
    calls = []
    sweep = transform.jacobian_and_hessians

    def counting(F, x):
        calls.append(np.array_equal(x, samples))
        return sweep(F, x)

    monkeypatch.setattr(transform, "jacobian_and_hessians", counting)
    return cli._run_checks(cfg, names, None), sum(calls)


@pytest.mark.parametrize("kind", KINDS)
def test_structural_checks_make_one_sample_sweep(monkeypatch, kind):
    # every structural check reads F's jets from one bundle per config;
    # K recovery's own sweeps run on panel midpoints, not the samples
    cfg = validate_config(n1_config(kind, {v: v for v in
                                           GeometryKind(kind, 1).chart_vars}))
    results, sweeps = count_sample_sweeps(monkeypatch, cfg, STRUCTURAL_CHECKS)
    assert sweeps == 1
    assert list(results["lenard"]["per_k"]) == ["1", "2", "3"]


@pytest.mark.parametrize("names", [("canonical",), ("traces",)])
def test_checks_that_read_no_jets_make_no_sweep(monkeypatch, names):
    cfg = validate_config(base_config())
    assert count_sample_sweeps(monkeypatch, cfg, names)[1] == 0


@pytest.mark.parametrize("kind", KINDS)
def test_singular_map_is_attributed_to_the_first_check_reading_jets(kind):
    # canonical reads first-order data only and fails on P = 0*p; the
    # shared sweep then raises under canonoid, the first check to read it
    chart = GeometryKind(kind, 1).chart_vars
    data = n1_config(kind, {v: v for v in chart})
    data["transform"]["p1"] = "0*p1"
    cfg = validate_config(data)
    with pytest.raises(CheckError) as info:
        cli._run_checks(cfg, STRUCTURAL_CHECKS, None)
    assert info.value.check == "canonoid"
    assert "transform Jacobian is singular" in str(info.value)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS),
       target=st.sampled_from(["q1", "p1"]),
       base=st.sampled_from(["q1", "p1", "q1*p1", "sin(p1) + 2", "q1^2 - p1"]),
       blowup=st.sampled_from(["1e200*1e200", "1e300*1e10",
                               "(1e200*1e200 - 1e200*1e200)"]),
       check=st.sampled_from(CHECK_NAMES))
def test_overflowing_expressions_never_pass(kind, target, base, blowup, check):
    chart = GeometryKind(kind, 1).chart_vars
    transform = {v: v for v in chart}
    transform[target] = f"({base})*{blowup}"
    cfg = validate_config(n1_config(kind, transform))
    try:
        result = cli._run_checks(cfg, (check,), None)[check]
    except CheckError:
        return
    assert result["verdict"] != "pass", result


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS),
       eps=st.floats(min_value=1e-20, max_value=1e-13),
       check=st.sampled_from(CHECK_NAMES))
def test_ill_conditioned_maps_never_pass(kind, eps, check):
    # p -> eps*p has det(J) = eps != 0 but cond(J) = 1/eps: no residual
    # drawn from it is meaningful
    chart = GeometryKind(kind, 1).chart_vars
    transform = {v: v for v in chart}
    transform["p1"] = f"{eps!r}*p1"
    cfg = validate_config(n1_config(kind, transform))
    try:
        result = cli._run_checks(cfg, (check,), None)[check]
    except CheckError as e:
        assert "transform Jacobian is singular" in str(e)
        return
    assert result["verdict"] != "pass", result


def test_flag_overrides(tmp_path):
    path = write_config(tmp_path, base_config())
    out = str(tmp_path / "out")
    # a huge tolerance turns every verdict into a pass
    assert run_cli(["report", "--config", path, "--out", out,
                    "--tol", "10.0"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["checks"]["canonical"]["verdict"] == "pass"
    assert report["checks"]["canonical"]["tolerance"] == 10.0
    # kmax shapes the invariants table
    run_cli(["invariants", "--config", path, "--out", out, "--kmax", "2"])
    header = (tmp_path / "out" / "invariants.csv").read_text().splitlines()[0]
    assert header == "time,trS1,trS2"
    # the seed is read as the integer the config holds
    assert run_cli(["check", "--config", path, "--out", out,
                    "--seed", "7"]) == 1
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    assert report["seed"] == 7


# ---------------------------------------------------------------------------
# the argv reader


def test_help_lists_every_command(capsys):
    for argv in (["--help"], ["-h"], ["check", "--help"]):
        assert run_cli(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: canonoid") and err == ""
        for command in cli.COMMANDS:
            assert f"\n  {command} " in out
        for option in ("--config", "--out", "--kmax", "--tol", "--seed"):
            assert f"\n  {option} " in out


def test_option_value_forms(tmp_path):
    # --name VALUE, --name=VALUE and a unique prefix of the name
    path = write_config(tmp_path, base_config())
    outputs = []
    for i, argv in enumerate([["--config", path], [f"--config={path}"],
                              ["--conf", path], ["--co", path, "--se=42"]]):
        out = tmp_path / f"out{i}"
        assert run_cli(["check", *argv, "--out", str(out)]) == 1
        outputs.append((out / "check.json").read_bytes())
    assert len(set(outputs)) == 1


@pytest.mark.parametrize("argv,message", [
    ("", "expected a command (check, integrate, invariants, report) first, "
         "got nothing"),
    ("bogus --config {path} --out {out}", "expected a command (check, "
     "integrate, invariants, report) first, got 'bogus'"),
    ("check --config {path} --out {out} --bogus",
     "option --bogus not recognized"),
    ("check --out {out}", "option --config is required"),
    ("check --out {out} --config", "option --config requires argument"),
    ("check --config {path} --out {out} --kmax 2.5",
     "option --kmax: invalid int value '2.5'"),
    ("check --config {path} --out {out} --seed x",
     "option --seed: invalid int value 'x'"),
    ("check --config {path} --out {out} --seed 2.5",
     "option --seed: invalid int value '2.5'"),
    ("check --config {path} --out {out} --tol x",
     "option --tol: invalid float value 'x'"),
    ("check --config {path} --out {out} stray",
     "unexpected argument 'stray'"),
])
def test_usage_errors_exit_two(tmp_path, capsys, argv, message):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert run_cli(argv.format(path=path, out=out).split()) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("usage: canonoid")
    assert err.endswith(f"\nerror: {message}\n")
    assert not out.exists()


def test_a_usage_error_is_no_traceback():
    # the process entry exits with main's 2, and no exception escapes
    r = subprocess.run([sys.executable, "-m", "canonoid.cli", "check",
                        "--kmax", "2.5"], capture_output=True, text=True)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("usage: canonoid")
    assert r.stderr.splitlines()[-1] == \
        "error: option --kmax: invalid int value '2.5'"
    assert "Traceback" not in r.stderr


def test_check_n4_compiles_one_kernel_per_shape(tmp_path):
    # the benchmark's symplectic n = 4 family: the four q components
    # share one sweep per order, and so do the four p components
    idx = range(1, 5)
    data = {**base_config(), "checks": list(STRUCTURAL_CHECKS),
            "hamiltonian": " + ".join(f"p{i}^2/2" for i in idx),
            "geometry": {"kind": "symplectic", "n": 4}, "sample_count": 25,
            "transform": {**{f"q{i}": f"q{i}" for i in idx},
                          **{f"p{i}": f"p{i}^3/3 + sin(p{i})/2" for i in idx}},
            "sample_box": {f"{c}{i}": [0.5, 1.5] for c in "qp" for i in idx}}
    del data["trajectory"]
    path = write_config(tmp_path, data)
    script = ("import sys, canonoid.cli as cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print(code, cli.expr._code.cache_info().currsize)\n")
    code, kernels = run_python(script, "check", "--config", path,
                               "--out", str(tmp_path / "out"))
    assert code == "1" and int(kernels) <= 6


def test_module_entry_point(tmp_path, capsys):
    # python -m canonoid.cli goes through console(), which must write
    # what an in-process main() run writes, byte for byte: a failed
    # check (exit 1), and a seed outside 64 bits (exit 2, no files)
    path = write_config(tmp_path, base_config())
    cases = [(["check", "--config", path], 1),
             (["check", "--config", path, "--seed", "-1"], 2)]
    for i, (argv, code) in enumerate(cases):
        out, ref = tmp_path / f"out{i}", tmp_path / f"main{i}"
        r = subprocess.run(
            [sys.executable, "-m", "canonoid.cli", *argv, "--out", str(out)],
            capture_output=True, text=True)
        assert r.returncode == code
        assert run_cli([*argv, "--out", str(ref)]) == code
        assert (r.stdout, r.stderr) == capsys.readouterr()
        assert files_of(out) == files_of(ref)
    report = json.loads((tmp_path / "out0" / "check.json").read_text())
    assert "traces" not in report["checks"]
    assert report["checks"]["canonical"]["verdict"] == "fail"
    assert r.stderr == "error: seed: must be an integer in 0..2^64-1\n"
    assert not (tmp_path / "out1").exists()


def files_of(directory):
    """{name: bytes} of the files in directory, None if it is missing."""
    if not directory.exists():
        return None
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def run_python(code, *args, exit_code=0):
    r = subprocess.run([sys.executable, "-c", code, *args],
                       capture_output=True, text=True)
    assert r.returncode == exit_code, r.stderr
    return r.stdout.split()


def test_import_and_main_leave_the_collector_alone(tmp_path):
    # a program's heap is not the CLI's to freeze: neither importing
    # canonoid.cli, whose imports run with the collector off, nor
    # calling main() in-process changes the collector's setting or what
    # it has frozen.  With the collector on and nothing frozen, the
    # import leaves fewer young objects than one gen-0 collection takes
    # (the import-time heap sits in the oldest generation); otherwise it
    # leaves the heap where it is.
    path = write_config(tmp_path, base_config())
    code = ("import gc, sys\n"
            "exec(sys.argv.pop(1))\n"
            "frozen = bool(gc.get_freeze_count())\n"
            "import canonoid.cli as cli\n"
            "young = len(gc.get_objects(0)) + len(gc.get_objects(1))\n"
            "print(gc.isenabled(), bool(gc.get_freeze_count()) == frozen,\n"
            "      young < gc.get_threshold()[0])\n"
            "print(cli.main(sys.argv[1:]))\n"
            "print(gc.isenabled(), bool(gc.get_freeze_count()) == frozen)\n")
    for setup, enabled, settled in [("pass", "True", "True"),
                                    ("gc.disable()", "False", "False"),
                                    ("gc.freeze()", "True", "False")]:
        assert run_python(code, setup, "check", "--config", path,
                          "--out", str(tmp_path / "out")) \
            == [enabled, "True", settled, "1", enabled, "True"]


def test_process_entry_freezes_the_heap_around_main(tmp_path):
    # console() runs main() with the import-time heap frozen and the
    # collector on, then ends the process with main's exit code without
    # the interpreter's teardown, which would run atexit handlers; under
    # a trace or profile function it exits normally, so theirs run
    path = write_config(tmp_path, base_config())
    code = ("import atexit, gc, sys, canonoid.cli as cli\n"
            "run = cli.main\n"
            "def main(argv):\n"
            "    print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
            "    atexit.register(print, 'teardown')\n"
            "    return run(argv)\n"
            "cli.main = main\n"
            "hook = sys.argv.pop(1)\n"
            "if hook != 'none':\n"
            "    getattr(sys, hook)(lambda *args: None)\n"
            "cli.console(sys.argv[1:])\n"
            "print('returned')\n")
    for hook, last in [("none", []), ("settrace", ["teardown"]),
                       ("setprofile", ["teardown"])]:
        assert run_python(code, hook, "check", "--config", path,
                          "--out", str(tmp_path / hook), exit_code=1) \
            == ["True", "True", *last]
