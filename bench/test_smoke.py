"""Smoke test of the benchmark itself, on the smallest configs.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math

import oracle
import run
import tracer
from workloads import ALL_CHECKS, Job, make_config


def smoke_jobs(seed=5):
    return [
        Job("symplectic-n1", "report",
            make_config("symplectic", 1, seed, ALL_CHECKS, 3,
                        (0.0, 1.0, 20, "rk4"))),
        Job("contact-n1", "invariants",
            make_config("contact", 1, seed, ["traces"], 3,
                        (0.0, 5.0, 10, "rk45-adaptive"))),
    ]


def traced_metrics(work):
    work.mkdir()
    bench = run.Bench(smoke_jobs(), work)
    metrics = bench.traced()
    assert bench.failed == 0, bench.problems
    assert bench.attempted == 3 * len(bench.jobs)
    return metrics


def test_counts_repeat_exactly(tmp_path):
    first = traced_metrics(tmp_path / "a")
    second = traced_metrics(tmp_path / "b")
    counts = [name for name in tracer.metric_units()
              if not name.endswith("_ms") and name != "trace.overhead_ratio"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["dynamics.integrate.calls"] == 2
    assert 0 < first["dynamics.rk45.accept_ratio"] <= 1


def test_every_named_metric_is_emitted(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = tracer.metric_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS
    metrics = traced_metrics(tmp_path / "a")
    assert set(metrics) == set(units)
    assert all(math.isfinite(v) for v in metrics.values())


def test_wrappers_are_removed(tmp_path):
    modules = run.import_canonoid()
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    with tracer.Tracer(modules):
        assert modules["dynamics"].dynamical_vf is not \
            before["dynamics"]["dynamical_vf"]
    traced_metrics(tmp_path / "a")
    for name, mod in modules.items():
        for attr, value in before[name].items():
            assert vars(mod)[attr] is value, f"{name}.{attr}"


def test_oracle_rejects_bad_outputs(tmp_path):
    bench = run.Bench(smoke_jobs()[:1], tmp_path)
    job = bench.jobs[0]
    out = tmp_path / "out"
    bench.run_process(job, out)
    assert bench.failed == 0, bench.problems
    assert oracle.check_run(job, out, 0).problems == \
        ["exit code 0, expected 1"]

    report = out / "report.json"
    good = report.read_text()
    doc = json.loads(good)
    doc["checks"]["torsion"]["residual"] = float("nan")
    report.write_text(json.dumps(doc))
    assert not oracle.check_run(job, out, 1).ok
    doc = json.loads(good)
    doc["checks"]["canonical"]["verdict"] = "pass"
    report.write_text(json.dumps(doc))
    assert not oracle.check_run(job, out, 1).ok
    report.unlink()
    assert not oracle.check_run(job, out, 1).ok
