"""Acceptance gate: one test per shipped guarantee, each printing a
single pass/fail line (run with -s to see them all).

Every criterion is exercised at its stated tolerance through the public
API only.  Oracles are independent of the code under test: closed-form
trajectories, finite differences, hand-derived bracket identities, and
frozen generator vectors.
"""

import json
import time

import numpy as np

from canonoid import cli, dynamics, expr, stensor, transform
from canonoid.geometry import GeometryKind, hamiltonian_vf, poisson_bracket, \
    jacobi_bracket
from canonoid.transform import TransformMap

from test_expr import (FD_CORPUS, FD_POINT, QPTZ, fd_gradient, fd_hessian)
from test_geometry import (POLY_NAMES, jacobi_identity_residual, random_poly)
from test_stensor import LENARD_CASES

SYMP1 = GeometryKind("symplectic", 1)
SYMP2 = GeometryKind("symplectic", 2)
COSY1 = GeometryKind("cosymplectic", 1)
CONT1 = GeometryKind("contact", 1)
COCO1 = GeometryKind("cocontact", 1)


def conclude(num, slug, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{slug}]: {status} ({detail})")
    assert ok, f"criterion {num} [{slug}]: {detail}"


# ---------------------------------------------------------------------------
# 1: bracket axioms on random polynomials


def test_criterion_1_bracket_axioms():
    started = time.perf_counter()
    tol = 1e-9
    rng = np.random.default_rng(20260816)
    worst = 0.0

    # Poisson brackets: antisymmetry, Leibniz, Jacobi
    for kind in ("symplectic", "cosymplectic"):
        g = GeometryKind(kind, 1)
        names = POLY_NAMES[kind]
        for _ in range(50):
            f = g.parse(random_poly(rng, names))
            h = g.parse(random_poly(rng, names))
            k = g.parse(random_poly(rng, names))
            x = rng.uniform(-1.5, 1.5, size=g.dim)
            env = g.env(x)
            anti = poisson_bracket(g, f, h, x) + poisson_bracket(g, h, f, x)
            fh = g.parse(f"({expr.serialize(f)})*({expr.serialize(h)})")
            leib = (poisson_bracket(g, fh, k, x)
                    - expr.evaluate(f, env) * poisson_bracket(g, h, k, x)
                    - expr.evaluate(h, env) * poisson_bracket(g, f, k, x))
            jac = jacobi_identity_residual(g, f, h, k, x)
            worst = max(worst, abs(anti), abs(leib), abs(jac))

    # Jacobi brackets: antisymmetry and Jacobi (Leibniz fails by design)
    for kind in ("contact", "cocontact"):
        g = GeometryKind(kind, 1)
        names = POLY_NAMES[kind]
        for _ in range(50):
            f = g.parse(random_poly(rng, names))
            h = g.parse(random_poly(rng, names))
            k = g.parse(random_poly(rng, names))
            x = rng.uniform(-1.5, 1.5, size=g.dim)
            anti = jacobi_bracket(g, f, h, x) + jacobi_bracket(g, h, f, x)
            jac = jacobi_identity_residual(g, f, h, k, x)
            worst = max(worst, abs(anti), abs(jac))

    # documented Leibniz violation: {q p, z} - q {p, z} - p {q, z} = -q p
    x = np.array([1.3, 0.7, 0.2])
    env = CONT1.env(x)
    fh = CONT1.parse("q1*p1")
    zf = CONT1.parse("z")
    violation = (jacobi_bracket(CONT1, fh, zf, x)
                 - expr.evaluate(CONT1.parse("q1"), env)
                 * jacobi_bracket(CONT1, CONT1.parse("p1"), zf, x)
                 - expr.evaluate(CONT1.parse("p1"), env)
                 * jacobi_bracket(CONT1, CONT1.parse("q1"), zf, x))
    violation_ok = abs(violation - (-1.3 * 0.7)) < 1e-12 \
        and abs(violation) > 0.1

    elapsed = time.perf_counter() - started
    conclude(1, "bracket-axioms",
             worst < tol and violation_ok and elapsed < 5.0,
             f"200 random triples, worst residual {worst:.2e}, "
             f"Leibniz violation {violation:+.3f}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2: momentum-map family conserves trace invariants


def test_criterion_2_momentum_family_traces():
    started = time.perf_counter()
    H = SYMP1.parse("p1^2/2")
    traj = dynamics.integrate(SYMP1, H, [0.0, 1.5], (0.0, 10.0), 10000,
                              method="rk4")
    worst = 0.0
    for f_src in ("p1^3/3", "p1 + p1^3", "exp(p1)"):
        F = TransformMap.parse(SYMP1, ["q1", f_src])
        obs = cli.trace_observables(F, 4)
        rep = dynamics.drift_report(traj, obs)
        worst = max(worst,
                    max(d.max_rel_drift for d in rep.values()))

    # negative control: q-dependent momentum scaling is not canonoid
    bad = TransformMap.parse(SYMP1, ["q1", "q1*p1"])
    rng = np.random.default_rng(4)
    samples = rng.uniform(0.5, 1.5, size=(20, 2))
    res = transform.check_canonoid(bad, H, samples)
    control_ok = (not res.canonoid) and res.components["closedness"] > 1e-2

    elapsed = time.perf_counter() - started
    conclude(2, "momentum-family-traces",
             worst < 1e-7 and control_ok and elapsed < 10.0,
             f"3 maps x 10000 steps, worst trace drift {worst:.2e}, "
             f"control closedness {res.components['closedness']:.2f}, "
             f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3: cosymplectic family with time-dependent generator


def test_criterion_3_cosymplectic_family():
    g = COSY1
    H = g.parse("p1^2/2 + t*q1")
    F = TransformMap.parse(g, ["q1", "1.5*p1", "t"])
    rng = np.random.default_rng(9)

    samples = np.column_stack([rng.uniform(0.5, 1.5, 20),
                               rng.uniform(0.5, 1.5, 20),
                               rng.uniform(0.0, 2.0, 20)])
    res = transform.check_canonoid(F, H, samples)
    canonoid_worst = res.max_residual

    traj = dynamics.integrate(g, H, [1.0, 0.5, 0.0], (0.0, 5.0), 5000)
    rep = dynamics.drift_report(traj, cli.trace_observables(F, 4))
    drift_worst = max(d.max_rel_drift for d in rep.values())

    # K = 1.5 H, so the mixed q-t second derivative is 1.5 and the only
    # legitimate Lie-derivative entry is (p row, dt column) = -1.5
    expected_col = np.array([0.0, -1.5, 0.0])
    lie_worst = 0.0
    ti = g.t_index
    for x in samples:
        lie = dynamics.lie_derivative_S(F, H, x)
        lie_worst = max(lie_worst,
                        float(np.max(np.abs(lie[:, ti] - expected_col))),
                        float(np.max(np.abs(np.delete(lie, ti, axis=1)))))

    conclude(3, "cosymplectic-family",
             canonoid_worst < 1e-8 and drift_worst < 1e-6
             and lie_worst < 1e-8,
             f"canonoid {canonoid_worst:.2e}, trace drift {drift_worst:.2e}, "
             f"lie structure {lie_worst:.2e} at 20 points")


# ---------------------------------------------------------------------------
# 4: contact and cocontact scalings


def _pulled_back_theta(g, F, x):
    """1-form components of the pulled-back contact form, assembled from
    component gradients only."""
    comps = F.components
    env = g.env(x)
    vals = [expr.evaluate(c, env) for c in comps]
    grads = [expr.gradient(c, x) for c in comps]
    theta = grads[list(g.chart_vars).index("z")].copy()
    for qi, pi in zip(g.q_indices, g.p_indices):
        theta -= vals[pi] * grads[qi]
    return theta


def test_criterion_4_contact_scalings():
    rng = np.random.default_rng(12)
    cases = [
        (CONT1, "(q1^2 + p1^2)/2 + 0.2*z", [1.0, 0.0, 0.0],
         lambda c: ["%g*q1" % c, "p1", "%g*z" % c]),
        (COCO1, "(q1^2 + p1^2)/2 + 0.2*z + 0.5*t", [0.0, 1.0, 0.0, 0.0],
         lambda c: ["t", "%g*q1" % c, "p1", "%g*z" % c]),
    ]
    cond_worst = 0.0
    drift_worst = 0.0
    for g, h_src, x0, build in cases:
        H = g.parse(h_src)
        traj = dynamics.integrate(g, H, x0, (0.0, 10.0), 10000)
        cols = []
        for name in g.chart_vars:
            if name == "z":
                cols.append(rng.uniform(-0.5, 0.5, 15))
            elif name == "t":
                cols.append(rng.uniform(0.0, 2.0, 15))
            else:
                cols.append(rng.uniform(0.5, 1.5, 15))
        samples = np.column_stack(cols)
        for c in (0.5, 2.0, 3.0):
            F = TransformMap.parse(g, build(c))
            res = transform.check_canonoid(F, H, samples)
            cond_worst = max(cond_worst, res.max_residual)
            # second defining condition, assembled independently:
            # contraction of the pulled-back form with the dynamics
            # must equal -K, and K must scale the energy by c
            for x, k_val in zip(samples, res.K_probe):
                theta = _pulled_back_theta(g, F, x)
                X = hamiltonian_vf(g, H, x)
                h_val = expr.evaluate(H, g.env(x))
                cond_worst = max(cond_worst,
                                 abs(float(theta @ X) + k_val),
                                 abs(k_val - c * h_val))
            rep = dynamics.drift_report(traj,
                                        cli.trace_observables(F, 4))
            drift_worst = max(drift_worst,
                              max(d.max_rel_drift
                                  for d in rep.values()))

    conclude(4, "contact-scalings",
             cond_worst < 1e-8 and drift_worst < 1e-7,
             f"c in (0.5, 2, 3) on both kinds, conditions {cond_worst:.2e}, "
             f"trace drift {drift_worst:.2e}")


# ---------------------------------------------------------------------------
# 5: Lenard trace identities


def test_criterion_5_lenard_identities():
    rng = np.random.default_rng(31)
    worst = 0.0
    for g, sources in LENARD_CASES:
        F = TransformMap.parse(g, sources)
        for _ in range(50):
            x = rng.uniform(0.5, 1.4, size=g.dim)
            r = stensor.lenard_identity_residual(F, x, 3)
            for k in (1, 2, 3):
                worst = max(worst, r[k - 1])
    conclude(5, "lenard-identities", worst < 1e-8,
             f"{len(LENARD_CASES)} maps x 50 points x k in 1..3, "
             f"worst residual {worst:.2e}")


# ---------------------------------------------------------------------------
# 6: vanishing torsion implies involution


def test_criterion_6_torsion_implies_involution():
    rng = np.random.default_rng(42)
    corpus = [
        (SYMP1, ["q1", "p1"]),
        (SYMP1, ["q1", "p1^3/3"]),
        (SYMP1, ["q1*p1 + sin(q1)", "exp(p1/2) + q1^2"]),
        (SYMP2, ["q1 + 2*q2", "q2", "p1", "p2 - 2*p1"]),
        (SYMP2, ["q1", "q2", "p1^3/3", "p2 + p2^3/3"]),
        (SYMP2, ["q1", "q2", "p1 + q2*p1^2", "p2"]),   # torsionful
    ]
    premise_true = 0
    involution_worst = 0.0
    gated_out = 0
    for g, sources in corpus:
        F = TransformMap.parse(g, sources)
        samples = rng.uniform(0.6, 1.4, size=(10, g.dim))
        torsion = max(
            float(np.max(np.abs(
                stensor.nijenhuis_torsion(F, x))))
            for x in samples)
        if torsion < 1e-10:
            premise_true += 1
            res = stensor.involution_matrix(F, samples, kmax=4)
            involution_worst = max(involution_worst,
                                   float(np.max(res.unbarred)),
                                   float(np.max(res.barred)))
        else:
            gated_out += 1
    conclude(6, "torsion-implies-involution",
             premise_true >= 4 and gated_out >= 1
             and involution_worst < 1e-8,
             f"{premise_true} torsion-free maps, both bracket variants "
             f"worst {involution_worst:.2e}, {gated_out} map gated out")


# ---------------------------------------------------------------------------
# 7: derivatives against finite differences


def test_criterion_7_derivative_corpus():
    worst_g = 0.0
    worst_h = 0.0
    for src in FD_CORPUS:
        e = expr.parse(src, QPTZ)
        _, grad, hess = expr.value_and_derivatives(e, FD_POINT)
        fg = fd_gradient(e, FD_POINT)
        fh = fd_hessian(e, FD_POINT)
        worst_g = max(worst_g, float(np.max(
            np.abs(grad - fg) / np.maximum(np.abs(fg), 1.0))))
        worst_h = max(worst_h, float(np.max(
            np.abs(hess - fh) / np.maximum(np.abs(fh), 1.0))))
    conclude(7, "derivative-corpus", worst_g < 1e-6 and worst_h < 1e-4,
             f"{len(FD_CORPUS)} expressions, gradient {worst_g:.2e}, "
             f"hessian {worst_h:.2e}")


# ---------------------------------------------------------------------------
# 8: closed-form trajectories


def test_criterion_8_closed_form_trajectories():
    H = SYMP1.parse("(q1^2 + p1^2)/2")
    traj = dynamics.integrate(SYMP1, H, [1.0, 0.0], (0.0, 2 * np.pi), 1000)
    harmonic_err = float(np.max(np.abs(traj.states[-1] - [1.0, 0.0])))

    Hd = CONT1.parse("(q1^2 + p1^2)/2 + 0.2*z")
    traj = dynamics.integrate(CONT1, Hd, [1.0, 0.0, 0.0], (0.0, 3.0), 3000)
    w = np.sqrt(1.0 - 0.01)
    t = traj.times
    q_ref = np.exp(-0.1 * t) * (np.cos(w * t) + (0.1 / w) * np.sin(w * t))
    p_ref = -np.exp(-0.1 * t) * np.sin(w * t) / w
    damped_err = max(float(np.max(np.abs(traj.states[:, 0] - q_ref))),
                     float(np.max(np.abs(traj.states[:, 1] - p_ref))))

    conclude(8, "closed-form-trajectories",
             harmonic_err < 1e-8 and damped_err < 1e-6,
             f"harmonic period return {harmonic_err:.2e}, "
             f"damped oscillator {damped_err:.2e}")


# ---------------------------------------------------------------------------
# 9: deterministic reports


def test_criterion_9_deterministic_reports(tmp_path):
    config = {
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
                       "steps": 200, "method": "rk4"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    cli.run(str(path), tmp_path / "a")
    cli.run(str(path), tmp_path / "b")
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()

    r = cli.Xorshift64Star(42)
    vectors_ok = [r.next_u64() for _ in range(3)] == [
        6255019084209693600,
        14430073426741505498,
        14575455857230217846,
    ]
    conclude(9, "deterministic-reports",
             a == b and vectors_ok,
             f"report.json {len(a)} bytes identical across runs, "
             f"generator vectors match documentation")


# ---------------------------------------------------------------------------
# 10: a canonoid family whose traces vary over phase space


def test_criterion_10_varying_traces(tmp_path):
    # F scales (q, p) by 1 + E with E the oscillator's own energy: det J
    # depends on E alone, so F is canonoid for H, and tr S^k depends on
    # E, so a trajectory that leaves its energy level drifts the traces
    energy = "((q1^2 + p1^2)/2)"
    family = {"q1": f"q1*(1 + {energy})", "p1": f"p1*(1 + {energy})"}
    control = {"q1": "q1", "p1": "p1^3/3"}
    verdicts = {}
    for name, tf in (("family", family), ("control", control)):
        config = {
            "schema": 1,
            "geometry": {"kind": "symplectic", "n": 1},
            "hamiltonian": "(q1^2 + p1^2)/2",
            "transform": tf,
            "sample_box": {"q1": [0.5, 1.5], "p1": [0.5, 1.5]},
            "sample_count": 25,
            "seed": 7,
            "checks": ["canonoid", "traces"],
            "kmax": 4,
            "trajectory": {"x0": [1.0, 0.5], "t_span": [0.0, 10.0],
                           "steps": 1000, "method": "rk4"},
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        checks = cli.run(str(path), tmp_path / name)["checks"]
        verdicts[name] = {c: (checks[c]["verdict"], checks[c]["residual"])
                          for c in ("canonoid", "traces")}

    F = TransformMap.parse(SYMP1, [family["q1"], family["p1"]])
    rng = np.random.default_rng(10)
    spread = np.ptp(stensor.trace_powers(
        F, rng.uniform(0.5, 1.5, size=(25, 2)), 4), axis=0)

    fam, ctl = verdicts["family"], verdicts["control"]
    conclude(10, "varying-traces",
             all(v == "pass" for v, _ in fam.values())
             and all(v == "fail" for v, _ in ctl.values())
             and float(np.min(spread)) > 1.0,
             f"family canonoid {fam['canonoid'][1]:.1e}, trace drift "
             f"{fam['traces'][1]:.1e} over traces spread >= "
             f"{float(np.min(spread)):.1f}; control canonoid "
             f"{ctl['canonoid'][1]:.1f}, drift {ctl['traces'][1]:.1f}")
