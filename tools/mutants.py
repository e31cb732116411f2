"""Run the tier-1 tests against named mutants of the source tree.

    python3 tools/mutants.py [NAME ...]

Each mutant is one textual edit of one file under src/: a known wrong
formula that some tier-1 test must reject.  For each mutant (all of
them, or the ones named) the tool copies src/, tests/ and
pyproject.toml into a temporary directory, applies the edit there (its
text must occur exactly once, so a refactor that moves the code fails
loudly instead of testing nothing), and runs the tier-1 tests with -x.
Mutants run concurrently, one per CPU the process may use, each in its
own tree; their results print in MUTANTS order.  A mutant is killed
when pytest exits 1 and names at least one FAILED or ERROR test; the
tool prints the tests that killed it.  A run that outlives TIMEOUT_S
prints TIMEOUT.  It exits 1 if any mutant survives, times out or no
longer applies.  The working tree is never modified.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 600

# name: (file, text, replacement)
MUTANTS = {
    "closedness-sums-asymmetry": (
        "src/canonoid/transform.py",
        "return np.max(np.abs(dGx - np.swapaxes(dGx, -1, -2)), axis=(-2, -1))",
        "return np.sum(np.abs(dGx - np.swapaxes(dGx, -1, -2)), axis=(-2, -1))"),
    "torsion-second-term-sign": (
        "src/canonoid/stensor.py",
        '         + np.einsum("...gnb,...ln->...lbg", dA, A))',
        '         - np.einsum("...gnb,...ln->...lbg", dA, A))'),
    "trace-gradient-k-for-k+1": (
        "src/canonoid/stensor.py",
        'grads[..., k, :] = (k + 1) * np.einsum(',
        'grads[..., k, :] = k * np.einsum('),
    "involution-sums-samples": (
        "src/canonoid/stensor.py",
        "unbarred = transform.fold_max(unbarred)",
        "unbarred = np.sum(unbarred, axis=0)"),
    "product-rule-association": (
        "src/canonoid/expr.py",
        """(ij, _plus(_plus(_times(a2.get(ij), bv),
                                     _times(b2.get(ij), av)),
                               _outer(a1, b1, *ij)))""",
        """(ij, _plus(_times(a2.get(ij), bv),
                               _plus(_times(b2.get(ij), av),
                                     _outer(a1, b1, *ij))))"""),
    "fold-max-nan-to-zero": (
        "src/canonoid/transform.py",
        "r = np.asarray(residuals, dtype=float)",
        "r = np.nan_to_num(np.asarray(residuals, dtype=float), nan=0.0)"),
    "rk4-stage4-half-step": (
        "src/canonoid/dynamics.py",
        "k4 = f([a + h * b for a, b in zip(y, k3)])",
        "k4 = f([a + half * b for a, b in zip(y, k3)])"),
    "rk4-weight-of-k3": (
        "src/canonoid/dynamics.py",
        "(((b1 + 2.0 * b2) + 2.0 * b3) + b4)",
        "(((b1 + 2.0 * b2) + b3) + b4)"),
    "rk4-t-pin-dropped": (
        "src/canonoid/dynamics.py",
        "            y[ti] = t\n",
        "            pass\n"),
    # the attempt is read off the tableau: two weights of one row swapped
    "dp-stage-weight": (
        "src/canonoid/dynamics.py",
        "(44 / 45, -56 / 15, 32 / 9),",
        "(44 / 45, 32 / 9, -56 / 15),"),
    # the last stage stands in for the next attempt's first wherever its
    # input equals the next attempt's state
    "dp-six-stages": (
        "src/canonoid/dynamics.py",
        "        f = functools.partial(dynamical_vf, g, H)\n",
        "        last = [None, None]\n\n"
        "        def f(x, field=functools.partial(dynamical_vf, g, H)):\n"
        "            if x != last[0]:\n"
        "                last[:] = x, field(x)\n"
        "            return last[1]\n\n"),
    # K recovery: one panel per unit of segment length, closedness
    # checked at every panel midpoint, each panel's weights its
    # half-width times the rule's
    "one-panel-per-segment": (
        "src/canonoid/transform.py",
        "counts = np.ceil(np.linalg.norm(seg, axis=1)).clip(1).astype(int)",
        "counts = np.ones(len(seg), dtype=int)"),
    "k-midpoint-guard-dropped": (
        "src/canonoid/transform.py",
        "        if open_.any():\n",
        "        if False:\n"),
    "gl-half-width": (
        "src/canonoid/transform.py",
        "mids, half = (lo + hi) / 2, (hi - lo) / 2",
        "mids, half = (lo + hi) / 2, hi - lo"),
    # the literal Gauss-Legendre table must be leggauss's to the last ulp
    "gl-weight-last-digit": (
        "src/canonoid/transform.py",
        "(-0.9972638618494816, 0.007018610009470506),",
        "(-0.9972638618494816, 0.007018610009470507),"),
    # the drift slope regresses on the centred scaled times
    "slope-uncentred": (
        "src/canonoid/dynamics.py",
        "c -= c.mean()",
        "pass"),
    "pullback-theta-term-sign": (
        "src/canonoid/geometry.py",
        "        theta -= vals[..., pi, None] * J[..., qi, :]",
        "        theta += vals[..., pi, None] * J[..., qi, :]"),
    "pullback-two-form-not-antisymmetrised": (
        "src/canonoid/geometry.py",
        "    return B - np.swapaxes(B, -1, -2)",
        "    return B"),
    "vf-jacobian-contact-diagonal-dropped": (
        "src/canonoid/geometry.py",
        "    dX[..., diag, diag] -= grad[..., zi, None]\n",
        ""),
    "guard-screen-no-margin": (
        "src/canonoid/transform.py",
        "lim = CONDITION_LIMIT / 2",
        "lim = CONDITION_LIMIT * d"),
    "guard-screen-passes-nan": (
        "src/canonoid/transform.py",
        "unsure = np.flatnonzero(~(bound <= lim))",
        "unsure = np.flatnonzero(bound > lim)"),
    "emitter-keeps-dead-values": (
        "src/canonoid/expr.py",
        "elif not live.isdisjoint(_LOCAL.findall(name)):",
        "elif True:"),
    "checks-written-per-stage": (
        "src/canonoid/expr.py",
        "if call not in self.written:",
        "if True:"),
    "float-overflow-check-as-call": (
        "src/canonoid/expr.py",
        'if guards and name == "overflow":',
        "if False:"),
    # equal-shaped expressions share one code object; each must read its
    # own (message, node) table, not the first one bound to that code
    "shared-kernel-swaps-E": (
        "src/canonoid/expr.py",
        "def _bind(code, namespace, consts, errors):\n"
        '    """The function run of code, reading its own constants K and its\n'
        '    own (message, node) table E."""\n'
        "    scope = dict(namespace, K=consts, E=errors)\n",
        "def _bind(code, namespace, consts, errors, _tables={}):\n"
        "    scope = dict(namespace, K=consts,\n"
        "                 E=_tables.setdefault(code, errors))\n"),
    "vpow-takes-stride-0-shortcuts": (
        "src/canonoid/expr.py",
        "return np.power(a, b if b.strides[0] else b.copy())",
        "return np.power(a, b)"),
    "float-vpow-scalar-exponent": (
        "src/canonoid/expr.py",
        '"vpow": lambda a, b: float(np.power((a,), (b,))[0]),',
        '"vpow": lambda a, b: float(np.power(a, b)),'),
    "reuse-trusts-prior-verdict": (
        "src/canonoid/cli.py",
        "                       and _reusable(cfg, name, entry))",
        "                       )"),
    "integrate-error-escapes": (
        "src/canonoid/cli.py",
        "        except Exception as e:\n"
        '            raise ExecutionError(f"integration failed: {e}") from e',
        "        except ZeroDivisionError as e:\n"
        '            raise ExecutionError(f"integration failed: {e}") from e'),
    "torsion-default-tolerance": (
        "src/canonoid/cli.py",
        '"torsion": ("torsion", 1e-10, _check_torsion),',
        '"torsion": ("torsion", 1e-8, _check_torsion),'),
    "report-reuses-other-configs": (
        "src/canonoid/cli.py",
        '                or prior.get("config_hash") != config_hash \\\n',
        ""),
    # the argv reader: --seed is an integer, as the config's seed is
    "seed-read-as-float": (
        "src/canonoid/cli.py",
        '"seed": (int, "SEED", "override the config\'s seed"),',
        '"seed": (float, "SEED", "override the config\'s seed"),'),
    "check-runs-every-check": (
        "src/canonoid/cli.py",
        "names = [c for c in cfg.checks if c in STRUCTURAL_CHECKS]",
        "names = list(cfg.checks)"),
    # the config hash must not load OpenSSL through hashlib
    "hash-through-hashlib": (
        "src/canonoid/cli.py",
        "    try:\n"
        "        from _sha256 import sha256\n"
        "    except ImportError:\n"
        "        try:\n"
        "            from _sha2 import sha256\n"
        "        except ImportError:\n"
        "            from hashlib import sha256\n",
        "    from hashlib import sha256\n"),
    "blas-threads-default-dropped": (
        "src/canonoid/cli.py",
        'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n',
        ""),
    "blas-threads-set-after-numpy": (
        "src/canonoid/cli.py",
        '    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n\n'
        "    import numpy as np\n",
        "    import numpy as np\n"
        '    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n'),
    "blas-env-left-set": (
        "src/canonoid/cli.py",
        'os.environ.pop("OPENBLAS_NUM_THREADS", None)',
        "pass"),
    # no non-finite matrix reaches LAPACK: the SVD of an infinite
    # coframe may never return
    "reeb-svd-on-non-finite": (
        "src/canonoid/transform.py",
        "    fold_max(M)\n",
        ""),
    "involution-cond-on-non-finite": (
        "src/canonoid/stensor.py",
        "    transform.fold_max(L)\n",
        ""),
    # a check entry that leaves the floating-point rule prints numpy's
    # warnings on the way to its guard
    "canonical-not-quiet": (
        "src/canonoid/transform.py",
        "@expr.quiet\ndef check_canonical(",
        "def check_canonical("),
    "reeb-rank-test-dropped": (
        "src/canonoid/transform.py",
        "if deficient.any():",
        "if False:"),
    "reeb-defect-test-dropped": (
        "src/canonoid/transform.py",
        "if inconsistent.any():",
        "if False:"),
    "reeb-fields-swapped": (
        "src/canonoid/transform.py",
        "rhs = np.eye(k + d)[:, :k]",
        "rhs = np.eye(k + d)[:, k - 1::-1]"),
    "canonoid-skips-chart-check": (
        "src/canonoid/transform.py",
        "    F.geometry.check_chart(H)\n"
        "    jets = Jets.of(F, samples, stack=True)\n",
        "    jets = Jets.of(F, samples, stack=True)\n"),
    "x-block-at-chart-origin": (
        "src/canonoid/stensor.py",
        "    xs = g.x_slice\n    return S[..., xs, xs], dS[..., xs, xs, xs]",
        "    xs = slice(0, 2 * g.n)\n"
        "    return S[..., xs, xs], dS[..., xs, xs, xs]"),
    "jet-route-x-block-at-chart-origin": (
        "src/canonoid/stensor.py",
        "    g = jets.F.geometry\n    xs = g.x_slice\n",
        "    g = jets.F.geometry\n    xs = slice(0, 2 * g.n)\n"),
    # the imports run with the collector off; importing canonoid.cli
    # must leave the importer's setting as it was
    "import-collector-not-restored": (
        "src/canonoid/cli.py",
        "        gc.enable()\n",
        "        pass\n"),
    # and must leave numpy's heap out of the young generations, without
    # thawing what the importer has frozen
    "import-heap-left-young": (
        "src/canonoid/cli.py",
        "if not gc.get_freeze_count():",
        "if False:"),
    "import-thaws-frozen-heap": (
        "src/canonoid/cli.py",
        "if not gc.get_freeze_count():",
        "if True:"),
    # the process entry freezes the heap; main(), which tests and
    # programs call in-process, must leave the collector alone
    "gc-freeze-in-main": (
        "src/canonoid/cli.py",
        "def main(argv=None):\n",
        "def main(argv=None):\n    gc.freeze()\n"),
    # skipping the interpreter's teardown must keep main's exit code,
    # and must not skip a tracer's or a profiler's exit hooks
    "exit-code-dropped": (
        "src/canonoid/cli.py",
        "os._exit(code)",
        "os._exit(0)"),
    "teardown-under-tracer": (
        "src/canonoid/cli.py",
        "if sys.gettrace() is None and sys.getprofile() is None:",
        "if True:"),
}


def apply(tree, name):
    """Apply mutant name inside tree; False if its text is not there
    exactly once."""
    rel, text, replacement = MUTANTS[name]
    path = tree / rel
    source = path.read_text()
    if source.count(text) != 1:
        return False
    path.write_text(source.replace(text, replacement))
    return True


def run_tests(tree):
    """(exit code, lines naming the failed tests) of tier-1 with -x;
    raises subprocess.TimeoutExpired after TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
         "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    killers = [line.split(" - ")[0].split(" ", 1)[1]
               for line in proc.stdout.splitlines()
               if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, killers


def run_mutant(name):
    """(the line that reports mutant name, whether it was killed)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="canonoid-mutant-") as tmp:
        tree = Path(tmp)
        for rel in COPIED:
            src = ROOT / rel
            if src.is_dir():
                shutil.copytree(src, tree / rel,
                                ignore=shutil.ignore_patterns(
                                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, tree / rel)
        if not apply(tree, name):
            return (f"STALE     {name}: its text is not in "
                    f"{MUTANTS[name][0]} exactly once"), False
        try:
            code, killers = run_tests(tree)
        except subprocess.TimeoutExpired:
            return f"TIMEOUT   {name} (over {TIMEOUT_S} s)", False
    secs = time.perf_counter() - start
    if code == 1 and killers:
        return (f"killed    {name} by {', '.join(killers)} ({secs:.0f} s)",
                True)
    return (f"SURVIVED  {name} (pytest exit code {code}, "
            f"{len(killers)} failed tests, {secs:.0f} s)"), False


def main(argv):
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; "
              f"known: {', '.join(MUTANTS)}", file=sys.stderr)
        return 2
    # each worker thread waits on one pytest process at a time
    workers = len(os.sched_getaffinity(0))
    killed = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for line, ok in pool.map(run_mutant, names):
            print(line, flush=True)
            killed += ok
    print(f"{killed} of {len(names)} mutants killed")
    return 0 if killed == len(names) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
