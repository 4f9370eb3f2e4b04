"""The three benchmark workloads: their inputs, their operations, their checks.

Every workload is one client in a closed loop with one operation in
flight.  The seed changes only the call order of `cli-session` and a
downward jitter of the `near-fold` k values; the package receives nothing
but the generated inputs.

An operation returns `(seconds, failure)`: the wall time of the call alone
and `None`, or a one-line reason the outputs were wrong.  Checks run
after the clock stops.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

CHILD_TIMEOUT_S = 120.0

EXP_3221 = ["--N", "3", "--alpha", "2", "--p", "2", "--q", "1"]
EXP_41 = ["--N", "4", "--alpha", "1", "--p", "6/5", "--q", "1"]
EXP_SUPER = ["--N", "3", "--alpha", "2", "--p", "5", "--q", "1"]

SWEEP_STEPS = 12
SWEEP_PPD = 160

NEAR_FOLD_LADDER = (3.0, 3.2, 3.25, 3.27, 3.275, 3.278, 3.279)
NEAR_FOLD_PPD = 160
NEAR_FOLD_TOL = 1e-10
# the rungs near 3.279 need ~20% fewer iterations per 1e-4 of relative
# drop in k, so the jitter is kept small enough not to dominate the spread
NEAR_FOLD_JITTER = 1e-5

VERIFY_SUITES = ("kernels", "operators", "rates", "bootstrap")

Op = Callable[[], tuple]


def child_env() -> dict:
    """The caller's environment with the checkout's `src` first on the path.

    BLAS thread variables are passed through exactly as found.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list, cwd: str) -> tuple:
    """Run one child to completion; return (seconds, exit code, stdout)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=cwd, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, ""
    return time.perf_counter() - start, proc.returncode, proc.stdout


# ---------------------------------------------------------------------------
# fresh-process CLI calls


@dataclass(frozen=True)
class CliCall:
    label: str
    command: str
    args: tuple
    exit_code: int


def cli_session_calls(seed: int, work: str) -> list:
    """One session on the default 40-ppd grid, permuted by the seed.

    The `report` call reads the profile the k=0.9 `solve` writes, so it is
    moved after that solve whenever the permutation puts it first.
    """
    def path(name):
        return os.path.join(work, name)

    solve_files = ["--profile-csv", path("u.csv"), "--trace-json",
                   path("trace.json"), "--report-json", path("report.json")]
    calls = [
        CliCall("classify-sub", "classify", tuple(EXP_41), 0),
        CliCall("classify-super", "classify", tuple(EXP_SUPER), 0),
        CliCall("solve-k0.9", "solve",
                tuple(EXP_3221 + ["--k", "0.9"] + solve_files), 0),
        CliCall("report", "report",
                tuple(EXP_3221 + ["--k", "0.9", "--profile-csv", path("u.csv"),
                                  "--report-json", path("report2.json"),
                                  "--plot-csv", path("plot.csv")]), 0),
        CliCall("solve-k20", "solve", tuple(EXP_3221 + ["--k", "20"]), 4),
        CliCall("solve-super", "solve", tuple(EXP_SUPER + ["--k", "1"]), 3),
    ] + [CliCall(f"verify-{s}", "verify", (s,), 0) for s in VERIFY_SUITES]
    random.Random(seed).shuffle(calls)
    labels = [c.label for c in calls]
    i, j = labels.index("report"), labels.index("solve-k0.9")
    if i < j:
        calls[i], calls[j] = calls[j], calls[i]
    return calls


def sweep_fine_calls() -> list:
    common = ["--steps", str(SWEEP_STEPS),
              "--points-per-decade", str(SWEEP_PPD)]
    return [CliCall("sweep-3221", "sweep-k", tuple(EXP_3221 + common), 0),
            CliCall("sweep-41", "sweep-k", tuple(EXP_41 + common), 0)]


_ANALYSES = ("singularity", "decay", "lower_bound_violation", "probes")


class CliChecker:
    """Checks one CLI call's exit code and outputs.

    Artifacts and sweep outputs must be byte-identical to the first copy
    seen in the run; `report` must reproduce the analyses `solve` wrote.
    """

    def __init__(self, work: str):
        self.work = work
        self.first: dict = {}

    def _same_as_first(self, key: str, data: bytes) -> Optional[str]:
        if self.first.setdefault(key, data) != data:
            return f"{key} differs from its first copy in this run"
        return None

    def _read(self, name: str) -> bytes:
        with open(os.path.join(self.work, name), "rb") as fh:
            return fh.read()

    def check(self, call: CliCall, code, stdout: str) -> Optional[str]:
        if code != call.exit_code:
            return f"{call.label}: exit {code}, expected {call.exit_code}"
        try:
            return getattr(self, "_check_" + call.command.replace("-", "_"))(
                call, stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"{call.label}: {type(exc).__name__}: {exc}"

    def _check_classify(self, call, stdout):
        expected = "supercritical" if call.label.endswith("super") \
            else "subcritical"
        got = json.loads(stdout)["class"]
        return None if got == expected else f"{call.label}: class {got}"

    def _check_solve(self, call, stdout):
        if call.exit_code == 3:
            return None
        verdict = json.loads(stdout)["verdict"]
        expected = "converged" if call.exit_code == 0 else "diverged"
        if verdict != expected:
            return f"{call.label}: verdict {verdict}"
        if call.exit_code != 0:
            return None
        for name in ("u.csv", "u.csv.meta.json", "trace.json", "report.json"):
            failure = self._same_as_first(name, self._read(name))
            if failure:
                return f"{call.label}: {failure}"
        return None

    def _check_report(self, call, stdout):
        written = json.loads(self._read("report.json"))
        redone = json.loads(self._read("report2.json"))
        for key in _ANALYSES:
            if written.get(key) != redone.get(key):
                return f"report: {key} differs from the solve's report"
        if not self._read("plot.csv").startswith(b"r,u,u_r_scaled,k_gamma0\n"):
            return "report: plot CSV header"
        return None

    def _check_verify(self, call, stdout):
        lines = stdout.splitlines()
        if not lines or not lines[0].startswith("1.."):
            return f"{call.label}: no TAP plan"
        planned = int(lines[0][3:])
        oks = [ln for ln in lines[1:] if ln.startswith("ok ")]
        if len(oks) != planned or len(lines) != planned + 1:
            return f"{call.label}: {len(oks)} of {planned} checks ok"
        return None

    def _check_sweep_k(self, call, stdout):
        out = json.loads(stdout)
        if out["halted_undetermined"]:
            return f"{call.label}: sweep halted"
        if not out["k_conv"] < out["k_div"]:
            return f"{call.label}: k_conv >= k_div"
        k_lo, k_hi = 0.5 * out["khat_q"], 50.0 * out["khat_q"]
        width = (k_hi - k_lo) / 2 ** SWEEP_STEPS
        got = out["k_div"] - out["k_conv"]
        if abs(got - width) > 1e-9 * width:
            return f"{call.label}: bracket width {got!r}, expected {width!r}"
        return self._same_as_first(call.label, stdout.encode())


def cli_op(call: CliCall, checker: CliChecker, prefix: list) -> Op:
    """An op running `prefix + [subcommand, *args]` in a fresh process."""
    argv = prefix + [call.command, *call.args]

    def op():
        seconds, code, stdout = run_child(argv, checker.work)
        return seconds, checker.check(call, code, stdout)

    return op


def plain_cli_prefix() -> list:
    return [sys.executable, "-m", "choqlab.cli"]


# ---------------------------------------------------------------------------
# the in-process near-fold client


def near_fold_problem():
    """The exponents (3, 2, 2, 1) and the single 160-ppd grid."""
    import choqlab

    grid = choqlab.build_grid(1e-4, 30.0, NEAR_FOLD_PPD)
    exponents = choqlab.ProblemExponents(N=3, alpha=Fraction(2),
                                         p=Fraction(2), q=Fraction(1))
    return exponents, grid


def near_fold_ks(seed: int) -> list:
    rng = random.Random(seed)
    return [k * (1.0 - NEAR_FOLD_JITTER * rng.random())
            for k in NEAR_FOLD_LADDER]


def near_fold_ops(seed: int) -> list:
    """One op per rung: a `solve_minimal` looked up on `choqlab.solver`
    at call time, so installed trace wrappers see it."""
    from choqlab import solver

    exponents, grid = near_fold_problem()

    def make(k):
        def op():
            inst = solver.ProblemInstance(exponents, k=k, grid=grid,
                                          conv_tol=NEAR_FOLD_TOL)
            start = time.perf_counter()
            out = solver.solve_minimal(inst)
            seconds = time.perf_counter() - start
            if out.verdict is not solver.SolveVerdict.CONVERGED:
                return seconds, f"k={k!r}: verdict {out.verdict.value}"
            if not out.fixed_point_residual < NEAR_FOLD_TOL:
                return seconds, (f"k={k!r}: residual "
                                 f"{out.fixed_point_residual!r}")
            return seconds, None
        return op

    return [make(k) for k in near_fold_ks(seed)]
