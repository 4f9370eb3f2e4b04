"""Per-layer probes: each layer's public entry points timed from outside.

Costs that depend on resolution are measured at 40, 80 and 160 points per
decade and carry a `.ppdNN` suffix.  Every probe also checks what the call
returned, so a layer that got faster by getting wrong is counted as a
failure.  `cli.*` comes from fresh child processes; everything else runs in
this process, which must have `src` on its path.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from tracing import Tracer

PPDS = (40, 80, 160)
FAR_K = 0.9
NEAR_K = 3.27


def per_call_seconds(fn, repeats: int, min_sample_s: float = 0.01) -> float:
    """Median over `repeats` samples of the seconds one call takes.

    A sample batches calls until it lasts `min_sample_s`, so that calls of
    a few microseconds are not lost in the clock's resolution.
    """
    fn()
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    batch = max(1, int(min_sample_s / max(once, 1e-9)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples)


def cold_seconds(setup, fn, repeats: int) -> float:
    """Median seconds of `fn(setup())`, with `setup()` outside the clock."""
    samples = []
    for _ in range(repeats):
        arg = setup()
        start = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def median_seconds(fn, repeats: int) -> float:
    """Median seconds of one unbatched call of `fn()`."""
    return cold_seconds(lambda: None, lambda _: fn(), repeats)


class Probes:
    """Collects metrics and failures; `repeats` sets the samples per timing."""

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.metrics: dict = {}
        self.attempted = 0
        self.failures: list = []

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    # -- cli: fresh interpreters

    def cli(self) -> None:
        script = os.path.join(workloads.HERE, "setup_probe.py")
        reports = []
        for _ in range(self.repeats):
            proc = subprocess.run([sys.executable, script, "cli"],
                                  env=workloads.child_env(),
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=workloads.CHILD_TIMEOUT_S)
            self.expect(proc.returncode == 0, "cli import probe failed")
            reports.append(json.loads(proc.stdout))
        counts = {(r["modules_loaded"], r["scipy_integrate_loaded"])
                  for r in reports}
        self.expect(len(counts) == 1, "modules loaded by import vary")
        self.put("cli.import_s",
                 statistics.median(r["import_s"] for r in reports), "s")
        self.put("cli.modules_loaded", reports[0]["modules_loaded"], "count")
        self.put("cli.scipy_integrate_loaded",
                 int(reports[0]["scipy_integrate_loaded"]), "0/1")

    # -- exponents, kernels, operators, solver at three resolutions

    def numerics(self) -> None:
        from choqlab import exponents, kernels, operators, solver

        e, _ = workloads.near_fold_problem()
        report = exponents.classify(e)
        self.expect(not report.is_supercritical, "classify (3,2,2,1)")
        self.put("exponents.classify_s",
                 per_call_seconds(lambda: exponents.classify(e), self.repeats),
                 "s")
        p, q = float(e.p), float(e.q)
        for ppd in PPDS:
            sfx = f".ppd{ppd}"
            grid = operators.build_grid(1e-4, 30.0, ppd)
            nodes = grid.nodes
            self.put("kernels.gamma0_s" + sfx, per_call_seconds(
                lambda: kernels.gamma0(e.N, nodes), self.repeats), "s")

            # the operator inputs of one iteration, with their annotations
            v = solver.gamma0_profile(e.N, grid, scale=NEAR_K)
            vp = operators.pointwise_power(v, p)
            riesz = operators.assemble("riesz", e.N, grid, alpha=float(e.alpha))
            green = operators.assemble("green", e.N, grid)
            product = operators.pointwise_product(
                operators.apply(riesz, vp), operators.pointwise_power(v, q))

            def new_riesz():
                return operators.assemble("riesz", e.N, grid,
                                          alpha=float(e.alpha))

            def new_green():
                return operators.assemble("green", e.N, grid)

            self.put("operators.assemble_riesz_s" + sfx,
                     median_seconds(new_riesz, self.repeats), "s")
            self.put("operators.assemble_green_s" + sfx,
                     median_seconds(new_green, self.repeats), "s")
            for kind, make, arg in (("riesz", new_riesz, vp),
                                    ("green", new_green, product)):
                self.put(f"operators.origin_column_s.{kind}" + sfx,
                         cold_seconds(make, lambda m: m.origin_column(
                             arg.origin_exponent), self.repeats), "s")
                self.put(f"operators.tail_column_s.{kind}" + sfx,
                         cold_seconds(make, lambda m: m.tail_column(arg.tail),
                                      self.repeats), "s")
            self.put("operators.apply_s.riesz" + sfx, per_call_seconds(
                lambda: operators.apply(riesz, vp), self.repeats), "s")
            self.put("operators.apply_s.green" + sfx, per_call_seconds(
                lambda: operators.apply(green, product), self.repeats), "s")
            self.put("operators.apply_bytes" + sfx, 8 * grid.size ** 2, "B")

            self.put("solver.estimate_barrier_constant_s" + sfx, median_seconds(
                lambda: solver.estimate_barrier_constant(e, grid),
                self.repeats), "s")
            self._solves(solver, e, grid, sfx)
            self._kstar(solver, exponents, e, grid, sfx)

    def _solves(self, solver, e, grid, sfx: str) -> None:
        far = solver.ProblemInstance(e, k=FAR_K, grid=grid)
        near = solver.ProblemInstance(e, k=NEAR_K, grid=grid,
                                      conv_tol=workloads.NEAR_FOLD_TOL)
        for name, inst in (("solve_far_s", far), ("solve_near_s", near)):
            outcomes = []
            self.put(f"solver.{name}" + sfx, median_seconds(
                lambda: outcomes.append(solver.solve_minimal(inst)),
                self.repeats), "s")
            self.expect(all(o.verdict is solver.SolveVerdict.CONVERGED
                            for o in outcomes), f"{name}{sfx} converges")
        # warm iterate_once: the calls solve_minimal makes with its
        # operators already built, each wrapped alone
        tracer = Tracer()
        with tracer.installed(only={"solver.iterate_once"}):
            solver.solve_minimal(near)
        self.put("solver.iterate_once_s" + sfx, statistics.median(
            end - start for _, start, end, *_ in tracer.spans), "s")

    def _kstar(self, solver, exponents, e, grid, sfx: str) -> None:
        template = solver.ProblemInstance(e, k=1.0, grid=grid)
        c_hat = solver.estimate_barrier_constant(e, grid)
        khat, _ = exponents.k_threshold(c_hat, float(e.p), float(e.q))
        k_lo, k_hi = 0.5 * khat, 50.0 * khat
        steps = workloads.SWEEP_STEPS
        brackets = []
        self.put("solver.estimate_kstar_s" + sfx, median_seconds(
            lambda: brackets.append(
                solver.estimate_kstar(template, k_lo, k_hi, steps)),
            self.repeats), "s")
        width = (k_hi - k_lo) / 2 ** steps
        self.expect(all(not b.halted_undetermined and b.k_conv < b.k_div
                        and abs(b.k_div - b.k_conv - width) <= 1e-9 * width
                        for b in brackets), f"estimate_kstar{sfx} bracket")

    # -- asymptotics and serialize on the default 40-ppd solve

    def analyses(self, work: str) -> None:
        from choqlab import asymptotics, operators, serialize, solver

        e, _ = workloads.near_fold_problem()
        grid = operators.build_grid(1e-4, 30.0, 40)
        out = solver.solve_minimal(solver.ProblemInstance(e, k=FAR_K,
                                                          grid=grid))
        profile = out.profile
        beta = asymptotics.origin_correction_exponent(e)
        fit = asymptotics.fit_origin(profile, e.N, beta=beta)
        self.expect(fit.accepted, "fit_origin accepted")
        self.put("asymptotics.fit_origin_s", per_call_seconds(
            lambda: asymptotics.fit_origin(profile, e.N, beta=beta),
            self.repeats), "s")
        self.put("asymptotics.fit_decay_s", per_call_seconds(
            lambda: asymptotics.fit_decay(profile), self.repeats), "s")
        self.put("asymptotics.integrability_probe_s", per_call_seconds(
            lambda: asymptotics.integrability_probe(e), self.repeats), "s")

        csv = os.path.join(work, "probe.csv")
        trace = {"sup_norms": list(out.trace.sup_norms),
                 "rel_deltas": list(out.trace.rel_deltas)}
        self.put("serialize.write_profile_s", per_call_seconds(
            lambda: serialize.write_profile(csv, profile), self.repeats), "s")
        back = serialize.read_profile(csv)
        self.expect(back.values.tobytes() == profile.values.tobytes(),
                    "profile round trip is bit-exact")
        self.put("serialize.read_profile_s", per_call_seconds(
            lambda: serialize.read_profile(csv), self.repeats), "s")
        self.put("serialize.write_json_s", per_call_seconds(
            lambda: serialize.write_json(os.path.join(work, "probe.json"),
                                         trace), self.repeats), "s")

    def verify(self) -> None:
        from choqlab import verify

        for suite in workloads.VERIFY_SUITES:
            passed = []
            self.put(f"verify.suite_s.{suite}", median_seconds(
                lambda: passed.append(verify.run_suite(suite, io.StringIO())),
                self.repeats), "s")
            self.expect(all(passed), f"verify {suite} passes")


def run_probes(repeats: int, work: str) -> Probes:
    probes = Probes(repeats)
    probes.cli()
    probes.numerics()
    probes.analyses(work)
    probes.verify()
    return probes
