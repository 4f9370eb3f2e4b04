"""choqlab benchmark: three closed-loop workloads, timed end to end or traced.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is used from `src/`
as it stands, with nothing to build.  `--trace 0` runs the workload
untraced and reports the end-to-end metrics; `--trace 1` runs the
per-layer probes, then alternates untraced and traced cycles of the
workload, and reports the per-layer metrics with the tracing overhead.
Metric names and units must match `BENCHMARK.json`.

Human-readable lines come first, then a `record` line with the full result
and the environment, and last one JSON line:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracing import LAYERS, Tracer, layer_self_seconds

WORKLOADS = ("cli-session", "sweep-fine", "near-fold")
SETUP_REPEATS = 5
PROBE_REPEATS = 3
TRACED_CLI = os.path.join(workloads.HERE, "traced_cli.py")
SETUP_PROBE = os.path.join(workloads.HERE, "setup_probe.py")
BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")
# subcommand -> the end-to-end name of its median fresh-process wall time
COMMAND_METRICS = {"classify": "classify_s", "solve": "solve_s",
                   "report": "report_s", "verify": "verify_s",
                   "sweep-k": "sweep_s"}


class BenchError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# environment and set-up


_ENV_CHILD = r"""
import json, platform
import numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    blas = None
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas}))
"""


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if not os.path.isdir(base):
        return sizes
    for index in sorted(os.listdir(base)):
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, index, key)) as fh:
                    fields[key] = fh.read().strip()
        except OSError:
            continue
        sizes[f"L{fields['level']} {fields['type']}"] = fields["size"]
    return sizes


def environment() -> dict:
    proc = subprocess.run([sys.executable, "-c", _ENV_CHILD],
                          env=workloads.child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=workloads.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("cannot import numpy and scipy")
    return {
        **json.loads(proc.stdout),
        "driver_python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV_VARS},
        "cache_sizes": _cache_sizes(),
        "cache_sizes_note": "as the VM reports them, not measured",
    }


def setup_seconds(workload: str, repeats: int) -> list:
    """Wall seconds from launching a fresh interpreter to its set-up done."""
    kind = "near-fold" if workload == "near-fold" else "cli"
    expected = os.path.realpath(workloads.SRC) + os.sep
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, SETUP_PROBE, kind],
                              env=workloads.child_env(),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            try:
                proc.communicate(timeout=workloads.CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise BenchError("set-up probe did not exit")
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up probe failed (exit {proc.returncode})")
        loaded_from = os.path.realpath(json.loads(line)["file"])
        if not loaded_from.startswith(expected):
            raise BenchError(f"choqlab loaded from {loaded_from}, "
                             f"not from {expected}")
    return samples


# ---------------------------------------------------------------------------
# workloads: one cycle of ops, untraced or traced


class CliWorkload:
    """Fresh `python -m choqlab.cli` processes, one at a time."""

    def __init__(self, calls: list, work: str):
        self.calls = calls
        self.work = work
        self.checker = workloads.CliChecker(work)
        self._span_files: list = []

    def cycle(self, traced: bool) -> list:
        ops = []
        for call in self.calls:
            if traced:
                path = os.path.join(self.work,
                                    f"spans-{len(self._span_files)}.json")
                prefix = [sys.executable, TRACED_CLI, path,
                          str(len(self._span_files))]
                self._span_files.append(path)
            else:
                prefix = workloads.plain_cli_prefix()
            ops.append((call.command, call.label,
                        workloads.cli_op(call, self.checker, prefix)))
        return ops

    @contextlib.contextmanager
    def tracing(self):
        yield

    def take_spans(self) -> list:
        """Span lists of the traced calls since the last take, one per call."""
        lists = []
        for path in self._span_files:
            if os.path.exists(path):
                with open(path) as fh:
                    lists.append(json.load(fh)["spans"])
                os.remove(path)
        self._span_files = []
        return lists


class NearFoldWorkload:
    """The in-process library client on one 160-ppd grid."""

    def __init__(self, seed: int):
        self.ops = workloads.near_fold_ops(seed)
        self.tracer = None

    def cycle(self, traced: bool) -> list:
        if not traced:
            return [("solve_minimal", f"rung-{i}", op)
                    for i, op in enumerate(self.ops)]

        def numbered(op):
            def run():
                self.tracer.op += 1
                return op()
            return run

        return [("solve_minimal", f"rung-{i}", numbered(op))
                for i, op in enumerate(self.ops)]

    @contextlib.contextmanager
    def tracing(self):
        self.tracer = Tracer()
        with self.tracer.installed():
            yield

    def take_spans(self) -> list:
        spans, self.tracer = self.tracer.spans, None
        return [spans]


def make_workload(name: str, seed: int, work: str):
    if name == "cli-session":
        return CliWorkload(workloads.cli_session_calls(seed, work), work)
    if name == "sweep-fine":
        return CliWorkload(workloads.sweep_fine_calls(), work)
    return NearFoldWorkload(seed)


class Tally:
    """Per-op wall times by command, and the failures seen."""

    def __init__(self):
        self.attempted = 0
        self.times: list = []
        self.labels: list = []
        self.by_command: dict = {}
        self.failures: list = []

    def run(self, command: str, label: str, op) -> None:
        seconds, failure = op()
        self.attempted += 1
        self.times.append(seconds)
        self.labels.append(label)
        self.by_command.setdefault(command, []).append(seconds)
        if failure is not None:
            self.failures.append(failure)


# ---------------------------------------------------------------------------
# statistics


def tail(times: list):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(times)
    if n < 20:
        return None
    index = n - 11
    return {"value": sorted(times)[index],
            "percentile": round(100.0 * (index + 1) / n, 1),
            "samples": n, "above": 10}


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# ---------------------------------------------------------------------------
# the two modes


def timed(args, workload, record: dict) -> Tally:
    setups = setup_seconds(args.workload,
                           2 if args.quick else SETUP_REPEATS)
    tally = Tally()
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline:
        for command, label, op in workload.cycle(traced=False):
            if time.perf_counter() >= deadline:
                break
            tally.run(command, label, op)
    wall = time.perf_counter() - start

    n = len(tally.times)
    record["metrics"] = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(tally.times), "s"),
        "ops_per_s": (n / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    record["extra"] = {
        "setup_samples_s": setups,
        "op_tail_s": tail(tally.times),
        "ops": n,
        "loop_wall_s": wall,
        "op_samples": list(zip(tally.labels, tally.times)),
        "command_median_s": {
            COMMAND_METRICS[c]: statistics.median(t)
            for c, t in sorted(tally.by_command.items())
            if c in COMMAND_METRICS},
    }
    return tally


class SpanTotals:
    """Counts, hook values and layer self time summed over traced ops."""

    def __init__(self):
        self.count: dict = {}
        self.value: dict = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)

    def add(self, spans: list) -> None:
        for name, _, _, _, _, value in spans:
            self.count[name] = self.count.get(name, 0) + 1
            if value is not None:
                self.value[name] = self.value.get(name, 0) + value
        for layer, seconds in layer_self_seconds(spans).items():
            self.self_s[layer] += seconds


def traced(args, workload, record: dict, work: str) -> Tally:
    import layers

    start = time.perf_counter()
    deadline = start + args.seconds
    probes = layers.run_probes(1 if args.quick else PROBE_REPEATS, work)

    tally = Tally()
    totals = SpanTotals()
    per_op_wall = {False: [], True: []}
    traced_ops = 0
    use_trace = False
    while not all(per_op_wall.values()) or time.perf_counter() < deadline:
        ops = workload.cycle(use_trace)
        context = workload.tracing() if use_trace else contextlib.nullcontext()
        begin = time.perf_counter()
        with context:
            for command, label, op in ops:
                tally.run(command, label, op)
        per_op_wall[use_trace].append(
            (time.perf_counter() - begin) / len(ops))
        if use_trace:
            for spans in workload.take_spans():
                totals.add(spans)
            traced_ops += len(ops)
        use_trace = not use_trace

    metrics = dict(probes.metrics)

    def per_op(x):
        return x / traced_ops

    metrics["solver.iterations"] = (
        per_op(totals.value.get("solver.solve_minimal", 0)), "count")
    metrics["solver.solves"] = (
        per_op(totals.count.get("solver.solve_minimal", 0)), "count")
    metrics["operators.assemble_calls"] = (
        per_op(totals.count.get("operators.assemble", 0)), "count")
    metrics["kernels.gamma0_calls"] = (
        per_op(totals.count.get("kernels.gamma0", 0)), "count")
    metrics["serialize.bytes_written"] = (
        per_op(totals.value.get("serialize.write_profile", 0)
               + totals.value.get("serialize.write_json", 0)), "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_s_per_op"] = (per_op(totals.self_s[layer]),
                                             "s")
    plain = statistics.median(per_op_wall[False])
    overhead = statistics.median(per_op_wall[True]) - plain
    metrics["trace.overhead_s_per_op"] = (overhead, "s")
    record["metrics"] = metrics
    record["extra"] = {
        "traced_ops": traced_ops,
        "untraced_per_op_wall_s": per_op_wall[False],
        "traced_per_op_wall_s": per_op_wall[True],
        "tracing_overhead_share": overhead / plain,
        "probe_failures": probes.failures,
        "operators.apply_bytes_note":
            "computed as 8*M^2 per matrix, not measured; the matrices fit "
            "in the reported L3, so this is not a bandwidth figure",
    }
    tally.failures.extend(probes.failures)
    tally.attempted += probes.attempted
    return tally


# ---------------------------------------------------------------------------
# output


def expected_metrics(trace: int) -> dict:
    path = os.path.join(workloads.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_names(metrics: dict, expected: dict) -> None:
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        raise BenchError(f"metrics disagree with BENCHMARK.json: missing "
                         f"{missing}, unexpected {extra}, wrong unit {wrong}")


def print_report(record: dict, attempted: int, failures: list) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  seconds {record['seconds']}")
    for name, (value, unit) in sorted(record["metrics"].items()):
        print(f"  {name:44s} {value:>14.6g} {unit}")
    extra = record["extra"]
    if "op_tail_s" in extra:
        t = extra["op_tail_s"]
        print("  op_tail_s" + (
            f"{'':35s} {t['value']:>14.6g} s  (p{t['percentile']} of "
            f"{t['samples']} ops, {t['above']} above)" if t else
            f"{'':35s} {'n/a':>14s}    (fewer than 20 ops in the run)"))
        for name, value in extra["command_median_s"].items():
            print(f"  {name:44s} {value:>14.6g} s  (median, fresh process)")
    else:
        print(f"  tracing overhead share {extra['tracing_overhead_share']:+.3f}"
              f" of the untraced per-op wall")
    print(f"  error_rate{'':34s} {len(failures) / attempted:>14.6g} ratio "
          f"({len(failures)} failed / {attempted} attempted)")
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="fewer set-up and probe repeats (self-check)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(workloads.SRC, "choqlab",
                                       "__init__.py")):
        print(f"error: no choqlab package under {workloads.SRC}",
              file=sys.stderr)
        return 2
    expected = expected_metrics(args.trace)

    out_dir = os.path.join(workloads.ROOT, ".perfbench_out")
    work = os.path.join(out_dir, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        record["environment"] = environment()
        if args.workload == "near-fold" or args.trace:
            sys.path.insert(0, workloads.SRC)
        workload = make_workload(args.workload, args.seed, work)
        tally = (traced(args, workload, record, work) if args.trace
                 else timed(args, workload, record))
        check_names(record["metrics"], expected)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(out_dir)

    attempted = tally.attempted
    record["failures"] = tally.failures
    print_report(record, attempted, tally.failures)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
