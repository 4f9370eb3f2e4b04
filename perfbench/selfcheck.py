"""Quick self-check of the benchmark itself, at reduced size.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced, for one second with
fewer repeats, and fails unless each run prints every metric that
`BENCHMARK.json` names, with its unit, and reports error_rate 0.  It then
checks that the benchmark refuses, without printing a result, to run in a
directory that holds only `BENCHMARK.json` and the benchmark's files.
Takes one to two minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)


def check_run(bench: dict, workload: str, trace: int) -> list:
    proc = run(ROOT, workload, trace)
    where = f"{workload} trace {trace}"
    if not proc.stdout.strip():
        return [f"{where}: no output; stderr: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if got != expected:
        problems.append(f"{where}: metric names or units differ from "
                        f"BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    if result["failed"] or not result["correct"] or proc.returncode:
        problems.append(f"{where}: error_rate {result['failed']}/"
                        f"{result['attempted']}, exit {proc.returncode}")
    print(f"{'ok' if not problems else 'FAIL'} {where}: "
          f"{result['attempted']} attempted, {result['failed']} failed")
    return problems


def check_refuses_bare_directory() -> list:
    bare = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "near-fold", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["a directory without the package gave a result"]
    print("ok refuses a directory without the package")
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check_run(bench, workload, trace)
    problems += check_refuses_bare_directory()
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
