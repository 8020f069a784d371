#!/usr/bin/env python3
"""Toy-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload perfbench/run.py knows through it at toy size,
untraced and traced.  A traced run replays the untraced rounds in a second process and
fails unless both give the same result fingerprint.  The check also
requires every metric BENCHMARK.json names, with its unit, the timed
phase's self-time shares to sum to 1, and run.py to fail without printing
a result when the library sources are missing.  Exit status 0 when all
checks pass.
"""
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402  (perfbench/run.py: build directory, workloads)

RUN = ["python3", "perfbench/run.py"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(spec, workload, trace, problems):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--size", "toy", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        problems.append(f"{where}: metrics or units differ from "
                        "BENCHMARK.json")
    if trace:
        shares = sum(m["value"] for name, m in result["metrics"].items()
                     if name.startswith("self."))
        if abs(shares - 1.0) > 1e-6:
            problems.append(f"{where}: self-time shares sum to {shares}")


def check_refuses_without_sources(problems):
    """run.py in a copy holding only BENCHMARK.json and perfbench/."""
    scratch = run.build_dir().parent
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        copy = pathlib.Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", copy / "perfbench")
        env = dict(os.environ, CARGO_TARGET_DIR=str(copy / ".bench_build"))
        proc = subprocess.run(
            RUN + ["--workload", "flows", "--seed", "1"], cwd=copy, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without library sources: exit "
                            f"{proc.returncode}, stdout {proc.stdout!r}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    # Every workload run.py knows, gated in BENCHMARK.json or not.
    for workload in sorted(run.DEFAULT_SEEDS):
        for trace in (0, 1):
            check_run(spec, workload, trace, problems)
    check_refuses_without_sources(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "ok" if not problems else f"{len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
