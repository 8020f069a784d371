#!/usr/bin/env python3
"""End-to-end benchmark of the Aspen trees library (see perfbench/README.md).

    python3 perfbench/run.py --workload <flows|control|survive|serve>
        [--seed N] [--seconds S] [--trace 0|1] [--size full|toy]

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench, then runs the workload in its own process for about
S seconds of timed work and checks its outputs.  With --trace 1 it replays
the same rounds in a second, traced process, requires the same result
fingerprint, and reports the per-layer metrics instead of the end-to-end
ones.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status 0 only when every check held.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The seeds of the experiments each workload mirrors (X15, X15, X12, X13).
DEFAULT_SEEDS = {"flows": 7, "control": 7, "survive": 1, "serve": 17}
# A run must end within 180 s after the build; a traced run is two
# processes sharing this budget.
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "aspen_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out / "aspen_perfbench"


def run_binary(binary, args, deadline):
    """Runs one workload process and returns its result object."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish within the {RUN_BUDGET_S} s "
             "budget")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no result from {' '.join(args)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    opts = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    seed = DEFAULT_SEEDS[opts.workload] if opts.seed is None else opts.seed
    seconds = opts.seconds or spec["run_seconds"]
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S

    common = ["--workload", opts.workload, "--seed", str(seed),
              "--size", opts.size]
    untraced = run_binary(binary, common + ["--seconds", str(seconds),
                                            "--trace", "0"], deadline)
    for note in untraced["notes"]:
        print(f"perfbench {opts.workload} seed {seed}: {note}",
              file=sys.stderr)
    correct = untraced["exit_code"] == 0 and untraced["identity_ok"]
    if opts.trace and not correct:
        fail("the untraced run failed its checks; not tracing it")
    if opts.trace:
        spans = build_dir() / "spans" / f"{opts.workload}-{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        traced = run_binary(binary, common + [
            "--rounds", str(untraced["rounds"]), "--trace", "1",
            "--spans", str(spans)], deadline)
        same = (traced["fingerprint"] == untraced["fingerprint"] and
                traced["ops"] == untraced["ops"])
        if not same:
            print("perfbench: traced fingerprint "
                  f"{traced['fingerprint']} != untraced "
                  f"{untraced['fingerprint']}", file=sys.stderr)
        correct = (correct and same and traced["exit_code"] == 0 and
                   traced["identity_ok"])
        if "per_layer" not in traced:
            fail(f"traced run reported no per-layer metrics: "
                 f"{traced['notes']}")
        values = dict(traced["per_layer"])
        values["obs.overhead"] = traced["timed_s"] / untraced["timed_s"] - 1.0
        wanted = spec["per_layer"]
    else:
        values = untraced
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if opts.trace and set(values) != {m["name"] for m in wanted}:
        print("perfbench: per-layer metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ {m['name'] for m in wanted})}",
              file=sys.stderr)
        correct = False
    if missing:
        fail(f"metrics missing from the run: {missing}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": untraced["ops"],
                      "failed": untraced["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
