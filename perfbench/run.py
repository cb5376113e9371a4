#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload q16_server --seed 1 --trace 0

builds the pis library and the `pisbench` program with CMake into
.bench_build/ (incrementally after the first time), runs one workload, checks
the result line against BENCHMARK.json, and prints it as the last line of
stdout. Exit code 0 only for a correct, well-formed run.

Steadiness mode runs one workload N times with seeds seed, seed+1, ... and
prints each metric's median, quartiles and spread (interquartile range over
median) next to its bound:

    python3 perfbench/run.py --workload q16_router --steady 5
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import contract  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
WORK_DIR = Path(".bench_build") / "runs"  # relative to ROOT
BINARY = BUILD_DIR / "pisbench"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
SAMPLES_RE = re.compile(r"^(queries|writes)\s+(\d+) samples")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds pisbench; output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"{ROOT} holds no pis sources to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "pisbench",
                  "-j", jobs])
    for step in steps:
        subprocess.run(step, cwd=ROOT, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def run_once(spec, workload, seed, seconds, trace):
    """Runs pisbench once. Returns (exit code, result dict or None, samples)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work_dir", str(WORK_DIR)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    samples = {}
    for line in proc.stderr.splitlines():
        log(line)
        m = SAMPLES_RE.match(line)
        if m:
            samples[m.group(1)] = int(m.group(2))
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    if not lines:
        log(f"pisbench exited {proc.returncode} without a result")
        return proc.returncode or 1, None, samples
    try:
        result = contract.check_result(lines[-1], spec, trace)
    except contract.ContractError as e:
        log(f"malformed result line: {e}")
        return 1, None, samples
    code = proc.returncode
    if code == 0 and not result["correct"]:
        code = 1
    return code, result, samples


def steady(spec, args):
    runs = []
    for i in range(args.steady):
        seed = args.seed + i
        code, result, samples = run_once(spec, args.workload, seed,
                                         args.seconds, args.trace)
        if code != 0 or result is None:
            log(f"seed {seed}: run failed (exit {code})")
            return 1
        runs.append((result, samples))
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end"] + spec["per_layer"]}
    print(f"{args.workload}: {args.steady} runs of {args.seconds} s, "
          f"seeds {args.seed}..{args.seed + args.steady - 1}")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    worst = 0.0
    for name in sorted(runs[0][0]["metrics"]):
        values = [r["metrics"][name]["value"] for r, _ in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        spread = (q3 - q1) / abs(median) if median else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            if spread > bound / 3:
                flag = "  <-- over a third of its bound"
        print(f"{name:40} {median:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:7.3f} {bound if bound is not None else '-':>6}{flag}")
    for kind in ("queries", "writes"):
        counts = [s[kind] for _, s in runs if kind in s]
        if counts:
            print(f"{kind} per run: min {min(counts)}, median "
                  f"{statistics.median(counts)}")
    print(f"worst spread / bound: {worst:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="steadiness mode: N runs with successive seeds")
    args = parser.parse_args()

    try:
        spec = contract.load_spec(ROOT / "BENCHMARK.json")
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise contract.ContractError(f"unknown workload {args.workload}")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        build()
    except (OSError, ValueError, RuntimeError,
            subprocess.SubprocessError) as e:
        log(f"cannot run the benchmark: {e}")
        return 1

    if args.steady > 0:
        return steady(spec, args)
    try:
        code, result, _ = run_once(spec, args.workload, args.seed,
                                   args.seconds, args.trace)
    except subprocess.TimeoutExpired:
        log(f"pisbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if result is not None:
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
