#!/usr/bin/env python3
"""Compare a fresh q4_write_server perfbench result with the checked-in one.

Usage:
    scripts/bench_regression_check.py BASELINE.json FRESH.json [--max-ratio R]

Each file holds the result line that

    python3 perfbench/run.py --workload q4_write_server --seed 1 \\
        --seconds 5 --trace 1

prints as the last line of its stdout (BENCH_q4_write_server.json at the
repository root is one). The check fails (exit 1) when:
  * the fresh run is not "correct", or has "failed" > 0;
  * its client.queries, client.writes or server.background_compactions is
    0, so readers were not measured while writes and background compaction
    ran;
  * its client.query_p95_ms exceeds the baseline's times R.

Write latency is not gated: WAL fsync latency depends on the runner's disk.
The ratio is loose (default 3.0) because the baseline was recorded on
another machine: it catches a lock held across a snapshot swap or a filter
gone quadratic, not runner jitter.
"""

import argparse
import json
import sys

GATED = "client.query_p95_ms"
MUST_RUN = ("client.queries", "client.writes",
            "server.background_compactions")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        return json.loads(lines[-1])
    except (OSError, ValueError, IndexError) as e:
        sys.exit(f"error: cannot read a result line from {path}: {e}")


def metric(result, name):
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else entry.get("value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in perfbench result")
    parser.add_argument("fresh", help="fresh perfbench result")
    parser.add_argument("--max-ratio", type=float, default=3.0,
                        help=f"fail when fresh {GATED} > baseline x this "
                             "(default: 3.0)")
    args = parser.parse_args()
    baseline = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    if fresh.get("correct") is not True:
        failures.append(f"fresh run has correct={fresh.get('correct')!r}")
    if fresh.get("failed", 1) != 0:
        failures.append(f"fresh run has failed={fresh.get('failed')!r}")
    for name in MUST_RUN:
        if not metric(fresh, name):
            failures.append(f"{name} is {metric(fresh, name)!r} in the "
                            "fresh run")
    base, now = metric(baseline, GATED), metric(fresh, GATED)
    if not base or now is None:
        failures.append(f"{GATED} is missing")
    else:
        ratio = now / base
        print(f"{GATED}: baseline {base:.3f} ms, fresh {now:.3f} ms, "
              f"{ratio:.2f}x (limit {args.max_ratio:.2f}x)")
        if ratio > args.max_ratio:
            failures.append(f"{GATED} regressed {ratio:.2f}x "
                            f"({base:.3f} ms -> {now:.3f} ms)")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("within tolerance")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
