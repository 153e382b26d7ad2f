#!/usr/bin/env python3
"""Perf-regression gate over the benches' machine-readable output.

Compares freshly produced BENCH_*.json files against the committed
baselines in bench/baselines/ and fails (exit 1) when a timing field
regressed by more than the tolerance, or when a deterministic count
field changed at all (a count change means the *work done* changed,
which is a correctness signal, not noise).

Usage:
    scripts/check_bench_regression.py [--fresh-dir DIR] [--baseline-dir DIR]

The fresh dir defaults to the current working directory (where the
benches drop their JSON); the baseline dir defaults to bench/baselines/
next to this script's repo root.

Field classification (schema-light, so new benches join for free):
  - "*_seconds" numeric fields are timings: fresh > baseline * (1+tol)
    is a regression, but only when the baseline is at least
    --min-seconds (tiny timings are pure noise on shared CI runners).
  - Fields in EXACT_FIELDS (pairs, candidates, pool_bytes, and the
    streaming count fields) must match exactly.
  - Everything else (derived ratios, throughputs, labels) is ignored.

Rows are matched by the value of their non-numeric fields plus "n", so
reordering rows or adding new rows never trips the gate; a *missing*
baseline row's fresh counterpart is simply new coverage, while a
baseline row with no fresh counterpart fails (coverage loss).

Escape hatch: MQA_BENCH_REBASELINE=1 copies the fresh files over the
baselines and exits 0 — for intentional perf changes, paired with a
human looking at the diff.

Environment:
  MQA_BENCH_REBASELINE=1        re-baseline instead of checking
  MQA_BENCH_REGRESSION_TOL=0.10 override the relative tolerance
"""

import argparse
import json
import os
import shutil
import sys

# "epochs", "events", "assigned", "expired" and "max_backlog" come from
# BENCH_stream.json: the streaming engine is deterministic for a given
# workload and policy, so a change in any of them means the simulated work
# itself changed.
EXACT_FIELDS = {"pairs", "candidates", "pool_bytes", "epochs", "events",
                "assigned", "expired", "max_backlog"}


def is_timing(field):
    return field.endswith("_seconds")


def row_key(row):
    """Identity of a result row: its label fields plus the size n."""
    parts = []
    for k in sorted(row):
        v = row[k]
        if isinstance(v, str) or k == "n":
            parts.append((k, v))
    return tuple(parts)


def load_results(path):
    with open(path) as f:
        doc = json.load(f)
    rows = doc.get("results")
    if not isinstance(rows, list):
        raise ValueError(f"{path}: no 'results' array")
    indexed = {}
    for row in rows:
        indexed[row_key(row)] = row
    return indexed


def fmt_key(key):
    return ", ".join(f"{k}={v}" for k, v in key)


def compare_file(name, baseline_path, fresh_path, tol, min_seconds):
    """Returns a list of human-readable failure strings for one file."""
    failures = []
    if not os.path.exists(fresh_path):
        return [f"{name}: fresh run produced no {os.path.basename(fresh_path)}"]
    baseline = load_results(baseline_path)
    fresh = load_results(fresh_path)

    for key, base_row in baseline.items():
        fresh_row = fresh.get(key)
        if fresh_row is None:
            failures.append(f"{name}: row ({fmt_key(key)}) vanished from "
                            f"the fresh run")
            continue
        for field, base_val in base_row.items():
            if not isinstance(base_val, (int, float)) or isinstance(
                    base_val, bool):
                continue
            fresh_val = fresh_row.get(field)
            if fresh_val is None:
                failures.append(
                    f"{name}: ({fmt_key(key)}) lost field '{field}'")
                continue
            if field in EXACT_FIELDS:
                if fresh_val != base_val:
                    failures.append(
                        f"{name}: ({fmt_key(key)}) {field} changed "
                        f"{base_val} -> {fresh_val} (deterministic field; "
                        f"the measured work itself changed)")
            elif is_timing(field):
                if base_val < min_seconds:
                    continue  # below the noise floor
                if fresh_val > base_val * (1.0 + tol):
                    pct = 100.0 * (fresh_val / base_val - 1.0)
                    failures.append(
                        f"{name}: ({fmt_key(key)}) {field} regressed "
                        f"{base_val:.4f}s -> {fresh_val:.4f}s (+{pct:.1f}%, "
                        f"tolerance {100 * tol:.0f}%)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh-dir", default=".",
                        help="directory holding the fresh BENCH_*.json")
    parser.add_argument("--baseline-dir", default=None,
                        help="directory holding committed baselines "
                             "(default: bench/baselines/ in the repo)")
    parser.add_argument("--tolerance", type=float, default=float(
        os.environ.get("MQA_BENCH_REGRESSION_TOL", "0.10")),
        help="relative timing tolerance (default 0.10)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore timing fields whose baseline is below "
                             "this many seconds (noise floor)")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_dir = args.baseline_dir or os.path.join(repo_root, "bench",
                                                     "baselines")
    if not os.path.isdir(baseline_dir):
        print(f"no baseline dir at {baseline_dir}; nothing to check")
        return 0

    baselines = sorted(f for f in os.listdir(baseline_dir)
                       if f.startswith("BENCH_") and f.endswith(".json"))
    if not baselines:
        print(f"no BENCH_*.json baselines in {baseline_dir}; nothing to check")
        return 0

    if os.environ.get("MQA_BENCH_REBASELINE") == "1":
        for name in baselines:
            fresh_path = os.path.join(args.fresh_dir, name)
            if not os.path.exists(fresh_path):
                print(f"re-baseline: fresh {name} missing, keeping old")
                continue
            load_results(fresh_path)  # refuse to commit malformed JSON
            shutil.copyfile(fresh_path, os.path.join(baseline_dir, name))
            print(f"re-baselined {name}")
        return 0

    all_failures = []
    for name in baselines:
        fresh_path = os.path.join(args.fresh_dir, name)
        baseline_path = os.path.join(baseline_dir, name)
        failures = compare_file(name, baseline_path, fresh_path,
                                args.tolerance, args.min_seconds)
        status = "FAIL" if failures else "ok"
        print(f"{name}: {status}")
        all_failures.extend(failures)

    if all_failures:
        print(f"\n{len(all_failures)} regression(s):", file=sys.stderr)
        for f in all_failures:
            print(f"  {f}", file=sys.stderr)
        print("\nIf this perf change is intentional, regenerate baselines "
              "with MQA_BENCH_REBASELINE=1 and commit the diff.",
              file=sys.stderr)
        return 1
    print("no perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
