#!/usr/bin/env python3
"""Joins a Chrome trace JSON with its mqa run report into a per-phase
hot-spot table.

For every span name the table shows:

  self_s    wall-clock self time: span durations minus the durations of
            direct children (nested spans are charged to the child)
  %epoch    self time as a share of total epoch time (sum of the
            top-level "epoch" / "stream/epoch" span durations)
  count     number of spans
  p50_s     per-epoch phase time quantiles from the run report: the
  p99_s     nearest-rank p50/p99 over the epoch rows' phase_seconds
            entry named like the span's last path component (so
            "epoch/assign" reads phase_seconds["assign"]); "-" when no
            row has such a phase

The run report also supplies the table's provenance header and, when
any epoch row ran the greedy selection loop, one line under the table
summing the rows' greedy objects: iterations, the epochs that ran them,
mean S_p (candidates per iteration), peak S_p with its epoch and
retired pairs. --trace alone still produces the timing columns.

The closing "top self-time phases" list names the phases to optimize
first: the biggest self-time phases.

Usage:
  profile_report.py --trace trace.json [--report report.json] [--top N]
  profile_report.py --trace t.json --report r.json --golden expected.txt

--golden re-renders the table and byte-compares it against the given
file (the ctest golden-file mode; exit 0 on match, 1 with a diff
otherwise).
"""

import argparse
import json
import math
import sys

EPOCH_SPAN_NAMES = ("epoch", "stream/epoch")


def load_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL: cannot load {what} {path}: {e}", file=sys.stderr)
        sys.exit(1)


def complete_events(trace):
    events = []
    for e in trace.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        events.append(e)
    return events


def self_times(events):
    """Computes per-span self time.

    Returns (per_name, epoch_total_us): per_name maps span name to a
    dict with keys count and self_us; epoch_total_us is the summed
    duration of top-level epoch spans.
    """
    by_tid = {}
    for e in events:
        by_tid.setdefault(e.get("tid", 0), []).append(e)

    per_name = {}
    epoch_total_us = 0.0

    for _, tes in sorted(by_tid.items()):
        # Parents sort before children: earlier start first, longer
        # duration first on ties (the tracer writes the same order).
        tes.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # (end_ts, event)
        for e in tes:
            ts, dur = float(e["ts"]), float(e["dur"])
            end = ts + dur
            while stack and ts >= stack[-1][0] - 1e-9:
                stack.pop()
            name = e["name"]
            rec = per_name.setdefault(name, {"count": 0, "self_us": 0.0})
            rec["count"] += 1
            rec["self_us"] += dur
            if stack:
                # Charge this span's time away from the parent.
                per_name[stack[-1][1]["name"]]["self_us"] -= dur
            else:
                if name in EPOCH_SPAN_NAMES:
                    epoch_total_us += dur
            stack.append((end, e))
    return per_name, epoch_total_us


def nearest_rank(sorted_values, p):
    """The smallest value with at least p% of the sample at or below it
    (the same rule as the C++ Percentile in src/stream/stream_metrics.h).
    """
    rank = math.ceil(p / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def phase_samples(report):
    """Maps each phase_seconds key to its values over the report's rows,
    sorted ascending."""
    samples = {}
    for row in (report or {}).get("epochs", []):
        for phase, seconds in row.get("phase_seconds", {}).items():
            if isinstance(seconds, (int, float)):
                samples.setdefault(phase, []).append(seconds)
    return {phase: sorted(values) for phase, values in samples.items()}


def greedy_summary(report):
    """One line summing the epoch rows' greedy objects, or None when no
    row ran the selection loop."""
    rows = [row for row in (report or {}).get("epochs", [])
            if row.get("greedy", {}).get("iterations", 0) > 0]
    if not rows:
        return None
    iterations = sum(row["greedy"]["iterations"] for row in rows)
    candidates = sum(row["greedy"]["candidates"] for row in rows)
    retired = sum(row["greedy"]["retired_pairs"] for row in rows)
    peak_row = max(rows, key=lambda row: row["greedy"]["max_candidates"])
    return (
        f"greedy: {iterations} iterations over {len(rows)} epochs, "
        f"mean S_p {candidates / iterations:.1f}, "
        f"peak S_p {peak_row['greedy']['max_candidates']} "
        f"(epoch {peak_row.get('instance', '?')}), {retired} retired"
    )


def render(trace_path, report_path, top):
    trace = load_json(trace_path, "trace")
    report = load_json(report_path, "run report") if report_path else None

    events = complete_events(trace)
    per_name, epoch_us = self_times(events)
    if not per_name:
        print("FAIL: trace has no complete ('X') events", file=sys.stderr)
        sys.exit(1)
    if epoch_us <= 0:
        # No top-level epoch spans (e.g. a bench trace): use total self
        # time as the denominator so %self still sums to ~100.
        epoch_us = sum(r["self_us"] for r in per_name.values())

    lines = []
    if report is not None:
        git = report.get("git", {}).get("describe", "?")
        machine = report.get("machine", {})
        lines.append(
            f"run: git {git} on {machine.get('host', '?')} "
            f"({machine.get('cpu_model') or machine.get('arch', '?')}, "
            f"{machine.get('cpus', '?')} cpus)"
        )
        lines.append("")

    phases = phase_samples(report)

    header = (
        f"{'phase':<26} {'count':>7} {'self_s':>10} {'%epoch':>7} "
        f"{'p50_s':>9} {'p99_s':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))

    ranked = sorted(
        per_name.items(), key=lambda kv: (-kv[1]["self_us"], kv[0])
    )
    for name, rec in ranked[:top]:
        self_s = rec["self_us"] / 1e6
        pct = 100.0 * rec["self_us"] / epoch_us
        values = phases.get(name.split("/")[-1])
        p50 = f"{nearest_rank(values, 50):.6f}" if values else "-"
        p99 = f"{nearest_rank(values, 99):.6f}" if values else "-"
        lines.append(
            f"{name:<26} {rec['count']:>7} {self_s:>10.6f} {pct:>6.1f}% "
            f"{p50:>9} {p99:>9}"
        )

    greedy = greedy_summary(report)
    if greedy is not None:
        lines.append("")
        lines.append(greedy)

    # Top self-time phases: the biggest ones that are real work
    # (skip the epoch roots, which are pure containers after self-time
    # subtraction... unless their self time still dominates).
    lines.append("")
    lines.append("top self-time phases:")
    targets = [
        (name, rec)
        for name, rec in ranked
        if name not in EPOCH_SPAN_NAMES
    ][:3]
    for rank, (name, rec) in enumerate(targets, 1):
        lines.append(
            f"  {rank}. {name}  self {rec['self_us'] / 1e6:.6f} s "
            f"({100.0 * rec['self_us'] / epoch_us:.1f}% of epoch)"
        )
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", required=True, help="Chrome trace JSON")
    ap.add_argument("--report", help="mqa run-report JSON (optional)")
    ap.add_argument("--top", type=int, default=20, help="rows to print")
    ap.add_argument(
        "--golden",
        help="compare rendered output against this file instead of printing",
    )
    args = ap.parse_args()

    out = render(args.trace, args.report, args.top)
    if args.golden:
        try:
            with open(args.golden, "r", encoding="utf-8") as f:
                expected = f.read()
        except OSError as e:
            print(f"FAIL: cannot read golden file: {e}", file=sys.stderr)
            return 1
        if out != expected:
            print("FAIL: output differs from golden file", file=sys.stderr)
            import difflib

            sys.stderr.writelines(
                difflib.unified_diff(
                    expected.splitlines(keepends=True),
                    out.splitlines(keepends=True),
                    fromfile=args.golden,
                    tofile="rendered",
                )
            )
            return 1
        print(f"OK: output matches {args.golden}")
        return 0
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
