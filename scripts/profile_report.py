#!/usr/bin/env python3
"""Joins a Chrome trace JSON with its mqa run report into a per-phase
hot-spot table.

For every span name the table shows:

  self_s    wall-clock self time: span durations minus the durations of
            direct children (nested spans are charged to the child)
  %epoch    self time as a share of total epoch time (sum of the
            top-level "epoch" / "stream/epoch" span durations)
  count     number of spans
  ipc       instructions per cycle over the phase's *self* counter
            deltas (span deltas are inclusive of children; the script
            subtracts child deltas the same way it does for time)
  llc_miss  cache_misses / cache_references on self deltas
  bmpki     branch misses per kilo-instruction on self deltas

Counter columns print "-" when the trace carries no counter args for a
phase (no --perf-counters, or the PMU lacked the events). The run report
contributes wall-time quantiles (p50/p99 per phase from its
metrics.histograms["mqa.phase.<name>.self_seconds"]) and is where the
table's config and provenance header comes from; --trace alone still
produces the timing columns.

The closing "top self-time phases" list names the phases to optimize
first: the biggest self-time phases, annotated with what the counters
say dominates them.

Usage:
  profile_report.py --trace trace.json [--report report.json] [--top N]
  profile_report.py --trace t.json --report r.json --golden expected.txt

--golden re-renders the table and byte-compares it against the given
file (the ctest golden-file mode; exit 0 on match, 1 with a diff
otherwise).
"""

import argparse
import json
import sys

EPOCH_SPAN_NAMES = ("epoch", "stream/epoch")
COUNTER_KEYS = (
    "task_clock_ns",
    "cycles",
    "instructions",
    "cache_references",
    "cache_misses",
    "branch_misses",
)


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
    """Computes per-span self time and self counter deltas.

    Returns (per_name, epoch_total_us): per_name maps span name to a
    dict with keys count, self_us, and one entry per counter key found;
    epoch_total_us is the summed duration of top-level epoch spans.
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
            args = e.get("args", {})
            for key in COUNTER_KEYS:
                if key in args:
                    rec[key] = rec.get(key, 0) + args[key]
            if stack:
                # Charge this span's time/counters away from the parent.
                parent = stack[-1][1]
                prec = per_name[parent["name"]]
                prec["self_us"] -= dur
                pargs = parent.get("args", {})
                for key in COUNTER_KEYS:
                    if key in args and key in pargs:
                        prec[key] = prec.get(key, 0) - args[key]
            else:
                if name in EPOCH_SPAN_NAMES:
                    epoch_total_us += dur
            stack.append((end, e))
    return per_name, epoch_total_us


def fmt_ratio(num, den, scale=1.0, digits=2):
    if den is None or num is None or den <= 0:
        return "-"
    return f"{scale * num / den:.{digits}f}"


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
        counters = report.get("perf_counters", {})
        lines.append(
            f"run: git {git} on {machine.get('host', '?')} "
            f"({machine.get('cpu_model') or machine.get('arch', '?')}, "
            f"{machine.get('cpus', '?')} cpus)"
        )
        lines.append(
            "perf counters: "
            + (
                "active"
                if counters.get("enabled") and counters.get("available")
                else "inactive (wall time only)"
            )
        )
        lines.append("")

    histograms = (report or {}).get("metrics", {}).get("histograms", {})

    header = (
        f"{'phase':<26} {'count':>7} {'self_s':>10} {'%epoch':>7} "
        f"{'ipc':>6} {'llc_miss':>8} {'bmpki':>6} {'p50_s':>9} {'p99_s':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))

    ranked = sorted(
        per_name.items(), key=lambda kv: (-kv[1]["self_us"], kv[0])
    )
    for name, rec in ranked[:top]:
        self_s = rec["self_us"] / 1e6
        pct = 100.0 * rec["self_us"] / epoch_us
        ipc = fmt_ratio(rec.get("instructions"), rec.get("cycles"))
        llc = fmt_ratio(
            rec.get("cache_misses"), rec.get("cache_references"), 100.0, 1
        )
        llc = llc if llc == "-" else llc + "%"
        bmpki = fmt_ratio(
            rec.get("branch_misses"), rec.get("instructions"), 1000.0
        )
        # Bare phase name as recorded in mqa.phase.<name>.self_seconds.
        bare = name.split("/")[-1]
        ph = histograms.get(f"mqa.phase.{bare}.self_seconds", {})
        p50 = f"{ph['p50']:.6f}" if "p50" in ph else "-"
        p99 = f"{ph['p99']:.6f}" if "p99" in ph else "-"
        lines.append(
            f"{name:<26} {rec['count']:>7} {self_s:>10.6f} {pct:>6.1f}% "
            f"{ipc:>6} {llc:>8} {bmpki:>6} {p50:>9} {p99:>9}"
        )

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
        notes = []
        ipc_v = None
        if rec.get("cycles"):
            ipc_v = rec.get("instructions", 0) / rec["cycles"]
            notes.append(f"ipc {ipc_v:.2f}")
            if ipc_v < 1.0:
                notes.append("stall-bound")
        if rec.get("cache_references"):
            miss = rec.get("cache_misses", 0) / rec["cache_references"]
            notes.append(f"llc miss {100 * miss:.1f}%")
            if miss > 0.3:
                notes.append("memory-bound: consider blocking/SoA")
        if rec.get("instructions"):
            bm = 1000.0 * rec.get("branch_misses", 0) / rec["instructions"]
            notes.append(f"bmpki {bm:.2f}")
            if bm > 10.0:
                notes.append("branchy: consider predication/sorting")
        note = "; ".join(notes) if notes else "no counter data"
        lines.append(
            f"  {rank}. {name}  self {rec['self_us'] / 1e6:.6f} s "
            f"({100.0 * rec['self_us'] / epoch_us:.1f}% of epoch) — {note}"
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
