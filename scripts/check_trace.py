#!/usr/bin/env python3
"""Validates a Chrome trace-event JSON file emitted by mqa's tracer.

Checks, in order:
  1. The file parses as JSON and has the trace-event envelope
     (displayTimeUnit, traceEvents list).
  2. Every "X" event carries the required keys (name, cat, ph, ts, dur,
     pid, tid) with sane types and non-negative durations; when an event
     has an args object, its only key is the span's integer payload
     ("v").
  3. Per thread, spans nest: any two spans either don't overlap in time
     or one contains the other (a partial overlap means broken RAII
     pairing or a non-monotonic clock).
  4. Optionally (--require-span, repeatable): the named span occurs at
     least once.
  5. Optionally (--min-coverage P): within every "epoch" / "stream/epoch"
     span, its direct phase children cover at least P percent of the
     epoch's duration — the "the trace explains where the time went"
     acceptance bar.

Also validates an mqa-run-report-v8 file when given via --report:
  - on every epoch row, the five phases that partition the epoch
    (predict + assemble + index + pool_build + assign) are non-negative
    and add up to wall_seconds, within 5 us or 1e-3 relative, and
    phase_seconds names no phase outside those five plus validate,
    apply and ingest;
  - every epoch row has a process object whose rss_bytes, peak_rss_bytes
    and cpu_seconds are present and non-negative, whose peak_rss_bytes is
    at least its rss_bytes, and whose peak_rss_bytes and cpu_seconds
    never decrease from one row to the next;
  - every epoch row has a greedy object whose four counts are
    non-negative integers, with max_candidates at most candidates.

Exit 0 when everything holds, 1 otherwise.
"""

import argparse
import json
import sys

REQUIRED_X_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")

# Spans treated as epoch roots for the coverage check.
EPOCH_SPAN_NAMES = ("epoch", "stream/epoch")

# The run-report schema --report accepts, the epoch-row phases whose
# sum must equal the row's wall_seconds, and every phase a row may name
# (validate, apply and the stream's ingest run outside that clock).
REPORT_SCHEMA = "mqa-run-report-v8"
WALL_PHASES = ("predict", "assemble", "index", "pool_build", "assign")
REPORT_PHASES = WALL_PHASES + ("validate", "apply", "ingest")
PHASE_SUM_ABS_TOL = 5e-6
PHASE_SUM_REL_TOL = 1e-3

# The epoch row's process object; the cumulative ones must not decrease
# across rows.
PROCESS_KEYS = ("rss_bytes", "peak_rss_bytes", "cpu_seconds")
PROCESS_MONOTONE_KEYS = ("peak_rss_bytes", "cpu_seconds")

# The epoch row's greedy object: the selection loop's counts.
GREEDY_KEYS = ("iterations", "candidates", "max_candidates",
               "retired_pairs")


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    return 1


def load_trace(path):
    with open(path) as f:
        doc = json.load(f)
    if "traceEvents" not in doc or not isinstance(doc["traceEvents"], list):
        raise ValueError("missing traceEvents array")
    if "displayTimeUnit" not in doc:
        raise ValueError("missing displayTimeUnit")
    return doc


def check_events(events):
    """Returns (spans_by_tid, errors). Spans are (start, end, name)."""
    errors = []
    by_tid = {}
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph == "M":
            continue  # metadata (thread_name)
        if ph != "X":
            errors.append(f"event {i}: unexpected ph {ph!r}")
            continue
        for key in REQUIRED_X_KEYS:
            if key not in e:
                errors.append(f"event {i} ({e.get('name')}): missing '{key}'")
        ts, dur = e.get("ts"), e.get("dur")
        if not isinstance(ts, (int, float)) or not isinstance(
                dur, (int, float)):
            errors.append(f"event {i} ({e.get('name')}): non-numeric ts/dur")
            continue
        if dur < 0:
            errors.append(f"event {i} ({e.get('name')}): negative dur {dur}")
            continue
        args = e.get("args")
        if args is not None:
            if not isinstance(args, dict):
                errors.append(f"event {i} ({e.get('name')}): args not an "
                              f"object")
            else:
                for key, value in args.items():
                    if key != "v":
                        errors.append(f"event {i} ({e.get('name')}): "
                                      f"unknown arg key '{key}'")
                    elif not isinstance(value, int):
                        errors.append(f"event {i} ({e.get('name')}): arg "
                                      f"'{key}' is not an integer: {value!r}")
        by_tid.setdefault(e["tid"], []).append((ts, ts + dur, e["name"]))
    return by_tid, errors


def check_nesting(by_tid, epsilon=0.002):
    """Any two spans on one thread must be disjoint or nested.

    epsilon (us) absorbs the sub-nanosecond truncation of the exporter's
    fixed-precision timestamps.
    """
    errors = []
    for tid, spans in by_tid.items():
        # Start-ascending, duration-descending: a parent sharing its
        # child's start time must be visited first.
        ordered = sorted(spans, key=lambda s: (s[0], -s[1]))
        stack = []
        for start, end, name in ordered:
            while stack and stack[-1][1] <= start + epsilon:
                stack.pop()
            if stack and end > stack[-1][1] + epsilon:
                errors.append(
                    f"tid {tid}: span '{name}' [{start}, {end}] partially "
                    f"overlaps '{stack[-1][2]}' [{stack[-1][0]}, "
                    f"{stack[-1][1]}]")
            stack.append((start, end, name))
    return errors


def check_coverage(by_tid, min_coverage):
    """Direct children of every epoch span must cover >= min_coverage %."""
    errors = []
    checked = 0
    for tid, spans in by_tid.items():
        ordered = sorted(spans)
        epochs = [s for s in ordered if s[2] in EPOCH_SPAN_NAMES]
        for estart, eend, ename in epochs:
            if eend - estart <= 0:
                continue
            # Direct children: contained in the epoch but not in another
            # contained epoch-child candidate. For coverage, summing the
            # union of all strictly-contained non-epoch spans' top level
            # is enough: take contained spans, merge intervals.
            contained = [(s, e) for s, e, n in ordered
                         if n not in EPOCH_SPAN_NAMES and s >= estart and
                         e <= eend]
            merged = []
            for s, e in sorted(contained):
                if merged and s <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], e))
                else:
                    merged.append((s, e))
            covered = sum(e - s for s, e in merged)
            pct = 100.0 * covered / (eend - estart)
            checked += 1
            if pct < min_coverage:
                errors.append(
                    f"tid {tid}: '{ename}' at {estart} only {pct:.1f}% "
                    f"covered by phase spans (need {min_coverage}%)")
    if checked == 0 and min_coverage > 0:
        errors.append("no epoch spans found to check coverage on")
    return errors


def check_phase_sum(row):
    """The row names only known phases, and its five serial phases add up
    to its wall_seconds."""
    where = f"report: epoch {row.get('instance')}"
    phases = row.get("phase_seconds")
    wall = row.get("wall_seconds")
    if not isinstance(phases, dict) or not isinstance(wall, (int, float)):
        return [f"{where}: missing phase_seconds or wall_seconds"]
    unknown = sorted(set(phases) - set(REPORT_PHASES))
    if unknown:
        return [f"{where}: phase_seconds names unknown phase(s) {unknown}"]
    values = [phases.get(name) for name in WALL_PHASES]
    if not all(isinstance(v, (int, float)) for v in values):
        return [f"{where}: phase_seconds lacks one of {WALL_PHASES}"]
    if min(values) < 0:
        return [f"{where}: negative phase time in "
                f"{dict(zip(WALL_PHASES, values))}"]
    total = sum(values)
    if abs(total - wall) > max(PHASE_SUM_ABS_TOL, PHASE_SUM_REL_TOL * wall):
        return [f"{where}: {' + '.join(WALL_PHASES)} = {total:.9f} s but "
                f"wall_seconds = {wall:.9f} s"]
    return []


def check_process(rows):
    """Every row's process values are present and non-negative, its peak
    RSS is at least its RSS, and the cumulative values are
    non-decreasing in row order."""
    errors = []
    prev = {}
    for row in rows:
        where = f"report: epoch {row.get('instance')}"
        process = row.get("process")
        if not isinstance(process, dict):
            errors.append(f"{where}: missing process object")
            continue
        for key in PROCESS_KEYS:
            value = process.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(f"{where}: process.{key} = {value!r}, want a "
                              f"non-negative number")
            elif key in PROCESS_MONOTONE_KEYS:
                if value < prev.get(key, 0):
                    errors.append(f"{where}: process.{key} fell from "
                                  f"{prev[key]} to {value}")
                prev[key] = value
        rss, peak = process.get("rss_bytes"), process.get("peak_rss_bytes")
        if (isinstance(rss, (int, float)) and isinstance(peak, (int, float))
                and peak < rss):
            errors.append(f"{where}: process.peak_rss_bytes {peak} is "
                          f"below rss_bytes {rss}")
    return errors


def check_greedy(row):
    """The row's greedy counts are non-negative integers, and the largest
    candidate set is at most the summed sizes."""
    where = f"report: epoch {row.get('instance')}"
    greedy = row.get("greedy")
    if not isinstance(greedy, dict):
        return [f"{where}: missing greedy object"]
    errors = []
    for key in GREEDY_KEYS:
        value = greedy.get(key)
        if type(value) is not int or value < 0:
            errors.append(f"{where}: greedy.{key} = {value!r}, want a "
                          f"non-negative integer")
    if not errors and greedy["max_candidates"] > greedy["candidates"]:
        errors.append(f"{where}: greedy.max_candidates "
                      f"{greedy['max_candidates']} exceeds candidates "
                      f"{greedy['candidates']}")
    return errors


def check_report(path):
    """Returns (epoch_rows, errors) for an mqa run report."""
    with open(path) as f:
        doc = json.load(f)
    errors = []
    if doc.get("schema") != REPORT_SCHEMA:
        errors.append(f"report: schema {doc.get('schema')!r}, expected "
                      f"{REPORT_SCHEMA!r}")
    epochs = doc.get("epochs")
    if not isinstance(epochs, list):
        errors.append("report: missing 'epochs' array")
        return 0, errors
    for row in epochs:
        errors.extend(check_phase_sum(row))
        errors.extend(check_greedy(row))
    errors.extend(check_process(epochs))
    return len(epochs), errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument("--report", help="mqa run-report JSON to validate")
    parser.add_argument("--require-span", action="append", default=[],
                        help="span name that must occur at least once")
    parser.add_argument("--min-coverage", type=float, default=0.0,
                        help="min %% of each epoch span covered by phase "
                             "spans (0 disables)")
    parser.add_argument("--min-events", type=int, default=1,
                        help="minimum number of X events expected")
    args = parser.parse_args()

    try:
        doc = load_trace(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        return fail(f"{args.trace}: {e}")

    by_tid, errors = check_events(doc["traceEvents"])
    errors.extend(check_nesting(by_tid))

    num_spans = sum(len(s) for s in by_tid.values())
    if num_spans < args.min_events:
        errors.append(f"only {num_spans} spans (expected >= "
                      f"{args.min_events})")

    names = {n for spans in by_tid.values() for _, _, n in spans}
    for required in args.require_span:
        if required not in names:
            errors.append(f"required span '{required}' never occurred "
                          f"(have: {sorted(names)})")

    if args.min_coverage > 0:
        errors.extend(check_coverage(by_tid, args.min_coverage))

    num_epochs = 0
    if args.report:
        try:
            num_epochs, report_errors = check_report(args.report)
            errors.extend(report_errors)
        except (OSError, json.JSONDecodeError) as e:
            errors.append(f"{args.report}: {e}")

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    print(f"ok: {num_spans} spans on {len(by_tid)} threads"
          + (f", report valid ({num_epochs} epoch rows)" if args.report
             else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
