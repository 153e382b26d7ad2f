#!/usr/bin/env python3
"""Renders an mqa-timeline-v1 JSONL artifact as time-series curves:
epoch rate, p99 assignment latency, backlog depth, RSS — the run's
story over time, where the end-of-run summaries only give totals.

Each tracked series prints one row:

  name            min / mean / max / last, plus a fixed-width ASCII
                  curve of the series downsampled to the terminal
                  (" .:-=+*#%@", scaled to the series' own range)

With --compare B the report renders both runs' summary statistics side
by side with relative deltas — the A/B view for "did the new epoch
policy move p99 latency and backlog?".

Series sources (missing ones are skipped):
  epoch_rate    mqa.epoch.count counter delta / wall_s delta
  p99_latency   mqa.stream.window.p99_epoch_latency_seconds gauge,
                falling back to the mqa.epoch.wall_seconds histogram's
                cumulative p99
  backlog       mqa.stream.backlog gauge
  slo_p99       mqa.slo.window.p99_latency_seconds gauge
  breaches      mqa.slo.breaches_active gauge
  rss_mb        rss_bytes / 1e6
  cpu_rate      cpu_s delta / wall_s delta (process CPUs busy)

Usage:
  timeline_report.py A.jsonl [--compare B.jsonl] [--width N]
  timeline_report.py A.jsonl --golden expected.txt

--golden re-renders and byte-compares against the given file (the ctest
golden-file mode; exit 0 on match, 1 with a diff otherwise).
"""

import argparse
import difflib
import json
import os
import sys

GLYPHS = " .:-=+*#%@"


def load_timeline(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
    except OSError as e:
        print(f"FAIL: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)
    if not lines:
        print(f"FAIL: {path} is empty", file=sys.stderr)
        sys.exit(1)
    try:
        header = json.loads(lines[0])
        snaps = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as e:
        print(f"FAIL: {path}: bad JSON: {e}", file=sys.stderr)
        sys.exit(1)
    if header.get("schema") != "mqa-timeline-v1":
        print(f"FAIL: {path}: schema {header.get('schema')!r} is not "
              f"'mqa-timeline-v1'", file=sys.stderr)
        sys.exit(1)
    return header, snaps


def series_from(snaps):
    """Extracts the tracked series as {name: [float values]}."""
    out = {}

    def add(name, values):
        cleaned = [v for v in values if v is not None]
        if cleaned and any(v != 0 for v in cleaned):
            out[name] = [v if v is not None else 0.0 for v in values]

    walls = [s.get("wall_s", 0.0) for s in snaps]
    rates = []
    cpu_rates = []
    prev_wall = None
    prev_cpu = None
    for s in snaps:
        wall = s.get("wall_s", 0.0)
        dt = wall - prev_wall if prev_wall is not None else 0.0
        epochs = s.get("counters", {}).get("mqa.epoch.count", 0)
        rates.append(epochs / dt if dt > 0 else 0.0)
        cpu = s.get("cpu_s", 0.0)
        dcpu = cpu - prev_cpu if prev_cpu is not None else 0.0
        cpu_rates.append(dcpu / dt if dt > 0 else 0.0)
        prev_wall, prev_cpu = wall, cpu
    add("epoch_rate", rates)
    add("cpu_rate", cpu_rates)

    def gauge(name):
        return [s.get("gauges", {}).get(name) for s in snaps]

    p99 = gauge("mqa.stream.window.p99_epoch_latency_seconds")
    if not any(v for v in p99 if v):
        p99 = [s.get("hist", {})
                .get("mqa.epoch.wall_seconds", {})
                .get("p99") for s in snaps]
    add("p99_latency", p99)
    add("backlog", gauge("mqa.stream.backlog"))
    add("slo_p99", gauge("mqa.slo.window.p99_latency_seconds"))
    add("breaches", gauge("mqa.slo.breaches_active"))
    add("rss_mb", [s.get("rss_bytes", 0) / 1e6 for s in snaps])
    out["_wall"] = walls
    return out


def sparkline(values, width):
    """Downsamples to `width` buckets (max within each bucket), scaled to
    the series' own [min, max]."""
    if not values:
        return ""
    buckets = []
    n = len(values)
    for b in range(min(width, n)):
        lo = b * n // min(width, n)
        hi = max(lo + 1, (b + 1) * n // min(width, n))
        buckets.append(max(values[lo:hi]))
    vmin, vmax = min(buckets), max(buckets)
    span = vmax - vmin
    glyphs = []
    for v in buckets:
        if span <= 0:
            glyphs.append(GLYPHS[0] if vmax == 0 else GLYPHS[-1])
        else:
            idx = int((v - vmin) / span * (len(GLYPHS) - 1))
            glyphs.append(GLYPHS[idx])
    return "".join(glyphs)


def stats(values):
    if not values:
        return 0.0, 0.0, 0.0, 0.0
    return (min(values), sum(values) / len(values), max(values), values[-1])


def render(path, width):
    header, snaps = load_timeline(path)
    out = []
    # Basename only: the golden-file test renders from an arbitrary
    # build directory, so the report must not embed the invocation path.
    out.append(f"timeline: {os.path.basename(path)}")
    out.append(f"  schema {header['schema']}, {len(snaps)} snapshot(s), "
               f"cadence every {header.get('every_epochs', '?')} epoch(s)")
    if not snaps:
        out.append("  (no snapshots)")
        return "\n".join(out) + "\n"
    wall = snaps[-1].get("wall_s", 0.0) - snaps[0].get("wall_s", 0.0)
    out.append(f"  span {wall:.3f} s wall, epochs {snaps[0].get('epoch')} "
               f"-> {snaps[-1].get('epoch')}")
    out.append("")
    out.append(f"  {'series':<12} {'min':>10} {'mean':>10} {'max':>10} "
               f"{'last':>10}  curve")
    series = series_from(snaps)
    for name in ("epoch_rate", "p99_latency", "backlog", "slo_p99",
                 "breaches", "cpu_rate", "rss_mb"):
        values = series.get(name)
        if values is None:
            continue
        vmin, vmean, vmax, vlast = stats(values)
        out.append(f"  {name:<12} {vmin:>10.4f} {vmean:>10.4f} "
                   f"{vmax:>10.4f} {vlast:>10.4f}  "
                   f"[{sparkline(values, width)}]")
    return "\n".join(out) + "\n"


def summarize(path):
    """Scalar summary used by the A/B comparison."""
    _, snaps = load_timeline(path)
    series = series_from(snaps)
    summary = {}
    for name in ("epoch_rate", "p99_latency", "backlog", "cpu_rate",
                 "rss_mb"):
        values = series.get(name)
        if values:
            summary[f"{name}.max"] = max(values)
            summary[f"{name}.mean"] = sum(values) / len(values)
    total_epochs = sum(s.get("counters", {}).get("mqa.epoch.count", 0)
                       for s in snaps)
    if total_epochs:
        summary["epochs.total"] = float(total_epochs)
    return summary


def render_compare(path_a, path_b):
    a = summarize(path_a)
    b = summarize(path_b)
    out = [f"A: {path_a}", f"B: {path_b}", "",
           f"  {'stat':<18} {'A':>12} {'B':>12} {'delta':>9}"]
    for key in sorted(set(a) | set(b)):
        va = a.get(key)
        vb = b.get(key)
        if va is None or vb is None:
            delta = "n/a"
        elif va == 0:
            delta = "n/a" if vb != 0 else "+0.0%"
        else:
            delta = f"{100.0 * (vb / va - 1.0):+.1f}%"
        fa = f"{va:.4f}" if va is not None else "-"
        fb = f"{vb:.4f}" if vb is not None else "-"
        out.append(f"  {key:<18} {fa:>12} {fb:>12} {delta:>9}")
    return "\n".join(out) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="mqa-timeline-v1 JSONL file (run A)")
    parser.add_argument("--compare", metavar="B",
                        help="second timeline: render an A/B summary diff")
    parser.add_argument("--width", type=int, default=60,
                        help="curve width in characters (default 60)")
    parser.add_argument("--golden", metavar="EXPECTED",
                        help="byte-compare the rendered report against "
                             "this file (ctest golden mode)")
    args = parser.parse_args()

    if args.compare:
        text = render_compare(args.file, args.compare)
    else:
        text = render(args.file, args.width)

    if args.golden:
        with open(args.golden, "r", encoding="utf-8") as f:
            expected = f.read()
        if text == expected:
            print(f"ok: output matches {args.golden}")
            return 0
        sys.stdout.writelines(difflib.unified_diff(
            expected.splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=args.golden, tofile="rendered"))
        return 1

    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
