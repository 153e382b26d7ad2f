#!/usr/bin/env python3
"""Live run dashboard: follows a running mqa process through its stats
server (--url) or its growing --timeline JSONL file (--file) and renders
a top-style view — epoch/assignment rates, windowed p99 latency, backlog
and SLO state, process RSS/CPU, and the busiest counters since the last
refresh.

Sources:
  --url URL    poll URL/metrics (Prometheus text exposition) and
               URL/timeline?n=1; URL is e.g. http://127.0.0.1:9100
  --file FILE  tail an mqa-timeline-v1 JSONL file as it grows (works on
               a finished file too — shows the final snapshot)

Modes:
  default      curses dashboard, refreshed every --interval seconds;
               press q to quit
  --once       print a single plain-text frame to stdout and exit —
               the non-interactive mode CI smoke-tests against a live
               stats endpoint

No dependencies beyond the standard library.
"""

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

HEADLINE_GAUGES = (
    ("mqa.stream.backlog", "backlog"),
    ("mqa.stream.window.p99_epoch_latency_seconds", "win p99 latency s"),
    ("mqa.stream.window.p99_queue_wait", "win p99 wait"),
    ("mqa.slo.window.p99_latency_seconds", "slo p99 s"),
    ("mqa.slo.window.overrun_ratio", "slo overrun ratio"),
    ("mqa.slo.breaches_active", "slo breaches active"),
)


def sanitize(name):
    """The Prometheus exposition rewrites '.' to '_'; timeline JSONL keeps
    dots. Look metrics up under both spellings."""
    return name.replace(".", "_")


def lookup(metrics, name):
    v = metrics.get(name)
    if v is None:
        v = metrics.get(sanitize(name))
    return v


def fetch_url(url, timeout):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode("utf-8", errors="replace")


def parse_exposition(text):
    """Prometheus text exposition -> {name: value}. Summary quantile
    lines keep their label in the key."""
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            continue
        name, raw = parts
        try:
            values[name] = float(raw)
        except ValueError:
            continue
    return values


class UrlSource:
    """Counters/gauges via /metrics; epoch/sim position via /timeline."""

    def __init__(self, url, timeout=5.0):
        self.base = url.rstrip("/")
        self.timeout = timeout

    def sample(self):
        metrics = parse_exposition(
            fetch_url(self.base + "/metrics", self.timeout))
        snapshot = None
        try:
            lines = fetch_url(self.base + "/timeline?n=1",
                              self.timeout).splitlines()
            if len(lines) >= 2:
                snapshot = json.loads(lines[-1])
        except (urllib.error.URLError, json.JSONDecodeError, OSError):
            pass  # timeline recorder may be off; metrics alone still work
        return metrics, snapshot

    def describe(self):
        return self.base


class FileSource:
    """Latest snapshot of a (possibly still growing) timeline file.
    Counters are reconstructed cumulatively from the per-line deltas."""

    def __init__(self, path):
        self.path = path
        self.offset = 0
        self.totals = {}
        self.last_snapshot = None

    def sample(self):
        with open(self.path, "r", encoding="utf-8") as f:
            f.seek(self.offset)
            chunk = f.read()
            self.offset = f.tell()
        for line in chunk.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # racing a partially written tail line
            if "seq" not in obj:
                continue  # header
            for name, delta in obj.get("counters", {}).items():
                self.totals[name] = self.totals.get(name, 0) + delta
            self.last_snapshot = obj
        metrics = dict(self.totals)
        if self.last_snapshot is not None:
            for name, v in self.last_snapshot.get("gauges", {}).items():
                if v is not None:
                    metrics[name] = v
        return metrics, self.last_snapshot

    def describe(self):
        return self.path


def render_frame(source, metrics, snapshot, prev, dt):
    """One dashboard frame as a list of lines."""
    lines = []
    lines.append(f"mqa top — {source.describe()} — "
                 f"{time.strftime('%H:%M:%S')}")
    if snapshot is not None:
        lines.append(
            f"  epoch {snapshot.get('epoch')}  sim_time "
            f"{snapshot.get('sim_time')}  wall {snapshot.get('wall_s'):.2f} s"
            f"  rss {snapshot.get('rss_bytes', 0) / 1e6:.1f} MB"
            f"  cpu {snapshot.get('cpu_s', 0.0):.2f} s"
            f"  [{snapshot.get('trigger')}]")
    lines.append("")

    lines.append("  gauges:")
    for name, label in HEADLINE_GAUGES:
        value = lookup(metrics, name)
        if value is not None:
            lines.append(f"    {label:<22} {value:>12.4f}")

    lines.append("")
    lines.append(f"  {'counter':<42} {'total':>12} {'rate/s':>10}")
    headline = {g for g, _ in HEADLINE_GAUGES} | {
        sanitize(g) for g, _ in HEADLINE_GAUGES}
    counters = {k: v for k, v in metrics.items()
                if (k.startswith("mqa.") or k.startswith("mqa_"))
                and "{" not in k and k not in headline}
    rows = []
    for name, value in counters.items():
        rate = 0.0
        if prev is not None and dt and dt > 0 and name in prev:
            rate = (value - prev[name]) / dt
        rows.append((rate, name, value))
    rows.sort(key=lambda r: (-r[0], r[1]))
    for rate, name, value in rows[:18]:
        lines.append(f"  {name:<44} {value:>12.0f} {rate:>10.1f}")
    return lines


def build_source(args):
    if args.url:
        return UrlSource(args.url)
    return FileSource(args.file)


def run_once(args):
    source = build_source(args)
    try:
        metrics, snapshot = source.sample()
    except (urllib.error.URLError, OSError) as e:
        print(f"FAIL: cannot sample {source.describe()}: {e}",
              file=sys.stderr)
        return 1
    for line in render_frame(source, metrics, snapshot, None, None):
        print(line)
    return 0


def run_curses(args):
    import curses

    source = build_source(args)

    def loop(screen):
        curses.curs_set(0)
        screen.nodelay(True)
        prev = None
        prev_t = None
        while True:
            try:
                metrics, snapshot = source.sample()
                now = time.monotonic()
                dt = now - prev_t if prev_t is not None else None
                frame = render_frame(source, metrics, snapshot, prev, dt)
                prev, prev_t = metrics, now
            except (urllib.error.URLError, OSError) as e:
                frame = [f"mqa top — {source.describe()}",
                         f"  waiting for source: {e}"]
            screen.erase()
            max_y, max_x = screen.getmaxyx()
            for y, line in enumerate(frame[:max_y - 1]):
                screen.addnstr(y, 0, line, max_x - 1)
            screen.refresh()
            deadline = time.monotonic() + args.interval
            while time.monotonic() < deadline:
                ch = screen.getch()
                if ch in (ord("q"), ord("Q")):
                    return
                time.sleep(0.05)

    curses.wrapper(loop)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--url", help="stats server base URL "
                                     "(http://127.0.0.1:PORT)")
    group.add_argument("--file", help="mqa-timeline-v1 JSONL file to tail")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="refresh interval in seconds (default 1)")
    parser.add_argument("--once", action="store_true",
                        help="print one plain-text frame and exit")
    args = parser.parse_args()

    if args.once:
        return run_once(args)
    return run_curses(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)  # stdout piped to head etc.
