#!/usr/bin/env python3
"""mqa_cli rejects malformed flag values and unknown flags cleanly.

Every invocation below must end with exit status 2 (the usage-error
status) and a message naming the offending flag: never an abort (134)
and never a run (0). An invalid enumerated value is rejected before any
work is done, so it leaves no --record-trace file behind.

Usage: cli_flags_test.py PATH/TO/mqa_cli
"""

import os
import subprocess
import sys
import tempfile

# A tiny run, so a flag that is wrongly accepted still finishes quickly.
BASE = ["--workers=20", "--tasks=20", "--instances=2", "--csv"]

# (argument, text the error message must contain)
CASES = [
    ("--workers=-5", "--workers"),
    ("--instances=-1", "--instances"),
    # Above kMaxInstances (2^20): refused before any workload is generated
    # (10^8 instances would allocate gigabytes of empty batches).
    ("--instances=1048577", "--instances"),
    ("--instances=100000000", "--instances"),
    ("--gamma=0", "--gamma"),
    # Above Grid::kMaxGamma; 50000 would overflow the grid's cell count.
    ("--gamma=1001", "--gamma"),
    ("--gamma=50000", "--gamma"),
    ("--window=0", "--window"),
    ("--budget=nan", "--budget"),
    ("--threads=abc", "--threads"),
    # Above the cap: refused while parsing, before any thread starts.
    ("--threads=100000", "--threads"),
    ("--stats-port=70000", "--stats-port"),
    ("--v-lo=0.5", "--v-lo/--v-hi"),
    ("--worker-dist=bogus", "--worker-dist"),
    ("--task-dist=unifrom", "--task-dist"),
    # Every enumerated flag, whether or not this run would read it.
    ("--scenario=bogus", "invalid value for --scenario: 'bogus'"),
    ("--workload=bogus", "invalid value for --workload: 'bogus'"),
    ("--algo=bogus", "invalid value for --algo: 'bogus'"),
    ("--epoch-policy=bogus", "invalid value for --epoch-policy: 'bogus'"),
    ("--delta-pool", "--delta-pool"),
    ("--repair", "--repair"),
    # Folded into --run-report: its nested metrics object and epoch rows.
    ("--metrics-json=m.json", "--metrics-json"),
    ("--phase-timing", "--phase-timing"),
    ("--pairpool-stats", "--pairpool-stats"),
    # The retired live-telemetry layer; per-epoch RSS and CPU are in the
    # run report's epoch rows.
    ("--timeline=t.jsonl", "--timeline"),
    ("--timeline-every=2", "--timeline-every"),
    ("--stats-port=0", "--stats-port"),
    ("--stats-linger=1", "--stats-linger"),
    ("--slo-p99=1", "--slo-p99"),
    ("--slo-deadline=1", "--slo-deadline"),
    ("--slo-backlog=1", "--slo-backlog"),
    ("--slo-window=4", "--slo-window"),
    # The retired perf_event_open layer; the greedy loop's counts are in
    # the run report's epoch rows.
    ("--perf-counters", "--perf-counters"),
    # The retired index-backend knob; every index is an R-tree.
    ("--index=grid", "--index"),
    # The retired stuck-epoch watchdog; the span trace and the run report
    # are the observability surfaces.
    ("--watchdog=1", "--watchdog"),
    # The retired binary trace encoding; every trace is CSV.
    ("--trace-format=csv", "--trace-format"),
    ("--trace-format=binary", "--trace-format"),
    ("--trace-format=bogus", "--trace-format"),
]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    cli = sys.argv[1]
    failures = []
    for arg, needle in CASES:
        proc = subprocess.run([cli] + BASE + [arg], capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 2 or needle not in proc.stderr:
            failures.append(f"{arg}: exit {proc.returncode}, stderr "
                            f"{proc.stderr.strip()[-200:]!r}")
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "x.csv")
        proc = subprocess.run([cli] + BASE + ["--algo=bogus",
                                              f"--record-trace={trace}"],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 2 or os.path.exists(trace):
            failures.append(f"--algo=bogus --record-trace: exit "
                            f"{proc.returncode}, trace written: "
                            f"{os.path.exists(trace)}")
    for failure in failures:
        print("FAIL", failure)
    total = len(CASES) + 1
    print(f"{total - len(failures)}/{total} invocations rejected with exit 2")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
