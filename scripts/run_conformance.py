#!/usr/bin/env python3
"""Differential conformance sweep over recorded mqa-trace-v1 traces.

Replays each trace through the built ``mqa_cli`` across every combination
of assignment algorithm x thread count x engine ({batch, stream}) and
asserts the determinism contracts on the per-epoch assignment checksums
extracted from ``--run-report`` JSON (contract 1, index-equivalence, is
checked at the pool level by tests/index_property_test.cc):

  2. thread-equivalence   — 1 and 4 threads replay to identical bits, and
     each stream replay's ``--csv`` rows (backlog, coverable, expired,
     assigned, quality, cost, queue wait; every column but the latency)
     are identical at 1 and 4 threads;
  3. batch/stream-equivalence — for integer-time traces (recorded
     arrival streams), the streaming engine under --epoch-policy=instance
     reproduces the batch checksums byte-for-byte. Continuous-time
     traces quantize differently under batching, so for those the two
     engines are only checked for internal consistency.

This is the out-of-process twin of tests/conformance_test.cc: it proves
the *shipped binary* honors the contracts end to end, flags included.

Usage:
  scripts/run_conformance.py [--cli build/examples/mqa_cli] [TRACE ...]

With no TRACE arguments, sweeps every tests/data/*.trace.csv.
Exits non-zero on the first contract violation. See docs/TESTING.md.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALGOS = ["greedy", "dc", "random"]
THREADS = [1, 4]

# The 1-based column of `mqa_cli --stream --csv` that holds the epoch's
# wall-clock latency, the one column allowed to differ between replays.
STREAM_LATENCY_FIELD = 12

# Pinned solver knobs so checksums are a pure function of (trace, algo).
BASE_FLAGS = [
    "--budget=40",
    "--unit-price=10",
    "--gamma=8",
    "--window=3",
    "--seed=5",
]


def trace_times_are_integral(path):
    """True if every record in the CSV trace has an integral timestamp."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("kind,"):
                continue
            time = float(line.split(",")[1])
            if time != int(time):
                return False
    return True


def run_variant(cli, trace, algo, threads, engine, report_path):
    """Returns the run's per-epoch checksums and, for the stream engine,
    its --csv rows without the latency column (None for batch)."""
    cmd = [
        cli,
        f"--replay-trace={trace}",
        f"--algo={algo}",
        f"--threads={threads}",
        f"--run-report={report_path}",
    ] + BASE_FLAGS
    if engine == "stream":
        cmd += ["--stream", "--epoch-policy=instance", "--csv"]
    elif engine != "batch":
        raise ValueError(engine)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(
            f"FAIL: {' '.join(cmd)}\nexit={proc.returncode}\n{proc.stderr}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    rows = None
    if engine == "stream":
        rows = [",".join(col for k, col in enumerate(line.split(","), 1)
                         if k != STREAM_LATENCY_FIELD)
                for line in proc.stdout.splitlines()]
    return [epoch["checksum"] for epoch in report["epochs"]], rows


def sweep_trace(cli, trace, tmpdir):
    name = os.path.basename(trace)
    integral = trace_times_are_integral(trace)
    print(f"== {name} ({'integer' if integral else 'continuous'}-time)")
    failures = 0
    for algo in ALGOS:
        reference = {}  # engine-class -> (variant label, checksums)
        stream_reference = None  # (variant label, stream csv rows)
        failures_before = failures
        runs = 0
        for threads in THREADS:
            for engine in ("batch", "stream"):
                label = f"{algo}/t{threads}/{engine}"
                report = os.path.join(tmpdir, "report.json")
                checksums, rows = run_variant(
                    cli, trace, algo, threads, engine, report)
                runs += 1
                if not checksums:
                    sys.exit(f"FAIL: {label} produced no epochs")
                if rows is not None:
                    if stream_reference is None:
                        stream_reference = (label, rows)
                    elif stream_reference[1] != rows:
                        ref_label, ref = stream_reference
                        print(f"   MISMATCH {label} vs {ref_label} "
                              f"(stream csv rows, latency cut)")
                        for a, b in zip(ref, rows):
                            if a != b:
                                print(f"     {ref_label}: {a}")
                                print(f"     {label}: {b}")
                                break
                        failures += 1
                # The stream engine replays raw timestamps, so it only
                # joins the batch contract class for integer-time traces.
                key = ("batch"
                       if engine != "stream" or integral else "stream")
                if key not in reference:
                    reference[key] = (label, checksums)
                elif reference[key][1] != checksums:
                    ref_label, ref = reference[key]
                    print(f"   MISMATCH {label} vs {ref_label}")
                    print(f"     {ref_label}: {' '.join(ref)}")
                    print(f"     {label}: {' '.join(checksums)}")
                    failures += 1
        status = "ok" if failures == failures_before else "FAILED"
        print(f"   {algo}: {runs} runs, {status}")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "traces", nargs="*",
        help="trace files to sweep (default: tests/data/*.trace.csv)")
    parser.add_argument(
        "--cli", default=os.path.join(REPO, "build", "examples", "mqa_cli"),
        help="path to the built mqa_cli binary")
    args = parser.parse_args()

    traces = args.traces or sorted(
        glob.glob(os.path.join(REPO, "tests", "data", "*.trace.csv")))
    if not traces:
        sys.exit("no traces found; record one with mqa_cli --record-trace")
    if not os.access(args.cli, os.X_OK):
        sys.exit(f"mqa_cli not found at {args.cli}; build the repo first")

    failures = 0
    with tempfile.TemporaryDirectory() as tmpdir:
        for trace in traces:
            failures += sweep_trace(args.cli, trace, tmpdir)
    if failures:
        sys.exit(f"{failures} contract violation(s)")
    print(f"conformance ok: {len(traces)} trace(s), all contracts hold")


if __name__ == "__main__":
    main()
