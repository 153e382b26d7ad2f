#!/usr/bin/env python3
"""PB-SC end-to-end benchmark: one measured run of one workload.

    python3 pbsc_bench/run.py --workload batch-greedy --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. Builds the library and the pbsc_bench binary
from source into .bench_build/pbsc (Release), generates the workload from
--seed, replays it for about --seconds, checks the outputs, and prints
every metric by name with its unit and direction. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced replays and reports the per-layer metrics (spans are written to
.bench_build/pbsc/spans/). Exit code 0 only when every check passed.
See README.md in this directory.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # write nothing outside .bench_build
sys.path.insert(0, str(HERE))
import metrics as M  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "pbsc"
BINARY = BUILD_DIR / "pbsc_bench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"pbsc_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "sim" / "simulator.h").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = [["cmake", "--build", str(BUILD_DIR), "-j",
              str(os.cpu_count() or 1)]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            fail("building the benchmark failed")


def percentile(values, p):
    """Nearest-rank percentile, as the library's Percentile computes it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1]


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--tags"], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# Outputs that are pure functions of the seed: every replay of a run must
# reproduce them exactly (traced and untraced alike).
DETERMINISTIC = ("checksums", "quality", "assigned", "expired", "pool_pairs",
                 "pool_predicted_pairs", "pool_max_bytes",
                 "predicted_entities", "cell_error")
PROBE_DETERMINISTIC = ("index_inserted", "index_erased", "backlog_sum",
                       "backlog_max", "coverable_sum", "epochs")


def by_input(reps, traced=None):
    """Replays grouped by input (in input order), optionally only the
    traced or only the untraced ones."""
    groups = defaultdict(list)
    for r in reps:
        if traced is None or r["traced"] == traced:
            groups[r["input"]].append(r)
    return [groups[k] for k in sorted(groups)]


def check(raw, stream_clock):
    """Returns (attempted epochs, failed epochs, problems)."""
    reps = raw["reps"]
    problems = []
    ok = [r for r in reps if not r["error"]]
    per_rep = len(ok[0]["checksums"]) if ok else 1
    attempted = sum(len(r["checksums"]) or per_rep for r in reps)
    failed = 0
    for r in reps:
        if r["error"]:
            problems.append(f"input {r['input']}: Run failed: {r['error']}")
            failed += per_rep
    fields = DETERMINISTIC + (("queue_wait_p50", "queue_wait_p99")
                              if stream_clock else ())
    for group in by_input(ok):
        ref = group[0]
        k = ref["input"]
        if ref["assigned"] <= 0 or not all(t > 0 for t in ref["epoch_s"]):
            problems.append(f"input {k}: no assignments or a zero epoch "
                            "latency")
            failed += len(ref["checksums"])
        traced = [r for r in group if r["traced"]]
        for r in group[1:]:
            bad = sum(a != b for a, b in zip(r["checksums"],
                                             ref["checksums"]))
            bad += abs(len(r["checksums"]) - len(ref["checksums"]))
            if bad:
                problems.append(f"input {k}: {bad} epoch checksums differ "
                                "between replays")
            diff = [f for f in fields if f != "checksums" and r[f] != ref[f]]
            if r["traced"] and r is not traced[0]:
                diff += [f"probe.{f}" for f in PROBE_DETERMINISTIC
                         if r["probe"][f] != traced[0]["probe"][f]]
                if not stream_clock:
                    diff += [f for f in ("queue_wait_p50", "queue_wait_p99")
                             if r[f] != traced[0][f]]
            if diff:
                problems.append(f"input {k}: {', '.join(diff)} differ "
                                "between replays")
                bad = len(r["checksums"])
            failed += bad
    return attempted, failed, problems


def self_times(spans):
    """Per replay: {span name: summed self time in s}, plus the spans whose
    children outgrow them (must be none)."""
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    by_rep = defaultdict(lambda: defaultdict(float))
    overflows = []
    for i, s in enumerate(spans):
        own = s["end_ns"] - s["start_ns"] - child_ns[i]
        if own < 0:
            overflows.append(s["name"])
        by_rep[s["rep"]][s["name"]] += own / 1e9
    return by_rep, overflows


# Timings take each input's fastest replay: on a shared host interference
# only ever adds time, so the minimum over replays of one input is the
# steady estimate; the metric is then the mean over the run's inputs.

def end_to_end(raw):
    groups = by_input(raw["reps"], traced=False)
    refs = [g[0] for g in groups]
    run_s = statistics.mean(min(r["run_s"] for r in g) for g in groups)
    # Per input and epoch, the fastest replay's latency.
    epochs = [min(column) for g in groups
              for column in zip(*(r["epoch_s"] for r in g))]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "run_s": run_s,
        "cpu_s": statistics.mean(min(r["cpu_s"] for r in g) for g in groups),
        "peak_rss_mb": statistics.median(
            max(r["peak_rss_kb"] for r in g) for g in groups) / 1024.0,
        "quality": statistics.mean(float(r["quality"]) for r in refs),
        "assigned": statistics.mean(r["assigned"] for r in refs),
        "events_per_s": raw["arrivals"] / run_s,
        "epoch_p50_s": percentile(epochs, 50),
        "epoch_p95_s": percentile(epochs, 95),
        "expired_share":
            sum(r["expired"] for r in refs) / (raw["tasks"] * len(refs)),
    }, len(epochs)


def per_layer(raw, spans):
    by_rep, overflows = self_times(spans)
    rep_index = {id(r): i for i, r in enumerate(raw["reps"])}
    traced = by_input(raw["reps"], traced=True)
    untraced = by_input(raw["reps"], traced=False)
    refs = [g[0] for g in traced]
    n = len(refs)

    def layer_s(name):
        return statistics.mean(min(by_rep[rep_index[id(r)]].get(name, 0.0)
                                   for r in g) for g in traced)

    def total(key):
        return sum(r[key] for r in refs)

    def probe_total(key):
        return sum(r["probe"][key] for r in refs)

    def fastest_run(groups):
        return sum(min(r["run_s"] for r in g) for g in groups)

    values = {
        "core.select.self_s": layer_s("core.assign"),
        "core.pool.build_s": layer_s("core.pool.build"),
        "core.pool.pairs": total("pool_pairs") / n,
        "core.pool.predicted_pairs": total("pool_predicted_pairs") / n,
        "core.pool.bytes": max(r["pool_max_bytes"] for r in refs),
        "core.pool.lazy_skipped_fraction":
            total("lazy_skipped_pairs") / max(total("pool_predicted_pairs"),
                                              1),
        "core.pool.used_fraction":
            total("assigned") / max(total("pool_pairs"), 1),
        "index.sync_s": layer_s("index.sync"),
        "index.inserted": probe_total("index_inserted") / n,
        "index.erased": probe_total("index_erased") / n,
        "prediction.step_s": layer_s("prediction.step"),
        "prediction.predicted_entities": total("predicted_entities") / n,
        "prediction.cell_error":
            statistics.mean(r["cell_error"] for r in refs),
        "model.validate_s": layer_s("model.validate"),
        "exec.cpu_per_wall": statistics.median(
            r["cpu_s"] / r["run_s"] for g in untraced for r in g),
        "stream.backlog_mean":
            probe_total("backlog_sum") / max(probe_total("epochs"), 1),
        "stream.backlog_max": max(r["probe"]["backlog_max"] for r in refs),
        "stream.coverable_share":
            probe_total("coverable_sum") / max(probe_total("backlog_sum"), 1),
        "stream.queue_wait_p50":
            statistics.mean(r["queue_wait_p50"] for r in refs),
        "stream.queue_wait_p99":
            statistics.mean(r["queue_wait_p99"] for r in refs),
        "sim.self_s": layer_s("sim.run"),
        "workload.generate_s": statistics.median(raw["generate_s"]),
        "bench.trace_overhead":
            fastest_run(traced) / fastest_run(untraced) - 1.0,
    }
    # Each span's share of the traced Run, for reading which layer
    # dominates.
    names = sorted({name for rep in by_rep.values() for name in rep})
    run_total = sum(layer_s(name) for name in names)
    shares = {name: layer_s(name) / run_total for name in names}
    return values, shares, overflows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=M.ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (the benchmark's tests)")
    args = parser.parse_args(argv)

    build()
    workload = next(w for w in M.WORKLOADS if w.name == args.workload)
    params = dict(workload.args, **(workload.tiny if args.tiny else {}))
    spans_path = BUILD_DIR / "spans" / f"{args.workload}-seed{args.seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace),
           "--setups", "2" if args.tiny else "30"]
    for key, value in params.items():
        cmd += [f"--{key}", str(value)]
    if args.trace:
        cmd += ["--spans-out", str(spans_path)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"pbsc_bench exited with {proc.returncode}", 1)
    raw = json.loads(proc.stdout)

    provenance = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "git": git_describe(),
        "build_type": raw["build_type"], "optimized": raw["optimized"],
        "machine": f"{platform.machine()} {platform.system()} "
                   f"{platform.release()}",
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "threads": raw["threads"], "params": params,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if not raw["optimized"]:
        print("WARNING: pbsc_bench was not built with optimization; its "
              "timings are not comparable", file=sys.stderr)

    stream_clock = params["clock"] == "stream"
    attempted, failed, problems = check(raw, stream_clock)
    n_untraced = sum(not r["traced"] for r in raw["reps"])
    print(f"replays: {len(raw['reps'])} ({n_untraced} untraced), epochs "
          f"attempted {attempted}, failed {failed}")
    values = {}
    if not problems:
        if args.trace:
            spans = json.loads(spans_path.read_text())
            values, shares, overflows = per_layer(raw, spans)
            if overflows:
                problems.append("child spans outgrow their parent: " +
                                ", ".join(sorted(set(overflows))))
                failed = attempted
            print("layer self-time shares of the traced Run: " +
                  ", ".join(f"{k} {v:.1%}" for k, v in
                            sorted(shares.items(), key=lambda kv: -kv[1])))
            defs = M.PER_LAYER
        else:
            values, samples = end_to_end(raw)
            print(f"epoch latency samples: {samples}")
            defs = M.END_TO_END
        for m in defs:
            print(f"metric {m.name} = {values[m.name]:.6g} {m.unit} "
                  f"({m.better} is better)")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    units = {m.name: m.unit for m in M.END_TO_END + M.PER_LAYER}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
