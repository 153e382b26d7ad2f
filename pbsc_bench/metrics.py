"""Workloads and metric definitions of the PB-SC benchmark.

This module is the single place that says what is measured: the three
workloads (with the reason each exists), every end-to-end metric with its
unit, direction and regression bound, and every per-layer metric with the
end-to-end metrics and workloads it should move (the layer map). run.py
computes the metrics named here; BENCHMARK.json at the repository root
lists the same names, and test_bench.py checks that the two agree.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Arguments of the pbsc_bench binary (see bench_main.cc).
    args: Dict[str, object]
    # Overrides for the tiny mode the benchmark's own tests run.
    tiny: Dict[str, object]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    doc: str
    bound: float = 0.0  # end-to-end only: allowed worsening, share of median
    # Per-layer only: (end-to-end metric, workload) pairs this layer
    # metric should move when its layer changes.
    moves: List[Tuple[str, str]] = field(default_factory=list)


# Inputs follow mqa_cli's defaults: B=75, C=10, gamma=20, w=3, q in [1,2],
# v in [0.2,0.3], e in [1,2], Gaussian workers, Zipf tasks, no rejoins.
WORKLOADS = [
    Workload(
        name="batch-greedy",
        why="synthetic 300+300 over 10 instances, greedy, 1 thread: "
            "greedy selection does most of the work, no thread pool",
        args=dict(clock="batch", algo="greedy",
                  workers=300, tasks=300, horizon=10, threads=1),
        tiny=dict(workers=100, tasks=100)),
    Workload(
        name="batch-dc",
        why="synthetic 1000+1000 over 10 instances, D&C, 4 threads: "
            "pair-pool construction (index scan, exec fan-out) dominates",
        args=dict(clock="batch", algo="dc",
                  workers=1000, tasks=1000, horizon=10, threads=4),
        tiny=dict(workers=300, tasks=300)),
    Workload(
        name="stream-rush",
        why="rush-hour 4000+4000 over 15, 0.05-interval epochs, D&C, 1 "
            "thread: many small double-peaked epochs, per-epoch fixed costs",
        args=dict(clock="stream", algo="dc",
                  workers=4000, tasks=4000, horizon=15, interval=0.05,
                  threads=1),
        tiny=dict(workers=400, tasks=400)),
]

ALL_WORKLOADS = [w.name for w in WORKLOADS]

# Every run replays 16 inputs generated from its seed. Timings take each
# input's fastest replay (interference on a shared host only adds time) and
# average over the inputs; outputs average over the inputs. Replays are kept
# short (about 0.02 s on batch-greedy, 0.15 s on batch-dc, 0.25 s on
# stream-rush) so that a 30 s run gives each input many replays to take the
# fastest of.
END_TO_END = [
    Metric("setup_s", "s", "lower", bound=0.25,
           doc="generation plus simulator and assigner construction of one "
               "input; median of 30 set-ups of each input"),
    Metric("run_s", "s", "lower", bound=0.25,
           doc="wall time of one Simulator::Run / StreamingSimulator::Run"),
    Metric("cpu_s", "s", "lower", bound=0.25,
           doc="process CPU time (all threads) over one Run"),
    Metric("peak_rss_mb", "MB", "lower", bound=0.15,
           doc="peak resident set size during one Run, from a trimmed heap "
               "(an input's largest replay, median over the inputs)"),
    Metric("quality", "score", "higher", bound=0.1,
           doc="Eq. 1 total quality of the pairs assigned in one Run"),
    Metric("assigned", "count", "higher", bound=0.1,
           doc="task assignments made in one Run"),
    Metric("events_per_s", "1/s", "higher", bound=0.25,
           doc="arrival events (workers + tasks) ingested per wall second "
               "of Run"),
    Metric("epoch_p50_s", "s", "lower", bound=0.25,
           doc="median epoch latency (EpochRunner wall time, predict "
               "through assign) over every epoch of every input, each "
               "epoch at its fastest replay"),
    Metric("epoch_p95_s", "s", "lower", bound=0.25,
           doc="95th-percentile epoch latency over the same samples: 4816 "
               "on stream-rush (240 beyond it), 160 on the batch workloads "
               "(8 beyond it)"),
    Metric("expired_share", "fraction", "lower", bound=0.25,
           doc="tasks whose deadline passed unassigned / all tasks"),
]

_ALL = ALL_WORKLOADS
# From the traced replays. A time is a span's self time summed over a Run's
# epochs, at each input's fastest traced replay, averaged over the inputs;
# a count is per Run, averaged over the inputs.
PER_LAYER = [
    Metric("core.select.self_s", "s", "lower",
           doc="Assigner::Assign minus the pool build inside it: greedy or "
               "D&C selection, merge and emission",
           moves=[("run_s", "batch-greedy"), ("cpu_s", "batch-greedy")]),
    Metric("core.pool.build_s", "s", "lower",
           doc="BuildPairPool wall time inside Assign "
               "(PairPoolStats::build_seconds)",
           moves=[("cpu_s", "batch-dc"), ("epoch_p95_s", "stream-rush")]),
    Metric("core.pool.pairs", "count", "lower",
           doc="valid pairs built, summed over epochs",
           moves=[("cpu_s", "batch-dc"), ("epoch_p95_s", "stream-rush")]),
    Metric("core.pool.predicted_pairs", "count", "lower",
           doc="pairs involving a predicted entity, summed over epochs",
           moves=[("cpu_s", "batch-dc"), ("epoch_p95_s", "stream-rush")]),
    Metric("core.pool.bytes", "bytes", "lower",
           doc="largest epoch's pool columns + CSR adjacency",
           moves=[("peak_rss_mb", "batch-dc")]),
    Metric("core.pool.lazy_skipped_fraction", "fraction", "higher",
           doc="predicted pairs whose Case 1-3 statistics were never "
               "materialized / predicted pairs",
           moves=[("cpu_s", "batch-dc")]),
    Metric("core.pool.used_fraction", "fraction", "higher",
           doc="assigned pairs / pool pairs: useful over attempted work",
           moves=[("cpu_s", "batch-dc")]),
    Metric("index.sync_s", "s", "lower",
           doc="TaskIndexCache::BeginInstance over each epoch's tasks",
           moves=[("epoch_p50_s", "stream-rush")]),
    Metric("index.inserted", "count", "lower",
           doc="task index entries inserted by the syncs",
           moves=[("epoch_p50_s", "stream-rush")]),
    Metric("index.erased", "count", "lower",
           doc="task index entries erased by the syncs",
           moves=[("epoch_p50_s", "stream-rush")]),
    Metric("prediction.step_s", "s", "lower",
           doc="GridPredictor::Observe + PredictNext over each epoch's "
               "arrivals",
           moves=[("epoch_p50_s", "stream-rush")]),
    Metric("prediction.predicted_entities", "count", "lower",
           doc="predicted workers + tasks handed to the assigner",
           moves=[(m, w) for w in _ALL for m in ("quality", "assigned")]),
    Metric("prediction.cell_error", "fraction", "lower",
           doc="Fig. 10 per-cell relative error of the previous epoch's "
               "prediction, mean over epochs and entity kinds",
           moves=[(m, w) for w in _ALL for m in ("quality", "assigned")]),
    Metric("model.validate_s", "s", "lower",
           doc="ValidateAssignment of every epoch's result",
           moves=[("run_s", w) for w in _ALL]),
    Metric("exec.cpu_per_wall", "ratio", "higher",
           doc="process CPU seconds / wall seconds over the untraced Runs",
           moves=[("run_s", "batch-dc")]),
    Metric("stream.backlog_mean", "count", "lower",
           doc="pending tasks handed to an epoch, mean over epochs",
           moves=[("expired_share", "stream-rush")]),
    Metric("stream.backlog_max", "count", "lower",
           doc="pending tasks handed to an epoch, maximum",
           moves=[("expired_share", "stream-rush")]),
    Metric("stream.coverable_share", "fraction", "higher",
           doc="pending tasks some current worker can reach / pending "
               "tasks (WorkerIndexCache + QueryReachable)",
           moves=[("expired_share", "stream-rush")]),
    Metric("stream.queue_wait_p50", "instances", "lower",
           doc="median arrival -> assignment wait (continuous clock on "
               "stream-rush, whole instances on batch workloads)",
           moves=[("expired_share", "stream-rush")]),
    Metric("stream.queue_wait_p99", "instances", "lower",
           doc="99th-percentile arrival -> assignment wait",
           moves=[("expired_share", "stream-rush")]),
    Metric("sim.self_s", "s", "lower",
           doc="Run time outside every probed layer call: the engines' "
               "own prediction, indexing, ingest, validation and apply",
           moves=[("run_s", w) for w in _ALL]),
    Metric("workload.generate_s", "s", "lower",
           doc="GenerateSynthetic / GenerateScenario, median of the "
               "set-ups",
           moves=[("setup_s", w) for w in _ALL]),
    Metric("bench.trace_overhead", "ratio", "lower",
           doc="traced Run time / untraced Run time - 1 (the traced run "
               "replays prediction, indexing, coverage and validation)"),
]
