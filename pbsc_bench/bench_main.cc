// One measured run of a PB-SC workload: generate kInputs independent inputs
// of the workload from a seed, replay them in turn as often as the time
// budget allows, and print the raw per-replay measurements as one JSON
// object on stdout. The batch clock replays GenerateSynthetic arrivals
// through Simulator::Run; the stream clock replays a rush-hour
// GenerateScenario through StreamingSimulator::Run at fixed-interval
// epochs. run.py builds this binary, turns the raw measurements into the
// benchmark's metrics and checks them; see README.md in this directory.
//
//   pbsc_bench --clock batch|stream --algo greedy|dc --workers N --tasks N
//              --horizon H [--interval DT] --threads T --seed S --seconds SEC
//              [--setups S] [--trace 0|1 --spans-out FILE]

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/assigner.h"
#include "exec/parallel_runner.h"
#include "layer_probe.h"
#include "obs/run_report.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "span_recorder.h"
#include "stream/streaming_simulator.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace {

using namespace mqa;
using pbsc::LayerProbe;
using pbsc::SpanRecorder;

struct Args {
  std::string clock = "batch";
  std::string algo = "greedy";
  int64_t workers = 0;
  int64_t tasks = 0;
  int horizon = 10;
  double interval = 0.05;
  int threads = 1;
  uint64_t seed = 1;
  double seconds = 10.0;
  int setups = 5;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  for (const auto& [key, value] : kv) {
    const char* v = value.c_str();
    if (key == "clock") a->clock = value;
    else if (key == "algo") a->algo = value;
    else if (key == "workers") a->workers = std::atoll(v);
    else if (key == "tasks") a->tasks = std::atoll(v);
    else if (key == "horizon") a->horizon = std::atoi(v);
    else if (key == "interval") a->interval = std::atof(v);
    else if (key == "threads") a->threads = std::atoi(v);
    else if (key == "seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (key == "seconds") a->seconds = std::atof(v);
    else if (key == "setups") a->setups = std::atoi(v);
    else if (key == "trace") a->trace = std::atoi(v) != 0;
    else if (key == "spans-out") a->spans_out = value;
    else return false;
  }
  return (a->clock == "batch" || a->clock == "stream") &&
         (a->algo == "greedy" || a->algo == "dc") && a->workers > 0 &&
         a->tasks > 0 && a->horizon > 0 && a->interval > 0.0 &&
         a->threads >= 1 && a->setups >= 1 && a->seconds > 0.0;
}

/// Independent inputs per run: their mean shrinks the seed-to-seed spread
/// of the outputs, and cycling through them spreads each input's replays
/// over the run.
constexpr int kInputs = 16;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Returns freed heap memory to the kernel and resets the process's
/// peak-RSS mark (Linux clear_refs "5"), so the next PeakRssKb() covers only
/// what ran in between, from the same starting heap whatever ran before.
/// Where the reset is not permitted the mark keeps the process-wide peak.
void ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// VmHWM of /proc/self/status in KiB (0 when unreadable).
long PeakRssKb() {
  long kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// mqa_cli's defaults: B=75, C=10, gamma=20, w=3, q in [1,2], no rejoins.
SimulatorConfig MakeSimConfig(const Args& a, uint64_t seed) {
  SimulatorConfig config;
  config.budget = 75.0;
  config.unit_price = 10.0;
  config.use_prediction = true;
  config.prediction.gamma = 20;
  config.prediction.window = 3;
  config.prediction.seed = seed;
  config.workers_rejoin = false;
  config.validate_assignments = true;
  config.num_threads = a.threads;
  return config;
}

/// Everything a run needs before the simulated clock starts.
struct Inputs {
  uint64_t seed = 0;
  std::unique_ptr<RangeQualityModel> quality;
  ArrivalStream batch;  // batch clock
  EventQueue events;    // stream clock
  int64_t arrivals = 0;
  int64_t tasks = 0;
  std::unique_ptr<Assigner> assigner;
  std::unique_ptr<Simulator> batch_sim;
  std::unique_ptr<StreamingSimulator> stream_sim;
};

/// Input `k` of the run's seed. Generation (with the public generators, on
/// `threads` threads) plus simulator and assigner construction: the work
/// setup_s times. The generation part alone is stored in `generate_s`.
Inputs Setup(const Args& a, int k, double* generate_s) {
  Inputs in;
  in.seed = a.seed * 1000 + static_cast<uint64_t>(k);
  in.quality = std::make_unique<RangeQualityModel>(1.0, 2.0, in.seed);
  const double gen_start = Now();
  {
    ParallelRunner gen(a.threads);
    if (a.clock == "batch") {
      SyntheticConfig w;  // Gaussian workers, Zipf tasks, v/e Table IV
      w.num_workers = a.workers;
      w.num_tasks = a.tasks;
      w.num_instances = a.horizon;
      w.seed = in.seed;
      in.batch = GenerateSynthetic(w, gen.pool());
    } else {
      ScenarioConfig w;  // same distributions, rush-hour arrival times
      w.kind = ScenarioKind::kRushHour;
      w.num_workers = a.workers;
      w.num_tasks = a.tasks;
      w.horizon = static_cast<double>(a.horizon);
      w.seed = in.seed;
      in.events = EventQueue::FromScenario(GenerateScenario(w, gen.pool()));
    }
  }
  *generate_s = Now() - gen_start;
  in.arrivals = a.workers + a.tasks;
  in.tasks = a.tasks;

  AssignerOptions options;
  options.seed = in.seed;
  in.assigner = CreateAssigner(
      a.algo == "dc" ? AssignerKind::kDivideConquer : AssignerKind::kGreedy,
      options);
  const SimulatorConfig config = MakeSimConfig(a, in.seed);
  if (a.clock == "batch") {
    in.batch_sim = std::make_unique<Simulator>(config, in.quality.get());
  } else {
    StreamingConfig sconfig;
    sconfig.sim = config;
    sconfig.sim.maintain_worker_index = true;
    sconfig.horizon = static_cast<double>(a.horizon);
    sconfig.policy.kind = EpochPolicyKind::kFixedInterval;
    sconfig.policy.interval = a.interval;
    in.stream_sim =
        std::make_unique<StreamingSimulator>(sconfig, in.quality.get());
  }
  return in;
}

/// One replay of the workload.
struct Rep {
  int input = 0;
  bool traced = false;
  std::string error;  // empty when Run succeeded
  double run_s = 0.0;
  double cpu_s = 0.0;
  long peak_rss_kb = 0;  // peak resident set size during this replay
  std::vector<double> epoch_s;
  std::vector<uint64_t> checksums;
  double quality = 0.0;
  int64_t assigned = 0;
  int64_t expired = 0;
  int64_t pool_pairs = 0;
  int64_t pool_predicted_pairs = 0;
  int64_t pool_max_bytes = 0;
  double lazy_skipped_pairs = 0.0;
  int64_t predicted_entities = 0;
  double cell_error = 0.0;
  double queue_wait_p50 = -1.0;
  double queue_wait_p99 = -1.0;
  pbsc::ProbeCounters probe;
};

void Summarize(const std::vector<const InstanceMetrics*>& rows, Rep* rep) {
  double error_sum = 0.0;
  int64_t error_epochs = 0;
  for (const InstanceMetrics* m : rows) {
    rep->epoch_s.push_back(m->cpu_seconds);
    rep->checksums.push_back(m->assignment_checksum);
    rep->quality += m->quality;
    rep->assigned += m->assigned;
    rep->pool_pairs += m->pool_pairs;
    rep->pool_predicted_pairs += m->pool_predicted_pairs;
    rep->pool_max_bytes = std::max(rep->pool_max_bytes, m->pool_bytes);
    rep->lazy_skipped_pairs += m->pool_lazy_skipped_fraction *
                               static_cast<double>(m->pool_predicted_pairs);
    rep->predicted_entities += m->predicted_workers + m->predicted_tasks;
    if (m->worker_prediction_error >= 0.0 &&
        m->task_prediction_error >= 0.0) {
      error_sum +=
          0.5 * (m->worker_prediction_error + m->task_prediction_error);
      ++error_epochs;
    }
  }
  rep->cell_error = error_epochs > 0 ? error_sum / error_epochs : 0.0;
}

Rep RunOnce(Inputs& in, int input, const Args& a, SpanRecorder* spans) {
  Rep rep;
  rep.input = input;
  rep.traced = spans != nullptr;
  std::unique_ptr<LayerProbe> probe;
  Assigner* assigner = in.assigner.get();
  if (spans != nullptr) {
    probe = std::make_unique<LayerProbe>(assigner,
                                         MakeSimConfig(a, in.seed).prediction,
                                         spans, a.clock == "batch");
    assigner = probe.get();
  }
  EventQueue events = in.events;  // Run consumes its queue; copy untimed
  ResetPeakRss();

  int run_span = spans != nullptr ? spans->Begin("sim.run") : -1;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now();
  std::vector<const InstanceMetrics*> rows;
  Result<SimulationSummary> batch = Status::Internal("not run");
  Result<StreamSummary> stream = Status::Internal("not run");
  if (in.batch_sim) {
    batch = in.batch_sim->Run(in.batch, assigner);
  } else {
    stream = in.stream_sim->Run(std::move(events), assigner);
  }
  rep.run_s = Now() - t0;
  rep.cpu_s = ProcessCpuSeconds() - cpu0;
  rep.peak_rss_kb = PeakRssKb();
  if (spans != nullptr) spans->End(run_span);

  if (in.batch_sim) {
    if (!batch.ok()) {
      rep.error = batch.status().ToString();
      return rep;
    }
    const SimulationSummary& s = batch.value();
    for (const InstanceMetrics& m : s.per_instance) rows.push_back(&m);
    Summarize(rows, &rep);
    // Batch tasks leave unassigned only by expiry, except those still
    // pending when the last instance ends.
    const InstanceMetrics& last = s.per_instance.back();
    rep.expired =
        in.tasks - rep.assigned - (last.tasks_available - last.assigned);
  } else {
    if (!stream.ok()) {
      rep.error = stream.status().ToString();
      return rep;
    }
    const StreamSummary& s = stream.value();
    for (const EpochStreamMetrics& e : s.per_epoch) {
      rows.push_back(&e.instance);
    }
    Summarize(rows, &rep);
    rep.expired = s.total_expired;
    rep.queue_wait_p50 = s.p50_queue_wait;
    rep.queue_wait_p99 = s.p99_queue_wait;
  }
  if (probe) {
    rep.probe = probe->counters();
    if (a.clock == "batch") {
      rep.queue_wait_p50 = Percentile(rep.probe.batch_waits, 50.0);
      rep.queue_wait_p99 = Percentile(rep.probe.batch_waits, 99.0);
    }
  }
  return rep;
}

/// `text` as a JSON string literal.
std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintNumberList(const std::vector<double>& values) {
  std::printf("[");
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.9g", i ? "," : "", values[i]);
  }
  std::printf("]");
}

void PrintRep(const Rep& r) {
  std::printf("{\"input\":%d,\"traced\":%s,\"error\":%s,\"run_s\":%.9g,"
              "\"cpu_s\":%.9g,\"peak_rss_kb\":%ld,",
              r.input, r.traced ? "true" : "false",
              JsonString(r.error).c_str(), r.run_s, r.cpu_s, r.peak_rss_kb);
  std::printf("\"epoch_s\":");
  PrintNumberList(r.epoch_s);
  std::printf(",\"checksums\":[");
  for (size_t i = 0; i < r.checksums.size(); ++i) {
    std::printf("%s\"%016" PRIx64 "\"", i ? "," : "", r.checksums[i]);
  }
  std::printf("],\"quality\":\"%.17g\",\"assigned\":%" PRId64
              ",\"expired\":%" PRId64 ",\"pool_pairs\":%" PRId64
              ",\"pool_predicted_pairs\":%" PRId64
              ",\"pool_max_bytes\":%" PRId64 ",\"lazy_skipped_pairs\":%.17g"
              ",\"predicted_entities\":%" PRId64 ",\"cell_error\":%.17g"
              ",\"queue_wait_p50\":%.17g,\"queue_wait_p99\":%.17g",
              r.quality, r.assigned, r.expired, r.pool_pairs,
              r.pool_predicted_pairs, r.pool_max_bytes, r.lazy_skipped_pairs,
              r.predicted_entities, r.cell_error, r.queue_wait_p50,
              r.queue_wait_p99);
  const pbsc::ProbeCounters& p = r.probe;
  std::printf(",\"probe\":{\"index_inserted\":%" PRId64
              ",\"index_erased\":%" PRId64 ",\"backlog_sum\":%" PRId64
              ",\"backlog_max\":%" PRId64 ",\"coverable_sum\":%" PRId64
              ",\"epochs\":%" PRId64 "}}",
              p.index_inserted, p.index_erased, p.backlog_sum, p.backlog_max,
              p.coverable_sum, p.epochs);
}

bool WriteSpans(const SpanRecorder& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin =
      spans.spans().empty() ? 0 : spans.spans().front().start_ns;
  std::fprintf(f, "[");
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const SpanRecorder::Span& s = spans.spans()[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%d,\"rep\":%d}",
                 i ? "," : "", s.name.c_str(), s.start_ns - origin,
                 s.end_ns - origin, s.parent, s.rep);
  }
  std::fprintf(f, "\n]\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a) || (a.trace && a.spans_out.empty())) {
    std::fprintf(stderr, "pbsc_bench: bad arguments (see the header of "
                         "bench_main.cc)\n");
    return 2;
  }

  // Set every input up `setups` times; the last set-up is replayed.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<Inputs> inputs(static_cast<size_t>(kInputs));
  for (int round = 0; round < a.setups; ++round) {
    for (int k = 0; k < kInputs; ++k) {
      Inputs& in = inputs[static_cast<size_t>(k)];
      in = Inputs{};  // release the previous set-up before timing a new one
      double gen = 0.0;
      const double t0 = Now();
      in = Setup(a, k, &gen);
      setup_s.push_back(Now() - t0);
      generate_s.push_back(gen);
    }
  }

  // Closed loop: the next replay starts when the previous one returns.
  // A cycle replays every input once; traced runs alternate untraced and
  // traced cycles, so each input yields both and their checksums compare.
  // Untraced runs make at least two cycles, so every input repeats.
  SpanRecorder spans;
  std::vector<Rep> reps;
  const double start = Now();
  double longest_cycle = 0.0;
  for (int cycle = 0;; ++cycle) {
    const bool traced = a.trace && cycle % 2 == 1;
    const double t0 = Now();
    for (int k = 0; k < kInputs; ++k) {
      spans.set_rep(static_cast<int>(reps.size()));
      reps.push_back(RunOnce(inputs[static_cast<size_t>(k)], k, a,
                             traced ? &spans : nullptr));
      // The simulators append every epoch to the process-wide run report;
      // dropping the rows keeps memory from growing with the replay count.
      RunReport::Get().Reset();
      if (!reps.back().error.empty()) break;
    }
    longest_cycle = std::max(longest_cycle, Now() - t0);
    if (!reps.back().error.empty()) break;
    if (cycle >= 1 && Now() - start + longest_cycle > a.seconds) break;
  }

#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("{\"build_type\":\"%s\",\"optimized\":%s,\"threads\":%d,"
              "\"arrivals\":%" PRId64 ",\"tasks\":%" PRId64
              ",\"setup_s\":",
              PBSC_BUILD_TYPE, optimized ? "true" : "false", a.threads,
              inputs[0].arrivals, inputs[0].tasks);
  PrintNumberList(setup_s);
  std::printf(",\"generate_s\":");
  PrintNumberList(generate_s);
  std::printf(",\"reps\":[");
  for (size_t i = 0; i < reps.size(); ++i) {
    if (i) std::printf(",");
    PrintRep(reps[i]);
  }
  std::printf("]}\n");

  if (a.trace && !WriteSpans(spans, a.spans_out)) {
    std::fprintf(stderr, "pbsc_bench: cannot write %s\n", a.spans_out.c_str());
    return 1;
  }
  return 0;
}
