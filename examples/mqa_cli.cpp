// Command-line driver for the full MQA pipeline: pick a workload (batch
// generator or a streaming scenario), an algorithm and the paper's
// parameters from flags, run the batch simulator or the event-driven
// streaming engine, and print per-instance/per-epoch metrics (optionally
// as CSV for plotting).
//
// Examples:
//   mqa_cli --workload=checkin --algo=dc --budget=300 --instances=15
//   mqa_cli --workload=synthetic --algo=greedy --no-prediction --workers=2000 --tasks=2000 --csv
//   mqa_cli --scenario=bursty --stream --epoch-policy=backlog --backlog-threshold=200
//   mqa_cli --scenario=rush-hour --stream --epoch-policy=interval --epoch-interval=0.5

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "core/assigner.h"
#include "exec/parallel_runner.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "prediction/grid.h"
#include "quality/range_quality.h"
#include "sim/simulator.h"
#include "stream/streaming_simulator.h"
#include "trace/trace.h"
#include "workload/checkin.h"
#include "workload/scenario.h"
#include "workload/synthetic.h"

namespace {

using namespace mqa;

/// The most --threads accepts: every pool thread is started up front, so
/// an unbounded value would ask the OS for that many threads at once.
constexpr int kMaxThreads = 256;

struct CliOptions {
  std::string workload = "synthetic";  // synthetic | checkin
  std::string scenario = "paper";      // paper | rush-hour | bursty | hotspot-drift
  std::string algo = "greedy";         // greedy | dc | random
  std::string epoch_policy = "instance";  // instance | interval | arrivals | backlog
  std::string worker_dist = "gaussian";
  std::string task_dist = "zipf";
  int64_t workers = 1250;
  int64_t tasks = 1250;
  int instances = 15;
  double budget = 75.0;
  double unit_price = 10.0;
  double q_lo = 1.0, q_hi = 2.0;
  double e_lo = 1.0, e_hi = 2.0;
  double v_lo = 0.2, v_hi = 0.3;
  int gamma = 20;
  int window = 3;
  double epoch_interval = 0.5;
  int64_t epoch_k = 256;
  int64_t backlog_threshold = 256;
  double max_interval = 4.0;
  bool stream = false;
  bool prediction = true;
  bool rejoin = false;
  bool csv = false;
  uint64_t seed = 42;
  int threads = 1;
  std::string record_trace;     // write the workload as mqa-trace-v1
  std::string replay_trace;     // replace generation with a loaded trace
  std::string trace_file;       // Chrome trace-event JSON (Perfetto)
  std::string run_report_file;  // unified run-report JSON artifact
};

/// Writes the requested run report and trace after the run. Returns the
/// run's exit code, or 1 if a requested export failed (a bad path must
/// not silently swallow the observability the user asked for).
int FinishObservability(const CliOptions& opt, int rc) {
  if (!opt.run_report_file.empty()) {
    const Status status =
        RunReport::Get().WriteJsonFile(opt.run_report_file);
    if (!status.ok()) {
      std::fprintf(stderr, "--run-report: %s\n", status.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!opt.trace_file.empty()) {
    const Status status = Tracer::Get().WriteJsonFile(opt.trace_file);
    if (!status.ok()) {
      std::fprintf(stderr, "--trace: %s\n", status.ToString().c_str());
      if (rc == 0) rc = 1;
    }
  }
  return rc;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

/// The sign a numeric flag's value must have; kPositive integers are >= 1.
enum class Domain { kNonNegative, kPositive };

/// Parses all of `s` as a finite number that fits T and lies in `domain`.
template <typename T>
bool ParseValue(const std::string& s, Domain domain, T* out) {
  const char* begin = s.c_str();
  char* end = nullptr;
  errno = 0;
  T v;
  if constexpr (std::is_integral_v<T>) {
    const long long n = std::strtoll(begin, &end, 10);
    if (errno == ERANGE || n < 0 ||
        static_cast<unsigned long long>(n) >
            static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
      return false;
    }
    v = static_cast<T>(n);
  } else {
    v = std::strtod(begin, &end);
    if (!std::isfinite(v) || v < 0) return false;
  }
  if (end == begin || *end != '\0') return false;
  if (domain == Domain::kPositive && v == 0) return false;
  *out = v;
  return true;
}

/// Matches `--name=V` for a numeric flag. A V that ParseValue rejects
/// ends the run here with exit status 2, like an unknown flag.
template <typename T>
bool ParseNumeric(const char* arg, const char* name, T* out,
                  Domain domain = Domain::kNonNegative) {
  std::string value;
  if (!ParseFlag(arg, name, &value)) return false;
  if (!ParseValue(value, domain, out)) {
    std::fprintf(stderr, "invalid value for %s: '%s' (expected a %s %s)\n",
                 name, value.c_str(),
                 domain == Domain::kPositive ? "positive" : "non-negative",
                 std::is_integral_v<T> ? "integer" : "number");
    std::exit(2);
  }
  return true;
}

void PrintUsage() {
  std::printf(
      "usage: mqa_cli [flags]\n"
      "  --workload=synthetic|checkin   --algo=greedy|dc|random\n"
      "  --scenario=paper|rush-hour|bursty|hotspot-drift (continuous-time\n"
      "      arrival scenarios; non-paper scenarios replace --workload)\n"
      "  --stream (run the event-driven streaming engine)\n"
      "  --epoch-policy=instance|interval|arrivals|backlog\n"
      "  --epoch-interval=dt --epoch-k=K --backlog-threshold=B\n"
      "  --max-interval=dt (backlog policy failsafe)\n"
      "  --workers=N --tasks=N --instances=R --budget=B --unit-price=C\n"
      "      (R at most %d)\n"
      "  --q-lo --q-hi --e-lo --e-hi --v-lo --v-hi (paper ranges)\n"
      "  --worker-dist=gaussian|uniform|zipf --task-dist=...\n"
      "  --gamma=G --window=W --seed=S --threads=T (G at most %d, T at\n"
      "      most %d)\n"
      "  --no-prediction --rejoin --csv\n"
      "  --record-trace=FILE (write the workload as an mqa-trace-v1 CSV\n"
      "      trace before running)\n"
      "  --replay-trace=FILE (replace workload generation with a recorded\n"
      "      trace; replays byte-identically through batch and stream —\n"
      "      see src/trace/README.md and docs/TESTING.md)\n"
      "  --trace=FILE (Chrome trace-event JSON of the epoch lifecycle,\n"
      "      loadable in Perfetto; see docs/OBSERVABILITY.md)\n"
      "  --run-report=FILE (the post-mortem artifact: config + git/machine\n"
      "      provenance + per-epoch rows with phase times, pool, greedy\n"
      "      and process numbers)\n",
      kMaxInstances, Grid::kMaxGamma, kMaxThreads);
}

/// Maps an enumerated flag's value to its choice; any other value ends
/// the run with exit status 2, like an unknown flag.
template <typename T>
T ParseChoice(const char* flag, const std::string& value,
              std::initializer_list<std::pair<const char*, T>> choices) {
  std::string expected;
  size_t k = 0;
  for (const auto& [name, choice] : choices) {
    if (value == name) return choice;
    if (k > 0) expected += k + 1 < choices.size() ? ", " : " or ";
    expected += name;
    ++k;
  }
  std::fprintf(stderr, "invalid value for %s: '%s' (expected %s)\n", flag,
               value.c_str(), expected.c_str());
  std::exit(2);
}

int RunStreaming(const CliOptions& opt, const StreamingConfig& config,
                 EventQueue queue, Assigner* assigner,
                 const RangeQualityModel& quality) {
  StreamingSimulator sim(config, &quality);
  const auto summary = sim.Run(std::move(queue), assigner);
  if (!summary.ok()) {
    std::fprintf(stderr, "streaming simulation failed: %s\n",
                 summary.status().ToString().c_str());
    return 1;
  }
  const StreamSummary& s = summary.value();

  if (opt.csv) {
    std::printf(
        "epoch,time,ingested_workers,ingested_tasks,backlog_before,"
        "backlog_after,coverable,expired,assigned,quality,cost,"
        "latency_seconds,mean_queue_wait,fire_reason\n");
    for (const EpochStreamMetrics& e : s.per_epoch) {
      std::printf(
          "%lld,%.4f,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%.6f,%.6f,%.6f,"
          "%.4f,%s\n",
          static_cast<long long>(e.instance.instance), e.epoch_time,
          static_cast<long long>(e.ingested_workers),
          static_cast<long long>(e.ingested_tasks),
          static_cast<long long>(e.backlog_before),
          static_cast<long long>(e.backlog_after),
          static_cast<long long>(e.coverable_backlog),
          static_cast<long long>(e.expired),
          static_cast<long long>(e.instance.assigned), e.instance.quality,
          e.instance.cost, e.instance.cpu_seconds, e.mean_queue_wait,
          EpochFireReasonToString(e.fire_reason));
    }
    return 0;
  }

  std::printf("%5s %8s %7s/%-6s %8s %8s %6s %8s %9s %8s %s\n", "epoch",
              "time", "in.w", "in.t", "backlog", "covered", "expir",
              "assigned", "latency", "wait", "reason");
  for (const EpochStreamMetrics& e : s.per_epoch) {
    std::printf(
        "%5lld %8.2f %7lld/%-6lld %8lld %8lld %6lld %8lld %9.4f %8.2f %s\n",
        static_cast<long long>(e.instance.instance), e.epoch_time,
        static_cast<long long>(e.ingested_workers),
        static_cast<long long>(e.ingested_tasks),
        static_cast<long long>(e.backlog_before),
        static_cast<long long>(e.coverable_backlog),
        static_cast<long long>(e.expired),
        static_cast<long long>(e.instance.assigned), e.instance.cpu_seconds,
        e.mean_queue_wait, EpochFireReasonToString(e.fire_reason));
  }
  std::printf(
      "\n%zu epochs | total quality %.1f | total cost %.1f | assigned %lld | "
      "expired %lld\n",
      s.per_epoch.size(), s.total_quality, s.total_cost,
      static_cast<long long>(s.total_assigned),
      static_cast<long long>(s.total_expired));
  std::printf(
      "epoch latency p50/p99/max: %.4f/%.4f/%.4f s | queue wait p50/p99: "
      "%.2f/%.2f | backlog mean/max: %.1f/%lld\n",
      s.p50_epoch_latency, s.p99_epoch_latency, s.max_epoch_latency,
      s.p50_queue_wait, s.p99_queue_wait, s.mean_backlog,
      static_cast<long long>(s.max_backlog));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string sval;
    if (ParseFlag(a, "--workload", &opt.workload) ||
        ParseFlag(a, "--scenario", &opt.scenario) ||
        ParseFlag(a, "--algo", &opt.algo) ||
        ParseFlag(a, "--epoch-policy", &opt.epoch_policy) ||
        ParseFlag(a, "--worker-dist", &opt.worker_dist) ||
        ParseFlag(a, "--task-dist", &opt.task_dist) ||
        ParseFlag(a, "--record-trace", &opt.record_trace) ||
        ParseFlag(a, "--replay-trace", &opt.replay_trace) ||
        ParseFlag(a, "--trace", &opt.trace_file) ||
        ParseFlag(a, "--run-report", &opt.run_report_file) ||
        ParseNumeric(a, "--workers", &opt.workers) ||
        ParseNumeric(a, "--tasks", &opt.tasks) ||
        ParseNumeric(a, "--instances", &opt.instances, Domain::kPositive) ||
        ParseNumeric(a, "--budget", &opt.budget) ||
        ParseNumeric(a, "--unit-price", &opt.unit_price) ||
        ParseNumeric(a, "--q-lo", &opt.q_lo) ||
        ParseNumeric(a, "--q-hi", &opt.q_hi) ||
        ParseNumeric(a, "--e-lo", &opt.e_lo) ||
        ParseNumeric(a, "--e-hi", &opt.e_hi) ||
        ParseNumeric(a, "--v-lo", &opt.v_lo, Domain::kPositive) ||
        ParseNumeric(a, "--v-hi", &opt.v_hi, Domain::kPositive) ||
        ParseNumeric(a, "--gamma", &opt.gamma, Domain::kPositive) ||
        ParseNumeric(a, "--window", &opt.window, Domain::kPositive) ||
        ParseNumeric(a, "--epoch-interval", &opt.epoch_interval,
                     Domain::kPositive) ||
        ParseNumeric(a, "--epoch-k", &opt.epoch_k, Domain::kPositive) ||
        ParseNumeric(a, "--backlog-threshold", &opt.backlog_threshold,
                     Domain::kPositive) ||
        ParseNumeric(a, "--max-interval", &opt.max_interval,
                     Domain::kPositive) ||
        ParseNumeric(a, "--seed", &opt.seed) ||
        ParseNumeric(a, "--threads", &opt.threads, Domain::kPositive)) {
      continue;
    }
    if (std::strcmp(a, "--no-prediction") == 0) {
      opt.prediction = false;
    } else if (std::strcmp(a, "--rejoin") == 0) {
      opt.rejoin = true;
    } else if (std::strcmp(a, "--stream") == 0) {
      opt.stream = true;
    } else if (std::strcmp(a, "--csv") == 0) {
      opt.csv = true;
    } else if (std::strcmp(a, "--help") == 0) {
      PrintUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      PrintUsage();
      return 2;
    }
  }
  const struct {
    const char* flags;
    double lo, hi;
  } ranges[] = {{"--q-lo/--q-hi", opt.q_lo, opt.q_hi},
                {"--e-lo/--e-hi", opt.e_lo, opt.e_hi},
                {"--v-lo/--v-hi", opt.v_lo, opt.v_hi}};
  for (const auto& r : ranges) {
    if (r.lo > r.hi) {
      std::fprintf(stderr, "invalid range %s: %g > %g\n", r.flags, r.lo, r.hi);
      return 2;
    }
  }
  if (opt.instances > kMaxInstances) {
    std::fprintf(stderr, "invalid value for --instances: %d (at most %d)\n",
                 opt.instances, kMaxInstances);
    return 2;
  }
  if (opt.threads > kMaxThreads) {
    std::fprintf(stderr, "invalid value for --threads: %d (at most %d)\n",
                 opt.threads, kMaxThreads);
    return 2;
  }
  if (opt.gamma > Grid::kMaxGamma) {
    std::fprintf(stderr, "invalid value for --gamma: %d (at most %d)\n",
                 opt.gamma, Grid::kMaxGamma);
    return 2;
  }
  // Every enumerated flag is checked before any work (or file) is done.
  const bool checkin = ParseChoice<bool>(
      "--workload", opt.workload, {{"synthetic", false}, {"checkin", true}});
  const ScenarioKind scenario_kind = ParseChoice<ScenarioKind>(
      "--scenario", opt.scenario,
      {{"paper", ScenarioKind::kPaper},
       {"rush-hour", ScenarioKind::kRushHour},
       {"bursty", ScenarioKind::kBursty},
       {"hotspot-drift", ScenarioKind::kHotspotDrift}});
  const AssignerKind kind = ParseChoice<AssignerKind>(
      "--algo", opt.algo,
      {{"greedy", AssignerKind::kGreedy},
       {"dc", AssignerKind::kDivideConquer},
       {"random", AssignerKind::kRandom}});
  const EpochPolicyKind policy_kind = ParseChoice<EpochPolicyKind>(
      "--epoch-policy", opt.epoch_policy,
      {{"instance", EpochPolicyKind::kPerInstance},
       {"interval", EpochPolicyKind::kFixedInterval},
       {"arrivals", EpochPolicyKind::kEveryKArrivals},
       {"backlog", EpochPolicyKind::kAdaptiveBacklog}});
  const std::initializer_list<std::pair<const char*, SpatialDistribution>>
      dists = {{"gaussian", SpatialDistribution::kGaussian},
               {"uniform", SpatialDistribution::kUniform},
               {"zipf", SpatialDistribution::kZipf}};
  const SpatialDistribution worker_dist =
      ParseChoice("--worker-dist", opt.worker_dist, dists);
  const SpatialDistribution task_dist =
      ParseChoice("--task-dist", opt.task_dist, dists);

  // Tracing must be live before the simulators run; the trusted
  // contract is that enabling it never changes assignments or scores
  // (tests/obs_property_test.cc).
  if (!opt.trace_file.empty()) {
    Tracer::Get().Enable();
    Tracer::Get().SetCurrentThreadName("main");
  }

  // Stamp the run report's config section (cheap; the report is only
  // written when --run-report names a file).
  {
    RunReport& report = RunReport::Get();
    report.SetConfig("binary", "mqa_cli");
    report.SetConfig("workload", opt.workload);
    report.SetConfig("scenario", opt.scenario);
    report.SetConfig("algo", opt.algo);
    report.SetConfig("epoch_policy", opt.epoch_policy);
    report.SetConfig("workers", opt.workers);
    report.SetConfig("tasks", opt.tasks);
    report.SetConfig("instances", static_cast<int64_t>(opt.instances));
    report.SetConfig("budget", opt.budget);
    report.SetConfig("unit_price", opt.unit_price);
    report.SetConfig("gamma", static_cast<int64_t>(opt.gamma));
    report.SetConfig("window", static_cast<int64_t>(opt.window));
    report.SetConfig("stream", opt.stream);
    report.SetConfig("prediction", opt.prediction);
    report.SetConfig("rejoin", opt.rejoin);
    report.SetConfig("seed", static_cast<int64_t>(opt.seed));
    report.SetConfig("threads", static_cast<int64_t>(opt.threads));
  }

  const bool use_scenario = scenario_kind != ScenarioKind::kPaper;
  const bool replaying = !opt.replay_trace.empty();

  ScenarioStream scenario;
  ArrivalStream stream;
  // The streaming horizon (and, via ceil, the batch instance count). A
  // replayed trace overrides --instances with its recorded header.
  double horizon = static_cast<double>(opt.instances);
  if (replaying) {
    auto loaded = TraceReader::ReadFile(opt.replay_trace);
    if (!loaded.ok()) {
      std::fprintf(stderr, "--replay-trace: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    TraceData trace = std::move(loaded).value();
    horizon = trace.horizon;
    opt.instances = trace.num_instances();
    opt.workers = static_cast<int64_t>(trace.scenario.workers.size());
    opt.tasks = static_cast<int64_t>(trace.scenario.tasks.size());
    opt.workload = "trace";
    scenario = std::move(trace.scenario);
    if (!opt.stream) {
      stream = ScenarioToArrivalStream(scenario, opt.instances);
    }
  } else {
    // Scoped so the generation pool's threads are released before the
    // simulators spin up their own.
    ParallelRunner gen_runner(opt.threads);
    if (use_scenario) {
      ScenarioConfig w;
      w.kind = scenario_kind;
      w.num_workers = opt.workers;
      w.num_tasks = opt.tasks;
      w.horizon = static_cast<double>(opt.instances);
      w.worker_dist.kind = worker_dist;
      w.task_dist.kind = task_dist;
      w.velocity_lo = opt.v_lo;
      w.velocity_hi = opt.v_hi;
      w.deadline_lo = opt.e_lo;
      w.deadline_hi = opt.e_hi;
      w.seed = opt.seed;
      scenario = GenerateScenario(w, gen_runner.pool());
      if (!opt.stream) {
        stream = ScenarioToArrivalStream(scenario, opt.instances);
      }
    } else if (checkin) {
      CheckinConfig w;
      w.num_workers = opt.workers;
      w.num_tasks = opt.tasks;
      w.num_instances = opt.instances;
      w.velocity_lo = opt.v_lo;
      w.velocity_hi = opt.v_hi;
      w.deadline_lo = opt.e_lo;
      w.deadline_hi = opt.e_hi;
      w.seed = opt.seed;
      stream = GenerateCheckin(w);
    } else {
      SyntheticConfig w;
      w.num_workers = opt.workers;
      w.num_tasks = opt.tasks;
      w.num_instances = opt.instances;
      w.worker_dist.kind = worker_dist;
      w.task_dist.kind = task_dist;
      w.velocity_lo = opt.v_lo;
      w.velocity_hi = opt.v_hi;
      w.deadline_lo = opt.e_lo;
      w.deadline_hi = opt.e_hi;
      w.seed = opt.seed;
      stream = GenerateSynthetic(w, gen_runner.pool());
    }
  }

  // Traces hold timestamped entities: continuous times for scenarios and
  // replays, time = batch index for the per-instance generators (the
  // latter replay byte-identically through batch AND stream).
  if (!opt.record_trace.empty()) {
    TraceWriter writer(horizon);
    Status status = (use_scenario || replaying)
                        ? writer.AddScenario(scenario)
                        : writer.AddArrivalStream(stream);
    if (status.ok()) {
      status = writer.WriteFile(opt.record_trace);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "--record-trace: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  const RangeQualityModel quality(opt.q_lo, opt.q_hi, opt.seed);
  SimulatorConfig config;
  config.budget = opt.budget;
  config.unit_price = opt.unit_price;
  config.use_prediction = opt.prediction;
  config.prediction.gamma = opt.gamma;
  config.prediction.window = opt.window;
  config.prediction.seed = opt.seed;
  config.workers_rejoin = opt.rejoin;
  // Results are byte-identical for any thread count (see
  // src/exec/README.md); --threads only changes wall-clock time.
  config.num_threads = opt.threads;

  AssignerOptions assigner_options;
  assigner_options.seed = opt.seed;
  auto assigner = CreateAssigner(kind, assigner_options);

  if (opt.stream) {
    StreamingConfig sconfig;
    sconfig.sim = config;
    sconfig.horizon = horizon;
    sconfig.policy.kind = policy_kind;
    switch (policy_kind) {
      case EpochPolicyKind::kPerInstance:
        break;
      case EpochPolicyKind::kFixedInterval:
        sconfig.policy.interval = opt.epoch_interval;
        break;
      case EpochPolicyKind::kEveryKArrivals:
        sconfig.policy.k_arrivals = opt.epoch_k;
        break;
      case EpochPolicyKind::kAdaptiveBacklog:
        sconfig.policy.backlog_threshold = opt.backlog_threshold;
        sconfig.policy.max_interval = opt.max_interval;
        break;
    }
    EventQueue queue;
    if (use_scenario || replaying) {
      queue = EventQueue::FromScenario(scenario);
    } else {
      const auto valid = stream.Validate();
      if (!valid.ok()) {
        std::fprintf(stderr, "invalid stream: %s\n",
                     valid.ToString().c_str());
        return 1;
      }
      queue = EventQueue::FromArrivalStream(stream);
    }
    if (!opt.csv) {
      std::printf("%s streaming on %s (%lld workers, %lld tasks, horizon %d, "
                  "policy %s, B=%.0f, %s)\n\n",
                  assigner->name(),
                  use_scenario ? ScenarioKindToString(scenario_kind)
                               : opt.workload.c_str(),
                  static_cast<long long>(opt.workers),
                  static_cast<long long>(opt.tasks), opt.instances,
                  EpochPolicyKindToString(sconfig.policy.kind), opt.budget,
                  opt.prediction ? "WP" : "WoP");
    }
    return FinishObservability(
        opt,
        RunStreaming(opt, sconfig, std::move(queue), assigner.get(),
                     quality));
  }

  Simulator sim(config, &quality);
  const auto summary = sim.Run(stream, assigner.get());
  if (!summary.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 summary.status().ToString().c_str());
    return FinishObservability(opt, 1);
  }
  const SimulationSummary& s = summary.value();

  if (opt.csv) {
    std::printf(
        "instance,workers,tasks,predicted_workers,predicted_tasks,"
        "assigned,quality,cost,wall_seconds,worker_pred_err,"
        "task_pred_err\n");
    for (const InstanceMetrics& m : s.per_instance) {
      std::printf("%lld,%lld,%lld,%lld,%lld,%lld,%.6f,%.6f,%.6f,%.6f,%.6f\n",
                  static_cast<long long>(m.instance),
                  static_cast<long long>(m.workers_available),
                  static_cast<long long>(m.tasks_available),
                  static_cast<long long>(m.predicted_workers),
                  static_cast<long long>(m.predicted_tasks),
                  static_cast<long long>(m.assigned), m.quality, m.cost,
                  m.cpu_seconds, m.worker_prediction_error,
                  m.task_prediction_error);
    }
    return FinishObservability(opt, 0);
  }

  std::printf("%s on %s (%lld workers, %lld tasks, R=%d, B=%.0f, C=%.0f, "
              "%s)\n\n",
              assigner->name(),
              use_scenario ? ScenarioKindToString(scenario_kind)
                           : opt.workload.c_str(),
              static_cast<long long>(opt.workers),
              static_cast<long long>(opt.tasks), opt.instances, opt.budget,
              opt.unit_price, opt.prediction ? "WP" : "WoP");
  std::printf("%4s %8s %8s %9s %8s %10s %10s %9s\n", "p", "workers",
              "tasks", "pred.w/t", "assigned", "quality", "cost", "sec");
  for (const InstanceMetrics& m : s.per_instance) {
    std::printf("%4lld %8lld %8lld %4lld/%-4lld %8lld %10.1f %10.1f %9.4f\n",
                static_cast<long long>(m.instance),
                static_cast<long long>(m.workers_available),
                static_cast<long long>(m.tasks_available),
                static_cast<long long>(m.predicted_workers),
                static_cast<long long>(m.predicted_tasks),
                static_cast<long long>(m.assigned), m.quality, m.cost,
                m.cpu_seconds);
  }
  std::printf("\ntotal quality %.1f | total cost %.1f | assigned %lld | "
              "%.4f s/instance\n",
              s.total_quality, s.total_cost,
              static_cast<long long>(s.total_assigned), s.avg_cpu_seconds);
  if (config.use_prediction) {
    std::printf("prediction error: workers %.1f%%, tasks %.1f%%\n",
                100.0 * s.avg_worker_prediction_error,
                100.0 * s.avg_task_prediction_error);
  }
  return FinishObservability(opt, 0);
}
