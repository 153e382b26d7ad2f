#include "obs/run_report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#include <unistd.h>
#endif

#include "obs/trace.h"

namespace mqa {

namespace {

void WriteDouble(std::ostream& out, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    out << "null";
    return;
  }
  // Shortest round-trip form: a report value parses back to the exact
  // double the run computed.
  char buf[32];
  out.write(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr - buf);
}

std::string GitDescribe() {
#if defined(MQA_GIT_DESCRIBE)
  return MQA_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

/// First "model name" line of /proc/cpuinfo (Linux; empty elsewhere).
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      return line.substr(start);
    }
  }
  return "";
}

void WriteMachineObject(std::ostream& out) {
  std::string host, os, kernel, arch;
  long cpus = 0;
  long page_size = 0;
#if defined(__unix__) || defined(__APPLE__)
  char hostname[256] = {0};
  if (gethostname(hostname, sizeof(hostname) - 1) == 0) host = hostname;
  utsname uts;
  if (uname(&uts) == 0) {
    os = uts.sysname;
    kernel = uts.release;
    arch = uts.machine;
  }
  cpus = sysconf(_SC_NPROCESSORS_ONLN);
  page_size = sysconf(_SC_PAGESIZE);
#endif
  out << "{\"host\":";
  WriteJsonString(out, host);
  out << ",\"os\":";
  WriteJsonString(out, os);
  out << ",\"kernel\":";
  WriteJsonString(out, kernel);
  out << ",\"arch\":";
  WriteJsonString(out, arch);
  out << ",\"cpu_model\":";
  WriteJsonString(out, CpuModel());
  out << ",\"cpus\":" << (cpus > 0 ? cpus : 0)
      << ",\"page_size\":" << (page_size > 0 ? page_size : 0) << "}";
}

void WriteEpochRow(std::ostream& out, const InstanceMetrics& row) {
  char checksum[32];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(row.assignment_checksum));
  out << "{\"instance\":" << row.instance
      << ",\"workers_available\":" << row.workers_available
      << ",\"tasks_available\":" << row.tasks_available
      << ",\"predicted_workers\":" << row.predicted_workers
      << ",\"predicted_tasks\":" << row.predicted_tasks
      << ",\"assigned\":" << row.assigned << ",\"quality\":";
  WriteDouble(out, row.quality);
  out << ",\"cost\":";
  WriteDouble(out, row.cost);
  out << ",\"checksum\":\"" << checksum
      << "\",\"worker_prediction_error\":";
  WriteDouble(out, row.worker_prediction_error);
  out << ",\"task_prediction_error\":";
  WriteDouble(out, row.task_prediction_error);
  out << ",\"wall_seconds\":";
  WriteDouble(out, row.cpu_seconds);
  const std::pair<const char*, double> phases[] = {
      {"predict", row.predict_seconds},
      {"assemble", row.assemble_seconds},
      {"index", row.index_seconds},
      {"pool_build", row.pool_build_seconds},
      {"assign", row.assign_seconds},
      {"validate", row.validate_seconds},
      {"apply", row.apply_seconds},
      {"ingest", row.ingest_seconds}};
  char sep = '{';
  out << ",\"phase_seconds\":";
  for (const auto& [name, seconds] : phases) {
    out << sep << '"' << name << "\":";
    WriteDouble(out, seconds);
    sep = ',';
  }
  out << "},\"pool\":{\"pairs\":" << row.pool_pairs
      << ",\"predicted_pairs\":" << row.pool_predicted_pairs
      << ",\"bytes\":" << row.pool_bytes
      << "},\"greedy\":{\"iterations\":" << row.greedy_iterations
      << ",\"candidates\":" << row.greedy_candidates
      << ",\"max_candidates\":" << row.greedy_max_candidates
      << ",\"retired_pairs\":" << row.greedy_retired_pairs
      << "},\"process\":{\"rss_bytes\":" << row.rss_bytes
      << ",\"peak_rss_bytes\":" << row.peak_rss_bytes
      << ",\"cpu_seconds\":";
  WriteDouble(out, row.process_cpu_seconds);
  out << "}}";
}

}  // namespace

RunReport& RunReport::Get() {
  static RunReport* report = new RunReport();  // leaked on purpose
  return *report;
}

void RunReport::SetConfig(const std::string& key, const std::string& value) {
  std::ostringstream quoted;
  WriteJsonString(quoted, value);
  std::lock_guard<std::mutex> lock(mu_);
  config_[key] = quoted.str();
}

void RunReport::SetConfig(const std::string& key, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  config_[key] = std::to_string(value);
}

void RunReport::SetConfig(const std::string& key, double value) {
  std::ostringstream formatted;
  WriteDouble(formatted, value);
  std::lock_guard<std::mutex> lock(mu_);
  config_[key] = formatted.str();
}

void RunReport::SetConfig(const std::string& key, bool value) {
  std::lock_guard<std::mutex> lock(mu_);
  config_[key] = value ? "true" : "false";
}

void RunReport::RecordEpoch(const InstanceMetrics& row) {
  std::lock_guard<std::mutex> lock(mu_);
  epochs_.push_back(row);
}

void RunReport::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  config_.clear();
  epochs_.clear();
}

int64_t RunReport::epoch_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(epochs_.size());
}

std::string RunReport::ProvenanceFragment() {
  std::ostringstream out;
  out << "\"git\":{\"describe\":";
  WriteJsonString(out, GitDescribe());
  out << "},\"machine\":";
  WriteMachineObject(out);
  return out.str();
}

void RunReport::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\n  \"schema\": \"mqa-run-report-v8\",\n  \"git\": "
         "{\"describe\": ";
  WriteJsonString(out, GitDescribe());
  out << "},\n  \"machine\": ";
  WriteMachineObject(out);
  out << ",\n  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : config_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    WriteJsonString(out, key);
    out << ": " << value;
  }
  out << (first ? "}" : "\n  }") << ",\n  \"epochs\": [";
  first = true;
  for (const InstanceMetrics& row : epochs_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    WriteEpochRow(out, row);
  }
  out << (first ? "]" : "\n  ]") << "\n}\n";
}

std::string RunReport::ToJsonString() const {
  std::ostringstream out;
  WriteJson(out);
  return out.str();
}

Status RunReport::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    return Status::Internal("cannot open run-report file: " + path);
  }
  WriteJson(out);
  out.flush();
  if (!out.good()) {
    return Status::Internal("error writing run-report file: " + path);
  }
  return Status::OK();
}

void RunReport::InitFromEnv() {
  static bool initialized = false;
  if (initialized) return;
  initialized = true;
  const char* path = std::getenv("MQA_RUN_REPORT");
  if (path == nullptr || path[0] == '\0') return;
  static const std::string* report_path = new std::string(path);
  std::atexit([] {
    const Status status = Get().WriteJsonFile(*report_path);
    if (!status.ok()) {
      std::fprintf(stderr, "MQA_RUN_REPORT: %s\n", status.ToString().c_str());
    }
  });
}

}  // namespace mqa
