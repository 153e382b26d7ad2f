#include "trace/trace.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace mqa {

namespace {

/// First bytes of every mqa-trace-v1 file.
constexpr char kCsvMagic[] = "# mqa-trace-v1";

/// %.17g prints the shortest decimal that strtod maps back to the exact
/// same IEEE-754 double, so CSV traces round-trip bit-identically.
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// A horizon is valid when positive, finite and at most
/// kMaxTraceHorizon. `where` prefixes the message.
Status CheckHorizon(const std::string& where, double horizon) {
  if (!std::isfinite(horizon) || horizon <= 0.0) {
    return Status::InvalidArgument(where +
                                   "horizon must be positive and finite");
  }
  if (horizon > kMaxTraceHorizon) {
    return Status::InvalidArgument(where + "horizon " + FormatDouble(horizon) +
                                   " exceeds 2^20 instances");
  }
  return Status::OK();
}

bool IsPointBox(const BBox& box) {
  return box.lo().x == box.hi().x && box.lo().y == box.hi().y;
}

/// One decoded trace row before it becomes a Worker/Task. Coordinates
/// are validated finite here, *before* any BBox is constructed.
struct RawRecord {
  bool is_worker = false;
  double time = 0.0;
  int64_t id = 0;
  double x = 0.0;
  double y = 0.0;
  double attr = 0.0;  // velocity (worker) or deadline (task)
};

/// Record validation + entity construction. `where` names the record
/// for error messages ("trace csv row 7").
Status AppendRecord(const RawRecord& r, double horizon, double* prev_time,
                    ScenarioStream* out, const std::string& where) {
  if (!std::isfinite(r.time) || r.time < 0.0) {
    return Status::InvalidArgument(where +
                                   ": time is negative or not finite");
  }
  if (r.time >= horizon) {
    return Status::InvalidArgument(where + ": time is at or past the horizon");
  }
  if (r.time < *prev_time) {
    return Status::InvalidArgument(
        where + ": out-of-order timestamp (times must be non-decreasing "
                "per entity kind)");
  }
  if (r.id < 0) {
    return Status::InvalidArgument(where + ": negative entity id");
  }
  if (!std::isfinite(r.x) || !std::isfinite(r.y)) {
    return Status::InvalidArgument(where + ": coordinates are not finite");
  }
  *prev_time = r.time;
  if (r.is_worker) {
    Worker w;
    w.id = r.id;
    w.location = BBox::FromPoint({r.x, r.y});
    w.velocity = r.attr;
    w.arrival = static_cast<Timestamp>(std::floor(r.time));
    const Status status = ValidateWorkerShape(w);
    if (!status.ok()) {
      return Status::InvalidArgument(where + ": " + status.message());
    }
    out->workers.push_back({r.time, std::move(w)});
  } else {
    Task t;
    t.id = r.id;
    t.location = BBox::FromPoint({r.x, r.y});
    t.deadline = r.attr;
    t.arrival = static_cast<Timestamp>(std::floor(r.time));
    const Status status = ValidateTaskShape(t);
    if (!status.ok()) {
      return Status::InvalidArgument(where + ": " + status.message());
    }
    out->tasks.push_back({r.time, std::move(t)});
  }
  return Status::OK();
}

bool ParseDoubleField(const std::string& field, double* out) {
  if (field.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(field.c_str(), &end);
  return end == field.c_str() + field.size();
}

bool ParseInt64Field(const std::string& field, int64_t* out) {
  if (field.empty()) return false;
  char* end = nullptr;
  *out = std::strtoll(field.c_str(), &end, 10);
  return end == field.c_str() + field.size();
}

}  // namespace

int TraceData::num_instances() const {
  const double n = std::ceil(horizon);
  if (n < 1.0) return 1;
  return static_cast<int>(n);
}

ArrivalStream TraceData::ToArrivalStream() const {
  return ScenarioToArrivalStream(scenario, num_instances());
}

TraceWriter::TraceWriter(double horizon) : horizon_(horizon) {}

Status TraceWriter::AddWorker(double time, const Worker& worker) {
  MQA_RETURN_NOT_OK(CheckHorizon("trace ", horizon_));
  if (!std::isfinite(time) || time < 0.0 || time >= horizon_) {
    return Status::InvalidArgument(
        "trace worker time must lie in [0, horizon)");
  }
  if (time < last_worker_time_) {
    return Status::InvalidArgument(
        "trace worker times must be non-decreasing");
  }
  if (worker.predicted) {
    return Status::InvalidArgument("cannot record a predicted worker");
  }
  if (worker.id < 0) {
    return Status::InvalidArgument("cannot record a negative worker id");
  }
  if (!IsPointBox(worker.location)) {
    return Status::InvalidArgument(
        "mqa-trace-v1 records point locations; worker location is a box");
  }
  MQA_RETURN_NOT_OK(ValidateWorkerShape(worker));
  last_worker_time_ = time;
  Worker copy = worker;
  copy.arrival = static_cast<Timestamp>(std::floor(time));
  scenario_.workers.push_back({time, std::move(copy)});
  return Status::OK();
}

Status TraceWriter::AddTask(double time, const Task& task) {
  MQA_RETURN_NOT_OK(CheckHorizon("trace ", horizon_));
  if (!std::isfinite(time) || time < 0.0 || time >= horizon_) {
    return Status::InvalidArgument("trace task time must lie in [0, horizon)");
  }
  if (time < last_task_time_) {
    return Status::InvalidArgument("trace task times must be non-decreasing");
  }
  if (task.predicted) {
    return Status::InvalidArgument("cannot record a predicted task");
  }
  if (task.id < 0) {
    return Status::InvalidArgument("cannot record a negative task id");
  }
  if (!IsPointBox(task.location)) {
    return Status::InvalidArgument(
        "mqa-trace-v1 records point locations; task location is a box");
  }
  MQA_RETURN_NOT_OK(ValidateTaskShape(task));
  last_task_time_ = time;
  Task copy = task;
  copy.arrival = static_cast<Timestamp>(std::floor(time));
  scenario_.tasks.push_back({time, std::move(copy)});
  return Status::OK();
}

Status TraceWriter::AddScenario(const ScenarioStream& scenario) {
  for (const TimedWorker& tw : scenario.workers) {
    MQA_RETURN_NOT_OK(AddWorker(tw.time, tw.worker));
  }
  for (const TimedTask& tt : scenario.tasks) {
    MQA_RETURN_NOT_OK(AddTask(tt.time, tt.task));
  }
  return Status::OK();
}

Status TraceWriter::AddArrivalStream(const ArrivalStream& stream) {
  MQA_RETURN_NOT_OK(stream.Validate());
  for (size_t p = 0; p < stream.workers.size(); ++p) {
    for (const Worker& w : stream.workers[p]) {
      MQA_RETURN_NOT_OK(AddWorker(static_cast<double>(p), w));
    }
  }
  for (size_t p = 0; p < stream.tasks.size(); ++p) {
    for (const Task& t : stream.tasks[p]) {
      MQA_RETURN_NOT_OK(AddTask(static_cast<double>(p), t));
    }
  }
  return Status::OK();
}

Result<std::string> TraceWriter::Serialize() const {
  MQA_RETURN_NOT_OK(CheckHorizon("trace ", horizon_));
  std::string out = kCsvMagic;
  out += " horizon=" + FormatDouble(horizon_) + "\n";
  out += "kind,time,id,x,y,attr\n";
  // Emit the two lists merged chronologically (workers first at equal
  // times) so the file reads as one arrival log; the reader splits the
  // rows back by kind, so the merge never changes replay order.
  size_t iw = 0;
  size_t it = 0;
  const auto emit_worker = [&out](const TimedWorker& tw) {
    out += "w," + FormatDouble(tw.time) + "," + std::to_string(tw.worker.id) +
           "," + FormatDouble(tw.worker.location.lo().x) + "," +
           FormatDouble(tw.worker.location.lo().y) + "," +
           FormatDouble(tw.worker.velocity) + "\n";
  };
  const auto emit_task = [&out](const TimedTask& tt) {
    out += "t," + FormatDouble(tt.time) + "," + std::to_string(tt.task.id) +
           "," + FormatDouble(tt.task.location.lo().x) + "," +
           FormatDouble(tt.task.location.lo().y) + "," +
           FormatDouble(tt.task.deadline) + "\n";
  };
  while (iw < scenario_.workers.size() || it < scenario_.tasks.size()) {
    const bool take_worker =
        it >= scenario_.tasks.size() ||
        (iw < scenario_.workers.size() &&
         scenario_.workers[iw].time <= scenario_.tasks[it].time);
    if (take_worker) {
      emit_worker(scenario_.workers[iw++]);
    } else {
      emit_task(scenario_.tasks[it++]);
    }
  }
  return out;
}

Status TraceWriter::WriteFile(const std::string& path) const {
  std::string bytes;
  MQA_ASSIGN_OR_RETURN(bytes, Serialize());
  std::ofstream out(path, std::ios::out | std::ios::trunc | std::ios::binary);
  if (!out.is_open()) {
    return Status::Internal("cannot open trace file: " + path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out.good()) {
    return Status::Internal("error writing trace file: " + path);
  }
  return Status::OK();
}

Result<TraceData> TraceReader::ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open trace file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Status::Internal("error reading trace file: " + path);
  }
  return Parse(buf.str());
}

Result<TraceData> TraceReader::Parse(const std::string& bytes) {
  std::istringstream in(bytes);
  std::string line;

  if (!std::getline(in, line) ||
      line.compare(0, std::strlen(kCsvMagic), kCsvMagic) != 0) {
    return Status::InvalidArgument(
        "not an mqa-trace-v1 file (expected a '# mqa-trace-v1' header)");
  }
  const size_t hpos = line.find("horizon=");
  double horizon = 0.0;
  if (hpos == std::string::npos ||
      !ParseDoubleField(line.substr(hpos + std::strlen("horizon=")),
                        &horizon)) {
    return Status::InvalidArgument("trace csv: header lacks horizon=<value>");
  }
  MQA_RETURN_NOT_OK(CheckHorizon("trace csv: ", horizon));

  if (!std::getline(in, line) || line != "kind,time,id,x,y,attr") {
    return Status::InvalidArgument(
        "trace csv: expected column header 'kind,time,id,x,y,attr'");
  }

  TraceData trace;
  trace.horizon = horizon;
  double prev_worker_time = 0.0;
  double prev_task_time = 0.0;
  size_t row = 2;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty() || line[0] == '#') continue;  // comments/provenance
    std::string where = "trace csv row " + std::to_string(row);

    std::vector<std::string> fields;
    size_t start = 0;
    for (size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ',') {
        fields.push_back(line.substr(start, i - start));
        start = i + 1;
      }
    }
    if (fields.size() != 6) {
      return Status::InvalidArgument(where + ": expected 6 fields, got " +
                                     std::to_string(fields.size()));
    }

    RawRecord r;
    if (fields[0] == "w") {
      r.is_worker = true;
    } else if (fields[0] == "t") {
      r.is_worker = false;
    } else {
      return Status::InvalidArgument(where + ": kind must be 'w' or 't'");
    }
    if (!ParseDoubleField(fields[1], &r.time) ||
        !ParseInt64Field(fields[2], &r.id) ||
        !ParseDoubleField(fields[3], &r.x) ||
        !ParseDoubleField(fields[4], &r.y) ||
        !ParseDoubleField(fields[5], &r.attr)) {
      return Status::InvalidArgument(where + ": malformed numeric field");
    }
    double* prev = r.is_worker ? &prev_worker_time : &prev_task_time;
    MQA_RETURN_NOT_OK(AppendRecord(r, horizon, prev, &trace.scenario, where));
  }
  return trace;
}

}  // namespace mqa
