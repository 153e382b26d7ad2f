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

/// Leading bytes of the two encodings — the reader sniffs on these.
constexpr char kCsvMagic[] = "# mqa-trace-v1";
constexpr char kBinaryMagic[8] = {'M', 'Q', 'A', 'T', 'R', 'C', 'B', '1'};
constexpr uint32_t kBinaryVersion = 1;

/// Binary layout: 40-byte header (magic, version, reserved, worker and
/// task counts, horizon), then worker frames, then task frames. Every
/// frame is 5 little-endian doubles/int64s: time, id, x, y, attr (attr =
/// velocity for workers, deadline for tasks).
constexpr size_t kBinaryHeaderBytes = 40;
constexpr size_t kBinaryFrameBytes = 40;

#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "mqa-trace-v1 binary framing assumes a little-endian host");
#endif

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

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendU64(std::string* out, uint64_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendF64(std::string* out, double v) { AppendRaw(out, &v, sizeof(v)); }
void AppendI64(std::string* out, int64_t v) { AppendRaw(out, &v, sizeof(v)); }

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
int64_t ReadI64(const char* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
double ReadF64(const char* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
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

/// Shared record validation + entity construction for both decoders.
/// `where` names the record for error messages ("csv row 7").
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

Result<TraceData> ParseCsv(const std::string& bytes) {
  std::istringstream in(bytes);
  std::string line;

  if (!std::getline(in, line) ||
      line.compare(0, std::strlen(kCsvMagic), kCsvMagic) != 0) {
    return Status::InvalidArgument("trace csv: missing mqa-trace-v1 header");
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

Result<TraceData> ParseBinary(const std::string& bytes) {
  if (bytes.size() < kBinaryHeaderBytes) {
    return Status::InvalidArgument("trace binary: truncated header");
  }
  const char* p = bytes.data();
  if (std::memcmp(p, kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return Status::InvalidArgument("trace binary: bad magic");
  }
  const uint32_t version = ReadU32(p + 8);
  if (version != kBinaryVersion) {
    return Status::InvalidArgument("trace binary: unsupported version " +
                                   std::to_string(version));
  }
  const uint64_t worker_count = ReadU64(p + 16);
  const uint64_t task_count = ReadU64(p + 24);
  const double horizon = ReadF64(p + 32);
  MQA_RETURN_NOT_OK(CheckHorizon("trace binary: ", horizon));

  // Guard the frame-count arithmetic against bogus headers: compare each
  // count against what the payload can actually hold before summing, so
  // a corrupt 2^63-scale count cannot overflow into "valid".
  const uint64_t avail_frames =
      (bytes.size() - kBinaryHeaderBytes) / kBinaryFrameBytes;
  if (worker_count > avail_frames || task_count > avail_frames - worker_count) {
    return Status::InvalidArgument(
        "trace binary: truncated (payload shorter than frame counts)");
  }
  if ((bytes.size() - kBinaryHeaderBytes) % kBinaryFrameBytes != 0 ||
      worker_count + task_count != avail_frames) {
    return Status::InvalidArgument(
        "trace binary: trailing bytes after the last frame");
  }

  TraceData trace;
  trace.horizon = horizon;
  trace.scenario.workers.reserve(worker_count);
  trace.scenario.tasks.reserve(task_count);
  double prev_worker_time = 0.0;
  double prev_task_time = 0.0;
  const char* frame = p + kBinaryHeaderBytes;
  for (uint64_t i = 0; i < worker_count + task_count;
       ++i, frame += kBinaryFrameBytes) {
    RawRecord r;
    r.is_worker = i < worker_count;
    r.time = ReadF64(frame);
    r.id = ReadI64(frame + 8);
    r.x = ReadF64(frame + 16);
    r.y = ReadF64(frame + 24);
    r.attr = ReadF64(frame + 32);
    const std::string where =
        r.is_worker ? "trace binary worker frame " + std::to_string(i)
                    : "trace binary task frame " +
                          std::to_string(i - worker_count);
    double* prev = r.is_worker ? &prev_worker_time : &prev_task_time;
    MQA_RETURN_NOT_OK(AppendRecord(r, horizon, prev, &trace.scenario, where));
  }
  return trace;
}

}  // namespace

const char* TraceFormatToString(TraceFormat format) {
  switch (format) {
    case TraceFormat::kCsv:
      return "csv";
    case TraceFormat::kBinary:
      return "binary";
  }
  return "?";
}

Result<TraceFormat> ParseTraceFormat(const std::string& name) {
  if (name == "csv") return TraceFormat::kCsv;
  if (name == "binary" || name == "bin") return TraceFormat::kBinary;
  return Status::InvalidArgument("unknown trace format: " + name +
                                 " (expected csv or binary)");
}

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

Result<std::string> TraceWriter::Serialize(TraceFormat format) const {
  MQA_RETURN_NOT_OK(CheckHorizon("trace ", horizon_));
  std::string out;
  if (format == TraceFormat::kCsv) {
    out += kCsvMagic;
    out += " horizon=" + FormatDouble(horizon_) + "\n";
    out += "kind,time,id,x,y,attr\n";
    // Emit the two lists merged chronologically (workers first at equal
    // times) so the file reads as one arrival log; the reader splits the
    // rows back by kind, so the merge never changes replay order.
    size_t iw = 0;
    size_t it = 0;
    const auto emit_worker = [&out](const TimedWorker& tw) {
      out += "w," + FormatDouble(tw.time) + "," +
             std::to_string(tw.worker.id) + "," +
             FormatDouble(tw.worker.location.lo().x) + "," +
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

  out.reserve(kBinaryHeaderBytes +
              kBinaryFrameBytes *
                  (scenario_.workers.size() + scenario_.tasks.size()));
  AppendRaw(&out, kBinaryMagic, sizeof(kBinaryMagic));
  AppendU32(&out, kBinaryVersion);
  AppendU32(&out, 0);  // reserved
  AppendU64(&out, scenario_.workers.size());
  AppendU64(&out, scenario_.tasks.size());
  AppendF64(&out, horizon_);
  for (const TimedWorker& tw : scenario_.workers) {
    AppendF64(&out, tw.time);
    AppendI64(&out, tw.worker.id);
    AppendF64(&out, tw.worker.location.lo().x);
    AppendF64(&out, tw.worker.location.lo().y);
    AppendF64(&out, tw.worker.velocity);
  }
  for (const TimedTask& tt : scenario_.tasks) {
    AppendF64(&out, tt.time);
    AppendI64(&out, tt.task.id);
    AppendF64(&out, tt.task.location.lo().x);
    AppendF64(&out, tt.task.location.lo().y);
    AppendF64(&out, tt.task.deadline);
  }
  return out;
}

Status TraceWriter::WriteFile(const std::string& path,
                              TraceFormat format) const {
  std::string bytes;
  MQA_ASSIGN_OR_RETURN(bytes, Serialize(format));
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
  if (bytes.size() >= sizeof(kBinaryMagic) &&
      std::memcmp(bytes.data(), kBinaryMagic, sizeof(kBinaryMagic)) == 0) {
    return ParseBinary(bytes);
  }
  if (bytes.compare(0, std::strlen(kCsvMagic), kCsvMagic) == 0) {
    return ParseCsv(bytes);
  }
  return Status::InvalidArgument(
      "not an mqa-trace-v1 file (expected '# mqa-trace-v1' or binary magic)");
}

}  // namespace mqa
