#ifndef MQA_MODEL_TYPES_H_
#define MQA_MODEL_TYPES_H_

#include <cstdint>

namespace mqa {

/// Stable identifier of a worker across time instances.
using WorkerId = int64_t;

/// Stable identifier of a task across time instances.
using TaskId = int64_t;

/// Discrete time-instance index p in the instance set P (paper Def. 4).
/// One instance spans one unit of continuous time: deadlines and travel
/// times are expressed in the same unit.
using Timestamp = int64_t;

/// Duration of one time instance in continuous-time units.
inline constexpr double kInstanceDuration = 1.0;

/// The most instances one run may span, and the most epochs a streaming
/// run may cut: 2^20. Trace headers (kMaxTraceHorizon), `mqa_cli
/// --instances` and StreamingSimulator::Run are bounded by it, so an
/// outsized value ends in a clean error, not an overflowed count or an
/// exhausted memory.
inline constexpr int kMaxInstances = 1 << 20;

}  // namespace mqa

#endif  // MQA_MODEL_TYPES_H_
