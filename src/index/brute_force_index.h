#ifndef MQA_INDEX_BRUTE_FORCE_INDEX_H_
#define MQA_INDEX_BRUTE_FORCE_INDEX_H_

#include <vector>

#include "index/spatial_index.h"

namespace mqa {

/// Linear-scan SpatialIndex: queries test every entry. This is the seed's
/// candidate enumeration expressed through the index interface, kept as
/// the semantics reference: tests and benches hand it to
/// ProblemInstance::set_task_index and check RTreeIndex against it.
///
/// Concurrency: queries are const and touch no mutable state — safe to
/// run from any number of threads as long as no BulkLoad is in flight.
class BruteForceIndex final : public SpatialIndex {
 public:
  BruteForceIndex() = default;

  void BulkLoad(const std::vector<IndexEntry>& entries) override;
  void QueryReachable(const BBox& query, double velocity, double max_deadline,
                      const RadiusVisitor& visit) const override;
  size_t size() const override { return entries_.size(); }
  const char* name() const override { return "BRUTE"; }

 private:
  std::vector<IndexEntry> entries_;
};

}  // namespace mqa

#endif  // MQA_INDEX_BRUTE_FORCE_INDEX_H_
