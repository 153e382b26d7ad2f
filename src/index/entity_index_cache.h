#ifndef MQA_INDEX_ENTITY_INDEX_CACHE_H_
#define MQA_INDEX_ENTITY_INDEX_CACHE_H_

#include <cstdint>
#include <vector>

#include "index/rtree_index.h"

namespace mqa {

/// What one EntityIndexCache::BeginInstance load did, for layer probes.
struct IndexChurnStats {
  /// Entries this load wrote (the incoming entity count).
  int64_t inserted = 0;
  /// Entries the previous load held (0 on the first load).
  int64_t erased = 0;
};

/// One entity R-tree, bulk-loaded from scratch at every simulation epoch:
/// the paper's MQA loop derives each time instance's valid pairs from
/// that instance's entities alone, and the capacity of the tree's arrays
/// is the only thing retained between loads. This is the machinery behind
/// TaskIndexCache (tasks) and WorkerIndexCache (workers): the two
/// instantiations differ only in how an entity maps to a (location box,
/// pruning bound) pair, expressed by `Traits`:
///
///   struct Traits {
///     static const BBox& box(const Entity&);
///     static double bound(const Entity&);  // IndexEntry::deadline slot
///   };
///
/// Entry ids are positions in the entity vector most recently passed to
/// BeginInstance, and every bound is the entity's value at that call, so
/// view() answers QueryReachable exactly for the current epoch.
///
/// Concurrency: BeginInstance mutates the cache and must be exclusive;
/// between BeginInstance calls, view() queries are const and safe from
/// any number of threads concurrently.
template <typename Entity, typename Traits>
class EntityIndexCache {
 public:
  /// Loads the index with `entities` (the full epoch vector, current plus
  /// predicted). Invalidates the previous view() contents.
  void BeginInstance(const std::vector<Entity>& entities) {
    last_churn_.erased = static_cast<int64_t>(index_.size());
    last_churn_.inserted = static_cast<int64_t>(entities.size());
    entries_.clear();
    entries_.reserve(entities.size());
    for (size_t j = 0; j < entities.size(); ++j) {
      entries_.push_back({static_cast<int64_t>(j), Traits::box(entities[j]),
                          Traits::bound(entities[j])});
    }
    index_.BulkLoad(entries_);
  }

  /// What the last BeginInstance loaded and replaced.
  const IndexChurnStats& last_churn() const { return last_churn_; }

  /// Index over the entities of the last BeginInstance call; entry ids
  /// are indices into that vector. Valid until the next BeginInstance.
  const SpatialIndex* view() const { return &index_; }

 private:
  RTreeIndex index_;
  std::vector<IndexEntry> entries_;  // load scratch, capacity recycled
  IndexChurnStats last_churn_;
};

}  // namespace mqa

#endif  // MQA_INDEX_ENTITY_INDEX_CACHE_H_
