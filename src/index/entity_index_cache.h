#ifndef MQA_INDEX_ENTITY_INDEX_CACHE_H_
#define MQA_INDEX_ENTITY_INDEX_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "index/spatial_index.h"

namespace mqa {

/// What one EntityIndexCache::BeginInstance call did to its index, for
/// the epoch telemetry (mqa.index.* counters).
struct IndexChurnStats {
  /// Entities matched to a live entry (kept their bucket).
  int64_t carried = 0;
  /// Arrivals (no live match) and departures (live entry not matched).
  int64_t inserted = 0;
  int64_t erased = 0;
  /// True when the insert+erase volume crossed kIndexRebuildChurnFraction
  /// and the cache bulk-rebuilt instead of churning entries one by one.
  bool bulk_rebuilt = false;
};

/// EntityIndexCache's rebuild break-even: BeginInstance bulk-rebuilds once
/// the insert+erase volume exceeds this fraction of the incoming entity
/// vector.
inline constexpr double kIndexRebuildChurnFraction = 0.5;

/// Maintains an entity spatial index *across* simulation epochs so the
/// per-epoch index cost is proportional to the churn, not the pool. This
/// is the machinery behind TaskIndexCache (tasks) and WorkerIndexCache
/// (workers): the two instantiations differ only in how an entity maps to
/// an (id, location box, pruning bound) triple, expressed by `Traits`:
///
///   struct Traits {
///     static int64_t id(const Entity&);
///     static const BBox& box(const Entity&);
///     static double bound(const Entity&);  // IndexEntry::deadline slot
///   };
///
/// Entities carried over between epochs keep their buckets: on each
/// BeginInstance the incoming entity vector is matched against the live
/// entries by (id, location box); only arrivals are inserted and only
/// departures erased. Entries are stored under stable internal slots;
/// view() exposes a read-only SpatialIndex whose ids are positions in the
/// entity vector most recently passed to BeginInstance.
///
/// Pruning bounds: entries are inserted with Traits::bound at first
/// sight. A carried-over entity whose true bound shrinks over time (a
/// task's remaining deadline) keeps the inserted value — a stale *upper
/// bound*, which QueryReachable pruning tolerates by design (stale maxima
/// only weaken pruning; the exact downstream filter stays authoritative).
///
/// Rebuild break-even: per-entry churn beats a rebuild only while the
/// churn is small. Past kIndexRebuildChurnFraction (insert+erase volume
/// above 50% of the incoming vector) BeginInstance bulk-rebuilds the warm
/// index instead — one BulkLoad at the right grid resolution, with
/// *refreshed* pruning bounds (refreshing only sharpens pruning; query
/// result sets are unchanged because the downstream exact filter is
/// authoritative either way). The decision is made from a pure matching
/// pass, so the mutation cost is paid exactly once either way.
///
/// Concurrency: BeginInstance mutates the cache and must be exclusive;
/// between BeginInstance calls, view() queries are const pass-throughs
/// and safe from any number of threads concurrently.
template <typename Entity, typename Traits>
class EntityIndexCache {
 public:
  /// kAuto resolves to the grid backend (the cache only pays off at the
  /// scales where the grid wins); any concrete backend — grid, brute,
  /// R*-tree — passes through, so every cache instantiation (and the
  /// streaming engine's incremental maintenance) gets new backends for
  /// free.
  explicit EntityIndexCache(IndexBackend backend = IndexBackend::kAuto)
      : index_(CreateSpatialIndex(backend == IndexBackend::kAuto
                                      ? IndexBackend::kGrid
                                      : backend)),
        view_(std::make_unique<View>()) {}

  /// Syncs the cache to `entities` (the full epoch vector, current plus
  /// predicted). Invalidates the previous view().
  void BeginInstance(const std::vector<Entity>& entities) {
    if (live_.empty()) {
      // Nothing to carry over (first epoch, or the no-reuse baseline).
      last_churn_ = IndexChurnStats{};
      last_churn_.inserted = static_cast<int64_t>(entities.size());
      BulkRebuild(entities);
      return;
    }

    // Pass 1 — pure matching (no index mutation): resolve every entity
    // to a live slot or -1, and count the churn the sync would cost.
    // Every live slot was allocated before this call, so `claimed` sized
    // to the current slot store covers them all.
    std::vector<char> claimed(slot_boxes_.size(), 0);
    match_.assign(entities.size(), -1);
    size_t matched = 0;
    for (size_t j = 0; j < entities.size(); ++j) {
      const Entity& e = entities[j];
      auto range = live_.equal_range(Traits::id(e));
      for (auto it = range.first; it != range.second; ++it) {
        const int32_t s = it->second;
        if (!claimed[static_cast<size_t>(s)] &&
            slot_boxes_[static_cast<size_t>(s)] == Traits::box(e)) {
          match_[j] = s;
          claimed[static_cast<size_t>(s)] = 1;
          ++matched;
          break;
        }
      }
    }
    const size_t inserts = entities.size() - matched;
    const size_t erases = live_.size() - matched;
    last_churn_ = IndexChurnStats{};
    last_churn_.carried = static_cast<int64_t>(matched);
    last_churn_.inserted = static_cast<int64_t>(inserts);
    last_churn_.erased = static_cast<int64_t>(erases);

    // Break-even: past the churn fraction, per-entry Insert/Erase (plus the
    // grid imbalance a drifted population accumulates) costs more than
    // one bulk build at a freshly tuned resolution.
    if (static_cast<double>(inserts + erases) >
        kIndexRebuildChurnFraction * static_cast<double>(entities.size())) {
      last_churn_.bulk_rebuilt = true;
      live_.clear();
      BulkRebuild(entities);
      return;
    }

    // Pass 2 — apply: insert arrivals, then erase departures (in that
    // order so freed slots are never handed to this epoch's arrivals,
    // matching the historical slot-numbering behavior).
    std::unordered_multimap<int64_t, int32_t> next_live;
    next_live.reserve(entities.size());
    slot_to_index_.assign(slot_boxes_.size(), -1);
    for (size_t j = 0; j < entities.size(); ++j) {
      const Entity& e = entities[j];
      int32_t slot = match_[j];
      if (slot < 0) {
        slot = AllocateSlot(Traits::box(e));
        // Carried-over entities keep the bound they were inserted with
        // even as the true bound shrinks — a stale *upper bound*, which
        // QueryReachable's pruning tolerates by design (it only ever
        // makes pruning less sharp, never wrong).
        index_->Insert({slot, Traits::box(e), Traits::bound(e)});
        if (static_cast<size_t>(slot) < claimed.size()) {
          claimed[static_cast<size_t>(slot)] = 1;  // reused a freed slot
        }
      }
      next_live.emplace(Traits::id(e), slot);
      if (static_cast<size_t>(slot) >= slot_to_index_.size()) {
        slot_to_index_.resize(static_cast<size_t>(slot) + 1, -1);
      }
      slot_to_index_[static_cast<size_t>(slot)] = static_cast<int32_t>(j);
    }

    // Departures: live entries nothing claimed this epoch.
    for (const auto& [id, slot] : live_) {
      if (claimed[static_cast<size_t>(slot)]) continue;
      const bool erased =
          index_->Erase(slot, slot_boxes_[static_cast<size_t>(slot)]);
      MQA_CHECK(erased) << "entity index cache out of sync at slot " << slot;
      free_slots_.push_back(slot);
    }
    live_ = std::move(next_live);

    view_->Reset(index_.get(), &slot_to_index_, entities.size());
  }

  /// What the last BeginInstance did (churn counts, rebuild decision).
  const IndexChurnStats& last_churn() const { return last_churn_; }

  /// Index over the entities of the last BeginInstance call; entry ids
  /// are indices into that vector. Valid until the next BeginInstance.
  const SpatialIndex* view() const { return view_.get(); }

  /// Entries currently bucketed in the underlying index.
  size_t size() const { return index_->size(); }

 private:
  /// Read-only adapter translating internal slots to epoch entity
  /// indices. Queries are const pass-throughs to the underlying index, so
  /// the view inherits its concurrency guarantee: any number of threads
  /// may query one view concurrently between BeginInstance calls.
  class View final : public SpatialIndex {
   public:
    void Reset(const SpatialIndex* index,
               const std::vector<int32_t>* slot_to_index, size_t num_entities) {
      index_ = index;
      slot_to_index_ = slot_to_index;
      num_entities_ = num_entities;
    }

    void BulkLoad(const std::vector<IndexEntry>&) override {
      MQA_CHECK(false) << "EntityIndexCache view is read-only";
    }
    using SpatialIndex::Insert;
    void Insert(const IndexEntry&) override {
      MQA_CHECK(false) << "EntityIndexCache view is read-only";
    }
    bool Erase(int64_t, const BBox&) override {
      MQA_CHECK(false) << "EntityIndexCache view is read-only";
      return false;
    }

    void QueryRadius(const BBox& query, double radius,
                     const RadiusVisitor& visit) const override {
      index_->QueryRadius(
          query, radius, [&](int64_t slot, const BBox& box, double min_dist) {
            visit((*slot_to_index_)[static_cast<size_t>(slot)], box, min_dist);
          });
    }

    void QueryReachable(const BBox& query, double velocity, double max_deadline,
                        const RadiusVisitor& visit) const override {
      index_->QueryReachable(
          query, velocity, max_deadline,
          [&](int64_t slot, const BBox& box, double min_dist) {
            visit((*slot_to_index_)[static_cast<size_t>(slot)], box, min_dist);
          });
    }

    void QueryRect(const BBox& rect, const RectVisitor& visit) const override {
      index_->QueryRect(rect, [&](int64_t slot, const BBox& box) {
        visit((*slot_to_index_)[static_cast<size_t>(slot)], box);
      });
    }

    size_t size() const override { return num_entities_; }
    const char* name() const override { return index_->name(); }

   private:
    const SpatialIndex* index_ = nullptr;
    const std::vector<int32_t>* slot_to_index_ = nullptr;
    size_t num_entities_ = 0;
  };

  /// One bulk build at the right resolution instead of incremental
  /// insert/rebalance churn: replaces the slot store (slot j = entity j)
  /// and loads every entity with a *fresh* pruning bound. Callers must
  /// clear live_ first (or have it empty).
  void BulkRebuild(const std::vector<Entity>& entities) {
    slot_boxes_.clear();
    free_slots_.clear();
    slot_to_index_.assign(entities.size(), -1);
    std::vector<IndexEntry> entries;
    entries.reserve(entities.size());
    for (size_t j = 0; j < entities.size(); ++j) {
      const Entity& e = entities[j];
      slot_boxes_.push_back(Traits::box(e));
      entries.push_back(
          {static_cast<int64_t>(j), Traits::box(e), Traits::bound(e)});
      live_.emplace(Traits::id(e), static_cast<int32_t>(j));
      slot_to_index_[j] = static_cast<int32_t>(j);
    }
    index_->BulkLoad(entries);
    view_->Reset(index_.get(), &slot_to_index_, entities.size());
  }

  int32_t AllocateSlot(const BBox& box) {
    if (!free_slots_.empty()) {
      const int32_t slot = free_slots_.back();
      free_slots_.pop_back();
      slot_boxes_[static_cast<size_t>(slot)] = box;
      return slot;
    }
    slot_boxes_.push_back(box);
    return static_cast<int32_t>(slot_boxes_.size() - 1);
  }

  std::unique_ptr<SpatialIndex> index_;  // entry ids are internal slots
  std::vector<BBox> slot_boxes_;
  std::vector<int32_t> free_slots_;
  // Live (id -> slot) entries of the previous epoch; multimap so a
  // malformed stream with duplicate ids degrades to churn, not corruption.
  std::unordered_multimap<int64_t, int32_t> live_;
  std::vector<int32_t> slot_to_index_;
  std::vector<int32_t> match_;  // pass-1 scratch, capacity recycled
  std::unique_ptr<View> view_;
  IndexChurnStats last_churn_;
};

}  // namespace mqa

#endif  // MQA_INDEX_ENTITY_INDEX_CACHE_H_
