#include "index/spatial_index.h"

#include "common/logging.h"
#include "index/brute_force_index.h"
#include "index/grid_index.h"
#include "index/rtree_index.h"

namespace mqa {

const char* IndexBackendToString(IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kAuto:
      return "AUTO";
    case IndexBackend::kBruteForce:
      return "BRUTE";
    case IndexBackend::kGrid:
      return "GRID";
    case IndexBackend::kRTree:
      return "RTREE";
  }
  return "?";
}

IndexBackend ResolveBackend(IndexBackend backend, size_t num_queries,
                            size_t num_entries) {
  if (backend != IndexBackend::kAuto) return backend;
  return num_queries * num_entries >= kAutoBruteForceMaxPairs
             ? IndexBackend::kGrid
             : IndexBackend::kBruteForce;
}

std::unique_ptr<SpatialIndex> CreateSpatialIndex(IndexBackend backend) {
  switch (backend) {
    case IndexBackend::kBruteForce:
      return std::make_unique<BruteForceIndex>();
    case IndexBackend::kGrid:
      return std::make_unique<GridIndex>();
    case IndexBackend::kRTree:
      return std::make_unique<RTreeIndex>();
    case IndexBackend::kAuto:
      break;
  }
  MQA_CHECK(false)
      << "resolve kAuto with ResolveBackend before creating an index";
  return nullptr;
}

}  // namespace mqa
