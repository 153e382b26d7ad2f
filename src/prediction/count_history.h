#ifndef MQA_PREDICTION_COUNT_HISTORY_H_
#define MQA_PREDICTION_COUNT_HISTORY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mqa {

/// Per-cell sliding windows of arrival counts: the w latest counts
/// |X^(i)_{p-w+1}|, ..., |X^(i)_p| for every cell (paper Section III-A).
/// One CountHistory instance tracks one entity kind (workers or tasks).
///
/// The windows live in one flat ring of per-instance count rows, row-major
/// (row r holds every cell's count of one instance). Push appends rows
/// until `window` of them exist, then overwrites the oldest, so the ring
/// holds num_cells x min(window, instances pushed) counts: a huge window
/// costs only the rows actually pushed. A per-cell running sum of the
/// window tells an all-zero window in O(1).
class CountHistory {
 public:
  /// `num_cells` grid cells, windows capped at `window` observations.
  CountHistory(int num_cells, int window);

  /// Appends one instance's per-cell counts (size must equal num_cells,
  /// every count non-negative), evicting counts that fall out of the
  /// window.
  void Push(const std::vector<int64_t>& counts);

  /// Number of observations currently held (<= window).
  int size() const { return filled_; }

  int window() const { return window_; }
  int num_cells() const { return num_cells_; }

  /// True when every retained count of `cell` is zero (also before the
  /// first Push).
  bool WindowIsZero(int cell) const {
    return window_sums_[static_cast<size_t>(cell)] == 0;
  }

  /// Overwrites `*out` with the retained count series of `cell`, oldest
  /// first; reuses its capacity.
  void Series(int cell, std::vector<double>* out) const;

 private:
  int num_cells_;
  int window_;
  int filled_ = 0;
  // Row the next Push overwrites once the ring is full: the oldest row.
  // Stays 0 while rows are appended, when row 0 is the oldest.
  int oldest_ = 0;
  std::vector<int64_t> rows_;
  std::vector<int64_t> window_sums_;
};

}  // namespace mqa

#endif  // MQA_PREDICTION_COUNT_HISTORY_H_
