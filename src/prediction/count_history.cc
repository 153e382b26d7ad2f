#include "prediction/count_history.h"

#include "common/logging.h"

namespace mqa {

CountHistory::CountHistory(int num_cells, int window)
    : num_cells_(num_cells), window_(window) {
  MQA_CHECK(num_cells >= 1) << "need at least one cell";
  MQA_CHECK(window >= 1) << "window must be positive";
  window_sums_.assign(static_cast<size_t>(num_cells), 0);
}

void CountHistory::Push(const std::vector<int64_t>& counts) {
  MQA_CHECK(counts.size() == static_cast<size_t>(num_cells_))
      << "count vector size mismatch";
  const size_t cells = static_cast<size_t>(num_cells_);
  int64_t* row = nullptr;
  if (filled_ < window_) {
    // Append a row: the ring grows with the pushes, not with `window`.
    rows_.resize(static_cast<size_t>(filled_ + 1) * cells);
    row = rows_.data() + static_cast<size_t>(filled_) * cells;
    ++filled_;
  } else {
    // Overwrite the oldest row, taking its counts out of the sums.
    row = rows_.data() + static_cast<size_t>(oldest_) * cells;
    for (size_t c = 0; c < cells; ++c) window_sums_[c] -= row[c];
    oldest_ = oldest_ + 1 == window_ ? 0 : oldest_ + 1;
  }
  for (size_t c = 0; c < cells; ++c) {
    MQA_CHECK(counts[c] >= 0) << "negative count " << counts[c];
    row[c] = counts[c];
    window_sums_[c] += counts[c];
  }
}

void CountHistory::Series(int cell, std::vector<double>* out) const {
  MQA_CHECK(cell >= 0 && cell < num_cells_) << "cell out of range";
  out->resize(static_cast<size_t>(filled_));
  int row = oldest_;
  for (int k = 0; k < filled_; ++k) {
    (*out)[static_cast<size_t>(k)] = static_cast<double>(
        rows_[static_cast<size_t>(row) * static_cast<size_t>(num_cells_) +
              static_cast<size_t>(cell)]);
    row = row + 1 == filled_ ? 0 : row + 1;
  }
}

}  // namespace mqa
