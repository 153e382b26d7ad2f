#include "exec/pair_arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace mqa {

namespace {

size_t AlignUp(size_t value, size_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Slab growth stops doubling here; larger requests still get a slab of
// exactly their size, so huge columns never over-reserve by 2x.
constexpr size_t kMaxSlabGrowthBytes = size_t{64} << 20;  // 64 MiB

}  // namespace

PairArena::PairArena(size_t min_slab_bytes)
    : next_slab_bytes_(min_slab_bytes), min_slab_bytes_(min_slab_bytes) {
  MQA_CHECK(min_slab_bytes > 0) << "arena slabs need a positive size";
}

PairArena::~PairArena() {
  for (const Slab& slab : slabs_) munmap(slab.data, slab.size + PageSize());
}

void* PairArena::Allocate(size_t bytes, size_t alignment) {
  if (bytes == 0) return nullptr;
  MQA_CHECK(alignment != 0 && (alignment & (alignment - 1)) == 0)
      << "alignment must be a power of two";
  for (;;) {
    if (active_ < slabs_.size()) {
      const Slab& slab = slabs_[active_];
      const size_t offset = AlignUp(offset_, alignment);
      if (offset + bytes <= slab.size) {
        offset_ = offset + bytes;
        allocated_ += bytes;
        peak_ = std::max(peak_, allocated_);
        return slab.data + offset;
      }
      // Retained slab exhausted (or, after Reset, too small for this
      // request): move on; its tail is reclaimed at the next Reset.
      ++active_;
      offset_ = 0;
      continue;
    }
    // Grow: geometric target, but never smaller than the request (plus
    // worst-case alignment padding), rounded up to whole pages so the
    // guard page starts right at the slab's end.
    const size_t page = PageSize();
    const size_t size =
        AlignUp(std::max(next_slab_bytes_, bytes + alignment), page);
    next_slab_bytes_ = std::min(next_slab_bytes_ * 2, kMaxSlabGrowthBytes);
    void* mapped = mmap(nullptr, size + page, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    MQA_CHECK(mapped != MAP_FAILED)
        << "arena slab mmap of " << size << " bytes failed: "
        << std::strerror(errno);
    Slab slab;
    slab.data = static_cast<unsigned char*>(mapped);
    slab.size = size;
    MQA_CHECK(mprotect(slab.data + size, page, PROT_NONE) == 0)
        << "arena guard page mprotect failed: " << std::strerror(errno);
    slabs_.push_back(slab);
  }
}

void PairArena::Reset() {
  active_ = 0;
  offset_ = 0;
  allocated_ = 0;
  for (const auto& sub : subs_) sub->Reset();
}

PairArena* PairArena::sub_arena(size_t i) {
  while (subs_.size() <= i) {
    subs_.push_back(std::make_unique<PairArena>(min_slab_bytes_));
  }
  return subs_[i].get();
}

size_t PairArena::slab_count() const {
  size_t count = slabs_.size();
  for (const auto& sub : subs_) count += sub->slab_count();
  return count;
}

size_t PairArena::allocated_bytes() const {
  size_t bytes = allocated_;
  for (const auto& sub : subs_) bytes += sub->allocated_bytes();
  return bytes;
}

size_t PairArena::capacity_bytes() const {
  size_t bytes = 0;
  for (const Slab& slab : slabs_) bytes += slab.size;
  for (const auto& sub : subs_) bytes += sub->capacity_bytes();
  return bytes;
}

size_t PairArena::peak_bytes() const {
  size_t bytes = peak_;
  for (const auto& sub : subs_) bytes += sub->peak_bytes();
  return bytes;
}

}  // namespace mqa
