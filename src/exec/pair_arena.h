#ifndef MQA_EXEC_PAIR_ARENA_H_
#define MQA_EXEC_PAIR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace mqa {

/// A slab (bump) allocator backing the columnar pair pool and its build
/// scratch. Allocation is a pointer bump into the active slab; slabs grow
/// geometrically and are *retained* across Reset(), so a caller that
/// builds one pool per epoch (sim/EpochRunner, stream/StreamingSimulator)
/// pays for mapping memory only while the arena is still growing toward
/// the epoch high-water mark — steady state allocates nothing.
///
/// Slabs are anonymous mmap(2) mappings, each followed by a PROT_NONE
/// guard page, and go back to the kernel with munmap on destruction.
/// Pages are committed on first touch (no zero-fill pass), an overrun
/// past a slab's end faults instead of corrupting a neighbour, and slabs
/// grown on pool threads never land in the C allocator's per-thread
/// heaps, which the process keeps and reuses poorly.
///
/// Sub-arenas: the pair builder's parallel scan pins one sub-arena per
/// worker range (sub_arena(i)) so concurrent candidate collection never
/// contends on one cursor. Sub-arenas are owned by (and Reset with) the
/// parent and are counted in its metrics.
///
/// Thread-safety: Allocate/Reset/sub_arena are NOT thread-safe. The
/// intended discipline (see src/core/README.md) is: the build's
/// sequential spine allocates columns and creates the sub-arenas up
/// front; inside a parallel region each range allocates only from its
/// own sub-arena.
///
/// Lifetime: memory handed out stays valid until Reset() or destruction —
/// a PairPool built from an external arena must be dropped before the
/// arena resets for the next epoch.
class PairArena {
 public:
  static constexpr size_t kDefaultMinSlabBytes = size_t{1} << 16;  // 64 KiB

  explicit PairArena(size_t min_slab_bytes = kDefaultMinSlabBytes);
  ~PairArena();

  PairArena(const PairArena&) = delete;
  PairArena& operator=(const PairArena&) = delete;

  /// Returns `bytes` of uninitialized storage aligned to `alignment`
  /// (which must be a power of two). `bytes == 0` returns nullptr.
  void* Allocate(size_t bytes, size_t alignment);

  /// Typed array allocation (uninitialized storage; T must be trivially
  /// destructible — nothing is ever destroyed, only recycled wholesale).
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is recycled without destructors");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Rewinds every cursor (including sub-arenas), retaining all slabs.
  /// Invalidates all memory previously handed out.
  void Reset();

  /// The i-th sub-arena, created on first use. Not thread-safe: create
  /// all sub-arenas before fanning out.
  PairArena* sub_arena(size_t i);
  size_t num_sub_arenas() const { return subs_.size(); }

  /// Metrics, aggregated over this arena and its sub-arenas.
  size_t slab_count() const;
  size_t allocated_bytes() const;  // live bytes since the last Reset
  size_t capacity_bytes() const;   // total bytes held in slabs
  size_t peak_bytes() const;       // high-water allocated_bytes ever seen

 private:
  // A mapping of size + one guard page; unmapped in ~PairArena.
  struct Slab {
    unsigned char* data = nullptr;
    size_t size = 0;  // usable bytes, a multiple of the page size
  };

  std::vector<Slab> slabs_;
  size_t active_ = 0;          // index of the slab being bumped
  size_t offset_ = 0;          // cursor within the active slab
  size_t allocated_ = 0;       // bytes handed out since Reset
  size_t peak_ = 0;            // max of allocated_ ever
  size_t next_slab_bytes_;     // geometric growth target for the next slab
  size_t min_slab_bytes_;
  std::vector<std::unique_ptr<PairArena>> subs_;
};

/// A minimal growable array of trivially copyable elements backed by a
/// PairArena: push_back bumps; growth allocates a doubled block from the
/// arena and memcpys (the old block is reclaimed only at arena Reset, so
/// transient waste is bounded by ~2x and recycled per epoch). Used for
/// the per-range candidate buffers of the pair builder's scan.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector growth relocates with memcpy");

 public:
  explicit ArenaVector(PairArena* arena) : arena_(arena) {}

  void push_back(const T& value) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = value;
  }

  void reserve(size_t capacity) {
    if (capacity > capacity_) Grow(capacity);
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Grow(size_t min_capacity) {
    size_t capacity = capacity_ == 0 ? size_t{16} : capacity_ * 2;
    if (capacity < min_capacity) capacity = min_capacity;
    T* grown = arena_->AllocateArray<T>(capacity);
    if (size_ > 0) std::memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = capacity;
  }

  PairArena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace mqa

#endif  // MQA_EXEC_PAIR_ARENA_H_
