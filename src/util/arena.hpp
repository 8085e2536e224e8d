// Per-trial arena: the allocation backbone of the trial hot path.
//
// A page-load trial churns through thousands of short-lived objects — wire
// payloads, stream frames, reassembly maps, HTTP stream state — none of
// which outlives the trial. Allocation is a pointer bump into large blocks,
// and reset() rewinds the bump pointer while keeping every block, so after
// the first trial warms the block chain a steady-state trial performs zero
// heap allocations for all of this traffic (docs/PERFORMANCE.md has the
// memory model and the hot-path allocation rules).
//
// Two lifetimes:
//   * create<T>(), allocate_array<T>() and ArenaVec storage is never reused
//     before reset(), so views into it (a sent packet's frame list) stay
//     valid for the whole trial.
//   * container storage (ArenaAllocator) is recycled: acquire()/release()
//     keep a free list per 16-byte size class up to kMaxRecycledBytes, so a
//     table's footprint follows what it holds, not all it ever held.
//     AddressSanitizer builds poison released blocks until reused. Every
//     arena-backed container must be destroyed before reset() (the trial's
//     locals in core::TrialContext::run are), so nothing is released into
//     a later trial's lists.
// create<T>() requires trivially destructible T (reset() runs no
// destructors), and an Arena is single-threaded: one per Simulator /
// TrialContext; campaign workers each own their own.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define QPERC_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define QPERC_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define QPERC_ARENA_POISON(p, n) static_cast<void>(0)
#define QPERC_ARENA_UNPOISON(p, n) static_cast<void>(0)
#endif

namespace qperc {

class Arena {
 public:
  /// Blocks start at 64 KiB and double until kMaxBlockBytes; one trial fits
  /// in a handful of blocks, so steady state never grows the chain.
  static constexpr std::size_t kInitialBlockBytes = 64 * 1024;
  static constexpr std::size_t kMaxBlockBytes = 4 * 1024 * 1024;
  /// Container storage up to this size is recycled in 16-byte size classes.
  static constexpr std::size_t kSizeClassBytes = 16;
  static constexpr std::size_t kMaxRecycledBytes = 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align`. Never returns nullptr;
  /// alignment must be a power of two no stronger than max_align_t.
  [[nodiscard]] void* allocate(std::size_t bytes,
                               std::size_t align = alignof(std::max_align_t)) {
    QPERC_DCHECK(align != 0 && (align & (align - 1)) == 0) << "alignment must be a power of two";
    QPERC_DCHECK(align <= alignof(std::max_align_t)) << "over-aligned arena allocation";
    std::size_t offset = (offset_ + align - 1) & ~(align - 1);
    if (block_ >= blocks_.size() || offset + bytes > blocks_[block_].size) {
      advance_block(bytes + align);
      offset = (offset_ + align - 1) & ~(align - 1);
    }
    std::byte* p = blocks_[block_].data.get() + offset;
    offset_ = offset + bytes;
    return p;
  }

  /// Placement-constructs a T in the arena. T must be trivially destructible:
  /// reset() rewinds storage without running destructors.
  template <class T, class... Args>
  [[nodiscard]] T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are reclaimed without destructors");
    return ::new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  /// Allocates an uninitialized array of trivially destructible T.
  template <class T>
  [[nodiscard]] T* allocate_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are reclaimed without destructors");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Container storage: the head of `bytes`' size-class free list, or a
  /// fresh bump of the class size (16-byte aligned). Larger requests bump.
  [[nodiscard]] void* acquire(std::size_t bytes) {
    const std::size_t cls = (bytes - 1) / kSizeClassBytes;  // 0 bytes wraps past the classes
    if (cls >= free_.size()) return allocate(bytes);
    FreeBlock* block = free_[cls];
    if (block == nullptr) return allocate((cls + 1) * kSizeClassBytes);
    QPERC_ARENA_UNPOISON(block, (cls + 1) * kSizeClassBytes);
    free_[cls] = block->next;
    return block;
  }

  /// Hands storage that acquire(bytes) returned back to its size class;
  /// larger blocks stay where they are until reset().
  void release(void* p, std::size_t bytes) noexcept {
    const std::size_t cls = (bytes - 1) / kSizeClassBytes;
    if (cls >= free_.size()) return;
    free_[cls] = ::new (p) FreeBlock{free_[cls]};
    QPERC_ARENA_POISON(p, (cls + 1) * kSizeClassBytes);
  }

  /// Rewinds to empty, keeping every block for reuse and emptying the free
  /// lists. Runs no destructors (see create<T> contract).
  void reset() noexcept {
    for ([[maybe_unused]] const Block& b : blocks_) QPERC_ARENA_UNPOISON(b.data.get(), b.size);
    free_.fill(nullptr);
    block_ = 0;
    offset_ = 0;
  }

  /// Bytes handed out since the last reset (including alignment padding).
  [[nodiscard]] std::size_t bytes_used() const noexcept {
    std::size_t used = offset_;
    for (std::size_t i = 0; i < block_ && i < blocks_.size(); ++i) used += blocks_[i].size;
    return used;
  }
  /// Total bytes owned across all blocks (the steady-state footprint).
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }
  [[nodiscard]] std::size_t block_count() const noexcept { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };
  struct FreeBlock {
    FreeBlock* next;
  };

  /// Moves to the next block able to hold `min_bytes`, appending a new one
  /// (geometric growth) only when the existing chain runs out. Cold: steady
  /// state bumps within warm blocks; this runs only while the chain grows
  /// during the first trial (and its heap traffic is the ratcheted warm-up
  /// cost, not a steady-state allocation).
  QPERC_COLD_PATH void advance_block(std::size_t min_bytes) {
    while (block_ + 1 < blocks_.size()) {
      ++block_;
      offset_ = 0;
      if (blocks_[block_].size >= min_bytes) return;
    }
    std::size_t next = blocks_.empty() ? kInitialBlockBytes
                                       : std::min(blocks_.back().size * 2, kMaxBlockBytes);
    if (next < min_bytes) next = min_bytes;
    blocks_.push_back(Block{std::make_unique_for_overwrite<std::byte[]>(next), next});
    block_ = blocks_.size() - 1;
    offset_ = 0;
  }

  std::vector<Block> blocks_;
  std::size_t block_ = 0;   // index of the block currently being bumped
  std::size_t offset_ = 0;  // bump offset within blocks_[block_]
  std::array<FreeBlock*, kMaxRecycledBytes / kSizeClassBytes> free_{};
};

/// Minimal growable array backed by an Arena: {pointer, size, capacity} with
/// geometric growth, no shrink, and no destructor work. This is the
/// replacement for std::vector in wire payloads (stream frames, SACK lists)
/// — trivially destructible, so payloads can live in the arena.
///
/// push_back takes the Arena explicitly rather than storing a back-pointer:
/// payload types stay 16 bytes smaller and can never outlive their arena by
/// accident (there is nothing to dangle).
template <class T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "ArenaVec elements must be trivially copyable and destructible");

 public:
  ArenaVec() = default;
  ArenaVec(ArenaVec&& other) noexcept
      : data_(other.data_), size_(other.size_), capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }
  ArenaVec& operator=(ArenaVec&& other) noexcept {
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
    return *this;
  }
  ArenaVec(const ArenaVec&) = delete;
  ArenaVec& operator=(const ArenaVec&) = delete;

  void push_back(Arena& arena, const T& value) {
    if (size_ == capacity_) grow(arena);
    data_[size_++] = value;
  }
  template <class... Args>
  T& emplace_back(Arena& arena, Args&&... args) {
    if (size_ == capacity_) grow(arena);
    data_[size_] = T{std::forward<Args>(args)...};
    return data_[size_++];
  }
  /// Pre-sizes capacity so subsequent push_backs up to `count` never grow.
  void reserve(Arena& arena, std::uint32_t count) {
    if (count > capacity_) regrow(arena, count);
  }

  void clear() noexcept { size_ = 0; }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] T& front() noexcept { return data_[0]; }
  [[nodiscard]] const T& front() const noexcept { return data_[0]; }
  [[nodiscard]] T& back() noexcept { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data_[size_ - 1]; }

 private:
  void grow(Arena& arena) { regrow(arena, capacity_ == 0 ? 4 : capacity_ * 2); }
  void regrow(Arena& arena, std::uint32_t new_capacity) {
    T* next = arena.allocate_array<T>(new_capacity);
    if (size_ != 0) std::memcpy(next, data_, size_ * sizeof(T));
    data_ = next;
    capacity_ = new_capacity;
  }

  T* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

/// std-compatible allocator adapter so node-based containers (the reassembly
/// and retransmission std::maps, HTTP stream tables, FlatMap slot arrays)
/// draw their storage from the trial arena through Arena::acquire/release:
/// an erased node goes back to its size class and the next insert reuses
/// it, so insert/erase churn neither grows the arena nor touches the heap.
/// Element destructors still run on erase (unique_ptr values are fine); only
/// the storage is arena-owned. The container must be destroyed before the
/// arena's reset().
template <class T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena& arena) noexcept : arena_(&arena) {}
  template <class U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept  // NOLINT(google-explicit-constructor)
      : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= Arena::kSizeClassBytes, "over-aligned container element");
    return static_cast<T*>(arena_->acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { arena_->release(p, n * sizeof(T)); }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <class U>
  [[nodiscard]] bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace qperc
