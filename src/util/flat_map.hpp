// FlatMap: a sorted-vector map for the simulator's hot per-packet tables.
//
// The transport hot path keeps several small ordered maps keyed by packet
// number, stream id, or byte offset (unacked packets, in-flight samples,
// stream tables, ACK ranges). Profiles show libstdc++'s rb-tree dominating
// trial time — not through allocation (the arena allocator already feeds the
// nodes) but through pointer-chasing: _Rb_tree_increment alone costs more
// than any single simulator function. These maps share a shape that a flat
// layout exploits:
//   * keys are inserted in (almost always) increasing order — packet numbers
//     and stream ids grow monotonically, so insert is an append,
//   * lookups are lower_bound/find over a handful of live entries,
//   * erase happens mostly at the front (cumulative ACKs retire the oldest
//     packets first).
// FlatMap stores slots contiguously in key order and marks erased slots dead
// instead of shifting (an erase is a store, iteration skips dead slots, and a
// first-live cursor keeps begin() O(1) amortized as the front retires).
// An insert that finds the array full with at most half its slots live
// first drops the dead ones instead of reallocating, so capacity follows
// the peak live count (a connection's packets in flight), not every key
// the table ever held.
// Iteration order over live slots is exactly std::map's key order, so every
// consumer sees the same sequence of entries and results stay bit-identical.
//
// Deliberate differences from std::map:
//   * iterators are invalidated by insertion (vector semantics; compaction
//     moves slots only where a reallocation would have moved them anyway);
//     the hot loops either iterate-and-erase or insert, never both at once,
//   * value_type is pair<Key, V>, not pair<const Key, V> — keys of live
//     slots must not be mutated through iterators (nothing does).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/arena.hpp"
#include "util/check.hpp"

namespace qperc {

template <class Key, class V>
class FlatMap {
 public:
  using value_type = std::pair<Key, V>;

 private:
  struct Slot {
    value_type kv;
    bool live = true;
    template <class... Args>
    Slot(Key key, Args&&... args)
        : kv(std::piecewise_construct, std::forward_as_tuple(key),
             std::forward_as_tuple(std::forward<Args>(args)...)) {}
  };
  using Storage = std::vector<Slot, ArenaAllocator<Slot>>;

  template <bool Const>
  class Iter {
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;
    using Ref = std::conditional_t<Const, const value_type&, value_type&>;
    using Ptr = std::conditional_t<Const, const value_type*, value_type*>;

   public:
    Iter() = default;
    Iter(SlotPtr cur, SlotPtr end) noexcept : cur_(cur), end_(end) { skip_dead(); }

    [[nodiscard]] Ref operator*() const noexcept { return cur_->kv; }
    [[nodiscard]] Ptr operator->() const noexcept { return &cur_->kv; }

    Iter& operator++() noexcept {
      ++cur_;
      skip_dead();
      return *this;
    }

    [[nodiscard]] bool operator==(const Iter& other) const noexcept {
      return cur_ == other.cur_;
    }
    [[nodiscard]] bool operator!=(const Iter& other) const noexcept {
      return cur_ != other.cur_;
    }

   private:
    void skip_dead() noexcept {
      while (cur_ != end_ && !cur_->live) ++cur_;
    }

    SlotPtr cur_ = nullptr;
    SlotPtr end_ = nullptr;
    friend class FlatMap;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  explicit FlatMap(Arena& arena) : slots_(ArenaAllocator<Slot>(arena)) {}

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  /// Slots the array holds before an insert must compact or reallocate.
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.capacity(); }

  [[nodiscard]] iterator begin() noexcept { return make_iter(first_live_); }
  [[nodiscard]] iterator end() noexcept { return make_iter(slots_.size()); }
  [[nodiscard]] const_iterator begin() const noexcept { return make_citer(first_live_); }
  [[nodiscard]] const_iterator end() const noexcept { return make_citer(slots_.size()); }

  /// Key of the last live entry. Requires a non-empty map.
  [[nodiscard]] const Key& back_key() const noexcept {
    QPERC_DCHECK(!empty()) << "back_key() on an empty FlatMap";
    std::size_t i = slots_.size();
    while (!slots_[--i].live) {}
    return slots_[i].kv.first;
  }

  [[nodiscard]] iterator find(Key key) noexcept {
    const std::size_t pos = lower_bound_index(key);
    if (pos < slots_.size() && slots_[pos].kv.first == key && slots_[pos].live) {
      return make_iter(pos);
    }
    return end();
  }
  [[nodiscard]] const_iterator find(Key key) const noexcept {
    const std::size_t pos = lower_bound_index(key);
    if (pos < slots_.size() && slots_[pos].kv.first == key && slots_[pos].live) {
      return make_citer(pos);
    }
    return make_citer(slots_.size());
  }

  [[nodiscard]] bool contains(Key key) const noexcept { return find(key) != end(); }

  /// First live entry with key >= `key` (std::map::lower_bound).
  [[nodiscard]] iterator lower_bound(Key key) noexcept {
    return make_iter(lower_bound_index(key));
  }

  template <class... Args>
  std::pair<iterator, bool> try_emplace(Key key, Args&&... args) {
    // Fast path: packet numbers and stream ids grow, so almost every new key
    // appends past the current maximum and no shifting ever happens.
    if (slots_.empty() || key > slots_.back().kv.first) {
      reclaim_before_growth();
      slots_.emplace_back(key, std::forward<Args>(args)...);
      mark_live(slots_.size() - 1);
      return {make_iter(slots_.size() - 1), true};
    }
    std::size_t pos = lower_bound_index_raw(key);
    if (pos < slots_.size() && slots_[pos].kv.first == key) {
      if (slots_[pos].live) return {make_iter(pos), false};
      // Revive a tombstone: same key re-inserted after an erase.
      slots_[pos].kv.second = V(std::forward<Args>(args)...);
      mark_live(pos);
      return {make_iter(pos), true};
    }
    // Out-of-order key (rare: reordered arrivals opening a gap): a real
    // sorted insert, O(n) in the tail beyond it.
    if (reclaim_before_growth()) pos = lower_bound_index_raw(key);
    slots_.emplace(slots_.begin() + static_cast<std::ptrdiff_t>(pos), key,
                   std::forward<Args>(args)...);
    mark_live(pos);
    return {make_iter(pos), true};
  }

  V& operator[](Key key) { return try_emplace(key).first->second; }

  /// Tombstones the slot; returns the next live entry (std::map::erase).
  iterator erase(iterator it) noexcept {
    QPERC_DCHECK(it.cur_ != nullptr && it.cur_->live) << "erase of a dead slot";
    it.cur_->live = false;
    --live_;
    const auto pos = static_cast<std::size_t>(it.cur_ - slots_.data());
    if (pos == first_live_) advance_first_live();
    ++it;
    return it;
  }

  /// Erases by key if present; returns the number of entries removed (0/1).
  std::size_t erase(Key key) noexcept {
    iterator it = find(key);
    if (it == end()) return 0;
    erase(it);
    return 1;
  }

  void clear() noexcept {
    slots_.clear();
    live_ = 0;
    first_live_ = 0;
  }

 private:
  [[nodiscard]] iterator make_iter(std::size_t pos) noexcept {
    return iterator(slots_.data() + pos, slots_.data() + slots_.size());
  }
  [[nodiscard]] const_iterator make_citer(std::size_t pos) const noexcept {
    return const_iterator(slots_.data() + pos, slots_.data() + slots_.size());
  }

  /// Index of the first slot (live or dead) at or after `lo` with key >=
  /// `key`. Keys stay sorted across tombstoning, so any suffix is sorted.
  [[nodiscard]] std::size_t lower_bound_index_raw(Key key, std::size_t lo = 0) const noexcept {
    std::size_t hi = slots_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (slots_[mid].kv.first < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  [[nodiscard]] std::size_t lower_bound_index(Key key) const noexcept {
    // Everything before the first-live cursor is dead: search only the live
    // suffix. Tables that retire their front (unacked packets, in-flight
    // samples) compact only when the array fills, so the prefix builds up.
    return lower_bound_index_raw(key, first_live_);
  }

  void mark_live(std::size_t pos) noexcept {
    slots_[pos].live = true;
    ++live_;
    if (pos < first_live_) first_live_ = pos;
  }

  /// Before an insert into a full array that is at most half live, drops
  /// the dead slots (live ones keep their order, the capacity stays), so
  /// the insert fits without reallocating. Returns whether it compacted.
  bool reclaim_before_growth() {
    if (slots_.size() < slots_.capacity() || live_ * 2 > slots_.size()) return false;
    slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                                [](const Slot& slot) { return !slot.live; }),
                 slots_.end());
    first_live_ = 0;
    return true;
  }

  void advance_first_live() noexcept {
    while (first_live_ < slots_.size() && !slots_[first_live_].live) ++first_live_;
  }

  Storage slots_;
  std::size_t live_ = 0;
  /// Index of the first live slot (== slots_.size() when empty): cumulative
  /// ACKs retire the front, so begin() stays O(1) amortized.
  std::size_t first_live_ = 0;
};

}  // namespace qperc
