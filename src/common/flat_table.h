// Flat open-addressing hash containers for integer join keys.
//
// The tracker-side hot paths (row indexes, first-seen filters, per-key
// location tables) are keyed by uint64_t join keys and dominated by lookup
// and insert throughput. std::unordered_map pays a heap node per entry and
// a pointer chase per probe; these tables keep all slots in one contiguous
// array with a one-byte control sidecar (empty / full), probe linearly
// from a MurmurHash3-mixed start slot, and grow by power-of-two rehash at
// 7/8 load. Entries are only ever inserted, never erased.
//
// Iteration (ForEach) walks slot order, which depends on the hash layout —
// like unordered_map, callers needing a canonical order must sort.
#ifndef TJ_COMMON_FLAT_TABLE_H_
#define TJ_COMMON_FLAT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace tj {

template <typename Value>
class FlatMap {
 public:
  FlatMap() = default;

  /// Pre-sizes the table for `n` entries without intermediate rehashes.
  void Reserve(size_t n) { EnsureCapacity(n); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  /// Returns the value for `key`, default-constructing it on first use.
  Value& operator[](uint64_t key) {
    EnsureCapacity(size_ + 1);
    size_t slot = FindOrInsertSlot(key);
    return slots_[slot].value;
  }

  Value* Find(uint64_t key) {
    size_t slot = FindSlot(key);
    return slot == kNoSlot ? nullptr : &slots_[slot].value;
  }
  const Value* Find(uint64_t key) const {
    size_t slot = FindSlot(key);
    return slot == kNoSlot ? nullptr : &slots_[slot].value;
  }
  bool Contains(uint64_t key) const { return FindSlot(key) != kNoSlot; }

  /// Calls fn(key, value) for every entry, in slot (hash-layout) order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (ctrl_[i] == kFull) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    Value value{};
  };

  static constexpr size_t kNoSlot = ~size_t{0};
  static constexpr uint8_t kEmpty = 0;
  static constexpr uint8_t kFull = 1;
  static constexpr size_t kMinCapacity = 16;

  size_t FindSlot(uint64_t key) const {
    if (slots_.empty()) return kNoSlot;
    const size_t mask = slots_.size() - 1;
    size_t i = HashKey(key) & mask;
    while (true) {
      if (ctrl_[i] == kEmpty) return kNoSlot;
      if (slots_[i].key == key) return i;
      i = (i + 1) & mask;
    }
  }

  /// Probe for `key`; if absent, claim the terminating empty slot.
  /// Capacity must be ensured.
  size_t FindOrInsertSlot(uint64_t key) {
    const size_t mask = slots_.size() - 1;
    size_t i = HashKey(key) & mask;
    while (ctrl_[i] == kFull) {
      if (slots_[i].key == key) return i;
      i = (i + 1) & mask;
    }
    ctrl_[i] = kFull;
    slots_[i].key = key;
    ++size_;
    return i;
  }

  void EnsureCapacity(size_t n) {
    // Grow when one more entry would exceed 7/8 of the array: probes must
    // always find an empty terminator.
    if (!slots_.empty() && (size_ + 1) * 8 <= slots_.size() * 7 &&
        n * 8 <= slots_.size() * 7) {
      return;
    }
    size_t target = kMinCapacity;
    size_t need = n > size_ ? n : size_;
    while (target * 7 < need * 8) target *= 2;
    Rehash(target);
  }

  void Rehash(size_t new_capacity) {
    TJ_CHECK((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    slots_.assign(new_capacity, Slot{});
    ctrl_.assign(new_capacity, kEmpty);
    const size_t mask = new_capacity - 1;
    for (size_t i = 0; i < old_slots.size(); ++i) {
      if (old_ctrl[i] != kFull) continue;
      size_t j = HashKey(old_slots[i].key) & mask;
      while (ctrl_[j] != kEmpty) j = (j + 1) & mask;
      ctrl_[j] = kFull;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> ctrl_;
  size_t size_ = 0;
};

/// Set of uint64_t keys with the same layout and growth policy.
class FlatSet {
 public:
  void Reserve(size_t n) { map_.Reserve(n); }
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  /// Returns true if `key` was newly inserted.
  bool Insert(uint64_t key) {
    size_t before = map_.size();
    map_[key];
    return map_.size() != before;
  }

  bool Contains(uint64_t key) const { return map_.Contains(key); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&fn](uint64_t key, const Empty&) { fn(key); });
  }

 private:
  struct Empty {};
  FlatMap<Empty> map_;
};

}  // namespace tj

#endif  // TJ_COMMON_FLAT_TABLE_H_
