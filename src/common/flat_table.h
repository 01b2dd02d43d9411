// Open-addressed slot table: the one probe / grow / erase core behind the
// RAM-resident indexes (storage::RecordStore's records, location::
// IdentityIndex's per-type identity tables).
//
// Slots live in one power-of-two array and are probed linearly from
// `hash & mask`. The load stays at or below 4/5: an insert that would cross
// it doubles the array first. Erase shifts the rest of the probe run back
// over the hole (backward-shift deletion), so there are no tombstones and a
// lookup stops at the first empty slot.
//
// The caller's Slot type is the key and the payload. It must be
// default-constructible to an empty slot, movable, and expose
// `bool empty() const`. Operations that move slots (insert, erase, rehash)
// take `hash_of(const Slot&)`, which returns an occupied slot's full hash;
// a table that stores only a tag of the hash recomputes it there.
//
// Pointer rule: a slot index or reference stays valid only until the next
// insert, erase or rehash of the same table — growth and backward shift both
// move slots.

#ifndef UDR_COMMON_FLAT_TABLE_H_
#define UDR_COMMON_FLAT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace udr {

template <typename Slot>
class FlatTable {
 public:
  static constexpr size_t kNone = ~size_t{0};

  /// `min_capacity` (a power of two, at least 1) is the slot count the first
  /// insert allocates; an empty table holds no array.
  explicit FlatTable(size_t min_capacity = 16) : min_capacity_(min_capacity) {}

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  /// Host bytes of the slot array.
  int64_t SlotBytes() const {
    return static_cast<int64_t>(slots_.capacity() * sizeof(Slot));
  }

  /// True when one more key would make the next insert grow the array.
  bool AtLoadLimit() const { return (size_ + 1) * 5 > slots_.size() * 4; }

  /// Index of the occupied slot on `hash`'s probe run that `match` accepts;
  /// kNone when the run ends first.
  template <typename Match>
  size_t Find(uint64_t hash, Match&& match) const {
    if (size_ == 0) return kNone;
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.empty()) return kNone;
      if (match(s)) return i;
    }
  }

  /// The slot `match` accepts ({index, false}), or a claimed empty slot for
  /// a new key ({index, true}) that the caller must fill before the next
  /// call. Grows the array first when the new key would exceed the load.
  template <typename Match, typename HashOf>
  std::pair<size_t, bool> FindOrInsert(uint64_t hash, Match&& match,
                                       HashOf&& hash_of) {
    size_t i = 0;
    if (!slots_.empty()) {
      for (i = hash & mask_; !slots_[i].empty(); i = (i + 1) & mask_) {
        if (match(slots_[i])) return {i, false};
      }
    }
    if (AtLoadLimit()) {
      size_t capacity = slots_.empty() ? min_capacity_ : slots_.size() * 2;
      while ((size_ + 1) * 5 > capacity * 4) capacity *= 2;
      Rehash(capacity, hash_of);
      i = FreeSlot(hash);
    }
    ++size_;
    return {i, true};
  }

  /// Empties slot `i` and shifts the rest of its probe run back: each later
  /// slot moves into the hole unless its home lies cyclically after it.
  template <typename HashOf>
  void EraseAt(size_t i, HashOf&& hash_of) {
    for (size_t j = (i + 1) & mask_; !slots_[j].empty(); j = (j + 1) & mask_) {
      const size_t home = hash_of(slots_[j]) & mask_;
      if (((j - home) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i] = Slot();
    --size_;
  }

  /// Moves every slot into a fresh array of `capacity` (a power of two that
  /// holds size() within the load bound).
  template <typename HashOf>
  void Rehash(size_t capacity, HashOf&& hash_of) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    for (Slot& s : old) {
      if (!s.empty()) slots_[FreeSlot(hash_of(s))] = std::move(s);
    }
  }

  Slot& at(size_t i) { return slots_[i]; }
  const Slot& at(size_t i) const { return slots_[i]; }

  /// Visits the occupied slots in array order (deterministic for a given
  /// history of inserts and erases).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (!s.empty()) fn(s);
    }
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (Slot& s : slots_) {
      if (!s.empty()) fn(s);
    }
  }

 private:
  size_t FreeSlot(uint64_t hash) const {
    size_t i = hash & mask_;
    while (!slots_[i].empty()) i = (i + 1) & mask_;
    return i;
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  size_t min_capacity_;
};

}  // namespace udr

#endif  // UDR_COMMON_FLAT_TABLE_H_
