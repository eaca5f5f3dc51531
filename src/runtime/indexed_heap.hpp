#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

/// Indexed d-ary min-heap: the shared ordering primitive behind SimRuntime's
/// event queue and the worker's InvocationQueue.
///
/// Structural choices that drive the hot-path cost down versus the previous
/// `std::priority_queue` + tombstone-set / `std::map` implementations:
///
///  * **Indexed**: every entry's heap position is tracked in a dense
///    4-byte-per-slot position array, so `erase` (timer cancellation) is a
///    true O(log n) removal — no tombstone set, no reconciliation pass in
///    pop, and `size()` is always exact. The position array is separate
///    from the payload slab so the sift loops touch only small contiguous
///    arrays (keys + positions), never the payloads.
///  * **Slab + free list**: values (event closures, queue items) live in a
///    recycled slot array; pushing after steady state never allocates.
///  * **d-ary (d=4)**: a 4-ary layout halves the tree depth of a binary
///    heap and keeps child scans inside one or two cache lines of the
///    key array.
///
/// Handles are (slot, generation) pairs: freeing a slot bumps its
/// generation, so a stale handle (popped or already-erased entry) can never
/// alias a recycled slot — `erase` on it just returns false.
///
/// **Staleness bound**: generations are 32-bit, so a handle is only
/// guaranteed stale-safe for the first 2^32 - 1 frees of *its* slot. At the
/// measured ~66M schedule/cancel ops/s a single maximally-hot slot could
/// wrap in about a minute of wall time, after which a handle retained from
/// before the wrap would falsely validate. Callers must therefore treat
/// handles as short-lived (check/erase them within a bounded number of
/// events of issue, as SimRuntime's timers and InvocationQueue's entries
/// do), not as durable references to park indefinitely.
namespace ilu {

template <typename Key, typename Value, typename Compare = std::less<Key>>
class IndexedHeap {
 public:
  static constexpr std::uint32_t kArity = 4;

  struct Handle {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  explicit IndexedHeap(Compare cmp = Compare{}) : cmp_(std::move(cmp)) {}

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  void reserve(std::size_t n) {
    heap_.reserve(n);
    slots_.reserve(n);
    pos_.reserve(n);
  }

  Handle push(Key key, Value value) {
    std::uint32_t slot = alloc_slot(std::move(value));
    std::uint32_t pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(HeapItem{std::move(key), slot});
    pos_[slot] = pos;
    sift_up(pos);
    return Handle{slot, slots_[slot].gen};
  }

  /// Key of the minimum entry; nullptr when empty.
  const Key* peek_key() const { return heap_.empty() ? nullptr : &heap_[0].key; }

  /// Value of the minimum entry without removing it; nullptr when empty.
  const Value* peek_min() const {
    return heap_.empty() ? nullptr : &slots_[heap_[0].slot].value;
  }

  /// Remove and return the minimum entry's value (heap must be non-empty);
  /// the key is moved into *key_out when provided.
  Value pop_min(Key* key_out = nullptr) {
    assert(!heap_.empty());
    std::uint32_t slot = heap_[0].slot;
    if (key_out != nullptr) *key_out = std::move(heap_[0].key);
    Value v = std::move(slots_[slot].value);
    free_slot(slot);
    remove_at(0);
    return v;
  }

  /// True while the entry for `h` is still queued.
  bool contains(Handle h) const {
    return h.slot < slots_.size() && slots_[h.slot].gen == h.gen;
  }

  /// Remove the entry for `h`; false if it was already popped or erased.
  bool erase(Handle h) {
    if (!contains(h)) return false;
    std::uint32_t pos = pos_[h.slot];
    slots_[h.slot].value = Value{};  // release payload resources
    free_slot(h.slot);
    remove_at(pos);
    return true;
  }

 private:
  struct HeapItem {
    Key key;
    std::uint32_t slot;
  };
  struct Slot {
    Value value{};
    /// Bumped on every free; handles carry the generation they were issued
    /// under, so stale handles never match. Starts at 1 so callers can use
    /// generation 0 / encoded id 0 as an "invalid" sentinel.
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoFree;
  };
  static constexpr std::uint32_t kNoFree = 0xffffffffu;

  std::uint32_t alloc_slot(Value v) {
    std::uint32_t slot;
    if (free_head_ != kNoFree) {
      slot = free_head_;
      free_head_ = slots_[slot].next_free;
      slots_[slot].value = std::move(v);
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      slots_[slot].value = std::move(v);
      pos_.push_back(0);
    }
    return slot;
  }

  /// Caller is responsible for the payload (moved out in pop_min, reset in
  /// erase) before the slot goes on the free list.
  void free_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = slot;
  }

  /// Remove heap_[pos], restoring the heap invariant.
  void remove_at(std::uint32_t pos) {
    std::uint32_t last = static_cast<std::uint32_t>(heap_.size()) - 1;
    if (pos == last) {
      heap_.pop_back();
      return;
    }
    heap_[pos] = std::move(heap_[last]);
    pos_[heap_[pos].slot] = pos;
    heap_.pop_back();
    // The relocated entry may violate the invariant in either direction.
    if (pos > 0 && cmp_(heap_[pos].key, heap_[(pos - 1) / kArity].key)) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }

  void sift_up(std::uint32_t pos) {
    HeapItem item = std::move(heap_[pos]);
    while (pos > 0) {
      std::uint32_t parent = (pos - 1) / kArity;
      if (!cmp_(item.key, heap_[parent].key)) break;
      heap_[pos] = std::move(heap_[parent]);
      pos_[heap_[pos].slot] = pos;
      pos = parent;
    }
    heap_[pos] = std::move(item);
    pos_[heap_[pos].slot] = pos;
  }

  void sift_down(std::uint32_t pos) {
    std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    HeapItem item = std::move(heap_[pos]);
    for (;;) {
      std::uint32_t first = pos * kArity + 1;
      if (first >= n) break;
      std::uint32_t best = first;
      std::uint32_t end = first + kArity < n ? first + kArity : n;
      for (std::uint32_t c = first + 1; c < end; ++c) {
        if (cmp_(heap_[c].key, heap_[best].key)) best = c;
      }
      if (!cmp_(heap_[best].key, item.key)) break;
      heap_[pos] = std::move(heap_[best]);
      pos_[heap_[pos].slot] = pos;
      pos = best;
    }
    heap_[pos] = std::move(item);
    pos_[heap_[pos].slot] = pos;
  }

  Compare cmp_;
  std::vector<HeapItem> heap_;
  /// Heap position of each live slot (dense, 4 B/slot: L1-resident during
  /// sifts even for large queues).
  std::vector<std::uint32_t> pos_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoFree;
};

}  // namespace ilu
