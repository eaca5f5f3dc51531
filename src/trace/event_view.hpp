#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "trace/workload.hpp"

/// Branch-free replay view over any event storage (DESIGN.md §13).
///
/// Each logical column (at_us, fn) is a strided load plus a constant
/// shift/mask, so the same OpenLoopDriver hot loop replays
///
///   - an AoS `Trace`     (16-byte TraceEvent stride),
///   - packed u64 keys    ((at_us << 20) | fn, in RAM or mmap'd from an
///                         ilu-arena-v1 file)
///
/// with zero per-event branching. Loads go through std::memcpy, so the view
/// is alignment- and aliasing-safe over mmap'd bytes; the packed-key layout
/// additionally assumes little-endian hosts (asserted below), which is also
/// what the on-disk format specifies.
namespace ilu {

static_assert(std::endian::native == std::endian::little,
              "packed event views and the ilu-arena-v1 format are "
              "little-endian");

class EventView {
 public:
  EventView() = default;

  /// View over an AoS trace. The trace must outlive the view.
  explicit EventView(const Trace& t)
      : at_base_(reinterpret_cast<const std::byte*>(t.events.data())),
        fn_base_(reinterpret_cast<const std::byte*>(t.events.data()) +
                 offsetof(TraceEvent, fn)),
        count_(t.events.size()),
        at_stride_(sizeof(TraceEvent)),
        fn_stride_(sizeof(TraceEvent)) {}

  /// View over `n` packed `(at_us << 20) | fn` keys (sorted or not — the
  /// view itself imposes no order). The storage must outlive the view.
  static EventView packed(const std::uint64_t* keys, std::size_t n) {
    EventView v;
    v.at_base_ = reinterpret_cast<const std::byte*>(keys);
    // Little-endian: the low 32 bits of a key are its first 4 bytes, and
    // the fn field lives entirely inside them.
    v.fn_base_ = reinterpret_cast<const std::byte*>(keys);
    v.count_ = n;
    v.at_stride_ = sizeof(std::uint64_t);
    v.fn_stride_ = sizeof(std::uint64_t);
    v.at_shift_ = PackedKey::kFnBits;
    v.fn_mask_ = static_cast<std::uint32_t>(PackedKey::kMaxFn);
    return v;
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  TimePoint at(std::size_t i) const {
    std::uint64_t w;
    std::memcpy(&w, at_base_ + i * at_stride_, sizeof w);
    return Duration{static_cast<std::int64_t>(w >> at_shift_)};
  }

  FunctionId fn(std::size_t i) const {
    std::uint32_t w;
    std::memcpy(&w, fn_base_ + i * fn_stride_, sizeof w);
    return static_cast<FunctionId>(w & fn_mask_);
  }

 private:
  const std::byte* at_base_ = nullptr;
  const std::byte* fn_base_ = nullptr;
  std::size_t count_ = 0;
  std::size_t at_stride_ = 0;
  std::size_t fn_stride_ = 0;
  unsigned at_shift_ = 0;
  std::uint32_t fn_mask_ = 0xFFFFFFFFu;
};

}  // namespace ilu
