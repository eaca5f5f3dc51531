#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "keepalive/policy.hpp"
#include "runtime/slab.hpp"

/// A container/sandbox as managed by the worker's container layer. State
/// transitions follow the paper's lifecycle: Provisioning (image, netns,
/// agent start) -> Running (its cold invocation) or Idle (a parked prewarm),
/// then Idle <-> Running -> Removed.
namespace ilu {

using ContainerId = std::uint64_t;

/// Generation-checked reference to a container record in the pool's
/// `ContainerStore` (DESIGN.md §11). Replaces `Container*` everywhere a
/// container outlives one call frame: worker continuations capture handles
/// by value, and a handle retained past eviction fails `contains()` instead
/// of silently aliasing a recycled record.
struct ContainerHandle {
  std::uint32_t index = 0;
  /// Live generations are odd; 0 marks a default-constructed (null) handle.
  std::uint32_t gen = 0;

  bool valid() const { return gen != 0; }
  friend bool operator==(const ContainerHandle&,
                         const ContainerHandle&) = default;
};

enum class ContainerState {
  Provisioning,
  Idle,
  Running,
  Removed,
};

struct Container {
  ContainerId id = 0;
  FunctionId fn = 0;
  ContainerState state = ContainerState::Provisioning;
  /// Keep-alive bookkeeping shared with the cache policies; `entry.mem_mb`
  /// is the memory the pool charges for this container. The function's
  /// profile stays in the owner's function table, looked up by `fn`.
  CacheEntry entry;
  /// Network namespace assigned from the pool (0 = none yet).
  std::uint64_t netns_id = 0;
  /// Whether the cached per-container HTTP client exists yet; the first
  /// agent call on a fresh container pays connection setup (§4.3.1).
  bool http_client_cached = false;
  /// Parked by a prewarm and not yet used by an invocation: an expiry of
  /// such a container asks for no new prewarm.
  bool prewarm_parked = false;

  /// Intrusive links for the pool's per-function idle list (a LIFO stack:
  /// head is the most recently used container). Maintained by ContainerPool
  /// while state == Idle; null otherwise.
  ContainerHandle idle_prev;
  ContainerHandle idle_next;
  /// Position in the pool's eviction-rank heap while idle, stored as the
  /// raw {slot, gen} of an IndexedHeap handle (same flattening SimRuntime
  /// uses for TimerId). Zero gen = not in the rank index.
  std::uint32_t rank_slot = 0;
  std::uint32_t rank_gen = 0;
};

/// Slab owner of every container record; `ContainerHandle` indexes into it.
using ContainerStore = Slab<Container, ContainerHandle>;

}  // namespace ilu
