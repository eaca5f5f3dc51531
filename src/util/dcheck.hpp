#pragma once
// ilu-lint: atomics-floor(acquire) - owner_ hand-off is a release-store/acquire-load pair; anything weaker loses the happens-before the auditor asserts

#include <cstdio>
#include <cstdlib>

/// Debug-build invariant checking (DESIGN.md §10).
///
/// ILU_DCHECK(cond, msg) aborts with a file:line message when `cond` is
/// false; ILU_ASSERT_OWNER(rec, what) asserts the calling thread is the one
/// recorded in an OwnerRecord. Both compile to nothing in
/// Release builds (NDEBUG), so the event hot path pays zero cost there; a
/// Debug build — or any build configured with -DILU_DEBUG_CHECKS=ON — turns
/// cross-thread ownership violations into deterministic aborts instead of
/// TSan-only findings.
///
/// ILU_DEBUG_CHECKS can be forced from the build system (the CMake option
/// defines it =1 tree-wide); otherwise it follows NDEBUG.
#ifndef ILU_DEBUG_CHECKS
#ifdef NDEBUG
#define ILU_DEBUG_CHECKS 0
#else
#define ILU_DEBUG_CHECKS 1
#endif
#endif

#if ILU_DEBUG_CHECKS
// This header is the one sanctioned home for thread-identity primitives
// outside the runtime/experiment layers; the linter's raw-thread check
// allowlists util/dcheck.* for exactly this block.
#include <atomic>
#include <thread>
#endif

namespace ilu {

namespace detail {

/// Optional pre-abort dump hook: runs once after the failure message is
/// printed, before std::abort(). The flight recorder (obs/flight.cpp)
/// registers a dump of every thread's last-N event ring here, so a crashing
/// shard leaves a post-mortem trace. Set at static-initialization time.
using DcheckDumpFn = void (*)();
inline DcheckDumpFn g_dcheck_dump = nullptr;

[[noreturn]] inline void dcheck_fail(const char* file, int line,
                                     const char* expr, const char* msg) {
  std::fprintf(stderr, "ILU_DCHECK failed: %s:%d: (%s) %s\n", file, line,
               expr, msg);
  if (g_dcheck_dump != nullptr) g_dcheck_dump();
  std::abort();
}

}  // namespace detail

#if ILU_DEBUG_CHECKS

/// Records which thread owns a single-threaded object (a SimRuntime shard).
/// bind() hands ownership to the calling thread; assert_held() aborts when
/// any other thread touches the object. The atomic makes the auditor itself
/// race-free: a cross-thread violation aborts deterministically rather than
/// being itself a data race on the owner field.
class OwnerRecord {
 public:
  OwnerRecord() noexcept { bind(); }

  /// Hand ownership to the calling thread. Legitimate handoffs (a sharded
  /// window loop starting, control returning to the driver after a join)
  /// must be externally synchronized — bind() publishes, it does not lock.
  void bind() noexcept {
    owner_.store(std::this_thread::get_id(), std::memory_order_release);
  }

  void assert_held(const char* file, int line, const char* what) const {
    if (owner_.load(std::memory_order_acquire) !=
        std::this_thread::get_id()) {
      detail::dcheck_fail(file, line, what,
                          "called from a thread that does not own this "
                          "runtime (cross-shard access outside the merge "
                          "window?)");
    }
  }

 private:
  std::atomic<std::thread::id> owner_;
};

#define ILU_DCHECK(cond, msg) \
  ((cond) ? (void)0 : ::ilu::detail::dcheck_fail(__FILE__, __LINE__, #cond, msg))
#define ILU_ASSERT_OWNER(rec, what) \
  (rec).assert_held(__FILE__, __LINE__, what)

#else  // !ILU_DEBUG_CHECKS

/// Release stub: empty, and every call compiles away entirely.
class OwnerRecord {
 public:
  void bind() noexcept {}
  void assert_held(const char*, int, const char*) const noexcept {}
};

#define ILU_DCHECK(cond, msg) ((void)0)
#define ILU_ASSERT_OWNER(rec, what) ((void)0)

#endif  // ILU_DEBUG_CHECKS

}  // namespace ilu
