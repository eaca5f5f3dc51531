#pragma once
// ilu-lint: atomics-floor(relaxed) - per-ring head_ publishes slots with an explicit release store; slot words are relaxed behind it; enabled_ is a sampling hint

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/time.hpp"

/// Always-on flight recorder (DESIGN.md §12).
///
/// A crash-safe, last-N-events trace of what the control plane was doing:
/// every hot-path milestone (invoke arrival, queue enq/deq, container
/// acquire / cold create, eviction, shard window barrier, ...) and every
/// worker stage of Table 1 stamps one fixed-size 16-byte binary record into
/// a per-thread lock-free SPSC ring.
/// The writer is the owning thread; the only reader is a post-mortem or
/// end-of-run drain. Recording is
///
///   1 relaxed enabled-load + 1 thread-local load + 2 relaxed atomic
///   stores + 1 release store
///
/// — a few nanoseconds, cheap enough to leave on in production runs (the
/// paper's control plane is instrumented the same way: observability that is
/// too expensive to leave on never observes the incident). Rings overwrite
/// their oldest records once full, so memory stays bounded at
/// capacity × 16 B per thread regardless of run length.
///
/// Post-mortem: `Recorder::install_crash_dump(path)` hooks the
/// `ILU_DCHECK` failure path (util/dcheck.hpp), so an aborting shard leaves
/// a readable binary dump of the last events on every thread. The dump
/// decodes back with `decode()` / `read_dump()` and converts to Chrome
/// trace-event JSON via `trace_tool flightdump`.
namespace ilu::flight {

/// Event codes. Values are part of the on-disk dump format: append new
/// codes, never renumber existing ones.
enum class Ev : std::uint16_t {
  kNone = 0,
  kInvokeArrival = 1,    // arg = function id
  kQueueEnq = 2,         // arg = function id
  kQueueDeq = 3,         // arg = function id
  kContainerAcquire = 4, // arg = function id (warm hit)
  kColdCreate = 5,       // arg = function id
  kEviction = 6,         // arg = function id of the victim
  kWindowBarrier = 7,    // arg = shard index
  kComplete = 8,         // arg = function id
  kFailure = 9,          // arg = function id
  kPrewarm = 10,         // arg = function id
  kLbRoute = 11,         // arg = worker index
  // Nothing records kSamplerTick any more; the code stays so older dumps
  // still decode.
  kSamplerTick = 12,     // arg = frame index
  kMemoryPark = 13,      // arg = function id (cold start parked on memory)
  kReplayMilestone = 14, // arg = percent of trace events submitted (0..100)
  // Worker stages, one per Table 1 row and in Table 1 order: ts = stage
  // start, arg = stage duration in µs (saturating at the u32 maximum).
  kStageInvoke = 15,
  kStageSyncInvoke = 16,
  kStageEnqueueInvocation = 17,
  kStageAddItemToQ = 18,
  kStageSpawnWorker = 19,
  kStageDequeue = 20,
  kStageAcquireContainer = 21,
  kStageTryLockContainer = 22,
  kStagePrepareInvoke = 23,
  kStageCallContainer = 24,
  kStageDownloadResult = 25,
  kStageReturnContainer = 26,
  kStageReturnResults = 27,
};

/// True for the worker stage codes, whose arg is a duration.
constexpr bool is_stage(Ev e) {
  return e >= Ev::kStageInvoke && e <= Ev::kStageReturnResults;
}

/// Position of a stage code in Table 1 order (0 for kStageInvoke).
constexpr std::size_t stage_index(Ev e) {
  return static_cast<std::size_t>(e) -
         static_cast<std::size_t>(Ev::kStageInvoke);
}

/// Number of worker stage codes (the 13 rows of Table 1).
inline constexpr std::size_t kStageCount =
    stage_index(Ev::kStageReturnResults) + 1;

/// Human-readable name for an event code ("?" for unknown codes).
const char* ev_name(Ev e);

/// One decoded flight record. The in-ring representation is two 64-bit
/// words: word0 = ts_us, word1 = code | (tid << 16) | (arg << 32).
struct Event {
  std::uint64_t ts_us = 0;  ///< Runtime timestamp (virtual or wall µs).
  std::uint16_t code = 0;   ///< Ev value.
  std::uint16_t tid = 0;    ///< Ring index of the recording thread.
  std::uint32_t arg = 0;    ///< Code-specific payload (fn id, shard, ...).
};
static_assert(sizeof(Event) == 16, "flight records are 16 bytes");

/// Lock-free single-producer ring with overwrite-oldest semantics. The
/// writer thread is the sole mutator; any thread may snapshot concurrently.
/// Each slot is two relaxed atomics, so a concurrent snapshot is race-free
/// by atomicity; a record the writer is lapping *during* the snapshot can
/// come out torn across its two words (acceptable for a crash dump — drains
/// of a quiescent ring are exact).
class Ring {
 public:
  Ring(std::size_t capacity_pow2, std::uint16_t tid);

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  /// Writer-thread only. Never blocks, never allocates.
  void record(std::uint64_t ts_us, Ev code, std::uint32_t arg) {
    std::uint64_t seq = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[seq & mask_];
    s.w0.store(ts_us, std::memory_order_relaxed);
    s.w1.store(static_cast<std::uint64_t>(code) |
                   (static_cast<std::uint64_t>(tid_) << 16) |
                   (static_cast<std::uint64_t>(arg) << 32),
               std::memory_order_relaxed);
    head_.store(seq + 1, std::memory_order_release);
  }

  std::uint16_t tid() const { return tid_; }
  std::size_t capacity() const { return mask_ + 1; }
  /// Total records ever written (monotonic; may exceed capacity).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }

  /// The last min(recorded, capacity) records, oldest first. Safe to call
  /// from any thread while the writer is live (see class comment).
  std::vector<Event> snapshot() const;

  /// Reader-side reset (tests): drops all records, keeps the ring.
  void clear() { head_.store(0, std::memory_order_release); }

 private:
  struct Slot {
    std::atomic<std::uint64_t> w0{0};
    std::atomic<std::uint64_t> w1{0};
  };
  std::vector<Slot> slots_;
  std::uint64_t mask_;
  std::uint16_t tid_;
  std::atomic<std::uint64_t> head_{0};
};

/// Snapshot of one ring, as dumped/decoded.
struct RingDump {
  std::uint16_t tid = 0;
  std::uint64_t recorded = 0;  ///< Lifetime record count (wrap indicator).
  std::vector<Event> events;   ///< Last min(recorded, capacity), oldest first.
};

/// Process-wide recorder: owns one ring per live recording thread. Threads
/// get their ring lazily on first record (registration is the only locked
/// path). A ring belongs to its thread until that thread exits; it then
/// returns to the recorder and the next new thread reuses it, tid and
/// earlier records included — so ring memory is bounded by the peak number
/// of concurrently recording threads, however many threads come and go.
/// A distinct instance can be constructed for tests; production call sites
/// go through the `instance()` singleton via the free `record()` below.
class Recorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 1u << 14;  // 256 KiB/thread

  explicit Recorder(bool enabled = true,
                    std::size_t ring_capacity = kDefaultRingCapacity);

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// The process-wide always-on instance.
  static Recorder& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// The calling thread's ring (registering or reusing one on first use).
  Ring& local_ring();

  /// Stamp one record on the calling thread's ring. The enabled check is a
  /// single relaxed load; disabled cost is unmeasurable.
  void record(std::uint64_t ts_us, Ev code, std::uint32_t arg) {
    if (!enabled()) return;
    local_ring().record(ts_us, code, arg);
  }

  /// Rings ever created: the peak number of concurrently recording
  /// threads, not the number of threads that ever recorded.
  std::size_t ring_count() const;
  /// Snapshot every ring (concurrent-safe; see Ring::snapshot).
  std::vector<RingDump> snapshot_all() const;
  /// Total records ever written across all rings.
  std::uint64_t recorded() const;

  /// Binary dump of all rings (format below). Returns bytes written.
  std::size_t dump(std::ostream& out) const;
  /// Dump to a file; returns false (and leaves no file contract) on I/O
  /// error — the abort path must never throw.
  bool dump_to_file(const std::string& path) const;

  /// Arrange for the singleton to dump to `path` when an ILU_DCHECK fails
  /// (hooks util/dcheck.hpp's pre-abort callback). Passing "" uninstalls.
  static void install_crash_dump(std::string path);

  /// Drop all records on all rings (tests / between benchmark phases).
  void clear();

 private:
  /// Ring storage, shared with each recording thread's ring cache: a thread
  /// that exits after its recorder was destroyed finds the set expired and
  /// leaves it alone.
  struct RingSet {
    std::mutex mu;
    std::vector<std::unique_ptr<Ring>> rings;
    /// Rings of exited threads, handed to the next new thread (LIFO).
    std::vector<Ring*> idle;
  };
  /// The per-thread ring cache (flight.cpp); returns its rings on thread
  /// exit.
  struct ThreadRings;

  const std::size_t ring_capacity_;
  const std::uint64_t uid_;  // keys the thread-local ring cache
  std::atomic<bool> enabled_;
  const std::shared_ptr<RingSet> set_;
};

/// Hot-path entry point: stamp on the process-wide recorder.
inline void record(std::uint64_t ts_us, Ev code, std::uint32_t arg) {
  Recorder::instance().record(ts_us, code, arg);
}
/// Convenience overload taking the runtime TimePoint directly.
inline void record(TimePoint ts, Ev code, std::uint32_t arg) {
  record(static_cast<std::uint64_t>(ts.count()), code, arg);
}

// --------------------------------------------------------------------------
// Dump format (ilu-flight-v1)
//
//   u64 magic "ILUFDR\x01\0"   (little-endian constant kDumpMagic)
//   u32 ring_count
//   per ring:
//     u16 tid, u16 reserved(0), u32 event_count, u64 recorded,
//     event_count × { u64 w0, u64 w1 }   (oldest first)
//
// All integers little-endian (the serializer writes bytes explicitly, so
// dumps are portable across hosts).
// --------------------------------------------------------------------------

inline constexpr std::uint64_t kDumpMagic = 0x0001524446554C49ull;  // "ILUFDR\x01"

/// Decode a binary dump produced by Recorder::dump. Throws
/// std::runtime_error on malformed input.
std::vector<RingDump> decode(const std::string& bytes);
/// Read + decode a dump file.
std::vector<RingDump> read_dump(const std::string& path);

/// Convert decoded rings to a Chrome trace-event JSON document string:
/// one event per record, ts in µs, tid = ring id, name = ev_name(code),
/// args = {"arg": arg, "seq": position}. Stage records are complete events
/// ("ph":"X", dur = arg) so a trace viewer draws each stage as a slice;
/// every other code is an instant event ("ph":"i"). Events are merged
/// across rings and sorted by (ts, tid, position) so the output is stable
/// for a given dump.
std::string chrome_trace_json(const std::vector<RingDump>& rings, int pid = 0);

/// Table 1 view of a set of rings: record count and summed duration per
/// worker stage.
struct StageTotals {
  std::array<std::uint64_t, kStageCount> count{};
  std::array<std::uint64_t, kStageCount> sum_us{};
  /// Some ring overwrote records, so the totals miss its oldest stages.
  bool wrapped = false;

  std::uint64_t count_of(Ev stage) const { return count[stage_index(stage)]; }
  /// Mean stage duration in ms (0 when the stage was never recorded).
  double mean_ms(Ev stage) const;
};

/// Fold ring snapshots (`Recorder::snapshot_all()` of a live run, or
/// `read_dump()` of a file) into per-stage totals.
StageTotals fold_stages(const std::vector<RingDump>& rings);

}  // namespace ilu::flight
