#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/event_view.hpp"
#include "trace/workload.hpp"

/// On-disk trace arenas: the `ilu-arena-v1` binary format (DESIGN.md §13).
///
/// An in-RAM Trace holds every event; Azure-scale experiments need
/// day-long traces of a million functions and 10^8 invocations — gigabytes
/// of events that must never be materialized. This file format stores the
/// function-profile table (small, O(functions)) followed by one flat column
/// of packed `(at_us << 20) | fn` u64 keys, sorted ascending — exactly the
/// PackedKey representation, so an mmap of the key column *is* a replayable
/// EventView with zero decode. It is the repo's one trace file format.
///
/// Layout (all integers little-endian; keys page-aligned so the column can
/// be madvised and released independently of the header):
///
///   offset 0: header, 96 bytes
///     u64 magic            "ILUARN\x01\0" (kArenaMagic)
///     u32 version          1
///     u32 header_bytes     96
///     u64 num_functions
///     u64 num_events
///     i64 duration_us
///     u64 keys_offset      4096-aligned start of the key column
///     u64 keys_checksum    FNV-1a over the raw key bytes
///     u64 meta_checksum    FNV-1a over bytes [0, keys_offset) with this
///                          field zeroed — covers header + function table
///     u64 reserved[4]      0
///   offset 96: function table, num_functions records
///     u32 name_len, name bytes, u32 mem_mb, i64 warm_us, i64 init_us,
///     f64 cpus
///   zero padding to keys_offset
///   offset keys_offset: num_events × u64 packed keys, sorted ascending
///
/// Opening is strict and O(functions): magic, version, sizes, counts, and
/// the meta checksum are all verified, and the key column must hold exactly
/// num_events keys (file size == keys_offset + 8 × num_events). Key-column
/// integrity (sortedness, fn bounds, checksum) is an O(events) scan
/// deferred to verify(), so that replay itself touches each key page
/// exactly once.
namespace ilu {

inline constexpr std::uint64_t kArenaMagic = 0x00014E5241554C49ull;  // "ILUARN\x01\0"
inline constexpr std::uint32_t kArenaVersion = 1;
inline constexpr std::uint32_t kArenaHeaderBytes = 96;
inline constexpr std::size_t kArenaKeyAlign = 4096;

/// Streaming writer: header + function table up front, then sorted key
/// chunks appended in order (the chunked generator's k-way merge feeds
/// this), finalized by rewriting the header with the real counts and
/// checksums. Appends are validated: a key below its predecessor throws, so
/// an unsorted arena can never be produced by this writer.
class ArenaFileWriter {
 public:
  explicit ArenaFileWriter(const std::string& path);
  ~ArenaFileWriter();

  ArenaFileWriter(const ArenaFileWriter&) = delete;
  ArenaFileWriter& operator=(const ArenaFileWriter&) = delete;

  /// Write the header placeholder and function table. Must be called once,
  /// before any append_keys.
  void begin(const std::vector<FunctionProfile>& functions, Duration duration);

  /// Append `n` keys, ascending within the chunk and not below the last key
  /// of the previous chunk (throws std::logic_error otherwise).
  void append_keys(const std::uint64_t* keys, std::size_t n);

  /// Rewrite the header with final counts/checksums and close the file.
  /// Returns total file bytes. The writer is unusable afterwards.
  std::uint64_t finalize();

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  std::size_t num_functions_ = 0;
  std::int64_t duration_us_ = 0;
  std::uint64_t keys_offset_ = 0;
  std::uint64_t num_events_ = 0;
  std::uint64_t keys_checksum_;
  std::uint64_t last_key_ = 0;
  bool begun_ = false;
};

/// Write an in-RAM trace to `path`: packs its events and sorts the keys.
/// Every generator emits same-microsecond events in function order, so the
/// sort leaves a generated trace's event order unchanged.
void write_arena_file(const Trace& trace, const std::string& path);

/// Memory-mapped reader. Opening parses and strictly validates the header
/// and function table (throws std::runtime_error on any malformation), maps
/// the whole file read-only, and advises the kernel that the key column
/// will be read sequentially. Peak RSS of a replay is O(functions) plus the
/// sliding window of key pages the kernel keeps resident; call
/// release_keys_before() during replay to actively drop consumed pages.
class ArenaFile {
 public:
  explicit ArenaFile(const std::string& path);
  ~ArenaFile();

  ArenaFile(const ArenaFile&) = delete;
  ArenaFile& operator=(const ArenaFile&) = delete;
  ArenaFile(ArenaFile&& other) noexcept;
  ArenaFile& operator=(ArenaFile&& other) noexcept;

  const std::string& path() const { return path_; }
  const std::vector<FunctionProfile>& functions() const { return functions_; }
  Duration duration() const { return Duration{duration_us_}; }
  std::size_t size() const { return num_events_; }
  std::uint64_t file_bytes() const { return map_len_; }
  std::uint64_t keys_checksum() const { return keys_checksum_; }

  /// The mmap'd key column (valid while the ArenaFile lives).
  const std::uint64_t* keys() const {
    return reinterpret_cast<const std::uint64_t*>(
        static_cast<const std::byte*>(map_) + keys_offset_);
  }
  TimePoint at(std::size_t i) const { return PackedKey::key_at(keys()[i]); }
  FunctionId fn(std::size_t i) const { return PackedKey::key_fn(keys()[i]); }

  /// Replay view over the mmap'd keys — feed straight to OpenLoopDriver.
  EventView view() const { return EventView::packed(keys(), num_events_); }

  /// Full O(events) integrity scan: keys sorted ascending, every fn within
  /// the function table, timestamps within [0, duration], and the stored
  /// key checksum matches. Throws std::runtime_error on the first failure.
  /// Reads every key page (don't interleave with a streaming replay).
  void verify() const;

  /// Drop the mmap'd pages holding keys [0, n) back to the kernel
  /// (MADV_DONTNEED on the fully-consumed whole pages). Called periodically
  /// by streaming replays so peak RSS stays a window, not the file size.
  /// Re-reading released keys is legal (they fault back in from the file).
  void release_keys_before(std::size_t n);

  /// Materialize an in-RAM Trace (tests / small files only: O(events)
  /// memory by definition).
  Trace to_trace() const;

 private:
  void close();

  std::string path_;
  void* map_ = nullptr;
  std::uint64_t map_len_ = 0;
  std::uint64_t keys_offset_ = 0;
  std::uint64_t num_events_ = 0;
  std::int64_t duration_us_ = 0;
  std::uint64_t keys_checksum_ = 0;
  std::uint64_t released_bytes_ = 0;
  std::vector<FunctionProfile> functions_;
};

}  // namespace ilu
