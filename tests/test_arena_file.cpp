// Tests for the ilu-arena-v1 on-disk format (DESIGN.md §13): packed-key
// round-trips, the EventView column abstraction over in-RAM and mmap'd
// storage, strict-open rejection of malformed files, the deferred verify()
// integrity scan, and the determinism contract of the chunked generator
// (byte-identical to a one-shot build_trace + write_arena_file pass).

#include "trace/arena_file.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "trace/arena_gen.hpp"
#include "trace/azure.hpp"
#include "trace/event_view.hpp"
#include "trace/workload.hpp"
#include "util/hash.hpp"

namespace ilu {
namespace {

namespace fs = std::filesystem;

std::string tmp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Two events share 2 s (fn 0, then fn 1), so a round trip also checks
/// the order of same-microsecond events.
Trace tiny_trace() {
  Trace t;
  FunctionProfile p0;
  p0.name = "fn_a";
  p0.mem_mb = 128;
  p0.warm_time = msecs(100);
  p0.init_time = secs(2);
  FunctionProfile p1 = p0;
  p1.name = "fn_b";
  p1.mem_mb = 512;
  p1.cpus = 2.0;
  t.functions = {p0, p1};
  t.duration = secs(10);
  t.events = {{usecs(0), 0},
              {usecs(1'000'000), 1},
              {usecs(2'000'000), 0},
              {usecs(2'000'000), 1},
              {usecs(9'999'999), 0}};
  return t;
}

std::string write_tiny(const std::string& name) {
  auto path = tmp_path(name);
  write_arena_file(tiny_trace(), path);
  return path;
}

// ---------------------------------------------------------------- pack keys

TEST(PackedKeys, RoundTripBoundaries) {
  struct Case {
    std::int64_t at_us;
    FunctionId fn;
  } cases[] = {
      {0, 0},
      {0, static_cast<FunctionId>(PackedKey::kMaxFn)},
      {PackedKey::kMaxUs, 0},
      {PackedKey::kMaxUs, static_cast<FunctionId>(PackedKey::kMaxFn)},
      {123'456'789, 54321},
  };
  for (const auto& c : cases) {
    std::uint64_t k = PackedKey::pack(TimePoint{c.at_us}, c.fn);
    EXPECT_EQ(PackedKey::key_at(k).count(), c.at_us);
    EXPECT_EQ(PackedKey::key_fn(k), c.fn);
  }
}

TEST(PackedKeys, SortOrderIsTimeMajor) {
  // Same timestamp sorts by fn; later timestamp always sorts after, even
  // with a smaller fn.
  auto k = [](std::int64_t us, FunctionId fn) {
    return PackedKey::pack(TimePoint{us}, fn);
  };
  EXPECT_LT(k(5, 1), k(5, 2));
  EXPECT_LT(k(5, static_cast<FunctionId>(PackedKey::kMaxFn)), k(6, 0));
}

// ---------------------------------------------------------------- EventView

TEST(EventViewLayouts, AllThreeLayoutsAgree) {
  // The AoS trace, its packed keys in RAM, and the same keys mmap'd from a
  // file written from the trace.
  Trace trace = tiny_trace();
  std::vector<std::uint64_t> keys;
  for (const TraceEvent& e : trace.events)
    keys.push_back(PackedKey::pack(e.at, e.fn));
  auto path = write_tiny("ilu_layouts.arena");
  ArenaFile file(path);

  EventView aos(trace);
  EventView packed = EventView::packed(keys.data(), keys.size());
  EventView mapped = file.view();
  ASSERT_EQ(aos.size(), trace.events.size());
  ASSERT_EQ(packed.size(), trace.events.size());
  ASSERT_EQ(mapped.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    EXPECT_EQ(aos.at(i), trace.events[i].at) << i;
    EXPECT_EQ(aos.fn(i), trace.events[i].fn) << i;
    EXPECT_EQ(aos.at(i), packed.at(i)) << i;
    EXPECT_EQ(aos.fn(i), packed.fn(i)) << i;
    EXPECT_EQ(aos.at(i), mapped.at(i)) << i;
    EXPECT_EQ(aos.fn(i), mapped.fn(i)) << i;
  }
  std::remove(path.c_str());
}

// --------------------------------------------------------------- round trip

TEST(ArenaFile, RoundTripPreservesEverything) {
  auto path = write_tiny("ilu_rt.arena");
  ArenaFile f(path);
  EXPECT_EQ(f.size(), 5u);
  EXPECT_EQ(f.duration(), secs(10));
  ASSERT_EQ(f.functions().size(), 2u);
  EXPECT_EQ(f.functions()[0].name, "fn_a");
  EXPECT_EQ(f.functions()[1].name, "fn_b");
  EXPECT_EQ(f.functions()[1].mem_mb, 512u);
  EXPECT_EQ(f.functions()[1].cpus, 2.0);
  EXPECT_EQ(f.functions()[0].warm_time, msecs(100));
  EXPECT_EQ(f.functions()[0].init_time, secs(2));
  f.verify();  // full integrity scan must pass on a fresh file

  Trace back = f.to_trace();
  Trace orig = tiny_trace();
  EXPECT_EQ(back.duration, orig.duration);
  ASSERT_EQ(back.functions.size(), orig.functions.size());
  ASSERT_EQ(back.events.size(), orig.events.size());
  for (std::size_t i = 0; i < orig.events.size(); ++i) {
    EXPECT_EQ(back.events[i].at, orig.events[i].at) << i;
    EXPECT_EQ(back.events[i].fn, orig.events[i].fn) << i;
  }
  std::remove(path.c_str());
}

TEST(ArenaFile, MissingFileThrows) {
  EXPECT_THROW(ArenaFile f(tmp_path("ilu_no_such_file.arena")),
               std::runtime_error);
}

TEST(ArenaFile, ViewMatchesAccessors) {
  auto path = write_tiny("ilu_view.arena");
  ArenaFile f(path);
  EventView v = f.view();
  ASSERT_EQ(v.size(), f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(v.at(i), f.at(i));
    EXPECT_EQ(v.fn(i), f.fn(i));
  }
  std::remove(path.c_str());
}

TEST(ArenaFile, KeyColumnIsPageAligned) {
  auto path = write_tiny("ilu_align.arena");
  ArenaFile f(path);
  auto addr = reinterpret_cast<std::uintptr_t>(f.keys());
  EXPECT_EQ(addr % kArenaKeyAlign, 0u);
  std::remove(path.c_str());
}

TEST(ArenaFile, ReleaseKeysBeforeKeepsDataReadable) {
  // Build a file big enough to span several pages so the madvise path
  // actually fires, then release mid-column and re-read everything.
  Trace t;
  FunctionProfile p;
  p.name = "f";
  p.warm_time = msecs(1);
  p.init_time = msecs(2);
  t.functions = {p};
  for (std::int64_t i = 0; i < 4096; ++i) {
    t.events.push_back({usecs(i * 1000), 0});
  }
  t.duration = secs(10);
  auto path = tmp_path("ilu_release.arena");
  write_arena_file(t, path);

  ArenaFile f(path);
  for (std::size_t i = 0; i < f.size(); ++i)
    EXPECT_EQ(f.at(i).count(), std::int64_t(i) * 1000);
  f.release_keys_before(f.size() / 2);
  f.release_keys_before(f.size());
  // Released pages fault back in from the file — values unchanged.
  for (std::size_t i = 0; i < f.size(); ++i) {
    ASSERT_EQ(f.at(i).count(), std::int64_t(i) * 1000) << i;
    ASSERT_EQ(f.fn(i), 0u);
  }
  f.verify();
  std::remove(path.c_str());
}

// ------------------------------------------------------------------- writer

TEST(ArenaFileWriter, RejectsOutOfOrderKeys) {
  auto path = tmp_path("ilu_unsorted_w.arena");
  ArenaFileWriter w(path);
  FunctionProfile p;
  p.name = "f";
  w.begin({p}, secs(1));
  std::uint64_t keys[] = {PackedKey::pack(TimePoint{5}, 0),
                          PackedKey::pack(TimePoint{3}, 0)};
  EXPECT_THROW(w.append_keys(keys, 2), std::logic_error);
  std::remove(path.c_str());
}

TEST(ArenaFileWriter, RejectsUnknownFunction) {
  auto path = tmp_path("ilu_badfn_w.arena");
  ArenaFileWriter w(path);
  FunctionProfile p;
  p.name = "f";
  w.begin({p}, secs(1));
  std::uint64_t key = PackedKey::pack(TimePoint{1}, 1);  // only fn 0 exists
  EXPECT_THROW(w.append_keys(&key, 1), std::logic_error);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- strict open

class ArenaFileCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each discovered test as its own process, possibly in
    // parallel — the fixture path must be unique per test.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = write_tiny(std::string("ilu_corrupt_") + info->name() + ".arena");
    bytes_ = slurp(path_);
    ASSERT_GT(bytes_.size(), kArenaHeaderBytes);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void expect_open_throws() {
    dump(path_, bytes_);
    EXPECT_THROW(ArenaFile f(path_), std::runtime_error);
  }

  std::string path_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(ArenaFileCorruption, BadMagic) {
  bytes_[0] ^= 0xFF;
  expect_open_throws();
}

TEST_F(ArenaFileCorruption, BadVersion) {
  bytes_[8] = 99;  // u32 version at offset 8
  expect_open_throws();
}

TEST_F(ArenaFileCorruption, TruncatedHeader) {
  bytes_.resize(kArenaHeaderBytes / 2);
  expect_open_throws();
}

TEST_F(ArenaFileCorruption, TruncatedKeyColumn) {
  bytes_.resize(bytes_.size() - 8);  // drop the last key: size mismatch
  expect_open_throws();
}

TEST_F(ArenaFileCorruption, TrailingGarbage) {
  bytes_.push_back(0);  // file larger than keys_offset + 8*num_events
  expect_open_throws();
}

TEST_F(ArenaFileCorruption, CorruptFunctionTableFailsMetaChecksum) {
  bytes_[kArenaHeaderBytes + 4] ^= 0xFF;  // first byte of fn 0's name
  expect_open_throws();
}

TEST_F(ArenaFileCorruption, CorruptHeaderFieldFailsMetaChecksum) {
  bytes_[24] ^= 0x01;  // num_events low byte: counts no longer match checksum
  expect_open_throws();
}

// 2^61 keys of 8 bytes is 2^64 bytes, which wraps to 0: a file whose key
// column is cut off entirely must not pass the exact-size check with that
// count, even with a valid meta checksum.
TEST_F(ArenaFileCorruption, EventCountWrapsKeyColumnSize) {
  auto get_u64 = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<std::uint64_t>(bytes_[off + b]) << (8 * b);
    }
    return v;
  };
  auto put_u64 = [&](std::size_t off, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      bytes_[off + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  };
  // Header field offsets (arena_file.hpp).
  constexpr std::size_t kNumEventsAt = 24, kKeysOffsetAt = 40,
                        kMetaChecksumAt = 56;
  const std::uint64_t keys_offset = get_u64(kKeysOffsetAt);
  ASSERT_LT(keys_offset, bytes_.size());
  bytes_.resize(keys_offset);
  put_u64(kNumEventsAt, 1ull << 61);
  // The meta checksum covers [0, keys_offset) with its own field zeroed.
  put_u64(kMetaChecksumAt, 0);
  put_u64(kMetaChecksumAt, fnv1a64_bytes(bytes_.data(), bytes_.size()));
  expect_open_throws();
}

// Key-column damage passes the O(functions) open but must fail verify().
TEST_F(ArenaFileCorruption, FlippedKeyByteFailsVerify) {
  bytes_[bytes_.size() - 1] ^= 0x01;  // top byte of the last key
  dump(path_, bytes_);
  ArenaFile f(path_);  // strict open only covers header + function table
  EXPECT_THROW(f.verify(), std::runtime_error);
}

TEST_F(ArenaFileCorruption, UnsortedKeysFailVerify) {
  // Swap the first two keys; refresh the stored checksum so the sortedness
  // check (not the checksum) is what trips.
  const std::size_t keys_off = bytes_.size() - 5 * 8;
  for (int b = 0; b < 8; ++b)
    std::swap(bytes_[keys_off + b], bytes_[keys_off + 8 + b]);
  dump(path_, bytes_);
  EXPECT_THROW(
      {
        ArenaFile f(path_);
        f.verify();
      },
      std::runtime_error);
}

// --------------------------------------------------- chunked generation

TEST(ArenaGen, ChunkedFileByteIdenticalToOneShot) {
  AzureModelConfig cfg;
  cfg.population = 600;
  cfg.days = 0.05;
  cfg.seed = 99;
  AzureTraceModel model(cfg);
  std::vector<std::size_t> idx(600);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  auto one_shot = tmp_path("ilu_gen_oneshot.arena");
  write_arena_file(model.build_trace(idx, 1.0), one_shot);

  // Deliberately awkward chunk size (not a divisor of 600) to exercise the
  // short final chunk and a real k-way merge.
  ArenaGenConfig gcfg;
  gcfg.chunk_functions = 37;
  auto chunked = tmp_path("ilu_gen_chunked.arena");
  auto stats = generate_arena_file(model, idx, 1.0, chunked, gcfg);
  EXPECT_EQ(stats.functions, 600u);
  EXPECT_GT(stats.chunks, 1u);
  EXPECT_GT(stats.events, 0u);

  EXPECT_EQ(slurp(one_shot), slurp(chunked));
  ArenaFile f(chunked);
  f.verify();
  EXPECT_EQ(f.size(), stats.events);
  std::remove(one_shot.c_str());
  std::remove(chunked.c_str());
}

TEST(ArenaGen, SingleChunkFastPathMatchesToo) {
  AzureModelConfig cfg;
  cfg.population = 200;
  cfg.days = 0.05;
  cfg.seed = 7;
  AzureTraceModel model(cfg);
  std::vector<std::size_t> idx(200);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  auto one_shot = tmp_path("ilu_gen_oneshot2.arena");
  write_arena_file(model.build_trace(idx, 1.0), one_shot);
  auto single = tmp_path("ilu_gen_single.arena");
  auto stats = generate_arena_file(model, idx, 1.0, single);  // default chunk > 200
  EXPECT_EQ(stats.chunks, 1u);
  EXPECT_EQ(slurp(one_shot), slurp(single));
  std::remove(one_shot.c_str());
  std::remove(single.c_str());
}

TEST(ArenaGen, RateScaleHitsTargetEvents) {
  AzureModelConfig cfg;
  cfg.population = 500;
  cfg.days = 0.1;
  cfg.seed = 3;
  AzureTraceModel model(cfg);
  std::vector<std::size_t> idx(500);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  const double target = 20000.0;
  double scale = rate_scale_for_target_events(model, idx, target);
  ASSERT_GT(scale, 0.0);
  auto path = tmp_path("ilu_gen_target.arena");
  auto stats = generate_arena_file(model, idx, scale, path);
  // Realized count is Poisson around the analytic expectation; 10% slack is
  // generous at 2e4 events (sigma ~ sqrt(target) ≈ 0.7%).
  EXPECT_NEAR(static_cast<double>(stats.events), target, 0.1 * target);
  std::remove(path.c_str());
}

TEST(ArenaGen, ProgressCallbackCoversAllFunctions) {
  AzureModelConfig cfg;
  cfg.population = 100;
  cfg.days = 0.02;
  AzureTraceModel model(cfg);
  std::vector<std::size_t> idx(100);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;

  ArenaGenConfig gcfg;
  gcfg.chunk_functions = 30;
  std::size_t last_fns = 0;
  std::uint64_t last_events = 0;
  std::size_t calls = 0;
  gcfg.progress = [&](std::size_t fns, std::uint64_t events) {
    EXPECT_GE(fns, last_fns);
    EXPECT_GE(events, last_events);
    last_fns = fns;
    last_events = events;
    ++calls;
  };
  auto path = tmp_path("ilu_gen_progress.arena");
  auto stats = generate_arena_file(model, idx, 1.0, path, gcfg);
  EXPECT_EQ(calls, stats.chunks);
  EXPECT_EQ(last_fns, 100u);
  EXPECT_EQ(last_events, stats.events);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ilu
