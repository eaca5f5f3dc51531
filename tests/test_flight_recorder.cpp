// Flight recorder (obs/flight): ring wrap semantics, concurrent write+drain
// (run under TSan in the sanitizer matrix), binary dump round-trip, Chrome
// trace conversion, the worker-stage fold, and the dump-on-ILU_DCHECK-abort
// hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "util/dcheck.hpp"
#include "util/json.hpp"

namespace ilu {
namespace {

using flight::Ev;
using flight::Event;
using flight::Recorder;
using flight::Ring;
using flight::RingDump;

TEST(FlightRing, FillsInOrderBeforeWrap) {
  Ring r(8, /*tid=*/3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    r.record(100 + i, Ev::kQueueEnq, static_cast<std::uint32_t>(i));
  }
  auto ev = r.snapshot();
  ASSERT_EQ(ev.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ev[i].ts_us, 100 + i);
    EXPECT_EQ(ev[i].code, static_cast<std::uint16_t>(Ev::kQueueEnq));
    EXPECT_EQ(ev[i].tid, 3);
    EXPECT_EQ(ev[i].arg, i);
  }
  EXPECT_EQ(r.recorded(), 5u);
}

TEST(FlightRing, WrapKeepsLastCapacityRecords) {
  constexpr std::size_t kCap = 16;
  Ring r(kCap, 0);
  constexpr std::uint64_t kTotal = 3 * kCap + 5;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    r.record(i, Ev::kComplete, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(r.recorded(), kTotal);
  auto ev = r.snapshot();
  ASSERT_EQ(ev.size(), kCap);
  // Oldest-first: the surviving records are exactly the last kCap writes.
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(ev[i].ts_us, kTotal - kCap + i);
    EXPECT_EQ(ev[i].arg, kTotal - kCap + i);
  }
}

TEST(FlightRing, CapacityRoundsUpToPowerOfTwo) {
  Ring r(10, 0);
  EXPECT_EQ(r.capacity(), 16u);
}

TEST(FlightRing, ClearDropsRecords) {
  Ring r(8, 0);
  r.record(1, Ev::kEviction, 0);
  r.clear();
  EXPECT_TRUE(r.snapshot().empty());
  EXPECT_EQ(r.recorded(), 0u);
}

/// Writer hammers the ring while a reader snapshots concurrently: must be
/// TSan-clean, every snapshot bounded by capacity, and every drained record
/// structurally valid (the writer only ever stamps one code/arg pattern).
TEST(FlightRing, ConcurrentWriteAndDrain) {
  constexpr std::size_t kCap = 64;
  Ring r(kCap, 7);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      r.record(i, Ev::kQueueDeq, static_cast<std::uint32_t>(i & 0xffff));
      ++i;
    }
  });
  for (int round = 0; round < 2000; ++round) {
    auto ev = r.snapshot();
    EXPECT_LE(ev.size(), kCap);
    for (const auto& e : ev) {
      EXPECT_EQ(e.code, static_cast<std::uint16_t>(Ev::kQueueDeq));
      EXPECT_EQ(e.tid, 7);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  // Quiescent drain is exact: strictly increasing timestamps.
  auto ev = r.snapshot();
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_EQ(ev[i].ts_us, ev[i - 1].ts_us + 1);
  }
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  Recorder rec(/*enabled=*/false, 64);
  rec.record(1, Ev::kInvokeArrival, 0);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.ring_count(), 0u) << "disabled record must not register rings";
  rec.set_enabled(true);
  rec.record(2, Ev::kInvokeArrival, 9);
  EXPECT_EQ(rec.recorded(), 1u);
}

TEST(FlightRecorder, OneRingPerThread) {
  Recorder rec(true, 64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  // Every thread stays alive until all have recorded: a thread that exited
  // early would hand its ring to a later one.
  std::atomic<int> recorded{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&rec, &recorded, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.record(static_cast<std::uint64_t>(i), Ev::kWindowBarrier,
                   static_cast<std::uint32_t>(t));
      }
      recorded.fetch_add(1);
      while (recorded.load() < kThreads) std::this_thread::yield();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(rec.ring_count(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(rec.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Each ring carries exactly one thread's records (single-writer).
  for (const auto& d : rec.snapshot_all()) {
    ASSERT_EQ(d.events.size(), static_cast<std::size_t>(kPerThread));
    for (const auto& e : d.events) EXPECT_EQ(e.arg, d.events[0].arg);
  }
}

TEST(FlightRecorder, ExitedThreadRingIsReused) {
  Recorder rec(true, 64);
  std::thread([&rec] { rec.record(1, Ev::kWindowBarrier, 7); }).join();
  std::thread([&rec] { rec.record(2, Ev::kWindowBarrier, 8); }).join();
  ASSERT_EQ(rec.ring_count(), 1u)
      << "the second thread must reuse the first one's ring";
  auto rings = rec.snapshot_all();
  ASSERT_EQ(rings[0].events.size(), 2u) << "reuse keeps the earlier records";
  EXPECT_EQ(rings[0].events[0].arg, 7u);
  EXPECT_EQ(rings[0].events[1].arg, 8u);
}

TEST(FlightRecorder, ThreadOutlivingItsRecorderLeavesItAlone) {
  // A hand-back into the destroyed recorder is a use-after-free, which the
  // ASan build of this test reports.
  auto rec = std::make_unique<Recorder>(true, 64);
  std::atomic<bool> recorded{false};
  std::atomic<bool> destroyed{false};
  std::thread t([&] {
    rec->record(1, Ev::kWindowBarrier, 1);
    recorded.store(true);
    while (!destroyed.load()) std::this_thread::yield();
  });
  while (!recorded.load()) std::this_thread::yield();
  rec.reset();
  destroyed.store(true);
  t.join();
}

TEST(FlightRecorder, DumpDecodeRoundTrip) {
  Recorder rec(true, 32);
  for (std::uint64_t i = 0; i < 40; ++i) {  // wraps: 40 > 32
    rec.record(i, Ev::kColdCreate, static_cast<std::uint32_t>(i * 3));
  }
  std::ostringstream os;
  std::size_t n = rec.dump(os);
  std::string bytes = os.str();
  EXPECT_EQ(bytes.size(), n);

  auto rings = flight::decode(bytes);
  auto live = rec.snapshot_all();
  ASSERT_EQ(rings.size(), live.size());
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].tid, live[0].tid);
  EXPECT_EQ(rings[0].recorded, 40u);
  ASSERT_EQ(rings[0].events.size(), live[0].events.size());
  for (std::size_t i = 0; i < rings[0].events.size(); ++i) {
    EXPECT_EQ(rings[0].events[i].ts_us, live[0].events[i].ts_us);
    EXPECT_EQ(rings[0].events[i].code, live[0].events[i].code);
    EXPECT_EQ(rings[0].events[i].arg, live[0].events[i].arg);
  }
}

TEST(FlightRecorder, DumpToFileAndReadBack) {
  Recorder rec(true, 16);
  rec.record(7, Ev::kLbRoute, 2);
  std::string path = ::testing::TempDir() + "flight_roundtrip.bin";
  ASSERT_TRUE(rec.dump_to_file(path));
  auto rings = flight::read_dump(path);
  ASSERT_EQ(rings.size(), 1u);
  ASSERT_EQ(rings[0].events.size(), 1u);
  EXPECT_EQ(rings[0].events[0].ts_us, 7u);
  EXPECT_EQ(rings[0].events[0].code,
            static_cast<std::uint16_t>(Ev::kLbRoute));
  std::remove(path.c_str());
}

TEST(FlightDecode, RejectsBadMagicAndTruncation) {
  EXPECT_THROW(flight::decode("not a dump"), std::runtime_error);
  Recorder rec(true, 16);
  rec.record(1, Ev::kPrewarm, 0);
  std::ostringstream os;
  rec.dump(os);
  std::string bytes = os.str();
  EXPECT_THROW(flight::decode(bytes.substr(0, bytes.size() - 3)),
               std::runtime_error);
  EXPECT_THROW(flight::decode(bytes + "x"), std::runtime_error)
      << "trailing bytes must be rejected";
}

TEST(FlightChromeTrace, ProducesValidSortedJson) {
  Recorder rec(true, 32);
  rec.record(10, Ev::kInvokeArrival, 1);
  rec.record(20, Ev::kQueueEnq, 1);
  rec.record(30, Ev::kComplete, 1);
  std::string json = flight::chrome_trace_json(rec.snapshot_all(), 42);
  JsonValue doc = json_parse(json);
  const JsonValue* evs = doc.find("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_TRUE(evs->is_array());
  ASSERT_EQ(evs->as_array().size(), 3u);
  double prev_ts = -1.0;
  for (const auto& e : evs->as_array()) {
    EXPECT_EQ(e.find("ph")->as_string(), "i");
    EXPECT_EQ(e.find("pid")->as_number(), 42.0);
    double ts = e.find("ts")->as_number();
    EXPECT_GE(ts, prev_ts) << "events must be sorted by timestamp";
    prev_ts = ts;
  }
  EXPECT_EQ(evs->as_array()[0].find("name")->as_string(),
            flight::ev_name(Ev::kInvokeArrival));
}

TEST(FlightChromeTrace, StagesAreCompleteEvents) {
  Recorder rec(true, 32);
  rec.record(10, Ev::kInvokeArrival, 1);
  rec.record(10, Ev::kStageInvoke, 26);
  rec.record(36, Ev::kStageSyncInvoke, 13);
  JsonValue doc = json_parse(flight::chrome_trace_json(rec.snapshot_all()));
  const JsonArray& evs = doc.find("traceEvents")->as_array();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].find("ph")->as_string(), "i");
  EXPECT_EQ(evs[0].find("dur"), nullptr);
  EXPECT_EQ(evs[1].find("name")->as_string(), "invoke");
  EXPECT_EQ(evs[1].find("ph")->as_string(), "X");
  EXPECT_EQ(evs[1].find("ts")->as_number(), 10.0);
  EXPECT_EQ(evs[1].find("dur")->as_number(), 26.0);
  EXPECT_EQ(evs[2].find("name")->as_string(), "sync_invoke");
  EXPECT_EQ(evs[2].find("dur")->as_number(), 13.0);
}

TEST(FlightEvNames, KnownAndUnknown) {
  EXPECT_STREQ(flight::ev_name(Ev::kColdCreate), "cold_create");
  EXPECT_STREQ(flight::ev_name(static_cast<Ev>(0xbeef)), "?");
  // Stage codes keep their Table 1 row names, appended after the
  // milestone codes in Table 1 order.
  EXPECT_EQ(static_cast<int>(Ev::kStageInvoke), 15);
  EXPECT_EQ(static_cast<int>(Ev::kStageReturnResults), 27);
  EXPECT_STREQ(flight::ev_name(Ev::kStageInvoke), "invoke");
  EXPECT_STREQ(flight::ev_name(Ev::kStageAddItemToQ), "add_item_to_q");
  EXPECT_STREQ(flight::ev_name(Ev::kStageTryLockContainer),
               "try_lock_container");
  EXPECT_STREQ(flight::ev_name(Ev::kStageReturnResults), "return_results");
  EXPECT_EQ(flight::stage_index(Ev::kStageReturnResults),
            flight::kStageCount - 1);
  EXPECT_FALSE(flight::is_stage(Ev::kReplayMilestone));
  EXPECT_TRUE(flight::is_stage(Ev::kStageInvoke));
}

TEST(FlightStages, FoldSumsStagesAndFlagsWrap) {
  Recorder rec(true, 4);
  rec.record(1, Ev::kInvokeArrival, 999);  // milestones are not folded
  rec.record(1, Ev::kStageInvoke, 20);
  rec.record(2, Ev::kStageInvoke, 30);
  rec.record(3, Ev::kStageCallContainer, 1400);
  flight::StageTotals t = flight::fold_stages(rec.snapshot_all());
  EXPECT_FALSE(t.wrapped);
  EXPECT_EQ(t.count_of(Ev::kStageInvoke), 2u);
  EXPECT_EQ(t.sum_us[flight::stage_index(Ev::kStageInvoke)], 50u);
  EXPECT_DOUBLE_EQ(t.mean_ms(Ev::kStageInvoke), 0.025);
  EXPECT_DOUBLE_EQ(t.mean_ms(Ev::kStageCallContainer), 1.4);
  EXPECT_EQ(t.count_of(Ev::kStageDequeue), 0u);
  EXPECT_DOUBLE_EQ(t.mean_ms(Ev::kStageDequeue), 0.0);

  // A fifth record overwrites the oldest: the fold says so.
  rec.record(4, Ev::kStageDequeue, 20);
  t = flight::fold_stages(rec.snapshot_all());
  EXPECT_TRUE(t.wrapped);
  EXPECT_EQ(t.count_of(Ev::kStageDequeue), 1u);

  // A dump folds the same as the live snapshot.
  std::ostringstream os;
  rec.dump(os);
  flight::StageTotals from_dump = flight::fold_stages(flight::decode(os.str()));
  EXPECT_EQ(from_dump.count, t.count);
  EXPECT_EQ(from_dump.sum_us, t.sum_us);
  EXPECT_TRUE(from_dump.wrapped);
}

/// The crash hook: dcheck_fail must write the installed dump before
/// aborting, leaving a decodable post-mortem of the events recorded up to
/// the failure. The child of this death test inherits the singleton's rings.
TEST(FlightCrashDumpDeathTest, DcheckFailureWritesDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string path = ::testing::TempDir() + "flight_crash.bin";
  std::remove(path.c_str());
  Recorder::instance().set_enabled(true);
  Recorder::install_crash_dump(path);
  EXPECT_DEATH(
      {
        // Recorded in the death-test child so the dump must contain it.
        flight::record(123, Ev::kFailure, 77);
        detail::dcheck_fail("flight_test.cpp", 1, "false",
                            "intentional crash-dump test failure");
      },
      "intentional crash-dump test failure");
  auto rings = flight::read_dump(path);
  bool found = false;
  for (const auto& d : rings) {
    for (const auto& e : d.events) {
      if (e.ts_us == 123 && e.code == static_cast<std::uint16_t>(Ev::kFailure) &&
          e.arg == 77) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "crash dump must contain the pre-abort record";
  Recorder::install_crash_dump("");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ilu
