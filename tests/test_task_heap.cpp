// Unit tests for the discrete-event hot-path primitives: the
// small-buffer-optimized ilu::Task and the indexed d-ary heap with
// slab-recycled nodes (runtime/task.hpp, runtime/indexed_heap.hpp).

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "runtime/indexed_heap.hpp"
#include "runtime/task.hpp"

namespace ilu {
namespace {

// ---------------------------------------------------------------- Task ----

TEST(Task, EmptyByDefault) {
  Task t;
  EXPECT_FALSE(static_cast<bool>(t));
  Task u(nullptr);
  EXPECT_FALSE(static_cast<bool>(u));
}

TEST(Task, SmallCaptureStoredInlineAndRuns) {
  int hits = 0;
  int* p = &hits;
  Task t([p] { ++*p; });
  ASSERT_TRUE(static_cast<bool>(t));
  EXPECT_TRUE(t.is_inline());
  t();
  EXPECT_EQ(hits, 1);
}

TEST(Task, CaptureAtInlineBoundaryStaysInline) {
  // 48 B of payload + 8 B pointer = 56 B: exactly the inline budget.
  std::array<std::uint64_t, 6> payload{1, 2, 3, 4, 5, 6};
  std::uint64_t sum = 0;
  std::uint64_t* out = &sum;
  Task t([payload, out] {
    for (auto v : payload) *out += v;
  });
  EXPECT_TRUE(t.is_inline());
  t();
  EXPECT_EQ(sum, 21u);
}

TEST(Task, OversizedCaptureFallsBackToHeapAndRuns) {
  std::array<std::uint64_t, 16> payload{};
  payload[15] = 42;
  std::uint64_t got = 0;
  std::uint64_t* out = &got;
  Task t([payload, out] { *out = payload[15]; });
  EXPECT_FALSE(t.is_inline());
  t();
  EXPECT_EQ(got, 42u);
}

TEST(Task, MoveTransfersOwnership) {
  int hits = 0;
  int* p = &hits;
  Task a([p] { ++*p; });
  Task b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  Task c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

struct DtorCounter {
  std::shared_ptr<int> alive;
  explicit DtorCounter(std::shared_ptr<int> a) : alive(std::move(a)) {
    ++*alive;
  }
  DtorCounter(const DtorCounter& o) : alive(o.alive) { ++*alive; }
  DtorCounter(DtorCounter&& o) noexcept : alive(o.alive) { ++*alive; }
  ~DtorCounter() { --*alive; }
  void operator()() const {}
};

TEST(Task, DestroysCaptureExactlyOnce) {
  auto alive = std::make_shared<int>(0);
  {
    Task t{DtorCounter(alive)};
    EXPECT_EQ(*alive, 1);
    Task u(std::move(t));
    EXPECT_EQ(*alive, 1);
    u.reset();
    EXPECT_EQ(*alive, 0);
  }
  EXPECT_EQ(*alive, 0);
}

TEST(Task, WrapsStdFunctionCopies) {
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  Task t(fn);  // copies the std::function into the task
  t();
  EXPECT_EQ(hits, 1);
}

// --------------------------------------------------------- IndexedHeap ----

using Heap = IndexedHeap<std::pair<std::int64_t, std::uint64_t>, int>;

TEST(IndexedHeap, PopsInKeyOrder) {
  Heap h;
  h.push({30, 0}, 3);
  h.push({10, 1}, 1);
  h.push({20, 2}, 2);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.pop_min(), 1);
  EXPECT_EQ(h.pop_min(), 2);
  EXPECT_EQ(h.pop_min(), 3);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeap, SequenceBreaksTies) {
  Heap h;
  for (int i = 0; i < 10; ++i) {
    h.push({5, static_cast<std::uint64_t>(i)}, i);
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(h.pop_min(), i);
}

TEST(IndexedHeap, EraseRemovesAndReportsStaleHandles) {
  Heap h;
  auto a = h.push({10, 0}, 1);
  auto b = h.push({20, 1}, 2);
  auto c = h.push({30, 2}, 3);
  EXPECT_TRUE(h.contains(b));
  EXPECT_TRUE(h.erase(b));
  EXPECT_FALSE(h.erase(b));  // double erase
  EXPECT_FALSE(h.contains(b));
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.pop_min(), 1);
  EXPECT_FALSE(h.erase(a));  // erase after pop
  EXPECT_EQ(h.pop_min(), 3);
  EXPECT_FALSE(h.erase(c));
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeap, RecycledSlotsDoNotAliasOldHandles) {
  Heap h;
  auto a = h.push({10, 0}, 1);
  EXPECT_EQ(h.pop_min(), 1);
  // The new push reuses slot 0; the stale handle must not hit it.
  auto b = h.push({20, 1}, 2);
  EXPECT_FALSE(h.erase(a));
  EXPECT_EQ(h.size(), 1u);
  EXPECT_TRUE(h.erase(b));
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeap, PeekKeyTracksMinimum) {
  Heap h;
  EXPECT_EQ(h.peek_key(), nullptr);
  h.push({20, 0}, 2);
  ASSERT_NE(h.peek_key(), nullptr);
  EXPECT_EQ(h.peek_key()->first, 20);
  auto a = h.push({10, 1}, 1);
  EXPECT_EQ(h.peek_key()->first, 10);
  EXPECT_TRUE(h.erase(a));
  EXPECT_EQ(h.peek_key()->first, 20);
}

TEST(IndexedHeap, RandomizedAgainstReferenceModel) {
  // Interleave push / pop_min / erase and check every outcome against a
  // std::map reference (the previous InvocationQueue implementation).
  Heap h;
  std::map<std::pair<std::int64_t, std::uint64_t>, int> model;
  std::map<int, Heap::Handle> handles;  // value -> handle (values unique)
  std::mt19937_64 rng(7);
  std::uint64_t seq = 0;
  int next_value = 0;
  for (int step = 0; step < 20000; ++step) {
    ASSERT_EQ(h.size(), model.size());
    int op = static_cast<int>(rng() % 100);
    if (op < 55 || model.empty()) {
      std::pair<std::int64_t, std::uint64_t> key{
          static_cast<std::int64_t>(rng() % 1000), seq++};
      int v = next_value++;
      handles[v] = h.push(key, v);
      model[key] = v;
    } else if (op < 85) {
      auto it = model.begin();
      ASSERT_EQ(h.pop_min(), it->second);
      handles.erase(it->second);
      model.erase(it);
    } else {
      // Erase a random live entry through its handle.
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng() % model.size()));
      int v = it->second;
      ASSERT_TRUE(h.erase(handles[v]));
      ASSERT_FALSE(h.erase(handles[v]));
      handles.erase(v);
      model.erase(it);
    }
    if (!model.empty()) {
      ASSERT_NE(h.peek_key(), nullptr);
      ASSERT_EQ(*h.peek_key(), model.begin()->first);
    } else {
      ASSERT_EQ(h.peek_key(), nullptr);
    }
  }
  while (!model.empty()) {
    ASSERT_EQ(h.pop_min(), model.begin()->second);
    model.erase(model.begin());
  }
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeap, MoveOnlyValues) {
  IndexedHeap<int, std::unique_ptr<int>> h;
  h.push(2, std::make_unique<int>(20));
  auto a = h.push(1, std::make_unique<int>(10));
  auto stale = a;
  EXPECT_EQ(*h.pop_min(), 10);
  EXPECT_FALSE(h.erase(stale));
  EXPECT_EQ(*h.pop_min(), 20);
}

}  // namespace
}  // namespace ilu
