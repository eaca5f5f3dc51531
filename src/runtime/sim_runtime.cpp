#include "runtime/sim_runtime.hpp"

#include <cassert>
#include <utility>

namespace ilu {

Runtime::TimerId SimRuntime::schedule(Duration delay, Task fn) {
  ILU_ASSERT_OWNER(owner_, "SimRuntime::schedule");
  assert(delay >= Duration::zero());
  return encode(heap_.push(EventKey{now_ + delay, kTagBand | next_seq_++},
                           std::move(fn)));
}

Runtime::TimerId SimRuntime::schedule_tagged(TimePoint at, std::uint64_t tag,
                                             Task fn) {
  ILU_ASSERT_OWNER(owner_, "SimRuntime::schedule_tagged");
  assert(at >= now_);
  assert(tag < kTagBand);
  return encode(heap_.push(EventKey{at, tag}, std::move(fn)));
}

bool SimRuntime::cancel(TimerId id) {
  ILU_ASSERT_OWNER(owner_, "SimRuntime::cancel");
  if (id == kInvalidTimer) return false;
  // erase() checks the slot generation: an id whose event already fired (or
  // was cancelled before) no longer matches and returns false exactly.
  return heap_.erase(decode(id));
}

void SimRuntime::fire_next() {
  EventKey key;
  Task fn = heap_.pop_min(&key);
  assert(key.deadline >= now_);
  now_ = key.deadline;
  ++processed_;
  fn();
}

bool SimRuntime::step() {
  ILU_ASSERT_OWNER(owner_, "SimRuntime::step");
  if (peek() == nullptr) return false;
  fire_next();
  return true;
}

void SimRuntime::run() {
  ILU_ASSERT_OWNER(owner_, "SimRuntime::run");
  while (peek() != nullptr) fire_next();
}

void SimRuntime::run_until(TimePoint t) {
  ILU_ASSERT_OWNER(owner_, "SimRuntime::run_until");
  for (const EventKey* k = peek(); k != nullptr && k->deadline <= t;
       k = peek()) {
    fire_next();
  }
  if (now_ < t) now_ = t;
}

void SimRuntime::run_before(TimePoint t) {
  ILU_ASSERT_OWNER(owner_, "SimRuntime::run_before");
  for (const EventKey* k = peek(); k != nullptr && k->deadline < t;
       k = peek()) {
    fire_next();
  }
}

}  // namespace ilu
