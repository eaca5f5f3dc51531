#include "common/characteristics.hpp"

#include <cassert>

namespace ilu {

CharacteristicsMap::FnChars& CharacteristicsMap::at(FunctionId fn) {
  if (fn >= slot_.size()) {
    slot_.resize(static_cast<std::size_t>(fn) + 1, kNoEntry);
  }
  std::uint32_t& s = slot_[fn];
  if (s == kNoEntry) {
    assert(entries_.size() < kNoEntry);
    s = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back(window_);
  }
  return entries_[s];
}

const CharacteristicsMap::FnChars* CharacteristicsMap::find(
    FunctionId fn) const {
  if (fn >= slot_.size() || slot_[fn] == kNoEntry) return nullptr;
  return &entries_[slot_[fn]];
}

void CharacteristicsMap::on_arrival(FunctionId fn, TimePoint now) {
  FnChars& c = at(fn);
  ++c.arrivals;
  if (c.last_arrival >= TimePoint::zero()) {
    c.iat_s.add(to_sec(now - c.last_arrival));
  }
  c.last_arrival = now;
}

void CharacteristicsMap::record_warm(FunctionId fn, Duration exec) {
  FnChars& c = at(fn);
  c.warm_ms.add(to_ms(exec));
}

void CharacteristicsMap::record_cold(FunctionId fn, Duration exec) {
  FnChars& c = at(fn);
  c.cold_ms.add(to_ms(exec));
}

Duration CharacteristicsMap::expected_warm(FunctionId fn) const {
  const FnChars* c = find(fn);
  if (c == nullptr || c->warm_ms.empty()) return Duration::zero();
  return msecs(c->warm_ms.mean());
}

Duration CharacteristicsMap::expected_cold(FunctionId fn) const {
  const FnChars* c = find(fn);
  if (c == nullptr || c->cold_ms.empty()) return Duration::zero();
  return msecs(c->cold_ms.mean());
}

double CharacteristicsMap::mean_iat_s(FunctionId fn) const {
  const FnChars* c = find(fn);
  if (c == nullptr || c->iat_s.count() == 0) return 0.0;
  return c->iat_s.mean();
}

std::uint64_t CharacteristicsMap::arrivals(FunctionId fn) const {
  const FnChars* c = find(fn);
  return c == nullptr ? 0 : c->arrivals;
}

}  // namespace ilu
