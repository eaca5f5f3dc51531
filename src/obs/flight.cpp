#include "obs/flight.hpp"
// ilu-lint: atomics-floor(relaxed) - snapshot reads ride the head_ acquire fence declared in flight.hpp; uid counter is relaxed

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "util/dcheck.hpp"

namespace ilu::flight {

const char* ev_name(Ev e) {
  switch (e) {
    case Ev::kNone: return "none";
    case Ev::kInvokeArrival: return "invoke_arrival";
    case Ev::kQueueEnq: return "queue_enq";
    case Ev::kQueueDeq: return "queue_deq";
    case Ev::kContainerAcquire: return "container_acquire";
    case Ev::kColdCreate: return "cold_create";
    case Ev::kEviction: return "eviction";
    case Ev::kWindowBarrier: return "window_barrier";
    case Ev::kComplete: return "complete";
    case Ev::kFailure: return "failure";
    case Ev::kPrewarm: return "prewarm";
    case Ev::kLbRoute: return "lb_route";
    case Ev::kSamplerTick: return "sampler_tick";
    case Ev::kMemoryPark: return "memory_park";
    case Ev::kReplayMilestone: return "replay_milestone";
    case Ev::kStageInvoke: return "invoke";
    case Ev::kStageSyncInvoke: return "sync_invoke";
    case Ev::kStageEnqueueInvocation: return "enqueue_invocation";
    case Ev::kStageAddItemToQ: return "add_item_to_q";
    case Ev::kStageSpawnWorker: return "spawn_worker";
    case Ev::kStageDequeue: return "dequeue";
    case Ev::kStageAcquireContainer: return "acquire_container";
    case Ev::kStageTryLockContainer: return "try_lock_container";
    case Ev::kStagePrepareInvoke: return "prepare_invoke";
    case Ev::kStageCallContainer: return "call_container";
    case Ev::kStageDownloadResult: return "download_result";
    case Ev::kStageReturnContainer: return "return_container";
    case Ev::kStageReturnResults: return "return_results";
  }
  return "?";
}

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

Event unpack(std::uint64_t w0, std::uint64_t w1) {
  Event e;
  e.ts_us = w0;
  e.code = static_cast<std::uint16_t>(w1 & 0xFFFF);
  e.tid = static_cast<std::uint16_t>((w1 >> 16) & 0xFFFF);
  e.arg = static_cast<std::uint32_t>(w1 >> 32);
  return e;
}

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

class Cursor {
 public:
  Cursor(const std::string& bytes) : b_(bytes) {}
  std::uint16_t u16() { return static_cast<std::uint16_t>(u(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(u(4)); }
  std::uint64_t u64() { return u(8); }
  std::size_t remaining() const { return b_.size() - pos_; }

 private:
  std::uint64_t u(int n) {
    if (pos_ + static_cast<std::size_t>(n) > b_.size())
      throw std::runtime_error("flight dump truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(b_[pos_ + i]))
           << (8 * i);
    pos_ += static_cast<std::size_t>(n);
    return v;
  }
  const std::string& b_;
  std::size_t pos_ = 0;
};

// uid source for Recorder instances: keys the uid-keyed thread_local ring
// cache so rings of destroyed test recorders are never revived.
std::atomic<std::uint64_t> g_recorder_uid{1};

// Crash-dump registration: a static registrar hands dcheck_fail a plain
// function pointer (no allocation, async-signal-tolerant modulo the mutex
// in snapshot_all, which an aborting thread does not hold).
std::string& crash_path_storage() {
  static std::string path;
  return path;
}

void flight_crash_dump() {
  const std::string& path = crash_path_storage();
  if (path.empty()) return;
  if (Recorder::instance().dump_to_file(path))
    std::fprintf(stderr, "[ilu] flight recorder dumped to %s\n", path.c_str());
}

struct DcheckDumpRegistrar {
  DcheckDumpRegistrar() { ilu::detail::g_dcheck_dump = &flight_crash_dump; }
};
DcheckDumpRegistrar g_dcheck_dump_registrar;

}  // namespace

Ring::Ring(std::size_t capacity_pow2, std::uint16_t tid)
    : slots_(round_up_pow2(std::max<std::size_t>(capacity_pow2, 2))),
      mask_(slots_.size() - 1),
      tid_(tid) {}

std::vector<Event> Ring::snapshot() const {
  std::uint64_t head = head_.load(std::memory_order_acquire);
  std::uint64_t n = std::min<std::uint64_t>(head, slots_.size());
  std::vector<Event> out;
  out.reserve(n);
  for (std::uint64_t seq = head - n; seq != head; ++seq) {
    const Slot& s = slots_[seq & mask_];
    out.push_back(unpack(s.w0.load(std::memory_order_relaxed),
                         s.w1.load(std::memory_order_relaxed)));
  }
  return out;
}

Recorder::Recorder(bool enabled, std::size_t ring_capacity)
    : ring_capacity_(ring_capacity),
      uid_(g_recorder_uid.fetch_add(1, std::memory_order_relaxed)),
      enabled_(enabled),
      set_(std::make_shared<RingSet>()) {}

Recorder& Recorder::instance() {
  static Recorder r;  // ilu-lint: allow(raw-thread) - process singleton, obs/ is thread-exempt anyway
  return r;
}

struct Recorder::ThreadRings {
  struct Entry {
    Ring* ring;
    std::weak_ptr<RingSet> set;
  };
  std::unordered_map<std::uint64_t, Entry> by_uid;

  ~ThreadRings() {
    for (auto& [uid, e] : by_uid) {
      if (std::shared_ptr<RingSet> set = e.set.lock()) {
        std::lock_guard<std::mutex> lk(set->mu);
        set->idle.push_back(e.ring);
      }
    }
  }
};

Ring& Recorder::local_ring() {
  // A uid-keyed thread_local cache: each (thread, recorder) pair resolves
  // its ring with one hash probe after the first record, and rings owned
  // by destroyed recorders are never mistaken for ours.
  thread_local ThreadRings t_rings;
  auto it = t_rings.by_uid.find(uid_);
  if (it != t_rings.by_uid.end()) return *it->second.ring;
  Ring* r = nullptr;
  {
    std::lock_guard<std::mutex> lk(set_->mu);
    if (!set_->idle.empty()) {
      r = set_->idle.back();
      set_->idle.pop_back();
    } else {
      auto tid = static_cast<std::uint16_t>(set_->rings.size());
      set_->rings.push_back(std::make_unique<Ring>(ring_capacity_, tid));
      r = set_->rings.back().get();
    }
  }
  t_rings.by_uid.emplace(uid_, ThreadRings::Entry{r, set_});
  return *r;
}

std::size_t Recorder::ring_count() const {
  std::lock_guard<std::mutex> lk(set_->mu);
  return set_->rings.size();
}

std::vector<RingDump> Recorder::snapshot_all() const {
  std::lock_guard<std::mutex> lk(set_->mu);
  std::vector<RingDump> out;
  out.reserve(set_->rings.size());
  for (const auto& r : set_->rings) {
    RingDump d;
    d.tid = r->tid();
    d.recorded = r->recorded();
    d.events = r->snapshot();
    out.push_back(std::move(d));
  }
  return out;
}

std::uint64_t Recorder::recorded() const {
  std::lock_guard<std::mutex> lk(set_->mu);
  std::uint64_t total = 0;
  for (const auto& r : set_->rings) total += r->recorded();
  return total;
}

std::size_t Recorder::dump(std::ostream& out) const {
  std::vector<RingDump> rings = snapshot_all();
  std::string buf;
  put_u64(buf, kDumpMagic);
  put_u32(buf, static_cast<std::uint32_t>(rings.size()));
  for (const RingDump& r : rings) {
    put_u16(buf, r.tid);
    put_u16(buf, 0);
    put_u32(buf, static_cast<std::uint32_t>(r.events.size()));
    put_u64(buf, r.recorded);
    for (const Event& e : r.events) {
      put_u64(buf, e.ts_us);
      put_u64(buf, static_cast<std::uint64_t>(e.code) |
                       (static_cast<std::uint64_t>(e.tid) << 16) |
                       (static_cast<std::uint64_t>(e.arg) << 32));
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  return buf.size();
}

bool Recorder::dump_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  dump(out);
  out.flush();
  return static_cast<bool>(out);
}

void Recorder::install_crash_dump(std::string path) {
  crash_path_storage() = std::move(path);
}

void Recorder::clear() {
  std::lock_guard<std::mutex> lk(set_->mu);
  for (auto& r : set_->rings) r->clear();
}

std::vector<RingDump> decode(const std::string& bytes) {
  Cursor c(bytes);
  if (c.u64() != kDumpMagic)
    throw std::runtime_error("not an ilu flight dump (bad magic)");
  std::uint32_t ring_count = c.u32();
  std::vector<RingDump> out;
  out.reserve(ring_count);
  for (std::uint32_t i = 0; i < ring_count; ++i) {
    RingDump d;
    d.tid = c.u16();
    c.u16();  // reserved
    std::uint32_t n = c.u32();
    d.recorded = c.u64();
    d.events.reserve(n);
    for (std::uint32_t j = 0; j < n; ++j) {
      std::uint64_t w0 = c.u64();
      std::uint64_t w1 = c.u64();
      d.events.push_back(unpack(w0, w1));
    }
    out.push_back(std::move(d));
  }
  if (c.remaining() != 0)
    throw std::runtime_error("flight dump has trailing bytes");
  return out;
}

std::vector<RingDump> read_dump(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open flight dump: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return decode(ss.str());
}

std::string chrome_trace_json(const std::vector<RingDump>& rings, int pid) {
  struct Row {
    Event e;
    std::uint64_t pos;  // position within its ring, for stable ordering
  };
  std::vector<Row> rows;
  for (const RingDump& r : rings) {
    std::uint64_t pos = r.recorded >= r.events.size()
                            ? r.recorded - r.events.size()
                            : 0;
    for (const Event& e : r.events) rows.push_back({e, pos++});
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.e.ts_us != b.e.ts_us) return a.e.ts_us < b.e.ts_us;
    if (a.e.tid != b.e.tid) return a.e.tid < b.e.tid;
    return a.pos < b.pos;
  });
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Row& r : rows) {
    if (!first) out << ",";
    first = false;
    const auto code = static_cast<Ev>(r.e.code);
    out << "{\"name\":\"" << ev_name(code) << "\",";
    if (is_stage(code)) {
      out << "\"ph\":\"X\",\"dur\":" << r.e.arg;
    } else {
      out << "\"ph\":\"i\",\"s\":\"t\"";
    }
    out << ",\"ts\":" << r.e.ts_us << ",\"pid\":" << pid
        << ",\"tid\":" << r.e.tid << ",\"args\":{\"arg\":" << r.e.arg
        << ",\"seq\":" << r.pos << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

double StageTotals::mean_ms(Ev stage) const {
  std::size_t i = stage_index(stage);
  if (count[i] == 0) return 0.0;
  return static_cast<double>(sum_us[i]) / 1000.0 /
         static_cast<double>(count[i]);
}

StageTotals fold_stages(const std::vector<RingDump>& rings) {
  StageTotals t;
  for (const RingDump& r : rings) {
    t.wrapped = t.wrapped || r.recorded > r.events.size();
    for (const Event& e : r.events) {
      const auto code = static_cast<Ev>(e.code);
      if (!is_stage(code)) continue;
      ++t.count[stage_index(code)];
      t.sum_us[stage_index(code)] += e.arg;
    }
  }
  return t;
}

}  // namespace ilu::flight
