#include "trace/arena_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/hash.hpp"

namespace ilu {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// Bounds-checked little-endian reads over the mmap'd bytes.
class ByteReader {
 public:
  ByteReader(const std::byte* p, std::uint64_t len) : p_(p), len_(len) {}

  std::uint64_t pos() const { return pos_; }

  std::uint32_t u32() { return static_cast<std::uint32_t>(raw(4)); }
  std::uint64_t u64() { return raw(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(raw(8)); }
  double f64() {
    std::uint64_t bits = raw(8);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str(std::size_t n) {
    if (len_ - pos_ < n) {
      throw std::runtime_error("arena file: truncated string");
    }
    std::string s(reinterpret_cast<const char*>(p_ + pos_), n);
    pos_ += n;
    return s;
  }

 private:
  std::uint64_t raw(std::size_t n) {
    if (len_ - pos_ < n) {
      throw std::runtime_error("arena file: truncated header");
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(std::to_integer<unsigned>(p_[pos_ + i]))
           << (8 * i);
    }
    pos_ += n;
    return v;
  }

  const std::byte* p_;
  std::uint64_t len_;
  std::uint64_t pos_ = 0;
};

std::string serialize_header(std::uint64_t num_functions,
                             std::uint64_t num_events, std::int64_t duration_us,
                             std::uint64_t keys_offset,
                             std::uint64_t keys_checksum,
                             std::uint64_t meta_checksum) {
  std::string h;
  h.reserve(kArenaHeaderBytes);
  put_u64(h, kArenaMagic);
  put_u32(h, kArenaVersion);
  put_u32(h, kArenaHeaderBytes);
  put_u64(h, num_functions);
  put_u64(h, num_events);
  put_u64(h, static_cast<std::uint64_t>(duration_us));
  put_u64(h, keys_offset);
  put_u64(h, keys_checksum);
  put_u64(h, meta_checksum);
  for (int i = 0; i < 4; ++i) put_u64(h, 0);  // reserved
  return h;
}

std::string serialize_function(const FunctionProfile& f) {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(f.name.size()));
  out.append(f.name);
  put_u32(out, f.mem_mb);
  put_u64(out, static_cast<std::uint64_t>(f.warm_time.count()));
  put_u64(out, static_cast<std::uint64_t>(f.init_time.count()));
  put_f64(out, f.cpus);
  return out;
}

[[noreturn]] void io_fail(const std::string& path, const char* what) {
  throw std::runtime_error("arena file " + path + ": " + what + " (" +
                           std::strerror(errno) + ")");
}

}  // namespace

// ---------------------------------------------------------------------------
// ArenaFileWriter
// ---------------------------------------------------------------------------

ArenaFileWriter::ArenaFileWriter(const std::string& path)
    : path_(path), keys_checksum_(kFnv1a64Basis) {
  // "wb+": finalize() reads the function table back to fold it into the
  // meta checksum exactly as written.
  f_ = std::fopen(path.c_str(), "wb+");
  if (f_ == nullptr) io_fail(path_, "cannot open for writing");
}

ArenaFileWriter::~ArenaFileWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void ArenaFileWriter::begin(const std::vector<FunctionProfile>& functions,
                            Duration duration) {
  if (begun_) throw std::logic_error("ArenaFileWriter::begin called twice");
  if (functions.size() > PackedKey::kMaxFn + 1) {
    throw std::logic_error("arena file: too many functions for packed keys");
  }
  if (duration.count() < 0 || duration.count() > PackedKey::kMaxUs) {
    throw std::logic_error("arena file: duration out of packed-key range");
  }
  begun_ = true;
  num_functions_ = functions.size();
  duration_us_ = duration.count();

  std::string meta(kArenaHeaderBytes, '\0');  // placeholder, rewritten last
  for (const auto& f : functions) meta += serialize_function(f);
  keys_offset_ = (meta.size() + kArenaKeyAlign - 1) / kArenaKeyAlign *
                 kArenaKeyAlign;
  meta.resize(keys_offset_, '\0');
  if (std::fwrite(meta.data(), 1, meta.size(), f_) != meta.size()) {
    io_fail(path_, "short write (function table)");
  }
}

void ArenaFileWriter::append_keys(const std::uint64_t* keys, std::size_t n) {
  if (!begun_) throw std::logic_error("ArenaFileWriter: append before begin");
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i] < last_key_) {
      throw std::logic_error("arena file: keys appended out of order");
    }
    last_key_ = keys[i];
    if (PackedKey::key_fn(keys[i]) >= num_functions_) {
      throw std::logic_error("arena file: key references unknown function");
    }
  }
  // Keys are written in host order; the format is little-endian and the
  // event_view.hpp static_assert pins the build to little-endian hosts.
  if (n > 0 && std::fwrite(keys, sizeof(std::uint64_t), n, f_) != n) {
    io_fail(path_, "short write (keys)");
  }
  keys_checksum_ = fnv1a64_bytes(keys, n * sizeof(std::uint64_t),
                                 keys_checksum_);
  num_events_ += n;
}

std::uint64_t ArenaFileWriter::finalize() {
  if (!begun_) throw std::logic_error("ArenaFileWriter: finalize before begin");
  // Recompute the meta checksum over the function table as written, with a
  // zeroed header placeholder exactly as it currently exists on disk, then
  // drop the real header in.
  if (std::fflush(f_) != 0) io_fail(path_, "flush failed");

  std::string header = serialize_header(num_functions_, num_events_,
                                        duration_us_, keys_offset_,
                                        keys_checksum_, /*meta_checksum=*/0);
  // meta_checksum covers [0, keys_offset) with the checksum field zeroed:
  // hash the header-with-zeroed-field, then the function table from disk.
  std::uint64_t meta_ck = fnv1a64_bytes(header.data(), header.size());
  {
    std::vector<char> buf(1 << 16);
    if (std::fseek(f_, kArenaHeaderBytes, SEEK_SET) != 0) {
      io_fail(path_, "seek failed");
    }
    std::uint64_t remaining = keys_offset_ - kArenaHeaderBytes;
    while (remaining > 0) {
      std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, buf.size()));
      if (std::fread(buf.data(), 1, want, f_) != want) {
        io_fail(path_, "readback failed");
      }
      meta_ck = fnv1a64_bytes(buf.data(), want, meta_ck);
      remaining -= want;
    }
  }
  header = serialize_header(num_functions_, num_events_, duration_us_,
                            keys_offset_, keys_checksum_, meta_ck);
  if (std::fseek(f_, 0, SEEK_SET) != 0) io_fail(path_, "seek failed");
  if (std::fwrite(header.data(), 1, header.size(), f_) != header.size()) {
    io_fail(path_, "short write (header)");
  }
  if (std::fclose(f_) != 0) {
    f_ = nullptr;
    io_fail(path_, "close failed");
  }
  f_ = nullptr;
  return keys_offset_ + num_events_ * sizeof(std::uint64_t);
}

void write_arena_file(const Trace& trace, const std::string& path) {
  std::vector<std::uint64_t> keys;
  keys.reserve(trace.events.size());
  for (const TraceEvent& e : trace.events) {
    keys.push_back(PackedKey::pack(e.at, e.fn));
  }
  std::sort(keys.begin(), keys.end());
  ArenaFileWriter w(path);
  w.begin(trace.functions, trace.duration);
  w.append_keys(keys.data(), keys.size());
  w.finalize();
}

// ---------------------------------------------------------------------------
// ArenaFile
// ---------------------------------------------------------------------------

ArenaFile::ArenaFile(const std::string& path) : path_(path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) io_fail(path_, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    io_fail(path_, "fstat failed");
  }
  map_len_ = static_cast<std::uint64_t>(st.st_size);
  if (map_len_ < kArenaHeaderBytes) {
    ::close(fd);
    throw std::runtime_error("arena file " + path_ +
                             ": too small for a header");
  }
  map_ = ::mmap(nullptr, map_len_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    io_fail(path_, "mmap failed");
  }

  try {
    const auto* base = static_cast<const std::byte*>(map_);
    ByteReader r(base, map_len_);
    if (r.u64() != kArenaMagic) {
      throw std::runtime_error("arena file " + path_ + ": bad magic");
    }
    std::uint32_t version = r.u32();
    if (version != kArenaVersion) {
      throw std::runtime_error("arena file " + path_ +
                               ": unsupported version " +
                               std::to_string(version));
    }
    if (r.u32() != kArenaHeaderBytes) {
      throw std::runtime_error("arena file " + path_ + ": bad header size");
    }
    std::uint64_t num_functions = r.u64();
    num_events_ = r.u64();
    duration_us_ = r.i64();
    keys_offset_ = r.u64();
    keys_checksum_ = r.u64();
    std::uint64_t meta_ck = r.u64();
    for (int i = 0; i < 4; ++i) r.u64();  // reserved

    if (num_functions > PackedKey::kMaxFn + 1) {
      throw std::runtime_error("arena file " + path_ +
                               ": function count exceeds packed-key range");
    }
    if (duration_us_ < 0 || duration_us_ > PackedKey::kMaxUs) {
      throw std::runtime_error("arena file " + path_ +
                               ": duration out of range");
    }
    if (keys_offset_ < kArenaHeaderBytes || keys_offset_ > map_len_ ||
        keys_offset_ % sizeof(std::uint64_t) != 0) {
      throw std::runtime_error("arena file " + path_ + ": bad keys offset");
    }
    // Divide rather than multiply: num_events_ * 8 can wrap.
    const std::uint64_t key_bytes = map_len_ - keys_offset_;
    if (key_bytes % sizeof(std::uint64_t) != 0 ||
        key_bytes / sizeof(std::uint64_t) != num_events_) {
      throw std::runtime_error("arena file " + path_ +
                               ": truncated or oversized key column");
    }

    // Meta checksum: header with the checksum field zeroed + function table.
    std::string zeroed = serialize_header(num_functions, num_events_,
                                          duration_us_, keys_offset_,
                                          keys_checksum_, 0);
    std::uint64_t ck = fnv1a64_bytes(zeroed.data(), zeroed.size());
    ck = fnv1a64_bytes(base + kArenaHeaderBytes,
                       keys_offset_ - kArenaHeaderBytes, ck);
    if (ck != meta_ck) {
      throw std::runtime_error("arena file " + path_ +
                               ": header/function-table checksum mismatch");
    }

    functions_.reserve(num_functions);
    for (std::uint64_t i = 0; i < num_functions; ++i) {
      FunctionProfile f;
      std::uint32_t name_len = r.u32();
      f.name = r.str(name_len);
      f.mem_mb = r.u32();
      f.warm_time = usecs(static_cast<std::int64_t>(r.u64()));
      f.init_time = usecs(static_cast<std::int64_t>(r.u64()));
      f.cpus = r.f64();
      functions_.push_back(std::move(f));
    }
    if (r.pos() > keys_offset_) {
      throw std::runtime_error("arena file " + path_ +
                               ": function table overruns key column");
    }

    // The key column is consumed front to back exactly once per replay.
    if (num_events_ > 0) {
      ::madvise(static_cast<std::byte*>(map_) + keys_offset_,
                map_len_ - keys_offset_, MADV_SEQUENTIAL);
    }
  } catch (...) {
    close();
    throw;
  }
}

ArenaFile::~ArenaFile() { close(); }

ArenaFile::ArenaFile(ArenaFile&& other) noexcept
    : path_(std::move(other.path_)),
      map_(other.map_),
      map_len_(other.map_len_),
      keys_offset_(other.keys_offset_),
      num_events_(other.num_events_),
      duration_us_(other.duration_us_),
      keys_checksum_(other.keys_checksum_),
      released_bytes_(other.released_bytes_),
      functions_(std::move(other.functions_)) {
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.num_events_ = 0;
}

ArenaFile& ArenaFile::operator=(ArenaFile&& other) noexcept {
  if (this != &other) {
    close();
    path_ = std::move(other.path_);
    map_ = other.map_;
    map_len_ = other.map_len_;
    keys_offset_ = other.keys_offset_;
    num_events_ = other.num_events_;
    duration_us_ = other.duration_us_;
    keys_checksum_ = other.keys_checksum_;
    released_bytes_ = other.released_bytes_;
    functions_ = std::move(other.functions_);
    other.map_ = nullptr;
    other.map_len_ = 0;
    other.num_events_ = 0;
  }
  return *this;
}

void ArenaFile::close() {
  if (map_ != nullptr) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
  }
}

void ArenaFile::verify() const {
  const std::uint64_t* k = keys();
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < num_events_; ++i) {
    if (k[i] < prev) {
      throw std::runtime_error("arena file " + path_ + ": keys unsorted at " +
                               std::to_string(i));
    }
    prev = k[i];
    if (PackedKey::key_fn(k[i]) >= functions_.size()) {
      throw std::runtime_error("arena file " + path_ +
                               ": key references unknown function at " +
                               std::to_string(i));
    }
    if (PackedKey::key_at(k[i]).count() > duration_us_) {
      throw std::runtime_error("arena file " + path_ +
                               ": event beyond trace duration at " +
                               std::to_string(i));
    }
  }
  std::uint64_t ck = fnv1a64_bytes(k, num_events_ * sizeof(std::uint64_t));
  if (ck != keys_checksum_) {
    throw std::runtime_error("arena file " + path_ +
                             ": key column checksum mismatch");
  }
}

void ArenaFile::release_keys_before(std::size_t n) {
  if (n > num_events_) n = num_events_;
  // Only whole pages strictly before the first still-needed key.
  std::uint64_t end = keys_offset_ + n * sizeof(std::uint64_t);
  end = end / kArenaKeyAlign * kArenaKeyAlign;
  std::uint64_t begin = keys_offset_ + released_bytes_;
  if (end <= begin) return;
  ::madvise(static_cast<std::byte*>(map_) + begin, end - begin,
            MADV_DONTNEED);
  released_bytes_ = end - keys_offset_;
}

Trace ArenaFile::to_trace() const {
  Trace t;
  t.functions = functions_;
  t.duration = duration();
  t.events.reserve(num_events_);
  const std::uint64_t* k = keys();
  for (std::size_t i = 0; i < num_events_; ++i) {
    t.events.push_back(
        TraceEvent{PackedKey::key_at(k[i]), PackedKey::key_fn(k[i])});
  }
  return t;
}

}  // namespace ilu
