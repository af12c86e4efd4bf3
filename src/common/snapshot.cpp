#include "common/snapshot.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace bwlab::fault {

namespace {
constexpr char kMagic[8] = {'B', 'W', 'C', 'K', 'P', 'T', '1', '\n'};

/// FNV-1a over 8-byte words (zero-padded tail). Each word is folded in
/// by an xor and a multiply by an odd constant — a bijection of the
/// running hash — so any change confined to one word, a single bit
/// flip included, always changes the result.
std::uint64_t checksum(const char* p, std::size_t n) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; i += sizeof h) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, std::min(sizeof w, n - i));
    h = (h ^ w) * 0x100000001B3ULL;
  }
  return h;
}
}  // namespace

void SnapshotStore::begin(long long step) {
  staging_.clear();
  staging_step_ = step;
  in_txn_ = true;
}

void SnapshotStore::capture_raw(const std::string& name, const void* data,
                                std::size_t bytes, std::size_t elem_bytes) {
  BWLAB_REQUIRE(in_txn_, "checkpoint capture of '" << name
                                                   << "' outside begin()");
  Field f;
  f.name = name;
  f.elem_bytes = elem_bytes;
  f.bytes.resize(bytes);
  std::memcpy(f.bytes.data(), data, bytes);
  staging_.push_back(std::move(f));
}

void SnapshotStore::commit() {
  BWLAB_REQUIRE(in_txn_, "checkpoint commit without begin()");
  trace::TraceSpan span(trace::Cat::Fault, "checkpoint:commit");
  fields_ = std::move(staging_);
  staging_.clear();
  step_ = staging_step_;
  valid_ = true;
  in_txn_ = false;
  static Counter& commits =
      MetricsRegistry::global().counter("checkpoint.commits");
  commits.inc();
}

const SnapshotStore::Field* SnapshotStore::find(
    const std::string& name) const {
  for (const Field& f : fields_)
    if (f.name == name) return &f;
  return nullptr;
}

void SnapshotStore::restore_raw(const std::string& name, void* data,
                                std::size_t bytes,
                                std::size_t elem_bytes) const {
  BWLAB_REQUIRE(valid_, "restore of '" << name
                                       << "' from an empty checkpoint store");
  const Field* f = find(name);
  BWLAB_REQUIRE(f != nullptr,
                "checkpoint has no field '" << name << "'");
  BWLAB_REQUIRE(f->bytes.size() == bytes && f->elem_bytes == elem_bytes,
                "checkpoint field '"
                    << name << "' shape changed: stored "
                    << f->bytes.size() << " B (elem " << f->elem_bytes
                    << "), restoring " << bytes << " B (elem " << elem_bytes
                    << ")");
  trace::TraceSpan span(trace::Cat::Fault, "checkpoint:restore:", name);
  std::memcpy(data, f->bytes.data(), bytes);
  static Counter& restores =
      MetricsRegistry::global().counter("checkpoint.restores");
  restores.inc();
}

void SnapshotStore::reset() {
  fields_.clear();
  staging_.clear();
  step_ = -1;
  staging_step_ = -1;
  valid_ = false;
  in_txn_ = false;
}

std::vector<char> SnapshotStore::serialize() const {
  BWLAB_REQUIRE(valid_, "serialize of an empty checkpoint store");
  std::size_t total = sizeof kMagic + 3 * sizeof(std::uint64_t);
  for (const Field& f : fields_)
    total += 3 * sizeof(std::uint64_t) + f.name.size() + f.bytes.size();
  std::vector<char> out(total);
  std::size_t pos = 0;
  auto put = [&out, &pos](const void* p, std::size_t n) {
    std::memcpy(out.data() + pos, p, n);
    pos += n;
  };
  auto put_u64 = [&put](std::uint64_t v) { put(&v, sizeof v); };
  put(kMagic, sizeof kMagic);
  put_u64(static_cast<std::uint64_t>(step_));
  put_u64(fields_.size());
  for (const Field& f : fields_) {
    put_u64(f.name.size());
    put(f.name.data(), f.name.size());
    put_u64(f.elem_bytes);
    put_u64(f.bytes.size());
    put(f.bytes.data(), f.bytes.size());
  }
  put_u64(checksum(out.data(), pos));
  return out;
}

void SnapshotStore::deserialize(const std::vector<char>& bytes) {
  std::uint64_t sum = 0;
  BWLAB_REQUIRE(bytes.size() >= sizeof kMagic + sizeof sum,
                "truncated serialized checkpoint (" << bytes.size() << " B)");
  const std::size_t end = bytes.size() - sizeof sum;
  std::memcpy(&sum, bytes.data() + end, sizeof sum);
  BWLAB_REQUIRE(sum == checksum(bytes.data(), end),
                "corrupted serialized checkpoint: checksum mismatch over "
                    << end << " B");
  std::size_t pos = 0;
  auto get = [&bytes, &pos, end](void* p, std::size_t n) {
    BWLAB_REQUIRE(pos + n <= end,
                  "truncated serialized checkpoint (" << bytes.size()
                                                      << " B)");
    std::memcpy(p, bytes.data() + pos, n);
    pos += n;
  };
  auto get_u64 = [&get]() {
    std::uint64_t v = 0;
    get(&v, sizeof v);
    return v;
  };
  char magic[sizeof kMagic];
  get(magic, sizeof magic);
  BWLAB_REQUIRE(std::memcmp(magic, kMagic, sizeof kMagic) == 0,
                "serialized bytes are not a bwfault checkpoint");
  std::vector<Field> fields;
  const long long step = static_cast<long long>(get_u64());
  const std::uint64_t n = get_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    Field f;
    f.name.resize(get_u64());
    get(f.name.data(), f.name.size());
    f.elem_bytes = get_u64();
    f.bytes.resize(get_u64());
    get(f.bytes.data(), f.bytes.size());
    fields.push_back(std::move(f));
  }
  BWLAB_REQUIRE(pos == end, "serialized checkpoint has " << end - pos
                                                         << " trailing B");
  fields_ = std::move(fields);
  step_ = step;
  valid_ = true;
  in_txn_ = false;
  staging_.clear();
}

}  // namespace bwlab::fault
