#include "ckpt/blockfile.h"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/hash.h"
#include "engine/partitioner.h"

namespace chopper::ckpt {

namespace {

constexpr char kMagic[8] = {'C', 'H', 'O', 'P', 'B', 'L', 'K', '1'};
constexpr std::uint32_t kVersion = 1;

enum class BlockKind : std::uint32_t { kShuffle = 1, kCache = 2, kResult = 3 };

// -- encoding primitives -----------------------------------------------------

void put_bytes(std::string& out, const void* data, std::size_t len) {
  out.append(static_cast<const char*>(data), len);
}

void put_u32(std::string& out, std::uint32_t v) { put_bytes(out, &v, 4); }
void put_u64(std::string& out, std::uint64_t v) { put_bytes(out, &v, 8); }

template <typename T, typename Fn>
void put_vec(std::string& out, const std::vector<T>& v, Fn put_one) {
  put_u64(out, v.size());
  for (const T& x : v) put_one(out, x);
}

/// Raw memcpy fast path for trivially-copyable element vectors.
template <typename T>
void put_pod_vec(std::string& out, const std::vector<T>& v) {
  put_u64(out, v.size());
  if (!v.empty()) put_bytes(out, v.data(), v.size() * sizeof(T));
}

struct Cursor {
  const std::string& data;
  std::size_t pos = 0;
  bool ok = true;

  bool take(void* dst, std::size_t len) {
    if (!ok || pos + len > data.size()) {
      ok = false;
      return false;
    }
    std::memcpy(dst, data.data() + pos, len);
    pos += len;
    return true;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    take(&v, 4);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    take(&v, 8);
    return v;
  }
  /// Whether `count` items of at least `min_bytes` each still fit in the
  /// unread payload; fails the cursor otherwise. Every allocation sized by
  /// a decoded count goes through this, so a hostile count is rejected
  /// instead of throwing bad_alloc.
  bool fits(std::uint64_t count, std::uint64_t min_bytes) {
    if (ok && count > (data.size() - pos) / min_bytes) ok = false;
    return ok;
  }
  template <typename T>
  std::vector<T> pod_vec() {
    const std::uint64_t n = u64();
    std::vector<T> v;
    if (!fits(n, sizeof(T))) return v;
    v.resize(static_cast<std::size_t>(n));
    if (n > 0) take(v.data(), static_cast<std::size_t>(n) * sizeof(T));
    return v;
  }
};

// -- partitioner / partition codecs ------------------------------------------

void put_partitioner(std::string& out, const engine::Partitioner* p) {
  if (p == nullptr) {
    out.push_back('\0');
    return;
  }
  out.push_back('\1');
  put_u32(out, static_cast<std::uint32_t>(p->kind()));
  put_u64(out, p->num_partitions());
  if (p->kind() == engine::PartitionerKind::kRange) {
    put_pod_vec(out, static_cast<const engine::RangePartitioner*>(p)->bounds());
  }
}

std::shared_ptr<engine::Partitioner> take_partitioner(Cursor& c) {
  char present = 0;
  c.take(&present, 1);
  if (!c.ok || present == '\0') return nullptr;
  const auto kind = static_cast<engine::PartitionerKind>(c.u32());
  const auto n = static_cast<std::size_t>(c.u64());
  if (!c.ok || n == 0) {
    c.ok = false;
    return nullptr;
  }
  if (kind == engine::PartitionerKind::kRange) {
    auto bounds = c.pod_vec<std::uint64_t>();
    if (!c.ok || bounds.size() + 1 != n) {
      c.ok = false;
      return nullptr;
    }
    return std::make_shared<engine::RangePartitioner>(n, std::move(bounds));
  }
  if (kind != engine::PartitionerKind::kHash) {
    c.ok = false;
    return nullptr;
  }
  return std::make_shared<engine::HashPartitioner>(n);
}

void put_partition(std::string& out, const engine::Partition& p) {
  put_u64(out, p.bytes());
  put_pod_vec(out, p.raw_keys());
  put_pod_vec(out, p.raw_aux());
  put_pod_vec(out, p.raw_ends());
  put_pod_vec(out, p.raw_values());
}

/// Smallest encoded partition: the byte count plus four empty vectors.
constexpr std::uint64_t kMinPartitionBytes = 5 * 8;

engine::Partition take_partition(Cursor& c) {
  const std::uint64_t bytes = c.u64();
  auto keys = c.pod_vec<std::uint64_t>();
  auto aux = c.pod_vec<std::uint32_t>();
  auto ends = c.pod_vec<std::size_t>();
  auto values = c.pod_vec<double>();
  if (!c.ok || aux.size() != keys.size() || ends.size() != keys.size() ||
      (!ends.empty() && ends.back() != values.size())) {
    c.ok = false;
    return {};
  }
  return engine::Partition::from_raw(std::move(keys), std::move(aux),
                                     std::move(ends), std::move(values),
                                     bytes);
}

// -- framing ----------------------------------------------------------------

bool write_block(const std::string& path, BlockKind kind,
                 const std::string& payload, bool sync) {
  std::string file;
  file.reserve(payload.size() + 24);
  put_bytes(file, kMagic, sizeof(kMagic));
  put_u32(file, static_cast<std::uint32_t>(kind));
  put_u32(file, kVersion);
  file += payload;
  common::Checksum64 sum;
  sum.update_bytes(file.data(), file.size());
  put_u64(file, sum.digest());
  return write_file_atomic(path, file, sync);
}

std::optional<std::string> read_block(const std::string& path,
                                      BlockKind want_kind) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string content;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);

  constexpr std::size_t kHeader = sizeof(kMagic) + 8;  // magic + kind + version
  if (content.size() < kHeader + 8) return std::nullopt;
  if (std::memcmp(content.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  std::uint64_t stored = 0;
  std::memcpy(&stored, content.data() + content.size() - 8, 8);
  common::Checksum64 sum;
  sum.update_bytes(content.data(), content.size() - 8);
  if (sum.digest() != stored) return std::nullopt;

  std::uint32_t kind = 0, version = 0;
  std::memcpy(&kind, content.data() + sizeof(kMagic), 4);
  std::memcpy(&version, content.data() + sizeof(kMagic) + 4, 4);
  if (kind != static_cast<std::uint32_t>(want_kind) || version != kVersion) {
    return std::nullopt;
  }
  return content.substr(kHeader, content.size() - kHeader - 8);
}

}  // namespace

bool write_file_atomic(const std::string& path, const std::string& content,
                       bool sync) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
            content.size();
  ok = std::fflush(f) == 0 && ok;
#if defined(__unix__) || defined(__APPLE__)
  if (ok && sync) ok = ::fsync(::fileno(f)) == 0;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::string shuffle_block_name(std::size_t job, std::size_t plan_index,
                               std::size_t consumer) {
  return "job" + std::to_string(job) + "_s" + std::to_string(plan_index) +
         "_shuf" + std::to_string(consumer) + ".blk";
}

std::string cache_block_name(std::size_t job, std::size_t plan_index,
                             std::size_t ordinal) {
  return "job" + std::to_string(job) + "_s" + std::to_string(plan_index) +
         "_cache" + std::to_string(ordinal) + ".blk";
}

std::string result_block_name(std::size_t job, std::size_t plan_index) {
  return "job" + std::to_string(job) + "_s" + std::to_string(plan_index) +
         "_result.blk";
}

bool write_shuffle_block(const std::string& path, std::size_t consumer,
                         const engine::ShuffleOutput& so, bool sync) {
  std::string p;
  put_u64(p, consumer);
  p.push_back(so.passthrough ? '\1' : '\0');
  put_u64(p, so.num_map_tasks);
  put_u64(p, so.total_bytes);
  put_partitioner(p, so.partitioner.get());
  put_pod_vec(p, so.map_node);
  put_pod_vec(p, so.lost);
  put_pod_vec(p, so.on_disk);
  put_pod_vec(p, so.row_sum);
  put_u64(p, so.buckets.size());
  put_u64(p, so.buckets.empty() ? 0 : so.buckets[0].size());
  for (const auto& row : so.buckets) {
    for (const auto& b : row) put_partition(p, b);
  }
  return write_block(path, BlockKind::kShuffle, p, sync);
}

std::optional<engine::RestoredShuffle> read_shuffle_block(
    const std::string& path) {
  auto payload = read_block(path, BlockKind::kShuffle);
  if (!payload) return std::nullopt;
  Cursor c{*payload};
  engine::RestoredShuffle rs;
  rs.consumer = static_cast<std::size_t>(c.u64());
  char pass = 0;
  c.take(&pass, 1);
  rs.so.passthrough = pass != '\0';
  rs.so.num_map_tasks = static_cast<std::size_t>(c.u64());
  rs.so.total_bytes = c.u64();
  rs.so.partitioner = take_partitioner(c);
  rs.so.map_node = c.pod_vec<std::size_t>();
  rs.so.lost = c.pod_vec<char>();
  rs.so.on_disk = c.pod_vec<char>();
  rs.so.row_sum = c.pod_vec<std::uint64_t>();
  const std::uint64_t m = c.u64();
  const std::uint64_t r = c.u64();
  if (!c.ok || m != rs.so.num_map_tasks || m != rs.so.map_node.size() ||
      (m > 0 && !c.fits(r, kMinPartitionBytes * m))) {
    return std::nullopt;
  }
  rs.so.buckets.resize(static_cast<std::size_t>(m));
  for (auto& row : rs.so.buckets) {
    row.resize(static_cast<std::size_t>(r));
    for (auto& b : row) b = take_partition(c);
  }
  if (!c.ok || c.pos != payload->size()) return std::nullopt;
  return rs;
}

bool write_cache_block(const std::string& path, std::size_t ordinal,
                       const engine::CachedDataset& cd, bool sync) {
  std::string p;
  put_u64(p, ordinal);
  put_u64(p, cd.bytes);
  put_partitioner(p, cd.partitioner.get());
  put_pod_vec(p, cd.placement);
  put_pod_vec(p, cd.available);
  put_pod_vec(p, cd.sums);
  put_vec(p, cd.partitions,
          [](std::string& out, const engine::Partition& part) {
            put_partition(out, part);
          });
  return write_block(path, BlockKind::kCache, p, sync);
}

std::optional<engine::RestoredCache> read_cache_block(
    const std::string& path) {
  auto payload = read_block(path, BlockKind::kCache);
  if (!payload) return std::nullopt;
  Cursor c{*payload};
  engine::RestoredCache rc;
  rc.ordinal = static_cast<std::size_t>(c.u64());
  rc.cd.bytes = c.u64();
  rc.cd.partitioner = take_partitioner(c);
  rc.cd.placement = c.pod_vec<std::size_t>();
  rc.cd.available = c.pod_vec<char>();
  rc.cd.sums = c.pod_vec<std::uint64_t>();
  const std::uint64_t n = c.u64();
  if (!c.ok || n != rc.cd.placement.size()) return std::nullopt;
  rc.cd.partitions.resize(static_cast<std::size_t>(n));
  for (auto& part : rc.cd.partitions) part = take_partition(c);
  if (!c.ok || c.pos != payload->size()) return std::nullopt;
  return rc;
}

bool write_result_block(const std::string& path,
                        const std::vector<engine::Partition>& parts,
                        bool sync) {
  std::string p;
  put_vec(p, parts, [](std::string& out, const engine::Partition& part) {
    put_partition(out, part);
  });
  return write_block(path, BlockKind::kResult, p, sync);
}

std::optional<std::vector<engine::Partition>> read_result_block(
    const std::string& path) {
  auto payload = read_block(path, BlockKind::kResult);
  if (!payload) return std::nullopt;
  Cursor c{*payload};
  const std::uint64_t n = c.u64();
  std::vector<engine::Partition> parts;
  if (!c.fits(n, kMinPartitionBytes)) return std::nullopt;
  parts.resize(static_cast<std::size_t>(n));
  for (auto& part : parts) part = take_partition(c);
  if (!c.ok || c.pos != payload->size()) return std::nullopt;
  return parts;
}

}  // namespace chopper::ckpt
