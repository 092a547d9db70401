#include "engine/partitioner.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>

#include "common/hash.h"

namespace chopper::engine {

const char* to_string(PartitionerKind kind) noexcept {
  switch (kind) {
    case PartitionerKind::kHash:
      return "hash";
    case PartitionerKind::kRange:
      return "range";
  }
  return "?";
}

void Partitioner::partition_of_batch(const std::uint64_t* keys, std::size_t n,
                                     std::uint32_t* out) const noexcept {
  // Scalar fallback: one virtual dispatch per key.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(partition_of(keys[i]));
  }
}

HashPartitioner::HashPartitioner(std::size_t num_partitions) : n_(num_partitions) {
  assert(n_ > 0);
}

std::size_t HashPartitioner::partition_of(std::uint64_t key) const noexcept {
  return static_cast<std::size_t>(common::mix64(key) % n_);
}

void HashPartitioner::partition_of_batch(const std::uint64_t* keys,
                                         std::size_t n,
                                         std::uint32_t* out) const noexcept {
  // 8 keys per iteration: the fixed-trip inner loop has no branches or
  // virtual calls, so the mix64 finalizer (shift/xor/mul) autovectorizes;
  // the modulo stays scalar but pipelines across the unrolled lanes. Same
  // integer math as partition_of, so the assignment is bit-identical.
  const std::uint64_t nn = n_;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t h[8];
    for (std::size_t j = 0; j < 8; ++j) h[j] = common::mix64(keys[i + j]);
    for (std::size_t j = 0; j < 8; ++j) {
      out[i + j] = static_cast<std::uint32_t>(h[j] % nn);
    }
  }
  for (; i < n; ++i) {  // scalar tail
    out[i] = static_cast<std::uint32_t>(common::mix64(keys[i]) % nn);
  }
}

bool HashPartitioner::equals(const Partitioner& other) const noexcept {
  return other.kind() == PartitionerKind::kHash &&
         other.num_partitions() == n_;
}

std::string HashPartitioner::describe() const {
  std::ostringstream os;
  os << "hash(" << n_ << ")";
  return os.str();
}

RangePartitioner::RangePartitioner(std::size_t num_partitions,
                                   std::vector<std::uint64_t> bounds)
    : n_(num_partitions), bounds_(std::move(bounds)) {
  assert(n_ > 0);
  assert(bounds_.size() + 1 == n_);
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

std::shared_ptr<RangePartitioner> RangePartitioner::from_sample(
    std::size_t num_partitions, std::vector<std::uint64_t> sample) {
  assert(num_partitions > 0);
  std::sort(sample.begin(), sample.end());
  std::vector<std::uint64_t> bounds;
  bounds.reserve(num_partitions - 1);
  if (sample.empty()) {
    // No content: spread bounds uniformly over the key space.
    const auto span = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 1; i < num_partitions; ++i) {
      bounds.push_back(span / num_partitions * i);
    }
  } else {
    for (std::size_t i = 1; i < num_partitions; ++i) {
      const std::size_t idx = i * sample.size() / num_partitions;
      std::uint64_t b = sample[std::min(idx, sample.size() - 1)];
      // Bounds must be non-decreasing; duplicates are allowed (they simply
      // make some partitions empty, just like Spark's RangePartitioner on
      // heavily duplicated keys).
      if (!bounds.empty() && b < bounds.back()) b = bounds.back();
      bounds.push_back(b);
    }
  }
  return std::make_shared<RangePartitioner>(num_partitions, std::move(bounds));
}

std::size_t RangePartitioner::partition_of(std::uint64_t key) const noexcept {
  // First bound >= key gives the bucket; keys above all bounds go last.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), key);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void RangePartitioner::partition_of_batch(const std::uint64_t* keys,
                                          std::size_t n,
                                          std::uint32_t* out) const noexcept {
  // Memoized loop: sorted/grouped map outputs repeat keys constantly, so a
  // single compare usually replaces the binary search.
  std::uint64_t last_key = 0;
  std::uint32_t last_bucket = 0;
  bool valid = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    if (!valid || k != last_key) {
      last_key = k;
      last_bucket = static_cast<std::uint32_t>(partition_of(k));
      valid = true;
    }
    out[i] = last_bucket;
  }
}

bool RangePartitioner::equals(const Partitioner& other) const noexcept {
  if (other.kind() != PartitionerKind::kRange ||
      other.num_partitions() != n_) {
    return false;
  }
  const auto& r = static_cast<const RangePartitioner&>(other);
  return r.bounds_ == bounds_;
}

std::string RangePartitioner::describe() const {
  std::ostringstream os;
  os << "range(" << n_ << ")";
  return os.str();
}

std::shared_ptr<Partitioner> make_partitioner(PartitionerKind kind,
                                              std::size_t num_partitions,
                                              std::vector<std::uint64_t> key_sample) {
  switch (kind) {
    case PartitionerKind::kHash:
      return std::make_shared<HashPartitioner>(num_partitions);
    case PartitionerKind::kRange:
      return RangePartitioner::from_sample(num_partitions, std::move(key_sample));
  }
  return nullptr;
}

}  // namespace chopper::engine
