#include "engine/partition.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/hash.h"

namespace chopper::engine {

std::uint64_t Partition::checksum() const noexcept {
  common::Checksum64 ck;
  ck.update_u64(size());
  ck.update_u64(bytes_);
  ck.update_array(keys_.data(), keys_.size());
  ck.update_array(aux_.data(), aux_.size());
  ck.update_array(ends_.data(), ends_.size());
  ck.update_array(values_.data(), values_.size());
  return ck.digest();
}

void Partition::corrupt_byte(std::size_t byte_offset) noexcept {
  if (!values_.empty()) {
    const std::size_t pool = values_.size() * sizeof(double);
    auto* raw = reinterpret_cast<unsigned char*>(values_.data());
    raw[byte_offset % pool] ^= 0x2a;
  } else if (!keys_.empty()) {
    const std::size_t pool = keys_.size() * sizeof(std::uint64_t);
    auto* raw = reinterpret_cast<unsigned char*>(keys_.data());
    raw[byte_offset % pool] ^= 0x2a;
  }
}

std::vector<Record> Partition::to_records() const {
  std::vector<Record> out;
  out.reserve(size());
  append_records_to(out);
  return out;
}

void Partition::append_records_to(std::vector<Record>& out) const {
  for (std::size_t i = 0; i < size(); ++i) {
    const std::size_t b = begin_of(i);
    out.push_back(Record{
        keys_[i],
        std::vector<double>(values_.begin() + static_cast<std::ptrdiff_t>(b),
                            values_.begin() +
                                static_cast<std::ptrdiff_t>(ends_[i])),
        aux_[i]});
  }
}

void Partition::stable_sort_by_key() {
  const std::size_t n = size();
  if (n < 2) return;
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [this](std::size_t a, std::size_t b) {
    return keys_[a] < keys_[b];
  });

  // Gather into fresh arrays following the sorted permutation.
  Partition sorted;
  sorted.reserve(n);
  sorted.reserve_values(values_.size());
  for (const std::size_t i : idx) {
    const std::size_t b = begin_of(i);
    sorted.emplace(keys_[i], values_.data() + b, ends_[i] - b, aux_[i]);
  }
  *this = std::move(sorted);
}

void Partition::absorb(Partition&& other) {
  if (other.empty()) {
    other.clear();
    return;
  }
  if (empty()) {
    *this = std::move(other);
    other.clear();
    return;
  }
  const std::size_t off = values_.size();
  keys_.insert(keys_.end(), other.keys_.begin(), other.keys_.end());
  aux_.insert(aux_.end(), other.aux_.begin(), other.aux_.end());
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  ends_.reserve(ends_.size() + other.ends_.size());
  for (const std::size_t e : other.ends_) ends_.push_back(e + off);
  bytes_ += other.bytes_;
  other.clear();
}

}  // namespace chopper::engine
