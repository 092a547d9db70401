#include "engine/dataplane.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/hash.h"

namespace chopper::engine::dataplane {

namespace {

/// (key, index) pairs sorted ascending by key with ties broken by index —
/// i.e. equal keys keep their encounter order, which is what makes every
/// merge below apply the user's reduce fn in exactly the sequence the old
/// per-record hash-map implementations did. Sorting flat 16-byte pairs
/// (rather than an index permutation with indirect comparisons) keeps the
/// sort cache-resident.
using KeyIdx = std::pair<std::uint64_t, std::size_t>;

/// Stable LSD radix sort of (key, index) pairs by key. Byte planes whose
/// values are all equal are skipped, so narrow key domains cost only the
/// passes they need. Stability keeps equal keys in encounter order — the
/// same order a comparison sort with an index tie-break would produce —
/// while every pass streams memory sequentially instead of branching on
/// comparisons, which is what makes it beat std::sort on wide inputs.
void radix_sort_keys(KeyIdx* first, std::size_t n,
                     std::vector<KeyIdx>& scratch) {
  if (n < 128) {  // tiny runs: introsort's constants win
    std::sort(first, first + n);  // pair order == stable sort by key
    return;
  }
  std::array<std::array<std::uint32_t, 256>, 8> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = first[i].first;
    for (std::size_t b = 0; b < 8; ++b) ++hist[b][(k >> (8 * b)) & 0xff];
  }
  scratch.resize(n);
  KeyIdx* src = first;
  KeyIdx* dst = scratch.data();
  for (std::size_t b = 0; b < 8; ++b) {
    // A full bucket means every key shares this byte: nothing to reorder.
    if (hist[b][(src[0].first >> (8 * b)) & 0xff] == n) continue;
    std::array<std::uint32_t, 256> offs;
    std::uint32_t sum = 0;
    for (std::size_t v = 0; v < 256; ++v) {
      offs[v] = sum;
      sum += hist[b][v];
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[offs[(src[i].first >> (8 * b)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != first) std::copy(src, src + n, first);
}

std::vector<KeyIdx> sorted_keys(const Partition& p) {
  std::vector<KeyIdx> ks(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) ks[i] = {p.key(i), i};
  std::vector<KeyIdx> scratch;
  radix_sort_keys(ks.data(), ks.size(), scratch);
  return ks;
}

bool keys_sorted(const Partition& p) {
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (p.key(i) < p.key(i - 1)) return false;
  }
  return true;
}

/// K-way merge-reduce over key-sorted parts. Equivalent to stable-sorting
/// the parts' concatenation and run-scanning it: equal keys are consumed in
/// part order, encounter order within a part. Every read advances
/// sequentially through its run — no hash table, no global sort, no gather.
Partition kway_reduce(std::vector<Partition>& parts, const ReduceFn& fn) {
  const std::size_t k_runs = parts.size();
  std::vector<std::size_t> cur(k_runs, 0);
  Partition out;
  Record acc;
  Record next;
  while (true) {
    bool any = false;
    std::uint64_t k = 0;
    for (std::size_t p = 0; p < k_runs; ++p) {
      if (cur[p] < parts[p].size() && (!any || parts[p].key(cur[p]) < k)) {
        k = parts[p].key(cur[p]);
        any = true;
      }
    }
    if (!any) break;
    bool first = true;
    for (std::size_t p = 0; p < k_runs; ++p) {
      while (cur[p] < parts[p].size() && parts[p].key(cur[p]) == k) {
        if (first) {
          parts[p].materialize_into(cur[p], acc);
          first = false;
        } else {
          parts[p].materialize_into(cur[p], next);
          fn(acc, next);
        }
        ++cur[p];
      }
    }
    out.push(acc);
  }
  return out;
}

// -- map-side combine core ---------------------------------------------------

/// Per-thread combine scratch. Each engine task thread gets its own, so
/// combine_scatter is re-entrant without locks; every vector/Record settles
/// to its high-water capacity, so steady-state combine does no allocation.
struct CombineScratch {
  /// Open-addressing key -> gid table, linear probing. `gid1` is gid + 1;
  /// 0 marks an empty slot. Only the first `capacity` slots are active.
  struct Slot {
    std::uint64_t key;
    std::uint32_t gid1;
  };
  std::vector<Slot> slots;
  std::size_t capacity = 0;
  std::vector<std::uint64_t> gid_keys;  ///< gid -> key (first-encounter order)
  std::vector<Record> accs;             ///< gid -> accumulator
  std::vector<std::uint32_t> bucket_of;  ///< gid -> destination bucket
  std::vector<KeyIdx> order;             ///< (key, gid), sorted for emission
  std::vector<KeyIdx> sort_scratch;
  std::vector<std::size_t> recs;  ///< per-bucket record / payload counts
  std::vector<std::size_t> vals;
  Record next;

  /// Activate (and clear) the first `cap` slots, growing storage if needed.
  void reset_slots(std::size_t cap) {
    capacity = cap;
    if (slots.size() < cap) slots.resize(cap);
    std::fill_n(slots.begin(), cap, Slot{0, 0});
  }

  /// The slot holding `key`, or the empty slot where it belongs. Load stays
  /// at most 1/2, so the probe always reaches one or the other.
  Slot& probe(std::uint64_t key) {
    const std::size_t mask = capacity - 1;
    std::size_t idx = static_cast<std::size_t>(common::mix64(key)) & mask;
    while (slots[idx].gid1 != 0 && slots[idx].key != key) {
      idx = (idx + 1) & mask;
    }
    return slots[idx];
  }

  /// Double the active table and re-insert every gid claimed so far.
  void grow() {
    reset_slots(2 * capacity);
    for (std::uint32_t g = 0; g < gid_keys.size(); ++g) {
      probe(gid_keys[g]) = Slot{gid_keys[g], g + 1};
    }
  }
};

CombineScratch& combine_scratch() {
  thread_local CombineScratch s;
  return s;
}

}  // namespace

void radix_scatter(const Partition& in, const Partitioner& part,
                   std::span<Partition> buckets) {
  const std::size_t n = in.size();
  if (n == 0) return;
  const std::size_t num_buckets = buckets.size();
  const auto& keys = in.raw_keys();
  const auto& auxs = in.raw_aux();
  const auto& ends = in.raw_ends();

  // Bucket each record once (one batched virtual call), histogram
  // record/payload counts, reserve each destination exactly, then scatter
  // into exactly-sized arenas.
  std::vector<std::uint32_t> bucket_of(n);
  part.partition_of_batch(keys.data(), n, bucket_of.data());
  std::vector<std::size_t> recs(num_buckets, 0);
  std::vector<std::size_t> vals(num_buckets, 0);
  for (std::size_t i = 0; i < n; ++i) {
    ++recs[bucket_of[i]];
    vals[bucket_of[i]] += ends[i] - (i == 0 ? 0 : ends[i - 1]);
  }
  for (std::size_t r = 0; r < num_buckets; ++r) {
    if (recs[r] == 0) continue;
    buckets[r].reserve(buckets[r].size() + recs[r]);
    buckets[r].reserve_values(buckets[r].values_size() + vals[r]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const double> v = in.values(i);
    buckets[bucket_of[i]].emplace(keys[i], v.data(), v.size(), auxs[i]);
  }
}

void combine_scatter(const Partition& in, const Partitioner& part,
                     const ReduceFn& fn, std::span<Partition> buckets) {
  const std::size_t n = in.size();
  if (n == 0) return;
  CombineScratch& s = combine_scratch();
  s.reset_slots(64);
  s.gid_keys.clear();

  // One pass in encounter order: the first encounter of a key claims the
  // next gid and initializes its accumulator; later encounters fold into it
  // with `fn`. The table doubles (rehashing the gids so far) before it
  // passes half load, so probes stay short and always reach an empty slot.
  const auto& keys = in.raw_keys();
  for (std::size_t i = 0; i < n; ++i) {
    CombineScratch::Slot& slot = s.probe(keys[i]);
    if (slot.gid1 != 0) {
      in.materialize_into(i, s.next);
      fn(s.accs[slot.gid1 - 1], s.next);
      continue;
    }
    const auto gid = static_cast<std::uint32_t>(s.gid_keys.size());
    slot = CombineScratch::Slot{keys[i], gid + 1};
    s.gid_keys.push_back(keys[i]);
    if (s.accs.size() <= gid) s.accs.emplace_back();
    in.materialize_into(i, s.accs[gid]);
    if (2 * s.gid_keys.size() > s.capacity) s.grow();
  }

  // Bucket the distinct keys once, sort them once, and append each
  // bucket's records in ascending key order into exactly-reserved
  // destinations (a stable walk of the globally sorted keys keeps every
  // bucket's run ascending).
  const std::size_t distinct = s.gid_keys.size();
  const std::size_t num_buckets = buckets.size();
  s.bucket_of.resize(distinct);
  part.partition_of_batch(s.gid_keys.data(), distinct, s.bucket_of.data());
  s.order.resize(distinct);
  for (std::uint32_t g = 0; g < distinct; ++g) s.order[g] = {s.gid_keys[g], g};
  radix_sort_keys(s.order.data(), distinct, s.sort_scratch);

  s.recs.assign(num_buckets, 0);
  s.vals.assign(num_buckets, 0);
  for (std::size_t g = 0; g < distinct; ++g) {
    ++s.recs[s.bucket_of[g]];
    s.vals[s.bucket_of[g]] += s.accs[g].values.size();
  }
  for (std::size_t r = 0; r < num_buckets; ++r) {
    if (s.recs[r] == 0) continue;
    buckets[r].reserve(buckets[r].size() + s.recs[r]);
    buckets[r].reserve_values(buckets[r].values_size() + s.vals[r]);
  }
  for (const KeyIdx& e : s.order) {
    buckets[s.bucket_of[e.second]].push(s.accs[e.second]);
  }
}

Partition merge_concat(std::vector<Partition>&& parts) {
  Partition out;
  std::size_t recs = 0;
  std::size_t vals = 0;
  for (const auto& p : parts) {
    recs += p.size();
    vals += p.values_size();
  }
  out.reserve(recs);
  out.reserve_values(vals);
  for (auto& p : parts) out.absorb(std::move(p));
  return out;
}

Partition merge_sorted(std::vector<Partition>&& parts) {
  Partition out = merge_concat(std::move(parts));
  out.stable_sort_by_key();
  return out;
}

Partition merge_reduce_by_key(std::vector<Partition>&& parts,
                              const ReduceFn& fn) {
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  if (total == 0) return {};

  // Combined shuffle rows arrive key-sorted (combine_scatter emits runs in
  // ascending key order), so the common case merges sorted runs directly.
  if (std::all_of(parts.begin(), parts.end(), keys_sorted)) {
    return kway_reduce(parts, fn);
  }
  Partition all = merge_concat(std::move(parts));
  const std::size_t n = all.size();
  const auto ks = sorted_keys(all);

  std::size_t distinct = 1;
  for (std::size_t i = 1; i < n; ++i) {
    if (ks[i].first != ks[i - 1].first) ++distinct;
  }
  Partition out;
  out.reserve(distinct);

  Record acc;
  Record next;
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t k = ks[i].first;
    all.materialize_into(ks[i].second, acc);
    ++i;
    while (i < n && ks[i].first == k) {
      all.materialize_into(ks[i].second, next);
      fn(acc, next);
      ++i;
    }
    out.push(acc);
  }
  return out;
}

Partition merge_group_by_key(std::vector<Partition>&& parts) {
  Partition all = merge_concat(std::move(parts));
  const std::size_t n = all.size();
  if (n == 0) return {};
  const auto ks = sorted_keys(all);

  std::size_t distinct = 1;
  for (std::size_t i = 1; i < n; ++i) {
    if (ks[i].first != ks[i - 1].first) ++distinct;
  }
  Partition out;
  out.reserve(distinct);
  out.reserve_values(all.values_size());

  Record g;
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t k = ks[i].first;
    g.key = k;
    g.values.clear();
    g.aux_bytes = 0;
    while (i < n && ks[i].first == k) {
      const std::span<const double> v = all.values(ks[i].second);
      g.values.insert(g.values.end(), v.begin(), v.end());
      g.aux_bytes += all.aux(ks[i].second);
      ++i;
    }
    out.push(g);
  }
  return out;
}

Partition merge_join(Partition&& left, Partition&& right, const JoinFn& fn,
                     bool cogroup) {
  const auto lk = sorted_keys(left);
  const auto rk = sorted_keys(right);
  Partition out;

  std::vector<Record> ls;  // reused per-key match buffers (user-fn path)
  std::vector<Record> rs;
  Record j;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < lk.size() || b < rk.size()) {
    // Next key in the ascending union of both sides.
    std::uint64_t k;
    if (a < lk.size() && (b >= rk.size() || lk[a].first <= rk[b].first)) {
      k = lk[a].first;
    } else {
      k = rk[b].first;
    }
    const std::size_t a0 = a;
    const std::size_t b0 = b;
    while (a < lk.size() && lk[a].first == k) ++a;
    while (b < rk.size() && rk[b].first == k) ++b;

    if (!cogroup && (a == a0 || b == b0)) continue;  // inner join

    if (fn) {
      ls.clear();
      rs.clear();
      for (std::size_t t = a0; t < a; ++t) {
        ls.push_back(left.record_at(lk[t].second));
      }
      for (std::size_t t = b0; t < b; ++t) {
        rs.push_back(right.record_at(rk[t].second));
      }
      for (const auto& rec : fn(k, ls, rs)) out.push(rec);
      continue;
    }
    if (cogroup) {
      j.key = k;
      j.values.clear();
      j.aux_bytes = 0;
      for (std::size_t t = a0; t < a; ++t) {
        const std::span<const double> v = left.values(lk[t].second);
        j.values.insert(j.values.end(), v.begin(), v.end());
        j.aux_bytes += left.aux(lk[t].second);
      }
      for (std::size_t t = b0; t < b; ++t) {
        const std::span<const double> v = right.values(rk[t].second);
        j.values.insert(j.values.end(), v.begin(), v.end());
        j.aux_bytes += right.aux(rk[t].second);
      }
      out.push(j);
    } else {
      for (std::size_t t = a0; t < a; ++t) {
        const std::span<const double> lv = left.values(lk[t].second);
        const std::uint32_t la = left.aux(lk[t].second);
        for (std::size_t u = b0; u < b; ++u) {
          const std::span<const double> rv = right.values(rk[u].second);
          j.key = k;
          j.values.clear();
          j.values.reserve(lv.size() + rv.size());
          j.values.insert(j.values.end(), lv.begin(), lv.end());
          j.values.insert(j.values.end(), rv.begin(), rv.end());
          j.aux_bytes = la + right.aux(rk[u].second);
          out.push(j);
        }
      }
    }
  }
  return out;
}

}  // namespace chopper::engine::dataplane
