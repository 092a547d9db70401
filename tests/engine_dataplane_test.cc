// Batched data plane (DESIGN.md §13): the radix shuffle write, map-side
// combine, and sort/merge-based reduce must be drop-in replacements for the
// per-record reference implementations — same records, same order, same
// bytes — and the combiner toggle must never change a job's results, its
// replayed history, or its recovery behavior, only its shuffle volume.
// Also covers the batched partitioner dispatch (partition_of_batch ==
// partition_of).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/dataplane.h"
#include "engine/engine.h"
#include "engine/partitioner.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/sinks.h"

namespace chopper::engine {
namespace {

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "/" + leaf;
}

Partition make_partition(std::size_t n, std::size_t distinct,
                         std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  Partition p;
  for (std::size_t i = 0; i < n; ++i) {
    // Integer-valued doubles: sums are exact, so reduce results compare
    // bit-for-bit no matter how applications are grouped.
    const double vals[2] = {static_cast<double>(rng.next_below(100)), 1.0};
    p.emplace(rng.next_below(distinct), vals, 2,
              static_cast<std::uint32_t>(i % 3));
  }
  return p;
}

void sum_fn(Record& acc, const Record& next) {
  acc.values[0] += next.values[0];
  acc.values[1] += next.values[1];
}

void expect_same_records(const Partition& got, const Partition& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.bytes(), want.bytes());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.key(i), want.key(i)) << "record " << i;
    EXPECT_EQ(got.aux(i), want.aux(i)) << "record " << i;
    const auto gv = got.values(i);
    const auto wv = want.values(i);
    ASSERT_EQ(gv.size(), wv.size()) << "record " << i;
    for (std::size_t j = 0; j < gv.size(); ++j) {
      EXPECT_EQ(gv[j], wv[j]) << "record " << i << " value " << j;
    }
  }
}

/// Non-integer payloads of 2 or 3 doubles and varied aux bytes: sums depend
/// on the order `fn` is applied in, so exact equality with the references
/// below checks the encounter-order contract, not just the key sets.
Partition make_float_partition(std::size_t n, std::size_t distinct,
                               std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  Partition p;
  for (std::size_t i = 0; i < n; ++i) {
    const double vals[3] = {rng.next_double(), rng.next_double(),
                            static_cast<double>(i % 7)};
    p.emplace(rng.next_below(distinct), vals, 2 + (i % 2),
              static_cast<std::uint32_t>(i % 5));
  }
  return p;
}

// -- per-record reference implementations -----------------------------------

/// Shuffle write: one partition_of call and one push per record.
void reference_scatter(const Partition& data, const Partitioner& part,
                       std::vector<Partition>& buckets) {
  Record scratch;
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.materialize_into(i, scratch);
    buckets[part.partition_of(scratch.key)].push(scratch);
  }
}

/// Map-side combine: per-bucket hash map, `fn` in encounter order,
/// ascending-key emission.
std::vector<Partition> reference_combine(const Partition& data,
                                         const Partitioner& part) {
  std::vector<std::unordered_map<std::uint64_t, Record>> accs(
      part.num_partitions());
  Record scratch;
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.materialize_into(i, scratch);
    auto& acc = accs[part.partition_of(scratch.key)];
    auto [it, inserted] = acc.try_emplace(scratch.key, scratch);
    if (!inserted) sum_fn(it->second, scratch);
  }
  std::vector<Partition> out(part.num_partitions());
  for (std::size_t r = 0; r < accs.size(); ++r) {
    std::vector<std::uint64_t> keys;
    for (const auto& [k, v] : accs[r]) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    for (const auto k : keys) out[r].push(accs[r].at(k));
  }
  return out;
}

/// reduceByKey merge: one hash map over the parts in order (part order,
/// then encounter order within a part), ascending-key emission.
Partition reference_merge_reduce(const std::vector<Partition>& parts) {
  std::map<std::uint64_t, Record> acc;
  Record scratch;
  for (const auto& p : parts) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      p.materialize_into(i, scratch);
      auto [it, inserted] = acc.try_emplace(scratch.key, scratch);
      if (!inserted) sum_fn(it->second, scratch);
    }
  }
  Partition out;
  for (const auto& [k, r] : acc) out.push(r);
  return out;
}

// ---------------------------------------------------------------------------
// radix_scatter: one partitioner call per record, same buckets and order as
// the per-record reference loop.

TEST(DataPlane, RadixScatterMatchesPerRecordReference) {
  const Partition data = make_partition(4096, 512, 7);
  const HashPartitioner hash(13);

  std::vector<Partition> got(hash.num_partitions());
  dataplane::radix_scatter(data, hash, got);

  std::vector<Partition> want(hash.num_partitions());
  reference_scatter(data, hash, want);
  for (std::size_t r = 0; r < want.size(); ++r) {
    expect_same_records(got[r], want[r]);
  }
}

TEST(DataPlane, RadixScatterRangeMatchesPerRecordReference) {
  const Partition data = make_float_partition(16 * 1024, 4096, 11);
  std::vector<std::uint64_t> sample;
  for (std::uint64_t k = 0; k < 4096; k += 37) sample.push_back(k);
  const auto range = RangePartitioner::from_sample(9, sample);

  std::vector<Partition> got(range->num_partitions());
  dataplane::radix_scatter(data, *range, got);
  std::vector<Partition> want(range->num_partitions());
  reference_scatter(data, *range, want);
  for (std::size_t r = 0; r < want.size(); ++r) {
    SCOPED_TRACE("bucket=" + std::to_string(r));
    expect_same_records(got[r], want[r]);
  }
}

TEST(DataPlane, RadixScatterAppendsToNonEmptyBuckets) {
  // The scheduler scatters several map tasks into the same bucket row:
  // records must append after the existing ones, in encounter order.
  const Partition first = make_float_partition(2048, 128, 3);
  const Partition second = make_float_partition(16 * 1024, 128, 4);
  const HashPartitioner hash(5);

  std::vector<Partition> got(hash.num_partitions());
  dataplane::radix_scatter(first, hash, got);
  dataplane::radix_scatter(second, hash, got);
  std::vector<Partition> want(hash.num_partitions());
  reference_scatter(first, hash, want);
  reference_scatter(second, hash, want);
  for (std::size_t r = 0; r < want.size(); ++r) {
    expect_same_records(got[r], want[r]);
  }
}

TEST(DataPlane, EmptyAndTinyInputs) {
  const HashPartitioner hash(4);
  std::vector<Partition> got(4);
  dataplane::radix_scatter(Partition{}, hash, got);
  dataplane::combine_scatter(Partition{}, hash, sum_fn, got);
  for (const auto& p : got) EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(dataplane::merge_reduce_by_key({}, sum_fn).size(), 0u);

  // Fewer records than buckets.
  const Partition tiny = make_float_partition(3, 2, 19);
  std::vector<Partition> want(4);
  reference_scatter(tiny, hash, want);
  dataplane::radix_scatter(tiny, hash, got);
  for (std::size_t r = 0; r < 4; ++r) expect_same_records(got[r], want[r]);

  std::vector<Partition> combined(4);
  dataplane::combine_scatter(tiny, hash, sum_fn, combined);
  const auto want_combined = reference_combine(tiny, hash);
  for (std::size_t r = 0; r < 4; ++r) {
    expect_same_records(combined[r], want_combined[r]);
  }
}

TEST(DataPlane, RadixScatterRangePartitionerSortedRuns) {
  const Partition data = make_partition(4096, 4096, 11);
  std::vector<std::uint64_t> sample;
  for (std::uint64_t k = 0; k < 4096; k += 37) sample.push_back(k);
  const auto range = RangePartitioner::from_sample(8, sample);

  std::vector<Partition> got(range->num_partitions());
  dataplane::radix_scatter(data, *range, got);

  std::size_t total = 0;
  for (std::size_t r = 0; r < got.size(); ++r) {
    total += got[r].size();
    for (std::size_t i = 0; i < got[r].size(); ++i) {
      EXPECT_EQ(range->partition_of(got[r].key(i)), r);
    }
  }
  EXPECT_EQ(total, data.size());
}

// ---------------------------------------------------------------------------
// combine_scatter: equals scatter-then-reduce done the pre-batched way
// (per-bucket hash map, ascending-key emission, encounter-order fn calls).

TEST(DataPlane, CombineScatterMatchesScatterThenReduce) {
  const Partition data = make_partition(4096, 256, 23);
  const HashPartitioner hash(7);

  std::vector<Partition> got(hash.num_partitions());
  dataplane::combine_scatter(data, hash, sum_fn, got);

  const auto want = reference_combine(data, hash);
  for (std::size_t r = 0; r < want.size(); ++r) {
    expect_same_records(got[r], want[r]);
  }
}

TEST(DataPlane, CombineScatterKeyCardinalityRegimes) {
  // Heavy duplication, mixed, and all-distinct keys (the key table grows
  // through many doublings), under hash and range partitioning, appended
  // after existing bucket contents.
  std::vector<std::uint64_t> sample;
  for (std::uint64_t k = 0; k < 100'000; k += 997) sample.push_back(k);
  const auto range = RangePartitioner::from_sample(9, sample);
  const HashPartitioner hash(7);
  const Partition prefix = make_float_partition(512, 64, 5);
  for (const Partitioner* part : {static_cast<const Partitioner*>(&hash),
                                  static_cast<const Partitioner*>(range.get())}) {
    for (const std::size_t distinct :
         {std::size_t{64}, std::size_t{4096}, std::size_t{1} << 40}) {
      const Partition data = make_float_partition(16 * 1024, distinct, 23);
      std::vector<Partition> got(part->num_partitions());
      dataplane::combine_scatter(prefix, *part, sum_fn, got);
      dataplane::combine_scatter(data, *part, sum_fn, got);
      auto want = reference_combine(prefix, *part);
      const auto want_data = reference_combine(data, *part);
      for (std::size_t r = 0; r < want.size(); ++r) {
        want[r].absorb(Partition(want_data[r]));
        SCOPED_TRACE(std::string(to_string(part->kind())) + " distinct=" +
                     std::to_string(distinct) + " bucket=" +
                     std::to_string(r));
        expect_same_records(got[r], want[r]);
      }
    }
  }
}

TEST(DataPlane, CombineScatterShrinksBytes) {
  const Partition data = make_partition(8192, 128, 31);
  const HashPartitioner hash(4);

  std::vector<Partition> plain(hash.num_partitions());
  dataplane::radix_scatter(data, hash, plain);
  std::vector<Partition> combined(hash.num_partitions());
  dataplane::combine_scatter(data, hash, sum_fn, combined);

  std::size_t plain_bytes = 0;
  std::size_t combined_bytes = 0;
  for (std::size_t r = 0; r < hash.num_partitions(); ++r) {
    plain_bytes += plain[r].bytes();
    combined_bytes += combined[r].bytes();
  }
  EXPECT_LT(combined_bytes, plain_bytes);
}

// ---------------------------------------------------------------------------
// merge_reduce_by_key: the sorted-run (k-way) path and the unsorted
// (sort-based) fallback must produce identical partitions, and both must
// match a hash-map reference.

TEST(DataPlane, MergeReduceSortedAndUnsortedPathsAgree) {
  std::vector<Partition> sorted_parts;
  std::vector<Partition> unsorted_parts;
  for (std::uint64_t s = 0; s < 4; ++s) {
    Partition p = make_partition(2048, 512, 100 + s);
    unsorted_parts.push_back(p);
    p.stable_sort_by_key();
    sorted_parts.push_back(std::move(p));
  }
  const Partition via_kway =
      dataplane::merge_reduce_by_key(std::move(sorted_parts), sum_fn);
  const Partition via_sort =
      dataplane::merge_reduce_by_key(std::move(unsorted_parts), sum_fn);
  // Keys and accumulated sums agree (the fn application order differs
  // between the two input layouts, but integer sums are exact).
  ASSERT_EQ(via_kway.size(), via_sort.size());
  for (std::size_t i = 0; i < via_kway.size(); ++i) {
    EXPECT_EQ(via_kway.key(i), via_sort.key(i));
    const auto a = via_kway.values(i);
    const auto b = via_sort.values(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
  }
}

TEST(DataPlane, MergeReduceMatchesHashReference) {
  std::vector<Partition> parts;
  for (std::uint64_t s = 0; s < 3; ++s) {
    parts.push_back(make_partition(1024, 96, 200 + s));
  }
  std::unordered_map<std::uint64_t, Record> ref;
  Record scratch;
  for (const auto& p : parts) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      p.materialize_into(i, scratch);
      auto [it, inserted] = ref.try_emplace(scratch.key, scratch);
      if (!inserted) sum_fn(it->second, scratch);
    }
  }
  const Partition got = dataplane::merge_reduce_by_key(std::move(parts), sum_fn);
  ASSERT_EQ(got.size(), ref.size());
  std::uint64_t prev_key = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i > 0) EXPECT_GT(got.key(i), prev_key);  // ascending unique keys
    prev_key = got.key(i);
    const auto& want = ref.at(got.key(i));
    const auto gv = got.values(i);
    ASSERT_EQ(gv.size(), want.values.size());
    for (std::size_t j = 0; j < gv.size(); ++j) {
      EXPECT_EQ(gv[j], want.values[j]);
    }
  }
}

TEST(DataPlane, MergeReduceMatchesReferenceAcrossLayouts) {
  // Key-sorted runs (the k-way path) and unsorted inputs (the sort-based
  // fallback), low and high key cardinality: bit-identical to the
  // encounter-order reference.
  for (const bool sorted : {true, false}) {
    for (const std::size_t distinct : {std::size_t{256}, std::size_t{50'000}}) {
      std::vector<Partition> parts(8);
      for (std::size_t i = 0; i < parts.size(); ++i) {
        parts[i] = make_float_partition(2048 + 128 * i, distinct, 100 + i);
        if (sorted) parts[i].stable_sort_by_key();
      }
      const Partition want = reference_merge_reduce(parts);
      const Partition got =
          dataplane::merge_reduce_by_key(std::move(parts), sum_fn);
      SCOPED_TRACE("sorted=" + std::to_string(sorted) + " distinct=" +
                   std::to_string(distinct));
      expect_same_records(got, want);
    }
  }
}

TEST(DataPlane, MergeReduceSkewedKeys) {
  // One key carries half of all records.
  std::vector<Partition> parts(4);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    common::Xoshiro256 rng(500 + p);
    for (std::size_t i = 0; i < 4096; ++i) {
      const double vals[2] = {rng.next_double(), 1.0};
      const std::uint64_t key = (i % 2 == 0) ? 42 : rng.next_below(64);
      parts[p].emplace(key, vals, 2, 0);
    }
    parts[p].stable_sort_by_key();
  }
  const Partition want = reference_merge_reduce(parts);
  const Partition got = dataplane::merge_reduce_by_key(std::move(parts), sum_fn);
  expect_same_records(got, want);
}

TEST(DataPlane, MergeGroupByKeyConcatenatesInEncounterOrder) {
  std::vector<Partition> parts;
  Partition a;
  {
    const double v0[1] = {1.0};
    const double v1[1] = {2.0};
    a.emplace(5, v0, 1, 0);
    a.emplace(5, v1, 1, 0);
  }
  Partition b;
  {
    const double v2[1] = {3.0};
    b.emplace(5, v2, 1, 0);
    const double v3[1] = {9.0};
    b.emplace(2, v3, 1, 0);
  }
  parts.push_back(std::move(a));
  parts.push_back(std::move(b));
  const Partition got = dataplane::merge_group_by_key(std::move(parts));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got.key(0), 2u);
  EXPECT_EQ(got.key(1), 5u);
  const auto g = got.values(1);
  ASSERT_EQ(g.size(), 3u);  // encounter order: part 0 first, then part 1
  EXPECT_EQ(g[0], 1.0);
  EXPECT_EQ(g[1], 2.0);
  EXPECT_EQ(g[2], 3.0);
}

// ---------------------------------------------------------------------------
// Engine-level combiner property: toggling map_side_combine never changes
// results, only the map stage's shuffle write volume.

EngineOptions small_options(bool combine) {
  EngineOptions o;
  o.default_parallelism = 8;
  o.host_threads = 4;
  o.map_side_combine = combine;
  return o;
}

SourceFn iota_source(std::size_t total) {
  return [total](std::size_t index, std::size_t count) {
    Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      const double vals[1] = {static_cast<double>(i)};
      p.emplace(i, vals, 1, 0);
    }
    return p;
  };
}

/// Shuffle-heavy job with heavy key duplication: source -> re-key ->
/// reduceByKey. Integer values keep the sums exact under any grouping.
DatasetPtr sum_by_mod(std::size_t records, std::size_t mod) {
  return Dataset::source("iota", 4, iota_source(records))
      ->map("mod",
            [mod](const Record& r) {
              Record out = r;
              out.key = r.key % mod;
              return out;
            })
      ->reduce_by_key("sum", [](Record& acc, const Record& next) {
        acc.values[0] += next.values[0];
      });
}

std::vector<std::pair<std::uint64_t, double>> sorted_kv(
    const std::vector<Record>& records) {
  std::vector<std::pair<std::uint64_t, double>> out;
  out.reserve(records.size());
  for (const auto& r : records) out.emplace_back(r.key, r.values.at(0));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(CombinerProperty, SameResultsStrictlySmallerShuffle) {
  Engine on(ClusterSpec::uniform(2, 2), small_options(true));
  const auto with_combine = on.collect(sum_by_mod(4000, 37));
  Engine off(ClusterSpec::uniform(2, 2), small_options(false));
  const auto without = off.collect(sum_by_mod(4000, 37));

  EXPECT_EQ(sorted_kv(with_combine.records), sorted_kv(without.records));

  ASSERT_EQ(on.metrics().stages().size(), 2u);
  ASSERT_EQ(off.metrics().stages().size(), 2u);
  const auto& map_on = on.metrics().stages()[0];
  const auto& map_off = off.metrics().stages()[0];
  ASSERT_TRUE(map_on.is_shuffle_map);
  EXPECT_GT(map_on.shuffle_write_bytes, 0u);
  // 4000 records fold into 37 keys per bucket: the combined write must be
  // strictly (and here massively) smaller, and so must the reduce's read.
  EXPECT_LT(map_on.shuffle_write_bytes, map_off.shuffle_write_bytes);
  EXPECT_LT(on.metrics().stages()[1].shuffle_read_bytes,
            off.metrics().stages()[1].shuffle_read_bytes);
}

TEST(CombinerProperty, RandomizedJobsAgreeAcrossModes) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t records = 500 + rng() % 3000;
    const std::size_t mod = 3 + rng() % 200;
    Engine on(ClusterSpec::uniform(2, 2), small_options(true));
    Engine off(ClusterSpec::uniform(2, 2), small_options(false));
    const auto a = on.collect(sum_by_mod(records, mod));
    const auto b = off.collect(sum_by_mod(records, mod));
    EXPECT_EQ(sorted_kv(a.records), sorted_kv(b.records))
        << "records=" << records << " mod=" << mod;
    EXPECT_EQ(a.records.size(), std::min(records, mod));
  }
}

// ---------------------------------------------------------------------------
// Replay parity: the event history a run emits must rebuild the same stage
// telemetry whether the combiner was on or off.

void expect_history_matches(const MetricsRegistry& live,
                            const std::string& path) {
  const auto reader = obs::HistoryReader::load(path);
  const auto stages = reader.stages();
  ASSERT_EQ(stages.size(), live.stages().size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& a = live.stages()[i];
    const auto& b = stages[i];
    EXPECT_EQ(a.input_records, b.input_records);
    EXPECT_EQ(a.input_bytes, b.input_bytes);
    EXPECT_EQ(a.output_records, b.output_records);
    EXPECT_EQ(a.output_bytes, b.output_bytes);
    EXPECT_EQ(a.shuffle_read_bytes, b.shuffle_read_bytes);
    EXPECT_EQ(a.shuffle_write_bytes, b.shuffle_write_bytes);
    EXPECT_EQ(a.attempt_count, b.attempt_count);
  }
  MetricsRegistry rebuilt;
  reader.replay_into(rebuilt);
  ASSERT_EQ(rebuilt.stages().size(), live.stages().size());
  for (std::size_t i = 0; i < live.stages().size(); ++i) {
    EXPECT_EQ(rebuilt.stages()[i].shuffle_write_bytes,
              live.stages()[i].shuffle_write_bytes);
    EXPECT_EQ(rebuilt.stages()[i].output_records,
              live.stages()[i].output_records);
  }
}

TEST(CombinerReplay, HistoryReplaysIdenticallyInBothModes) {
  for (const bool combine : {true, false}) {
    const std::string path = temp_path(
        combine ? "dataplane_replay_on.jsonl" : "dataplane_replay_off.jsonl");
    obs::EventLog log;
    log.attach(std::make_shared<obs::JsonlFileSink>(path));
    Engine eng(ClusterSpec::uniform(2, 2), small_options(combine));
    eng.set_event_log(&log);
    const auto got = eng.collect(sum_by_mod(3000, 29));
    eng.set_event_log(nullptr);
    log.detach_all();
    ASSERT_EQ(got.records.size(), 29u);
    expect_history_matches(eng.metrics(), path);
  }
}

// ---------------------------------------------------------------------------
// Fault recovery: losing a node's map outputs at the reduce barrier replays
// lineage through the same combine/scatter path and lands on byte-identical
// results — in both combiner modes.

TEST(CombinerFaultRecovery, LostMapRowsReplayIdenticallyInBothModes) {
  for (const bool combine : {true, false}) {
    Engine vanilla(ClusterSpec::uniform(2, 2), small_options(combine));
    const auto want = vanilla.collect(sum_by_mod(4000, 37));

    EngineOptions opts = small_options(combine);
    opts.failure_schedule.failures.push_back(
        NodeFailure{/*node=*/1, /*at_sim_time=*/-1.0, /*at_stage_id=*/1,
                    /*rejoin_after_s=*/-1.0});
    Engine eng(ClusterSpec::uniform(2, 2), opts);
    const auto got = eng.collect(sum_by_mod(4000, 37));

    EXPECT_EQ(sorted_kv(got.records), sorted_kv(want.records))
        << "combine=" << combine;
    EXPECT_GT(got.recomputed_tasks, 0u) << "combine=" << combine;
    EXPECT_GT(got.lost_bytes, 0u) << "combine=" << combine;
    EXPECT_GT(got.recomputed_bytes, 0u) << "combine=" << combine;
  }
}

// ---------------------------------------------------------------------------
// partition_of_batch: the autovectorized batch must equal the scalar call.

TEST(PartitionerBatch, HashBatchMatchesScalar) {
  const HashPartitioner hash(300);
  common::Xoshiro256 rng(1);
  // Deliberately not a multiple of 8 to cover the scalar tail.
  std::vector<std::uint64_t> keys(4099);
  for (auto& k : keys) k = rng();
  std::vector<std::uint32_t> got(keys.size());
  hash.partition_of_batch(keys.data(), keys.size(), got.data());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(got[i], hash.partition_of(keys[i])) << "key " << i;
  }
}

TEST(PartitionerBatch, RangeBatchMatchesScalar) {
  common::Xoshiro256 rng(2);
  std::vector<std::uint64_t> sample(512);
  for (auto& k : sample) k = rng.next_below(1 << 16);
  const auto range = RangePartitioner::from_sample(37, sample);
  // Sorted-ish input exercises the memoized fast path; random the slow one.
  std::vector<std::uint64_t> keys(2051);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = (i < 1000) ? i * 13 % (1 << 16) : rng.next_below(1 << 16);
  }
  std::vector<std::uint32_t> got(keys.size());
  range->partition_of_batch(keys.data(), keys.size(), got.data());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(got[i], range->partition_of(keys[i])) << "key " << i;
  }
}

}  // namespace
}  // namespace chopper::engine
