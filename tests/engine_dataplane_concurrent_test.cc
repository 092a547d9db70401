// Concurrency soak for the data plane, built to run under TSan (ctest -L
// tsan). The primitives run on the calling task's thread and keep their
// combine scratch thread_local, so concurrent engine tasks must never share
// or corrupt each other's state: drive the primitives from several caller
// threads at once, and run a combine-heavy engine job mix with
// host_threads > 1 against a single-threaded engine. The assertions are
// correctness invariants; the real product here is TSan coverage of the
// thread_local combine scratch under concurrent task threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "chaos.h"
#include "common/rng.h"
#include "engine/dataplane.h"
#include "engine/engine.h"
#include "engine/partitioner.h"

namespace chopper::engine {
namespace {

void sum_fn(Record& acc, const Record& next) {
  acc.values[0] += next.values[0];
  acc.values[1] += next.values[1];
}

Partition make_partition(std::size_t n, std::size_t distinct,
                         std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  Partition p;
  for (std::size_t i = 0; i < n; ++i) {
    const double vals[2] = {rng.next_double(), 1.0};
    p.emplace(rng.next_below(distinct), vals, 2, 0);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Concurrent callers: the service shape — several engine task threads each
// running a primitive at once, with key cardinalities that grow each
// thread's combine table to a different size. Every caller's output must
// equal the reference computed up front on one thread.

TEST(ConcurrentDataPlane, ConcurrentCallersMatchSequential) {
  const HashPartitioner hash(11);
  constexpr std::size_t kCallers = 6;

  std::vector<Partition> inputs(kCallers);
  std::vector<std::vector<Partition>> want_scatter(kCallers);
  std::vector<std::vector<Partition>> want_combine(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    inputs[c] = make_partition(8192, std::size_t{64} << (2 * c), 7 + c);
    want_scatter[c].resize(hash.num_partitions());
    dataplane::radix_scatter(inputs[c], hash, want_scatter[c]);
    want_combine[c].resize(hash.num_partitions());
    dataplane::combine_scatter(inputs[c], hash, sum_fn, want_combine[c]);
  }

  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 4; ++round) {
        // Alternate inputs so each thread's scratch shrinks and regrows.
        const std::size_t in = (c + static_cast<std::size_t>(round)) % kCallers;
        std::vector<Partition> scatter(hash.num_partitions());
        dataplane::radix_scatter(inputs[in], hash, scatter);
        std::vector<Partition> combine(hash.num_partitions());
        dataplane::combine_scatter(inputs[in], hash, sum_fn, combine);
        for (std::size_t r = 0; r < hash.num_partitions(); ++r) {
          ASSERT_EQ(scatter[r].checksum(), want_scatter[in][r].checksum())
              << "caller " << c << " round " << round << " bucket " << r;
          ASSERT_EQ(combine[r].checksum(), want_combine[in][r].checksum())
              << "caller " << c << " round " << round << " bucket " << r;
        }
      }
    });
  }
  for (auto& t : callers) t.join();
}

// ---------------------------------------------------------------------------
// Parallel tasks: the engine's parallelism is one task per partition, so a
// primitive run by t task threads at once must give every thread the
// sequential result — same records, same order, same bytes — at every
// thread count.

const std::size_t kThreadCounts[] = {2, 3, 7, 8};
constexpr std::size_t kRecords = 16 * 1024;

void expect_same_records(const Partition& got, const Partition& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.bytes(), want.bytes());
  EXPECT_EQ(got.checksum(), want.checksum());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.key(i), want.key(i)) << "record " << i;
    ASSERT_EQ(got.aux(i), want.aux(i)) << "record " << i;
    const auto gv = got.values(i);
    const auto wv = want.values(i);
    ASSERT_EQ(gv.size(), wv.size()) << "record " << i;
    for (std::size_t j = 0; j < gv.size(); ++j) {
      ASSERT_EQ(gv[j], wv[j]) << "record " << i << " value " << j;
    }
  }
}

/// Runs `task(i)` on `threads` threads at once and joins them.
template <typename Task>
void run_concurrently(std::size_t threads, Task task) {
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(task, i);
  for (auto& t : pool) t.join();
}

std::vector<Partition> make_parts(std::size_t count, std::size_t distinct,
                                  bool sorted) {
  std::vector<Partition> parts(count);
  for (std::size_t i = 0; i < count; ++i) {
    parts[i] = make_partition(2048 + 128 * i, distinct, 100 + i);
    if (sorted) parts[i].stable_sort_by_key();
  }
  return parts;
}

/// merge_reduce_by_key over `make_parts(count, distinct, sorted)`, once
/// sequentially and once per thread on t concurrent threads.
void expect_concurrent_merges_match(std::size_t count, std::size_t distinct,
                                    bool sorted) {
  const Partition want = dataplane::merge_reduce_by_key(
      make_parts(count, distinct, sorted), sum_fn);
  for (const std::size_t t : kThreadCounts) {
    std::vector<std::vector<Partition>> inputs(t);
    for (auto& in : inputs) in = make_parts(count, distinct, sorted);
    std::vector<Partition> got(t);
    run_concurrently(t, [&](std::size_t i) {
      got[i] = dataplane::merge_reduce_by_key(std::move(inputs[i]), sum_fn);
    });
    for (std::size_t i = 0; i < t; ++i) {
      SCOPED_TRACE("distinct=" + std::to_string(distinct) + " threads=" +
                   std::to_string(t) + " thread=" + std::to_string(i));
      expect_same_records(got[i], want);
    }
  }
}

TEST(ParallelDataPlane, ScatterMatchesSequentialHash) {
  const Partition data = make_partition(kRecords, 512, 7);
  const HashPartitioner hash(13);
  std::vector<Partition> want(hash.num_partitions());
  dataplane::radix_scatter(data, hash, want);

  for (const std::size_t t : kThreadCounts) {
    std::vector<std::vector<Partition>> got(
        t, std::vector<Partition>(hash.num_partitions()));
    run_concurrently(t, [&](std::size_t i) {
      dataplane::radix_scatter(data, hash, got[i]);
    });
    for (std::size_t i = 0; i < t; ++i) {
      for (std::size_t r = 0; r < want.size(); ++r) {
        SCOPED_TRACE("threads=" + std::to_string(t) + " thread=" +
                     std::to_string(i) + " bucket=" + std::to_string(r));
        expect_same_records(got[i][r], want[r]);
      }
    }
  }
}

TEST(ParallelDataPlane, MergeMatchesSequentialSortedRuns) {
  for (const std::size_t distinct : {std::size_t{256}, std::size_t{50'000}}) {
    expect_concurrent_merges_match(8, distinct, /*sorted=*/true);
  }
}

TEST(ParallelDataPlane, MergeMatchesSequentialUnsortedInputs) {
  expect_concurrent_merges_match(6, 512, /*sorted=*/false);
}

// ---------------------------------------------------------------------------
// Whole-engine soak: four host task threads running map-side combines
// concurrently, two jobs back to back, checked against a one-thread engine
// (run digest, makespan and every collected record).

TEST(ConcurrentDataPlane, EngineJobsWithParallelPlane) {
  const auto job = [](std::uint64_t mod) {
    return Dataset::source(
               "cdp-src", 8,
               [mod](std::size_t index, std::size_t count) {
                 Partition p;
                 const std::size_t total = 20'000;
                 const std::size_t begin = total * index / count;
                 const std::size_t end = total * (index + 1) / count;
                 for (std::size_t i = begin; i < end; ++i) {
                   Record r;
                   r.key = (i * 2654435761ULL) % mod;
                   r.values = {static_cast<double>(i % 97) * 0.1, 1.0};
                   p.push(std::move(r));
                 }
                 return p;
               })
        ->reduce_by_key("cdp-sum", sum_fn,
                        ShuffleRequest{std::nullopt, 8, false});
  };

  for (const std::uint64_t mod : {std::uint64_t{499}, std::uint64_t{15'013}}) {
    EngineOptions seq;
    seq.default_parallelism = 8;
    seq.host_threads = 1;
    Engine ref(ClusterSpec::uniform(2, 2), seq);
    const auto want = ref.collect(job(mod), "cdp");

    EngineOptions par = seq;
    par.host_threads = 4;
    Engine eng(ClusterSpec::uniform(2, 2), par);
    for (int round = 0; round < 2; ++round) {
      const auto got = eng.collect(job(mod), "cdp");
      if (round == 0) {
        EXPECT_EQ(bench::metrics_digest(eng.metrics()),
                  bench::metrics_digest(ref.metrics()))
            << "mod " << mod;
      }
      EXPECT_EQ(got.sim_time_s, want.sim_time_s) << "mod " << mod;
      ASSERT_EQ(got.records.size(), want.records.size()) << "mod " << mod;
      for (std::size_t i = 0; i < got.records.size(); ++i) {
        ASSERT_EQ(got.records[i].key, want.records[i].key) << "mod " << mod;
        ASSERT_EQ(got.records[i].values, want.records[i].values)
            << "mod " << mod;
      }
    }
  }
}

}  // namespace
}  // namespace chopper::engine
