// Property tests over the engine's core invariant: the RESULT of a job is a
// pure function of the data and operators — never of the partition scheme,
// the cluster shape, or the scheduling knobs. Parameterized sweeps drive
// one reference pipeline through many configurations and compare against a
// sequential oracle.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <ostream>

#include "engine/engine.h"

namespace chopper::engine {
namespace {

constexpr std::size_t kTotal = 4'000;
constexpr std::size_t kDistinct = 97;

SourceFn source() {
  return [](std::size_t index, std::size_t count) {
    Partition p;
    const std::size_t begin = kTotal * index / count;
    const std::size_t end = kTotal * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      Record r;
      r.key = (i * i + 7) % kDistinct;  // non-uniform key frequencies
      r.values = {static_cast<double>(i % 13), 1.0};
      p.push(std::move(r));
    }
    return p;
  };
}

/// Sequential oracle: per-key sums of the same pipeline.
std::map<std::uint64_t, std::pair<double, double>> oracle() {
  std::map<std::uint64_t, std::pair<double, double>> out;
  for (std::size_t i = 0; i < kTotal; ++i) {
    const std::uint64_t key = (i * i + 7) % kDistinct;
    const auto v = static_cast<double>(i % 13);
    if (v < 2.0) continue;  // mirrors the filter below
    out[key].first += v;
    out[key].second += 1.0;
  }
  return out;
}

struct Config {
  PartitionerKind kind;
  std::size_t source_partitions;
  std::size_t reduce_partitions;
  std::size_t nodes;
  std::size_t cores;
};

// gtest would otherwise name each case by a byte dump of Config, padding
// bytes included, so the discovered test names would change from build to
// build.
void PrintTo(const Config& cfg, std::ostream* os) {
  *os << to_string(cfg.kind) << " src=" << cfg.source_partitions
      << " reduce=" << cfg.reduce_partitions << " cluster=" << cfg.nodes
      << "x" << cfg.cores;
}

class ResultInvariance : public ::testing::TestWithParam<Config> {};

TEST_P(ResultInvariance, AggregationMatchesOracle) {
  const Config cfg = GetParam();
  EngineOptions opts;
  opts.default_parallelism = 16;
  opts.host_threads = 4;
  Engine eng(ClusterSpec::uniform(cfg.nodes, cfg.cores), opts);

  ShuffleRequest req;
  req.kind = cfg.kind;
  req.num_partitions = cfg.reduce_partitions;
  auto ds = Dataset::source("src", cfg.source_partitions, source())
                ->filter("ge2", [](const Record& r) { return r.values[0] >= 2.0; })
                ->reduce_by_key("sum", [](Record& acc, const Record& next) {
                  acc.values[0] += next.values[0];
                  acc.values[1] += next.values[1];
                }, req);
  const auto result = eng.collect(ds);

  const auto expect = oracle();
  ASSERT_EQ(result.records.size(), expect.size());
  for (const auto& r : result.records) {
    const auto it = expect.find(r.key);
    ASSERT_NE(it, expect.end()) << "unexpected key " << r.key;
    EXPECT_DOUBLE_EQ(r.values[0], it->second.first) << "key " << r.key;
    EXPECT_DOUBLE_EQ(r.values[1], it->second.second) << "key " << r.key;
  }
}

TEST_P(ResultInvariance, SortProducesGloballySortedOutput) {
  const Config cfg = GetParam();
  EngineOptions opts;
  opts.default_parallelism = 16;
  opts.host_threads = 4;
  Engine eng(ClusterSpec::uniform(cfg.nodes, cfg.cores), opts);

  ShuffleRequest req;
  req.num_partitions = cfg.reduce_partitions;
  auto ds = Dataset::source("src", cfg.source_partitions, source())
                ->sort_by_key("sort", req);
  const auto result = eng.collect(ds);
  ASSERT_EQ(result.records.size(), kTotal);
  for (std::size_t i = 1; i < result.records.size(); ++i) {
    EXPECT_LE(result.records[i - 1].key, result.records[i].key);
  }
}

TEST_P(ResultInvariance, SelfJoinCountsMatchKeyFrequencies) {
  const Config cfg = GetParam();
  EngineOptions opts;
  opts.default_parallelism = 16;
  opts.host_threads = 4;
  Engine eng(ClusterSpec::uniform(cfg.nodes, cfg.cores), opts);

  // join(distinct(A), A): output count == |A| (each record matches exactly
  // the single distinct row of its key).
  auto a = Dataset::source("src", cfg.source_partitions, source());
  ShuffleRequest req;
  req.kind = cfg.kind;
  req.num_partitions = cfg.reduce_partitions;
  auto uniq = a->distinct("uniq", req);
  const auto result = eng.count(uniq->join_with(a, "selfjoin", req));
  EXPECT_EQ(result.count, kTotal);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ResultInvariance,
    ::testing::Values(
        Config{PartitionerKind::kHash, 4, 4, 2, 2},
        Config{PartitionerKind::kHash, 16, 3, 3, 4},
        Config{PartitionerKind::kHash, 7, 64, 2, 8},
        Config{PartitionerKind::kHash, 1, 1, 1, 1},
        Config{PartitionerKind::kRange, 4, 4, 2, 2},
        Config{PartitionerKind::kRange, 16, 5, 5, 2},
        Config{PartitionerKind::kRange, 9, 33, 2, 4}));

// ---- scheduling knobs must not change results either ----------------------

TEST(ResultInvarianceKnobs, SpeculationAndFaultsPreserveResults) {
  auto run = [](bool speculate, double fault_prob) {
    EngineOptions opts;
    opts.default_parallelism = 12;
    opts.host_threads = 4;
    opts.speculation.enabled = speculate;
    opts.faults.task_failure_prob = fault_prob;
    opts.faults.max_attempts = 50;
    Engine eng(ClusterSpec::uniform(2, 4), opts);
    auto ds = Dataset::source("src", 8, source())
                  ->reduce_by_key("sum", [](Record& acc, const Record& next) {
                    acc.values[0] += next.values[0];
                  });
    const auto result = eng.collect(ds);
    double total = 0.0;
    for (const auto& r : result.records) total += r.values[0];
    return std::make_pair(result.records.size(), total);
  };
  const auto clean = run(false, 0.0);
  const auto speculative = run(true, 0.0);
  const auto faulty = run(false, 0.3);
  EXPECT_EQ(clean, speculative);
  EXPECT_EQ(clean, faulty);
}

TEST(ResultInvarianceKnobs, AdaptiveCoalescingPreservesResults) {
  auto run = [](bool adaptive) {
    EngineOptions opts;
    opts.default_parallelism = 12;
    opts.host_threads = 4;
    opts.adaptive.enabled = adaptive;
    opts.adaptive.target_partition_bytes = 4096;
    Engine eng(ClusterSpec::uniform(2, 4), opts);
    auto ds = Dataset::source("src", 8, source())->group_by_key("g");
    return eng.collect(ds).records.size();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ResultInvarianceKnobs, ClusterShapeOnlyChangesTime) {
  auto run = [](const ClusterSpec& cluster) {
    EngineOptions opts;
    opts.default_parallelism = 12;
    opts.host_threads = 4;
    Engine eng(cluster, opts);
    auto ds = Dataset::source("src", 8, source())
                  ->reduce_by_key("sum", [](Record& acc, const Record& next) {
                    acc.values[0] += next.values[0];
                  });
    const auto result = eng.collect(ds);
    double total = 0.0;
    for (const auto& r : result.records) total += r.values[0];
    return total;
  };
  const double uniform = run(ClusterSpec::uniform(2, 2));
  const double paper = run(ClusterSpec::paper_heterogeneous());
  EXPECT_DOUBLE_EQ(uniform, paper);
}

}  // namespace
}  // namespace chopper::engine
