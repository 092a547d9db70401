// Newer engine features: flatMap / union / distinct operators, AQE-style
// adaptive coalescing, fault injection and speculative execution.
#include <gtest/gtest.h>

#include <set>

#include "engine/engine.h"

namespace chopper::engine {
namespace {

EngineOptions small_options() {
  EngineOptions o;
  o.default_parallelism = 8;
  o.host_threads = 4;
  return o;
}

SourceFn iota_source(std::size_t total) {
  return [total](std::size_t index, std::size_t count) {
    Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      Record r;
      r.key = i;
      r.values = {static_cast<double>(i)};
      p.push(std::move(r));
    }
    return p;
  };
}

TEST(FlatMap, ExpandsRecords) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  auto ds = Dataset::source("s", 4, iota_source(100))
                ->flat_map("expand", [](const Record& r) {
                  std::vector<Record> out;
                  for (std::uint64_t i = 0; i < r.key % 3; ++i) {
                    Record c;
                    c.key = r.key;
                    c.values = {static_cast<double>(i)};
                    out.push_back(std::move(c));
                  }
                  return out;
                });
  const auto result = eng.count(ds);
  // keys 0..99: key%3 copies each -> 33*0 + 33*1 + 34*2 ... compute exactly:
  std::size_t expected = 0;
  for (std::size_t i = 0; i < 100; ++i) expected += i % 3;
  EXPECT_EQ(result.count, expected);
}

TEST(FlatMap, EmptyExpansionDropsRecords) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  auto ds = Dataset::source("s", 2, iota_source(50))
                ->flat_map("drop-all",
                           [](const Record&) { return std::vector<Record>{}; });
  EXPECT_EQ(eng.count(ds).count, 0u);
}

TEST(Union, ConcatenatesBothInputs) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  auto a = Dataset::source("a", 3, iota_source(70));
  auto b = Dataset::source("b", 2, iota_source(30));
  const auto result = eng.collect(a->union_with(b, "u"));
  EXPECT_EQ(result.records.size(), 100u);
  // Bag semantics: keys 0..29 appear twice.
  std::map<std::uint64_t, int> counts;
  for (const auto& r : result.records) ++counts[r.key];
  EXPECT_EQ(counts[5], 2);
  EXPECT_EQ(counts[50], 1);
}

TEST(Distinct, KeepsOneRecordPerKey) {
  Engine eng(ClusterSpec::uniform(2, 4), small_options());
  auto ds = Dataset::source("s", 4, iota_source(200))
                ->map("mod",
                      [](const Record& r) {
                        Record out = r;
                        out.key = r.key % 17;
                        return out;
                      })
                ->distinct("uniq");
  const auto result = eng.collect(ds);
  EXPECT_EQ(result.records.size(), 17u);
  std::set<std::uint64_t> keys;
  for (const auto& r : result.records) keys.insert(r.key);
  EXPECT_EQ(keys.size(), 17u);
}

TEST(AdaptiveCoalescing, SizesReduceSideFromMapOutput) {
  EngineOptions opts = small_options();
  opts.default_parallelism = 64;  // deliberately oversized default
  opts.adaptive.enabled = true;
  // With data_scale=1, target is in raw bytes. 5000 records of ~40B = ~200KB;
  // a 32 KiB target should yield ~7 partitions instead of 64.
  opts.adaptive.target_partition_bytes = 32 << 10;
  Engine eng(ClusterSpec::uniform(2, 4), opts);
  auto agg = Dataset::source("s", 8, iota_source(5000))
                 ->group_by_key("g");
  eng.count(agg);
  const auto& reduce_stage = eng.metrics().stages()[1];
  EXPECT_LT(reduce_stage.num_partitions, 16u);
  EXPECT_GE(reduce_stage.num_partitions, 4u);
}

TEST(AdaptiveCoalescing, ExplicitRequestWins) {
  EngineOptions opts = small_options();
  opts.adaptive.enabled = true;
  opts.adaptive.target_partition_bytes = 1;  // would explode the count
  opts.adaptive.max_partitions = 10'000;
  Engine eng(ClusterSpec::uniform(2, 4), opts);
  ShuffleRequest req;
  req.num_partitions = 5;  // user pinned
  auto agg = Dataset::source("s", 4, iota_source(1000))->repartition("rep", req);
  eng.count(agg);
  EXPECT_EQ(eng.metrics().stages()[1].num_partitions, 5u);
}

TEST(AdaptiveCoalescing, PlanProviderWins) {
  class FixedProvider : public PlanProvider {
   public:
    std::optional<PartitionScheme> scheme_for(std::uint64_t) override {
      return PartitionScheme{PartitionerKind::kHash, 9};
    }
  };
  EngineOptions opts = small_options();
  opts.adaptive.enabled = true;
  opts.adaptive.target_partition_bytes = 1;
  Engine eng(ClusterSpec::uniform(2, 4), opts);
  eng.set_plan_provider(std::make_shared<FixedProvider>());
  auto agg = Dataset::source("s", 4, iota_source(1000))->group_by_key("g");
  eng.count(agg);
  EXPECT_EQ(eng.metrics().stages()[1].num_partitions, 9u);
}

TEST(AdaptiveCoalescing, MinPartitionClamp) {
  EngineOptions opts = small_options();
  opts.adaptive.enabled = true;
  opts.adaptive.target_partition_bytes = 1ULL << 40;  // everything fits in one
  opts.adaptive.min_partitions = 3;
  Engine eng(ClusterSpec::uniform(2, 4), opts);
  auto agg = Dataset::source("s", 4, iota_source(1000))->group_by_key("g");
  eng.count(agg);
  EXPECT_EQ(eng.metrics().stages()[1].num_partitions, 3u);
}

TEST(FaultInjection, RetriesSlowTheStageDeterministically) {
  auto run_with_faults = [](double prob) {
    EngineOptions opts;
    opts.default_parallelism = 16;
    opts.host_threads = 4;
    opts.faults.task_failure_prob = prob;
    opts.faults.max_task_attempts = 100;
    Engine eng(ClusterSpec::uniform(2, 4), opts);
    auto ds = Dataset::source("s", 64, iota_source(10'000));
    return eng.count(ds).sim_time_s;
  };
  const double clean = run_with_faults(0.0);
  const double faulty1 = run_with_faults(0.3);
  const double faulty2 = run_with_faults(0.3);
  EXPECT_GT(faulty1, clean);
  EXPECT_DOUBLE_EQ(faulty1, faulty2);  // deterministic injection
}

TEST(FaultInjection, ResultsUnaffectedByFaults) {
  EngineOptions opts = small_options();
  opts.faults.task_failure_prob = 0.4;
  opts.faults.max_task_attempts = 100;
  Engine eng(ClusterSpec::uniform(2, 4), opts);
  auto ds = Dataset::source("s", 8, iota_source(500))
                ->map("k",
                      [](const Record& r) {
                        Record out = r;
                        out.key = r.key % 10;
                        return out;
                      })
                ->reduce_by_key("sum", [](Record& acc, const Record& next) {
                  acc.values[0] += next.values[0];
                });
  const auto result = eng.collect(ds);
  EXPECT_EQ(result.records.size(), 10u);
  double total = 0.0;
  for (const auto& r : result.records) total += r.values[0];
  EXPECT_DOUBLE_EQ(total, 499.0 * 500.0 / 2.0);
}

TEST(FaultInjection, AttemptsRecordedInMetrics) {
  EngineOptions opts = small_options();
  opts.faults.task_failure_prob = 0.5;
  opts.faults.max_task_attempts = 100;
  Engine eng(ClusterSpec::uniform(2, 4), opts);
  eng.count(Dataset::source("s", 32, iota_source(1000)));
  std::size_t retried = 0;
  for (const auto& t : eng.metrics().stages()[0].tasks) {
    retried += t.attempts > 1;
  }
  EXPECT_GT(retried, 4u);  // ~half of 32 tasks should see >=1 failure
}

TEST(FaultInjection, ExceedingMaxAttemptsAbortsJob) {
  EngineOptions opts = small_options();
  opts.faults.task_failure_prob = 1.0;  // every attempt fails
  opts.faults.max_task_attempts = 3;
  Engine eng(ClusterSpec::uniform(2, 4), opts);
  EXPECT_THROW(eng.count(Dataset::source("s", 4, iota_source(100))),
               std::runtime_error);
}

TEST(Speculation, CapsStragglers) {
  // One partition is 50x larger than the rest; speculation caps the stage
  // near the median task duration.
  auto skewed = [](std::size_t index, std::size_t count) {
    (void)count;
    Partition p;
    const std::size_t n = index == 0 ? 50'000 : 1'000;
    for (std::size_t i = 0; i < n; ++i) {
      Record r;
      r.key = i;
      r.values = {1.0};
      p.push(std::move(r));
    }
    return p;
  };
  auto run = [&](bool speculate) {
    EngineOptions opts;
    opts.default_parallelism = 16;
    opts.host_threads = 4;
    // Make compute dominate launch overhead so the straggler is real.
    opts.cost_model.sec_per_work_unit = 2e-6;
    opts.speculation.enabled = speculate;
    Engine eng(ClusterSpec::uniform(2, 4), opts);
    return eng.count(Dataset::source("skewed", 16, skewed)).sim_time_s;
  };
  const double without = run(false);
  const double with = run(true);
  EXPECT_LT(with, without * 0.6);
}

TEST(Speculation, NoEffectOnBalancedStages) {
  auto run = [&](bool speculate) {
    EngineOptions opts = small_options();
    opts.speculation.enabled = speculate;
    Engine eng(ClusterSpec::uniform(2, 4), opts);
    return eng.count(Dataset::source("s", 16, iota_source(16'000))).sim_time_s;
  };
  EXPECT_NEAR(run(false), run(true), run(false) * 0.35);
}

}  // namespace
}  // namespace chopper::engine
// (appended) NIC contention model.
namespace chopper::engine {
namespace {

TEST(NetworkContention, SlowsShuffleHeavyStagesDeterministically) {
  auto run = [](bool contention) {
    EngineOptions opts;
    opts.default_parallelism = 32;
    opts.host_threads = 4;
    opts.cost_model.model_network_contention = contention;
    Engine eng(ClusterSpec::paper_heterogeneous(), opts);
    auto agg = Dataset::source("s", 32,
                               [](std::size_t index, std::size_t count) {
                                 Partition p;
                                 const std::size_t total = 50'000;
                                 for (std::size_t i = total * index / count;
                                      i < total * (index + 1) / count; ++i) {
                                   Record r;
                                   r.key = i;
                                   r.values = {1.0, 2.0, 3.0, 4.0};
                                   r.aux_bytes = 64;
                                   p.push(std::move(r));
                                 }
                                 return p;
                               })
                   ->group_by_key("g");
    return eng.count(agg).sim_time_s;
  };
  const double free_link = run(false);
  const double contended = run(true);
  EXPECT_GT(contended, free_link);           // contention only slows things
  EXPECT_DOUBLE_EQ(run(true), contended);    // and stays deterministic
}

}  // namespace
}  // namespace chopper::engine
