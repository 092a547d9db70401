// Golden identity oracle for the data plane: tiny KMeans, SQL and PageRank
// runs under a fixed (partitioner, P) plan must reproduce pinned run digests
// bit-for-bit. Each case pins three numbers:
//  * bench::metrics_digest — every stage/task/job field the event log
//    serializes (record and byte counts, shuffle volumes, simulated times);
//  * the simulated makespan's bit pattern;
//  * a checksum over the workload's result doubles.
// The grid covers hash and range partitioning at P in {1, 7, 64} with the
// map-side combine on and off, so any change to scatter order, combine
// accumulation order, merge emission order or shuffle byte accounting shows
// up as a mismatch here. The pinned values are a contract: a change that
// moves them changes results and must say so.
//
// The fault grid (GoldenFaultIdentity.*) pins faulty runs the same way, plus
// a digest of every stage-retry / fetch-failure / node-down / fetch-retry
// event. chaos_fuzz only compares a faulty run against its own clean run, so
// a drift in fault-run simulated time (retry charging, strike order, retry
// event fields) is visible here and nowhere else.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "chaos.h"
#include "chopper/config_plan.h"
#include "common/hash.h"
#include "engine/engine.h"
#include "obs/event_log.h"
#include "obs/sinks.h"
#include "workloads/kmeans.h"
#include "workloads/pagerank.h"
#include "workloads/sql.h"

namespace chopper {
namespace {

struct Golden {
  engine::PartitionerKind kind;
  std::size_t p;
  bool combine;
  std::uint64_t metrics_digest;
  std::uint64_t makespan_bits;
  std::uint64_t result_checksum;
};

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

std::unique_ptr<engine::Engine> make_engine(const Golden& g) {
  engine::EngineOptions o;
  o.default_parallelism = 12;
  o.host_threads = 2;
  o.map_side_combine = g.combine;
  auto eng = std::make_unique<engine::Engine>(
      engine::ClusterSpec::uniform(2, 2), o);
  eng->set_plan_provider(
      std::make_shared<core::FixedPlanProvider>(g.kind, g.p));
  return eng;
}

/// Runs `run(eng)` for every golden row; `run` returns the result checksum.
template <typename Run>
void check_grid(const char* workload, const std::vector<Golden>& grid,
                Run&& run) {
  for (const Golden& g : grid) {
    auto eng = make_engine(g);
    const std::uint64_t result = run(*eng);
    const std::uint64_t digest = bench::metrics_digest(eng->metrics());
    const std::uint64_t makespan = bits_of(eng->metrics().total_sim_time());
    const char* kind =
        g.kind == engine::PartitionerKind::kHash ? "kHash" : "kRange";
    // On mismatch, print the row as it would be pinned so a deliberate
    // result change can be reviewed and re-pinned in one step.
    const bool same = digest == g.metrics_digest &&
                      makespan == g.makespan_bits &&
                      result == g.result_checksum;
    EXPECT_TRUE(same) << workload << " " << kind << " P=" << g.p
                      << " combine=" << g.combine;
    if (!same) {
      std::printf("      {K::%s, %zu, %s,\n       0x%016" PRIx64
                  "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull},\n",
                  kind, g.p, g.combine ? "true" : "false", digest, makespan,
                  result);
    }
  }
}

using K = engine::PartitionerKind;

TEST(GoldenIdentity, KMeans) {
  workloads::KMeansParams p;
  p.data.total_points = 2'000;
  p.data.dims = 4;
  p.data.clusters = 3;
  p.k = 3;
  p.iterations = 2;
  p.init_rounds = 2;
  p.source_partitions = 8;
  const workloads::KMeansWorkload wl(p);
  const std::vector<Golden> grid = {
      {K::kHash, 1, true,
       0x4288d59a97bf7535ull, 0x3fbc24c9630ae73aull, 0x67719f1ad13ad152ull},
      {K::kHash, 1, false,
       0x5e37937775684608ull, 0x3fbc35ee2c20a2eaull, 0x67719f1ad13ad152ull},
      {K::kHash, 7, true,
       0xda6b91fba604b55dull, 0x3fcbcfb2760e9903ull, 0x124a91a5ffd5076eull},
      {K::kHash, 7, false,
       0x37f96edbdec3841dull, 0x3fcbd62ac1411fd3ull, 0xbc5fd01c552cc130ull},
      {K::kHash, 64, true,
       0xa236437d2c3cb5caull, 0x3ffbe6ea3b9bd827ull, 0x5258e531d62d35dbull},
      {K::kHash, 64, false,
       0x415c034338c74e22ull, 0x3ffbe7aae5b98633ull, 0xbc5fd01c552cc130ull},
      {K::kRange, 1, true,
       0x4288d59a97bf7535ull, 0x3fbc24c9630ae73aull, 0x67719f1ad13ad152ull},
      {K::kRange, 1, false,
       0x5e37937775684608ull, 0x3fbc35ee2c20a2eaull, 0x67719f1ad13ad152ull},
      {K::kRange, 7, true,
       0x49446d666ca11b22ull, 0x3fcbcfa93d8b01d0ull, 0x124a91a5ffd5076eull},
      {K::kRange, 7, false,
       0xa63c4541413fe193ull, 0x3fcbd2e3de048454ull, 0xbc5fd01c552cc130ull},
      {K::kRange, 64, true,
       0xac099df75c69a16cull, 0x3ffbe6ea3b9bd827ull, 0x5258e531d62d35dbull},
      {K::kRange, 64, false,
       0xe6bceb2d510bcbdfull, 0x3ffbe7ae9ec72789ull, 0xbc5fd01c552cc130ull},
  };
  check_grid("kmeans", grid, [&wl](engine::Engine& eng) {
    const auto r = wl.run_with_result(eng, 1.0);
    common::Checksum64 c;
    for (const auto& center : r.centers) {
      for (const double v : center) c.update_u64(bits_of(v));
    }
    c.update_u64(bits_of(r.cost));
    return c.digest();
  });
}

std::uint64_t run_sql(engine::Engine& eng) {
  workloads::SqlParams p;
  p.fact.total_rows = 4'000;
  p.fact.num_keys = 500;
  p.fact.payload_bytes = 16;
  p.dim.num_keys = 500;
  p.dim.payload_bytes = 16;
  p.fact_partitions = 8;
  p.dim_partitions = 4;
  p.fact_agg_partitions = 8;
  p.dim_agg_partitions = 4;
  const workloads::SqlWorkload wl(p);
  const auto r = wl.run_with_result(eng, 1.0);
  common::Checksum64 c;
  c.update_u64(r.joined_rows);
  c.update_u64(bits_of(r.total_revenue));
  return c.digest();
}

TEST(GoldenIdentity, Sql) {
  const std::vector<Golden> grid = {
      {K::kHash, 1, true,
       0xf976939d50cd9ac0ull, 0x3faeeeb167db4a58ull, 0x3b6ea842e9bdc206ull},
      {K::kHash, 1, false,
       0xd6c2b957e86bea80ull, 0x3faf0324b3cfb6f4ull, 0x3b6ea842e9bdc206ull},
      {K::kHash, 7, true,
       0xeae66c58d457a5f3ull, 0x3fbf3f49d318fd64ull, 0xc6e52705a38b51d0ull},
      {K::kHash, 7, false,
       0xe53b81282bde110dull, 0x3fbf411896c04480ull, 0xc6e52705a38b51d0ull},
      {K::kHash, 64, true,
       0xc63c95eebb54226dull, 0x3ff001f0d744d52full, 0xca5a8db3b16b2e86ull},
      {K::kHash, 64, false,
       0xdcc183d0cd5d6746ull, 0x3ff0020dce6c2b9aull, 0x85c0d51a146ffd4cull},
      {K::kRange, 1, true,
       0xf976939d50cd9ac0ull, 0x3faeeeb167db4a58ull, 0x3b6ea842e9bdc206ull},
      {K::kRange, 1, false,
       0xd6c2b957e86bea80ull, 0x3faf0324b3cfb6f4ull, 0x3b6ea842e9bdc206ull},
      {K::kRange, 7, true,
       0xee1a2fe3a4d125c1ull, 0x3fbf3fc11a98dbd0ull, 0xca5a8db3b16b2e86ull},
      {K::kRange, 7, false,
       0xafd77b37a36d059dull, 0x3fbf424ec78ad9e8ull, 0x3b6ea842e9bdc206ull},
      {K::kRange, 64, true,
       0x24070c2d82762c2aull, 0x3ff017041204fb97ull, 0xca5a8db3b16b2e86ull},
      {K::kRange, 64, false,
       0xdfb52427d28ecad0ull, 0x3ff017050b8e9bbdull, 0x3b6ea842e9bdc206ull},
  };
  check_grid("sql", grid, run_sql);
}

std::uint64_t run_pagerank(engine::Engine& eng) {
  workloads::PageRankParams p;
  p.num_pages = 500;
  p.avg_out_degree = 4;
  p.iterations = 2;
  p.source_partitions = 8;
  const workloads::PageRankWorkload wl(p);
  const auto r = wl.run_with_result(eng, 1.0);
  common::Checksum64 c;
  c.update_u64(r.pages);
  c.update_u64(bits_of(r.total_rank));
  c.update_u64(bits_of(r.max_rank));
  return c.digest();
}

TEST(GoldenIdentity, PageRank) {
  const std::vector<Golden> grid = {
      {K::kHash, 1, true,
       0xcf781de3ac17328aull, 0x3fbbc38f3f004e8eull, 0xec725c3f694fd2b5ull},
      {K::kHash, 1, false,
       0x4713c4a5a7a00e54ull, 0x3fbbca3a9cf02178ull, 0xec725c3f694fd2b5ull},
      {K::kHash, 7, true,
       0x2fe467aab6b13f0eull, 0x3fcc678894278397ull, 0x82f2b10c05547044ull},
      {K::kHash, 7, false,
       0xc84ee2cedcfaa833ull, 0x3fcc680b50afdf9bull, 0xec725c3f694fd2b5ull},
      {K::kHash, 64, true,
       0xfa15b6660bc89126ull, 0x3ffcebe94c4ab67bull, 0x6a03a810cc077e2full},
      {K::kHash, 64, false,
       0xa6b06848b81bfb2aull, 0x3ffcebee332c85cdull, 0x6a03a810cc077e2full},
      {K::kRange, 1, true,
       0xcf781de3ac17328aull, 0x3fbbc38f3f004e8eull, 0xec725c3f694fd2b5ull},
      {K::kRange, 1, false,
       0x4713c4a5a7a00e54ull, 0x3fbbca3a9cf02178ull, 0xec725c3f694fd2b5ull},
      {K::kRange, 7, true,
       0xf8c6de6d3808c4acull, 0x3fcc08fbccf68586ull, 0x0f7355ef4cecd57eull},
      {K::kRange, 7, false,
       0x4f5fab2f454a6775ull, 0x3fcc0957602ed6e8ull, 0xec725c3f694fd2b5ull},
      {K::kRange, 64, true,
       0x501b2d299225f434ull, 0x3ffc85a51e8d27d3ull, 0x0f7355ef4cecd57eull},
      {K::kRange, 64, false,
       0x978a618f81e93faaull, 0x3ffc85a6529ba088ull, 0xec725c3f694fd2b5ull},
  };
  check_grid("pagerank", grid, run_pagerank);
}

// ---------------------------------------------------------------------------
// Fault grid: tiny sql and pagerank under hash P=7 with each fault model
// alone, all of them composed, and three retry-budget aborts.
// ---------------------------------------------------------------------------

enum class Arm {
  kNodeAtStage,    ///< node dies before a stage starts, then rejoins
  kNodeInWindow,   ///< node dies inside a running stage's window
  kOomGrow,        ///< injected OOM; the retry grows the partition count
  kFlakyEscalate,  ///< a flaky node's fetches escalate to stage retries
  kCorrupt,        ///< shuffle-row (and cached-block) corruption
  kTaskRetry,      ///< duration-only task retries
  kComposed,       ///< all of the above in one run
  kAbortOom,       ///< one stage attempt allowed: OOM abort
  kAbortFetch,     ///< one stage attempt allowed: fetch-timeout abort
  kAbortNode,      ///< one stage attempt allowed: node-loss abort
};

struct FaultGolden {
  Arm arm;
  std::uint64_t metrics_digest;
  std::uint64_t makespan_bits;
  std::uint64_t result_checksum;  ///< 0 for abort arms
  std::uint64_t event_digest;
  const char* error;  ///< "<type>: <what()>" for abort arms, else ""
};

constexpr std::size_t kNoDataset = static_cast<std::size_t>(-1);

/// The arm's fault options. This is the only code here that names the fault
/// option API; the pinned constants below never change with it.
engine::EngineOptions fault_options(Arm arm, std::size_t cached_dataset) {
  engine::EngineOptions o;
  o.default_parallelism = 12;
  o.host_threads = 2;
  const auto node_at_stage = [&o] {
    o.faults.node_failures.push_back(engine::NodeFailure{
        /*node=*/1, /*at_sim_time=*/-1.0, /*at_stage_id=*/2,
        /*rejoin_after_s=*/0.02});
  };
  const auto node_in_window = [&o] {
    o.faults.node_failures.push_back(engine::NodeFailure{
        /*node=*/1, /*at_sim_time=*/0.05, /*at_stage_id=*/-1,
        /*rejoin_after_s=*/-1.0});
  };
  const auto oom = [&o] {
    o.faults.ooms.push_back(
        engine::OomInjection{/*stage_id=*/3, /*attempts=*/1, /*task=*/3});
    o.memory.oom_repartition_after = 1;
  };
  const auto flaky = [&o](double prob) {
    o.faults.fetch_failure_prob = prob;
    o.faults.flaky_nodes = {1};
    o.faults.max_fetch_attempts = 2;
    o.faults.fetch_seed = 7;
  };
  const auto corrupt = [&o, cached_dataset] {
    engine::CorruptionInjection row;
    row.target = engine::CorruptionInjection::Target::kShuffleRow;
    row.stage_id = 0;
    row.task = 1;
    row.byte_offset = 5;
    o.faults.corruptions.push_back(row);
    if (cached_dataset == kNoDataset) return;
    engine::CorruptionInjection block;
    block.target = engine::CorruptionInjection::Target::kCachedBlock;
    block.dataset_id = cached_dataset;
    block.task = 2;
    block.byte_offset = 9;
    o.faults.corruptions.push_back(block);
  };
  const auto task_retry = [&o] {
    o.faults.task_failure_prob = 0.3;
    o.faults.max_task_attempts = 50;
  };
  switch (arm) {
    case Arm::kNodeAtStage:
      node_at_stage();
      break;
    case Arm::kNodeInWindow:
      node_in_window();
      break;
    case Arm::kOomGrow:
      oom();
      break;
    case Arm::kFlakyEscalate:
      flaky(0.6);
      o.faults.max_stage_attempts = 8;
      break;
    case Arm::kCorrupt:
      corrupt();
      break;
    case Arm::kTaskRetry:
      task_retry();
      break;
    case Arm::kComposed:
      node_at_stage();
      node_in_window();
      oom();
      flaky(0.6);
      corrupt();
      task_retry();
      o.faults.max_stage_attempts = 8;
      break;
    case Arm::kAbortOom:
      oom();
      o.faults.max_stage_attempts = 1;
      break;
    case Arm::kAbortFetch:
      flaky(1.0);
      o.faults.max_stage_attempts = 1;
      break;
    case Arm::kAbortNode:
      node_in_window();
      o.faults.max_stage_attempts = 1;
      break;
  }
  return o;
}

/// Ordered digest of the retry-path events: every kStageRetry, kFetchFailure,
/// kNodeDown and kFetchRetry with its detail, flags, task, node and value.
std::uint64_t fault_event_digest(const std::vector<obs::Event>& events) {
  common::Checksum64 c;
  for (const obs::Event& e : events) {
    if (e.kind != obs::EventKind::kStageRetry &&
        e.kind != obs::EventKind::kFetchFailure &&
        e.kind != obs::EventKind::kNodeDown &&
        e.kind != obs::EventKind::kFetchRetry) {
      continue;
    }
    c.update_u64(static_cast<std::uint64_t>(e.kind));
    c.update_bytes(e.detail.data(), e.detail.size());
    c.update_u64(e.flags);
    c.update_u64(e.task);
    c.update_u64(e.node);
    c.update_u64(bits_of(e.value));
  }
  return c.digest();
}

/// Id the next Dataset created in this process will get (ids are global).
std::size_t next_dataset_id() {
  return engine::Dataset::source("id-probe", 1, [](std::size_t, std::size_t) {
           return engine::Partition();
         })->id() + 1;
}

/// Runs every arm of `grid`; `cached_offset` is the position of the
/// workload's cached dataset among the datasets one run creates (kNoDataset:
/// the workload caches nothing).
template <typename Run>
void check_fault_grid(const char* workload, std::size_t cached_offset,
                      const std::vector<FaultGolden>& grid, Run&& run) {
  for (const FaultGolden& g : grid) {
    const std::size_t first_id = next_dataset_id();
    const std::size_t cached = cached_offset == kNoDataset
                                   ? kNoDataset
                                   : first_id + cached_offset;
    engine::Engine eng(engine::ClusterSpec::uniform(2, 2),
                       fault_options(g.arm, cached));
    eng.set_plan_provider(std::make_shared<core::FixedPlanProvider>(
        engine::PartitionerKind::kHash, 7));
    obs::EventLog log;
    auto ring = std::make_shared<obs::RingSink>(1 << 16);
    log.attach(ring);
    eng.set_event_log(&log);

    std::uint64_t result = 0;
    std::string error;
    try {
      result = run(eng);
    } catch (const engine::TaskOomError& e) {
      error = std::string("TaskOomError: ") + e.what();
    } catch (const engine::JobAbortedError& e) {
      error = std::string("JobAbortedError: ") + e.what();
    }
    eng.set_event_log(nullptr);
    ASSERT_EQ(ring->dropped(), 0u);

    const std::uint64_t digest = bench::metrics_digest(eng.metrics());
    const std::uint64_t makespan = bits_of(eng.metrics().total_sim_time());
    const std::uint64_t events = fault_event_digest(ring->snapshot());
    const auto arm = static_cast<int>(g.arm);
    const bool same = digest == g.metrics_digest &&
                      makespan == g.makespan_bits &&
                      result == g.result_checksum &&
                      events == g.event_digest && error == g.error;
    EXPECT_TRUE(same) << workload << " arm " << arm << " error '" << error
                      << "'";
    if (!same) {
      std::printf("      {Arm(%d), 0x%016" PRIx64 "ull, 0x%016" PRIx64
                  "ull,\n       0x%016" PRIx64 "ull, 0x%016" PRIx64
                  "ull,\n       \"%s\"},\n",
                  arm, digest, makespan, result, events, error.c_str());
    }
  }
}

TEST(GoldenFaultIdentity, Sql) {
  const std::vector<FaultGolden> grid = {
      {Arm::kNodeAtStage, 0x1b70d9f1152f831cull, 0x3fc911d648fada4cull,
       0xc6e52705a38b51d0ull, 0x9947fd3e3c8bda81ull, ""},
      {Arm::kNodeInWindow, 0xa56b783ccc4b3096ull, 0x3fceff0224d98f66ull,
       0xc6e52705a38b51d0ull, 0x70355a8af127fca1ull, ""},
      {Arm::kOomGrow, 0xfca5f358fa90e524ull, 0x3fc6135de6523e6eull,
       0xc6e52705a38b51d0ull, 0x47226210fa6bfb0full, ""},
      {Arm::kFlakyEscalate, 0xb4ff1375b14c832bull, 0x3ffb34783c80229full,
       0xc6e52705a38b51d0ull, 0xea55c031425320ddull, ""},
      {Arm::kCorrupt, 0x13ff81d826ddb277ull, 0x3fc12a4f5a97616dull,
       0xc6e52705a38b51d0ull, 0xb92a9c87b4840b75ull, ""},
      {Arm::kTaskRetry, 0xb48c49d4db9fbe78ull, 0x3fc76043b02ca5caull,
       0xc6e52705a38b51d0ull, 0xb92a9c87b4840b75ull, ""},
      {Arm::kComposed, 0xb037427e0aaa7965ull, 0x3ff436421b739af7ull,
       0xc6e52705a38b51d0ull, 0xad194e2e899bfaabull, ""},
      {Arm::kAbortOom, 0xefbd62837020c3a5ull, 0x3fb5e75422f21163ull,
       0x0000000000000000ull, 0x47226210fa6bfb0full,
       "TaskOomError: "
       "stage reduceByKey:dim-dedup exceeded 1 attempts: task working set out"
       " of memory at P=7"},
      {Arm::kAbortFetch, 0xc5a2a05913743dd6ull, 0x3fd8bbc0546944dbull,
       0x0000000000000000ull, 0x8f24d82df035e1fbull,
       "JobAbortedError: "
       "stage reduceByKey:group-by exceeded 1 attempts after transient fetch"
       " failures"},
      {Arm::kAbortNode, 0x67d97715a3dd1512ull, 0x3fa999999999999aull,
       0x0000000000000000ull, 0x70355a8af127fca1ull,
       "JobAbortedError: "
       "stage source:dim-scan exceeded 1 attempts after node failures"},
  };
  check_fault_grid("sql", kNoDataset, grid, run_sql);
}

TEST(GoldenFaultIdentity, PageRank) {
  const std::vector<FaultGolden> grid = {
      {Arm::kNodeAtStage, 0x6aa286ac1f5cddc1ull, 0x3fd2dbfc12ca2cebull,
       0x82f2b10c05547044ull, 0x9947fd3e3c8bda81ull, ""},
      {Arm::kNodeInWindow, 0x89832f4322fb209full, 0x3fdbca931f09b91bull,
       0x82f2b10c05547044ull, 0x0fd114c7660b5e0cull, ""},
      {Arm::kOomGrow, 0xf01231839fc5a6e0ull, 0x3fd2f711b63424b8ull,
       0x0f7355ef4cecd57eull, 0x10f7dc0dd9e78ff8ull, ""},
      {Arm::kFlakyEscalate, 0xb9125672eb335f14ull, 0x3ff9e3227c1fc3e8ull,
       0x82f2b10c05547044ull, 0xe6ff447fc9fd81c7ull, ""},
      {Arm::kCorrupt, 0xef7599aac716eaeaull, 0x3fcdf14fa7ccd1efull,
       0x82f2b10c05547044ull, 0xb92a9c87b4840b75ull, ""},
      {Arm::kTaskRetry, 0xf4afa7b6b50b583cull, 0x3fd5dc21eff8fb9bull,
       0x82f2b10c05547044ull, 0xb92a9c87b4840b75ull, ""},
      {Arm::kComposed, 0xcf6d07061e04b511ull, 0x3ffeeb7df5d7bb9cull,
       0x0f7355ef4cecd57eull, 0x94fdad361d503b93ull, ""},
      {Arm::kAbortOom, 0xd3750257b0dbe488ull, 0x3fb5c3edeaa48522ull,
       0x0000000000000000ull, 0x10f7dc0dd9e78ff8ull,
       "TaskOomError: "
       "stage join:rank-join|flatMap:contribs exceeded 1 attempts: task"
       " working set out of memory at P=7"},
      {Arm::kAbortFetch, 0x2c1d3cd15cb76669ull, 0x3fdbd379a96b1c24ull,
       0x0000000000000000ull, 0xb7281d10b7bb71dbull,
       "JobAbortedError: "
       "stage join:rank-join|flatMap:contribs exceeded 1 attempts after"
       " transient fetch failures"},
      {Arm::kAbortNode, 0xc4252f2a70afb048ull, 0x3fa999999999999aull,
       0x0000000000000000ull, 0x0fd114c7660b5e0cull,
       "JobAbortedError: "
       "stage source:pr-ranks exceeded 1 attempts after node failures"},
  };
  // run_with_result's second dataset (parse-links) is the cached one.
  check_fault_grid("pagerank", /*cached_offset=*/1, grid, run_pagerank);
}

}  // namespace
}  // namespace chopper
