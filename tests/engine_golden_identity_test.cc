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
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "chaos.h"
#include "chopper/config_plan.h"
#include "common/hash.h"
#include "engine/engine.h"
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

TEST(GoldenIdentity, Sql) {
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
  check_grid("sql", grid, [&wl](engine::Engine& eng) {
    const auto r = wl.run_with_result(eng, 1.0);
    common::Checksum64 c;
    c.update_u64(r.joined_rows);
    c.update_u64(bits_of(r.total_revenue));
    return c.digest();
  });
}

TEST(GoldenIdentity, PageRank) {
  workloads::PageRankParams p;
  p.num_pages = 500;
  p.avg_out_degree = 4;
  p.iterations = 2;
  p.source_partitions = 8;
  const workloads::PageRankWorkload wl(p);
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
  check_grid("pagerank", grid, [&wl](engine::Engine& eng) {
    const auto r = wl.run_with_result(eng, 1.0);
    common::Checksum64 c;
    c.update_u64(r.pages);
    c.update_u64(bits_of(r.total_rank));
    c.update_u64(bits_of(r.max_rank));
    return c.digest();
  });
}

}  // namespace
}  // namespace chopper
