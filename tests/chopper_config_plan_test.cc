#include "chopper/config_plan.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/parse.h"

namespace chopper::core {
namespace {

PlannedStage planned(std::uint64_t sig, engine::PartitionerKind kind,
                     std::size_t p, bool repartition = false) {
  PlannedStage ps;
  ps.signature = sig;
  ps.name = "s" + std::to_string(sig);
  ps.partitioner = kind;
  ps.num_partitions = p;
  ps.insert_repartition = repartition;
  return ps;
}

TEST(PlanConfig, SerializationFormatMatchesFig6) {
  const auto cfg = plan_to_config(
      {planned(42, engine::PartitionerKind::kRange, 210)});
  EXPECT_EQ(cfg.get("stage.42.partitioner"), "range");
  EXPECT_EQ(cfg.get("stage.42.partitions"), "210");
  EXPECT_FALSE(cfg.contains("stage.42.repartition"));
}

TEST(PlanConfig, RepartitionMarkSerialized) {
  const auto cfg = plan_to_config(
      {planned(7, engine::PartitionerKind::kHash, 100, /*repartition=*/true)});
  EXPECT_EQ(cfg.get("stage.7.repartition"), "1");
}

TEST(PlanConfig, ParseRoundTrip) {
  const auto cfg = plan_to_config({
      planned(1, engine::PartitionerKind::kHash, 300),
      planned(2, engine::PartitionerKind::kRange, 720, true),
  });
  const auto parsed = parse_plan_config(cfg);
  ASSERT_EQ(parsed.schemes.size(), 2u);
  EXPECT_EQ(parsed.schemes.at(1).kind, engine::PartitionerKind::kHash);
  EXPECT_EQ(parsed.schemes.at(1).num_partitions, 300u);
  EXPECT_EQ(parsed.schemes.at(2).kind, engine::PartitionerKind::kRange);
  EXPECT_TRUE(parsed.insert_repartition.at(2));
}

TEST(PlanConfig, ParseRejectsUnknownField) {
  common::KvConfig cfg;
  cfg.set("stage.1.bogus", "x");
  EXPECT_THROW(parse_plan_config(cfg), std::runtime_error);
}

TEST(PlanConfig, ParseRejectsMalformedCounts) {
  for (const std::string field : {"partitions", "p_min"}) {
    const std::string key = "stage.9." + field;
    for (const std::string bad :
         {"-3", "12abc", "", "1.5", "+4", " 7", "0x10",
          "99999999999999999999999"}) {
      common::KvConfig cfg;
      cfg.set(key, bad);
      try {
        parse_plan_config(cfg);
        ADD_FAILURE() << key << " accepted '" << bad << "'";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(PlanConfig, ParseRejectsBadSignaturesAndEnumsNamingFileAndKey) {
  const std::string path = ::testing::TempDir() + "/plan_bad_tokens.conf";
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"stage.abc.partitions", "3"},
           {"stage.-5.partitions", "3"},
           {"stage.18446744073709551616.partitions", "3"},
           {"stage.1.partitioner", "rnage"},
           {"stage.1.partitioner", "Hash"},
           {"stage.1.repartition", "2"},
           {"stage.1.repartition", "yes"}}) {
    common::KvConfig bad;
    bad.set(key, value);
    bad.save(path);
    try {
      parse_plan_config(common::KvConfig::load(path));
      ADD_FAILURE() << key << " = " << value << " was accepted";
    } catch (const common::ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(key), std::string::npos) << what;
    }
  }
  std::remove(path.c_str());
}

TEST(PlanConfig, ParseAcceptsWholeCounts) {
  common::KvConfig cfg;
  cfg.set("stage.9.partitions", "0");
  cfg.set("stage.10.partitions", "720");
  cfg.set("stage.10.p_min", "120");
  const auto parsed = parse_plan_config(cfg);
  EXPECT_EQ(parsed.schemes.at(9).num_partitions, 0u);
  EXPECT_EQ(parsed.schemes.at(10).num_partitions, 720u);
  EXPECT_EQ(parsed.p_min.at(10), 120u);
}

TEST(PlanConfig, ParseIgnoresForeignKeys) {
  common::KvConfig cfg;
  cfg.set("spark.default.parallelism", "300");
  cfg.set("stage.5.partitions", "100");
  cfg.set("stage.5.partitioner", "hash");
  const auto parsed = parse_plan_config(cfg);
  EXPECT_EQ(parsed.schemes.size(), 1u);
}

TEST(ConfigPlanProvider, ServesSchemes) {
  ConfigPlanProvider provider(plan_to_config(
      {planned(11, engine::PartitionerKind::kRange, 210)}));
  const auto scheme = provider.scheme_for(11);
  ASSERT_TRUE(scheme.has_value());
  EXPECT_EQ(scheme->kind, engine::PartitionerKind::kRange);
  EXPECT_EQ(scheme->num_partitions, 210u);
  EXPECT_FALSE(provider.scheme_for(99).has_value());
  EXPECT_EQ(provider.size(), 1u);
}

TEST(ConfigPlanProvider, ZeroPartitionEntriesAreIgnored) {
  common::KvConfig cfg;
  cfg.set("stage.3.partitioner", "hash");  // partitions never set
  ConfigPlanProvider provider(cfg);
  EXPECT_FALSE(provider.scheme_for(3).has_value());
}

TEST(ConfigPlanProvider, DynamicUpdateReplacesPlan) {
  ConfigPlanProvider provider(plan_to_config(
      {planned(1, engine::PartitionerKind::kHash, 100)}));
  provider.update(plan_to_config(
      {planned(2, engine::PartitionerKind::kHash, 50)}));
  EXPECT_FALSE(provider.scheme_for(1).has_value());
  ASSERT_TRUE(provider.scheme_for(2).has_value());
  EXPECT_EQ(provider.scheme_for(2)->num_partitions, 50u);
}

TEST(ConfigPlanProvider, ReloadFromFile) {
  const std::string path = ::testing::TempDir() + "/plan_provider_test.conf";
  plan_to_config({planned(8, engine::PartitionerKind::kHash, 640, true)})
      .save(path);
  ConfigPlanProvider provider;
  provider.reload(path);
  ASSERT_TRUE(provider.scheme_for(8).has_value());
  EXPECT_EQ(provider.scheme_for(8)->num_partitions, 640u);
  EXPECT_TRUE(provider.wants_repartition(8));
  EXPECT_FALSE(provider.wants_repartition(9));
  std::remove(path.c_str());
}

TEST(FixedPlanProvider, AnswersEverySignature) {
  FixedPlanProvider provider(engine::PartitionerKind::kRange, 77);
  for (std::uint64_t sig : {0ULL, 1ULL, 123456789ULL}) {
    const auto s = provider.scheme_for(sig);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->kind, engine::PartitionerKind::kRange);
    EXPECT_EQ(s->num_partitions, 77u);
  }
}

}  // namespace
}  // namespace chopper::core
