#include "common/kv_config.h"
#include "common/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace chopper::common {
namespace {

TEST(KvConfig, SetGetRoundTrip) {
  KvConfig cfg;
  cfg.set("a", "1");
  cfg.set_int("b", -42);
  EXPECT_EQ(cfg.get("a"), "1");
  EXPECT_EQ(cfg.get("b"), "-42");
  EXPECT_EQ(parse_int<std::int64_t>(*cfg.get("b")), -42);
  EXPECT_FALSE(cfg.get("missing").has_value());
}

TEST(KvConfig, SetOverwritesInPlace) {
  KvConfig cfg;
  cfg.set("k", "v1");
  cfg.set("x", "y");
  cfg.set("k", "v2");
  EXPECT_EQ(cfg.size(), 2u);
  EXPECT_EQ(cfg.get("k"), "v2");
  EXPECT_EQ(cfg.entries()[0].first, "k");  // insertion order preserved
}

// Values are read through common/parse.h, which takes whole tokens only.
TEST(KvConfig, GetIntRejectsGarbage) {
  KvConfig cfg;
  cfg.set("k", "12abc");
  EXPECT_FALSE(parse_int<std::int64_t>(*cfg.get("k")).has_value());
  cfg.set("k", "3.5");
  EXPECT_FALSE(parse_int<std::int64_t>(*cfg.get("k")).has_value());
}

TEST(KvConfig, GetDoubleRejectsGarbage) {
  KvConfig cfg;
  cfg.set("k", "1.5x");
  EXPECT_FALSE(parse_double(*cfg.get("k")).has_value());
}

TEST(KvConfig, Erase) {
  KvConfig cfg;
  cfg.set("a", "1");
  EXPECT_TRUE(cfg.erase("a"));
  EXPECT_FALSE(cfg.erase("a"));
  EXPECT_FALSE(cfg.contains("a"));
}

TEST(KvConfig, ParseSkipsCommentsAndBlanks) {
  const auto cfg = KvConfig::parse(
      "# comment\n"
      "\n"
      "stage.1.partitions = 210\n"
      "  stage.1.partitioner =  hash \n");
  EXPECT_EQ(cfg.size(), 2u);
  EXPECT_EQ(cfg.get("stage.1.partitions"), "210");
  EXPECT_EQ(cfg.get("stage.1.partitioner"), "hash");
}

TEST(KvConfig, ParseRejectsMalformedLine) {
  EXPECT_THROW(KvConfig::parse("no equals sign here"), std::runtime_error);
}

TEST(KvConfig, ValueMayContainEquals) {
  const auto cfg = KvConfig::parse("k = a=b\n");
  EXPECT_EQ(cfg.get("k"), "a=b");
}

TEST(KvConfig, FileRoundTrip) {
  KvConfig cfg;
  cfg.set("alpha", "0.5");
  cfg.set_int("parts", 300);
  const std::string path = ::testing::TempDir() + "/kv_config_test.conf";
  cfg.save(path);
  const auto loaded = KvConfig::load(path);
  EXPECT_EQ(loaded.get("alpha"), "0.5");
  EXPECT_EQ(loaded.get("parts"), "300");
  EXPECT_EQ(loaded.source(), path);
  std::remove(path.c_str());
}

TEST(KvConfig, LoadMissingFileThrows) {
  EXPECT_THROW(KvConfig::load("/nonexistent/path/xyz.conf"), std::runtime_error);
}

TEST(KvConfig, TolerantParseSkipsMalformedLines) {
  const auto cfg = KvConfig::parse(
      "good = 1\n"
      "this line has no equals sign\n"
      "also.good = 2\n",
      /*tolerant=*/true);
  EXPECT_EQ(cfg.size(), 2u);
  EXPECT_EQ(cfg.get("good"), "1");
  EXPECT_EQ(cfg.get("also.good"), "2");
}

TEST(KvConfig, TolerantLoadOfMissingFileIsEmpty) {
  const auto cfg =
      KvConfig::load("/nonexistent/path/xyz.conf", /*tolerant=*/true);
  EXPECT_EQ(cfg.size(), 0u);
}

TEST(KvConfig, ToStringParsesBack) {
  KvConfig cfg;
  cfg.set("a", "hello world");
  cfg.set("b", "1.25");
  const auto round = KvConfig::parse(cfg.to_string());
  EXPECT_EQ(round.get("a"), "hello world");
  EXPECT_EQ(parse_double(*round.get("b")), 1.25);
}

}  // namespace
}  // namespace chopper::common
