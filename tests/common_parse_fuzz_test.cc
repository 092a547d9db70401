// The checked token parsers (common/parse.h) and a seeded, deterministic
// mutation fuzzer over every readable on-disk format: the workload DB, the
// Fig. 6 plan config, the checkpoint WAL (JSONL) and CHOPBLK1 block files.
//
// Mutations: truncation, bit flips, line splices, field deletion, and
// number-token substitution (nan, inf, -1, 2^64, 1e3, huge counts). The
// property: each mutant is rejected with a common::ParseError (strict
// loads), skipped and counted (tolerant loads, the WAL reader), or loads into
// a state whose plan has only finite costs; build_resume_plan never crashes.
// The corpus is seeded with hand-written reproductions of bugs these readers
// once had. Everything is deterministic in kSeed, so a failure reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "chopper/chopper.h"
#include "chopper/config_plan.h"
#include "ckpt/blockfile.h"
#include "ckpt/checkpoint.h"
#include "ckpt/resume.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/parse.h"
#include "engine/engine.h"
#include "obs/event_log.h"
#include "workloads/kmeans.h"

namespace chopper {
namespace {

namespace fs = std::filesystem;
using common::parse_double;
using common::parse_enum;
using common::parse_int;

constexpr std::uint64_t kSeed = 20261019;
constexpr int kMutantsPerFormat = 300;

// ---------------------------------------------------------------------------
// The parsers themselves.
// ---------------------------------------------------------------------------

TEST(CommonParse, IntegersAreWholeAndInRange) {
  EXPECT_EQ(parse_int<std::uint64_t>("0"), 0u);
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_int<std::uint64_t>("9007199254740993"), 9007199254740993u);
  EXPECT_EQ(parse_int<std::int64_t>("-42"), -42);
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1e3", "1.0", "0x10",
                          "12abc", "18446744073709551616", "nan"}) {
    EXPECT_FALSE(parse_int<std::uint64_t>(bad).has_value()) << bad;
  }
  EXPECT_FALSE(parse_int<std::int64_t>("9223372036854775808").has_value());
  EXPECT_FALSE(parse_int<std::uint32_t>("4294967296").has_value());
}

TEST(CommonParse, DoublesAreWholeAndFinite) {
  EXPECT_EQ(parse_double("0.5"), 0.5);
  EXPECT_EQ(parse_double("-2.5e-3"), -2.5e-3);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_EQ(parse_double("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
  for (const char* bad : {"", "nan", "-nan", "inf", "-inf", "1e400", "+1",
                          "1.5x", " 1", "0x1p3"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
  }
}

TEST(CommonParse, EnumsAreRangeChecked) {
  EXPECT_EQ(parse_enum("0", engine::OpKind::kUnion), engine::OpKind::kSource);
  EXPECT_EQ(parse_enum("13", engine::OpKind::kUnion), engine::OpKind::kUnion);
  EXPECT_FALSE(parse_enum("14", engine::OpKind::kUnion).has_value());
  EXPECT_FALSE(parse_enum("999", engine::OpKind::kUnion).has_value());
  EXPECT_FALSE(parse_enum("-1", engine::OpKind::kUnion).has_value());
  EXPECT_EQ(parse_enum("1", true), true);
  EXPECT_FALSE(parse_enum("2", true).has_value());
}

TEST(CommonParse, RequireNamesSourceAndField) {
  try {
    common::require(parse_int<std::uint64_t>("x"), "a.db:7", "order", "x");
    FAIL() << "require accepted nullopt";
  } catch (const common::ParseError& e) {
    EXPECT_STREQ(e.what(), "a.db:7: invalid order 'x'");
  }
}

// ---------------------------------------------------------------------------
// Mutation engine.
// ---------------------------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

bool number_char(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '-' || c == '+';
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  /// One random mutation of a text input whose records are lines and whose
  /// fields are separated by `sep`.
  std::string mutate_text(const std::string& text, char sep) {
    switch (below(5)) {
      case 0:
        return text.substr(0, below(text.size() + 1));
      case 1:
        return flip_bit(text);
      case 2:
        return splice_lines(text);
      case 3:
        return delete_field(text, sep);
      default:
        return substitute_number(text);
    }
  }

  std::string flip_bit(std::string s) {
    if (!s.empty()) s[below(s.size())] ^= static_cast<char>(1u << below(8));
    return s;
  }

 private:
  /// Copy one line over another, or duplicate it at another position.
  std::string splice_lines(const std::string& text) {
    auto lines = split_lines(text);
    if (lines.empty()) return text;
    const std::string donor = lines[below(lines.size())];
    const std::size_t at = below(lines.size());
    if (below(2) == 0) {
      lines[at] = donor;
    } else {
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), donor);
    }
    return join_lines(lines);
  }

  /// Remove one `sep`-delimited field of one line.
  std::string delete_field(const std::string& text, char sep) {
    auto lines = split_lines(text);
    if (lines.empty()) return text;
    std::string& line = lines[below(lines.size())];
    std::vector<std::size_t> cuts = {0};
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == sep) cuts.push_back(i + 1);
    }
    cuts.push_back(line.size() + 1);
    const std::size_t f = below(cuts.size() - 1);
    const std::size_t b = cuts[f];
    const std::size_t e = std::min(cuts[f + 1], line.size());
    line.erase(b, e - b);
    return join_lines(lines);
  }

  /// Replace one number token with a hostile one.
  std::string substitute_number(const std::string& text) {
    static const char* kHostile[] = {
        "nan", "inf", "-inf", "-1", "18446744073709551616", "1e3",
        "99999999999999999999999", "1e400", "-0", "4294967296"};
    std::vector<std::pair<std::size_t, std::size_t>> tokens;
    for (std::size_t i = 0; i < text.size();) {
      const bool starts = (text[i] >= '0' && text[i] <= '9') ||
                          (text[i] == '-' && i + 1 < text.size() &&
                           text[i + 1] >= '0' && text[i + 1] <= '9');
      if (!starts || (i > 0 && number_char(text[i - 1]))) {
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j < text.size() && number_char(text[j])) ++j;
      tokens.emplace_back(i, j - i);
      i = j;
    }
    if (tokens.empty()) return text;
    const auto [pos, len] = tokens[below(tokens.size())];
    std::string out = text;
    out.replace(pos, len, kHostile[below(std::size(kHostile))]);
    return out;
  }

  std::mt19937_64 rng_;
};

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

/// An empty scratch directory private to the running test (ctest runs each
/// test of this file in its own process, concurrently).
std::string fresh_dir(const std::string& leaf) {
  const std::string d =
      ::testing::TempDir() + "/" + leaf + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

/// Quiets the tolerant readers' per-record warnings for the fuzz loops.
class QuietLogs {
 public:
  QuietLogs() : saved_(common::log_level()) {
    common::set_log_level(common::LogLevel::kError);
  }
  ~QuietLogs() { common::set_log_level(saved_); }

 private:
  common::LogLevel saved_;
};

// ---------------------------------------------------------------------------
// WorkloadDb.
// ---------------------------------------------------------------------------

core::ChopperOptions tiny_options() {
  core::ChopperOptions o;
  o.engine_options.default_parallelism = 16;
  o.engine_options.host_threads = 2;
  o.profile_partitions = {8, 16};
  o.profile_fractions = {0.5, 1.0};
  o.profile_both_partitioners = true;
  o.optimizer.space.min_partitions = 4;
  o.optimizer.space.max_partitions = 32;
  o.optimizer.space.round_to = 4;
  return o;
}

workloads::KMeansParams tiny_kmeans() {
  workloads::KMeansParams p;
  p.data.total_points = 1'000;
  p.data.dims = 2;
  p.k = 3;
  p.iterations = 1;
  p.init_rounds = 1;
  p.source_partitions = 8;
  return p;
}

/// A profiled DB file (plus one OOM and one fault record, so every record
/// tag is in the corpus) and the input size to plan for.
struct DbSeed {
  std::string text;
  std::string workload;
  double input_bytes = 0.0;
};

const DbSeed& db_seed() {
  static const DbSeed seed = [] {
    const workloads::KMeansWorkload wl(tiny_kmeans());
    core::Chopper chopper(engine::ClusterSpec::uniform(2, 2), tiny_options());
    DbSeed s;
    s.workload = wl.name();
    s.input_bytes = chopper.profile(wl.name(), wl.runner(), 1.0);
    const auto dag = chopper.db().dag(wl.name());
    chopper.db().add_oom({wl.name(), dag.front().signature, 4096.0, 4.0});
    chopper.db().add_fault({wl.name(), dag.front().signature, 2, 512, 1, 0});
    const std::string path = fresh_dir("fuzz_db_seed") + "/seed.chopperdb";
    chopper.save_db(path);
    s.text = read_file(path);
    return s;
  }();
  return seed;
}

/// Every cost of a plan over `db` is finite.
void expect_finite_plan(const core::WorkloadDb& db, const DbSeed& seed,
                        const std::string& what) {
  core::Chopper chopper(engine::ClusterSpec::uniform(2, 2), tiny_options());
  chopper.db() = db;
  for (const auto& ps : chopper.plan(seed.workload, seed.input_bytes)) {
    ASSERT_TRUE(std::isfinite(ps.cost))
        << "stage " << ps.name << " costs " << ps.cost << " for " << what;
  }
}

/// Strict load: ParseError or a plan with finite costs. Tolerant load:
/// never throws, always a plan with finite costs.
void check_db_text(const std::string& text, const DbSeed& seed,
                   const std::string& path) {
  write_file(path, text);
  try {
    expect_finite_plan(core::WorkloadDb::load(path), seed, "strict " + text);
  } catch (const common::ParseError&) {
  }
  expect_finite_plan(core::WorkloadDb::load(path, 1e-3, /*tolerant=*/true),
                     seed, "tolerant " + text);
}

/// The seed file with field `field` (0 = the tag) of the first `tag` record
/// replaced by `value`.
std::string with_field(const std::string& text, const std::string& tag,
                       std::size_t field, const std::string& value) {
  auto lines = split_lines(text);
  for (auto& line : lines) {
    if (line.rfind(tag + "\t", 0) != 0) continue;
    std::vector<std::string> fields;
    std::string f;
    std::istringstream ls(line);
    while (std::getline(ls, f, '\t')) fields.push_back(f);
    fields.at(field) = value;
    line.clear();
    for (std::size_t i = 0; i < fields.size(); ++i) {
      line += (i ? "\t" : "") + fields[i];
    }
    break;
  }
  return join_lines(lines);
}

TEST(ParseFuzz, WorkloadDbSeedCorpusIsRejected) {
  const DbSeed& seed = db_seed();
  const std::string path = fresh_dir("fuzz_db_corpus") + "/db";
  const struct {
    std::string tag;
    std::size_t field;
    std::string value;
  } corpus[] = {
      {"obs", 7, "nan"},   // t_exe_s: once planned at cost nan
      {"obs", 7, "-1"},    // negative observation
      {"obs", 4, "inf"},   // workload_input_bytes
      {"obs", 3, "rnage"},  // partitioner typo: once read as hash
      {"obs", 9, "2"},     // is_default is 0 or 1
      {"stage", 4, "999"},  // anchor_op: once loaded as op=?
      {"stage", 14, "18446744073709551615"},  // order: next_order_ wrapped
      {"stage", 2, "-5"},  // signature: once wrapped to 2^64-5
      {"fault", 3, "1e3"},  // a count with an exponent
      {"oom", 4, "nan"},
  };
  for (const auto& c : corpus) {
    const std::string text = with_field(seed.text, c.tag, c.field, c.value);
    write_file(path, text);
    try {
      core::WorkloadDb::load(path);
      ADD_FAILURE() << c.tag << " field " << c.field << " = " << c.value
                    << " was accepted";
    } catch (const common::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(c.value), std::string::npos)
          << e.what();
    }
    QuietLogs quiet;
    check_db_text(text, seed, path);
  }
}

TEST(ParseFuzz, WorkloadDbMutants) {
  const DbSeed& seed = db_seed();
  const std::string path = fresh_dir("fuzz_db") + "/db";
  check_db_text(seed.text, seed, path);
  core::Chopper clean(engine::ClusterSpec::uniform(2, 2), tiny_options());
  clean.load_db(path);
  ASSERT_GT(clean.plan(seed.workload, seed.input_bytes).size(), 1u)
      << "the seed DB must plan a real DAG for the cost check to bite";
  QuietLogs quiet;
  Mutator m(kSeed);
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    check_db_text(m.mutate_text(seed.text, '\t'), seed, path);
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Plan config (Fig. 6).
// ---------------------------------------------------------------------------

/// Strict: ParseError or a plan the provider serves. Tolerant KvConfig plus
/// strict parse_plan_config is what `chopperctl run --conf` does.
void check_config_text(const std::string& text) {
  for (const bool tolerant : {false, true}) {
    try {
      const auto cfg = common::KvConfig::parse(text, tolerant, "fuzz.conf");
      core::ConfigPlanProvider provider(cfg);
      for (const auto& [key, value] : cfg.entries()) {
        (void)value;
        const auto dot = key.find('.', 6);
        if (key.rfind("stage.", 0) != 0 || dot == std::string::npos) continue;
        if (const auto sig = parse_int<std::uint64_t>(key.substr(6, dot - 6))) {
          (void)provider.scheme_for(*sig);
          (void)provider.repartition_before(*sig);
          (void)provider.p_min_for(*sig);
        }
      }
    } catch (const common::ParseError&) {
    }
  }
}

TEST(ParseFuzz, PlanConfigSeedCorpusIsRejected) {
  for (const char* text :
       {"stage.abc.partitions = 3\n", "stage.-5.partitions = 3\n",
        "stage.1.partitioner = rnage\n", "stage.1.partitions = 1e3\n",
        "stage.1.p_min = -1\n", "stage.1.repartition = 2\n",
        "stage.1 = 3\n", "stage.1.partitions\n"}) {
    EXPECT_THROW(core::parse_plan_config(common::KvConfig::parse(text)),
                 common::ParseError)
        << text;
    check_config_text(text);
  }
}

TEST(ParseFuzz, PlanConfigMutants) {
  const std::string seed =
      core::plan_to_config({
                               {11, "a", engine::PartitionerKind::kRange, 210},
                               {12, "b", engine::PartitionerKind::kHash, 64,
                                0.0, true, true, 1, 40},
                           })
          .to_string();
  check_config_text(seed);
  QuietLogs quiet;
  Mutator m(kSeed + 1);
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    check_config_text(m.mutate_text(seed, '.'));
  }
}

// ---------------------------------------------------------------------------
// Checkpoint WAL + CHOPBLK1 block files.
// ---------------------------------------------------------------------------

engine::SourceFn iota_source(std::size_t total) {
  return [total](std::size_t index, std::size_t count) {
    engine::Partition p;
    for (std::size_t i = total * index / count;
         i < total * (index + 1) / count; ++i) {
      engine::Record r;
      r.key = i % 13;
      r.values = {static_cast<double>(i) * 0.5};
      p.push(std::move(r));
    }
    return p;
  };
}

/// A small checkpointed run: a cached source (cache block), a shuffle
/// aggregation (shuffle + result blocks) and a count.
std::string checkpoint_seed_dir() {
  static const std::string dir = [] {
    const std::string d = fresh_dir("fuzz_ckpt_seed");
    engine::EngineOptions opts;
    opts.default_parallelism = 4;
    opts.host_threads = 2;
    engine::Engine eng(engine::ClusterSpec::uniform(2, 2), opts);
    obs::EventLog log;
    auto writer = std::make_shared<ckpt::CheckpointWriter>(d);
    log.attach(writer);
    eng.set_event_log(&log);
    eng.set_checkpoint_hook(writer.get());
    auto src = engine::Dataset::source("fz-src", 4, iota_source(400))->cache();
    eng.count(src, "fz-warm");
    eng.collect(src->reduce_by_key(
                    "fz-agg",
                    [](engine::Record& acc, const engine::Record& next) {
                      acc.values[0] += next.values[0];
                    },
                    engine::ShuffleRequest{std::nullopt, 4, false}),
                "fz-agg");
    eng.count(src, "fz-tail");
    log.detach_all();
    return d;
  }();
  return dir;
}

/// Replace the WAL of checkpoint `dir` by `wal` and plan a resume: a
/// ParseError (no readable header) or a ledger sized by the decoded events.
void check_wal_text(const std::string& dir, const std::string& wal) {
  write_file(ckpt::wal_path(dir, 0), wal);
  try {
    const ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
    EXPECT_LE(plan.ledger.jobs.size(), plan.events);
  } catch (const common::ParseError&) {
  }
}

std::string copy_seed_checkpoint(const std::string& leaf) {
  const std::string dir = fresh_dir(leaf);
  fs::copy(checkpoint_seed_dir(), dir,
           fs::copy_options::recursive | fs::copy_options::overwrite_existing);
  return dir;
}

TEST(ParseFuzz, WalSeedCorpusDoesNotCrashResume) {
  const std::string dir = copy_seed_checkpoint("fuzz_wal_corpus");
  const std::string wal = read_file(ckpt::wal_path(dir, 0));
  const ckpt::ResumePlan clean = ckpt::build_resume_plan(dir);
  ASSERT_EQ(clean.skipped_lines, 0u);
  ASSERT_EQ(clean.finished_jobs, 3u);

  // One job_submit line with a negative, missing or huge job id (once a
  // SIGSEGV, a SIGSEGV and a bad_alloc).
  const std::string submit = "\"k\":\"job_submit\"";
  const std::size_t at = wal.find(submit);
  ASSERT_NE(at, std::string::npos);
  const std::size_t job = wal.find("\"job\":0", at);
  ASSERT_NE(job, std::string::npos);
  for (const std::string& replacement :
       {std::string("\"job\":-1"), std::string("\"jobX\":0"),
        std::string("\"job\":1000000000000")}) {
    std::string hostile = wal;
    hostile.replace(job, 7, replacement);
    check_wal_text(dir, hostile);
    EXPECT_EQ(ckpt::build_resume_plan(dir).skipped_lines, 1u) << replacement;
  }

  // An out-of-range epoch in a WAL-like file name is not an epoch.
  write_file(ckpt::wal_path(dir, 0), wal);
  write_file(dir + "/wal-99999999999999999999999.jsonl", "");
  EXPECT_EQ(ckpt::latest_wal_epoch(dir), 0u);
  EXPECT_EQ(ckpt::build_resume_plan(dir).finished_jobs, 3u);
}

TEST(ParseFuzz, WalMutants) {
  const std::string dir = copy_seed_checkpoint("fuzz_wal");
  const std::string wal = read_file(ckpt::wal_path(dir, 0));
  Mutator m(kSeed + 2);
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    check_wal_text(dir, m.mutate_text(wal, ','));
  }
}

/// Re-seal a block file's trailing checksum so a mutated payload reaches the
/// decoder instead of failing the footer check.
std::string reseal(std::string block) {
  if (block.size() < 8) return block;
  common::Checksum64 sum;
  sum.update_bytes(block.data(), block.size() - 8);
  const std::uint64_t digest = sum.digest();
  std::memcpy(block.data() + block.size() - 8, &digest, 8);
  return block;
}

TEST(ParseFuzz, BlockFileMutants) {
  const std::string seed_dir = checkpoint_seed_dir();
  const std::string dir = fresh_dir("fuzz_blocks");
  std::vector<std::string> blocks;
  for (const auto& entry : fs::directory_iterator(seed_dir)) {
    if (entry.path().extension() == ".blk") {
      blocks.push_back(entry.path().filename().string());
    }
  }
  std::sort(blocks.begin(), blocks.end());
  ASSERT_FALSE(blocks.empty());
  Mutator m(kSeed + 3);
  for (int i = 0; i < kMutantsPerFormat; ++i) {
    const std::string name = blocks[m.below(blocks.size())];
    std::string bytes = read_file(seed_dir + "/" + name);
    if (m.below(2) == 0) {
      bytes = bytes.substr(0, m.below(bytes.size() + 1));
    } else {
      for (std::size_t flips = 1 + m.below(3); flips > 0; --flips) {
        bytes = m.flip_bit(bytes);
      }
    }
    if (m.below(2) == 0) bytes = reseal(bytes);
    const std::string path = dir + "/" + name;
    write_file(path, bytes);
    // Readers return nullopt or a value; ASan/UBSan catch anything else.
    (void)ckpt::read_shuffle_block(path);
    (void)ckpt::read_cache_block(path);
    (void)ckpt::read_result_block(path);
  }
}

}  // namespace
}  // namespace chopper
