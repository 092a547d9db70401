// CheckpointWriter WAL semantics (src/ckpt/checkpoint, DESIGN.md §16):
// epoch-per-writer numbering, the barrier durability rule (buffered until
// kStageEnd/kJobFinish, then flushed), deterministic CrashSchedule behavior
// at event seqs and stage barriers (pre- and post-flush), frozen-after-crash
// semantics, kv snapshot integrity, and the torn-tail tolerance contract of
// HistoryReader / JsonlFileSink barrier flushing that the WAL rides on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "obs/event.h"
#include "obs/history.h"
#include "obs/jsonl.h"
#include "obs/sinks.h"

namespace chopper {
namespace {

namespace fs = std::filesystem;
using obs::Event;
using obs::EventKind;

std::string temp_dir(const std::string& leaf) {
  const std::string d = ::testing::TempDir() + "/" + leaf;
  fs::remove_all(d);
  return d;
}

Event span(std::uint64_t seq) {
  Event e;
  e.kind = EventKind::kTaskSpan;
  e.seq = seq;
  e.job = 0;
  e.stage = 0;
  e.task = seq;
  e.t_end = 1.0;
  return e;
}

Event stage_end(std::uint64_t seq) {
  Event e;
  e.kind = EventKind::kStageEnd;
  e.seq = seq;
  e.job = 0;
  e.stage = 0;
  return e;
}

TEST(CkptWal, EpochPerWriter) {
  const std::string dir = temp_dir("wal_epochs");
  EXPECT_FALSE(ckpt::latest_wal_epoch(dir).has_value());
  {
    ckpt::CheckpointWriter w(dir);
    EXPECT_EQ(w.wal_epoch(), 0u);
  }
  {
    ckpt::CheckpointWriter w(dir);
    EXPECT_EQ(w.wal_epoch(), 1u);
  }
  const auto latest = ckpt::latest_wal_epoch(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, 1u);
  EXPECT_TRUE(fs::exists(ckpt::wal_path(dir, 0)));
  EXPECT_TRUE(fs::exists(ckpt::wal_path(dir, 1)));
}

TEST(CkptWal, BarrierFlushMakesPrefixDurable) {
  const std::string dir = temp_dir("wal_barrier");
  ckpt::CheckpointWriter w(dir);
  const std::string path = ckpt::wal_path(dir, 0);

  for (std::uint64_t i = 0; i < 3; ++i) w.append(span(i));
  // Nothing flushed yet: a concurrent reader sees only the header.
  EXPECT_EQ(obs::HistoryReader::load(path).events().size(), 0u);

  w.append(stage_end(3));  // barrier: everything buffered becomes durable
  const auto hr = obs::HistoryReader::load(path);
  EXPECT_EQ(hr.events().size(), 4u);
  EXPECT_EQ(hr.torn_tail_lines(), 0u);
  EXPECT_EQ(w.events_appended(), 4u);
  EXPECT_EQ(w.barriers_seen(), 1u);
}

TEST(CkptWal, CrashAtEventSeqDropsUndurableTail) {
  const std::string dir = temp_dir("wal_crash_seq");
  ckpt::CheckpointOptions opts;
  opts.crash.at_event_seq = 5;  // 0-based: the 6th append dies
  opts.crash.torn_tail = true;
  ckpt::CheckpointWriter w(dir, opts);

  for (std::uint64_t i = 0; i < 4; ++i) w.append(span(i));
  w.append(stage_end(4));  // barrier: 5 events durable
  EXPECT_FALSE(w.crashed());
  EXPECT_THROW(w.append(span(5)), ckpt::SimulatedCrash);
  EXPECT_TRUE(w.crashed());

  const auto hr = obs::HistoryReader::load(ckpt::wal_path(dir, 0));
  EXPECT_EQ(hr.events().size(), 5u);  // exactly the flushed prefix
  EXPECT_EQ(hr.torn_tail_lines(), 1u)
      << "a crash mid-append must leave the normal torn tail";
  EXPECT_EQ(hr.skipped_lines(), 0u);
}

TEST(CkptWal, BarrierCrashPreFlushLosesTheStage) {
  const std::string dir = temp_dir("wal_crash_pre");
  ckpt::CheckpointOptions opts;
  opts.crash.at_stage_barrier = 1;
  opts.crash.after_barrier_flush = false;
  ckpt::CheckpointWriter w(dir, opts);

  w.append(span(0));
  w.append(stage_end(1));  // barrier 0 commits
  w.append(span(2));       // buffered
  EXPECT_THROW(w.append(stage_end(3)), ckpt::SimulatedCrash);

  // The second kStageEnd never became durable, and the buffered span died
  // with it: the commit rule says that stage is uncommitted.
  const auto hr = obs::HistoryReader::load(ckpt::wal_path(dir, 0));
  EXPECT_EQ(hr.events().size(), 2u);
  EXPECT_EQ(hr.torn_tail_lines(), 1u);
}

TEST(CkptWal, BarrierCrashPostFlushKeepsTheStage) {
  const std::string dir = temp_dir("wal_crash_post");
  ckpt::CheckpointOptions opts;
  opts.crash.at_stage_barrier = 1;
  opts.crash.after_barrier_flush = true;
  ckpt::CheckpointWriter w(dir, opts);

  w.append(span(0));
  w.append(stage_end(1));
  w.append(span(2));
  EXPECT_THROW(w.append(stage_end(3)), ckpt::SimulatedCrash);

  // Post-flush: the barrier line is durable — the stage IS committed and a
  // resume continues past it, even though the crash still left the usual
  // torn fragment after it.
  const auto hr = obs::HistoryReader::load(ckpt::wal_path(dir, 0));
  EXPECT_EQ(hr.events().size(), 4u);
  EXPECT_EQ(hr.torn_tail_lines(), 1u);
}

TEST(CkptWal, FrozenAfterCrashLikeADeadProcess) {
  const std::string dir = temp_dir("wal_frozen");
  ckpt::CheckpointOptions opts;
  opts.crash.at_event_seq = 1;
  ckpt::CheckpointWriter w(dir, opts);
  w.append(span(0));
  EXPECT_THROW(w.append(span(1)), ckpt::SimulatedCrash);

  const auto size_after_crash = fs::file_size(ckpt::wal_path(dir, 0));
  const auto appended_after_crash = w.events_appended();
  EXPECT_NO_THROW(w.append(stage_end(2)));  // no-op, no second crash
  EXPECT_NO_THROW(w.flush());
  EXPECT_EQ(w.events_appended(), appended_after_crash);
  EXPECT_EQ(fs::file_size(ckpt::wal_path(dir, 0)), size_after_crash);
}

TEST(CkptWal, KvSnapshotRoundTripAndIntegrity) {
  const std::string dir = temp_dir("wal_kv");
  fs::create_directories(dir);
  const std::string path = dir + "/runspec.kv";
  const std::vector<std::pair<std::string, std::string>> kv = {
      {"command", "run"}, {"workload", "kmeans"}, {"scale", "0.5"}};
  ASSERT_TRUE(ckpt::write_kv_snapshot(path, kv, /*sync=*/false));
  const auto back = ckpt::read_kv_snapshot(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, kv);

  // Tamper with a value: the checksum footer must reject the file.
  std::string body;
  {
    std::ifstream in(path);
    body.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const auto pos = body.find("kmeans");
  ASSERT_NE(pos, std::string::npos);
  body[pos] = 'x';
  {
    std::ofstream out(path, std::ios::trunc);
    out << body;
  }
  EXPECT_FALSE(ckpt::read_kv_snapshot(path).has_value());
  EXPECT_FALSE(ckpt::read_kv_snapshot(dir + "/missing.kv").has_value());

  // The sum footer is one whole hex token: a 17-digit (out-of-range) sum, a
  // radix prefix or trailing junk is rejected even around the right digits.
  ASSERT_TRUE(ckpt::write_kv_snapshot(path, kv, /*sync=*/false));
  std::string good;
  {
    std::ifstream in(path);
    good.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const auto sum_at = good.rfind("#sum=");
  ASSERT_NE(sum_at, std::string::npos);
  const std::string head = good.substr(0, sum_at + 5);
  const std::string digits = good.substr(sum_at + 5, 16);
  for (const std::string& footer :
       {"1" + digits + "\n", "0x" + digits + "\n", digits + " junk\n"}) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << head << footer;
    }
    EXPECT_FALSE(ckpt::read_kv_snapshot(path).has_value()) << footer;
  }
}

TEST(CkptWal, JsonlFileSinkFlushesAtBarriers) {
  const std::string dir = temp_dir("wal_sink");
  fs::create_directories(dir);
  const std::string path = dir + "/events.jsonl";
  obs::JsonlFileSink sink(path, /*stripes=*/4, /*sync=*/false);
  sink.append(span(0));
  sink.append(span(1));
  sink.append(stage_end(2));
  // No explicit flush(): the barrier event alone must have made the whole
  // prefix durable (the property the checkpoint WAL commit rule needs).
  const auto hr = obs::HistoryReader::load(path);
  EXPECT_EQ(hr.events().size(), 3u);
}

TEST(CkptWal, HistoryReaderCountsTornTailSeparately) {
  const std::string dir = temp_dir("wal_torn");
  fs::create_directories(dir);
  const std::string path = dir + "/torn.jsonl";
  const std::string good = obs::to_jsonl(span(0));
  {
    std::ofstream out(path, std::ios::trunc);
    out << obs::jsonl_header() << "\n" << good << "\n"
        << "garbage line that is corruption\n" << good << "\n"
        << good.substr(0, good.size() / 2);  // torn final line, no newline
  }
  const auto hr = obs::HistoryReader::load(path);
  EXPECT_EQ(hr.events().size(), 2u);
  EXPECT_EQ(hr.skipped_lines(), 1u) << "mid-file garbage is corruption";
  EXPECT_EQ(hr.torn_tail_lines(), 1u)
      << "a torn final line is the normal post-crash state";
}

}  // namespace
}  // namespace chopper
