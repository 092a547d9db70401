// End-to-end determinism across host task threads (DESIGN.md §18): a job
// digest — collected rows, workload summary doubles, and the full
// stage/task metrics fingerprint — must be bit-identical at every
// host_threads value, including under an injected OOM retry and across a
// crash + checkpoint resume. Tasks run concurrently on the host pool, each
// with its own thread_local combine scratch; this is the contract that
// keeps digests, replay logs, lineage recovery and checkpoint WALs
// independent of the thread count they were recorded at.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/resume.h"
#include "engine/engine.h"
#include "obs/event_log.h"
#include "workloads/kmeans.h"
#include "workloads/pagerank.h"
#include "workloads/sql.h"

namespace chopper {
namespace {

namespace fs = std::filesystem;

// The thread counts the contract is checked at (1 is the reference: every
// task runs on one host thread).
const std::size_t kThreadCounts[] = {2, 7, 8};

engine::EngineOptions small_options(std::size_t host_threads) {
  engine::EngineOptions o;
  o.default_parallelism = 12;
  o.host_threads = host_threads;
  return o;
}

/// Run-identity fingerprint over everything the metrics registry records
/// except wall-clock and resume provenance (same exclusions as the
/// checkpoint-resume identity tests).
std::vector<std::uint64_t> fingerprint(const engine::MetricsRegistry& reg) {
  std::vector<std::uint64_t> v;
  const auto u = [&v](std::uint64_t x) { v.push_back(x); };
  const auto d = [&v](double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    v.push_back(bits);
  };
  for (const auto& s : reg.stages()) {
    u(s.stage_id);
    u(s.job_id);
    u(s.signature);
    u(s.num_partitions);
    u(s.attempt_count);
    u(s.input_records);
    u(s.input_bytes);
    u(s.output_records);
    u(s.output_bytes);
    u(s.shuffle_read_bytes);
    u(s.shuffle_write_bytes);
    u(s.oom_count);
    d(s.sim_time_s);
    u(s.tasks.size());
    for (const auto& t : s.tasks) {
      u(t.task_index);
      u(t.node);
      u(t.attempts);
      u(t.records_in);
      u(t.records_out);
      u(t.bytes_in);
      u(t.bytes_out);
      d(t.sim_start);
      d(t.sim_end);
    }
  }
  for (const auto& j : reg.jobs()) {
    u(j.job_id);
    u(j.failed ? 1 : 0);
    u(j.stage_attempts);
    u(j.oom_count);
    d(j.sim_time_s);
  }
  return v;
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

// ---------------------------------------------------------------------------
// Workload digests: KMeans, SQL, PageRank.

TEST(ParallelDeterminism, KMeansDigestIdenticalAcrossThreadCounts) {
  workloads::KMeansParams p;
  p.data.total_points = 6'000;
  p.data.dims = 8;
  p.data.clusters = 5;
  p.k = 5;
  p.iterations = 2;
  p.init_rounds = 3;
  p.source_partitions = 12;
  const workloads::KMeansWorkload wl(p);

  engine::Engine ref_eng(engine::ClusterSpec::uniform(2, 2), small_options(1));
  const auto ref = wl.run_with_result(ref_eng, 1.0);
  const auto ref_fp = fingerprint(ref_eng.metrics());

  for (const std::size_t t : kThreadCounts) {
    engine::Engine eng(engine::ClusterSpec::uniform(2, 2), small_options(t));
    const auto got = wl.run_with_result(eng, 1.0);
    EXPECT_EQ(bits_of(got.cost), bits_of(ref.cost)) << "threads=" << t;
    EXPECT_EQ(fingerprint(eng.metrics()), ref_fp) << "threads=" << t;
  }
}

TEST(ParallelDeterminism, SqlDigestIdenticalAcrossThreadCounts) {
  workloads::SqlParams p;
  p.fact.total_rows = 20'000;
  p.fact.num_keys = 4'000;
  p.fact.payload_bytes = 16;
  p.dim.num_keys = 4'000;
  p.dim.payload_bytes = 16;
  p.fact_partitions = 12;
  p.dim_partitions = 6;
  p.fact_agg_partitions = 12;
  p.dim_agg_partitions = 6;
  const workloads::SqlWorkload wl(p);

  engine::Engine ref_eng(engine::ClusterSpec::uniform(2, 2), small_options(1));
  const auto ref = wl.run_with_result(ref_eng, 1.0);
  const auto ref_fp = fingerprint(ref_eng.metrics());

  for (const std::size_t t : kThreadCounts) {
    engine::Engine eng(engine::ClusterSpec::uniform(2, 2), small_options(t));
    const auto got = wl.run_with_result(eng, 1.0);
    EXPECT_EQ(got.joined_rows, ref.joined_rows) << "threads=" << t;
    EXPECT_EQ(bits_of(got.total_revenue), bits_of(ref.total_revenue))
        << "threads=" << t;
    EXPECT_EQ(fingerprint(eng.metrics()), ref_fp) << "threads=" << t;
  }
}

TEST(ParallelDeterminism, PageRankDigestIdenticalAcrossThreadCounts) {
  workloads::PageRankParams p;
  p.num_pages = 2'000;
  p.avg_out_degree = 5;
  p.iterations = 2;
  p.source_partitions = 12;
  const workloads::PageRankWorkload wl(p);

  engine::Engine ref_eng(engine::ClusterSpec::uniform(2, 2), small_options(1));
  const auto ref = wl.run_with_result(ref_eng, 1.0);
  const auto ref_fp = fingerprint(ref_eng.metrics());

  for (const std::size_t t : kThreadCounts) {
    engine::Engine eng(engine::ClusterSpec::uniform(2, 2), small_options(t));
    const auto got = wl.run_with_result(eng, 1.0);
    EXPECT_EQ(bits_of(got.total_rank), bits_of(ref.total_rank))
        << "threads=" << t;
    EXPECT_EQ(bits_of(got.max_rank), bits_of(ref.max_rank)) << "threads=" << t;
    EXPECT_EQ(fingerprint(eng.metrics()), ref_fp) << "threads=" << t;
  }
}

// ---------------------------------------------------------------------------
// Fault arms: concurrent tasks inside retry/recovery machinery.

engine::DatasetPtr sum_job() {
  return engine::Dataset::source(
             "pd-src", 8,
             [](std::size_t index, std::size_t count) {
               engine::Partition p;
               const std::size_t total = 12'000;
               const std::size_t begin = total * index / count;
               const std::size_t end = total * (index + 1) / count;
               for (std::size_t i = begin; i < end; ++i) {
                 engine::Record r;
                 r.key = (i * 2654435761ULL) % 997;
                 r.values = {static_cast<double>(i % 101), 1.0};
                 p.push(std::move(r));
               }
               return p;
             })
      ->reduce_by_key(
          "pd-sum",
          [](engine::Record& acc, const engine::Record& next) {
            acc.values[0] += next.values[0];
            acc.values[1] += next.values[1];
          },
          engine::ShuffleRequest{std::nullopt, 8, false});
}

std::vector<engine::Record> sorted_rows(std::vector<engine::Record> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const engine::Record& a, const engine::Record& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.values < b.values;
            });
  return rows;
}

TEST(ParallelDeterminism, OomRetryIdenticalAcrossThreadCounts) {
  // The injected OOM kills the reduce stage's first two attempts; the third
  // runs clean. The replayed attempts route through the same
  // scatter/combine/merge code — results and the retry telemetry must not
  // depend on the thread count.
  const auto with_oom = [](std::size_t host_threads) {
    engine::EngineOptions o = small_options(host_threads);
    o.oom_schedule.ooms.push_back(
        engine::OomInjection{/*stage_id=*/1, /*attempts=*/2, /*task=*/0});
    return o;
  };

  engine::Engine ref_eng(engine::ClusterSpec::uniform(2, 2), with_oom(1));
  const auto ref = ref_eng.collect(sum_job(), "pd-oom");
  const auto ref_rows = sorted_rows(ref.records);
  const auto ref_fp = fingerprint(ref_eng.metrics());
  ASSERT_EQ(ref.oom_count, 2u);

  for (const std::size_t t : kThreadCounts) {
    engine::Engine eng(engine::ClusterSpec::uniform(2, 2), with_oom(t));
    const auto got = eng.collect(sum_job(), "pd-oom");
    EXPECT_EQ(got.oom_count, 2u) << "threads=" << t;
    EXPECT_EQ(sorted_rows(got.records), ref_rows) << "threads=" << t;
    EXPECT_EQ(fingerprint(eng.metrics()), ref_fp) << "threads=" << t;
  }
}

TEST(ParallelDeterminism, CrashResumeAcrossThreadCountChange) {
  // Record a checkpoint WAL at 1 thread, crash at the first stage barrier,
  // then resume the driver at 8 threads (and vice versa). Adopted stages
  // replay from the WAL, re-executed stages run as concurrent tasks — the
  // digest must match the uninterrupted single-threaded reference.
  const auto drive = [](const std::string& dir, std::size_t host_threads,
                        const ckpt::CrashSchedule& crash,
                        engine::ResumeLedger* ledger, bool* crashed) {
    engine::Engine eng(engine::ClusterSpec::uniform(2, 2),
                       small_options(host_threads));
    obs::EventLog log;
    ckpt::CheckpointOptions co;
    co.crash = crash;
    auto writer = std::make_shared<ckpt::CheckpointWriter>(dir, co);
    log.attach(writer);
    eng.set_event_log(&log);
    eng.set_checkpoint_hook(writer.get());
    if (ledger != nullptr) eng.set_resume_ledger(ledger);
    std::vector<engine::Record> rows;
    std::vector<std::uint64_t> fp;
    try {
      rows = sorted_rows(eng.collect(sum_job(), "pd-ckpt").records);
      *crashed = false;
    } catch (const ckpt::SimulatedCrash&) {
      *crashed = true;
    }
    log.detach_all();
    fp = fingerprint(eng.metrics());
    return std::make_pair(std::move(rows), std::move(fp));
  };

  const std::string ref_dir = ::testing::TempDir() + "/pd_ckpt_ref";
  fs::remove_all(ref_dir);
  bool crashed = true;
  const auto ref = drive(ref_dir, 1, {}, nullptr, &crashed);
  ASSERT_FALSE(crashed);
  fs::remove_all(ref_dir);

  for (const auto& [record_threads, resume_threads] :
       std::vector<std::pair<std::size_t, std::size_t>>{{1, 8}, {8, 1}}) {
    const std::string dir = ::testing::TempDir() + "/pd_ckpt_" +
                            std::to_string(record_threads) + "_" +
                            std::to_string(resume_threads);
    fs::remove_all(dir);
    ckpt::CrashSchedule cs;
    cs.at_stage_barrier = 0;
    cs.after_barrier_flush = true;  // stage 0 commits, then the crash
    const auto wrecked = drive(dir, record_threads, cs, nullptr, &crashed);
    ASSERT_TRUE(crashed);

    ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
    const auto resumed = drive(dir, resume_threads, {}, &plan.ledger, &crashed);
    ASSERT_FALSE(crashed);
    EXPECT_EQ(resumed.first, ref.first)
        << "record=" << record_threads << " resume=" << resume_threads;
    EXPECT_EQ(resumed.second, ref.second)
        << "record=" << record_threads << " resume=" << resume_threads;
    fs::remove_all(dir);
  }
}

// host_threads = 0 resolves to hardware concurrency and still matches.
TEST(ParallelDeterminism, AutoThreadCountMatchesSequential) {
  engine::Engine ref_eng(engine::ClusterSpec::uniform(2, 2), small_options(1));
  const auto ref = ref_eng.collect(sum_job(), "pd-auto");
  engine::Engine eng(engine::ClusterSpec::uniform(2, 2), small_options(0));
  const auto got = eng.collect(sum_job(), "pd-auto");
  EXPECT_EQ(sorted_rows(got.records), sorted_rows(ref.records));
  EXPECT_EQ(fingerprint(eng.metrics()), fingerprint(ref_eng.metrics()));
}

}  // namespace
}  // namespace chopper
