// Crash-resume edge cases (src/ckpt + engine adoption path, DESIGN.md §16):
// crash during stage 0, crash after the final stage (pure replay), crash
// mid-OOM-retry (retained schedules force a full deterministic rerun), and
// double-resume idempotence (a second crash during a resumed run resumes
// from the new, self-contained WAL epoch). Every resumed run must reproduce
// the uninterrupted reference bit-for-bit: same collected rows, same counts,
// same stage/task/job metrics fingerprint (wall-clock and recovery
// telemetry excluded), and — for the workload arms — the same event log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/resume.h"
#include "engine/engine.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/jsonl.h"
#include "workloads/kmeans.h"
#include "workloads/pagerank.h"
#include "workloads/sql.h"

namespace chopper {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const std::string& leaf) {
  const std::string d = ::testing::TempDir() + "/" + leaf;
  fs::remove_all(d);
  return d;
}

engine::EngineOptions small_options() {
  engine::EngineOptions o;
  o.default_parallelism = 6;
  o.host_threads = 4;
  return o;
}

engine::SourceFn iota_source(std::size_t total, std::uint64_t salt) {
  return [total, salt](std::size_t index, std::size_t count) {
    engine::Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      engine::Record r;
      r.key = (salt * 7919 + i) % 97;
      r.values = {static_cast<double>(i) * 0.25, 1.0};
      p.push(std::move(r));
    }
    return p;
  };
}

void sum_fn(engine::Record& acc, const engine::Record& next) {
  acc.values[0] += next.values[0];
  acc.values[1] += next.values[1];
}

/// The fixed job mix every "driver process" runs: a cached prep read twice
/// (cache blocks), a shuffle aggregation (shuffle + result blocks), and a
/// trailing map-count job — three jobs, deterministic in structure.
struct Mix {
  engine::DatasetPtr warm;  ///< job 0: count, commits the cache
  engine::DatasetPtr agg;   ///< job 1: collect over a shuffle
  engine::DatasetPtr tail;  ///< job 2: count
};

Mix make_mix() {
  Mix m;
  auto prep = engine::Dataset::source("ck-src", 6, iota_source(3000, 3))
                  ->map("ck-prep",
                        [](const engine::Record& in) {
                          engine::Record r = in;
                          r.values[0] = r.values[0] * 2.0 + 0.125;
                          return r;
                        })
                  ->cache();
  m.warm = prep;
  m.agg = prep->reduce_by_key("ck-agg", sum_fn,
                              engine::ShuffleRequest{std::nullopt, 6, false});
  m.tail = engine::Dataset::source("ck-tail", 4, iota_source(800, 11))
               ->map("ck-tailmap", [](const engine::Record& in) {
                 engine::Record r = in;
                 r.values[0] += 1.0;
                 return r;
               });
  return m;
}

/// Run-identity fingerprint: every stage/task/job field the event log
/// serializes, excluding wall-clock and resume telemetry (those are
/// provenance, legitimately different across a resume).
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
    d(s.sim_start_s);
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

struct DriveOut {
  bool crashed = false;
  std::uint64_t warm_count = 0;
  std::uint64_t tail_count = 0;
  std::vector<engine::Record> rows;  ///< agg output, sorted
  std::size_t resumed_stages = 0;
  std::uint64_t replayed_events = 0;
  std::uint64_t restored_bytes = 0;
  std::uint64_t barriers = 0;
  std::vector<std::uint64_t> fp;
};

/// One simulated driver-process lifetime over the fixed mix.
DriveOut drive(const std::string& dir, const engine::EngineOptions& opts,
               const ckpt::CrashSchedule& crash,
               engine::ResumeLedger* ledger) {
  DriveOut out;
  engine::Engine eng(engine::ClusterSpec::uniform(2, 2), opts);
  obs::EventLog log;
  ckpt::CheckpointOptions co;
  co.crash = crash;
  auto writer = std::make_shared<ckpt::CheckpointWriter>(dir, co);
  log.attach(writer);
  eng.set_event_log(&log);
  eng.set_checkpoint_hook(writer.get());
  if (ledger != nullptr) eng.set_resume_ledger(ledger);

  const Mix mix = make_mix();
  try {
    out.warm_count = eng.count(mix.warm, "ck-warm").count;
    auto agg = eng.collect(mix.agg, "ck-agg");
    out.rows = std::move(agg.records);
    out.tail_count = eng.count(mix.tail, "ck-tail").count;
  } catch (const ckpt::SimulatedCrash&) {
    out.crashed = true;
  }
  log.detach_all();

  std::sort(out.rows.begin(), out.rows.end(),
            [](const engine::Record& a, const engine::Record& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.values < b.values;
            });
  for (const auto& j : eng.metrics().jobs()) {
    out.resumed_stages += j.resumed_stages;
    out.replayed_events += j.replayed_events;
    out.restored_bytes += j.restored_bytes;
  }
  out.barriers = writer->barriers_seen();
  out.fp = fingerprint(eng.metrics());
  return out;
}

/// Uninterrupted reference for the given options (checkpointing attached,
/// like every other run, so the event stream is identical by construction).
DriveOut reference(const std::string& dir, const engine::EngineOptions& opts) {
  DriveOut ref = drive(dir, opts, {}, nullptr);
  EXPECT_FALSE(ref.crashed);
  fs::remove_all(dir);
  return ref;
}

void expect_same_outcome(const DriveOut& got, const DriveOut& want) {
  EXPECT_EQ(got.warm_count, want.warm_count);
  EXPECT_EQ(got.tail_count, want.tail_count);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.fp, want.fp) << "metrics fingerprint diverged";
}

TEST(CkptResume, CrashDuringStageZeroRunsEverything) {
  const DriveOut ref = reference(temp_dir("res_ref0"), small_options());

  const std::string dir = temp_dir("res_stage0");
  ckpt::CrashSchedule cs;
  cs.at_stage_barrier = 0;  // the very first stage commit never lands
  cs.after_barrier_flush = false;
  const DriveOut crashed = drive(dir, small_options(), cs, nullptr);
  ASSERT_TRUE(crashed.crashed);

  ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
  EXPECT_EQ(plan.committed_stages, 0u);
  EXPECT_EQ(plan.finished_jobs, 0u);

  const DriveOut resumed = drive(dir, small_options(), {}, &plan.ledger);
  EXPECT_FALSE(resumed.crashed);
  EXPECT_EQ(resumed.resumed_stages, 0u) << "nothing was committed to adopt";
  expect_same_outcome(resumed, ref);
}

TEST(CkptResume, CrashAfterFinalStageIsPureReplay) {
  const DriveOut ref = reference(temp_dir("res_ref1"), small_options());
  ASSERT_GT(ref.barriers, 0u);

  const std::string dir = temp_dir("res_final");
  ckpt::CrashSchedule cs;
  cs.at_stage_barrier = static_cast<std::int64_t>(ref.barriers - 1);
  cs.after_barrier_flush = true;  // die right after the last barrier commits
  const DriveOut crashed = drive(dir, small_options(), cs, nullptr);
  ASSERT_TRUE(crashed.crashed);

  ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
  EXPECT_EQ(plan.finished_jobs, 3u) << "every job's kJobFinish was durable";

  const DriveOut resumed = drive(dir, small_options(), {}, &plan.ledger);
  EXPECT_FALSE(resumed.crashed);
  EXPECT_GT(resumed.resumed_stages, 0u);
  EXPECT_GT(resumed.replayed_events, 0u);
  // Pure replay restores every committed stage instead of executing it.
  std::size_t total_stages = 0;
  for (const auto& j : plan.ledger.jobs) total_stages += j.stages.size();
  EXPECT_EQ(resumed.resumed_stages, total_stages);
  expect_same_outcome(resumed, ref);
}

TEST(CkptResume, CrashMidOomRetryForcesFullRerun) {
  engine::EngineOptions opts = small_options();
  engine::OomInjection oom;
  oom.stage_id = 0;
  oom.attempts = 1;
  oom.task = 0;
  opts.faults.ooms.push_back(oom);
  // Keep the retry at the same partition count so the faulty timeline is
  // itself deterministic (same guard as bench/chaos).
  opts.memory.oom_repartition_after = 100;

  const DriveOut ref = reference(temp_dir("res_ref2"), opts);

  const std::string dir = temp_dir("res_oom");
  ckpt::CrashSchedule cs;
  cs.at_stage_barrier = 1;
  cs.after_barrier_flush = true;
  const DriveOut crashed = drive(dir, opts, cs, nullptr);
  ASSERT_TRUE(crashed.crashed);

  ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
  const DriveOut resumed = drive(dir, opts, {}, &plan.ledger);
  EXPECT_FALSE(resumed.crashed);
  // An armed OOM schedule retains engine-global state the adoption path
  // cannot reproduce: the engine must refuse the prefix and re-execute
  // deterministically.
  EXPECT_EQ(resumed.resumed_stages, 0u);
  expect_same_outcome(resumed, ref);
}

TEST(CkptResume, DoubleResumeIsIdempotent) {
  const DriveOut ref = reference(temp_dir("res_ref3"), small_options());
  ASSERT_GT(ref.barriers, 3u);

  const std::string dir = temp_dir("res_double");
  ckpt::CrashSchedule first;
  first.at_stage_barrier = 1;
  first.after_barrier_flush = true;
  ASSERT_TRUE(drive(dir, small_options(), first, nullptr).crashed);

  // First resume crashes again, further along its OWN epoch's barrier
  // stream (adopted history is re-emitted into the new epoch first).
  ckpt::ResumePlan plan1 = ckpt::build_resume_plan(dir);
  EXPECT_EQ(plan1.wal_epoch, 0u);
  ckpt::CrashSchedule second;
  second.at_stage_barrier = 3;
  second.after_barrier_flush = true;
  ASSERT_TRUE(drive(dir, small_options(), second, &plan1.ledger).crashed);

  // Second resume decodes the newest epoch alone — it is self-contained —
  // and completes with the reference outcome.
  ckpt::ResumePlan plan2 = ckpt::build_resume_plan(dir);
  EXPECT_EQ(plan2.wal_epoch, 1u);
  EXPECT_GE(plan2.committed_stages, plan1.committed_stages);
  const DriveOut resumed = drive(dir, small_options(), {}, &plan2.ledger);
  EXPECT_FALSE(resumed.crashed);
  EXPECT_GT(resumed.resumed_stages, 0u);
  expect_same_outcome(resumed, ref);
}

// A hand-edited WAL whose first job_submit names job -1, no job, or job
// 10^12 once crashed `resume` (SIGSEGV, SIGSEGV, bad_alloc): the ledger was
// indexed and sized by the decoded id. Such a line is now a counted skip, and
// resuming from the plan still reproduces the reference.
TEST(CkptResume, HostileJobIdsAreSkippedLines) {
  const DriveOut ref = reference(temp_dir("res_ref4"), small_options());
  const std::string dir = temp_dir("res_hostile");
  ASSERT_FALSE(drive(dir, small_options(), {}, nullptr).crashed);
  const std::string wal_path = ckpt::wal_path(dir, 0);
  std::string wal;
  {
    std::ifstream is(wal_path);
    wal.assign(std::istreambuf_iterator<char>(is), {});
  }
  const std::size_t submit = wal.find("\"k\":\"job_submit\"");
  ASSERT_NE(submit, std::string::npos);
  const std::size_t job = wal.find("\"job\":0", submit);
  ASSERT_NE(job, std::string::npos);
  for (const std::string replacement :
       {"\"job\":-1", "\"jbo\":0", "\"job\":1000000000000"}) {
    std::string hostile = wal;
    hostile.replace(job, std::strlen("\"job\":0"), replacement);
    std::ofstream(wal_path, std::ios::trunc) << hostile;
    ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
    EXPECT_EQ(plan.skipped_lines, 1u) << replacement;
    EXPECT_LE(plan.ledger.jobs.size(), plan.events) << replacement;
  }
  // The last edit stays on disk: resume from it end to end.
  ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
  const DriveOut resumed = drive(dir, small_options(), {}, &plan.ledger);
  EXPECT_FALSE(resumed.crashed);
  expect_same_outcome(resumed, ref);
}

// ---------------------------------------------------------------------------
// Event-log equivalence: adoption publishes restored stages through the live
// commit steps, so a resumed run's new WAL epoch must retell the
// uninterrupted run's log event for event. Allowed to differ: seq, host
// time (wall, wall_time_s), the kResume events and the kJobFinish resume
// provenance. Dataset ids are process-global counters, so both logs number
// them by first appearance.

std::unique_ptr<workloads::Workload> tiny_workload(const std::string& name) {
  if (name == "kmeans") {
    workloads::KMeansParams p;
    p.data.total_points = 6'000;
    p.data.dims = 4;
    p.data.clusters = 4;
    p.k = 4;
    p.iterations = 2;
    p.init_rounds = 3;
    p.source_partitions = 24;
    return std::make_unique<workloads::KMeansWorkload>(p);
  }
  if (name == "sql") {
    workloads::SqlParams p;
    p.fact.total_rows = 20'000;
    p.fact.num_keys = 1'500;
    p.dim.num_keys = 1'500;
    p.fact_partitions = 24;
    p.dim_partitions = 8;
    p.fact_agg_partitions = 24;
    p.dim_agg_partitions = 8;
    return std::make_unique<workloads::SqlWorkload>(p);
  }
  workloads::PageRankParams p;
  p.num_pages = 2'000;
  p.avg_out_degree = 6;
  p.iterations = 2;
  p.source_partitions = 16;
  return std::make_unique<workloads::PageRankWorkload>(p);
}

struct Lifetime {
  bool crashed = false;
  std::size_t wal_epoch = 0;  ///< the epoch this lifetime wrote
  std::uint64_t barriers = 0;
};

/// One driver lifetime of workload `name` checkpointing into `dir`: crash
/// right after barrier `crash_at` became durable (-1: never), resuming from
/// `ledger` when one is given.
Lifetime drive_workload(const std::string& name, const std::string& dir,
                        std::int64_t crash_at, engine::ResumeLedger* ledger) {
  engine::EngineOptions opts;
  opts.default_parallelism = 24;
  opts.host_threads = 2;
  engine::Engine eng(engine::ClusterSpec::uniform(3, 4), opts);
  obs::EventLog log;
  ckpt::CheckpointOptions co;
  co.crash.at_stage_barrier = crash_at;
  co.crash.after_barrier_flush = true;
  auto writer = std::make_shared<ckpt::CheckpointWriter>(dir, co);
  log.attach(writer);
  eng.set_event_log(&log);
  eng.set_checkpoint_hook(writer.get());
  if (ledger != nullptr) eng.set_resume_ledger(ledger);
  Lifetime out;
  out.wal_epoch = writer->wal_epoch();
  try {
    tiny_workload(name)->run(eng, 1.0);
  } catch (const ckpt::SimulatedCrash&) {
    out.crashed = true;
  }
  log.detach_all();
  out.barriers = writer->barriers_seen();
  if (!out.crashed) {
    // Whole-row replay parity, resume provenance included.
    const auto reader =
        obs::HistoryReader::load(ckpt::wal_path(dir, out.wal_epoch));
    EXPECT_TRUE(reader.stages() == eng.metrics().stages());
    EXPECT_TRUE(reader.jobs() == eng.metrics().jobs());
  }
  return out;
}

/// The log at `wal` with every field that may legitimately differ across a
/// resume neutralized (see above).
std::vector<obs::Event> comparable_log(const std::string& wal) {
  std::vector<obs::Event> out;
  std::unordered_map<std::uint64_t, std::uint64_t> dataset_rank;
  const obs::HistoryReader reader = obs::HistoryReader::load(wal);
  for (obs::Event e : reader.events()) {
    if (e.kind == obs::EventKind::kResume) continue;
    e.seq = 0;
    e.wall = 0.0;
    e.wall_time_s = 0.0;
    if (e.kind == obs::EventKind::kJobFinish) {
      e.resumed_stages = 0;
      e.replayed_events = 0;
      e.restored_bytes = 0;
      e.recovery_wall_s = 0.0;
    }
    if (e.dataset != obs::kNoId) {
      const std::uint64_t rank = dataset_rank.size();
      e.dataset = dataset_rank.emplace(e.dataset, rank).first->second;
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::string identity(const obs::Event& e) {
  std::ostringstream os;
  os << obs::to_string(e.kind) << " job=" << e.job << " stage=" << e.stage
     << " plan_index=" << e.plan_index << " task=" << e.task
     << " shuffle=" << e.shuffle << " dataset=" << e.dataset;
  return os.str();
}

void expect_same_log(const std::vector<obs::Event>& got,
                     const std::vector<obs::Event>& want) {
  const auto key = [](const obs::Event& e) {
    return std::make_tuple(e.kind, e.job, e.stage, e.plan_index, e.task,
                           e.shuffle, e.dataset);
  };
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (key(got[i]) != key(want[i])) {
      ADD_FAILURE() << "event " << i << ": resumed log has "
                    << identity(got[i]) << ", uninterrupted log has "
                    << identity(want[i]);
      return;
    }
    if (!(got[i] == want[i])) {
      ADD_FAILURE() << "event " << i << " (" << identity(want[i])
                    << ") differs\n  resumed:       " << obs::to_jsonl(got[i])
                    << "\n  uninterrupted: " << obs::to_jsonl(want[i]);
      return;
    }
  }
  EXPECT_EQ(got.size(), want.size()) << "event count";
}

TEST(CkptResume, ResumedEpochMatchesUninterruptedLog) {
  for (const std::string name : {"sql", "kmeans", "pagerank"}) {
    SCOPED_TRACE(name);
    const std::string ref_dir = temp_dir("log_ref_" + name);
    const Lifetime ref = drive_workload(name, ref_dir, -1, nullptr);
    ASSERT_FALSE(ref.crashed);
    ASSERT_GT(ref.barriers, 3u);
    const auto want = comparable_log(ckpt::wal_path(ref_dir, 0));
    const auto last = static_cast<std::int64_t>(ref.barriers) - 1;
    // DESIGN.md §12: stage starts carry the first attempt's P, shuffle
    // writes the consumer partitioner's P.
    for (const obs::Event& e : want) {
      if (e.kind == obs::EventKind::kStageStart ||
          e.kind == obs::EventKind::kShuffleWrite) {
        EXPECT_GT(e.num_partitions, 0u) << identity(e);
      }
    }

    // Single crash after barrier k, then one resume.
    for (const std::int64_t k : {std::int64_t{1}, last / 2, last - 1}) {
      SCOPED_TRACE("crash after barrier " + std::to_string(k));
      const std::string dir = temp_dir("log_" + name);
      ASSERT_TRUE(drive_workload(name, dir, k, nullptr).crashed);
      ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
      ASSERT_GT(plan.committed_stages, 0u);
      const Lifetime resumed = drive_workload(name, dir, -1, &plan.ledger);
      ASSERT_FALSE(resumed.crashed);
      expect_same_log(comparable_log(ckpt::wal_path(dir, resumed.wal_epoch)),
                      want);
    }

    // Double resume: the first resumed lifetime crashes again further along
    // its own epoch; the second resumes from that epoch alone.
    SCOPED_TRACE("double resume");
    const std::string dir = temp_dir("log2_" + name);
    ASSERT_TRUE(drive_workload(name, dir, last / 3, nullptr).crashed);
    ckpt::ResumePlan plan1 = ckpt::build_resume_plan(dir);
    ASSERT_TRUE(drive_workload(name, dir, 2 * last / 3, &plan1.ledger).crashed);
    ckpt::ResumePlan plan2 = ckpt::build_resume_plan(dir);
    EXPECT_EQ(plan2.wal_epoch, 1u);
    const Lifetime resumed = drive_workload(name, dir, -1, &plan2.ledger);
    ASSERT_FALSE(resumed.crashed);
    EXPECT_EQ(resumed.wal_epoch, 2u);
    expect_same_log(comparable_log(ckpt::wal_path(dir, resumed.wal_epoch)),
                    want);
  }
}

TEST(CkptResume, ResumePlanRequiresACheckpointDirectory) {
  const std::string dir = temp_dir("res_empty");
  fs::create_directories(dir);
  EXPECT_THROW(ckpt::build_resume_plan(dir), std::runtime_error);
}

}  // namespace
}  // namespace chopper
