// chopperctl — command-line driver for the CHOPPER reproduction.
//
//   chopperctl profile --workload kmeans|pca|sql [--scale S] [--db FILE]
//       Run the profiling sweep and store observations in the DB file.
//
//   chopperctl plan --workload W --db FILE [--scale S] [--naive] [--out FILE]
//       Compute the (Algorithm 3, or Algorithm 2 with --naive) plan from a
//       previously saved DB and print/save the Fig. 6 configuration.
//
//   chopperctl run --workload W [--conf FILE] [--scale S] [--speculation]
//                  [--aqe] [--mem-scale M] [--adapt] [--db FILE]
//       Execute the workload — vanilla by default, with a CHOPPER config if
//       --conf is given — and print the per-stage metrics. --mem-scale M
//       shrinks every worker's executor memory by M and turns on budget
//       enforcement (DESIGN.md §11): caches evict, shuffles spill, and
//       oversized task working sets OOM + retry at a grown partition count.
//       --adapt attaches the in-flight adaptive controller (DESIGN.md §15):
//       live stage statistics stream into the workload DB (seeded from
//       --db when given), models refit incrementally, and pending stages may
//       be re-planned at stage barriers. --adapt-epsilon / --adapt-min-obs /
//       --adapt-max-replans tune the hysteresis gate.
//
//   chopperctl inspect --db FILE
//       Summarize a workload DB: observations and stage DAGs.
//
//   chopperctl serve --jobs N --mode fair|fifo [--max-concurrent K] [--tiny]
//                    [--adapt]
//       Multi-tenant demo: submit N mixed jobs (small "interactive"-pool
//       aggregations + heavy "batch"-pool kmeans/sql jobs) concurrently to a
//       JobServer over one shared engine and print per-job latency, the pool
//       shares and the grant schedule summary. --adapt attaches an adaptive
//       controller with every job opted in (per-job opt-in gating plus the
//       epoch-keyed plan cache, exercised concurrently).
//
//   chopperctl chaos [--seed N] [--runs K] [--tiny] [--json FILE]
//       Differential chaos trials (DESIGN.md §14): each seed composes
//       node-failure, OOM, flaky-fetch and corruption schedules, runs a job
//       with and without them and asserts bit-identical results, replayable
//       event histories and bounded makespan inflation. Exit 1 on any
//       divergence.
//
//   chopperctl resume DIR
//       Crash recovery (DESIGN.md §16): decode the newest WAL segment of a
//       checkpoint directory written by `run --checkpoint DIR` or
//       `serve --checkpoint DIR`, rebuild the identical run from the
//       recorded runspec, and continue from the first uncommitted stage.
//       Committed stages are adopted from the WAL + block files (classic
//       runs) or finished jobs are re-admitted without re-execution (serve);
//       everything else re-executes deterministically, so the final results
//       are bit-identical to an uninterrupted run. A fresh WAL epoch is
//       opened, so resume itself is crash-consistent (double-resume works).
//
//   chopperctl history LOG
//       Summarize a structured event log (written with --event-log):
//       per-job and per-stage tables, straggler/critical-path analysis and
//       per-node utilization — all rebuilt offline via HistoryReader.
//
//   chopperctl trace LOG --chrome OUT.json
//       Export an event log to Chrome trace_event JSON (load in Perfetto or
//       chrome://tracing): nodes become processes, core slots become
//       threads, shuffles become flow arrows.
//
// run and serve accept --event-log FILE to record the structured event
// stream consumed by history/trace. The cluster and workload presets match
// the bench harness (the paper's heterogeneous 5-worker cluster,
// Table-I-proportional inputs). CHOPPER_LOG_LEVEL overrides the default
// stderr log level.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "adapt/adaptive.h"
#include "cacheplan/cacheplan.h"
#include "chaos.h"
#include "chopper/chopper.h"
#include "ckpt/checkpoint.h"
#include "ckpt/resume.h"
#include "common/logging.h"
#include "harness.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/sinks.h"
#include "service/job_server.h"

using namespace chopper;

namespace {

/// Bad flag value: main prints the usage block naming the offending flag
/// and exits 2 (instead of std::stod's raw std::invalid_argument crash).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-subcommand usage blocks. An empty `cmd` (or an unknown one) prints
/// every block.
void print_usage(std::FILE* out, const std::string& cmd = "") {
  const bool all = cmd.empty();
  if (all) {
    std::fprintf(out,
                 "usage: chopperctl COMMAND [--flags]\n"
                 "commands: profile plan run inspect serve resume chaos "
                 "history trace\n\n");
  }
  if (all || cmd == "profile") {
    std::fprintf(out,
                 "  chopperctl profile --workload kmeans|pca|sql [--scale S] "
                 "[--db FILE] [--tiny]\n"
                 "      run the profiling sweep and save the workload DB\n");
  }
  if (all || cmd == "plan") {
    std::fprintf(out,
                 "  chopperctl plan --workload W --db FILE [--scale S] "
                 "[--naive] [--out FILE] [--tiny]\n"
                 "      compute the CHOPPER plan from a saved DB\n");
  }
  if (all || cmd == "run") {
    std::fprintf(out,
                 "  chopperctl run --workload W [--conf FILE] [--scale S] "
                 "[--speculation] [--aqe]\n"
                 "                 [--mem-scale M] [--event-log FILE] [--tiny]\n"
                 "                 [--adapt] [--db FILE] [--adapt-epsilon E]\n"
                 "                 [--adapt-min-obs N] [--adapt-max-replans K]\n"
                 "                 [--checkpoint DIR] [--sync] "
                 "[--crash-at-seq N]\n"
                 "                 [--crash-at-barrier N] "
                 "[--crash-after-flush]\n"
                 "                 [--cache-policy lru|cost]\n"
                 "      execute the workload and print per-stage metrics;\n"
                 "      --adapt re-plans pending stages in flight;\n"
                 "      --cache-policy cost prices evictions by recomputation\n"
                 "      cost x reuse instead of LRU (DESIGN.md §17);\n"
                 "      --checkpoint writes a crash-consistent WAL + block\n"
                 "      files so `chopperctl resume DIR` can continue;\n"
                 "      --crash-at-* kill the driver deterministically at a\n"
                 "      WAL event seq / stage barrier (testing)\n");
  }
  if (all || cmd == "inspect") {
    std::fprintf(out,
                 "  chopperctl inspect --db FILE\n"
                 "      summarize a workload DB: observations and stage DAGs\n");
  }
  if (all || cmd == "serve") {
    std::fprintf(out,
                 "  chopperctl serve [--jobs N] [--mode fifo|fair] "
                 "[--max-concurrent K]\n"
                 "                   [--event-log FILE] [--tiny] [--adapt]\n"
                 "                   [--checkpoint DIR] [--sync]\n"
                 "                   [--cache-policy lru|cost]\n"
                 "      multi-tenant demo over one shared engine; with\n"
                 "      --cache-policy cost, pool weights become per-tenant\n"
                 "      cache-share floors\n");
  }
  if (all || cmd == "resume") {
    std::fprintf(out,
                 "  chopperctl resume DIR [--sync]\n"
                 "      continue a checkpointed run/serve from its WAL: "
                 "committed stages\n"
                 "      are adopted, the rest re-execute deterministically "
                 "(bit-identical\n"
                 "      results); opens a fresh WAL epoch in DIR\n");
  }
  if (all || cmd == "chaos") {
    std::fprintf(out,
                 "  chopperctl chaos [--seed N] [--runs K] [--tiny] "
                 "[--json FILE]\n"
                 "      differential chaos trials: composed fault schedules "
                 "must leave\n"
                 "      results bit-identical and histories replayable\n");
  }
  if (all || cmd == "history") {
    std::fprintf(out,
                 "  chopperctl history LOG [--stragglers N]\n"
                 "      summarize an event log: jobs, stages, stragglers,\n"
                 "      critical path and per-node utilization\n");
  }
  if (all || cmd == "trace") {
    std::fprintf(out,
                 "  chopperctl trace LOG --chrome OUT.json\n"
                 "      export an event log to Chrome trace_event JSON\n");
  }
  if (all) {
    std::fprintf(out, "\nsee the header of tools/chopperctl.cc for details\n");
  }
}

/// Guarded numeric flag parsing shared by every subcommand: the whole string
/// must parse (no trailing characters), and integral T additionally requires
/// a non-negative integer. Anything else throws UsageError naming the flag —
/// main prints the usage block and exits 2.
template <typename T>
T parse_flag(const std::string& key, const std::string& raw) {
  constexpr const char* noun = std::is_integral_v<T> ? "count" : "number";
  try {
    std::size_t pos = 0;
    const double v = std::stod(raw, &pos);
    if (pos != raw.size()) {
      throw std::invalid_argument("trailing characters");
    }
    if constexpr (std::is_integral_v<T>) {
      if (v < 0.0 || v != static_cast<double>(static_cast<T>(v))) {
        throw std::invalid_argument("not a non-negative integer");
      }
    }
    return static_cast<T>(v);
  } catch (const UsageError&) {
    throw;
  } catch (const std::exception&) {
    throw UsageError(std::string("invalid ") + noun + " for --" + key + ": '" +
                     raw + "'");
  }
}

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  bool has(const std::string& key) const { return flags.count(key) > 0; }
  double get_double(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : parse_flag<double>(key, it->second);
  }
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback
                             : parse_flag<std::size_t>(key, it->second);
  }
};

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      // Positional operand (history/trace take the log path this way).
      args.positional.push_back(std::move(flag));
      continue;
    }
    flag = flag.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.flags[flag] = argv[++i];
    } else {
      args.flags[flag] = "1";  // boolean flag
    }
  }
  return args;
}

/// Reject flag names the subcommand does not define (exit 2 via UsageError),
/// so a typo like --event-lgo fails loudly instead of being ignored.
void validate_flags(const Args& args) {
  static const std::map<std::string, std::vector<std::string>> known = {
      {"profile", {"workload", "scale", "db", "tiny"}},
      {"plan", {"workload", "db", "scale", "naive", "out", "tiny"}},
      {"run",
       {"workload", "conf", "scale", "speculation", "aqe", "mem-scale",
        "event-log", "tiny", "adapt", "db", "adapt-epsilon", "adapt-min-obs",
        "adapt-max-replans", "checkpoint", "sync", "crash-at-seq",
        "crash-at-barrier", "crash-after-flush", "cache-policy"}},
      {"inspect", {"db"}},
      {"serve",
       {"jobs", "mode", "max-concurrent", "event-log", "tiny", "adapt",
        "checkpoint", "sync", "cache-policy"}},
      {"resume", {"sync"}},
      {"chaos", {"seed", "runs", "tiny", "json"}},
      {"history", {"stragglers"}},
      {"trace", {"chrome"}},
  };
  const auto it = known.find(args.command);
  if (it == known.end()) return;  // unknown command: main exits 3
  for (const auto& [flag, value] : args.flags) {
    if (std::find(it->second.begin(), it->second.end(), flag) ==
        it->second.end()) {
      throw UsageError("unknown flag --" + flag + " for '" + args.command +
                       "'");
    }
  }
}

engine::EvictionPolicy parse_cache_policy(const Args& args) {
  const std::string p = args.get("cache-policy", "lru");
  if (p == "lru") return engine::EvictionPolicy::kLru;
  if (p == "cost") return engine::EvictionPolicy::kCost;
  throw UsageError("invalid --cache-policy '" + p + "' (lru|cost)");
}

std::unique_ptr<workloads::Workload> make_workload(const std::string& name,
                                                   bool tiny) {
  // --tiny shrinks inputs ~20x for smoke tests and CI.
  if (name == "kmeans") {
    auto p = bench::kmeans_params();
    if (tiny) {
      p.data.total_points /= 20;
      p.init_rounds = 3;
    }
    return std::make_unique<workloads::KMeansWorkload>(p);
  }
  if (name == "pca") {
    auto p = bench::pca_params();
    if (tiny) p.data.total_rows /= 20;
    return std::make_unique<workloads::PcaWorkload>(p);
  }
  if (name == "sql") {
    auto p = bench::sql_params();
    if (tiny) {
      p.fact.total_rows /= 20;
      p.fact.num_keys /= 20;
      p.dim.num_keys /= 20;
    }
    return std::make_unique<workloads::SqlWorkload>(p);
  }
  return nullptr;
}

core::ChopperOptions chopper_options(bool tiny) {
  auto o = bench::chopper_options();
  if (tiny) {
    o.profile_partitions = {100, 200, 300};
    o.profile_fractions = {1.0};
    o.profile_both_partitioners = false;
  }
  return o;
}

/// The serve demo's deterministic job mix: submission index -> dataset graph
/// plus its display name and pool. Shared with `resume` so a restarted
/// server rebuilds the exact same jobs (same seeds, same ids, same order).
engine::DatasetPtr make_serve_job(std::size_t i, bool tiny, std::string* name,
                                  std::string* pool) {
  // 1:2 mix of heavy batch jobs and small interactive queries (all small
  // under --tiny, for CI smoke runs).
  if (!tiny && i % 3 == 0) {
    *name = "sql-" + std::to_string(i);
    *pool = "batch";
    return bench::service_sql_like_job(i);
  }
  if (!tiny && i % 3 == 1) {
    *name = "kmeans-" + std::to_string(i);
    *pool = "batch";
    return bench::service_kmeans_like_job(i);
  }
  *name = "agg-" + std::to_string(i);
  *pool = "interactive";
  return bench::service_small_job(i);
}

/// Attach a checkpoint WAL writer to a run/serve invocation and record the
/// runspec `resume DIR` needs to rebuild the identical process. Refuses
/// --adapt: in-flight re-planning would let the restarted run choose a
/// different plan, voiding the bit-identical-resume contract.
std::shared_ptr<ckpt::CheckpointWriter> attach_checkpoint(
    const Args& args, obs::EventLog& event_log, engine::Engine& eng,
    std::vector<std::pair<std::string, std::string>> runspec) {
  if (args.has("adapt")) {
    throw UsageError(
        "--checkpoint cannot be combined with --adapt (in-flight re-planning "
        "breaks bit-identical resume)");
  }
  const std::string dir = args.get("checkpoint");
  ckpt::CheckpointOptions copts;
  copts.sync = args.has("sync");
  if (args.has("crash-at-seq")) {
    copts.crash.at_event_seq =
        static_cast<std::int64_t>(args.get_size("crash-at-seq", 0));
  }
  if (args.has("crash-at-barrier")) {
    copts.crash.at_stage_barrier =
        static_cast<std::int64_t>(args.get_size("crash-at-barrier", 0));
  }
  copts.crash.after_barrier_flush = args.has("crash-after-flush");
  auto writer = std::make_shared<ckpt::CheckpointWriter>(dir, copts);
  event_log.attach(writer);
  eng.set_event_log(&event_log);
  eng.set_checkpoint_hook(writer.get());
  ckpt::write_kv_snapshot(dir + "/runspec.kv", runspec, copts.sync);
  std::printf("checkpointing to %s (wal epoch %zu%s)\n", dir.c_str(),
              writer->wal_epoch(), copts.sync ? ", fsync" : "");
  return writer;
}

void print_checkpoint_summary(const ckpt::CheckpointWriter& w) {
  std::printf(
      "checkpoint: %llu events -> wal epoch %zu, %llu block files "
      "(%.1f KB payload)\n",
      static_cast<unsigned long long>(w.events_appended()), w.wal_epoch(),
      static_cast<unsigned long long>(w.blocks_written()),
      static_cast<double>(w.block_bytes_written()) / 1024.0);
}

/// Per-job recovery telemetry pulled from the engine's JobMetrics rows
/// (populated by the scheduler's adopt_restored path).
void print_recovery_telemetry(const engine::Engine& eng) {
  bool any = false;
  for (const auto& jm : eng.metrics().jobs()) {
    if (jm.resumed_stages > 0 || jm.replayed_events > 0) any = true;
  }
  if (!any) return;
  bench::Table rt({"job", "name", "resumed", "replayed", "restored(KB)",
                   "recovery(ms)"});
  for (const auto& jm : eng.metrics().jobs()) {
    if (jm.resumed_stages == 0 && jm.replayed_events == 0) continue;
    rt.add_row({std::to_string(jm.job_id), jm.name,
                std::to_string(jm.resumed_stages),
                std::to_string(jm.replayed_events),
                bench::Table::num(
                    static_cast<double>(jm.restored_bytes) / 1024.0, 1),
                bench::Table::num(jm.recovery_wall_s * 1000.0, 2)});
  }
  std::printf("\nrecovery telemetry (stages adopted from the WAL):\n");
  rt.print();
}

void print_stages(const engine::Engine& eng) {
  // Only widen the table with memory/cache columns when something happened.
  std::size_t ooms = 0;
  std::uint64_t evicted = 0, spilled = 0, peak = 0;
  std::size_t chits = 0, cmisses = 0, ev_lru = 0, ev_cost = 0;
  std::uint64_t csaved = 0;
  for (const auto& s : eng.metrics().stages()) {
    ooms += s.oom_count;
    evicted += s.evicted_bytes;
    spilled += s.spilled_bytes;
    peak = std::max(peak, s.peak_resident_bytes);
    chits += s.cache_hits;
    cmisses += s.cache_misses;
    csaved += s.recompute_saved_bytes;
    ev_lru += s.evictions_lru;
    ev_cost += s.evictions_cost;
  }
  const bool mem = ooms > 0 || evicted > 0 || spilled > 0;
  const bool cache = chits > 0 || cmisses > 0;

  std::vector<std::string> cols = {"stage",   "name",        "P",   "partitioner",
                                   "time(s)", "shuffle(KB)", "skew"};
  if (mem) {
    cols.insert(cols.end(), {"oom", "evict(KB)", "spill(KB)"});
  }
  if (cache) {
    cols.insert(cols.end(), {"hits", "saved(KB)"});
  }
  bench::Table table(cols);
  for (const auto& s : eng.metrics().stages()) {
    std::string name = s.name;
    if (name.size() > 48) name = name.substr(0, 45) + "...";
    std::vector<std::string> row = {
        std::to_string(s.stage_id), name, std::to_string(s.num_partitions),
        engine::to_string(s.partitioner), bench::Table::num(s.sim_time_s, 3),
        bench::Table::num(static_cast<double>(s.shuffle_bytes()) / 1024.0, 1),
        bench::Table::num(s.task_skew(), 2)};
    if (mem) {
      row.push_back(std::to_string(s.oom_count));
      row.push_back(bench::Table::num(
          static_cast<double>(s.evicted_bytes) / 1024.0, 1));
      row.push_back(bench::Table::num(
          static_cast<double>(s.spilled_bytes) / 1024.0, 1));
    }
    if (cache) {
      row.push_back(std::to_string(s.cache_hits));
      row.push_back(bench::Table::num(
          static_cast<double>(s.recompute_saved_bytes) / 1024.0, 1));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("total simulated time: %.2fs\n", eng.metrics().total_sim_time());
  if (mem || peak > 0) {
    std::printf(
        "memory: %zu OOM retries, %.1f KB evicted, %.1f KB spilled, peak "
        "resident %.1f MB\n",
        ooms, static_cast<double>(evicted) / 1024.0,
        static_cast<double>(spilled) / 1024.0,
        static_cast<double>(peak) / 1048576.0);
  }
  if (cache || ev_lru > 0 || ev_cost > 0) {
    std::printf(
        "cache: %zu hits, %zu misses healed, %.1f KB recompute saved, "
        "%zu lru / %zu cost evictions\n",
        chits, cmisses, static_cast<double>(csaved) / 1024.0, ev_lru, ev_cost);
  }
}

int cmd_profile(const Args& args) {
  const auto wl = make_workload(args.get("workload"), args.has("tiny"));
  if (!wl) {
    std::fprintf(stderr, "unknown --workload (kmeans|pca|sql)\n");
    return 2;
  }
  const double scale = args.get_double("scale", 1.0);
  core::Chopper chopper(bench::bench_cluster(), chopper_options(args.has("tiny")));
  const std::string db_path = args.get("db", wl->name() + ".chopperdb");
  const double input = chopper.profile(wl->name(), wl->runner(), scale);
  chopper.save_db(db_path);
  std::printf("profiled %s at scale %.2f (input %.1f MB) -> %s (%zu observations)\n",
              wl->name().c_str(), scale, input / 1048576.0, db_path.c_str(),
              chopper.db().total_observations());
  return 0;
}

int cmd_plan(const Args& args) {
  const auto wl = make_workload(args.get("workload"), args.has("tiny"));
  if (!wl) {
    std::fprintf(stderr, "unknown --workload (kmeans|pca|sql)\n");
    return 2;
  }
  core::Chopper chopper(bench::bench_cluster(), chopper_options(args.has("tiny")));
  // Tolerant: a corrupt or missing DB degrades to "no plan" with a warning
  // instead of killing the CLI.
  chopper.load_db(args.get("db", wl->name() + ".chopperdb"), /*tolerant=*/true);
  const double scale = args.get_double("scale", 1.0);
  const auto input = static_cast<double>(wl->input_bytes(scale));
  const auto plan = args.has("naive") ? chopper.plan_naive(wl->name(), input)
                                      : chopper.plan(wl->name(), input);
  const auto cfg = chopper.plan_config(plan);
  if (args.has("out")) {
    cfg.save(args.get("out"));
    std::printf("plan written to %s\n", args.get("out").c_str());
  }
  bench::Table table({"stage", "partitioner", "partitions", "cost", "notes"});
  for (const auto& ps : plan) {
    std::string name = ps.name;
    if (name.size() > 50) name = name.substr(0, 47) + "...";
    std::string notes;
    if (ps.fixed) notes += "fixed ";
    if (ps.insert_repartition) notes += "repartition ";
    if (ps.group >= 0) notes += "group#" + std::to_string(ps.group);
    table.add_row({name, engine::to_string(ps.partitioner),
                   std::to_string(ps.num_partitions),
                   bench::Table::num(ps.cost, 3), notes});
  }
  table.print();
  return 0;
}

int cmd_run(const Args& args) {
  const auto wl = make_workload(args.get("workload"), args.has("tiny"));
  if (!wl) {
    std::fprintf(stderr, "unknown --workload (kmeans|pca|sql)\n");
    return 2;
  }
  if ((args.has("crash-at-seq") || args.has("crash-at-barrier") ||
       args.has("crash-after-flush")) &&
      !args.has("checkpoint")) {
    throw UsageError("--crash-at-* requires --checkpoint DIR");
  }
  const double scale = args.get_double("scale", 1.0);
  engine::EngineOptions opts = bench::vanilla_options();
  if (args.has("speculation")) opts.speculation.enabled = true;
  if (args.has("aqe")) {
    opts.adaptive.enabled = true;
    opts.adaptive.target_partition_bytes = 24ULL << 20;
    opts.adaptive.min_partitions = 8;
  }
  double mem_scale = 1.0;
  if (args.has("mem-scale")) {
    mem_scale = args.get_double("mem-scale", 1.0);
    if (mem_scale <= 0.0) {
      throw UsageError("invalid --mem-scale '" + args.get("mem-scale") +
                       "' (must be > 0)");
    }
    opts.memory.enforce = true;
    std::printf("memory budgets enforced at %.2fx executor memory\n",
                mem_scale);
  }
  engine::Engine eng(bench::bench_cluster(mem_scale), opts);
  obs::EventLog event_log;
  if (args.has("event-log")) {
    event_log.attach(
        std::make_shared<obs::JsonlFileSink>(args.get("event-log")));
    eng.set_event_log(&event_log);
    std::printf("recording event log to %s\n", args.get("event-log").c_str());
  }
  std::shared_ptr<ckpt::CheckpointWriter> ckpt_writer;
  if (args.has("checkpoint")) {
    ckpt_writer = attach_checkpoint(
        args, event_log, eng,
        {{"command", "run"},
         {"workload", args.get("workload")},
         {"scale", args.get("scale", "1")},
         {"tiny", args.has("tiny") ? "1" : "0"},
         {"conf", args.get("conf")},
         {"speculation", args.has("speculation") ? "1" : "0"},
         {"aqe", args.has("aqe") ? "1" : "0"},
         // --mem-scale turns enforcement on even at 1.0, so record both.
         {"mem-scale", args.get("mem-scale", "1")},
         {"mem-enforce", args.has("mem-scale") ? "1" : "0"}});
  }

  common::KvConfig initial_plan;
  std::shared_ptr<core::ConfigPlanProvider> provider;
  if (args.has("conf")) {
    initial_plan = common::KvConfig::load(args.get("conf"), /*tolerant=*/true);
    provider = std::make_shared<core::ConfigPlanProvider>(initial_plan);
    eng.set_plan_provider(provider);
    std::printf("running %s with plan %s (%zu stage schemes)\n",
                wl->name().c_str(), args.get("conf").c_str(), provider->size());
  } else {
    if (args.has("adapt")) {
      // Empty provider: stages start at the engine default until the
      // controller adopts its first plan.
      provider = std::make_shared<core::ConfigPlanProvider>();
      eng.set_plan_provider(provider);
    }
    std::printf("running %s vanilla (default parallelism %zu)\n",
                wl->name().c_str(), opts.default_parallelism);
  }

  std::unique_ptr<core::Chopper> chopper;
  std::shared_ptr<adapt::AdaptiveController> controller;
  if (args.has("adapt")) {
    chopper = std::make_unique<core::Chopper>(bench::bench_cluster(mem_scale),
                                              chopper_options(args.has("tiny")));
    if (args.has("db")) chopper->load_db(args.get("db"), /*tolerant=*/true);
    adapt::AdaptOptions aopts;
    aopts.epsilon = args.get_double("adapt-epsilon", aopts.epsilon);
    aopts.min_observations =
        args.get_size("adapt-min-obs", aopts.min_observations);
    aopts.max_replans = args.get_size("adapt-max-replans", aopts.max_replans);
    controller = std::make_shared<adapt::AdaptiveController>(
        *chopper, wl->name(), provider, initial_plan, aopts);
    controller->set_event_log(&event_log);
    event_log.attach(controller);
    eng.set_event_log(&event_log);
    std::printf(
        "in-flight adaptation on (epsilon=%.2f, min-obs=%zu, "
        "max-replans=%zu, db=%zu observations)\n",
        aopts.epsilon, aopts.min_observations, aopts.max_replans,
        chopper->db().total_observations());
  }

  // --cache-policy cost: joint cache-plan optimizer (DESIGN.md §17). The
  // planner prices every cache() dataset when the job plan is built; the
  // block manager then evicts cheapest-to-rebuild / least-reused first.
  std::shared_ptr<cacheplan::CachePlanner> cache_planner;
  if (parse_cache_policy(args) == engine::EvictionPolicy::kCost) {
    cache_planner = std::make_shared<cacheplan::CachePlanner>();
    if (chopper != nullptr) {
      // Single driver thread: planning never races the adaptive folds, so
      // the planner may read the live DB (recurrence + measured t_exe).
      cache_planner->set_workload_db(&chopper->db(), wl->name());
    }
    cache_planner->set_event_log(&event_log);
    eng.set_cache_advisor(cache_planner);
    eng.block_manager().set_eviction_policy(engine::EvictionPolicy::kCost);
    if (controller != nullptr) {
      // Re-score priorities at the same stage barriers that refit models.
      auto planner = cache_planner;
      engine::BlockManager* bm = &eng.block_manager();
      controller->set_refit_listener([planner, bm] { planner->rescore(*bm); });
    }
    std::printf("cache policy: cost-aware eviction%s\n",
                controller != nullptr ? " (re-scored at model refits)" : "");
  }

  try {
    wl->run(eng, scale);
  } catch (const ckpt::SimulatedCrash& e) {
    // The scheduled driver death fired: the WAL is already cut back to its
    // durable watermark. Exit cleanly so scripts chain straight into resume.
    std::printf("%s\n", e.what());
    std::printf("run `chopperctl resume %s` to continue\n",
                args.get("checkpoint").c_str());
    return 0;
  }
  print_stages(eng);
  if (controller != nullptr) {
    const adapt::AdaptStats ast = controller->stats();
    std::printf(
        "adaptation: %zu observations folded, %zu refits, %zu re-plans "
        "(%zu stages adopted, %zu suppressed by epsilon)\n",
        ast.observations, ast.refits, ast.replans, ast.stages_adopted,
        ast.suppressed);
  }
  if (cache_planner != nullptr) {
    const auto plan = cache_planner->last_plan();
    std::printf("cache plan: %zu decision(s) over the job's lifetime",
                cache_planner->decisions_made());
    for (const auto& d : plan.decisions) {
      std::printf("; %s=%s(prio %.2f)", d.name.c_str(),
                  cacheplan::to_string(d.action), d.priority);
    }
    std::printf("\n");
  }
  event_log.detach_all();
  if (args.has("event-log")) {
    std::printf("event log: %llu events -> %s\n",
                static_cast<unsigned long long>(event_log.emitted()),
                args.get("event-log").c_str());
  }
  if (ckpt_writer != nullptr) print_checkpoint_summary(*ckpt_writer);
  return 0;
}

int cmd_inspect(const Args& args) {
  if (!args.has("db")) {
    std::fprintf(stderr, "inspect requires --db FILE\n");
    return 2;
  }
  const auto db =
      core::WorkloadDb::load(args.get("db"), /*ridge_lambda=*/1e-3,
                             /*tolerant=*/true);
  std::printf("%zu observations\n", db.total_observations());
  for (const auto& wl : db.workloads()) {
    std::printf("workload %s:\n", wl.c_str());
    for (const auto& st : db.dag(wl)) {
      std::printf("  sig=%020llu %-55s op=%s%s%s parents=%zu\n",
                  static_cast<unsigned long long>(st.signature),
                  st.name.substr(0, 55).c_str(),
                  engine::to_string(st.anchor_op),
                  st.fixed_partitions ? " [fixed]" : "",
                  st.user_fixed ? " [user]" : "", st.parents.size());
    }
  }
  return 0;
}

int cmd_serve(const Args& args) {
  const std::size_t jobs = args.get_size("jobs", 8);
  const std::size_t max_concurrent = args.get_size("max-concurrent", 4);
  const std::string mode_s = args.get("mode", "fifo");
  if (mode_s != "fifo" && mode_s != "fair") {
    throw UsageError("invalid --mode '" + mode_s + "' (fifo|fair)");
  }
  const bool tiny = args.has("tiny");

  engine::EngineOptions eopts = bench::vanilla_options();
  engine::Engine eng(bench::bench_cluster(), eopts);
  obs::EventLog event_log;
  if (args.has("event-log")) {
    event_log.attach(
        std::make_shared<obs::JsonlFileSink>(args.get("event-log")));
    eng.set_event_log(&event_log);  // before JobServer: the ledger wires in
    std::printf("recording event log to %s\n", args.get("event-log").c_str());
  }
  std::shared_ptr<ckpt::CheckpointWriter> ckpt_writer;
  if (args.has("checkpoint")) {
    // Also before JobServer construction, for the same ledger reason.
    ckpt_writer = attach_checkpoint(
        args, event_log, eng,
        {{"command", "serve"},
         {"jobs", std::to_string(jobs)},
         {"mode", mode_s},
         {"max-concurrent", std::to_string(max_concurrent)},
         {"tiny", tiny ? "1" : "0"}});
  }

  // --adapt: adaptive controller shared by all workers; every job opts in.
  std::unique_ptr<core::Chopper> chopper;
  std::shared_ptr<adapt::AdaptiveController> controller;
  if (args.has("adapt")) {
    auto provider = std::make_shared<core::ConfigPlanProvider>();
    eng.set_plan_provider(provider);
    chopper = std::make_unique<core::Chopper>(bench::bench_cluster(),
                                              chopper_options(tiny));
    controller = std::make_shared<adapt::AdaptiveController>(
        *chopper, "serve", provider, common::KvConfig{});
    controller->set_event_log(&event_log);
    event_log.attach(controller);
    eng.set_event_log(&event_log);  // before JobServer: the ledger wires in
    std::printf("in-flight adaptation on (per-job opt-in)\n");
  }

  // --cache-policy cost: tenant-aware cost-based eviction. The planner
  // scores structurally here (no WorkloadDb — concurrent jobs would race
  // the adaptive folds); pool weights become per-pool cache-share floors.
  std::shared_ptr<cacheplan::CachePlanner> cache_planner;
  if (parse_cache_policy(args) == engine::EvictionPolicy::kCost) {
    cache_planner = std::make_shared<cacheplan::CachePlanner>();
    cache_planner->set_event_log(&event_log);
    eng.set_cache_advisor(cache_planner);
    eng.block_manager().set_eviction_policy(engine::EvictionPolicy::kCost);
    std::printf("cache policy: cost-aware eviction with pool shares\n");
  }

  service::JobServerOptions sopts;
  sopts.mode = mode_s == "fair" ? service::SchedulingMode::kFair
                                : service::SchedulingMode::kFifo;
  sopts.max_concurrent_jobs = max_concurrent;
  sopts.max_queued_jobs = jobs + 1;
  sopts.pools["interactive"] = {/*weight=*/2.0, /*min_share=*/0.2};
  sopts.pools["batch"] = {/*weight=*/1.0, /*min_share=*/0.0};
  service::JobServer server(eng, sopts);
  if (controller != nullptr) server.set_adaptive(controller);
  if (cache_planner != nullptr) {
    cache_planner->set_pool_shares(server.pool_share_fractions());
  }

  std::printf("serving %zu jobs, mode=%s, %zu concurrent slots\n", jobs,
              service::to_string(sopts.mode), max_concurrent);

  std::vector<service::JobHandle> handles;
  std::vector<std::string> names;
  std::vector<std::string> pools;
  for (std::size_t i = 0; i < jobs; ++i) {
    service::SubmitOptions o;
    engine::DatasetPtr ds = make_serve_job(i, tiny, &o.name, &o.pool);
    o.adapt = controller != nullptr;
    names.push_back(o.name);
    pools.push_back(o.pool);
    if (cache_planner != nullptr) cache_planner->set_job_pool(o.name, o.pool);
    handles.push_back(server.submit(ds, o));
  }
  server.wait_all();

  bench::Table table({"job", "pool", "state", "submit", "admit", "finish",
                      "service(s)", "latency(s)"});
  double makespan = 0.0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    auto& h = handles[i];
    const auto st = h.stats();
    makespan = std::max(makespan, st.finish_vtime);
    try {
      h.wait();
    } catch (const engine::JobAbortedError&) {
    }
    table.add_row({names[i], pools[i], service::to_string(h.status()),
                   bench::Table::num(st.submit_vtime, 1),
                   bench::Table::num(st.admit_vtime, 1),
                   bench::Table::num(st.finish_vtime, 1),
                   bench::Table::num(st.service_s, 1),
                   bench::Table::num(st.latency_s(), 1)});
  }
  table.print();

  bench::Table ptable({"pool", "weight", "min_share", "granted(s)"});
  for (const auto& [name, ps] : server.pool_stats()) {
    ptable.add_row({name, bench::Table::num(ps.weight, 1),
                    bench::Table::num(ps.min_share, 2),
                    bench::Table::num(ps.granted_s, 1)});
  }
  ptable.print();
  std::printf("virtual makespan: %.1fs over %zu grants\n", makespan,
              server.grant_log().size());
  if (controller != nullptr) {
    const adapt::AdaptStats ast = controller->stats();
    std::printf(
        "adaptation: %zu observations folded, %zu re-plans, %zu stages "
        "adopted (plan cache holds %zu entries)\n",
        ast.observations, ast.replans, ast.stages_adopted,
        server.current_plan().entries().size());
  }
  if (cache_planner != nullptr) {
    std::size_t chits = 0, cmisses = 0;
    std::uint64_t csaved = 0;
    for (const auto& jm : eng.metrics().jobs()) {
      chits += jm.cache_hits;
      cmisses += jm.cache_misses;
      csaved += jm.recompute_saved_bytes;
    }
    std::printf(
        "cache plan: %zu decision(s); %zu hits, %zu misses, %.1f KB "
        "recompute saved\n",
        cache_planner->decisions_made(), chits, cmisses,
        static_cast<double>(csaved) / 1024.0);
  }
  event_log.detach_all();
  if (args.has("event-log")) {
    std::printf("event log: %llu events -> %s\n",
                static_cast<unsigned long long>(event_log.emitted()),
                args.get("event-log").c_str());
  }
  if (ckpt_writer != nullptr) print_checkpoint_summary(*ckpt_writer);
  return 0;
}

/// `resume DIR` for a checkpoint written by `run --checkpoint`: rebuild the
/// identical workload + engine from the runspec, arm the resume ledger and
/// re-run the driver — adopt_restored skips every committed stage, the rest
/// re-execute deterministically.
int resume_run(const Args& args, const std::string& dir,
               ckpt::ResumePlan& plan,
               std::map<std::string, std::string>& rs) {
  const bool tiny = rs["tiny"] == "1";
  const auto wl = make_workload(rs["workload"], tiny);
  if (!wl) {
    std::fprintf(stderr, "error: runspec names unknown workload '%s'\n",
                 rs["workload"].c_str());
    return 1;
  }
  const double scale =
      rs.count("scale") ? parse_flag<double>("scale", rs["scale"]) : 1.0;
  const double mem_scale =
      rs.count("mem-scale") ? parse_flag<double>("mem-scale", rs["mem-scale"])
                            : 1.0;
  engine::EngineOptions opts = bench::vanilla_options();
  if (rs["speculation"] == "1") opts.speculation.enabled = true;
  if (rs["aqe"] == "1") {
    opts.adaptive.enabled = true;
    opts.adaptive.target_partition_bytes = 24ULL << 20;
    opts.adaptive.min_partitions = 8;
  }
  if (rs["mem-enforce"] == "1") opts.memory.enforce = true;

  engine::Engine eng(bench::bench_cluster(mem_scale), opts);
  obs::EventLog event_log;
  ckpt::CheckpointOptions copts;
  copts.sync = args.has("sync");
  auto writer = std::make_shared<ckpt::CheckpointWriter>(dir, copts);
  event_log.attach(writer);
  eng.set_event_log(&event_log);
  eng.set_checkpoint_hook(writer.get());
  if (!rs["conf"].empty()) {
    const auto conf = common::KvConfig::load(rs["conf"], /*tolerant=*/true);
    eng.set_plan_provider(std::make_shared<core::ConfigPlanProvider>(conf));
  }
  eng.set_resume_ledger(&plan.ledger);

  std::printf("resuming %s (scale %.2f) into wal epoch %zu\n",
              rs["workload"].c_str(), scale, writer->wal_epoch());
  wl->run(eng, scale);
  print_stages(eng);
  print_recovery_telemetry(eng);
  event_log.detach_all();
  print_checkpoint_summary(*writer);
  return 0;
}

/// `resume DIR` for a checkpoint written by `serve --checkpoint`: rebuild
/// the identical job mix, re-admit jobs whose kJobFinish is durable without
/// re-executing them (their history is carried into the new epoch so it
/// stays self-contained), and re-submit the rest for deterministic re-run.
/// Service jobs run against per-job virtual clocks, so stage adoption does
/// not apply — recovery here is job-granular, not stage-granular.
int resume_serve(const Args& args, const std::string& dir,
                 ckpt::ResumePlan& plan,
                 std::map<std::string, std::string>& rs) {
  const bool tiny = rs["tiny"] == "1";
  const std::size_t jobs =
      rs.count("jobs") ? parse_flag<std::size_t>("jobs", rs["jobs"]) : 8;
  const std::size_t max_concurrent =
      rs.count("max-concurrent")
          ? parse_flag<std::size_t>("max-concurrent", rs["max-concurrent"])
          : 4;
  const std::string mode_s = rs.count("mode") ? rs["mode"] : "fifo";

  engine::Engine eng(bench::bench_cluster(), bench::vanilla_options());
  obs::EventLog event_log;
  ckpt::CheckpointOptions copts;
  copts.sync = args.has("sync");
  auto writer = std::make_shared<ckpt::CheckpointWriter>(dir, copts);
  event_log.attach(writer);
  eng.set_event_log(&event_log);  // before JobServer: the ledger wires in
  eng.set_checkpoint_hook(writer.get());

  // Carry the finished jobs' durable history forward into the new epoch and
  // decode their kJobFinish rows into re-admittable results.
  std::map<std::size_t, engine::JobMetrics> finished;
  for (const auto& j : plan.jobs) {
    if (j.finished) finished[j.job_id] = engine::JobMetrics{};
  }
  const obs::HistoryReader hr = obs::HistoryReader::load(plan.wal);
  for (const auto& e : hr.events()) {
    const auto jid = static_cast<std::size_t>(e.job);
    if (finished.count(jid) == 0) continue;
    switch (e.kind) {
      case obs::EventKind::kJobSubmit:
      case obs::EventKind::kStageStart:
      case obs::EventKind::kTaskSpan:
      case obs::EventKind::kShuffleWrite:
      case obs::EventKind::kBlockStore:
      case obs::EventKind::kStageEnd:
        writer->append(e);
        break;
      case obs::EventKind::kJobFinish:
        finished[jid] = obs::job_from_event(e);
        writer->append(e);
        break;
      default:
        break;
    }
  }

  service::JobServerOptions sopts;
  sopts.mode = mode_s == "fair" ? service::SchedulingMode::kFair
                                : service::SchedulingMode::kFifo;
  sopts.max_concurrent_jobs = max_concurrent;
  sopts.max_queued_jobs = jobs + 1;
  sopts.pools["interactive"] = {/*weight=*/2.0, /*min_share=*/0.2};
  sopts.pools["batch"] = {/*weight=*/1.0, /*min_share=*/0.0};
  service::JobServer server(eng, sopts);

  std::printf(
      "re-serving %zu jobs (%zu finished re-admitted, %zu re-run), mode=%s, "
      "wal epoch %zu\n",
      jobs, finished.size(), jobs - std::min(jobs, finished.size()),
      service::to_string(sopts.mode), writer->wal_epoch());

  std::vector<service::JobHandle> handles;
  std::vector<std::string> names;
  std::vector<std::string> pools;
  for (std::size_t i = 0; i < jobs; ++i) {
    std::string name, pool;
    engine::DatasetPtr ds = make_serve_job(i, tiny, &name, &pool);
    names.push_back(name);
    pools.push_back(pool);
    const auto it = finished.find(i);
    if (it != finished.end()) {
      // kJobFinish carries the job's execution record, not its result
      // payload; a re-admitted handle surfaces metrics + success state.
      const engine::JobMetrics& jm = it->second;
      engine::JobResult r;
      r.job_id = jm.job_id;
      r.name = jm.name.empty() ? name : jm.name;
      r.sim_time_s = jm.sim_time_s;
      r.wall_time_s = jm.wall_time_s;
      r.stage_ids = jm.stage_ids;
      r.stage_attempts = jm.stage_attempts;
      r.fetch_retries = jm.fetch_retries;
      r.oom_count = jm.oom_count;
      r.replayed_events = jm.stage_ids.size();
      handles.push_back(server.admit_completed(name, std::move(r)));
    } else {
      service::SubmitOptions o;
      o.name = name;
      o.pool = pool;
      handles.push_back(server.submit(ds, o));
    }
  }
  server.wait_all();

  bench::Table table({"job", "pool", "state", "recovery", "service(s)",
                      "latency(s)"});
  for (std::size_t i = 0; i < handles.size(); ++i) {
    auto& h = handles[i];
    const auto st = h.stats();
    try {
      h.wait();
    } catch (const engine::JobAbortedError&) {
    }
    table.add_row({names[i], pools[i], service::to_string(h.status()),
                   finished.count(i) != 0 ? "replayed" : "re-run",
                   bench::Table::num(st.service_s, 1),
                   bench::Table::num(st.latency_s(), 1)});
  }
  table.print();
  event_log.detach_all();
  print_checkpoint_summary(*writer);
  return 0;
}

int cmd_resume(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "resume requires a checkpoint DIR operand\n");
    print_usage(stderr, "resume");
    return 2;
  }
  const std::string dir = args.positional.front();
  ckpt::ResumePlan plan = ckpt::build_resume_plan(dir);
  std::printf(
      "resume plan: wal epoch %zu, %zu events (%zu torn, %zu skipped), "
      "%zu committed stage(s), %zu finished job(s), %.1f KB restorable\n",
      plan.wal_epoch, plan.events, plan.torn_tail_lines, plan.skipped_lines,
      plan.committed_stages, plan.finished_jobs,
      static_cast<double>(plan.restored_bytes) / 1024.0);
  if (!plan.jobs.empty()) {
    bench::Table pt({"job", "name", "committed", "recovery"});
    for (const auto& j : plan.jobs) {
      pt.add_row({std::to_string(j.job_id), j.name,
                  std::to_string(j.committed_stages),
                  j.finished      ? "replay (finished)"
                  : j.full_rerun  ? "full re-run"
                                  : "adopt + continue"});
    }
    pt.print();
  }

  const auto spec = ckpt::read_kv_snapshot(dir + "/runspec.kv");
  if (!spec) {
    std::fprintf(stderr,
                 "error: %s/runspec.kv missing or corrupt (it is written by "
                 "run/serve --checkpoint)\n",
                 dir.c_str());
    return 1;
  }
  std::map<std::string, std::string> rs(spec->begin(), spec->end());
  if (rs["command"] == "run") return resume_run(args, dir, plan, rs);
  if (rs["command"] == "serve") return resume_serve(args, dir, plan, rs);
  std::fprintf(stderr, "error: runspec has unknown command '%s'\n",
               rs["command"].c_str());
  return 1;
}

int cmd_chaos(const Args& args) {
  const std::size_t start = args.get_size("seed", 0);
  const std::size_t runs = args.get_size("runs", 1);
  if (runs == 0) {
    throw UsageError("invalid --runs '0' (must be >= 1)");
  }
  const bool tiny = args.has("tiny");

  std::printf("chaos: %zu trial(s) from seed %zu%s\n", runs, start,
              tiny ? " (tiny graphs)" : "");
  bench::Table table({"seed", "workload", "flaky", "corrupt", "nodefail",
                      "oom", "base(s)", "faulty(s)", "retries", "cksum",
                      "excl", "verdict"});
  std::size_t failures = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    const bench::ChaosReport r = bench::chaos_run(start + i, tiny);
    if (!r.ok) {
      ++failures;
      std::fprintf(stderr, "seed %llu (%s): %s\n",
                   static_cast<unsigned long long>(r.seed),
                   r.workload.c_str(), r.failure.c_str());
    }
    table.add_row({std::to_string(r.seed), r.workload,
                   std::to_string(r.flaky_nodes),
                   std::to_string(r.corruptions),
                   std::to_string(r.node_failures),
                   std::to_string(r.oom_injections),
                   bench::Table::num(r.baseline_s, 2),
                   bench::Table::num(r.faulty_s, 2),
                   std::to_string(r.fetch_retries),
                   std::to_string(r.checksum_failures),
                   std::to_string(r.node_exclusions),
                   r.ok ? "ok" : "FAIL: " + r.failure});
  }
  table.print();
  std::printf("%zu/%zu trials bit-identical with replay parity\n",
              runs - failures, runs);
  if (args.has("json") && !table.write_json(args.get("json"), "chaos")) {
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

int cmd_history(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "history requires a LOG file operand\n");
    print_usage(stderr, "history");
    return 2;
  }
  const auto reader = obs::HistoryReader::load(args.positional.front());
  if (reader.skipped_lines() > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed lines\n",
                 reader.skipped_lines());
  }
  if (reader.skipped_unknown_kinds() > 0) {
    // Forward compatibility: a log written by a newer build renders fine,
    // minus whatever kinds this build does not know about.
    std::fprintf(stderr,
                 "warning: skipped %zu records with unknown event kinds\n",
                 reader.skipped_unknown_kinds());
  }
  if (reader.torn_tail_lines() > 0) {
    // Gentler than the malformed-line warning: a torn final line is the
    // normal state of a log whose writer died mid-append (DESIGN.md §16).
    std::fprintf(stderr,
                 "note: tolerated %zu torn final line(s) — the writer died "
                 "mid-append (normal after a crash)\n",
                 reader.torn_tail_lines());
  }
  const auto jobs = reader.jobs();
  const auto stages = reader.stages();

  // ---- job summary ---------------------------------------------------------
  bench::Table jt({"job", "name", "stages", "sim(s)", "wall(s)", "status"});
  for (const auto& jm : jobs) {
    jt.add_row({std::to_string(jm.job_id), jm.name,
                std::to_string(jm.stage_ids.size()),
                bench::Table::num(jm.sim_time_s, 3),
                bench::Table::num(jm.wall_time_s, 3),
                jm.failed ? "FAILED" : "ok"});
  }
  std::printf("%zu jobs, %zu stages, %zu events\n", jobs.size(), stages.size(),
              reader.events().size());
  jt.print();

  // ---- stage summary -------------------------------------------------------
  bench::Table st({"stage", "job", "name", "P", "tasks", "time(s)",
                   "shuffle(KB)", "attempts"});
  for (const auto& sm : stages) {
    std::string name = sm.name;
    if (name.size() > 40) name = name.substr(0, 37) + "...";
    st.add_row({std::to_string(sm.stage_id), std::to_string(sm.job_id), name,
                std::to_string(sm.num_partitions),
                std::to_string(sm.tasks.size()),
                bench::Table::num(sm.sim_time_s, 3),
                bench::Table::num(
                    static_cast<double>(sm.shuffle_bytes()) / 1024.0, 1),
                std::to_string(sm.attempt_count)});
  }
  st.print();

  // ---- adaptive re-planning ------------------------------------------------
  // kModelRefit / kPlanUpdate markers emitted by src/adapt's controller:
  // when present, show what was re-chosen, from what, and why.
  bool any_adapt = false;
  for (const auto& e : reader.events()) {
    if (e.kind == obs::EventKind::kModelRefit ||
        e.kind == obs::EventKind::kPlanUpdate) {
      any_adapt = true;
      break;
    }
  }
  if (any_adapt) {
    std::printf("\nadaptive re-planning decisions:\n");
    bench::Table at({"sim(s)", "event", "stage", "scheme", "cost", "trigger"});
    for (const auto& e : reader.events()) {
      if (e.kind == obs::EventKind::kModelRefit) {
        at.add_row({bench::Table::num(e.sim, 3), "refit", e.name, "-", "-",
                    std::to_string(e.count) + " obs"});
      } else if (e.kind == obs::EventKind::kPlanUpdate) {
        std::string name = e.name;
        if (name.size() > 32) name = name.substr(0, 29) + "...";
        std::string scheme;
        if (e.list.size() == 2) {
          scheme = std::string(engine::to_string(
                       static_cast<engine::PartitionerKind>(e.list[0]))) +
                   "/" + std::to_string(e.list[1]) + " -> ";
        }
        scheme += std::string(engine::to_string(
                      static_cast<engine::PartitionerKind>(e.partitioner))) +
                  "/" + std::to_string(e.num_partitions);
        at.add_row({bench::Table::num(e.sim, 3), "plan-update", name, scheme,
                    bench::Table::num(e.value2, 3) + " -> " +
                        bench::Table::num(e.value, 3),
                    (e.flags & obs::kFlagOom) != 0 ? "oom-floor" : "cost"});
      }
    }
    at.print();
  }

  // ---- cache planning ------------------------------------------------------
  // kCachePlanDecision markers from the cache planner (src/cacheplan) and
  // kCacheHit markers from the scheduler's cached-read accounting: when
  // present, show what was scored and what residency bought (DESIGN.md §17).
  bool any_cache_plan = false;
  bool any_cache_hit = false;
  for (const auto& e : reader.events()) {
    if (e.kind == obs::EventKind::kCachePlanDecision) any_cache_plan = true;
    if (e.kind == obs::EventKind::kCacheHit) any_cache_hit = true;
  }
  if (any_cache_plan) {
    std::printf("\ncache plan decisions:\n");
    bench::Table cp({"dataset", "name", "action", "priority", "reuse", "W"});
    for (const auto& e : reader.events()) {
      if (e.kind != obs::EventKind::kCachePlanDecision) continue;
      std::string name = e.name;
      if (name.size() > 36) name = name.substr(0, 33) + "...";
      cp.add_row({std::to_string(e.dataset), name, e.detail,
                  bench::Table::num(e.value, 3), std::to_string(e.count),
                  bench::Table::num(e.value2, 2)});
    }
    cp.print();
  }
  if (any_cache_hit) {
    std::printf("\ncache hits (resident cached partitions read per attempt):\n");
    bench::Table ch({"sim(s)", "job", "stage", "dataset", "partitions",
                     "saved(KB)"});
    for (const auto& e : reader.events()) {
      if (e.kind != obs::EventKind::kCacheHit) continue;
      ch.add_row({bench::Table::num(e.sim, 3), std::to_string(e.job),
                  std::to_string(e.stage), std::to_string(e.dataset),
                  std::to_string(e.count),
                  bench::Table::num(static_cast<double>(e.bytes) / 1024.0, 1)});
    }
    ch.print();
  }

  // ---- checkpoint recovery -------------------------------------------------
  // kResume markers emitted by the scheduler's adopt_restored path: one row
  // per resumed job with how much of its history was adopted from the WAL.
  bool any_resume = false;
  for (const auto& e : reader.events()) {
    if (e.kind == obs::EventKind::kResume) {
      any_resume = true;
      break;
    }
  }
  if (any_resume) {
    std::printf("\ncheckpoint recovery:\n");
    bench::Table rt({"job", "resumed stages", "replayed events",
                     "restored(KB)", "recovery(ms)"});
    for (const auto& e : reader.events()) {
      if (e.kind != obs::EventKind::kResume) continue;
      rt.add_row({std::to_string(e.job), std::to_string(e.resumed_stages),
                  std::to_string(e.replayed_events),
                  bench::Table::num(
                      static_cast<double>(e.restored_bytes) / 1024.0, 1),
                  bench::Table::num(e.recovery_wall_s * 1000.0, 2)});
    }
    rt.print();
  }

  // ---- stragglers ----------------------------------------------------------
  // A straggler is a task whose duration dominates its stage's median; the
  // stage's makespan is its slowest task, so these are the tasks that set
  // the critical path inside each stage.
  struct Straggler {
    std::size_t stage, task, node;
    double dur, median, ratio;
  };
  std::vector<Straggler> stragglers;
  for (const auto& sm : stages) {
    if (sm.tasks.empty()) continue;
    std::vector<double> durs;
    durs.reserve(sm.tasks.size());
    for (const auto& tm : sm.tasks) durs.push_back(tm.sim_end - tm.sim_start);
    std::vector<double> sorted = durs;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    if (median <= 0.0) continue;
    for (std::size_t p = 0; p < sm.tasks.size(); ++p) {
      const double ratio = durs[p] / median;
      if (ratio >= 1.5) {
        stragglers.push_back({sm.stage_id, sm.tasks[p].task_index,
                              sm.tasks[p].node, durs[p], median, ratio});
      }
    }
  }
  std::sort(stragglers.begin(), stragglers.end(),
            [](const Straggler& a, const Straggler& b) {
              return a.ratio > b.ratio;
            });
  const std::size_t top = args.get_size("stragglers", 10);
  if (!stragglers.empty()) {
    std::printf("\nstragglers (task >= 1.5x stage median, top %zu):\n",
                std::min(top, stragglers.size()));
    bench::Table gt({"stage", "task", "node", "dur(s)", "median(s)", "x"});
    for (std::size_t i = 0; i < stragglers.size() && i < top; ++i) {
      const auto& g = stragglers[i];
      gt.add_row({std::to_string(g.stage), std::to_string(g.task),
                  std::to_string(g.node), bench::Table::num(g.dur, 3),
                  bench::Table::num(g.median, 3),
                  bench::Table::num(g.ratio, 2)});
    }
    gt.print();
  } else {
    std::printf("\nno stragglers (no task >= 1.5x its stage median)\n");
  }

  // ---- critical path -------------------------------------------------------
  // Stages of one job execute sequentially on the simulated cluster, so the
  // job's critical path is the chain of slowest tasks: one row per stage,
  // sorted by share of total simulated time.
  double total_sim = 0.0;
  for (const auto& sm : stages) total_sim += sm.sim_time_s;
  if (total_sim > 0.0) {
    std::vector<const engine::StageMetrics*> by_time;
    for (const auto& sm : stages) by_time.push_back(&sm);
    std::sort(by_time.begin(), by_time.end(),
              [](const auto* a, const auto* b) {
                return a->sim_time_s > b->sim_time_s;
              });
    std::printf("\ncritical path (stage share of %.3fs total):\n", total_sim);
    bench::Table ct({"stage", "name", "time(s)", "share", "cumulative"});
    double cum = 0.0;
    for (std::size_t i = 0; i < by_time.size() && i < 10; ++i) {
      const auto& sm = *by_time[i];
      cum += sm.sim_time_s;
      std::string name = sm.name;
      if (name.size() > 40) name = name.substr(0, 37) + "...";
      ct.add_row({std::to_string(sm.stage_id), name,
                  bench::Table::num(sm.sim_time_s, 3),
                  bench::Table::num(100.0 * sm.sim_time_s / total_sim, 1) + "%",
                  bench::Table::num(100.0 * cum / total_sim, 1) + "%"});
    }
    ct.print();
  }

  // ---- per-node utilization ------------------------------------------------
  const auto cores = reader.cluster_cores();
  double t_min = 0.0, t_max = 0.0;
  bool any = false;
  std::map<std::size_t, double> busy;
  for (const auto& sm : stages) {
    for (const auto& tm : sm.tasks) {
      const double t0 = sm.sim_start_s + tm.sim_start;
      const double t1 = sm.sim_start_s + tm.sim_end;
      busy[tm.node] += t1 - t0;
      t_min = any ? std::min(t_min, t0) : t0;
      t_max = any ? std::max(t_max, t1) : t1;
      any = true;
    }
  }
  if (any && t_max > t_min) {
    const double window = t_max - t_min;
    std::printf("\nper-node utilization over [%.3fs, %.3fs]:\n", t_min, t_max);
    bench::Table nt({"node", "cores", "busy(s)", "utilization"});
    for (const auto& [node, b] : busy) {
      const std::size_t c = node < cores.size() ? cores[node] : 1;
      nt.add_row({std::to_string(node), std::to_string(c),
                  bench::Table::num(b, 3),
                  bench::Table::num(
                      100.0 * b / (window * static_cast<double>(c)), 1) +
                      "%"});
    }
    nt.print();
  }
  return 0;
}

int cmd_trace(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "trace requires a LOG file operand\n");
    print_usage(stderr, "trace");
    return 2;
  }
  if (!args.has("chrome")) {
    std::fprintf(stderr, "trace requires --chrome OUT.json\n");
    print_usage(stderr, "trace");
    return 2;
  }
  const auto reader = obs::HistoryReader::load(args.positional.front());
  std::string error;
  if (!obs::write_chrome_trace(reader.events(), args.get("chrome"), &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote Chrome trace of %zu events to %s "
              "(open in Perfetto or chrome://tracing)\n",
              reader.events().size(), args.get("chrome").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // CHOPPER_LOG_LEVEL overrides the CLI's chatty default.
  common::set_log_level_default(common::LogLevel::kInfo);
  const auto args = parse(argc, argv);
  if (!args) {
    print_usage(stderr);
    return 2;
  }
  try {
    validate_flags(*args);
    if (args->command == "profile") return cmd_profile(*args);
    if (args->command == "plan") return cmd_plan(*args);
    if (args->command == "run") return cmd_run(*args);
    if (args->command == "inspect") return cmd_inspect(*args);
    if (args->command == "serve") return cmd_serve(*args);
    if (args->command == "resume") return cmd_resume(*args);
    if (args->command == "chaos") return cmd_chaos(*args);
    if (args->command == "history") return cmd_history(*args);
    if (args->command == "trace") return cmd_trace(*args);
  } catch (const UsageError& e) {
    // Exit 2: the command was recognized but a flag value is unusable.
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(stderr, args->command);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // Exit 3: no such subcommand (distinct from flag/usage errors above).
  std::fprintf(stderr, "unknown command: %s\n", args->command.c_str());
  print_usage(stderr);
  return 3;
}
