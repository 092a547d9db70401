// Job execution: the DAGScheduler + executors of minispark.
//
// Stages run in topological order with a global barrier between them
// (paper Sec. I: "data processing frameworks usually employ a global
// barrier between computation phases"). Each stage:
//
//   phase 1  tasks execute for real on the host thread pool: resolve input
//            (source generator / cached blocks / shuffle fetch + wide
//            merge), run the narrow operator chain, record measured work;
//   phase 2  if the stage feeds wide consumers, bucket its output per
//            consumer partitioner (map-side combine for reduceByKey,
//            pass-through when already co-partitioned);
//   phase 3  the measured work is priced by the CostModel and the tasks are
//            list-scheduled onto the simulated cluster's slots, producing
//            the stage's simulated makespan, task distribution and the
//            resource-timeline samples.
//
// Fault tolerance (DESIGN.md §9): when EngineOptions::failure_schedule is
// non-empty the JobRunner executes each stage as a bounded sequence of
// *attempts*. Node failures fire deterministically at stage barriers (or
// mid-window when their sim-time trigger falls inside a running stage that
// depends on the dying node), destroying that node's shuffle map outputs
// and cached partitions. Before each attempt the runner heals the stage's
// inputs by replaying lineage for exactly the lost pieces: lost shuffle
// rows are recomputed by re-running the producer's pipeline tasks on
// surviving nodes, lost cached blocks are regenerated from their narrow
// chain (or a full sub-job rebuild for wide lineage). Shuffle reads copy
// instead of consume in this mode and map outputs are retained until job
// end so replay always has data to read. The non-fault-tolerant path is
// byte-for-byte the classic one.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/rng.h"
#include "engine/dataplane.h"
#include "engine/engine.h"
#include "engine/resume.h"
#include "obs/event_log.h"

namespace chopper::engine {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-task measurements from the real execution, priced later.
struct TaskWork {
  std::uint64_t records_in = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t bytes_out = 0;
  double work_units = 0.0;
  /// Remote shuffle-fetch bytes aggregated by source node.
  std::map<std::size_t, std::uint64_t> remote_fetch;
  std::size_t remote_segments = 0;
  std::uint64_t local_fetch_bytes = 0;
  std::uint64_t shuffle_read_remote = 0;
  std::uint64_t shuffle_read_local = 0;
  /// Bytes read back from the disk tier (spilled shuffle rows).
  std::uint64_t disk_read_bytes = 0;
  /// Transient fetch failures retried in place (FlakySchedule) and the bytes
  /// those retries re-transferred. Kept separate from shuffle_read_remote so
  /// logical shuffle volume is counted once regardless of flakiness.
  std::size_t fetch_retries = 0;
  std::uint64_t refetched_bytes = 0;
};

/// Work-unit weights for engine-internal activities (relative to one
/// "average record operation" == 1.0).
constexpr double kSourceGenWork = 1.0;
constexpr double kCacheReadWork = 0.15;
constexpr double kBucketWork = 0.35;
constexpr double kCombineWork = 0.6;

// ---------------------------------------------------------------------------
// Narrow operator chain. User closures see owning `Record`s; the loops feed
// them from the partition arena through a reused scratch record so the only
// per-record heap traffic is whatever the closure itself does.
// ---------------------------------------------------------------------------

Partition apply_narrow_op(const Dataset& op, Partition&& in, std::size_t task,
                          TaskWork& tw) {
  const auto n = static_cast<double>(in.size());
  tw.work_units += n * op.work_per_record();
  switch (op.op()) {
    case OpKind::kMap:
    case OpKind::kMapValues: {
      Partition out;
      out.reserve(in.size());
      Record scratch;
      for (std::size_t i = 0; i < in.size(); ++i) {
        in.materialize_into(i, scratch);
        out.push(op.map_fn()(scratch));
      }
      return out;
    }
    case OpKind::kFilter: {
      Partition out;
      Record scratch;
      for (std::size_t i = 0; i < in.size(); ++i) {
        in.materialize_into(i, scratch);
        if (op.filter_fn()(scratch)) out.push(in.view(i));
      }
      return out;
    }
    case OpKind::kFlatMap: {
      Partition out;
      Record scratch;
      for (std::size_t i = 0; i < in.size(); ++i) {
        in.materialize_into(i, scratch);
        for (auto& produced : op.flat_map_fn()(scratch)) {
          out.push(produced);
        }
      }
      return out;
    }
    case OpKind::kMapPartitions:
      return op.map_partitions_fn()(std::move(in));
    case OpKind::kSample: {
      common::Xoshiro256 rng(
          common::hash_combine(op.sample_seed(), task + 1));
      Partition out;
      for (std::size_t i = 0; i < in.size(); ++i) {
        if (rng.next_double() < op.sample_fraction()) out.push(in.view(i));
      }
      return out;
    }
    default:
      throw std::logic_error("apply_narrow_op: not a narrow op");
  }
}

bool is_narrow_kind(OpKind op) {
  switch (op) {
    case OpKind::kMap:
    case OpKind::kMapValues:
    case OpKind::kFilter:
    case OpKind::kFlatMap:
    case OpKind::kMapPartitions:
    case OpKind::kSample:
      return true;
    default:
      return false;
  }
}

/// Deep copy of a partition (bulk arena copy; copies are always explicit in
/// this file — Partition is move-only in spirit).
Partition copy_partition(const Partition& in) { return in; }

/// Evenly-strided deterministic key sample from materialized output.
std::vector<std::uint64_t> sample_keys(const std::vector<Partition>& parts,
                                       std::size_t per_partition = 32) {
  std::vector<std::uint64_t> keys;
  for (const auto& p : parts) {
    if (p.empty()) continue;
    const std::size_t stride = std::max<std::size_t>(1, p.size() / per_partition);
    for (std::size_t i = 0; i < p.size(); i += stride) {
      keys.push_back(p.key(i));
    }
  }
  return keys;
}

/// Append every record of a result stage's partitions to `out`, reserving
/// the stage total once (a per-partition exact reserve would reallocate the
/// whole result once per partition).
void collect_records(const std::vector<Partition>& parts,
                     std::vector<Record>& out) {
  std::size_t total = out.size();
  for (const auto& p : parts) total += p.size();
  out.reserve(total);
  for (const auto& p : parts) p.append_records_to(out);
}

}  // namespace

// ---------------------------------------------------------------------------
// Job context.
// ---------------------------------------------------------------------------

struct Engine::JobContext {
  JobPlan plan;
  std::size_t job_id = 0;
  std::string name;
  bool collect_records = false;

  struct StageRt {
    std::optional<PartitionScheme> scheme;      ///< resolved (kShuffle/kSource)
    std::shared_ptr<Partitioner> partitioner;   ///< reduce-side (kShuffle only)
    std::size_t num_tasks = 0;
    std::vector<std::size_t> task_node;
    std::vector<Partition> output;
    std::shared_ptr<Partitioner> output_partitioner;
    /// producer stage index -> shuffle id written for this stage to read
    std::unordered_map<std::size_t, std::size_t> shuffle_from_producer;
    /// Shuffles this stage wrote, by consumer stage index — the hook lineage
    /// replay uses to rewrite lost bucket rows after a node failure.
    struct Written {
      std::size_t shuffle_id = 0;
      std::size_t consumer = 0;
    };
    std::vector<Written> written;
  };
  std::vector<StageRt> rt;

  /// Every shuffle id this job wrote. In fault-tolerant mode shuffles are
  /// retained until job end (replay needs them); on abort they are released
  /// here so a failed job never leaks shuffle memory.
  std::vector<std::size_t> job_shuffle_ids;

  /// One partitioner instance per (kind, count) within the job: stages that
  /// resolve to the same scheme share the same object (and for range
  /// partitioners, the same sampled bounds), which is what makes equal
  /// schemes actually co-partition — mirroring Spark reusing a Partitioner
  /// across dependent RDDs.
  std::map<std::pair<PartitionerKind, std::size_t>,
           std::shared_ptr<Partitioner>>
      partitioner_cache;

  /// Service-mode control block (null for classic single-job execution) and
  /// the job's private virtual clock. Classic jobs advance the engine's
  /// shared sim_clock_ instead.
  const JobControl* control = nullptr;
  double vclock = 0.0;

  JobResult result;
};

/// Resolve the partition scheme of stage `s` (consulting the plan provider
/// first, then the wide operator's request, then engine defaults). Memoized.
static PartitionScheme resolve_scheme(Engine::JobContext& ctx, std::size_t s,
                                      PlanProvider* provider,
                                      std::size_t default_parallelism) {
  auto& rt = ctx.rt[s];
  if (rt.scheme) return *rt.scheme;
  const StagePlan& plan = ctx.plan.stages[s];

  // Synthesized repartition stages carry their scheme from the plan builder.
  if (plan.forced_scheme) {
    rt.scheme = plan.forced_scheme;
    return *rt.scheme;
  }

  PartitionScheme scheme;
  scheme.kind = PartitionerKind::kHash;
  scheme.num_partitions = default_parallelism;

  if (plan.input == StageInputKind::kShuffle) {
    const auto& req = plan.anchor->shuffle_request();
    if (req.kind) scheme.kind = *req.kind;
    if (req.num_partitions) scheme.num_partitions = *req.num_partitions;
  } else if (plan.input == StageInputKind::kSource) {
    scheme.num_partitions = plan.anchor->source_partitions();
  }

  // The plan provider (CHOPPER's config file) overrides defaults, but never
  // a user-fixed scheme and never a cache-determined task count.
  const bool user_fixed = plan.input == StageInputKind::kShuffle &&
                          plan.anchor->shuffle_request().user_fixed;
  if (provider && !plan.fixed_partitions && !user_fixed) {
    if (const auto o = provider->scheme_for(plan.signature)) {
      scheme = *o;
    }
  }
  if (scheme.num_partitions == 0) scheme.num_partitions = default_parallelism;
  rt.scheme = scheme;
  return scheme;
}

// ---------------------------------------------------------------------------
// JobRunner: per-job stage execution with bounded-attempt fault tolerance.
// ---------------------------------------------------------------------------

class JobRunner {
 public:
  JobRunner(Engine& eng, Engine::JobContext& ctx)
      : eng_(eng),
        ctx_(ctx),
        cm_(eng.options_.cost_model),
        ft_(eng.options_.failure_schedule.enabled()),
        mem_(eng.options_.memory.enforce),
        oom_inj_(eng.options_.oom_schedule.enabled()),
        flaky_(eng.options_.flaky_schedule.enabled()),
        corrupt_(eng.options_.corruption_schedule.enabled()),
        integrity_(corrupt_ || eng.options_.integrity_checksums),
        retain_(ft_ || mem_ || oom_inj_ || flaky_ || corrupt_) {}

  JobResult run();

 private:
  using StageRt = Engine::JobContext::StageRt;

  /// A shuffle built during an attempt but not yet committed: ids are only
  /// assigned (and the output published) when the attempt survives, so an
  /// aborted attempt leaves no half-written shuffle behind.
  struct PendingShuffle {
    ShuffleOutput so;
    std::size_t consumer = 0;
  };

  /// Everything one stage attempt produced, separated from the engine state
  /// it would mutate so a mid-window failure can discard it wholesale.
  struct Attempt {
    std::vector<TaskWork> work;
    std::vector<double> extra_work;
    std::vector<double> durations;
    std::vector<double> fetch_portion;
    std::vector<double> compute_portion;
    std::vector<std::size_t> attempts;  ///< injected-fault attempts per task
    std::vector<double> starts;
    std::vector<double> ends;
    std::vector<std::size_t> slots;  ///< core slot index on the task's node
    double makespan = 0.0;
    std::vector<PendingShuffle> pending;
    std::uint64_t stage_shuffle_write = 0;
    std::uint64_t write_transactions = 0;
    std::vector<const Dataset*> to_cache;
    std::unordered_map<const Dataset*, std::vector<Partition>> cache_snapshots;
    const CachedDataset* cached = nullptr;
    /// Keeps `cached` alive and eviction-proof for the attempt's duration.
    BlockManager::Pin cache_pin;
    /// Per-task working-set spill (modeled bytes past the spill threshold).
    std::vector<double> spill_modeled;
    /// Task that OOMed this attempt (kNpos: none). The attempt must then be
    /// discarded and retried — possibly at a grown partition count.
    std::size_t oom_task = kNpos;
    /// Task whose transient fetch retry budget ran out this attempt (kNpos:
    /// none) and the source node it could not fetch from. The attempt is
    /// abandoned at the task's simulated end; run_stage deregisters the
    /// source's map outputs and escalates to a stage retry.
    std::size_t flaky_task = kNpos;
    std::size_t flaky_src = kNpos;
  };
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  // Virtual-clock plumbing: a controlled (service) job reads and advances
  // its own clock; a classic job reads and advances the engine's.
  double now() const noexcept {
    return ctx_.control ? ctx_.vclock : eng_.sim_clock_;
  }
  void advance(double dt) noexcept {
    if (ctx_.control) {
      ctx_.vclock += dt;
    } else {
      eng_.sim_clock_ += dt;
    }
    // Keep the event log's sim hint fresh for clockless emitters (budget
    // scans in BlockManager/ShuffleManager stamp events with the hint).
    if (tracing()) eng_.event_log_->set_sim_hint(now());
  }
  void set_now(double t) noexcept {
    if (ctx_.control) {
      ctx_.vclock = t;
    } else {
      eng_.sim_clock_ = t;
    }
    if (tracing()) eng_.event_log_->set_sim_hint(now());
  }
  /// Abort (via the standard JobAbortedError path) when the job was
  /// cancelled or its virtual deadline passed. Called at stage boundaries.
  void check_interrupt() const;

  void run_stage(std::size_t s);
  void execute_attempt(std::size_t s, StageMetrics& sm, Attempt& a);
  void commit_attempt(std::size_t s, StageMetrics& sm, Attempt& a);
  /// Checkpoint resume (DESIGN.md §16): adopt this job's committed-stage
  /// prefix from the engine's ResumeLedger — re-register restored shuffles,
  /// cached blocks and result partitions, replay metrics rows and event
  /// history, fast-forward the virtual clock — and return the plan index of
  /// the first stage still to execute. Returns 0 (run everything) whenever
  /// adoption would not be provably bit-identical to a cold rerun.
  std::size_t adopt_restored();
  Partition read_stage_input(std::size_t s, std::size_t p, std::size_t dst,
                             const CachedDataset* cached,
                             const std::vector<ShuffleOutput*>& parents,
                             bool consume, TaskWork& tw);
  double price_task(const TaskWork& tw, double extra_units, std::size_t n,
                    double fetch_share, double* fetch_out, double* compute_out,
                    double* spill_out = nullptr) const;

  // Memory machinery (DESIGN.md §11).
  /// Scan a priced attempt for the first task to die of OOM (enforced
  /// ceiling or injected schedule); records it in a.oom_task.
  void detect_oom(std::size_t s, const StageMetrics& sm, Attempt& a) const;
  /// Adaptive repartition-on-OOM: retry stage s with P' = ceil(P * growth).
  /// Shuffle-input stages re-bucket their retained parent map outputs under
  /// the grown partitioner (charged as recovery time); source stages grow
  /// their split count. Returns false when the count is pinned (cache input).
  bool grow_stage_partitions(std::size_t s, StageMetrics& sm);
  /// Per-node resident-memory bookkeeping for a committed attempt.
  void note_memory(std::size_t s, StageMetrics& sm, const Attempt& a);

  // Failure machinery.
  void process_barrier_failures(std::size_t stage_global_id);
  void fire_failure(std::size_t i, double at_time);
  bool scan_window_failures(std::size_t s, StageMetrics& sm, double makespan);
  bool stage_depends_on_node(std::size_t s, std::size_t node) const;

  // Node health scoreboard (DESIGN.md §14). Classic single-job mode only:
  // the scoreboard is engine-global state, and concurrent service jobs with
  // their own virtual clocks would race its exclusion/readmission timing.
  bool health_active() const noexcept {
    return ctx_.control == nullptr && eng_.options_.health.exclude_enabled;
  }
  /// Count one failure against `node`; on the strike that transitions it to
  /// excluded, bump sm.node_exclusions and emit kNodeExcluded.
  void record_strike(std::size_t node, HealthStrike kind, StageMetrics& sm);
  /// Re-admit nodes whose exclusion window expired, emitting kNodeReadmitted.
  void sweep_health();

  // Block integrity (DESIGN.md §14): checksum verification + corruption
  // injection over shuffle map outputs and cached partitions.
  void verify_shuffle_sums(ShuffleOutput& so, StageMetrics& sm);
  void verify_cache_sums(const Dataset* anchor, StageMetrics& sm);
  void fire_shuffle_corruption(std::size_t stage_global_id, ShuffleOutput& so);
  void fire_cache_corruption(std::size_t dataset_id, CachedDataset& cd);

  // Lineage recovery.
  void recover_stage_inputs(std::size_t s, StageMetrics& sm);
  void recover_map_tasks(std::size_t producer, StageMetrics& sm);
  void recover_cached_blocks(const Dataset* anchor, StageMetrics& sm);
  void replay_bucket_row(ShuffleOutput& so, std::size_t m,
                         const StagePlan& cplan, const Partition& out,
                         TaskWork& tw);
  void price_recovery(const std::vector<std::size_t>& nodes,
                      const std::vector<TaskWork>& works, StageMetrics& sm);

  void release_job_shuffles();

  // Structured event log (obs/event_log.h). tracing() — one relaxed atomic
  // load behind a null check — is the only cost instrumented paths pay when
  // no log or sink is attached; every emit site is guarded by it.
  bool tracing() const noexcept {
    return eng_.event_log_ != nullptr && eng_.event_log_->enabled();
  }
  /// Emit with an explicit sim-time stamp, refreshing the hint clockless
  /// subsystems (eviction/spill scans) stamp their own events with.
  void emit_at(double sim, obs::Event e) const {
    e.sim = sim;
    eng_.event_log_->set_sim_hint(sim);
    eng_.event_log_->emit(std::move(e));
  }
  void emit(obs::Event e) const { emit_at(now(), std::move(e)); }
  void emit_job_finish(const JobMetrics& jm) const;
  void emit_stage_end(std::size_t s, const StageMetrics& sm,
                      const Attempt& a) const;

  Engine& eng_;
  Engine::JobContext& ctx_;
  const CostModel& cm_;
  const bool ft_;       ///< failure schedule active
  const bool mem_;      ///< memory budgets enforced
  const bool oom_inj_;  ///< OOM injection schedule active
  const bool flaky_;    ///< transient fetch-failure injection active
  const bool corrupt_;  ///< corruption schedule armed
  const bool integrity_;  ///< record + verify block checksums
  /// Retained-data mode: shuffle reads copy instead of consume and map
  /// outputs live until job end. Any configuration that can retry a stage
  /// attempt (node failures, enforced memory, OOM injection) needs it.
  const bool retain_;
  JobMetrics job_metrics_;
};

JobResult JobRunner::run() {
  const auto job_t0 = Clock::now();
  const double job_sim_start = now();
  job_metrics_.job_id = ctx_.job_id;
  job_metrics_.name = ctx_.name;

  if (tracing()) {
    obs::Event e;
    e.kind = obs::EventKind::kJobSubmit;
    e.job = ctx_.job_id;
    e.name = ctx_.name;
    e.count = ctx_.plan.stages.size();
    emit(std::move(e));
  }

  try {
    const std::size_t first = adopt_restored();
    for (std::size_t s = first; s < ctx_.plan.stages.size(); ++s) run_stage(s);
  } catch (const std::exception& e) {
    // Abort path: never leak this job's shuffles, and leave a structured
    // partial JobMetrics row covering the stages that did complete.
    release_job_shuffles();
    job_metrics_.failed = true;
    job_metrics_.error = e.what();
    job_metrics_.sim_time_s = now() - job_sim_start;
    job_metrics_.wall_time_s = seconds_since(job_t0);
    if (tracing()) emit_job_finish(job_metrics_);
    eng_.metrics_.add_job(std::move(job_metrics_));
    throw;
  }

  // Fault-tolerant mode retains shuffles until job end for lineage replay;
  // release them now. (The classic path released per stage already — the
  // remove calls below are no-ops there.)
  release_job_shuffles();

  ctx_.result.job_id = ctx_.job_id;
  ctx_.result.name = ctx_.name;
  ctx_.result.sim_time_s = now() - job_sim_start;
  ctx_.result.wall_time_s = seconds_since(job_t0);
  ctx_.result.stage_ids = job_metrics_.stage_ids;
  ctx_.result.stage_attempts = job_metrics_.stage_attempts;
  ctx_.result.recomputed_tasks = job_metrics_.recomputed_tasks;
  ctx_.result.lost_bytes = job_metrics_.lost_bytes;
  ctx_.result.recomputed_bytes = job_metrics_.recomputed_bytes;
  ctx_.result.recovery_time_s = job_metrics_.recovery_time_s;
  ctx_.result.fetch_retries = job_metrics_.fetch_retries;
  ctx_.result.refetched_bytes = job_metrics_.refetched_bytes;
  ctx_.result.checksum_failures = job_metrics_.checksum_failures;
  ctx_.result.node_exclusions = job_metrics_.node_exclusions;
  ctx_.result.oom_count = job_metrics_.oom_count;
  ctx_.result.evicted_bytes = job_metrics_.evicted_bytes;
  ctx_.result.spilled_bytes = job_metrics_.spilled_bytes;
  ctx_.result.peak_resident_bytes = job_metrics_.peak_resident_bytes;
  ctx_.result.resumed_stages = job_metrics_.resumed_stages;
  ctx_.result.replayed_events = job_metrics_.replayed_events;
  ctx_.result.restored_bytes = job_metrics_.restored_bytes;
  ctx_.result.recovery_wall_s = job_metrics_.recovery_wall_s;
  ctx_.result.cache_hits = job_metrics_.cache_hits;
  ctx_.result.cache_misses = job_metrics_.cache_misses;
  ctx_.result.recompute_saved_bytes = job_metrics_.recompute_saved_bytes;
  ctx_.result.evictions_lru = job_metrics_.evictions_lru;
  ctx_.result.evictions_cost = job_metrics_.evictions_cost;

  job_metrics_.sim_time_s = ctx_.result.sim_time_s;
  job_metrics_.wall_time_s = ctx_.result.wall_time_s;
  if (tracing()) emit_job_finish(job_metrics_);
  eng_.metrics_.add_job(std::move(job_metrics_));
  return std::move(ctx_.result);
}

std::size_t JobRunner::adopt_restored() {
  if (eng_.resume_ledger_ == nullptr) return 0;
  // Classic single-job mode only: adoption rewinds engine-global state (the
  // sim clock, the stage-id counter) that concurrent service jobs share.
  if (ctx_.control != nullptr) return 0;
  // Retained-data configurations (failure/memory/OOM/flaky/corruption
  // schedules) can retry attempts; their committed rows are not guaranteed
  // to describe a clean first-attempt execution of engine-global effects.
  // Full deterministic re-execution is bit-identical anyway.
  if (retain_) return 0;
  auto& jobs = eng_.resume_ledger_->jobs;
  if (ctx_.job_id >= jobs.size()) return 0;
  JobResume& jr = jobs[ctx_.job_id];
  if (jr.full_rerun || jr.stages.empty()) return 0;
  if (jr.stages.size() > ctx_.plan.stages.size()) return 0;
  const std::size_t k = jr.stages.size();

  // ---- validation pass (no engine mutation) ------------------------------
  // Reject anything that is not provably a clean prefix of THIS plan; the
  // caller then re-executes from stage 0, which the determinism contract
  // (bench/chaos_fuzz) guarantees is bit-identical to the original run.
  std::unordered_set<std::size_t> cached_sim;  // ids cached by earlier stages
  for (std::size_t s = 0; s < k; ++s) {
    const StageRestore& sr = jr.stages[s];
    const StageMetrics& row = sr.row;
    const StagePlan& plan = ctx_.plan.stages[s];
    if (row.signature != plan.signature) return 0;
    if (row.attempt_count != 1 || row.recomputed_tasks != 0 ||
        row.recomputed_bytes != 0 || row.recovery_time_s != 0.0 ||
        row.fetch_retries != 0 || row.refetched_bytes != 0 ||
        row.checksum_failures != 0 || row.node_exclusions != 0 ||
        row.oom_count != 0) {
      return 0;
    }
    // Cache misses and evictions imply a budget re-shaped the block store
    // mid-run — not a clean first-attempt row. Hits are fine: clean runs of
    // iterative workloads read resident caches every round.
    if (row.cache_misses != 0 || row.evictions_lru != 0 ||
        row.evictions_cost != 0) {
      return 0;
    }
    if (row.tasks.size() != row.num_partitions || row.tasks.empty()) return 0;
    // Exactly one restored shuffle per consumer, in plan order.
    if (sr.shuffles.size() != plan.consumers.size()) return 0;
    for (std::size_t ci = 0; ci < sr.shuffles.size(); ++ci) {
      if (sr.shuffles[ci].consumer != plan.consumers[ci]) return 0;
      if (sr.shuffles[ci].so.buckets.size() != row.tasks.size()) return 0;
    }
    // Cache commits must line up with the commit order execute_attempt
    // would produce: anchor first (unless the stage reads it), then narrow
    // ops, skipping datasets already materialized by earlier stages.
    std::vector<const Dataset*> to_cache;
    const auto needs_cache = [&](const Dataset* ds) {
      return ds->cached() && !eng_.block_manager_.contains(ds->id()) &&
             cached_sim.count(ds->id()) == 0;
    };
    if (plan.input != StageInputKind::kCache && needs_cache(plan.anchor)) {
      to_cache.push_back(plan.anchor);
    }
    for (const auto* op : plan.narrow_ops) {
      if (needs_cache(op)) to_cache.push_back(op);
    }
    if (sr.caches.size() != to_cache.size()) return 0;
    for (std::size_t i = 0; i < sr.caches.size(); ++i) {
      if (sr.caches[i].ordinal != i) return 0;
      if (sr.caches[i].cd.partitions.size() != row.tasks.size()) return 0;
    }
    for (const auto* ds : to_cache) cached_sim.insert(ds->id());
    if (plan.is_result && !sr.has_result) return 0;
  }

  // ---- adoption pass -----------------------------------------------------
  const auto t0 = Clock::now();
  std::uint64_t restored_bytes = 0;
  for (std::size_t s = 0; s < k; ++s) {
    StageRestore& sr = jr.stages[s];
    StageMetrics& row = sr.row;
    const StagePlan& plan = ctx_.plan.stages[s];
    auto& rt = ctx_.rt[s];

    // Keep the engine-global stage-id counter exactly where the original
    // run left it so continued stages draw the same ids.
    eng_.next_stage_id_.store(row.stage_id + 1, std::memory_order_relaxed);
    job_metrics_.stage_ids.push_back(row.stage_id);

    rt.num_tasks = row.tasks.size();
    rt.task_node.resize(rt.num_tasks);
    for (std::size_t p = 0; p < rt.num_tasks; ++p) {
      rt.task_node[p] = row.tasks[p].node;
    }

    // Replay event history at the original sim stamps: stage entry events
    // at sim_start_s, the closing records after the makespan advance.
    set_now(row.sim_start_s);
    if (tracing()) {
      obs::Event e;
      e.kind = obs::EventKind::kStageStart;
      e.job = ctx_.job_id;
      e.stage = row.stage_id;
      e.plan_index = s;
      e.signature = row.signature;
      e.name = row.name;
      if (row.is_shuffle_map) e.flags |= obs::kFlagShuffleMap;
      e.num_partitions = rt.num_tasks;
      emit(std::move(e));
    }

    // Re-commit cached datasets under this process's dataset ids (matched
    // by commit ordinal — the walk below reproduces execute_attempt's
    // to_cache order, validated above).
    std::vector<const Dataset*> to_cache;
    const auto needs_cache = [&](const Dataset* ds) {
      return ds->cached() && !eng_.block_manager_.contains(ds->id());
    };
    if (plan.input != StageInputKind::kCache && needs_cache(plan.anchor)) {
      to_cache.push_back(plan.anchor);
    }
    for (const auto* op : plan.narrow_ops) {
      if (needs_cache(op)) to_cache.push_back(op);
    }
    for (RestoredCache& rc : sr.caches) {
      const Dataset* ds = to_cache[rc.ordinal];
      CachedDataset cd = std::move(rc.cd);
      cd.lineage = const_cast<Dataset*>(ds)->shared_from_this();
      restored_bytes += cd.bytes;
      if (cd.partitioner) {
        ctx_.partitioner_cache.emplace(
            std::make_pair(cd.partitioner->kind(),
                           cd.partitioner->num_partitions()),
            cd.partitioner);
      }
      if (tracing()) {
        obs::Event e;
        e.kind = obs::EventKind::kBlockStore;
        e.job = ctx_.job_id;
        e.stage = row.stage_id;
        e.dataset = ds->id();
        e.name = ds->label();
        e.bytes = cd.bytes;
        e.count = cd.partitions.size();
        emit(std::move(e));
      }
      // Re-persist into the NEW checkpoint epoch so a second crash during
      // the resumed run can itself be resumed (double-resume idempotence).
      if (eng_.ckpt_hook_ != nullptr) {
        eng_.ckpt_hook_->on_cache_committed(ctx_.job_id, s, rc.ordinal, cd);
      }
      eng_.block_manager_.put(ds->id(), std::move(cd));
    }

    // Re-register restored shuffle publications under fresh ids.
    for (RestoredShuffle& rs : sr.shuffles) {
      ShuffleOutput so = std::move(rs.so);
      so.shuffle_id = eng_.shuffles_.next_id();
      auto& crt = ctx_.rt[rs.consumer];
      crt.shuffle_from_producer.emplace(s, so.shuffle_id);
      rt.written.push_back({so.shuffle_id, rs.consumer});
      ctx_.job_shuffle_ids.push_back(so.shuffle_id);
      restored_bytes += so.total_bytes;
      if (!crt.partitioner) crt.partitioner = so.partitioner;
      if (so.partitioner) {
        // Seed the co-partition cache so later stages that would have
        // reused this partitioner in the original run reuse the restored
        // one (range bounds included) instead of re-sampling.
        ctx_.partitioner_cache.emplace(
            std::make_pair(so.partitioner->kind(),
                           so.partitioner->num_partitions()),
            so.partitioner);
      }
      if (tracing()) {
        obs::Event e;
        e.kind = obs::EventKind::kShuffleWrite;
        e.job = ctx_.job_id;
        e.stage = row.stage_id;
        e.plan_index = rs.consumer;
        e.shuffle = so.shuffle_id;
        e.bytes = so.total_bytes;
        e.count = so.num_map_tasks;
        e.num_partitions = so.partitioner ? so.partitioner->num_partitions()
                                          : crt.num_tasks;
        if (so.passthrough) e.flags |= obs::kFlagPassthrough;
        emit(std::move(e));
      }
      if (eng_.ckpt_hook_ != nullptr) {
        eng_.ckpt_hook_->on_shuffle_committed(ctx_.job_id, s, rs.consumer, so);
      }
      eng_.shuffles_.put(std::move(so));
    }

    // Result stage: fold the restored output into the JobResult exactly
    // like commit_attempt does.
    if (plan.is_result && sr.has_result) {
      if (ctx_.collect_records) {
        collect_records(sr.result_parts, ctx_.result.records);
      }
      for (const auto& tm : row.tasks) ctx_.result.count += tm.records_out;
      for (const auto& part : sr.result_parts) restored_bytes += part.bytes();
      if (eng_.ckpt_hook_ != nullptr) {
        eng_.ckpt_hook_->on_result_committed(ctx_.job_id, s, sr.result_parts);
      }
    }

    // Adopted consumers already consumed their parent shuffles in the
    // original run: mirror commit_attempt's classic-mode release.
    if (plan.input == StageInputKind::kShuffle) {
      for (const std::size_t parent : plan.parent_stages) {
        const auto it = rt.shuffle_from_producer.find(parent);
        if (it != rt.shuffle_from_producer.end()) {
          eng_.shuffles_.remove(it->second);
          rt.shuffle_from_producer.erase(it);
        }
      }
    }

    // Fast-forward the virtual clock through the stage's makespan and
    // replay its metrics row (registry + job aggregates) bit-for-bit.
    set_now(row.sim_start_s + row.sim_time_s);
    job_metrics_.stage_attempts += row.attempt_count;
    job_metrics_.recomputed_tasks += row.recomputed_tasks;
    job_metrics_.recomputed_bytes += row.recomputed_bytes;
    job_metrics_.recovery_time_s += row.recovery_time_s;
    job_metrics_.fetch_retries += row.fetch_retries;
    job_metrics_.refetched_bytes += row.refetched_bytes;
    job_metrics_.checksum_failures += row.checksum_failures;
    job_metrics_.node_exclusions += row.node_exclusions;
    job_metrics_.oom_count += row.oom_count;
    job_metrics_.evicted_bytes += row.evicted_bytes;
    job_metrics_.spilled_bytes += row.spilled_bytes;
    job_metrics_.peak_resident_bytes =
        std::max(job_metrics_.peak_resident_bytes, row.peak_resident_bytes);
    job_metrics_.cache_hits += row.cache_hits;
    job_metrics_.cache_misses += row.cache_misses;
    job_metrics_.recompute_saved_bytes += row.recompute_saved_bytes;
    job_metrics_.evictions_lru += row.evictions_lru;
    job_metrics_.evictions_cost += row.evictions_cost;
    if (tracing()) emit_stage_end(s, row, Attempt{});
    eng_.metrics_.add_stage(std::move(row));
  }

  job_metrics_.resumed_stages = k;
  job_metrics_.replayed_events = jr.replayed_events;
  job_metrics_.restored_bytes = restored_bytes;
  job_metrics_.recovery_wall_s = seconds_since(t0);
  if (tracing()) {
    obs::Event e;
    e.kind = obs::EventKind::kResume;
    e.job = ctx_.job_id;
    e.count = k;
    e.resumed_stages = k;
    e.replayed_events = jr.replayed_events;
    e.restored_bytes = restored_bytes;
    e.recovery_wall_s = job_metrics_.recovery_wall_s;
    emit(std::move(e));
  }
  return k;
}

void JobRunner::emit_job_finish(const JobMetrics& jm) const {
  obs::Event e;
  e.kind = obs::EventKind::kJobFinish;
  e.job = jm.job_id;
  e.name = jm.name;
  e.sim_time_s = jm.sim_time_s;
  e.wall_time_s = jm.wall_time_s;
  e.list.assign(jm.stage_ids.begin(), jm.stage_ids.end());
  if (jm.failed) e.flags |= obs::kFlagFailed;
  e.detail = jm.error;
  e.stage_attempts = jm.stage_attempts;
  e.recomputed_tasks = jm.recomputed_tasks;
  e.lost_bytes = jm.lost_bytes;
  e.recomputed_bytes = jm.recomputed_bytes;
  e.recovery_time_s = jm.recovery_time_s;
  e.fetch_retries = jm.fetch_retries;
  e.refetched_bytes = jm.refetched_bytes;
  e.checksum_failures = jm.checksum_failures;
  e.node_exclusions = jm.node_exclusions;
  e.oom_count = jm.oom_count;
  e.evicted_bytes = jm.evicted_bytes;
  e.spilled_bytes = jm.spilled_bytes;
  e.peak_resident_bytes = jm.peak_resident_bytes;
  e.resumed_stages = jm.resumed_stages;
  e.replayed_events = jm.replayed_events;
  e.restored_bytes = jm.restored_bytes;
  e.recovery_wall_s = jm.recovery_wall_s;
  e.cache_hits = jm.cache_hits;
  e.cache_misses = jm.cache_misses;
  e.recompute_saved_bytes = jm.recompute_saved_bytes;
  e.evictions_lru = jm.evictions_lru;
  e.evictions_cost = jm.evictions_cost;
  emit(std::move(e));
}

void JobRunner::emit_stage_end(std::size_t s, const StageMetrics& sm,
                               const Attempt& a) const {
  // One span per committed task. Span times are stage-window-relative (the
  // exporter and replay add sim_start_s); fields mirror TaskMetrics exactly
  // so replay is bit-identical.
  for (std::size_t p = 0; p < sm.tasks.size(); ++p) {
    const TaskMetrics& tm = sm.tasks[p];
    obs::Event e;
    e.kind = obs::EventKind::kTaskSpan;
    e.job = sm.job_id;
    e.stage = sm.stage_id;
    e.plan_index = s;
    e.task = tm.task_index;
    e.node = tm.node;
    e.slot = p < a.slots.size() ? a.slots[p] : 0;
    e.attempt = tm.attempts;
    e.fetch_retries = tm.fetch_retries;
    e.t_start = tm.sim_start;
    e.t_end = tm.sim_end;
    e.compute_s = tm.compute_s;
    e.fetch_s = tm.fetch_s;
    e.records_in = tm.records_in;
    e.records_out = tm.records_out;
    e.bytes_in = tm.bytes_in;
    e.bytes_out = tm.bytes_out;
    e.shuffle_read_remote = tm.shuffle_read_remote;
    e.shuffle_read_local = tm.shuffle_read_local;
    if (tm.shuffle_read_remote > 0) e.flags |= obs::kFlagRemoteFetch;
    if (tm.shuffle_read_local > 0) e.flags |= obs::kFlagLocalFetch;
    if (p < a.spill_modeled.size() && a.spill_modeled[p] > 0.0) {
      e.flags |= obs::kFlagSpilled;
      e.spilled_bytes = static_cast<std::uint64_t>(a.spill_modeled[p]);
    }
    emit(std::move(e));
  }

  // The closing stage record carries every scalar StageMetrics field, so a
  // HistoryReader can rebuild the row without the live run.
  obs::Event e;
  e.kind = obs::EventKind::kStageEnd;
  e.job = sm.job_id;
  e.stage = sm.stage_id;
  e.plan_index = s;
  e.signature = sm.signature;
  e.name = sm.name;
  if (sm.is_shuffle_map) e.flags |= obs::kFlagShuffleMap;
  if (sm.fixed_partitions) e.flags |= obs::kFlagFixedPartitions;
  if (sm.user_fixed) e.flags |= obs::kFlagUserFixed;
  e.num_partitions = sm.num_partitions;
  e.partitioner = static_cast<std::uint64_t>(sm.partitioner);
  e.anchor_op = static_cast<std::uint64_t>(sm.anchor_op);
  e.list = sm.parent_signatures;
  e.records_in = sm.input_records;
  e.bytes_in = sm.input_bytes;
  e.records_out = sm.output_records;
  e.bytes_out = sm.output_bytes;
  e.shuffle_read_bytes = sm.shuffle_read_bytes;
  e.shuffle_write_bytes = sm.shuffle_write_bytes;
  e.attempt = sm.attempt_count;
  e.recomputed_tasks = sm.recomputed_tasks;
  e.recomputed_bytes = sm.recomputed_bytes;
  e.recovery_time_s = sm.recovery_time_s;
  e.fetch_retries = sm.fetch_retries;
  e.refetched_bytes = sm.refetched_bytes;
  e.checksum_failures = sm.checksum_failures;
  e.node_exclusions = sm.node_exclusions;
  e.oom_count = sm.oom_count;
  e.list2.assign(sm.oomed_partition_counts.begin(),
                 sm.oomed_partition_counts.end());
  e.evicted_bytes = sm.evicted_bytes;
  e.spilled_bytes = sm.spilled_bytes;
  e.peak_resident_bytes = sm.peak_resident_bytes;
  e.cache_hits = sm.cache_hits;
  e.cache_misses = sm.cache_misses;
  e.recompute_saved_bytes = sm.recompute_saved_bytes;
  e.evictions_lru = sm.evictions_lru;
  e.evictions_cost = sm.evictions_cost;
  e.sim_time_s = sm.sim_time_s;
  e.sim_start_s = sm.sim_start_s;
  e.wall_time_s = sm.wall_time_s;
  emit(std::move(e));
}

void JobRunner::check_interrupt() const {
  const JobControl* ctl = ctx_.control;
  if (ctl == nullptr) return;
  if (ctl->cancel != nullptr && ctl->cancel->load(std::memory_order_acquire)) {
    throw JobAbortedError("job '" + ctx_.name + "' cancelled");
  }
  if (ctl->deadline >= 0.0 && ctx_.vclock > ctl->deadline) {
    throw JobAbortedError("job '" + ctx_.name + "' missed virtual deadline (" +
                          std::to_string(ctl->deadline) + "s)");
  }
}

void JobRunner::run_stage(std::size_t s) {
  check_interrupt();
  const StagePlan& plan = ctx_.plan.stages[s];
  const auto stage_t0 = Clock::now();

  StageMetrics sm;
  sm.stage_id = eng_.next_stage_id_.fetch_add(1, std::memory_order_relaxed);
  sm.job_id = ctx_.job_id;
  sm.signature = plan.signature;
  sm.name = plan.name;
  sm.is_shuffle_map = !plan.consumers.empty();
  sm.anchor_op = plan.anchor->op();
  for (const std::size_t parent : plan.parent_stages) {
    sm.parent_signatures.push_back(ctx_.plan.stages[parent].signature);
  }
  sm.fixed_partitions = plan.fixed_partitions;
  sm.user_fixed = plan.input == StageInputKind::kShuffle &&
                  plan.anchor->shuffle_request().user_fixed;
  job_metrics_.stage_ids.push_back(sm.stage_id);

  if (tracing()) {
    obs::Event e;
    e.kind = obs::EventKind::kStageStart;
    e.job = ctx_.job_id;
    e.stage = sm.stage_id;
    e.plan_index = s;
    e.signature = sm.signature;
    e.name = sm.name;
    if (sm.is_shuffle_map) e.flags |= obs::kFlagShuffleMap;
    e.num_partitions = ctx_.rt[s].num_tasks;
    emit(std::move(e));
  }

  const std::size_t max_attempts = std::max<std::size_t>(
      1, eng_.options_.failure_schedule.max_stage_attempts);

  // Ledger totals at stage entry: the deltas at exit attribute evictions and
  // disk-tier spills (wherever in the engine they fired) to this stage.
  const std::uint64_t evicted0 = eng_.mem_ledger_.total_evicted();
  const std::uint64_t spilled0 = eng_.mem_ledger_.total_spilled();
  const std::size_t ev_lru0 = eng_.mem_ledger_.total_evictions_lru();
  const std::size_t ev_cost0 = eng_.mem_ledger_.total_evictions_cost();

  Attempt a;
  std::size_t consecutive_oom = 0;
  for (std::size_t attempt = 1;; ++attempt) {
    sm.attempt_count = attempt;
    if (health_active()) sweep_health();
    if (ft_) process_barrier_failures(sm.stage_id);
    // Cache telemetry (DESIGN.md §17): every cached-input partition resident
    // at attempt start is a hit — its bytes are recomputation the cache
    // saved. Partitions healed below count as misses (recover_cached_blocks).
    if (plan.input == StageInputKind::kCache) {
      std::size_t hits = 0;
      std::uint64_t saved = 0;
      if (auto cache_pin = eng_.block_manager_.pin(plan.anchor->id())) {
        auto g = eng_.block_manager_.guard();
        const CachedDataset& cd = *cache_pin;
        for (std::size_t p = 0; p < cd.partitions.size(); ++p) {
          if (cd.available.empty() || cd.available[p]) {
            ++hits;
            saved += cd.partitions[p].bytes();
          }
        }
      }
      sm.cache_hits += hits;
      sm.recompute_saved_bytes += saved;
      if (hits > 0 && tracing()) {
        obs::Event e;
        e.kind = obs::EventKind::kCacheHit;
        e.job = ctx_.job_id;
        e.stage = sm.stage_id;
        e.plan_index = s;
        e.attempt = attempt;
        e.dataset = plan.anchor->id();
        e.name = plan.anchor->label();
        e.count = hits;
        e.bytes = saved;
        emit(std::move(e));
      }
    }
    // Heal evicted cache blocks / lost shuffle rows before (re)executing.
    if (retain_) recover_stage_inputs(s, sm);
    a = Attempt{};
    execute_attempt(s, sm, a);
    if (a.oom_task != kNpos) {
      // The attempt dies at the OOM task's simulated end; everything it ran
      // until then is wasted cluster time.
      const double wasted = a.ends[a.oom_task];
      advance(wasted);
      sm.recovery_time_s += wasted;
      ++sm.oom_count;
      sm.oomed_partition_counts.push_back(ctx_.rt[s].num_tasks);
      eng_.mem_ledger_.add_oom(ctx_.rt[s].task_node[a.oom_task]);
      record_strike(ctx_.rt[s].task_node[a.oom_task], HealthStrike::kTask, sm);
      if (tracing()) {
        obs::Event e;
        e.kind = obs::EventKind::kStageRetry;
        e.job = ctx_.job_id;
        e.stage = sm.stage_id;
        e.plan_index = s;
        e.attempt = attempt;
        e.task = a.oom_task;
        e.node = ctx_.rt[s].task_node[a.oom_task];
        e.num_partitions = ctx_.rt[s].num_tasks;
        e.value = wasted;
        e.flags |= obs::kFlagOom;
        e.detail = "oom";
        emit(std::move(e));
      }
      ++consecutive_oom;
      if (attempt >= max_attempts) {
        throw TaskOomError(
            "stage " + plan.name + " exceeded " + std::to_string(max_attempts) +
            " attempts: task working set out of memory at P=" +
            std::to_string(ctx_.rt[s].num_tasks));
      }
      // Degraded-but-alive: after enough consecutive OOMs, stop retrying at
      // the same partition count and grow it (smaller per-task footprint).
      const std::size_t grow_after = std::max<std::size_t>(
          1, eng_.options_.memory.oom_repartition_after);
      if (consecutive_oom >= grow_after && grow_stage_partitions(s, sm)) {
        consecutive_oom = 0;
      }
      continue;
    }
    if (a.flaky_task != kNpos) {
      // A fetch segment exhausted its retry budget: the attempt dies at the
      // task's simulated end. Deregister the unreachable source's map
      // outputs — Spark drops a fetch-failed executor's map statuses — so
      // the next attempt heals them by lineage replay, re-homed by node_for
      // away from the node if health exclusion has kicked in.
      const double wasted = a.ends[a.flaky_task];
      advance(wasted);
      sm.recovery_time_s += wasted;
      LossReport lr = eng_.shuffles_.invalidate_node(a.flaky_src);
      job_metrics_.lost_bytes += lr.lost_bytes;
      record_strike(a.flaky_src, HealthStrike::kFetch, sm);
      if (tracing()) {
        obs::Event e;
        e.kind = obs::EventKind::kStageRetry;
        e.job = ctx_.job_id;
        e.stage = sm.stage_id;
        e.plan_index = s;
        e.attempt = attempt;
        e.task = a.flaky_task;
        e.node = a.flaky_src;
        e.num_partitions = ctx_.rt[s].num_tasks;
        e.value = wasted;
        e.flags |= obs::kFlagFailed;
        e.detail = "fetch-timeout";
        emit(std::move(e));
      }
      if (attempt >= max_attempts) {
        throw JobAbortedError("stage " + plan.name + " exceeded " +
                              std::to_string(max_attempts) +
                              " attempts after transient fetch failures");
      }
      consecutive_oom = 0;
      continue;
    }
    if (ft_ && scan_window_failures(s, sm, a.makespan)) {
      // The attempt was cut down mid-window by a node this stage depends
      // on; the wasted sim time is already accounted. Retry from the top
      // (recovery will heal the inputs the failure just destroyed).
      if (tracing()) {
        obs::Event e;
        e.kind = obs::EventKind::kStageRetry;
        e.job = ctx_.job_id;
        e.stage = sm.stage_id;
        e.plan_index = s;
        e.attempt = attempt;
        e.num_partitions = ctx_.rt[s].num_tasks;
        e.flags |= obs::kFlagFailed;
        e.detail = "fetch-failure";
        emit(std::move(e));
      }
      if (attempt >= max_attempts) {
        throw JobAbortedError("stage " + plan.name + " exceeded " +
                              std::to_string(max_attempts) +
                              " attempts after node failures");
      }
      consecutive_oom = 0;
      continue;
    }
    break;
  }

  // Service mode: before the stage's simulated window is charged, obtain an
  // exclusive cluster window from the slot ledger. Concurrent jobs contend
  // here — the grant may start later than this job's own clock (another
  // job's stage ran meanwhile), which is exactly the queueing delay a busy
  // shared cluster imposes. A job running alone is always granted
  // back-to-back windows, reproducing the classic timings bit-for-bit.
  if (ctx_.control != nullptr) {
    check_interrupt();
    if (ctx_.control->arbiter != nullptr) {
      ctx_.vclock = ctx_.control->arbiter->acquire(ctx_.control->token,
                                                   ctx_.vclock, a.makespan);
    }
  }

  commit_attempt(s, sm, a);
  sm.wall_time_s = seconds_since(stage_t0);

  // Memory telemetry: ledger deltas attribute this stage's evictions and
  // disk-tier spills; settle the storage budget now that the stage's pin on
  // its cached input (if any) is released.
  a.cache_pin.reset();
  if (mem_) eng_.block_manager_.enforce_budget();
  sm.evicted_bytes += eng_.mem_ledger_.total_evicted() - evicted0;
  sm.spilled_bytes += eng_.mem_ledger_.total_spilled() - spilled0;
  sm.evictions_lru += eng_.mem_ledger_.total_evictions_lru() - ev_lru0;
  sm.evictions_cost += eng_.mem_ledger_.total_evictions_cost() - ev_cost0;

  job_metrics_.stage_attempts += sm.attempt_count;
  job_metrics_.recomputed_tasks += sm.recomputed_tasks;
  job_metrics_.recomputed_bytes += sm.recomputed_bytes;
  job_metrics_.recovery_time_s += sm.recovery_time_s;
  job_metrics_.fetch_retries += sm.fetch_retries;
  job_metrics_.refetched_bytes += sm.refetched_bytes;
  job_metrics_.checksum_failures += sm.checksum_failures;
  job_metrics_.node_exclusions += sm.node_exclusions;
  job_metrics_.oom_count += sm.oom_count;
  job_metrics_.evicted_bytes += sm.evicted_bytes;
  job_metrics_.spilled_bytes += sm.spilled_bytes;
  job_metrics_.peak_resident_bytes =
      std::max(job_metrics_.peak_resident_bytes, sm.peak_resident_bytes);
  job_metrics_.cache_hits += sm.cache_hits;
  job_metrics_.cache_misses += sm.cache_misses;
  job_metrics_.recompute_saved_bytes += sm.recompute_saved_bytes;
  job_metrics_.evictions_lru += sm.evictions_lru;
  job_metrics_.evictions_cost += sm.evictions_cost;
  // Stage barrier hook: kStageEnd is delivered to sinks synchronously, so an
  // in-process sink (src/adapt's AdaptiveController) runs to completion here
  // — any plan-provider patch it makes is visible to every scheme still
  // unresolved, i.e. stages at least two hops downstream in this job (a
  // consumer's scheme resolves during its producer's shuffle write, below)
  // and all stages of later jobs.
  if (tracing()) emit_stage_end(s, sm, a);
  eng_.metrics_.add_stage(std::move(sm));
}

Partition JobRunner::read_stage_input(std::size_t s, std::size_t p,
                                      std::size_t dst,
                                      const CachedDataset* cached,
                                      const std::vector<ShuffleOutput*>& parents,
                                      bool consume, TaskWork& tw) {
  const StagePlan& plan = ctx_.plan.stages[s];
  const auto& rt = ctx_.rt[s];
  Partition part;

  switch (plan.input) {
    case StageInputKind::kSource: {
      part = plan.anchor->source_fn()(p, rt.num_tasks);
      tw.records_in = part.size();
      tw.bytes_in = part.bytes();
      tw.work_units += static_cast<double>(part.size()) * kSourceGenWork;
      break;
    }
    case StageInputKind::kCache: {
      part = copy_partition(cached->partitions[p]);
      tw.records_in = part.size();
      tw.bytes_in = part.bytes();
      tw.local_fetch_bytes += part.bytes();
      tw.work_units += static_cast<double>(part.size()) * kCacheReadWork;
      break;
    }
    case StageInputKind::kShuffle: {
      std::vector<Partition> sides;
      sides.reserve(parents.size());
      for (ShuffleOutput* so : parents) {
        Partition side;
        for (std::size_t m = 0; m < so->num_map_tasks; ++m) {
          Partition& bucket = so->buckets[m][p];
          const std::uint64_t b = bucket.bytes();
          if (so->passthrough || so->map_node[m] == dst) {
            tw.local_fetch_bytes += b;
            tw.shuffle_read_local += b;
          } else if (b > 0) {
            tw.remote_fetch[so->map_node[m]] += b;
            ++tw.remote_segments;
            tw.shuffle_read_remote += b;
          }
          // A spilled row is served from the writer's disk tier: the read
          // pays disk bandwidth on top of the local/remote transfer.
          if (b > 0 && so->row_on_disk(m)) tw.disk_read_bytes += b;
          if (consume) {
            side.absorb(std::move(bucket));
          } else {
            // Fault-tolerant mode: leave the map output in place so lineage
            // replay (and attempt retries) can read it again.
            side.absorb(copy_partition(bucket));
          }
        }
        tw.records_in += side.size();
        tw.bytes_in += side.bytes();
        sides.push_back(std::move(side));
      }
      tw.work_units +=
          static_cast<double>(tw.records_in) * plan.anchor->work_per_record();
      switch (plan.anchor->op()) {
        case OpKind::kReduceByKey:
          part = dataplane::merge_reduce_by_key(std::move(sides),
                                                plan.anchor->reduce_fn());
          break;
        case OpKind::kGroupByKey:
          part = dataplane::merge_group_by_key(std::move(sides));
          break;
        case OpKind::kJoin:
          part = dataplane::merge_join(std::move(sides[0]),
                                       std::move(sides[1]),
                                       plan.anchor->join_fn(),
                                       /*cogroup=*/false);
          break;
        case OpKind::kCoGroup:
          part = dataplane::merge_join(std::move(sides[0]),
                                       std::move(sides[1]),
                                       plan.anchor->join_fn(),
                                       /*cogroup=*/true);
          break;
        case OpKind::kRepartition:
        case OpKind::kUnion:
          part = dataplane::merge_concat(std::move(sides));
          break;
        case OpKind::kSortByKey:
          part = dataplane::merge_sorted(std::move(sides));
          break;
        default:
          throw std::logic_error("run_job: unexpected wide op");
      }
      break;
    }
  }
  return part;
}

double JobRunner::price_task(const TaskWork& tw, double extra_units,
                             std::size_t n, double fetch_share,
                             double* fetch_out, double* compute_out,
                             double* spill_out) const {
  const NodeSpec& node = eng_.cluster_.node(n);
  const double rescale = 1.0 / cm_.data_scale;

  double fetch_s = tw.local_fetch_bytes * rescale / cm_.local_read_bw;
  for (const auto& [src, bytes] : tw.remote_fetch) {
    const double bw =
        std::min(node.net_bw, eng_.cluster_.node(src).net_bw) / fetch_share;
    fetch_s += static_cast<double>(bytes) * rescale / bw;
  }
  fetch_s += cm_.fetch_latency_s * static_cast<double>(tw.remote_segments);
  // Spilled shuffle rows are re-read from the writer's disk tier.
  fetch_s += static_cast<double>(tw.disk_read_bytes) * rescale / cm_.disk_bw;

  double compute_s =
      (tw.work_units + extra_units) * rescale * cm_.sec_per_work_unit +
      static_cast<double>(tw.bytes_in + tw.bytes_out) * rescale *
          cm_.sec_per_byte;
  compute_s /= node.speed;

  // Working set past the per-slot spill threshold: the excess round-trips
  // through local disk. These are the bytes MemoryLimits accounts as the
  // task's working-set spill (and, past hard_ceiling, as an OOM).
  const double budget = static_cast<double>(node.memory_bytes) /
                        static_cast<double>(node.cores) * cm_.spill_fraction;
  const double resident =
      static_cast<double>(tw.bytes_in + tw.bytes_out) * rescale;
  if (resident > budget) {
    compute_s += (resident - budget) * cm_.spill_amplification / cm_.disk_bw;
    if (spill_out) *spill_out = resident - budget;
  } else if (spill_out) {
    *spill_out = 0.0;
  }

  if (fetch_out) *fetch_out = fetch_s;
  if (compute_out) *compute_out = compute_s;
  return cm_.task_launch_s + fetch_s + compute_s;
}

void JobRunner::execute_attempt(std::size_t s, StageMetrics& sm, Attempt& a) {
  const StagePlan& plan = ctx_.plan.stages[s];
  auto& rt = ctx_.rt[s];
  PlanProvider* provider = eng_.plan_provider_.get();

  // ---- determine task count & placement --------------------------------
  a.cached = nullptr;
  switch (plan.input) {
    case StageInputKind::kSource:
      rt.num_tasks =
          resolve_scheme(ctx_, s, provider, eng_.options_.default_parallelism)
              .num_partitions;
      break;
    case StageInputKind::kCache:
      // Pin: the dataset must survive (and stay eviction-proof) for the
      // whole attempt — concurrent jobs or the storage budget may otherwise
      // free partitions mid-read.
      a.cache_pin = eng_.block_manager_.pin(plan.anchor->id());
      a.cached = a.cache_pin.get();
      if (a.cached == nullptr) {
        throw std::logic_error("run_job: cache anchor not materialized: " +
                               plan.anchor->label());
      }
      {
        // Guard: a concurrent job may be healing this dataset's evicted
        // blocks; the lock also publishes those heals to our task reads.
        auto g = eng_.block_manager_.guard();
        if (retain_ && !a.cached->complete()) {
          // Recovery just ran and could not keep the blocks resident: the
          // dataset does not fit the storage budget even freshly healed.
          throw TaskOomError("cached dataset '" + plan.anchor->label() +
                             "' cannot be kept resident under the storage "
                             "budget");
        }
        rt.num_tasks = a.cached->partitions.size();
      }
      break;
    case StageInputKind::kShuffle:
      // The partitioner was built when the first producer wrote; producers
      // precede us in topological order.
      if (!rt.partitioner) {
        throw std::logic_error("run_job: shuffle partitioner missing for " +
                               plan.name);
      }
      rt.num_tasks = rt.partitioner->num_partitions();
      break;
  }
  rt.task_node.resize(rt.num_tasks);
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    rt.task_node[p] = eng_.node_for(p, rt.num_tasks);
  }

  // ---- phase 1: real execution ------------------------------------------
  a.work = std::vector<TaskWork>(rt.num_tasks);
  rt.output.clear();
  rt.output.resize(rt.num_tasks);

  // Cache-materialization snapshots for not-yet-cached chain nodes.
  if (plan.anchor->cached() &&
      !eng_.block_manager_.contains(plan.anchor->id()) &&
      plan.input != StageInputKind::kCache) {
    a.to_cache.push_back(plan.anchor);
  }
  for (const auto* op : plan.narrow_ops) {
    if (op->cached() && !eng_.block_manager_.contains(op->id())) {
      a.to_cache.push_back(op);
    }
  }
  for (const auto* ds : a.to_cache) {
    a.cache_snapshots[ds].resize(rt.num_tasks);
  }

  // Gather parent shuffle outputs (non-owning pointers; bucket columns are
  // disjoint per task, so tasks can move/copy them out without locking).
  std::vector<ShuffleOutput*> parent_shuffles;
  if (plan.input == StageInputKind::kShuffle) {
    for (const std::size_t parent : plan.parent_stages) {
      const auto it = rt.shuffle_from_producer.find(parent);
      if (it == rt.shuffle_from_producer.end()) {
        throw std::logic_error("run_job: missing parent shuffle for " +
                               plan.name);
      }
      parent_shuffles.push_back(&eng_.shuffles_.get_mutable(it->second));
    }
  }

  common::parallel_for(*eng_.pool_, rt.num_tasks, [&](std::size_t p) {
    TaskWork& tw = a.work[p];
    Partition part = read_stage_input(s, p, rt.task_node[p], a.cached,
                                      parent_shuffles, /*consume=*/!retain_, tw);

    // Cache snapshot at the anchor point (before narrow ops).
    if (auto it = a.cache_snapshots.find(plan.anchor);
        it != a.cache_snapshots.end()) {
      it->second[p] = copy_partition(part);
    }

    for (const auto* op : plan.narrow_ops) {
      part = apply_narrow_op(*op, std::move(part), p, tw);
      if (auto it = a.cache_snapshots.find(op); it != a.cache_snapshots.end()) {
        it->second[p] = copy_partition(part);
      }
    }

    tw.records_out = part.size();
    tw.bytes_out = part.bytes();
    rt.output[p] = std::move(part);
  });

  // Track the partitioning of this stage's output for the co-partition
  // fast path: a shuffle input partitioner survives narrow ops that
  // preserve partitioning.
  if (plan.input == StageInputKind::kShuffle) {
    rt.output_partitioner = rt.partitioner;
  } else if (plan.input == StageInputKind::kCache) {
    rt.output_partitioner = a.cached->partitioner;
  }
  for (const auto* op : plan.narrow_ops) {
    if (!op->preserves_partitioning()) {
      rt.output_partitioner = nullptr;
      break;
    }
  }

  // ---- phase 2: shuffle writes for consumers -----------------------------
  // Built into pending outputs; ids are assigned and the data published only
  // when the attempt commits.
  a.extra_work.assign(rt.num_tasks, 0.0);
  const bool keep_output = plan.is_result;

  for (std::size_t ci = 0; ci < plan.consumers.size(); ++ci) {
    const std::size_t consumer = plan.consumers[ci];
    const StagePlan& cplan = ctx_.plan.stages[consumer];
    auto& crt = ctx_.rt[consumer];
    PartitionScheme scheme = resolve_scheme(ctx_, consumer, provider,
                                            eng_.options_.default_parallelism);
    // Adaptive (AQE-style) coalescing: size the reduce side from observed
    // map output volume when nothing pinned the scheme. Only the first
    // producer re-sizes (later producers must agree with the partitioner
    // already built).
    const bool scheme_pinned =
        (provider != nullptr &&
         provider->scheme_for(cplan.signature).has_value()) ||
        cplan.anchor->shuffle_request().num_partitions.has_value();
    if (eng_.options_.adaptive.enabled && !scheme_pinned && !crt.partitioner) {
      std::uint64_t out_bytes = 0;
      for (const auto& part : rt.output) out_bytes += part.bytes();
      const double modeled = static_cast<double>(out_bytes) / cm_.data_scale;
      auto target = static_cast<std::size_t>(
          modeled / static_cast<double>(
                        eng_.options_.adaptive.target_partition_bytes) +
          0.999);
      target = std::clamp(target, eng_.options_.adaptive.min_partitions,
                          eng_.options_.adaptive.max_partitions);
      scheme.num_partitions = target;
      ctx_.rt[consumer].scheme = scheme;
    }
    if (!crt.partitioner) {
      const auto cache_key = std::make_pair(scheme.kind, scheme.num_partitions);
      const auto cached_part = ctx_.partitioner_cache.find(cache_key);
      if (cached_part != ctx_.partitioner_cache.end()) {
        crt.partitioner = cached_part->second;
      } else {
        std::vector<std::uint64_t> keys;
        if (scheme.kind == PartitionerKind::kRange) {
          keys = sample_keys(rt.output);
        }
        crt.partitioner = make_partitioner(scheme.kind, scheme.num_partitions,
                                           std::move(keys));
        ctx_.partitioner_cache.emplace(cache_key, crt.partitioner);
      }
    }
    const auto& target = crt.partitioner;
    const std::size_t r_count = target->num_partitions();
    const bool last_consumer = ci + 1 == plan.consumers.size();
    const bool may_move = last_consumer && !keep_output;

    PendingShuffle ps;
    ps.consumer = consumer;
    ShuffleOutput& so = ps.so;
    so.partitioner = target;
    so.num_map_tasks = rt.num_tasks;
    so.map_node = rt.task_node;
    so.buckets.resize(rt.num_tasks);
    for (auto& row : so.buckets) row.resize(r_count);

    const bool passthrough =
        rt.output_partitioner && rt.output_partitioner->equals(*target);
    so.passthrough = passthrough;

    const bool combine = eng_.options_.map_side_combine &&
                         cplan.anchor->op() == OpKind::kReduceByKey &&
                         static_cast<bool>(cplan.anchor->reduce_fn());

    common::parallel_for(*eng_.pool_, rt.num_tasks, [&](std::size_t m) {
      auto& row = so.buckets[m];
      Partition& out = rt.output[m];
      if (passthrough) {
        // Already partitioned correctly: bucket r == m, no repartitioning
        // work, no framing overhead, reads will be node-local.
        if (may_move) {
          row[m] = std::move(out);
        } else {
          row[m] = copy_partition(out);
        }
        return;
      }
      a.extra_work[m] += static_cast<double>(out.size()) *
                         (combine ? kCombineWork : kBucketWork);
      if (combine) {
        // Map-side combine: pre-merge per (bucket, key) before the shuffle.
        dataplane::combine_scatter(out, *target, cplan.anchor->reduce_fn(),
                                   row);
      } else {
        dataplane::radix_scatter(out, *target, row);
        if (may_move) {
          out = Partition();  // release source records
        }
      }
    });

    std::uint64_t bytes = 0, nonempty = 0;
    for (const auto& row : so.buckets) {
      for (const auto& b : row) {
        bytes += b.bytes();
        if (!b.empty()) ++nonempty;
      }
    }
    if (!passthrough) {
      bytes += nonempty * cm_.bucket_header_bytes;
    }
    so.total_bytes = bytes;
    a.stage_shuffle_write += bytes;
    a.write_transactions += nonempty;
    a.pending.push_back(std::move(ps));
  }

  // Release output early when nobody else needs it.
  if (!keep_output && !plan.consumers.empty()) {
    rt.output.clear();
    rt.output.shrink_to_fit();
  }

  // ---- phase 3: price the stage on the simulated cluster -----------------
  sm.num_partitions = rt.num_tasks;
  if (rt.partitioner) sm.partitioner = rt.partitioner->kind();

  // Optional NIC incast contention: concurrent fetchers share the link.
  std::vector<double> node_fetch_share(eng_.cluster_.num_nodes(), 1.0);
  if (cm_.model_network_contention) {
    std::vector<std::size_t> tasks_on_node(eng_.cluster_.num_nodes(), 0);
    for (std::size_t p = 0; p < rt.num_tasks; ++p) {
      ++tasks_on_node[rt.task_node[p]];
    }
    for (std::size_t n = 0; n < eng_.cluster_.num_nodes(); ++n) {
      node_fetch_share[n] = static_cast<double>(std::max<std::size_t>(
          1, std::min(eng_.cluster_.node(n).cores, tasks_on_node[n])));
    }
  }

  a.durations.assign(rt.num_tasks, 0.0);
  a.fetch_portion.assign(rt.num_tasks, 0.0);
  a.compute_portion.assign(rt.num_tasks, 0.0);
  a.attempts.assign(rt.num_tasks, 1);
  a.spill_modeled.assign(rt.num_tasks, 0.0);
  // Per-task escalated fetch source (kNpos: none); resolved to the
  // earliest-ending escalation after list scheduling below.
  std::vector<std::size_t> esc_src(rt.num_tasks, kNpos);
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    const std::size_t n = rt.task_node[p];
    double duration =
        price_task(a.work[p], a.extra_work[p], n, node_fetch_share[n],
                   &a.fetch_portion[p], &a.compute_portion[p],
                   &a.spill_modeled[p]);

    // Transient fetch flakiness (DESIGN.md §14): each remote segment from a
    // flaky source fails a deterministic, seed-driven number of times in a
    // row. Every failure burns the detection timeout plus an exponential
    // backoff; a retry that goes on to succeed also re-pays the segment
    // transfer (counted in refetched_bytes, never in shuffle_read_remote).
    // A segment that exhausts max_fetch_attempts escalates: the attempt is
    // abandoned and the source's map outputs deregistered (run_stage).
    if (flaky_ && !a.work[p].remote_fetch.empty()) {
      const FlakySchedule& fl = eng_.options_.flaky_schedule;
      const double rescale = 1.0 / cm_.data_scale;
      double delay = 0.0;
      for (const auto& [src, bytes] : a.work[p].remote_fetch) {
        if (!fl.node_flaky(src)) continue;
        common::Xoshiro256 rng(common::hash_combine(
            common::hash_combine(common::hash_combine(fl.seed, sm.stage_id),
                                 sm.attempt_count),
            common::hash_combine(src, p + 1)));
        std::size_t fails = 0;
        while (fails < fl.max_fetch_attempts &&
               rng.next_double() < fl.fetch_failure_prob) {
          ++fails;
        }
        if (fails == 0) continue;
        a.work[p].fetch_retries += fails;
        for (std::size_t i = 1; i <= fails; ++i) {
          delay += fl.timeout_s + fl.backoff_s(i);
        }
        if (fails >= fl.max_fetch_attempts) {
          if (esc_src[p] == kNpos) esc_src[p] = src;
        } else {
          const double bw =
              std::min(eng_.cluster_.node(n).net_bw,
                       eng_.cluster_.node(src).net_bw) /
              node_fetch_share[n];
          delay += static_cast<double>(bytes) * rescale / bw *
                   static_cast<double>(fails);
          a.work[p].refetched_bytes += bytes * fails;
        }
      }
      if (delay > 0.0) {
        duration += delay;
        a.fetch_portion[p] += delay;
        if (tracing()) {
          obs::Event e;
          e.kind = obs::EventKind::kFetchRetry;
          e.job = ctx_.job_id;
          e.stage = sm.stage_id;
          e.plan_index = s;
          e.attempt = sm.attempt_count;
          e.task = p;
          e.node = n;
          e.count = a.work[p].fetch_retries;
          e.bytes = a.work[p].refetched_bytes;
          e.value = delay;
          emit(std::move(e));
        }
      }
    }

    // Deterministic fault injection: failed attempts burn a fraction of
    // the duration before Spark-style retry.
    if (eng_.options_.faults.task_failure_prob > 0.0) {
      common::Xoshiro256 frng(common::hash_combine(
          common::hash_combine(eng_.options_.faults.seed, sm.stage_id), p + 1));
      double total = 0.0;
      std::size_t attempt = 1;
      while (frng.next_double() < eng_.options_.faults.task_failure_prob) {
        if (attempt >= eng_.options_.faults.max_attempts) {
          throw JobAbortedError("task " + std::to_string(p) + " of stage " +
                                plan.name +
                                " exceeded max attempts (injected faults)");
        }
        total += duration * eng_.options_.faults.failed_attempt_fraction;
        ++attempt;
      }
      duration += total;
      a.attempts[p] = attempt;
    }
    a.durations[p] = duration;
  }

  // Speculative execution bounds straggler damage: any task far above the
  // stage median is assumed to get a backup copy.
  if (eng_.options_.speculation.enabled && rt.num_tasks > 1) {
    std::vector<double> sorted = a.durations;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double cap =
        median * eng_.options_.speculation.multiplier + cm_.task_launch_s;
    for (auto& d : a.durations) {
      if (d > cap) d = cap;
    }
  }

  // Earliest-available-slot list scheduling onto the simulated cluster.
  std::vector<std::vector<double>> slot_free(eng_.cluster_.num_nodes());
  for (std::size_t n = 0; n < eng_.cluster_.num_nodes(); ++n) {
    slot_free[n].assign(eng_.cluster_.node(n).cores, 0.0);
  }
  a.starts.assign(rt.num_tasks, 0.0);
  a.ends.assign(rt.num_tasks, 0.0);
  a.slots.assign(rt.num_tasks, 0);
  a.makespan = 0.0;
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    auto& slots = slot_free[rt.task_node[p]];
    auto slot = std::min_element(slots.begin(), slots.end());
    a.starts[p] = *slot;
    a.ends[p] = *slot + a.durations[p];
    a.slots[p] = static_cast<std::size_t>(slot - slots.begin());
    *slot = a.ends[p];
    a.makespan = std::max(a.makespan, a.ends[p]);
  }

  if (flaky_) {
    // Stage-level retry telemetry accumulates across every attempt, even
    // ones later discarded — the retries still burned simulated time.
    for (const TaskWork& tw : a.work) {
      sm.fetch_retries += tw.fetch_retries;
      sm.refetched_bytes += tw.refetched_bytes;
    }
    // The earliest-ending escalated task decides where the attempt dies.
    for (std::size_t p = 0; p < rt.num_tasks; ++p) {
      if (esc_src[p] == kNpos) continue;
      if (a.flaky_task == kNpos || a.ends[p] < a.ends[a.flaky_task]) {
        a.flaky_task = p;
        a.flaky_src = esc_src[p];
      }
    }
  }

  detect_oom(s, sm, a);
}

void JobRunner::detect_oom(std::size_t s, const StageMetrics& sm,
                           Attempt& a) const {
  const auto& rt = ctx_.rt[s];
  a.oom_task = kNpos;
  if (rt.num_tasks == 0) return;

  if (mem_) {
    // Enforced hard ceiling: a task whose modeled working set exceeds
    // (node memory / cores) * hard_ceiling dies. The first death (earliest
    // simulated end) kills the attempt.
    const double rescale = 1.0 / cm_.data_scale;
    const double ceiling_mult = eng_.options_.memory.hard_ceiling;
    for (std::size_t p = 0; p < rt.num_tasks; ++p) {
      const NodeSpec& node = eng_.cluster_.node(rt.task_node[p]);
      const double ceiling = static_cast<double>(node.memory_bytes) /
                             static_cast<double>(node.cores) * ceiling_mult;
      const double resident =
          static_cast<double>(a.work[p].bytes_in + a.work[p].bytes_out) *
          rescale;
      if (resident > ceiling &&
          (a.oom_task == kNpos || a.ends[p] < a.ends[a.oom_task])) {
        a.oom_task = p;
      }
    }
  }
  if (oom_inj_) {
    for (const auto& inj : eng_.options_.oom_schedule.ooms) {
      if (inj.stage_id != sm.stage_id || sm.attempt_count > inj.attempts) {
        continue;
      }
      const std::size_t victim = std::min(inj.task, rt.num_tasks - 1);
      if (a.oom_task == kNpos || a.ends[victim] < a.ends[a.oom_task]) {
        a.oom_task = victim;
      }
    }
  }
}

bool JobRunner::grow_stage_partitions(std::size_t s, StageMetrics& sm) {
  const StagePlan& plan = ctx_.plan.stages[s];
  auto& rt = ctx_.rt[s];
  const double growth = std::max(1.0, eng_.options_.memory.growth_factor);
  const std::size_t old_p = rt.num_tasks;
  std::size_t new_p =
      static_cast<std::size_t>(std::ceil(static_cast<double>(old_p) * growth));
  if (new_p <= old_p) new_p = old_p + 1;

  switch (plan.input) {
    case StageInputKind::kCache:
      // Task count pinned by the materialized blocks: cannot grow. The OOM
      // loop keeps retrying at the same P and aborts at the attempt bound.
      return false;

    case StageInputKind::kSource:
      // More input splits next attempt. Sources are deterministic per
      // (partition, count), so the regenerated data is simply re-split.
      if (!rt.scheme) return false;
      rt.scheme->num_partitions = new_p;
      rt.num_tasks = new_p;
      return true;

    case StageInputKind::kShuffle:
      break;  // handled below
  }

  // Shuffle input: grow the reduce side. The retained parent map outputs are
  // re-bucketed in place under a fresh partitioner with P' partitions — the
  // per-key merge order at the reducers equals the map-task order, which is
  // unchanged, so results stay bit-identical to an ample-memory run.
  // Gather every live parent row first (moving the old buckets out).
  struct RowBuf {
    ShuffleOutput* so = nullptr;
    std::size_t m = 0;
    Partition merged;
  };
  std::vector<RowBuf> rows;
  std::vector<ShuffleOutput*> outs;
  for (const std::size_t parent : plan.parent_stages) {
    const auto it = rt.shuffle_from_producer.find(parent);
    if (it == rt.shuffle_from_producer.end()) continue;
    ShuffleOutput& so = eng_.shuffles_.get_mutable(it->second);
    outs.push_back(&so);
    for (std::size_t m = 0; m < so.num_map_tasks; ++m) {
      if (!so.lost.empty() && so.lost[m]) continue;  // healed next attempt
      RowBuf rb;
      rb.so = &so;
      rb.m = m;
      for (auto& bucket : so.buckets[m]) rb.merged.absorb(std::move(bucket));
      rows.push_back(std::move(rb));
    }
  }
  if (outs.empty()) return false;

  std::vector<std::uint64_t> keys;
  if (rt.partitioner->kind() == PartitionerKind::kRange) {
    for (const auto& rb : rows) {
      if (rb.merged.empty()) continue;
      const std::size_t stride =
          std::max<std::size_t>(1, rb.merged.size() / 32);
      for (std::size_t i = 0; i < rb.merged.size(); i += stride) {
        keys.push_back(rb.merged.key(i));
      }
    }
  }
  auto grown =
      make_partitioner(rt.partitioner->kind(), new_p, std::move(keys));

  std::vector<std::size_t> nodes(rows.size());
  std::vector<TaskWork> works(rows.size());
  for (ShuffleOutput* so : outs) {
    so->partitioner = grown;
    so->passthrough = false;  // the re-bucketing below is a real shuffle
    for (auto& row : so->buckets) {
      row.assign(new_p, Partition());
    }
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    RowBuf& rb = rows[i];
    TaskWork& tw = works[i];
    tw.records_in = rb.merged.size();
    tw.bytes_in = rb.merged.bytes();
    nodes[i] = rb.so->map_node[rb.m];
    replay_bucket_row(*rb.so, rb.m, plan, rb.merged, tw);
    tw.records_out = tw.records_in;
    tw.bytes_out = tw.bytes_in;
  }
  for (ShuffleOutput* so : outs) {
    std::uint64_t bytes = 0, nonempty = 0;
    for (const auto& row : so->buckets) {
      for (const auto& b : row) {
        bytes += b.bytes();
        if (!b.empty()) ++nonempty;
      }
    }
    so->total_bytes = bytes + nonempty * cm_.bucket_header_bytes;
    // Every surviving row was re-bucketed in place: re-record its sum (lost
    // rows stay stale until their heal refreshes them).
    if (so->row_sum.size() == so->num_map_tasks) so->record_row_sums();
  }

  rt.partitioner = grown;
  if (rt.scheme) rt.scheme->num_partitions = new_p;
  rt.num_tasks = new_p;
  ctx_.partitioner_cache.emplace(
      std::make_pair(grown->kind(), new_p), grown);

  // The re-bucketing ran on the map nodes; price it as recovery time.
  price_recovery(nodes, works, sm);
  if (mem_) eng_.shuffles_.enforce_budget();  // row footprints changed
  return true;
}

void JobRunner::note_memory(std::size_t s, StageMetrics& sm,
                            const Attempt& a) {
  const auto& rt = ctx_.rt[s];
  const double rescale = 1.0 / cm_.data_scale;
  const std::size_t num_nodes = eng_.cluster_.num_nodes();

  // Task working-set spills (the bytes price_task sent through disk).
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    if (a.spill_modeled[p] > 0.0) {
      const auto b = static_cast<std::uint64_t>(a.spill_modeled[p]);
      // run_stage attributes the ledger delta back to sm.spilled_bytes.
      eng_.mem_ledger_.add_spill(rt.task_node[p], b);
    }
  }

  // Per-node resident peak estimate: cached blocks + in-memory shuffle rows
  // + the working sets of the tasks that can run concurrently (the largest
  // `cores` task footprints on the node).
  std::vector<std::vector<double>> ws(num_nodes);
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    ws[rt.task_node[p]].push_back(
        static_cast<double>(a.work[p].bytes_in + a.work[p].bytes_out));
  }
  for (std::size_t n = 0; n < num_nodes; ++n) {
    auto& v = ws[n];
    std::sort(v.begin(), v.end(), std::greater<double>());
    const std::size_t cores = eng_.cluster_.node(n).cores;
    double working = 0.0;
    for (std::size_t i = 0; i < std::min(cores, v.size()); ++i) working += v[i];
    const double resident_raw =
        static_cast<double>(eng_.block_manager_.used_bytes(n)) +
        static_cast<double>(eng_.shuffles_.resident_bytes(n)) + working;
    const auto modeled = static_cast<std::uint64_t>(resident_raw * rescale);
    eng_.mem_ledger_.note_resident(n, modeled);
    sm.peak_resident_bytes = std::max(sm.peak_resident_bytes, modeled);
  }
}

void JobRunner::commit_attempt(std::size_t s, StageMetrics& sm, Attempt& a) {
  const StagePlan& plan = ctx_.plan.stages[s];
  auto& rt = ctx_.rt[s];
  const double rescale = 1.0 / cm_.data_scale;

  // Commit cache materializations. `cache_ordinal` (the index within this
  // stage's commit order) is the checkpoint key — dataset ids are
  // process-local and do not survive a restart (engine/resume.h).
  std::size_t cache_ordinal = 0;
  for (const auto* ds : a.to_cache) {
    CachedDataset cd;
    cd.partitions = std::move(a.cache_snapshots[ds]);
    cd.placement = rt.task_node;
    // The snapshot is partitioned like the stage output only if every op
    // after the snapshot point... conservatively: anchor snapshots carry
    // the input partitioner, later snapshots carry none unless all prior
    // ops preserve partitioning; using the stage-level result is safe only
    // for the last snapshot, so be conservative for intermediate ones.
    cd.partitioner =
        (ds == plan.anchor && plan.input == StageInputKind::kShuffle)
            ? rt.partitioner
            : (!plan.narrow_ops.empty() && ds == plan.narrow_ops.back())
                  ? rt.output_partitioner
                  : nullptr;
    // Keep the lineage DAG alive so lost blocks can be recomputed after a
    // node failure, even if the user drops their dataset handle.
    cd.lineage = const_cast<Dataset*>(ds)->shared_from_this();
    for (const auto& p : cd.partitions) cd.bytes += p.bytes();
    if (integrity_) {
      // Record the clean sums first; an armed corruption then flips a byte
      // silently, to be caught by verify_cache_sums at the next read.
      cd.sums.resize(cd.partitions.size());
      for (std::size_t p = 0; p < cd.partitions.size(); ++p) {
        cd.sums[p] = cd.partitions[p].checksum();
      }
      if (corrupt_) fire_cache_corruption(ds->id(), cd);
    }
    if (tracing()) {
      obs::Event e;
      e.kind = obs::EventKind::kBlockStore;
      e.job = ctx_.job_id;
      e.stage = sm.stage_id;
      e.dataset = ds->id();
      e.name = ds->label();
      e.bytes = cd.bytes;
      e.count = cd.partitions.size();
      emit(std::move(e));
    }
    // Persist before publishing: the hook writes the block file now, the
    // kStageEnd WAL line that marks it committed is only emitted after
    // commit_attempt returns (run_stage).
    if (eng_.ckpt_hook_ != nullptr) {
      eng_.ckpt_hook_->on_cache_committed(ctx_.job_id, s, cache_ordinal, cd);
    }
    ++cache_ordinal;
    eng_.block_manager_.put(ds->id(), std::move(cd));
  }

  // Publish the shuffles this attempt wrote.
  for (auto& ps : a.pending) {
    if (integrity_) {
      ps.so.record_row_sums();
      if (corrupt_) fire_shuffle_corruption(sm.stage_id, ps.so);
    }
    ps.so.shuffle_id = eng_.shuffles_.next_id();
    auto& crt = ctx_.rt[ps.consumer];
    crt.shuffle_from_producer.emplace(s, ps.so.shuffle_id);
    rt.written.push_back({ps.so.shuffle_id, ps.consumer});
    ctx_.job_shuffle_ids.push_back(ps.so.shuffle_id);
    if (tracing()) {
      obs::Event e;
      e.kind = obs::EventKind::kShuffleWrite;
      e.job = ctx_.job_id;
      e.stage = sm.stage_id;
      e.plan_index = ps.consumer;  // flow target: the consuming stage
      e.shuffle = ps.so.shuffle_id;
      e.bytes = ps.so.total_bytes;
      e.count = ps.so.num_map_tasks;
      e.num_partitions = crt.num_tasks;
      if (ps.so.passthrough) e.flags |= obs::kFlagPassthrough;
      emit(std::move(e));
    }
    if (eng_.ckpt_hook_ != nullptr) {
      eng_.ckpt_hook_->on_shuffle_committed(ctx_.job_id, s, ps.consumer, ps.so);
    }
    eng_.shuffles_.put(std::move(ps.so));
  }
  a.pending.clear();

  // Task metrics + stage aggregates.
  sm.tasks.assign(rt.num_tasks, TaskMetrics{});
  sm.input_records = sm.input_bytes = 0;
  sm.output_records = sm.output_bytes = 0;
  sm.shuffle_read_bytes = 0;
  for (std::size_t p = 0; p < rt.num_tasks; ++p) {
    const TaskWork& tw = a.work[p];
    TaskMetrics& tm = sm.tasks[p];
    tm.task_index = p;
    tm.node = rt.task_node[p];
    tm.sim_start = a.starts[p];
    tm.sim_end = a.ends[p];
    tm.compute_s = a.compute_portion[p];
    tm.fetch_s = a.fetch_portion[p];
    tm.attempts = a.attempts[p];
    tm.fetch_retries = tw.fetch_retries;
    tm.records_in = tw.records_in;
    tm.records_out = tw.records_out;
    tm.bytes_in = tw.bytes_in;
    tm.bytes_out = tw.bytes_out;
    tm.shuffle_read_remote = tw.shuffle_read_remote;
    tm.shuffle_read_local = tw.shuffle_read_local;

    sm.input_records += tw.records_in;
    sm.input_bytes += tw.bytes_in;
    sm.output_records += tw.records_out;
    sm.output_bytes += tw.bytes_out;
    sm.shuffle_read_bytes += tw.shuffle_read_remote + tw.shuffle_read_local;
  }
  sm.shuffle_write_bytes = a.stage_shuffle_write;
  sm.sim_start_s = now();
  sm.sim_time_s = a.makespan;

  // Memory bookkeeping: task spills to the ledger, per-node resident peaks.
  note_memory(s, sm, a);

  // ---- timeline samples ---------------------------------------------------
  // Byte-valued samples are rescaled to the modeled system's volume, like
  // the pricing above, so Fig. 12/13 read in paper-scale terms.
  if (eng_.options_.record_timeline) {
    const double t0 = now();
    for (const auto& tm : sm.tasks) {
      eng_.timeline_.add_cpu_busy(t0 + tm.sim_start, t0 + tm.sim_end);
      if (tm.shuffle_read_remote > 0) {
        eng_.timeline_.add_network(
            t0 + tm.sim_start, t0 + tm.sim_start + tm.fetch_s,
            static_cast<std::uint64_t>(
                static_cast<double>(tm.shuffle_read_remote) * rescale));
      }
    }
    eng_.timeline_.add_transactions(t0, a.write_transactions + rt.num_tasks);
    eng_.timeline_.add_memory(
        t0, t0 + std::max(a.makespan, 1e-9),
        static_cast<std::uint64_t>(
            static_cast<double>(sm.input_bytes + sm.output_bytes +
                                eng_.block_manager_.total_bytes()) *
            rescale));
  }

  advance(a.makespan);

  // ---- result action -------------------------------------------------------
  if (plan.is_result) {
    if (ctx_.collect_records) {
      collect_records(rt.output, ctx_.result.records);
    }
    for (const auto& tm : sm.tasks) ctx_.result.count += tm.records_out;
    if (eng_.ckpt_hook_ != nullptr) {
      eng_.ckpt_hook_->on_result_committed(ctx_.job_id, s, rt.output);
    }
    rt.output.clear();
  }

  // ---- release consumed parent shuffles ------------------------------------
  // Classic mode only: retained-data jobs (failure schedule, memory budget,
  // OOM injection) keep every shuffle alive until job end so lineage replay
  // and attempt retries can re-read surviving map outputs.
  if (!retain_ && plan.input == StageInputKind::kShuffle) {
    for (const std::size_t parent : plan.parent_stages) {
      const auto it = rt.shuffle_from_producer.find(parent);
      if (it != rt.shuffle_from_producer.end()) {
        eng_.shuffles_.remove(it->second);
        rt.shuffle_from_producer.erase(it);
      }
    }
  }
}

void JobRunner::release_job_shuffles() {
  for (const std::size_t id : ctx_.job_shuffle_ids) eng_.shuffles_.remove(id);
  ctx_.job_shuffle_ids.clear();
}

// ---------------------------------------------------------------------------
// Failure machinery.
// ---------------------------------------------------------------------------

void JobRunner::fire_failure(std::size_t i, double at_time) {
  const NodeFailure& f = eng_.options_.failure_schedule.failures[i];
  auto& fs = eng_.failure_state_[i];
  fs.fired = true;
  if (f.node >= eng_.cluster_.num_nodes()) return;  // ignore bogus entries
  if (f.rejoin_after_s >= 0.0) fs.rejoin_at = at_time + f.rejoin_after_s;
  eng_.node_alive_[f.node] = 0;
  // The node's data dies with it: shuffle map outputs and cached blocks.
  LossReport lr = eng_.shuffles_.invalidate_node(f.node);
  lr += eng_.block_manager_.invalidate_node(f.node);
  job_metrics_.lost_bytes += lr.lost_bytes;
  if (tracing()) {
    // fire_failure runs before the clock is moved to the failure instant, so
    // stamp the event with at_time explicitly rather than now().
    obs::Event e;
    e.kind = obs::EventKind::kNodeDown;
    e.job = ctx_.job_id;
    e.node = f.node;
    e.count = lr.lost_tasks;
    e.lost_bytes = lr.lost_bytes;
    if (f.rejoin_after_s >= 0.0) e.value = f.rejoin_after_s;
    emit_at(at_time, std::move(e));
  }
}

void JobRunner::process_barrier_failures(std::size_t stage_global_id) {
  const auto& sched = eng_.options_.failure_schedule;
  // Rejoins first: a node whose rejoin time passed comes back (empty — its
  // data stays lost; only fresh tasks may land on it again).
  for (std::size_t i = 0; i < sched.failures.size(); ++i) {
    auto& fs = eng_.failure_state_[i];
    if (fs.fired && !fs.rejoined && fs.rejoin_at >= 0.0 &&
        now() >= fs.rejoin_at) {
      fs.rejoined = true;
      const std::size_t n = sched.failures[i].node;
      if (n < eng_.cluster_.num_nodes()) eng_.node_alive_[n] = 1;
      if (tracing()) {
        obs::Event e;
        e.kind = obs::EventKind::kNodeUp;
        e.job = ctx_.job_id;
        e.node = n;
        emit(std::move(e));
      }
    }
  }
  for (std::size_t i = 0; i < sched.failures.size(); ++i) {
    const NodeFailure& f = sched.failures[i];
    if (eng_.failure_state_[i].fired) continue;
    const bool stage_hit =
        f.at_stage_id >= 0 &&
        static_cast<std::size_t>(f.at_stage_id) <= stage_global_id;
    const bool time_hit = f.at_sim_time >= 0.0 && now() >= f.at_sim_time;
    if (stage_hit || time_hit) fire_failure(i, now());
  }
}

bool JobRunner::stage_depends_on_node(std::size_t s, std::size_t node) const {
  const StagePlan& plan = ctx_.plan.stages[s];
  const auto& rt = ctx_.rt[s];
  for (const std::size_t n : rt.task_node) {
    if (n == node) return true;
  }
  if (plan.input == StageInputKind::kShuffle) {
    for (const std::size_t parent : plan.parent_stages) {
      const auto it = rt.shuffle_from_producer.find(parent);
      if (it == rt.shuffle_from_producer.end()) continue;
      const ShuffleOutput& so = eng_.shuffles_.get(it->second);
      for (std::size_t m = 0; m < so.num_map_tasks; ++m) {
        if (so.map_node[m] == node && (so.lost.empty() || !so.lost[m])) {
          return true;
        }
      }
    }
  } else if (plan.input == StageInputKind::kCache) {
    const BlockManager::Pin pin = eng_.block_manager_.pin(plan.anchor->id());
    if (pin) {
      auto g = eng_.block_manager_.guard();
      for (std::size_t p = 0; p < pin->placement.size(); ++p) {
        if (pin->placement[p] == node &&
            (pin->available.empty() || pin->available[p])) {
          return true;
        }
      }
    }
  }
  return false;
}

bool JobRunner::scan_window_failures(std::size_t s, StageMetrics& sm,
                                     double makespan) {
  const auto& sched = eng_.options_.failure_schedule;
  const double attempt_start = now();
  const double window_end = attempt_start + makespan;
  constexpr std::size_t npos = static_cast<std::size_t>(-1);

  for (;;) {
    // Earliest unfired sim-time failure strictly inside the attempt window.
    std::size_t best = npos;
    double best_t = window_end;
    for (std::size_t i = 0; i < sched.failures.size(); ++i) {
      const NodeFailure& f = sched.failures[i];
      if (eng_.failure_state_[i].fired || f.at_sim_time < 0.0) continue;
      if (f.at_sim_time > attempt_start && f.at_sim_time < window_end &&
          (best == npos || f.at_sim_time < best_t)) {
        best = i;
        best_t = f.at_sim_time;
      }
    }
    if (best == npos) return false;

    // Decide whether this attempt even notices the death *before* firing it
    // (firing marks the data lost, which would taint the test).
    const bool affects = stage_depends_on_node(s, sched.failures[best].node);
    fire_failure(best, best_t);
    if (affects) {
      // Fetch failure / executor loss mid-stage: the attempt dies at the
      // failure instant; everything it ran so far is wasted sim time.
      set_now(best_t);
      sm.recovery_time_s += best_t - attempt_start;
      if (tracing()) {
        obs::Event e;
        e.kind = obs::EventKind::kFetchFailure;
        e.job = ctx_.job_id;
        e.stage = sm.stage_id;
        e.plan_index = s;
        e.node = sched.failures[best].node;
        e.value = best_t - attempt_start;  // wasted attempt time
        emit(std::move(e));
      }
      return true;
    }
    // A node nobody in this stage touches: the stage sails on; keep
    // scanning the rest of the window.
  }
}

// ---------------------------------------------------------------------------
// Node health scoreboard + block integrity (DESIGN.md §14).
// ---------------------------------------------------------------------------

void JobRunner::record_strike(std::size_t node, HealthStrike kind,
                              StageMetrics& sm) {
  if (!health_active()) return;
  if (!eng_.health_.record(node, kind, now())) return;
  ++sm.node_exclusions;
  if (tracing()) {
    obs::Event e;
    e.kind = obs::EventKind::kNodeExcluded;
    e.job = ctx_.job_id;
    e.stage = sm.stage_id;
    e.node = node;
    switch (kind) {
      case HealthStrike::kFetch:
        e.detail = "fetch";
        break;
      case HealthStrike::kTask:
        e.detail = "task";
        break;
      case HealthStrike::kChecksum:
        e.detail = "checksum";
        break;
    }
    const auto stats = eng_.health_.snapshot();
    if (node < stats.size()) {
      e.count = stats[node].exclusion_count;
      e.value = stats[node].readmit_at - now();  // exclusion window length
    }
    emit(std::move(e));
  }
}

void JobRunner::sweep_health() {
  for (const std::size_t n : eng_.health_.sweep(now())) {
    if (tracing()) {
      obs::Event e;
      e.kind = obs::EventKind::kNodeReadmitted;
      e.job = ctx_.job_id;
      e.node = n;
      emit(std::move(e));
    }
  }
}

void JobRunner::verify_shuffle_sums(ShuffleOutput& so, StageMetrics& sm) {
  if (so.row_sum.size() != so.num_map_tasks) return;  // sums never recorded
  for (std::size_t m = 0; m < so.num_map_tasks; ++m) {
    if (!so.lost.empty() && so.lost[m]) continue;  // lost row: sum is stale
    if (so.compute_row_sum(m) == so.row_sum[m]) continue;
    // Silent corruption detected: poison exactly this row — mark it lost so
    // the standard lineage replay rebuilds it (and refreshes its sum).
    if (so.lost.size() != so.num_map_tasks) so.lost.assign(so.num_map_tasks, 0);
    std::uint64_t dropped = 0;
    for (auto& bucket : so.buckets[m]) {
      dropped += bucket.bytes();
      bucket = Partition();
    }
    so.lost[m] = 1;
    ++sm.checksum_failures;
    record_strike(so.map_node[m], HealthStrike::kChecksum, sm);
    if (tracing()) {
      obs::Event e;
      e.kind = obs::EventKind::kChecksumFail;
      e.job = ctx_.job_id;
      e.stage = sm.stage_id;
      e.shuffle = so.shuffle_id;
      e.task = m;
      e.node = so.map_node[m];
      e.bytes = dropped;
      emit(std::move(e));
    }
  }
}

void JobRunner::verify_cache_sums(const Dataset* anchor, StageMetrics& sm) {
  BlockManager::Pin pin = eng_.block_manager_.pin(anchor->id());
  CachedDataset* cd = pin.mutable_get();
  if (cd == nullptr) return;
  auto g = eng_.block_manager_.guard();
  if (cd->sums.size() != cd->partitions.size()) return;
  for (std::size_t p = 0; p < cd->partitions.size(); ++p) {
    if (!cd->available.empty() && !cd->available[p]) continue;  // stale sum
    if (cd->partitions[p].checksum() == cd->sums[p]) continue;
    // Drop the poisoned block; the standard cache heal recomputes it from
    // lineage and refreshes the sum.
    if (cd->available.size() != cd->partitions.size()) {
      cd->available.assign(cd->partitions.size(), 1);
    }
    const std::uint64_t dropped = cd->partitions[p].bytes();
    cd->bytes -= std::min(cd->bytes, dropped);
    cd->partitions[p] = Partition();
    cd->available[p] = 0;
    ++sm.checksum_failures;
    const std::size_t node = p < cd->placement.size() ? cd->placement[p] : 0;
    record_strike(node, HealthStrike::kChecksum, sm);
    if (tracing()) {
      obs::Event e;
      e.kind = obs::EventKind::kChecksumFail;
      e.job = ctx_.job_id;
      e.stage = sm.stage_id;
      e.dataset = anchor->id();
      e.task = p;
      e.node = node;
      e.bytes = dropped;
      emit(std::move(e));
    }
  }
}

void JobRunner::fire_shuffle_corruption(std::size_t stage_global_id,
                                        ShuffleOutput& so) {
  const auto& sched = eng_.options_.corruption_schedule;
  for (std::size_t i = 0; i < sched.corruptions.size(); ++i) {
    const CorruptionInjection& inj = sched.corruptions[i];
    if (eng_.corruption_fired_[i] ||
        inj.target != CorruptionInjection::Target::kShuffleRow ||
        inj.stage_id != stage_global_id || so.num_map_tasks == 0) {
      continue;
    }
    const std::size_t m = std::min(inj.task, so.num_map_tasks - 1);
    for (auto& bucket : so.buckets[m]) {
      if (bucket.empty()) continue;
      eng_.corruption_fired_[i] = 1;
      bucket.corrupt_byte(inj.byte_offset);
      break;
    }
  }
}

void JobRunner::fire_cache_corruption(std::size_t dataset_id,
                                      CachedDataset& cd) {
  const auto& sched = eng_.options_.corruption_schedule;
  for (std::size_t i = 0; i < sched.corruptions.size(); ++i) {
    const CorruptionInjection& inj = sched.corruptions[i];
    if (eng_.corruption_fired_[i] ||
        inj.target != CorruptionInjection::Target::kCachedBlock ||
        inj.dataset_id != dataset_id || cd.partitions.empty()) {
      continue;
    }
    const std::size_t victim = std::min(inj.task, cd.partitions.size() - 1);
    if (cd.partitions[victim].empty()) continue;
    eng_.corruption_fired_[i] = 1;
    cd.partitions[victim].corrupt_byte(inj.byte_offset);
  }
}

// ---------------------------------------------------------------------------
// Lineage recovery.
// ---------------------------------------------------------------------------

void JobRunner::recover_stage_inputs(std::size_t s, StageMetrics& sm) {
  const StagePlan& plan = ctx_.plan.stages[s];
  auto& rt = ctx_.rt[s];
  if (plan.input == StageInputKind::kShuffle) {
    for (const std::size_t parent : plan.parent_stages) {
      const auto it = rt.shuffle_from_producer.find(parent);
      if (it == rt.shuffle_from_producer.end()) continue;
      ShuffleOutput& so = eng_.shuffles_.get_mutable(it->second);
      if (integrity_) verify_shuffle_sums(so, sm);
      if (so.has_lost_tasks()) recover_map_tasks(parent, sm);
    }
  } else if (plan.input == StageInputKind::kCache) {
    if (integrity_) verify_cache_sums(plan.anchor, sm);
    BlockManager::Pin pin = eng_.block_manager_.pin(plan.anchor->id());
    bool incomplete = false;
    if (pin) {
      auto g = eng_.block_manager_.guard();
      incomplete = !pin->complete();
    }
    // Drop the pin before healing: the wholesale recovery path re-puts the
    // dataset under the same id.
    pin.reset();
    if (incomplete) recover_cached_blocks(plan.anchor, sm);
  }
}

void JobRunner::recover_map_tasks(std::size_t producer, StageMetrics& sm) {
  auto& prt = ctx_.rt[producer];
  const StagePlan& pplan = ctx_.plan.stages[producer];

  // The producer's own inputs must be healthy before replay reads them
  // (recursive: a failure may have cut multiple lineage levels at once).
  recover_stage_inputs(producer, sm);

  // Live shuffles the producer wrote, and the union of their lost rows.
  std::vector<ShuffleOutput*> outs;
  std::vector<std::size_t> out_consumer;
  for (const auto& w : prt.written) {
    if (!eng_.shuffles_.contains(w.shuffle_id)) continue;
    outs.push_back(&eng_.shuffles_.get_mutable(w.shuffle_id));
    out_consumer.push_back(w.consumer);
  }
  std::vector<std::size_t> lost_idx;
  for (std::size_t m = 0; m < prt.num_tasks; ++m) {
    for (ShuffleOutput* so : outs) {
      if (!so->lost.empty() && so->lost[m]) {
        lost_idx.push_back(m);
        break;
      }
    }
  }
  if (lost_idx.empty()) return;

  // Pin: the replay loop below reads the cached partitions from the thread
  // pool, long after this statement — a raw get() pointer could be freed by
  // a concurrent job's eviction mid-replay.
  BlockManager::Pin cache_pin;
  const CachedDataset* cached = nullptr;
  if (pplan.input == StageInputKind::kCache) {
    cache_pin = eng_.block_manager_.pin(pplan.anchor->id());
    cached = cache_pin.get();
    if (cached == nullptr) {
      throw std::logic_error("recovery: cache anchor vanished for " +
                             pplan.name);
    }
  }
  std::vector<ShuffleOutput*> parents;
  if (pplan.input == StageInputKind::kShuffle) {
    for (const std::size_t parent : pplan.parent_stages) {
      const auto it = prt.shuffle_from_producer.find(parent);
      if (it == prt.shuffle_from_producer.end()) {
        throw std::logic_error("recovery: parent shuffle released for " +
                               pplan.name);
      }
      parents.push_back(&eng_.shuffles_.get_mutable(it->second));
    }
  }

  // Replay each lost pipeline task on a surviving node and rewrite its
  // bucket row in every live shuffle that lost it. Rows of distinct map
  // tasks are disjoint, so the replays run in parallel.
  std::vector<std::size_t> new_node(lost_idx.size());
  for (std::size_t i = 0; i < lost_idx.size(); ++i) {
    new_node[i] = eng_.node_for(lost_idx[i], prt.num_tasks);
  }
  std::vector<TaskWork> works(lost_idx.size());
  common::parallel_for(*eng_.pool_, lost_idx.size(), [&](std::size_t i) {
    const std::size_t m = lost_idx[i];
    TaskWork& tw = works[i];
    Partition out = read_stage_input(producer, m, new_node[i], cached, parents,
                                     /*consume=*/false, tw);
    for (const auto* op : pplan.narrow_ops) {
      out = apply_narrow_op(*op, std::move(out), m, tw);
    }
    tw.records_out = out.size();
    tw.bytes_out = out.bytes();
    for (std::size_t oi = 0; oi < outs.size(); ++oi) {
      ShuffleOutput* so = outs[oi];
      if (so->lost.empty() || !so->lost[m]) continue;
      replay_bucket_row(*so, m, ctx_.plan.stages[out_consumer[oi]], out, tw);
    }
  });

  // Sequential post-pass: clear the lost flags, re-home the map tasks.
  for (std::size_t i = 0; i < lost_idx.size(); ++i) {
    const std::size_t m = lost_idx[i];
    for (ShuffleOutput* so : outs) {
      if (!so->lost.empty() && so->lost[m]) {
        so->lost[m] = 0;
        so->map_node[m] = new_node[i];
        // The replayed row lives in memory on its new home node; any spill
        // flag belonged to the old (dead) copy.
        if (!so->on_disk.empty()) so->on_disk[m] = 0;
        // The heal rewrote the row bit-identically: refresh its integrity
        // sum so the next verification pass accepts it.
        so->refresh_row_sum(m);
      }
    }
    sm.recomputed_tasks += 1;
    sm.recomputed_bytes += works[i].bytes_out;
    if (tracing()) {
      obs::Event e;
      e.kind = obs::EventKind::kShuffleReplay;
      e.job = ctx_.job_id;
      e.stage = sm.stage_id;
      e.task = m;
      e.node = new_node[i];
      e.bytes = works[i].bytes_out;
      emit(std::move(e));
    }
  }
  price_recovery(new_node, works, sm);
  if (mem_) eng_.shuffles_.enforce_budget();  // replays re-inflate map nodes
}

void JobRunner::replay_bucket_row(ShuffleOutput& so, std::size_t m,
                                  const StagePlan& cplan, const Partition& out,
                                  TaskWork& tw) {
  auto& row = so.buckets[m];
  const auto& target = so.partitioner;
  for (auto& b : row) b = Partition();
  if (so.passthrough) {
    row[m] = copy_partition(out);
    return;
  }
  const bool combine = eng_.options_.map_side_combine &&
                       cplan.anchor->op() == OpKind::kReduceByKey &&
                       static_cast<bool>(cplan.anchor->reduce_fn());
  tw.work_units +=
      static_cast<double>(out.size()) * (combine ? kCombineWork : kBucketWork);
  if (combine) {
    // Must re-combine exactly as the original map task did so the replayed
    // row is bit-identical to the lost one.
    dataplane::combine_scatter(out, *target, cplan.anchor->reduce_fn(), row);
  } else {
    dataplane::radix_scatter(out, *target, row);
  }
}

void JobRunner::price_recovery(const std::vector<std::size_t>& nodes,
                               const std::vector<TaskWork>& works,
                               StageMetrics& sm) {
  std::vector<std::vector<double>> slot_free(eng_.cluster_.num_nodes());
  for (std::size_t n = 0; n < eng_.cluster_.num_nodes(); ++n) {
    slot_free[n].assign(eng_.cluster_.node(n).cores, 0.0);
  }
  double makespan = 0.0;
  const double t0 = now();
  for (std::size_t i = 0; i < works.size(); ++i) {
    const double d =
        price_task(works[i], 0.0, nodes[i], 1.0, nullptr, nullptr);
    auto& slots = slot_free[nodes[i]];
    auto slot = std::min_element(slots.begin(), slots.end());
    const double start = *slot;
    const double end = start + d;
    *slot = end;
    makespan = std::max(makespan, end);
    if (eng_.options_.record_timeline) {
      eng_.timeline_.add_cpu_busy(t0 + start, t0 + end);
    }
  }
  advance(makespan);
  sm.recovery_time_s += makespan;
}

void JobRunner::recover_cached_blocks(const Dataset* anchor, StageMetrics& sm) {
  // Pin for the whole heal: the dataset's object must outlive every access
  // below (the narrow path writes healed blocks back into it).
  BlockManager::Pin pin = eng_.block_manager_.pin(anchor->id());
  CachedDataset* cd = pin.mutable_get();
  if (cd == nullptr) return;
  std::vector<std::size_t> missing;
  std::size_t n_parts = 0;
  {
    auto g = eng_.block_manager_.guard();
    if (cd->complete()) return;
    missing = cd->missing();
    n_parts = cd->partitions.size();
  }
  // Every missing partition is a cache miss: the read only proceeds after
  // lineage recomputes it (DESIGN.md §17).
  sm.cache_misses += missing.size();

  // Fine-grained path: the cached node sits on a purely narrow chain above
  // a source or another materialized cache — recompute exactly the lost
  // blocks (narrow ops are deterministic per (partition, count), so block m
  // is reproduced bit-for-bit).
  const Dataset* node = cd->lineage ? cd->lineage.get() : anchor;
  std::vector<const Dataset*> chain;  // ops top-down; applied in reverse
  const Dataset* base = node;
  bool narrow_ok = true;
  bool cache_base = false;
  while (base->op() != OpKind::kSource) {
    if (base != node && base->cached() &&
        eng_.block_manager_.contains(base->id())) {
      cache_base = true;
      break;
    }
    if (!is_narrow_kind(base->op()) || base->parents().empty()) {
      narrow_ok = false;
      break;
    }
    chain.push_back(base);
    base = base->parents().front().get();
  }
  if (narrow_ok && cache_base) {
    const BlockManager::Pin bpin = eng_.block_manager_.pin(base->id());
    if (!bpin || bpin->partitions.size() != n_parts) {
      narrow_ok = false;  // partition counts diverge: rebuild wholesale
    }
  }

  if (narrow_ok) {
    BlockManager::Pin base_pin;
    if (cache_base) {
      // Pin first so a concurrent job's eviction scan cannot re-evict the
      // base while we heal and copy from it, then heal (recursion bottoms
      // out at sources).
      base_pin = eng_.block_manager_.pin(base->id());
      recover_cached_blocks(base, sm);
    }
    const CachedDataset* bcd = cache_base ? base_pin.get() : nullptr;
    std::vector<std::size_t> new_node(missing.size());
    for (std::size_t i = 0; i < missing.size(); ++i) {
      new_node[i] = eng_.node_for(missing[i], n_parts);
    }
    std::vector<TaskWork> works(missing.size());
    std::vector<Partition> rebuilt(missing.size());
    common::parallel_for(*eng_.pool_, missing.size(), [&](std::size_t i) {
      const std::size_t m = missing[i];
      TaskWork& tw = works[i];
      Partition part;
      if (cache_base) {
        part = copy_partition(bcd->partitions[m]);
        tw.local_fetch_bytes += part.bytes();
        tw.work_units += static_cast<double>(part.size()) * kCacheReadWork;
      } else {
        part = base->source_fn()(m, n_parts);
        tw.work_units += static_cast<double>(part.size()) * kSourceGenWork;
      }
      tw.records_in = part.size();
      tw.bytes_in = part.bytes();
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        part = apply_narrow_op(**it, std::move(part), m, tw);
      }
      tw.records_out = part.size();
      tw.bytes_out = part.bytes();
      rebuilt[i] = std::move(part);
    });
    {
      auto g = eng_.block_manager_.guard();
      for (std::size_t i = 0; i < missing.size(); ++i) {
        const std::size_t m = missing[i];
        // A concurrent job may have healed this block while we rebuilt it;
        // the winner's copy is bit-identical, so just discard ours.
        if (cd->available[m]) continue;
        cd->partitions[m] = std::move(rebuilt[i]);
        cd->available[m] = 1;
        cd->placement[m] = new_node[i];
        cd->bytes += cd->partitions[m].bytes();
        if (cd->sums.size() == cd->partitions.size()) {
          cd->sums[m] = cd->partitions[m].checksum();
        }
        sm.recomputed_tasks += 1;
        sm.recomputed_bytes += works[i].bytes_out;
        if (tracing()) {
          obs::Event e;
          e.kind = obs::EventKind::kBlockHeal;
          e.job = ctx_.job_id;
          e.stage = sm.stage_id;
          e.dataset = anchor->id();
          e.task = m;
          e.node = new_node[i];
          e.bytes = works[i].bytes_out;
          emit(std::move(e));
        }
      }
    }
    price_recovery(new_node, works, sm);
    return;
  }

  // Wide lineage (or no usable chain): re-materialize the whole cached
  // dataset as an internal sub-job — its stages land on surviving nodes and
  // its sim time is charged as recovery.
  std::shared_ptr<Dataset> lineage = cd->lineage;
  if (!lineage) {
    throw JobAbortedError("lost cached block of '" + anchor->label() +
                          "' has no recorded lineage to replay");
  }
  const double sim_before = eng_.sim_clock_;
  pin.reset();  // release before remove: the rebuild re-puts under this id
  eng_.block_manager_.remove(anchor->id());
  eng_.run_job(lineage, /*collect_records=*/false,
               "recovery:" + anchor->label());
  const BlockManager::Pin npin = eng_.block_manager_.pin(anchor->id());
  const CachedDataset* ncd = npin.get();
  if (ncd == nullptr) {
    throw JobAbortedError("recovery job failed to rematerialize '" +
                          anchor->label() + "'");
  }
  // Recovery sub-jobs always run on the engine clock (failure schedules are
  // a single-job-mode feature; the service rejects engines that enable one).
  sm.recovery_time_s += eng_.sim_clock_ - sim_before;
  auto g = eng_.block_manager_.guard();
  for (const std::size_t m : missing) {
    if (m < ncd->partitions.size()) {
      sm.recomputed_tasks += 1;
      sm.recomputed_bytes += ncd->partitions[m].bytes();
      if (tracing()) {
        obs::Event e;
        e.kind = obs::EventKind::kBlockHeal;
        e.job = ctx_.job_id;
        e.stage = sm.stage_id;
        e.dataset = anchor->id();
        e.task = m;
        e.bytes = ncd->partitions[m].bytes();
        e.detail = "wholesale";
        emit(std::move(e));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine::run_job
// ---------------------------------------------------------------------------

JobResult Engine::run_job(const DatasetPtr& root, bool collect_records,
                          std::string job_name, const JobControl* control) {
  JobContext ctx;
  {
    // Plan building reads/extends the shared repartition-insertion memo;
    // concurrent service submissions serialize here.
    std::lock_guard lock(plan_mu_);
    ctx.plan = build_job_plan(root, block_manager_, plan_provider_.get(),
                              &inserted_repartitions_);
    // Cache-plan hook (DESIGN.md §17): score the fresh plan's cache
    // candidates before any stage runs, so the storage budget follows the
    // planner's priorities from this job's first eviction on.
    if (cache_advisor_ != nullptr) {
      block_manager_.merge_cache_plan(
          cache_advisor_->advise(ctx.plan, job_name));
    }
  }
  constexpr auto kNoId = static_cast<std::size_t>(-1);
  ctx.job_id = (control != nullptr && control->job_id != kNoId)
                   ? control->job_id
                   : next_job_id_.fetch_add(1, std::memory_order_relaxed);
  ctx.name = std::move(job_name);
  ctx.collect_records = collect_records;
  ctx.control = control;
  ctx.vclock = control != nullptr ? control->start_time : 0.0;
  ctx.rt.resize(ctx.plan.stages.size());
  JobRunner runner(*this, ctx);
  return runner.run();
}

}  // namespace chopper::engine
