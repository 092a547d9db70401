// Engine: the minispark execution context (SparkContext analogue).
//
// Owns the cluster description, cost model, thread pool, shuffle and block
// managers, metrics registry and the resource timeline. Actions (count /
// collect) submit jobs: the lineage is cut into stages, stages execute in
// topological order with a global barrier between them, and every stage
// produces a StageMetrics row.
//
// Tasks run *for real* on a host thread pool (real records through real
// partitioners); their measured work is then priced by the CostModel onto
// the configured cluster to produce deterministic simulated times. See
// DESIGN.md §5.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "engine/block_manager.h"
#include "engine/cluster.h"
#include "engine/cost_model.h"
#include "engine/dataset.h"
#include "engine/fault.h"
#include "engine/health.h"
#include "engine/metrics.h"
#include "engine/plan.h"
#include "engine/shuffle.h"

namespace chopper::obs {
class EventLog;
}

namespace chopper::engine {

class CheckpointHook;  // engine/resume.h
struct ResumeLedger;   // engine/resume.h

/// Spark-3-AQE-style runtime partition coalescing: when no plan provider
/// overrides a stage's scheme, size the reduce side from the *observed* map
/// output volume instead of the static default. Included as the modern
/// baseline CHOPPER should be compared against (it post-dates the paper).
struct AdaptiveCoalescing {
  bool enabled = false;
  /// Reduce partitions = clamp(ceil(map_output_bytes / target), min, max).
  /// Bytes are compared after CostModel::data_scale rescaling, so the target
  /// is expressed at the modeled system's scale (Spark's default is 64 MiB).
  std::uint64_t target_partition_bytes = 64ULL << 20;
  std::size_t min_partitions = 1;
  std::size_t max_partitions = 10'000;
};

/// Deterministic fault injection for the simulated cluster. Failures never
/// corrupt results (the real computation always completes); they model the
/// *time* cost of Spark's task retries: each failed attempt burns
/// `failed_attempt_fraction` of the task's duration before the retry.
struct FaultInjection {
  double task_failure_prob = 0.0;  ///< per-attempt failure probability
  std::size_t max_attempts = 4;    ///< attempts before the job aborts
  double failed_attempt_fraction = 0.6;
  std::uint64_t seed = 0x5eed;
};

/// Speculative execution (spark.speculation): a task whose duration exceeds
/// `multiplier` x the stage median is assumed to get a backup copy; its
/// effective duration becomes min(original, median * multiplier + launch).
/// This is what bounds straggler damage from skewed partitions.
struct Speculation {
  bool enabled = false;
  double multiplier = 1.5;
};

/// Enforced per-node memory budgets (DESIGN.md §11). When `enforce` is on,
/// node memory stops being a purely-synthetic pricing input: the
/// BlockManager LRU-evicts unpinned cached partitions past the storage
/// budget (healed on demand via PR-1 lineage recovery), the ShuffleManager
/// spills map-output rows past the shuffle budget to a simulated disk tier,
/// and a task whose working set exceeds the per-slot budget times
/// `hard_ceiling` kills its stage attempt with an OOM. After
/// `oom_repartition_after` consecutive OOMed attempts the scheduler retries
/// the stage with `P' = ceil(P * growth_factor)` partitions — degraded but
/// alive instead of dead. All byte comparisons happen in modeled bytes
/// (raw bytes / CostModel::data_scale) against NodeSpec::memory_bytes.
struct MemoryLimits {
  bool enforce = false;
  /// OOM when a task's modeled working set exceeds
  /// (memory_bytes / cores) * hard_ceiling. The spill penalty starts at
  /// spill_fraction of the same per-slot budget, so spill < ceiling models
  /// the "slow then dead" progression of a real executor.
  double hard_ceiling = 1.0;
  /// Fraction of node memory available to cached blocks (storage tier).
  double storage_fraction = 0.5;
  /// Fraction of node memory available to in-memory shuffle rows.
  double shuffle_fraction = 0.3;
  /// Consecutive OOMed attempts of one stage before the scheduler grows the
  /// stage's partition count instead of retrying at the same P.
  std::size_t oom_repartition_after = 2;
  /// Partition growth on adaptive repartition: P' = ceil(P * growth_factor).
  double growth_factor = 1.5;
};

struct EngineOptions {
  /// Default number of partitions when neither the operator nor the active
  /// partition plan specifies one (spark.default.parallelism). The paper's
  /// vanilla baseline uses 300.
  std::size_t default_parallelism = 300;
  CostModel cost_model;
  /// Host threads used to actually execute tasks (0 = hardware concurrency).
  std::size_t host_threads = 0;
  /// Record per-second utilization samples (Fig. 11-14).
  bool record_timeline = true;
  /// Map-side combine for reduceByKey (Spark's combiner, DESIGN.md §13):
  /// pre-merges map output per (bucket, key) before it reaches the shuffle,
  /// shrinking shuffle bytes. Final results are identical either way; off
  /// routes all reduction to the reduce-side merge.
  bool map_side_combine = true;
  AdaptiveCoalescing adaptive;
  FaultInjection faults;
  /// Whole-node failures with real data loss + lineage recovery (fault.h).
  FailureSchedule failure_schedule;
  /// Enforced memory budgets: eviction, spill-to-disk, OOM (DESIGN.md §11).
  MemoryLimits memory;
  /// Deterministic task-OOM injection (fault.h), orthogonal to `memory`.
  OomSchedule oom_schedule;
  /// Transient shuffle-fetch flakiness with backoff retry (DESIGN.md §14).
  FlakySchedule flaky_schedule;
  /// Deterministic silent corruption; arms block integrity checksums.
  CorruptionSchedule corruption_schedule;
  /// Compute/verify block checksums even without a corruption schedule
  /// (costs a hash pass per published row; detection-only, nothing to heal).
  bool integrity_checksums = false;
  /// Node health scoreboard / placement-exclusion policy (fault.h).
  NodeHealthPolicy health;
  Speculation speculation;
};

struct JobResult {
  std::size_t job_id = 0;
  std::string name;
  double sim_time_s = 0.0;
  double wall_time_s = 0.0;
  std::uint64_t count = 0;           ///< for count actions
  std::vector<Record> records;       ///< for collect actions
  std::vector<std::size_t> stage_ids;

  // Fault-tolerance telemetry (mirrors the JobMetrics row).
  std::size_t stage_attempts = 0;     ///< total stage executions (>= #stages)
  std::size_t recomputed_tasks = 0;   ///< tasks replayed from lineage
  std::uint64_t lost_bytes = 0;       ///< data destroyed by node failures
  std::uint64_t recomputed_bytes = 0; ///< bytes regenerated by replay
  double recovery_time_s = 0.0;       ///< sim seconds spent recovering

  // Memory telemetry (mirrors the JobMetrics row; modeled bytes).
  std::size_t oom_count = 0;          ///< stage attempts killed by OOM
  std::uint64_t evicted_bytes = 0;    ///< cached bytes LRU-evicted
  std::uint64_t spilled_bytes = 0;    ///< bytes pushed to the disk tier
  std::uint64_t peak_resident_bytes = 0;  ///< max per-node resident estimate

  // Transient-fault telemetry (mirrors the JobMetrics row; DESIGN.md §14).
  std::size_t fetch_retries = 0;      ///< flaky fetches retried in place
  std::uint64_t refetched_bytes = 0;  ///< bytes re-transferred by retries
  std::size_t checksum_failures = 0;  ///< corrupted pieces detected + healed
  std::size_t node_exclusions = 0;    ///< health exclusions fired

  // Checkpoint-resume telemetry (mirrors the JobMetrics row; DESIGN.md §16).
  // Provenance, not results — identity digests exclude these, like
  // wall_time_s.
  std::size_t resumed_stages = 0;     ///< stages adopted from the WAL
  std::uint64_t replayed_events = 0;  ///< WAL events decoded during recovery
  std::uint64_t restored_bytes = 0;   ///< block-file payload bytes restored
  double recovery_wall_s = 0.0;       ///< host seconds spent recovering

  // Cache telemetry (mirrors the JobMetrics row; DESIGN.md §17).
  std::size_t cache_hits = 0;         ///< cached partitions read resident
  std::size_t cache_misses = 0;       ///< cached partitions healed before read
  std::uint64_t recompute_saved_bytes = 0;  ///< bytes served from residency
  std::size_t evictions_lru = 0;      ///< evictions chosen by LRU order
  std::size_t evictions_cost = 0;     ///< evictions chosen by planner priority
};

/// A job aborted (injected-fault retry budget exhausted, stage-attempt bound
/// hit, or no surviving node to run on). The engine's shuffle outputs for the
/// job are released and a partial JobMetrics row (failed = true) is recorded
/// before this is thrown, so the engine stays usable for further jobs.
class JobAbortedError : public std::runtime_error {
 public:
  explicit JobAbortedError(const std::string& what) : std::runtime_error(what) {}
};

/// A stage exhausted its attempt budget with every attempt killed by an
/// out-of-memory task (enforced MemoryLimits ceiling or injected
/// OomSchedule) even after adaptive repartition. Derives from
/// JobAbortedError so every existing abort/cleanup path (shuffle release,
/// failed JobMetrics row, JobServer error propagation) applies unchanged.
class TaskOomError : public JobAbortedError {
 public:
  explicit TaskOomError(const std::string& what) : JobAbortedError(what) {}
};

/// Cache-plan hook (implemented by cacheplan::CachePlanner, DESIGN.md §17).
/// Called under the engine's planning lock right after a job's stage DAG is
/// built, before any stage executes; the returned snapshot is merged into
/// the BlockManager so budget enforcement during the job follows the
/// planner's priorities. Implementations must be thread-safe (concurrent
/// service jobs plan serially, but adaptive re-scores run on job threads).
class CacheAdvisor {
 public:
  virtual ~CacheAdvisor() = default;
  virtual CachePlanSnapshot advise(const JobPlan& plan,
                                   const std::string& job_name) = 0;
};

/// Arbitrates the simulated cluster's time between concurrently running jobs
/// (implemented by service::SlotLedger). A job that finished executing a
/// stage for real presents the stage's simulated makespan and is granted an
/// exclusive window [start, start + duration) of cluster time; windows of
/// different jobs never overlap, which is how concurrent jobs contend for
/// the same simulated slots.
class VirtualTimeArbiter {
 public:
  virtual ~VirtualTimeArbiter() = default;
  /// Block until job `token` is scheduled; returns the granted window start
  /// (>= earliest). The caller charges [start, start + duration).
  virtual double acquire(std::size_t token, double earliest,
                         double duration) = 0;
};

/// Per-job execution control used by the multi-tenant job service. When a
/// control block is passed to Engine::run_controlled the job runs against
/// its own virtual clock (seeded from `start_time`) instead of the engine's
/// shared `sim_clock_`, asks `arbiter` for cluster windows at every stage
/// barrier, and honors asynchronous cancellation / virtual-time deadlines
/// at stage boundaries via the PR-1 abort path (JobAbortedError + shuffle
/// release + failed JobMetrics row).
struct JobControl {
  VirtualTimeArbiter* arbiter = nullptr;  ///< may be null (solo virtual clock)
  std::size_t token = 0;                  ///< arbiter job token
  double start_time = 0.0;                ///< initial virtual clock value
  double deadline = -1.0;                 ///< absolute virtual deadline (<0: none)
  const std::atomic<bool>* cancel = nullptr;  ///< set by JobHandle::cancel
  /// Fixed job id for metrics rows (the service assigns submission order);
  /// kSize_max means "use the engine's own counter".
  std::size_t job_id = static_cast<std::size_t>(-1);
};

class Engine {
 public:
  explicit Engine(ClusterSpec cluster, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // -- actions -------------------------------------------------------------
  /// Count records of `ds` (materializes lineage as needed).
  JobResult count(const DatasetPtr& ds, std::string job_name = "count");
  /// Collect all records of `ds` to the driver.
  JobResult collect(const DatasetPtr& ds, std::string job_name = "collect");

  /// Service entry point: run a job under an external control block (virtual
  /// clock, slot arbiter, cancellation). Multiple run_controlled jobs may be
  /// in flight concurrently on different threads; they must not use a
  /// failure schedule (node-death state is engine-global). With a null
  /// control this is exactly count()/collect().
  JobResult run_controlled(const DatasetPtr& ds, bool collect_records,
                           std::string job_name, const JobControl* control);

  // -- partition planning (the CHOPPER hook) --------------------------------
  void set_plan_provider(std::shared_ptr<PlanProvider> provider) {
    plan_provider_ = std::move(provider);
  }
  std::shared_ptr<PlanProvider> plan_provider() const { return plan_provider_; }

  /// Dry-run: the stage DAG the next job over `ds` would produce, without
  /// executing anything. CHOPPER's optimizer uses this for Algorithm 3.
  JobPlan describe_job(const DatasetPtr& ds) const;

  // -- state ----------------------------------------------------------------
  const ClusterSpec& cluster() const noexcept { return cluster_; }
  const EngineOptions& options() const noexcept { return options_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }
  ResourceTimeline& timeline() noexcept { return timeline_; }
  BlockManager& block_manager() noexcept { return block_manager_; }
  const ShuffleManager& shuffle_manager() const noexcept { return shuffles_; }
  /// Per-node memory event counters (evictions, spills, OOMs, resident
  /// peaks) for the current run; cleared by reset_metrics().
  const MemoryLedger& memory_ledger() const noexcept { return mem_ledger_; }
  /// Per-node failure scoreboard (fetch/task/checksum strikes, exclusion
  /// state) for the current run; cleared by reset_metrics().
  const NodeHealth& node_health() const noexcept { return health_; }

  /// Is node n currently alive (failure schedule may have killed it)?
  bool node_alive(std::size_t n) const { return node_alive_.at(n) != 0; }
  std::size_t alive_node_count() const noexcept;

  /// Current simulated time (advances as jobs run).
  double sim_now() const noexcept { return sim_clock_; }

  /// Attach a structured event log (obs/event_log.h); nullptr detaches. The
  /// engine and its shuffle/block managers emit lifecycle events through it;
  /// with no log (or no sink attached to it) the instrumentation is a single
  /// relaxed-atomic check per site. Not owned — the log must outlive the
  /// engine or be detached first. Emits a kClusterInfo event describing the
  /// cluster when a non-null, enabled log is attached.
  void set_event_log(obs::EventLog* log);
  obs::EventLog* event_log() const noexcept { return event_log_; }

  /// Attach a commit-time checkpoint observer (engine/resume.h); nullptr
  /// detaches. Called on the committing job's driver thread right before
  /// each stage's kStageEnd event, so persisted payloads are durable before
  /// the WAL marks the stage committed. Not owned.
  void set_checkpoint_hook(CheckpointHook* hook) noexcept { ckpt_hook_ = hook; }
  CheckpointHook* checkpoint_hook() const noexcept { return ckpt_hook_; }

  /// Attach a cache-plan advisor (src/cacheplan); nullptr detaches. Consulted
  /// under plan_mu_ after each job plan is built; its snapshot is merged into
  /// the block manager before the job's first stage runs. Shared ownership:
  /// the advisor may outlive the caller's handle (service wiring).
  void set_cache_advisor(std::shared_ptr<CacheAdvisor> advisor) {
    cache_advisor_ = std::move(advisor);
  }
  const std::shared_ptr<CacheAdvisor>& cache_advisor() const noexcept {
    return cache_advisor_;
  }

  /// Arm resume state decoded from a checkpoint WAL (engine/resume.h):
  /// ledger->jobs[i] feeds the job that draws engine id i, letting an
  /// unmodified driver re-run its job sequence while committed stages are
  /// adopted instead of re-executed. Not owned; nullptr disarms. Classic
  /// (non-service) jobs only — controlled jobs ignore the ledger.
  void set_resume_ledger(ResumeLedger* ledger) noexcept {
    resume_ledger_ = ledger;
  }

  /// Node index a partition p of a P-partition stage is placed on:
  /// deterministic, interleaved proportional to node slot counts. Dead nodes
  /// are skipped (placement re-interleaves over surviving slots); throws
  /// JobAbortedError when no node survives.
  std::size_t node_for(std::size_t partition, std::size_t num_partitions) const;

  /// Clear metrics, timeline and the simulated clock (cache is kept so
  /// back-to-back experiment runs can reuse generated inputs explicitly).
  void reset_metrics();

  /// Drop all cached datasets.
  void uncache_all();

  /// Implementation detail of run_job (defined in scheduler.cc); public so
  /// file-local helpers there can name it.
  struct JobContext;

 private:
  friend class JobRunner;  ///< stage execution + recovery (scheduler.cc)

  JobResult run_job(const DatasetPtr& root, bool collect_records,
                    std::string job_name, const JobControl* control = nullptr);

  /// Per-failure runtime state for the deterministic failure schedule.
  struct FailureState {
    bool fired = false;
    bool rejoined = false;
    double rejoin_at = -1.0;  ///< absolute sim time; <0 when not pending
  };

  void reset_failure_state();

  ClusterSpec cluster_;
  EngineOptions options_;
  std::vector<std::size_t> slot_owner_;  ///< interleaved node index per slot
  std::unique_ptr<common::ThreadPool> pool_;
  ShuffleManager shuffles_;
  BlockManager block_manager_;
  MemoryLedger mem_ledger_;
  MetricsRegistry metrics_;
  ResourceTimeline timeline_;
  std::shared_ptr<PlanProvider> plan_provider_;
  std::shared_ptr<CacheAdvisor> cache_advisor_;
  InsertedRepartitions inserted_repartitions_;
  /// Guards plan building (inserted_repartitions_ is shared mutable state)
  /// when service jobs submit concurrently.
  std::mutex plan_mu_;
  std::vector<char> node_alive_;
  std::vector<FailureState> failure_state_;
  /// corruption_fired_[i]: CorruptionSchedule entry i already flipped its
  /// byte this run (injections fire once, like node failures).
  std::vector<char> corruption_fired_;
  NodeHealth health_;
  double sim_clock_ = 0.0;
  obs::EventLog* event_log_ = nullptr;  ///< not owned; may be null
  CheckpointHook* ckpt_hook_ = nullptr;    ///< not owned; may be null
  ResumeLedger* resume_ledger_ = nullptr;  ///< not owned; may be null
  /// Atomic: concurrent service jobs draw ids without a lock.
  std::atomic<std::size_t> next_job_id_{0};
  std::atomic<std::size_t> next_stage_id_{0};
};

}  // namespace chopper::engine
