// The engine's fault-injection model: one FaultPlan (EngineOptions::faults).
//
// A plan lists typed, deterministic injections (DESIGN.md §9 and §14):
//  * task retries — duration-only: a failed task attempt burns a fraction of
//    its duration before the retry; results are never touched.
//  * node failures — fail-stop: the node's shuffle map outputs and cached
//    partitions are destroyed; the scheduler notices at the next stage
//    barrier (or mid-window when the stage depends on the node), replays
//    the producer lineage for exactly the lost pieces on surviving nodes and
//    prices the recomputation into the simulated makespan.
//  * task OOMs — a stage's leading attempts die with an out-of-memory task.
//  * flaky fetches — transient: shuffle fetches fail per (node, stage,
//    attempt) and are retried in place with exponential backoff; only after
//    `max_fetch_attempts` does the failure escalate to a stage retry.
//  * corruptions — stored bytes flip silently; block checksums detect the
//    damage at the next read barrier and lineage heal recomputes exactly the
//    poisoned pieces.
// Every stage retry (OOM, fetch timeout, node loss) runs through one path in
// the scheduler, bounded by `max_stage_attempts`. NodeHealthPolicy
// configures the scoreboard that turns any of these failures into placement
// exclusion with backoff re-admission (Spark's excludeOnFailure); see
// engine/health.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chopper::engine {

/// What a node failure destroyed (shuffle rows and/or cached partitions).
struct LossReport {
  std::size_t lost_tasks = 0;    ///< map tasks / cached partitions dropped
  std::uint64_t lost_bytes = 0;  ///< bytes of data dropped

  LossReport& operator+=(const LossReport& o) {
    lost_tasks += o.lost_tasks;
    lost_bytes += o.lost_bytes;
    return *this;
  }
};

/// One scheduled, deterministic node failure. A failure fires at a stage
/// barrier when its trigger has been reached: either the simulated clock
/// passed `at_sim_time`, or the global stage counter reached `at_stage_id`
/// (the node dies immediately before that stage starts). A failure whose
/// sim-time trigger falls inside a running stage's window aborts that stage
/// attempt mid-flight when the dead node held its inputs or ran its tasks
/// (the fetch-failure path); otherwise it takes effect at the next barrier.
struct NodeFailure {
  std::size_t node = 0;
  double at_sim_time = -1.0;        ///< <0: disabled
  std::ptrdiff_t at_stage_id = -1;  ///< global stage id; <0: disabled
  /// >=0: the node rejoins (empty — its data stays lost) this many simulated
  /// seconds after dying; <0: never rejoins.
  double rejoin_after_s = -1.0;
};

/// One injected task OOM: the stage with global id `stage_id` fails its
/// first `attempts` executions with a TaskOomError attributed to task
/// `task` (clamped to the stage's partition count). Injection is independent
/// of EngineOptions::memory — it deterministically exercises the
/// OOM-retry / adaptive-repartition path without having to engineer real
/// memory pressure.
struct OomInjection {
  std::size_t stage_id = 0;  ///< global stage id (StageMetrics::stage_id)
  std::size_t attempts = 1;  ///< number of leading attempts that OOM
  std::size_t task = 0;      ///< victim task index (clamped)
};

/// One deterministic silent-corruption injection: flip one byte of stored
/// data after it is published, leaving its recorded checksum stale. Fires at
/// most once per engine run (Engine tracks fired state like node failures),
/// so detection → heal → recompute converges instead of re-poisoning.
struct CorruptionInjection {
  /// Target kind: a shuffle map row or a cached block.
  enum class Target { kShuffleRow, kCachedBlock };
  Target target = Target::kShuffleRow;
  /// kShuffleRow: global stage id of the *producer* (the corruption fires
  /// when that stage commits its map output). Ignored for kCachedBlock.
  std::size_t stage_id = 0;
  /// kCachedBlock: Dataset::id of the cached materialization (fires when the
  /// block store commits it). Ignored for kShuffleRow.
  std::size_t dataset_id = 0;
  /// Victim map row / cached partition (clamped to the available count).
  std::size_t task = 0;
  /// Which stored byte to flip, taken modulo the victim's payload size.
  std::size_t byte_offset = 0;
};

/// Every deterministic fault the engine can inject, in one plan. Empty lists
/// and zero probabilities inject nothing: a default plan is a fault-free run.
struct FaultPlan {
  // -- task retries (duration-only) -----------------------------------------
  /// Per-attempt task failure probability. A failed attempt burns
  /// `failed_attempt_fraction` of the task's duration before the retry.
  double task_failure_prob = 0.0;
  /// Attempts of one task before the job aborts.
  std::size_t max_task_attempts = 4;
  double failed_attempt_fraction = 0.6;
  std::uint64_t task_failure_seed = 0x5eed;

  // -- injections that fail a stage attempt ---------------------------------
  /// Scheduled node failures with real data loss and lineage recovery.
  std::vector<NodeFailure> node_failures;
  /// Injected task OOMs, orthogonal to EngineOptions::memory.
  std::vector<OomInjection> ooms;
  /// Silent corruptions. A non-empty list arms block integrity checksums on
  /// shuffle map outputs and cached partitions; detection triggers the same
  /// lineage heal as a node failure, scoped to the poisoned pieces.
  std::vector<CorruptionInjection> corruptions;

  // -- transient fetch flakiness --------------------------------------------
  // Whether the i-th fetch attempt of a (stage attempt, reduce task, source
  // node) segment fails is drawn from a PRNG seeded by hashing exactly that
  // tuple, so a run is reproducible bit-for-bit from the plan alone and a
  // retried stage attempt draws a fresh, independent failure sequence. Each
  // failed fetch burns `fetch_timeout_s` plus an exponential backoff of
  // simulated time, then re-pays the segment transfer (surfaced as
  // `refetched_bytes`, never double-counted into shuffle-read totals). When
  // one segment fails `max_fetch_attempts` times in a row the stage attempt
  // is abandoned as a fetch failure: the source node's map outputs are
  // deregistered (Spark removes a fetch-failed executor's map statuses) and
  // the stage retry heals them via lineage replay on healthier nodes.
  /// Per-fetch-attempt failure probability for remote segments served by a
  /// flaky node. 0 disables flakiness.
  double fetch_failure_prob = 0.0;
  std::uint64_t fetch_seed = 0xf1a4;
  /// Consecutive failed fetches of one segment before the stage attempt is
  /// abandoned (spark.shuffle.io.maxRetries).
  std::size_t max_fetch_attempts = 3;
  /// Backoff before retry i (1-based): min(base * mult^(i-1), max) simulated
  /// seconds (spark.shuffle.io.retryWait, exponentialized).
  double backoff_base_s = 0.05;
  double backoff_mult = 2.0;
  double backoff_max_s = 2.0;
  /// Simulated time a failed fetch burns before it is declared dead.
  double fetch_timeout_s = 0.1;
  /// Restrict flakiness to these source nodes (empty: every node is flaky).
  std::vector<std::size_t> flaky_nodes;

  /// Bound on executions of one stage (initial attempt + retries after an
  /// OOM, a fetch timeout or a node loss) before the job aborts — Spark's
  /// spark.stage.maxConsecutiveAttempts.
  std::size_t max_stage_attempts = 4;

  /// Does the plan fire engine-global state (node deaths, fetch flakiness,
  /// one-shot corruptions) that concurrent service jobs would share?
  bool engine_global() const noexcept {
    return !node_failures.empty() || !corruptions.empty() ||
           fetch_failure_prob > 0.0;
  }
  /// Can the plan fail a stage attempt? Such plans switch the engine into
  /// retained-shuffle execution: shuffle reads copy instead of consume and
  /// map outputs live until job end, so a retry has data to replay from.
  bool retries_stages() const noexcept {
    return engine_global() || !ooms.empty();
  }
  bool node_flaky(std::size_t n) const noexcept {
    if (flaky_nodes.empty()) return true;
    for (const std::size_t x : flaky_nodes) {
      if (x == n) return true;
    }
    return false;
  }
  double backoff_s(std::size_t retry) const noexcept {  // retry is 1-based
    double b = backoff_base_s;
    for (std::size_t i = 1; i < retry; ++i) b *= backoff_mult;
    return b < backoff_max_s ? b : backoff_max_s;
  }
};

/// Node health exclusion policy (Spark's excludeOnFailure): a node that
/// accumulates `exclude_after` strikes (fetch failures, task failures,
/// checksum mismatches) is excluded from task placement. Exclusion is
/// advisory — placement falls back to excluded nodes rather than aborting
/// when nothing else is alive — and temporary: the node is re-admitted after
/// a backoff that doubles with each repeat exclusion. Strikes are recorded
/// whenever any fault model is active; exclusion only ever changes behavior
/// once a strike exists, so fault-free runs are byte-identical with the
/// policy on or off.
struct NodeHealthPolicy {
  bool exclude_enabled = true;
  /// Strikes (since the last re-admission) that trigger exclusion.
  std::size_t exclude_after = 3;
  /// Re-admission backoff: first exclusion lasts `readmit_after_s` simulated
  /// seconds, doubling (times `readmit_backoff_mult`) per repeat exclusion,
  /// capped at `readmit_max_s`.
  double readmit_after_s = 30.0;
  double readmit_backoff_mult = 2.0;
  double readmit_max_s = 480.0;
};

}  // namespace chopper::engine
