// The workload configuration file (paper Fig. 6) and the PlanProvider
// implementations that feed partition schemes into the engine's scheduler.
//
// Config format, one tuple per stage signature:
//
//   stage.<signature>.partitioner = hash | range
//   stage.<signature>.partitions  = 210
//   stage.<signature>.repartition = 1        (optional: insert repartition)
//   stage.<signature>.p_min       = 120      (optional: memory floor)
//
// ConfigPlanProvider supports dynamic updates: replacing the config or
// reloading it from a file takes effect the next time the scheduler asks —
// the paper's "DAGScheduler periodically checks the updated configuration
// file" behaviour.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chopper/optimizer.h"
#include "common/kv_config.h"
#include "engine/plan.h"

namespace chopper::core {

/// Serialize a plan into the Fig. 6 config format.
common::KvConfig plan_to_config(const std::vector<PlannedStage>& plan);

/// Parse a config back into (signature -> scheme) plus repartition marks.
struct ParsedPlan {
  std::unordered_map<std::uint64_t, engine::PartitionScheme> schemes;
  std::unordered_map<std::uint64_t, bool> insert_repartition;
  /// Memory-feasibility floor per signature (absent == unconstrained).
  std::unordered_map<std::uint64_t, std::size_t> p_min;
};
/// Throws common::ParseError naming config.source() and the key when a key
/// or value is malformed.
ParsedPlan parse_plan_config(const common::KvConfig& config);

/// PlanProvider backed by a Fig. 6 config. Thread-safe; updatable at runtime.
class ConfigPlanProvider final : public engine::PlanProvider {
 public:
  ConfigPlanProvider() = default;
  explicit ConfigPlanProvider(const common::KvConfig& config);

  std::optional<engine::PartitionScheme> scheme_for(
      std::uint64_t signature) override;

  /// Engine hook: when the plan marked the stage for repartition insertion,
  /// returns the scheme the inserted phase should use (Algorithm 3's "add a
  /// new repartitioning phase" path). The scheduler splices the phase in.
  std::optional<engine::PartitionScheme> repartition_before(
      std::uint64_t signature) override;

  /// True when the plan asks for an explicit repartition before this stage
  /// (workload builders consult this when constructing their DAG).
  bool wants_repartition(std::uint64_t signature) const;

  /// The plan's memory-feasibility floor for this stage (0: none recorded).
  std::size_t p_min_for(std::uint64_t signature) const;

  /// Replace the whole plan (dynamic update).
  void update(const common::KvConfig& config);
  /// Reload from a config file. Strict mode throws on an unreadable file or
  /// malformed line; tolerant mode skips bad lines with a logged warning and
  /// treats an unreadable file as an empty plan.
  void reload(const std::string& path, bool tolerant = false);

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  ParsedPlan plan_;
};

/// Forces one scheme for every stage — used by CHOPPER's profiling test
/// runs to sweep partition counts and partitioner kinds.
class FixedPlanProvider final : public engine::PlanProvider {
 public:
  FixedPlanProvider(engine::PartitionerKind kind, std::size_t num_partitions)
      : scheme_{kind, num_partitions} {}

  std::optional<engine::PartitionScheme> scheme_for(std::uint64_t) override {
    return scheme_;
  }

 private:
  engine::PartitionScheme scheme_;
};

}  // namespace chopper::core
