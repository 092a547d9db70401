#include "chopper/config_plan.h"

#include "common/parse.h"

namespace chopper::core {

common::KvConfig plan_to_config(const std::vector<PlannedStage>& plan) {
  common::KvConfig cfg;
  for (const auto& ps : plan) {
    const std::string prefix = "stage." + std::to_string(ps.signature);
    cfg.set(prefix + ".partitioner", engine::to_string(ps.partitioner));
    cfg.set_int(prefix + ".partitions",
                static_cast<std::int64_t>(ps.num_partitions));
    if (ps.insert_repartition) cfg.set_int(prefix + ".repartition", 1);
    if (ps.p_min > 0) {
      cfg.set_int(prefix + ".p_min", static_cast<std::int64_t>(ps.p_min));
    }
  }
  return cfg;
}

ParsedPlan parse_plan_config(const common::KvConfig& config) {
  using common::require;
  const std::string& src = config.source();
  ParsedPlan out;
  for (const auto& [key, value] : config.entries()) {
    if (key.rfind("stage.", 0) != 0) continue;
    const auto second_dot = key.find('.', 6);
    if (second_dot == std::string::npos) {
      throw common::ParseError(src + ": malformed key " + key);
    }
    const std::string sig_token = key.substr(6, second_dot - 6);
    const std::uint64_t sig =
        require(common::parse_int<std::uint64_t>(sig_token), src,
                "signature in " + key, sig_token);
    const std::string field = key.substr(second_dot + 1);
    if (field == "partitioner") {
      out.schemes[sig].kind =
          require(engine::parse_partitioner(value), src, key, value);
    } else if (field == "partitions") {
      out.schemes[sig].num_partitions =
          require(common::parse_int<std::size_t>(value), src, key, value);
    } else if (field == "repartition") {
      out.insert_repartition[sig] =
          require(common::parse_enum(value, true), src, key, value);
    } else if (field == "p_min") {
      out.p_min[sig] =
          require(common::parse_int<std::size_t>(value), src, key, value);
    } else {
      throw common::ParseError(src + ": unknown field in key " + key);
    }
  }
  return out;
}

ConfigPlanProvider::ConfigPlanProvider(const common::KvConfig& config)
    : plan_(parse_plan_config(config)) {}

std::optional<engine::PartitionScheme> ConfigPlanProvider::scheme_for(
    std::uint64_t signature) {
  std::lock_guard lock(mu_);
  const auto it = plan_.schemes.find(signature);
  if (it == plan_.schemes.end() || it->second.num_partitions == 0) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<engine::PartitionScheme> ConfigPlanProvider::repartition_before(
    std::uint64_t signature) {
  std::lock_guard lock(mu_);
  const auto marked = plan_.insert_repartition.find(signature);
  if (marked == plan_.insert_repartition.end() || !marked->second) {
    return std::nullopt;
  }
  const auto scheme = plan_.schemes.find(signature);
  if (scheme == plan_.schemes.end() || scheme->second.num_partitions == 0) {
    return std::nullopt;
  }
  return scheme->second;
}

bool ConfigPlanProvider::wants_repartition(std::uint64_t signature) const {
  std::lock_guard lock(mu_);
  const auto it = plan_.insert_repartition.find(signature);
  return it != plan_.insert_repartition.end() && it->second;
}

std::size_t ConfigPlanProvider::p_min_for(std::uint64_t signature) const {
  std::lock_guard lock(mu_);
  const auto it = plan_.p_min.find(signature);
  return it != plan_.p_min.end() ? it->second : 0;
}

void ConfigPlanProvider::update(const common::KvConfig& config) {
  ParsedPlan parsed = parse_plan_config(config);
  std::lock_guard lock(mu_);
  plan_ = std::move(parsed);
}

void ConfigPlanProvider::reload(const std::string& path, bool tolerant) {
  update(common::KvConfig::load(path, tolerant));
}

std::size_t ConfigPlanProvider::size() const {
  std::lock_guard lock(mu_);
  return plan_.schemes.size();
}

}  // namespace chopper::core
