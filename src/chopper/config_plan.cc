#include "chopper/config_plan.h"

#include <charconv>
#include <stdexcept>

namespace chopper::core {

namespace {

/// A count value (partitions, p_min): a whole non-negative decimal integer.
/// std::stoull would wrap "-3" to 2^64-3 and accept "12abc".
std::size_t parse_count(const std::string& key, const std::string& value) {
  std::size_t out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (value.empty() || ec != std::errc{} || ptr != end) {
    throw std::runtime_error("plan config: " + key +
                             " must be a non-negative integer, got '" + value +
                             "'");
  }
  return out;
}

}  // namespace

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
  ParsedPlan out;
  for (const auto& [key, value] : config.entries()) {
    if (key.rfind("stage.", 0) != 0) continue;
    const auto second_dot = key.find('.', 6);
    if (second_dot == std::string::npos) {
      throw std::runtime_error("plan config: malformed key: " + key);
    }
    const std::uint64_t sig = std::stoull(key.substr(6, second_dot - 6));
    const std::string field = key.substr(second_dot + 1);
    if (field == "partitioner") {
      out.schemes[sig].kind = value == "range" ? engine::PartitionerKind::kRange
                                               : engine::PartitionerKind::kHash;
    } else if (field == "partitions") {
      out.schemes[sig].num_partitions = parse_count(key, value);
    } else if (field == "repartition") {
      out.insert_repartition[sig] = value == "1";
    } else if (field == "p_min") {
      out.p_min[sig] = parse_count(key, value);
    } else {
      throw std::runtime_error("plan config: unknown field: " + key);
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
