#include "chopper/workload_db.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"
#include "common/parse.h"

namespace chopper::core {

void WorkloadDb::add(Observation o) { observations_.push_back(std::move(o)); }

void WorkloadDb::add_oom(OomRecord r) {
  oom_records_.push_back(std::move(r));
}

void WorkloadDb::add_fault(FaultRecord r) {
  fault_records_.push_back(std::move(r));
}

void WorkloadDb::add_structure(const std::string& workload, StageStructure s) {
  const auto key = std::make_pair(workload, s.signature);
  const auto it = structures_.find(key);
  if (it == structures_.end()) {
    s.order = next_order_++;
    structures_.emplace(key, std::move(s));
    return;
  }
  // Merge: keep first-seen order, union parents, accumulate input ratios.
  StageStructure& dst = it->second;
  dst.fixed_partitions = dst.fixed_partitions || s.fixed_partitions;
  dst.user_fixed = dst.user_fixed || s.user_fixed;
  dst.parents.insert(s.parents.begin(), s.parents.end());
  dst.input_ratio_sum += s.input_ratio_sum;
  dst.input_ratio_count += s.input_ratio_count;
  dst.dw_sum += s.dw_sum;
  dst.d_sum += s.d_sum;
  dst.dw2_sum += s.dw2_sum;
  dst.dwd_sum += s.dwd_sum;
  dst.fit_count += s.fit_count;
}

std::vector<Observation> WorkloadDb::observations(
    const std::string& workload, std::uint64_t signature,
    engine::PartitionerKind kind) const {
  std::vector<Observation> out;
  for (const auto& o : observations_) {
    if (o.workload == workload && o.signature == signature &&
        o.partitioner == kind) {
      out.push_back(o);
    }
  }
  return out;
}

namespace {
/// Canonical total order over a model's training set. Sorting before the fit
/// makes the float summation order a function of the observation *set*, not
/// of ingest history — so an incremental refit mid-run (observations arriving
/// one stage at a time, model() called between arrivals) produces
/// coefficients bit-identical to an offline fit over the same observations,
/// in any ingest order. The adaptive controller's replay/bit-identity
/// guarantees (DESIGN.md §15) rest on this.
bool canonical_less(const Observation& a, const Observation& b) {
  if (a.workload_input_bytes != b.workload_input_bytes) {
    return a.workload_input_bytes < b.workload_input_bytes;
  }
  if (a.stage_input_bytes != b.stage_input_bytes) {
    return a.stage_input_bytes < b.stage_input_bytes;
  }
  if (a.num_partitions != b.num_partitions) {
    return a.num_partitions < b.num_partitions;
  }
  if (a.t_exe_s != b.t_exe_s) return a.t_exe_s < b.t_exe_s;
  if (a.shuffle_bytes != b.shuffle_bytes) {
    return a.shuffle_bytes < b.shuffle_bytes;
  }
  return a.is_default < b.is_default;
}
}  // namespace

const StageModel* WorkloadDb::model(const std::string& workload,
                                    std::uint64_t signature,
                                    engine::PartitionerKind kind) {
  const ModelKey key{workload, signature, kind};
  auto& entry = models_[key];
  if (entry.trained_on != observations_.size()) {
    auto obs = observations(workload, signature, kind);
    std::sort(obs.begin(), obs.end(), canonical_less);
    entry.model.fit(obs, ridge_lambda_);
    entry.trained_on = observations_.size();
  }
  return &entry.model;
}

double WorkloadDb::default_texe(const std::string& workload,
                                std::uint64_t signature) const {
  double sum = 0.0, all = 0.0;
  std::size_t n = 0, n_all = 0;
  for (const auto& o : observations_) {
    if (o.workload != workload || o.signature != signature) continue;
    all += o.t_exe_s;
    ++n_all;
    if (o.is_default) {
      sum += o.t_exe_s;
      ++n;
    }
  }
  if (n > 0) return sum / static_cast<double>(n);
  if (n_all > 0) return all / static_cast<double>(n_all);
  return 1.0;
}

double WorkloadDb::default_shuffle(const std::string& workload,
                                   std::uint64_t signature) const {
  double sum = 0.0, all = 0.0;
  std::size_t n = 0, n_all = 0;
  for (const auto& o : observations_) {
    if (o.workload != workload || o.signature != signature) continue;
    all += o.shuffle_bytes;
    ++n_all;
    if (o.is_default) {
      sum += o.shuffle_bytes;
      ++n;
    }
  }
  if (n > 0) return sum / static_cast<double>(n);
  if (n_all > 0) return all / static_cast<double>(n_all);
  return 0.0;
}

double WorkloadDb::default_partitions(const std::string& workload,
                                      std::uint64_t signature) const {
  double sum = 0.0, all = 0.0;
  std::size_t n = 0, n_all = 0;
  for (const auto& o : observations_) {
    if (o.workload != workload || o.signature != signature) continue;
    all += o.num_partitions;
    ++n_all;
    if (o.is_default) {
      sum += o.num_partitions;
      ++n;
    }
  }
  if (n > 0) return sum / static_cast<double>(n);
  if (n_all > 0) return all / static_cast<double>(n_all);
  return 0.0;
}

std::pair<double, double> WorkloadDb::observed_partition_range(
    const std::string& workload, std::uint64_t signature) const {
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (const auto& o : observations_) {
    if (o.workload != workload || o.signature != signature) continue;
    if (!any) {
      lo = hi = o.num_partitions;
      any = true;
    } else {
      lo = std::min(lo, o.num_partitions);
      hi = std::max(hi, o.num_partitions);
    }
  }
  return {lo, hi};
}

double WorkloadDb::stage_input_estimate(const std::string& workload,
                                        std::uint64_t signature,
                                        double workload_bytes) const {
  const auto it = structures_.find(std::make_pair(workload, signature));
  if (it == structures_.end()) return workload_bytes;
  const StageStructure& st = it->second;

  double estimate;
  const auto n = static_cast<double>(st.fit_count);
  const double denom = n * st.dw2_sum - st.dw_sum * st.dw_sum;
  if (st.fit_count >= 2 && std::abs(denom) > 1e-9 * st.dw2_sum) {
    const double slope = (n * st.dwd_sum - st.dw_sum * st.d_sum) / denom;
    const double intercept = (st.d_sum - slope * st.dw_sum) / n;
    estimate = slope * workload_bytes + intercept;
  } else {
    estimate = st.input_ratio() * workload_bytes;
  }
  if (estimate < 0.0) estimate = 0.0;

  const auto [lo, hi] = observed_input_range(workload, signature);
  if (hi > 0.0) estimate = std::clamp(estimate, lo, hi);
  return estimate;
}

std::size_t WorkloadDb::times_observed(const std::string& workload,
                                       std::uint64_t signature) const {
  std::size_t n = 0;
  for (const auto& o : observations_) {
    if (o.workload == workload && o.signature == signature) ++n;
  }
  return n;
}

std::pair<double, double> WorkloadDb::observed_input_range(
    const std::string& workload, std::uint64_t signature) const {
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (const auto& o : observations_) {
    if (o.workload != workload || o.signature != signature) continue;
    if (!any) {
      lo = hi = o.stage_input_bytes;
      any = true;
    } else {
      lo = std::min(lo, o.stage_input_bytes);
      hi = std::max(hi, o.stage_input_bytes);
    }
  }
  return {lo, hi};
}

std::size_t WorkloadDb::min_feasible_partitions(const std::string& workload,
                                                std::uint64_t signature,
                                                double stage_input_bytes) const {
  // The tightest proven-infeasible per-task slice: the smallest D_o / P_o
  // among recorded OOMs of this stage. (Smaller slices than observed ones
  // may still fit; larger ones certainly do not.)
  double bad_slice = 0.0;
  for (const auto& r : oom_records_) {
    if (r.workload != workload || r.signature != signature) continue;
    if (r.num_partitions <= 0.0 || r.stage_input_bytes <= 0.0) continue;
    const double slice = r.stage_input_bytes / r.num_partitions;
    if (bad_slice == 0.0 || slice < bad_slice) bad_slice = slice;
  }
  if (bad_slice == 0.0 || stage_input_bytes <= 0.0) return 0;
  // Smallest P with D / P strictly below the infeasible slice.
  return static_cast<std::size_t>(
             std::floor(stage_input_bytes / bad_slice)) +
         1;
}

std::vector<StageStructure> WorkloadDb::dag(const std::string& workload) const {
  std::vector<StageStructure> out;
  for (const auto& [key, s] : structures_) {
    if (key.first == workload) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const StageStructure& a, const StageStructure& b) {
              return a.order < b.order;
            });
  return out;
}

std::optional<StageStructure> WorkloadDb::structure(
    const std::string& workload, std::uint64_t signature) const {
  const auto it = structures_.find(std::make_pair(workload, signature));
  if (it == structures_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> WorkloadDb::workloads() const {
  std::vector<std::string> out;
  for (const auto& [key, s] : structures_) {
    if (out.empty() || out.back() != key.first) out.push_back(key.first);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t WorkloadDb::prune(const std::string& workload) {
  const auto before = observations_.size();
  std::erase_if(observations_,
                [&](const Observation& o) { return o.workload == workload; });
  std::erase_if(oom_records_,
                [&](const OomRecord& r) { return r.workload == workload; });
  std::erase_if(fault_records_,
                [&](const FaultRecord& r) { return r.workload == workload; });
  std::erase_if(structures_, [&](const auto& kv) {
    return kv.first.first == workload;
  });
  std::erase_if(models_,
                [&](const auto& kv) { return kv.first.workload == workload; });
  return before - observations_.size();
}

void WorkloadDb::merge(const WorkloadDb& other) {
  for (const auto& o : other.observations_) add(o);
  for (const auto& r : other.oom_records_) add_oom(r);
  for (const auto& r : other.fault_records_) add_fault(r);
  for (const auto& [key, st] : other.structures_) {
    add_structure(key.first, st);
  }
}

void WorkloadDb::save(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("WorkloadDb: cannot write " + path);
  os << "# chopper workload db v1\n";
  for (const auto& o : observations_) {
    os << "obs\t" << o.workload << "\t" << o.signature << "\t"
       << engine::to_string(o.partitioner) << "\t" << o.workload_input_bytes
       << "\t" << o.stage_input_bytes << "\t" << o.num_partitions << "\t"
       << o.t_exe_s << "\t" << o.shuffle_bytes << "\t" << (o.is_default ? 1 : 0)
       << "\n";
  }
  for (const auto& r : oom_records_) {
    os << "oom\t" << r.workload << "\t" << r.signature << "\t"
       << r.stage_input_bytes << "\t" << r.num_partitions << "\n";
  }
  for (const auto& r : fault_records_) {
    os << "fault\t" << r.workload << "\t" << r.signature << "\t"
       << r.fetch_retries << "\t" << r.refetched_bytes << "\t"
       << r.checksum_failures << "\t" << r.node_exclusions << "\n";
  }
  for (const auto& [key, s] : structures_) {
    os << "stage\t" << key.first << "\t" << s.signature << "\t" << s.name
       << "\t" << static_cast<int>(s.anchor_op) << "\t"
       << (s.fixed_partitions ? 1 : 0) << "\t" << (s.user_fixed ? 1 : 0) << "\t"
       << s.input_ratio_sum << "\t" << s.input_ratio_count << "\t" << s.dw_sum
       << "\t" << s.d_sum << "\t" << s.dw2_sum << "\t" << s.dwd_sum << "\t"
       << s.fit_count << "\t" << s.order;
    for (const auto p : s.parents) os << "\t" << p;
    os << "\n";
  }
}

namespace {

// Field parsers for WorkloadDb::load (string_view -> optional).
constexpr auto kCount = common::parse_int<std::uint64_t>;
constexpr auto kNumber = common::parse_double;
constexpr auto kFlag = [](std::string_view t) {
  return common::parse_enum(t, true);
};
/// A finite, non-negative measurement.
constexpr auto kAmount = [](std::string_view t) {
  const auto v = common::parse_double(t);
  return v && *v >= 0.0 ? v : std::nullopt;
};

}  // namespace

WorkloadDb WorkloadDb::load(const std::string& path, double ridge_lambda,
                            bool tolerant) {
  std::ifstream is(path);
  if (!is) {
    if (tolerant) {
      LOG_WARN << "WorkloadDb: cannot read " << path
               << "; continuing with an empty DB (no plan will be produced)";
      return WorkloadDb(ridge_lambda);
    }
    throw std::runtime_error("WorkloadDb: cannot read " + path);
  }
  WorkloadDb db(ridge_lambda);
  // One tab-separated record; errors name `where` ("<path>:<line>") and the
  // field.
  const auto parse_line = [&db](const std::string& line,
                                const std::string& where) {
    std::istringstream ls(line);
    const auto text = [&](const char* field) {
      std::string out;
      if (!std::getline(ls, out, '\t')) {
        throw common::ParseError(where + ": truncated record, no " + field);
      }
      return out;
    };
    const auto next = [&](const char* field, auto parse) {
      const std::string t = text(field);
      return common::require(parse(t), where, field, t);
    };
    const std::string tag = text("tag");
    if (tag == "obs") {
      Observation o;
      o.workload = text("workload");
      o.signature = next("signature", kCount);
      o.partitioner = next("partitioner", engine::parse_partitioner);
      o.workload_input_bytes = next("workload_input_bytes", kAmount);
      o.stage_input_bytes = next("stage_input_bytes", kAmount);
      o.num_partitions = next("num_partitions", kAmount);
      o.t_exe_s = next("t_exe_s", kAmount);
      o.shuffle_bytes = next("shuffle_bytes", kAmount);
      o.is_default = next("is_default", kFlag);
      db.add(std::move(o));
    } else if (tag == "oom") {
      OomRecord r;
      r.workload = text("workload");
      r.signature = next("signature", kCount);
      r.stage_input_bytes = next("stage_input_bytes", kAmount);
      r.num_partitions = next("num_partitions", kAmount);
      db.add_oom(std::move(r));
    } else if (tag == "fault") {
      FaultRecord r;
      r.workload = text("workload");
      r.signature = next("signature", kCount);
      r.fetch_retries = next("fetch_retries", kCount);
      r.refetched_bytes = next("refetched_bytes", kCount);
      r.checksum_failures = next("checksum_failures", kCount);
      r.node_exclusions = next("node_exclusions", kCount);
      db.add_fault(std::move(r));
    } else if (tag == "stage") {
      StageStructure s;
      const std::string workload = text("workload");
      s.signature = next("signature", kCount);
      s.name = text("name");
      s.anchor_op = next("anchor_op", [](std::string_view t) {
        return common::parse_enum(t, engine::OpKind::kUnion);  // last OpKind
      });
      s.fixed_partitions = next("fixed_partitions", kFlag);
      s.user_fixed = next("user_fixed", kFlag);
      s.input_ratio_sum = next("input_ratio_sum", kNumber);
      s.input_ratio_count = next("input_ratio_count", kCount);
      s.dw_sum = next("dw_sum", kNumber);
      s.d_sum = next("d_sum", kNumber);
      s.dw2_sum = next("dw2_sum", kNumber);
      s.dwd_sum = next("dwd_sum", kNumber);
      s.fit_count = next("fit_count", kCount);
      // An order whose successor would wrap next_order_ is out of range.
      const std::size_t order = next("order", [](std::string_view t) {
        const auto v = common::parse_int<std::size_t>(t);
        return v && *v < std::numeric_limits<std::size_t>::max() ? v
                                                                 : std::nullopt;
      });
      for (std::string t; std::getline(ls, t, '\t');) {
        if (!t.empty()) {
          s.parents.insert(common::require(kCount(t), where, "parent", t));
        }
      }
      db.add_structure(workload, s);
      // Preserve the original ordering across save/load.
      db.structures_.at(std::make_pair(workload, s.signature)).order = order;
      db.next_order_ = std::max(db.next_order_, order + 1);
    } else {
      throw common::ParseError(where + ": unknown record tag '" + tag + "'");
    }
  };
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::string where = path + ":" + std::to_string(line_no);
    if (tolerant) {
      try {
        parse_line(line, where);
      } catch (const std::exception& e) {
        LOG_WARN << "WorkloadDb: skipping corrupt record (" << e.what() << ")";
      }
    } else {
      parse_line(line, where);
    }
  }
  return db;
}

}  // namespace chopper::core
