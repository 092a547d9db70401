#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/rng.h"
#include "obs/jsonl.h"

namespace chopper::bench {

namespace {
// Inputs are scaled ~1/500 of the paper's (Table I). The cost model's
// data_scale rescales all measured work/bytes back to paper volume before
// pricing, so the cluster keeps its real 40 GB executors and the simulated
// times land at paper-like magnitudes.
constexpr double kDataScale = 1.0 / 500.0;
}  // namespace

engine::ClusterSpec bench_cluster(double memory_scale) {
  return engine::ClusterSpec::paper_heterogeneous(memory_scale);
}

engine::EngineOptions vanilla_options() {
  engine::EngineOptions o;
  o.default_parallelism = 300;  // the paper's vanilla configuration
  auto& cm = o.cost_model;
  cm.data_scale = kDataScale;
  // Calibrated so the default-parallelism baseline lands at paper-like
  // magnitudes: tasks of a 300-partition stage take O(0.1-1 s) of compute,
  // launch overhead is a small fraction, and memory pressure (GC + spill)
  // makes oversized partitions pay steeply, as the paper's stage-0 study
  // shows (Fig. 3).
  cm.sec_per_work_unit = 1.6e-7;
  cm.spill_fraction = 0.08;
  cm.disk_bw = 6.0e7;
  cm.spill_amplification = 3.0;
  return o;
}

core::ChopperOptions chopper_options() {
  core::ChopperOptions o;
  o.engine_options = vanilla_options();
  o.profile_partitions = {100, 200, 300, 400, 500, 800};
  o.profile_fractions = {0.5, 1.0};
  o.optimizer.space.min_partitions = 50;
  o.optimizer.space.max_partitions = 2000;
  o.optimizer.space.candidates = 48;
  o.optimizer.space.round_to = 10;
  return o;
}

workloads::KMeansParams kmeans_params() {
  workloads::KMeansParams p;
  p.data.total_points = 250'000;  // ~41 MB == 21.8 GB / ~500
  p.data.dims = 16;
  p.data.clusters = 10;
  p.k = 10;
  p.iterations = 3;
  p.init_rounds = 11;
  p.source_partitions = 300;
  return p;
}

workloads::PcaParams pca_params() {
  workloads::PcaParams p;
  p.data.total_rows = 250'000;  // ~53 MB == 27.6 GB / ~500
  p.data.dims = 24;
  p.data.latent_dims = 4;
  p.components = 4;
  p.iterations = 3;
  p.source_partitions = 300;
  return p;
}

workloads::SqlParams sql_params() {
  workloads::SqlParams p;
  p.fact.total_rows = 600'000;  // fact + dim ~ 34.5 GB / ~500 scale
  p.fact.payload_bytes = 32;
  // Low-selectivity aggregation: the join carries nearly the full table, so
  // the query is "shuffle intensive in the join phase" like the paper's.
  p.fact.num_keys = 300'000;
  p.fact.zipf_theta = 0.8;
  p.dim.num_keys = 300'000;
  p.dim.payload_bytes = 32;
  p.fact_partitions = 400;
  p.dim_partitions = 120;
  p.fact_agg_partitions = 400;
  p.dim_agg_partitions = 120;
  return p;
}

double kmeans_study_scale() {
  // Sec. II-B studies KMeans on 7.3 GB; Table I runs it on 21.8 GB.
  return 7.3 / 21.8;
}

std::unique_ptr<engine::Engine> run_vanilla(const workloads::Workload& wl,
                                            double scale) {
  auto eng = std::make_unique<engine::Engine>(bench_cluster(), vanilla_options());
  wl.run(*eng, scale);
  return eng;
}

std::unique_ptr<engine::Engine> run_chopper(
    core::Chopper& chopper, const workloads::Workload& wl,
    std::vector<core::PlannedStage>* plan_out, double scale) {
  const double input_bytes = chopper.profile(wl.name(), wl.runner(), scale);
  auto plan = chopper.plan(wl.name(), input_bytes);
  auto eng = chopper.make_engine();
  eng->set_plan_provider(chopper.make_provider(plan));
  wl.run(*eng, scale);
  if (plan_out != nullptr) *plan_out = std::move(plan);
  return eng;
}

namespace {

engine::SourceFn keyed_source(std::uint64_t seed, std::size_t total,
                              std::size_t num_keys, double theta,
                              std::size_t payload_bytes) {
  return [=](std::size_t index, std::size_t count) {
    common::Xoshiro256 rng(common::hash_combine(seed, index * 131 + count));
    common::ZipfSampler zipf(num_keys, theta);
    engine::Partition p;
    const std::size_t begin = total * index / count;
    const std::size_t end = total * (index + 1) / count;
    for (std::size_t i = begin; i < end; ++i) {
      engine::Record r;
      r.key = zipf(rng);
      r.values = {rng.next_double(), 1.0};
      r.aux_bytes = payload_bytes;
      p.push(std::move(r));
    }
    return p;
  };
}

std::string tag(const char* base, std::uint64_t seed) {
  return std::string(base) + "#" + std::to_string(seed);
}

}  // namespace

engine::DatasetPtr service_small_job(std::uint64_t seed) {
  auto events = engine::Dataset::source(
      tag("svc-small-events", seed), 16,
      keyed_source(seed, /*total=*/20'000, /*num_keys=*/400, 0.8, 32));
  return events
      ->filter(tag("svc-small-filter", seed),
               [](const engine::Record& r) { return r.values[0] > 0.2; })
      ->reduce_by_key(
          tag("svc-small-sum", seed),
          [](engine::Record& acc, const engine::Record& next) {
            acc.values[0] += next.values[0];
            acc.values[1] += next.values[1];
          },
          engine::ShuffleRequest{std::nullopt, 16, false});
}

engine::DatasetPtr service_kmeans_like_job(std::uint64_t seed) {
  auto points = engine::Dataset::source(
      tag("svc-kmeans-points", seed), 48,
      keyed_source(seed, /*total=*/120'000, /*num_keys=*/20'000, 0.4, 64));
  // Assign-to-centroid flavor: a compute-heavy narrow map re-keying each
  // point, then a per-centroid keyed reduction (one wide stage).
  return points
      ->map(
          tag("svc-kmeans-assign", seed),
          [](const engine::Record& in) {
            engine::Record r = in;
            double acc = r.values[0];
            for (int c = 0; c < 24; ++c) acc = acc * 1.000001 + 0.5 / (c + 1);
            r.key = static_cast<std::uint64_t>(acc * 1e6) % 16;
            return r;
          },
          /*work_per_record=*/6.0)
      ->reduce_by_key(
          tag("svc-kmeans-update", seed),
          [](engine::Record& acc, const engine::Record& next) {
            acc.values[0] += next.values[0];
            acc.values[1] += next.values[1];
          },
          engine::ShuffleRequest{std::nullopt, 32, false});
}

engine::DatasetPtr service_sql_like_job(std::uint64_t seed) {
  auto fact = engine::Dataset::source(
      tag("svc-sql-fact", seed), 32,
      keyed_source(seed, /*total=*/60'000, /*num_keys=*/2'000, 0.7, 96));
  auto dim = engine::Dataset::source(
      tag("svc-sql-dim", seed), 8,
      keyed_source(seed ^ 0x9e37ULL, /*total=*/2'000, /*num_keys=*/2'000, 0.0,
                   48));
  return fact
      ->join_with(dim, tag("svc-sql-join", seed),
                  engine::ShuffleRequest{std::nullopt, 32, false})
      ->reduce_by_key(
          tag("svc-sql-agg", seed),
          [](engine::Record& acc, const engine::Record& next) {
            acc.values[0] += next.values[0];
          },
          engine::ShuffleRequest{std::nullopt, 16, false});
}

void print_header(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

bool Table::write_json(const std::string& path, const std::string& name) const {
  std::string out = "{\"bench\":";
  obs::append_json_quoted(name, out);
  out += ",\"columns\":[";
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c > 0) out += ',';
    obs::append_json_quoted(columns_[c], out);
  }
  out += "],\"rows\":[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) out += ',';
    out += '[';
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      if (c > 0) out += ',';
      obs::append_json_quoted(rows_[r][c], out);
    }
    out += ']';
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("json table written to %s\n", path.c_str());
  return true;
}

std::string json_flag(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  return "";
}

void Table::print() const {
  std::vector<std::size_t> width(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(width[c]), cells[c].c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  std::string rule;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    rule += std::string(width[c], '-') + "  ";
  }
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
}

}  // namespace chopper::bench
