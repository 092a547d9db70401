// End-to-end benchmark of the CHOPPER pipeline and the multi-tenant job
// service (see README.md in this directory for the metric definitions).
//
//   chopper_perf --workload kmeans|sql|serve_mix --seed N --seconds S
//                --trace 0|1 [--small] [--tamper-oracle] [--out-dir DIR]
//
// Workloads:
//  * kmeans, sql: Chopper::profile -> fit of every model -> Chopper::plan ->
//    optimized runs, as many pipelines as the time budget holds.
//  * serve_mix: cold serve sessions, then a closed loop keeping 4 jobs
//    outstanding in one FAIR-mode JobServer with a JSONL event log attached.
//
// Every run checks its outputs (optimized results against the profile's
// default-configuration baseline, identical metrics digests across repeats,
// served jobs against solo re-runs) and prints human-readable lines followed
// by one JSON result line. With --trace 1 the benchmark records spans around
// its calls into each layer and reports per-layer metrics instead of the
// end-to-end ones. --small shrinks the inputs for the self-test;
// --tamper-oracle corrupts one expected value so the run must fail.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chaos.h"
#include "chopper/chopper.h"
#include "common/hash.h"
#include "common/logging.h"
#include "engine/dataplane.h"
#include "harness.h"
#include "obs/event_log.h"
#include "obs/jsonl.h"
#include "obs/sinks.h"
#include "service/job_server.h"
#include "trace.h"
#include "workloads/data_gen.h"
#include "workloads/kmeans.h"
#include "workloads/sql.h"

namespace perfbench {
namespace {

using namespace chopper;

// ---------------------------------------------------------------------------
// Command line

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool small = false;
  bool tamper = false;
  std::string out_dir = ".bench_out";
};

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t v = 0;
    if (a == "--small") {
      o.small = true;
    } else if (a == "--tamper-oracle") {
      o.tamper = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--out-dir" && has_value) {
      o.out_dir = argv[++i];
    } else if (a == "--seed" && has_value && parse_u64(argv[i + 1], &v)) {
      o.seed = v;
      ++i;
    } else if (a == "--seconds" && has_value && parse_u64(argv[i + 1], &v) &&
               v > 0) {
      o.seconds = static_cast<double>(v);
      ++i;
    } else if (a == "--trace" && has_value && parse_u64(argv[i + 1], &v) &&
               v <= 1) {
      o.trace = v == 1;
      ++i;
    } else {
      std::fprintf(stderr, "chopper_perf: bad argument '%s'\n", a.c_str());
      return std::nullopt;
    }
  }
  if (o.workload != "kmeans" && o.workload != "sql" &&
      o.workload != "serve_mix") {
    std::fprintf(stderr, "chopper_perf: --workload kmeans|sql|serve_mix\n");
    return std::nullopt;
  }
  return o;
}

// ---------------------------------------------------------------------------
// Statistics and reporting

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of `v` (p in [0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest percentile with at least 10 samples beyond it.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    t = {p, percentile(v, p), v.size() - std::min(rank, v.size())};
    if (t.beyond >= 10) break;
  }
  return t;
}

/// Failed and attempted operations; every failure is printed.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void fail(const std::string& why) {
    ++failed;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
};

class Report {
 public:
  explicit Report(std::uint64_t seed) : seed_(seed) {}

  /// A metric of the JSON result.
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }

  /// A wall-clock figure printed for reading only, not in the JSON result.
  void note(const std::string& name, double value, const std::string& unit) {
    notes_.push_back({name, value, unit});
  }

  /// Prints every metric and note as a human-readable line, then the JSON
  /// result.
  void print(const Checks& checks) const {
    const double frac =
        checks.attempted == 0
            ? 1.0
            : static_cast<double>(checks.failed) /
                  static_cast<double>(checks.attempted);
    for (const auto& m : metrics_) {
      std::printf("metric %-32s %.9g %s (seed=%llu)\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(seed_));
    }
    for (const auto& m : notes_) {
      std::printf("metric %-32s %.9g %s (seed=%llu, wall clock, ungated)\n",
                  m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(seed_));
    }
    std::printf("metric %-32s %.9g ratio (seed=%llu, %zu/%zu)\n",
                "failed_frac", frac, static_cast<unsigned long long>(seed_),
                checks.failed, checks.attempted);
    std::string json = "{\"correct\": ";
    json += checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::size_t>(
                                      1, checks.attempted));
    json += ", \"failed\": " + std::to_string(checks.failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) json += ", ";
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      json += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t seed_;
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

constexpr double kMB = 1e6;

/// Wall time and process CPU time (all threads) of one interval. The gated
/// metrics use CPU time: on a shared virtual machine the hypervisor steals
/// vCPU time in bursts, which stretches wall time by up to 2x but is not
/// charged to the process.
struct Interval {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class Stopwatch {
 public:
  Stopwatch() : wall0_(wall_now()), cpu0_(cpu_now()) {}

  Interval elapsed() const {
    return {wall_now() - wall0_, cpu_now() - cpu0_};
  }

 private:
  static double wall_now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  static double cpu_now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }

  double wall0_;
  double cpu0_;
};

double median_wall(const std::vector<Interval>& v) {
  std::vector<double> x;
  for (const auto& i : v) x.push_back(i.wall_s);
  return median(std::move(x));
}

double median_cpu(const std::vector<Interval>& v) {
  std::vector<double> x;
  for (const auto& i : v) x.push_back(i.cpu_s);
  return median(std::move(x));
}

// ---------------------------------------------------------------------------
// Engine-layer accounting from MetricsRegistry rows

struct EngineTotals {
  double stage_wall_s[3] = {0.0, 0.0, 0.0};  ///< source, narrow, wide
  double job_wall_s = 0.0;
  std::size_t jobs = 0;
  std::size_t stages = 0;
  std::uint64_t shuffle_write = 0;
  std::uint64_t shuffle_read = 0;
  std::vector<double> task_records;
  std::size_t tasks_at_grain = 0;

  void add(const engine::MetricsRegistry& reg) {
    for (const auto& s : reg.stages()) {
      const int cls = s.anchor_op == engine::OpKind::kSource ? 0
                      : engine::is_wide(s.anchor_op)         ? 2
                                                             : 1;
      stage_wall_s[cls] += s.wall_time_s;
      ++stages;
      shuffle_write += s.shuffle_write_bytes;
      shuffle_read += s.shuffle_read_bytes;
      for (const auto& t : s.tasks) {
        task_records.push_back(static_cast<double>(t.records_in));
        if (t.records_in >= engine::dataplane::kParallelGrain) ++tasks_at_grain;
      }
    }
    for (const auto& j : reg.jobs()) {
      job_wall_s += j.wall_time_s;
      ++jobs;
    }
  }

  void report(Report& rep) const {
    rep.add("engine.stage_wall_s.source", stage_wall_s[0], "s");
    rep.add("engine.stage_wall_s.narrow", stage_wall_s[1], "s");
    rep.add("engine.stage_wall_s.wide", stage_wall_s[2], "s");
    rep.add("engine.job_overhead_s",
            job_wall_s - stage_wall_s[0] - stage_wall_s[1] - stage_wall_s[2],
            "s");
    rep.add("engine.jobs", static_cast<double>(jobs), "count");
    rep.add("engine.stages", static_cast<double>(stages), "count");
    rep.add("engine.tasks", static_cast<double>(task_records.size()), "count");
    rep.add("engine.shuffle_write_mb", static_cast<double>(shuffle_write) / kMB,
            "MB");
    rep.add("engine.shuffle_read_mb", static_cast<double>(shuffle_read) / kMB,
            "MB");
    rep.add("engine.task_records_p50", percentile(task_records, 50), "records");
    rep.add("engine.task_records_p99", percentile(task_records, 99), "records");
    rep.add("engine.task_records_max", percentile(task_records, 100),
            "records");
    rep.add("engine.tasks_at_grain", static_cast<double>(tasks_at_grain),
            "count");
  }
};

/// Per-stage partition-size table: records_in per task at p50/p99/max and
/// the count of tasks at or above the data plane's parallel grain.
void print_partition_table(const std::string& title,
                           const engine::MetricsRegistry& reg) {
  std::printf("\npartition sizes: %s (kParallelGrain = %zu records)\n",
              title.c_str(), engine::dataplane::kParallelGrain);
  bench::Table table({"stage", "name", "anchor", "tasks", "rec_p50",
                      "rec_p99", "rec_max", "tasks>=grain"});
  for (const auto& s : reg.stages()) {
    std::vector<double> rec;
    std::size_t at_grain = 0;
    for (const auto& t : s.tasks) {
      rec.push_back(static_cast<double>(t.records_in));
      if (t.records_in >= engine::dataplane::kParallelGrain) ++at_grain;
    }
    table.add_row({std::to_string(s.stage_id), s.name.substr(0, 48),
                   engine::to_string(s.anchor_op), std::to_string(rec.size()),
                   bench::Table::num(percentile(rec, 50), 0),
                   bench::Table::num(percentile(rec, 99), 0),
                   bench::Table::num(percentile(rec, 100), 0),
                   std::to_string(at_grain)});
  }
  table.print();
}

// ---------------------------------------------------------------------------
// Layer probes: single engine operations over the workload's generators

/// Builds a fresh dataset graph on every call, so no probe run can reuse
/// another's shuffle output.
using GraphFn = std::function<engine::DatasetPtr()>;

struct ProbeGraphs {
  GraphFn gen;      ///< the workload's main source
  GraphFn dim_gen;  ///< the dimension-side source of the join probe
  GraphFn shuffle;  ///< gen -> reduce_by_key over the workload's key space
  GraphFn join;     ///< gen join_with dim_gen
  GraphFn result;   ///< dataset shaped like the workload's final result
};

void run_probes(const ProbeGraphs& g, Tracer& tracer, Report& rep) {
  engine::Engine eng(bench::bench_cluster(), bench::vanilla_options());
  constexpr int kReps = 3;
  auto time_op = [&](const char* span, const GraphFn& graph, bool collect) {
    std::vector<double> t;
    for (int i = 0; i < kReps; ++i) {
      auto ds = graph();
      Scope s(tracer, span);
      const double t0 = tracer.now();
      if (collect) {
        (void)eng.collect(ds, span);
      } else {
        (void)eng.count(ds, span);
      }
      t.push_back(tracer.now() - t0);
    }
    return median(t);
  };
  const double gen = time_op("engine.probe.gen", g.gen, false);
  const double dim = time_op("engine.probe.dim_gen", g.dim_gen, false);
  const double shuffle = time_op("engine.probe.shuffle", g.shuffle, false);
  const double join = time_op("engine.probe.join", g.join, false);
  const double count = time_op("engine.probe.result_count", g.result, false);
  const double collect = time_op("engine.probe.result_collect", g.result, true);
  rep.add("engine.probe.gen_s", gen, "s");
  rep.add("engine.probe.shuffle_s", shuffle - gen, "s");
  rep.add("engine.probe.join_s", join - gen - dim, "s");
  rep.add("engine.probe.materialize_s", collect - count, "s");
}

void sum_values(engine::Record& acc, const engine::Record& next) {
  for (std::size_t i = 0; i < acc.values.size() && i < next.values.size(); ++i) {
    acc.values[i] += next.values[i];
  }
}

// ---------------------------------------------------------------------------
// Pipeline workloads (kmeans, sql)

/// A workload run's answer: sql {joined rows, total revenue}; kmeans {number
/// of centers, final cost, centers row-major}.
struct Answer {
  std::uint64_t rows = 0;
  double total = 0.0;
  std::vector<double> coords;
};

/// Floating-point sums change order with the partitioning, so totals and
/// centers are compared within this relative tolerance.
constexpr double kRelTol = 1e-9;

bool close_to(double got, double want, double scale) {
  return std::abs(got - want) <= kRelTol * std::max(1.0, scale);
}

/// Empty when `got` matches `want`; otherwise what differs.
std::string compare(const Answer& got, const Answer& want, bool with_coords) {
  char buf[128];
  if (got.rows != want.rows) {
    std::snprintf(buf, sizeof(buf), "rows %llu != %llu",
                  static_cast<unsigned long long>(got.rows),
                  static_cast<unsigned long long>(want.rows));
    return buf;
  }
  if (!close_to(got.total, want.total, std::abs(want.total))) {
    std::snprintf(buf, sizeof(buf), "total %.17g != %.17g", got.total,
                  want.total);
    return buf;
  }
  if (!with_coords) return "";
  if (got.coords.size() != want.coords.size()) return "center shape differs";
  double scale = 0.0;
  for (const double c : want.coords) scale = std::max(scale, std::abs(c));
  for (std::size_t i = 0; i < got.coords.size(); ++i) {
    if (!close_to(got.coords[i], want.coords[i], scale)) {
      return "center coordinate " + std::to_string(i) + " differs";
    }
  }
  return "";
}

struct PipelineSpec {
  std::string name;
  std::uint64_t seed = 0;  ///< data seed of the data_gen specs
  core::ChopperOptions chopper_options;
  std::shared_ptr<const workloads::Workload> workload;
  std::function<Answer(engine::Engine&, double scale)> run;
  /// Checks an optimized run's answer against the profile's
  /// default-configuration baseline; empty when it passes.
  std::function<std::string(const Answer& got, const Answer& baseline)> check;
  /// When set, the first optimized run of every pipeline is repeated on an
  /// engine with these options and the same plan; centers and totals must
  /// agree within kRelTol.
  std::optional<engine::EngineOptions> reference_options;
  ProbeGraphs probes;
};

core::ChopperOptions pipeline_chopper_options(const Options& opt) {
  core::ChopperOptions o = bench::chopper_options();
  if (opt.small) o.profile_partitions = {100, 200, 300};
  return o;
}

/// Sum over all points of the squared distance to the nearest center.
double kmeans_cost(const std::vector<double>& points, std::size_t dims,
                   const std::vector<double>& centers) {
  double cost = 0.0;
  for (std::size_t p = 0; p + dims <= points.size(); p += dims) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c + dims <= centers.size(); c += dims) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        const double diff = points[p + d] - centers[c + d];
        d2 += diff * diff;
      }
      best = std::min(best, d2);
    }
    cost += best;
  }
  return cost;
}

PipelineSpec kmeans_spec(const Options& opt, std::uint64_t seed) {
  workloads::KMeansParams p = bench::kmeans_params();
  p.data.seed = seed;
  if (opt.small) p.data.total_points = 20'000;
  auto wl = std::make_shared<workloads::KMeansWorkload>(p);

  // The generated points in one partition (generation is split-invariant),
  // flattened, for recomputing each run's cost outside the engine.
  auto points = std::make_shared<std::vector<double>>();
  {
    const engine::Partition all =
        workloads::gaussian_mixture_source(p.data)(0, 1);
    points->reserve(all.size() * p.data.dims);
    for (const auto& r : all.records()) {
      points->insert(points->end(), r.values.begin(), r.values.end());
    }
  }
  const std::size_t dims = p.data.dims;

  PipelineSpec spec;
  spec.name = "kmeans";
  spec.seed = seed;
  spec.chopper_options = pipeline_chopper_options(opt);
  spec.workload = wl;
  spec.run = [wl](engine::Engine& eng, double scale) {
    const auto r = wl->run_with_result(eng, scale);
    Answer a;
    a.rows = r.centers.size();
    a.total = r.cost;
    for (const auto& c : r.centers) {
      a.coords.insert(a.coords.end(), c.begin(), c.end());
    }
    return a;
  };
  // The init rounds sample the cached input with a per-partition seed (as
  // Spark's sample does), so a plan that re-partitions stage 0 legitimately
  // starts Lloyd from other centers. Against the baseline only the center
  // count is partition-invariant; the reported cost is recomputed here from
  // the generated points, and the centers are checked against a reference
  // execution of the same plan (reference_options).
  spec.check = [points, dims](const Answer& got, const Answer& baseline) {
    if (got.rows != baseline.rows) {
      return "center count " + std::to_string(got.rows) + " != baseline " +
             std::to_string(baseline.rows);
    }
    const double cost = kmeans_cost(*points, dims, got.coords);
    if (!close_to(got.total, cost, std::abs(cost))) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "cost %.17g != recomputed %.17g",
                    got.total, cost);
      return std::string(buf);
    }
    return std::string();
  };
  engine::EngineOptions ref = spec.chopper_options.engine_options;
  ref.map_side_combine = false;
  spec.reference_options = ref;

  const std::size_t parts = p.source_partitions;
  const std::size_t k = p.k;
  const workloads::GaussianMixtureSpec data = p.data;
  const workloads::DimTableSpec dim{data.total_points, 16,
                                    common::hash_combine(seed, 0xd1)};
  auto source = [=] {
    return engine::Dataset::source("probe-points", parts,
                                   workloads::gaussian_mixture_source(data));
  };
  auto dim_source = [=] {
    return engine::Dataset::source("probe-dim", parts,
                                   workloads::dim_table_source(dim));
  };
  // The workload's own shuffle: points keyed to one of k centers.
  auto centers = [=] {
    return source()
        ->map("probe-assign",
              [k](const engine::Record& r) {
                engine::Record out = r;
                out.key = r.key % k;
                return out;
              })
        ->reduce_by_key("probe-center-sum", sum_values);
  };
  spec.probes = {source, dim_source, centers,
                 [=] { return source()->join_with(dim_source(), "probe-join"); },
                 centers};
  return spec;
}

PipelineSpec sql_spec(const Options& opt, std::uint64_t seed) {
  workloads::SqlParams p = bench::sql_params();
  p.fact.seed = seed;
  p.dim.seed = common::hash_combine(seed, 0xd1);
  if (opt.small) {
    p.fact.total_rows = 40'000;
    p.fact.num_keys = 20'000;
    p.dim.num_keys = 20'000;
  }
  auto wl = std::make_shared<workloads::SqlWorkload>(p);
  PipelineSpec spec;
  spec.name = "sql";
  spec.seed = seed;
  spec.chopper_options = pipeline_chopper_options(opt);
  spec.workload = wl;
  spec.run = [wl](engine::Engine& eng, double scale) {
    const auto r = wl->run_with_result(eng, scale);
    Answer a;
    a.rows = r.joined_rows;
    a.total = r.total_revenue;
    return a;
  };
  // joined_rows exactly, total_revenue within kRelTol.
  spec.check = [](const Answer& got, const Answer& baseline) {
    return compare(got, baseline, false);
  };

  auto fact = [p] {
    return engine::Dataset::source("probe-fact", p.fact_partitions,
                                   workloads::fact_table_source(p.fact));
  };
  auto dim = [p] {
    return engine::Dataset::source("probe-dim", p.dim_partitions,
                                   workloads::dim_table_source(p.dim));
  };
  auto group_by = [=] {
    return fact()->reduce_by_key(
        "probe-group-by", sum_values,
        engine::ShuffleRequest{std::nullopt, p.fact_agg_partitions, false});
  };
  spec.probes = {fact, dim, group_by,
                 [=] { return fact()->join_with(dim(), "probe-join"); },
                 // The query's result shape: aggregated fact rows joined with
                 // the dimension, every joined row collected.
                 [=] { return group_by()->join_with(dim(), "probe-result"); }};
  return spec;
}

struct Iteration {
  Interval profile;
  Interval pipeline;  ///< profile -> fit -> plan -> first optimized run
  double fit_s = 0.0;
  double plan_s = 0.0;
  std::vector<Interval> runs;  ///< the optimized runs after the first
  double sim_s = 0.0;          ///< optimized makespan
  std::uint64_t digest = 0;    ///< bench::metrics_digest of optimized runs
  /// Engine of the first optimized run (its metrics feed the partition
  /// table of the traced run).
  std::unique_ptr<engine::Engine> first_run;
};

/// What one pipeline run accumulates across its iterations.
struct PipelineState {
  const Options& opt;
  Checks& checks;
  std::vector<double> job_ms;  ///< wall time of every workload run
  Interval busy;               ///< all iterations
};

constexpr int kSetupReps = 10;  ///< extra set-ups before each pipeline or
                                ///< serve session, for the median
constexpr int kRunRepeats = 4;  ///< optimized repeats after the first run

/// One pipeline: profile -> fit -> plan -> first optimized run on a fresh
/// Chopper, then kRunRepeats more optimized runs. With `totals` set, the
/// engine rows of every run are summed into it (the traced iteration).
Iteration pipeline_iteration(const PipelineSpec& spec, PipelineState& st,
                             core::Chopper& chopper, Tracer& tr,
                             EngineTotals* totals) {
  Iteration it;
  const Stopwatch pipeline;
  std::optional<Answer> baseline;
  auto account = [&](const engine::MetricsRegistry& reg) {
    if (totals == nullptr) return;
    Scope s(tr, "bench.collect");
    totals->add(reg);
  };
  const core::WorkloadRunner runner = [&](engine::Engine& eng, double scale) {
    Scope s(tr, "chopper.profile.runner");
    ++st.checks.attempted;
    const Stopwatch sw;
    Answer a = spec.run(eng, scale);
    st.job_ms.push_back(sw.elapsed().wall_s * 1e3);
    // The default-configuration baseline is the sweep's only run without a
    // plan provider.
    if (eng.plan_provider() == nullptr) baseline = std::move(a);
    s.end();
    account(eng.metrics());
  };

  double input_bytes = 0.0;
  {
    Scope s(tr, "chopper.profile");
    const Stopwatch sw;
    input_bytes = chopper.profile(spec.name, runner, 1.0);
    it.profile = sw.elapsed();
  }
  {
    Scope s(tr, "chopper.fit");
    const Stopwatch sw;
    std::vector<engine::PartitionerKind> kinds = {engine::PartitionerKind::kHash};
    if (spec.chopper_options.profile_both_partitioners) {
      kinds.push_back(engine::PartitionerKind::kRange);
    }
    for (const auto& stage : chopper.db().dag(spec.name)) {
      for (const auto kind : kinds) {
        Scope m(tr, "chopper.fit.model");
        (void)chopper.db().model(spec.name, stage.signature, kind);
      }
    }
    it.fit_s = sw.elapsed().wall_s;
  }
  std::vector<core::PlannedStage> plan;
  {
    Scope s(tr, "chopper.plan");
    const Stopwatch sw;
    plan = chopper.plan(spec.name, input_bytes);
    it.plan_s = sw.elapsed().wall_s;
  }
  if (!baseline) {
    st.checks.fail(spec.name + ": the profile made no default-configuration run");
    baseline = Answer{};
  }
  if (st.opt.tamper) baseline->rows += 1;
  const auto provider = chopper.make_provider(plan);

  std::optional<std::uint64_t> digest0;
  auto optimized_run = [&](bool first) {
    Scope s(tr, "engine.optimized_run");
    const Stopwatch sw;
    auto eng = chopper.make_engine();
    eng->set_plan_provider(provider);
    const Answer got = spec.run(*eng, 1.0);
    const Interval run = sw.elapsed();
    s.end();
    if (first) it.pipeline = pipeline.elapsed();
    st.job_ms.push_back(run.wall_s * 1e3);
    ++st.checks.attempted;
    const double sim = eng->metrics().total_sim_time();
    const std::uint64_t digest = bench::metrics_digest(eng->metrics());
    if (const std::string diff = spec.check(got, *baseline); !diff.empty()) {
      st.checks.fail(spec.name + ": optimized result vs baseline: " + diff);
    }
    if (!digest0) {
      digest0 = digest;
      it.digest = digest;
      it.sim_s = sim;
    } else if (*digest0 != digest || it.sim_s != sim) {
      st.checks.fail(spec.name + ": metrics digest differs across repeats");
    }
    account(eng->metrics());
    if (first && spec.reference_options) {
      Scope r(tr, "engine.reference_run");
      engine::Engine ref(chopper.cluster(), *spec.reference_options);
      ref.set_plan_provider(provider);
      const Answer want = spec.run(ref, 1.0);
      r.end();
      ++st.checks.attempted;
      if (const std::string diff = compare(got, want, true); !diff.empty()) {
        st.checks.fail(spec.name + ": optimized result vs reference run: " +
                       diff);
      }
    }
    if (first) it.first_run = std::move(eng);
    return run;
  };
  (void)optimized_run(true);
  for (int r = 0; r < kRunRepeats; ++r) it.runs.push_back(optimized_run(false));
  const Interval busy = pipeline.elapsed();
  st.busy.wall_s += busy.wall_s;
  st.busy.cpu_s += busy.cpu_s;
  std::printf(
      "%s data seed %llu: pipeline %.3fs wall / %.3fs cpu (profile %.3fs / "
      "%.3fs, fit %.6fs, plan %.6fs), run median %.4fs / %.4fs, run_sim_s "
      "%.17g, digest %016llx\n",
      spec.name.c_str(), static_cast<unsigned long long>(spec.seed),
      it.pipeline.wall_s, it.pipeline.cpu_s, it.profile.wall_s,
      it.profile.cpu_s, it.fit_s, it.plan_s, median_wall(it.runs),
      median_cpu(it.runs), it.sim_s,
      static_cast<unsigned long long>(it.digest));
  return it;
}

/// Set-up samples: a Chopper plus one engine from Chopper::make_engine (its
/// task thread pool). make() returns the Chopper of the next pipeline;
/// kSetupReps extra set-ups before every pipeline spread the samples over
/// the run.
class PipelineSetup {
 public:
  explicit PipelineSetup(core::ChopperOptions options)
      : options_(std::move(options)) {}

  std::unique_ptr<core::Chopper> make() {
    for (int i = 0; i < kSetupReps; ++i) (void)make_one();
    return make_one();
  }

  double median_cpu_s() const { return median_cpu(samples_); }

 private:
  std::unique_ptr<core::Chopper> make_one() {
    const Stopwatch sw;
    auto chopper =
        std::make_unique<core::Chopper>(bench::bench_cluster(), options_);
    auto eng = chopper->make_engine();
    samples_.push_back(sw.elapsed());
    return chopper;
  }

  core::ChopperOptions options_;
  std::vector<Interval> samples_;
};

/// Per-layer metrics of the last traced pipeline (`traced`, whose engine
/// rows are in `totals`); `overhead_frac` compares traced and untraced
/// pipelines.
void report_pipeline_layers(const PipelineSpec& spec, Tracer& tracer,
                            core::Chopper& chopper, const Iteration& traced,
                            const EngineTotals& totals, double overhead_frac,
                            Report& rep) {
  // The profile span's children: runner spans, and the benchmark's own
  // accounting, which is not ingest time.
  std::uint64_t profile_id = 0;
  for (const auto& s : tracer.spans()) {
    if (s.name == "chopper.profile") profile_id = s.id;
  }
  double runner_s = 0.0;
  double accounting_s = 0.0;
  std::size_t runs = 0;
  for (const auto& s : tracer.spans()) {
    if (s.parent != profile_id) continue;
    if (s.name == "chopper.profile.runner") {
      runner_s += s.duration();
      ++runs;
    }
    if (s.name == "bench.collect") accounting_s += s.duration();
  }
  const double ingest_s = traced.profile.wall_s - runner_s - accounting_s;
  std::vector<double> plan_s = {traced.plan_s};
  const double input_bytes =
      static_cast<double>(spec.workload->input_bytes(1.0));
  for (int i = 0; i < 4; ++i) {
    Scope s(tracer, "chopper.plan");
    const Stopwatch sw;
    (void)chopper.plan(spec.name, input_bytes);
    plan_s.push_back(sw.elapsed().wall_s);
  }
  rep.add("chopper.profile.engine_runs", static_cast<double>(runs), "count");
  rep.add("chopper.profile.engine_run_s", runner_s, "s");
  rep.add("chopper.profile.ingest_s", ingest_s, "s");
  rep.add("chopper.fit_s", traced.fit_s, "s");
  rep.add("chopper.plan_s", median(plan_s), "s");
  rep.add("chopper.observations",
          static_cast<double>(chopper.db().total_observations()), "count");
  totals.report(rep);
  run_probes(spec.probes, tracer, rep);
  rep.add("service.vtime_queue_p50_s", 0.0, "s");
  rep.add("service.vtime_queue_tail_s", 0.0, "s");
  rep.add("service.vtime_wait_p50_s", 0.0, "s");
  rep.add("service.vtime_wait_tail_s", 0.0, "s");
  rep.add("service.rejected", 0.0, "count");
  // No event sink is attached on the pipeline workloads, so nothing is
  // emitted (the event log's disabled-guard contract).
  rep.add("obs.events", 0.0, "count");
  rep.add("obs.log_mb", 0.0, "MB");
  rep.add("obs.append_s", 0.0, "s");
  rep.add("trace.overhead_frac", overhead_frac, "ratio");
  std::printf("traced profile_s %.6f s = engine_run_s %.6f + ingest_s %.6f + "
              "benchmark accounting %.6f (wall clock)\n",
              traced.profile.wall_s, runner_s, ingest_s, accounting_s);
}

void run_pipeline(const Options& opt, Tracer& tracer, Report& rep,
                  Checks& checks) {
  // Pipeline i of a run uses data seed `opt.seed` for i == 0 and one derived
  // from it otherwise, so a run's medians span several inputs (plans differ
  // from input to input) while the same --seed still gives the same inputs.
  auto spec_for = [&](std::size_t i) {
    const std::uint64_t seed =
        i == 0 ? opt.seed : common::hash_combine(opt.seed, i);
    return opt.workload == "kmeans" ? kmeans_spec(opt, seed)
                                    : sql_spec(opt, seed);
  };
  PipelineSetup setup(pipeline_chopper_options(opt));
  PipelineState st{opt, checks, {}, {}};
  Tracer untraced(false);

  if (opt.trace) {
    // Untraced and traced pipelines on the --seed input alternate, twice
    // each: the ratio of their median pipeline wall times is the tracing
    // overhead. The per-layer metrics come from the last traced pipeline.
    const PipelineSpec spec = spec_for(0);
    std::vector<Interval> plain, traced_runs;
    EngineTotals totals;
    std::unique_ptr<core::Chopper> chopper;
    Iteration traced;
    for (int i = 0; i < 2; ++i) {
      plain.push_back(
          pipeline_iteration(spec, st, *setup.make(), untraced, nullptr)
              .pipeline);
      totals = EngineTotals{};
      chopper = setup.make();
      traced = pipeline_iteration(spec, st, *chopper, tracer, &totals);
      traced_runs.push_back(traced.pipeline);
    }
    report_pipeline_layers(spec, tracer, *chopper, traced, totals,
                           median_wall(traced_runs) / median_wall(plain) - 1.0,
                           rep);
    print_partition_table(spec.name + " optimized run, seed " +
                              std::to_string(opt.seed),
                          traced.first_run->metrics());
    std::printf("all engine runs of the traced pipeline: %zu tasks, %zu at or "
                "above the grain\n",
                totals.task_records.size(), totals.tasks_at_grain);

    // The optimized makespan must equal the one the shared bench harness's
    // profile -> plan -> run path gives for the same workload and seed.
    core::Chopper fresh(bench::bench_cluster(), spec.chopper_options);
    const double harness_sim =
        bench::run_chopper(fresh, *spec.workload)->metrics().total_sim_time();
    ++checks.attempted;
    if (harness_sim != traced.sim_s) {
      checks.fail(spec.name + ": run_sim_s differs from bench::run_chopper");
    }
    std::printf("seed=%llu bench::run_chopper makespan %.17g s, run_sim_s "
                "%.17g s\n",
                static_cast<unsigned long long>(opt.seed), harness_sim,
                traced.sim_s);
    return;
  }

  // Pipelines per run at --seconds S: max(1, floor(S / T)), T being a
  // pipeline's wall time on a quiet 4-core host. A fixed count keeps each
  // run's sample sizes, and so its percentiles, identical from run to run;
  // only on a host so slow that the next pipeline would end past 1.3 S does
  // a run stop early.
  const double pipeline_wall_s = opt.workload == "kmeans" ? 5.5 : 9.0;
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::floor(opt.seconds / pipeline_wall_s)));
  std::vector<Interval> pipelines, profiles, runs;
  std::vector<double> sims;
  const Stopwatch total;
  for (std::size_t i = 0; i < n; ++i) {
    const double elapsed = total.elapsed().wall_s;
    if (i > 0 && elapsed * (i + 1) / i > 1.3 * opt.seconds) break;
    const PipelineSpec spec = spec_for(i);
    const Iteration it =
        pipeline_iteration(spec, st, *setup.make(), untraced, nullptr);
    pipelines.push_back(it.pipeline);
    profiles.push_back(it.profile);
    runs.insert(runs.end(), it.runs.begin(), it.runs.end());
    sims.push_back(it.sim_s);
  }
  const double jobs = static_cast<double>(st.job_ms.size());
  rep.add("setup_s", setup.median_cpu_s(), "s");
  rep.add("pipeline_cpu_s", median_cpu(pipelines), "s");
  rep.add("profile_cpu_s", median_cpu(profiles), "s");
  rep.add("run_cpu_s", median_cpu(runs), "s");
  rep.add("run_sim_s", median(sims), "s");
  rep.add("jobs_per_cpu_s", jobs / st.busy.cpu_s, "1/s");
  const Tail tail = tail_of(st.job_ms);
  rep.note("pipeline_s", median_wall(pipelines), "s");
  rep.note("profile_s", median_wall(profiles), "s");
  rep.note("run_s", median_wall(runs), "s");
  rep.note("jobs_per_s", jobs / st.busy.wall_s, "1/s");
  rep.note("job_p50_ms", median(st.job_ms), "ms");
  rep.note("job_tail_ms", tail.value, "ms");
  std::printf("%zu pipelines, %zu workload runs; job_tail_ms is p%g with %zu "
              "samples beyond it; run_sim_s is the median over the "
              "pipelines' data seeds\n",
              pipelines.size(), st.job_ms.size(), tail.pct, tail.beyond);
}

// ---------------------------------------------------------------------------
// serve_mix: closed loop into one JobServer

constexpr std::size_t kOutstanding = 4;     ///< jobs kept in flight
constexpr std::size_t kSessions = 5;        ///< cold sessions for pipeline_s
constexpr std::size_t kSessionJobs = 48;    ///< jobs served per session
constexpr std::size_t kSessionIndex = 1'000'000;  ///< first session job index
constexpr std::size_t kOracleSample = 270;  ///< jobs 0..269 re-run solo
/// Sizes the timed loop: a quiet 4-core host serves about 115 jobs per
/// second, one losing a third of its vCPU time to steal about 50.
constexpr double kServeRate = 60.0;

/// The `chopperctl serve` job mix: per three submissions one SQL-like and
/// one KMeans-like batch job and one small interactive job, each with its
/// own seed derived from the benchmark seed.
engine::DatasetPtr serve_job(std::uint64_t seed, std::size_t i,
                             std::string* name, std::string* pool) {
  const std::uint64_t job_seed = common::hash_combine(seed, i);
  switch (i % 3) {
    case 0:
      *name = "sql-" + std::to_string(i);
      *pool = "batch";
      return bench::service_sql_like_job(job_seed);
    case 1:
      *name = "kmeans-" + std::to_string(i);
      *pool = "batch";
      return bench::service_kmeans_like_job(job_seed);
    default:
      *name = "agg-" + std::to_string(i);
      *pool = "interactive";
      return bench::service_small_job(job_seed);
  }
}

service::JobServerOptions serve_options() {
  service::JobServerOptions o;
  o.mode = service::SchedulingMode::kFair;
  o.max_concurrent_jobs = kOutstanding;
  o.pools["interactive"] = {/*weight=*/2.0, /*min_share=*/0.2};
  o.pools["batch"] = {/*weight=*/1.0, /*min_share=*/0.0};
  return o;
}

/// Engine + event log + JobServer, wired as `chopperctl serve --event-log`.
struct ServeRig {
  explicit ServeRig(const std::string& log_path)
      : eng(bench::bench_cluster(), bench::vanilla_options()),
        server(wire(log_path), serve_options()) {}

  engine::Engine& wire(const std::string& log_path) {
    log.attach(std::make_shared<obs::JsonlFileSink>(log_path));
    eng.set_event_log(&log);  // before the JobServer: its ledger wires in
    return eng;
  }

  obs::EventLog log;  ///< outlives the engine that points at it
  engine::Engine eng;
  service::JobServer server;
};

struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<double> queue_vtime_s;  ///< admit_vtime - submit_vtime
  std::vector<double> wait_vtime_s;   ///< latency_s() - service_s
  std::size_t rejected = 0;
  Interval elapsed;  ///< loop start to last completion
  /// Served oracle sample: job index -> {count, records_digest}.
  std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>> sample;
};

/// Checksum of a job's collected records (keys, value bits, payload sizes),
/// so the oracle compares records without keeping them.
std::uint64_t records_digest(const std::vector<engine::Record>& records) {
  common::Checksum64 c;
  for (const auto& r : records) {
    c.update_u64(r.key);
    c.update_array(r.values.data(), r.values.size());
    c.update_u64(r.aux_bytes);
  }
  return c.digest();
}

/// Keeps kOutstanding jobs in flight, with zero think time, submitting jobs
/// first_index, first_index + 1, ... until `seconds` have passed or
/// `max_jobs` were submitted; then drains.
LoopResult closed_loop(ServeRig& rig, const Options& opt, double seconds,
                       std::size_t max_jobs, std::size_t first_index,
                       Tracer& tr, Checks& checks) {
  struct Pending {
    service::JobHandle handle;
    std::size_t index;
    double submitted_at;
  };
  LoopResult out;
  std::vector<Pending> pending;
  std::size_t next = first_index;
  const Stopwatch loop;
  const double stop = tr.now() + seconds;
  auto more = [&] { return tr.now() < stop && next - first_index < max_jobs; };
  auto submit = [&] {
    service::SubmitOptions o;
    const std::size_t i = next++;
    const engine::DatasetPtr ds = serve_job(opt.seed, i, &o.name, &o.pool);
    o.collect = true;
    ++checks.attempted;
    Scope s(tr, "service.submit");
    const double t = tr.now();
    try {
      pending.push_back({rig.server.submit(ds, o), i, t});
    } catch (const service::QueueFullError& e) {
      ++out.rejected;
      checks.fail(std::string("submit rejected: ") + e.what());
    }
  };
  while (pending.size() < kOutstanding && more()) submit();
  while (!pending.empty()) {
    bool progressed = false;
    for (std::size_t k = 0; k < pending.size();) {
      const service::JobState state = pending[k].handle.status();
      if (state == service::JobState::kQueued ||
          state == service::JobState::kRunning) {
        ++k;
        continue;
      }
      Pending p = std::move(pending[k]);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
      progressed = true;
      Scope s(tr, "service.wait");
      try {
        engine::JobResult r = p.handle.wait();
        const double done = tr.now();
        out.latency_ms.push_back((done - p.submitted_at) * 1e3);
        if (p.index < kOracleSample) {
          out.sample.emplace(p.index,
                             std::pair{r.count, records_digest(r.records)});
        }
      } catch (const engine::JobAbortedError& e) {
        checks.fail("job " + std::to_string(p.index) + " aborted: " + e.what());
      }
      s.end();
      const service::JobStats js = p.handle.stats();
      out.queue_vtime_s.push_back(js.admit_vtime - js.submit_vtime);
      out.wait_vtime_s.push_back(js.latency_s() - js.service_s);
      if (more()) submit();
    }
    // Poll every 0.5 ms: fine enough for jobs of tens of milliseconds, and
    // costs the process little CPU.
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  out.elapsed = loop.elapsed();
  return out;
}

/// Re-runs the served oracle sample solo, one job after another on one
/// fresh Engine, and checks counts and records against the served results.
struct SoloSweep {
  Interval total;
  std::vector<Interval> runs;
  double sim_total_s = 0.0;  ///< solo makespans summed
};

SoloSweep solo_sweep(const LoopResult& loop, const Options& opt, Tracer& tr,
                     Checks& checks) {
  SoloSweep out;
  const Stopwatch sweep;
  engine::Engine eng(bench::bench_cluster(), bench::vanilla_options());
  for (const auto& [i, served] : loop.sample) {
    std::string name, pool;
    const engine::DatasetPtr ds = serve_job(opt.seed, i, &name, &pool);
    Scope s(tr, "engine.solo_run");
    const Stopwatch sw;
    engine::JobResult solo = eng.collect(ds, name);
    out.runs.push_back(sw.elapsed());
    s.end();
    out.sim_total_s += solo.sim_time_s;
    ++checks.attempted;
    const std::uint64_t want = solo.count + (opt.tamper && i == 0 ? 1 : 0);
    if (served.first != want || served.second != records_digest(solo.records)) {
      checks.fail("served job " + name + " differs from its solo re-run");
    }
  }
  out.total = sweep.elapsed();
  if (loop.sample.size() < std::min<std::size_t>(kOracleSample, 3)) {
    checks.fail("too few served jobs for the oracle sample");
  }
  return out;
}

/// Event-log layer: events and bytes of the JSONL log, and the time to
/// re-append the decoded events through a fresh JsonlFileSink.
void report_log(const std::string& path, const std::string& replay_path,
                Tracer& tr, Report& rep) {
  std::ifstream in(path);
  std::string line;
  std::vector<obs::Event> events;
  std::uint64_t bytes = 0;
  while (std::getline(in, line)) {
    bytes += line.size() + 1;
    if (auto e = obs::from_jsonl(line)) events.push_back(std::move(*e));
  }
  double append_s = 0.0;
  {
    obs::JsonlFileSink sink(replay_path);
    Scope s(tr, "obs.append");
    const Stopwatch sw;
    for (const auto& e : events) sink.append(e);
    sink.flush();
    append_s = sw.elapsed().wall_s;
  }
  rep.add("obs.events", static_cast<double>(events.size()), "count");
  rep.add("obs.log_mb", static_cast<double>(bytes) / kMB, "MB");
  rep.add("obs.append_s", append_s, "s");
}

ProbeGraphs serve_probes(std::uint64_t seed) {
  // The service jobs' generator is private to the bench harness; these
  // probes use the data_gen fact/dimension generators at the SQL-like
  // service job's sizes (60k rows, 2k keys, 32 and 8 partitions).
  const workloads::FactTableSpec fact{60'000, 2'000, 0.7, 96, seed};
  const workloads::DimTableSpec dim{2'000, 48, common::hash_combine(seed, 0xd1)};
  auto f = [fact] {
    return engine::Dataset::source("probe-fact", 32,
                                   workloads::fact_table_source(fact));
  };
  auto d = [dim] {
    return engine::Dataset::source("probe-dim", 8,
                                   workloads::dim_table_source(dim));
  };
  auto agg = [f] {
    return f()->reduce_by_key("probe-agg", sum_values,
                              engine::ShuffleRequest{std::nullopt, 16, false});
  };
  return {f, d, agg,
          [f, d] {
            return f()->join_with(d(), "probe-join",
                                  engine::ShuffleRequest{std::nullopt, 32,
                                                         false});
          },
          agg};
}

void run_serve(const Options& opt, Tracer& tracer, Report& rep,
               Checks& checks) {
  const Stopwatch run;
  const std::string log_prefix =
      opt.out_dir + "/serve-seed" + std::to_string(opt.seed);
  const std::string scratch_log = log_prefix + "-setup.jsonl";
  std::vector<Interval> setups;
  auto make_rig = [&](const std::string& path) {
    const Stopwatch sw;
    auto rig = std::make_unique<ServeRig>(path);
    setups.push_back(sw.elapsed());
    return rig;
  };
  constexpr std::size_t kAnyCount = std::numeric_limits<std::size_t>::max();
  constexpr double kAnyTime = std::numeric_limits<double>::infinity();

  Tracer untraced(false);
  if (opt.trace) {
    // Untraced and traced halves on fresh servers: the ratio of their median
    // job latencies is the tracing overhead.
    LoopResult base;
    {
      auto rig = make_rig(log_prefix + "-untraced.jsonl");
      base = closed_loop(*rig, opt, opt.seconds / 2, kAnyCount, 0, untraced,
                         checks);
    }
    std::filesystem::remove(log_prefix + "-untraced.jsonl");
    const std::string log_path = log_prefix + ".jsonl";
    EngineTotals totals;
    LoopResult traced;
    {
      auto rig = make_rig(log_path);
      traced = closed_loop(*rig, opt, opt.seconds / 2, kAnyCount, 0, tracer,
                           checks);
      rig->server.wait_all();
      totals.add(rig->eng.metrics());
    }  // destroying the rig flushes and closes the log
    const SoloSweep solo = solo_sweep(traced, opt, tracer, checks);
    rep.add("chopper.profile.engine_runs", 0.0, "count");
    rep.add("chopper.profile.engine_run_s", 0.0, "s");
    rep.add("chopper.profile.ingest_s", 0.0, "s");
    rep.add("chopper.fit_s", 0.0, "s");
    rep.add("chopper.plan_s", 0.0, "s");
    rep.add("chopper.observations", 0.0, "count");
    totals.report(rep);
    run_probes(serve_probes(opt.seed), tracer, rep);
    const Tail qtail = tail_of(traced.queue_vtime_s);
    rep.add("service.vtime_queue_p50_s", median(traced.queue_vtime_s), "s");
    rep.add("service.vtime_queue_tail_s", qtail.value, "s");
    rep.add("service.vtime_wait_p50_s", median(traced.wait_vtime_s), "s");
    rep.add("service.vtime_wait_tail_s", tail_of(traced.wait_vtime_s).value,
            "s");
    rep.add("service.rejected", static_cast<double>(traced.rejected), "count");
    report_log(log_path, log_prefix + "-replay.jsonl", tracer, rep);
    rep.add("trace.overhead_frac",
            median(traced.latency_ms) / median(base.latency_ms) - 1.0, "ratio");
    std::printf("service.vtime_queue_tail_s is p%g with %zu samples beyond "
                "it; %zu jobs served\n",
                qtail.pct, qtail.beyond, traced.latency_ms.size());
    // Partition sizes of one job of each kind, from solo re-runs.
    for (std::size_t i = 0; i < 3; ++i) {
      std::string name, pool;
      const engine::DatasetPtr ds = serve_job(opt.seed, i, &name, &pool);
      engine::Engine eng(bench::bench_cluster(), bench::vanilla_options());
      (void)eng.collect(ds, name);
      print_partition_table(name + ", seed " + std::to_string(opt.seed),
                            eng.metrics());
    }
    std::printf("all served jobs: %zu tasks, %zu at or above the grain; "
                "solo sweep %.3fs\n",
                totals.task_records.size(), totals.tasks_at_grain,
                solo.total.wall_s);
    std::filesystem::remove(log_path);
    std::filesystem::remove(log_prefix + "-replay.jsonl");
    return;
  }

  // Cold sessions: a fresh server serves kSessionJobs jobs to completion.
  // Extra set-ups around them spread the set-up samples over the run.
  std::vector<Interval> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    for (int r = 0; r < kSetupReps; ++r) (void)make_rig(scratch_log);
    const Stopwatch sw;
    auto rig = make_rig(scratch_log);
    (void)closed_loop(*rig, opt, kAnyTime, kSessionJobs,
                      kSessionIndex + i * kSessionJobs, untraced, checks);
    sessions.push_back(sw.elapsed());
  }
  std::filesystem::remove(scratch_log);

  // The timed loop serves a fixed number of jobs, sized to the budget less
  // about six seconds for the sessions and the solo sweep: the server's
  // metrics rows grow with every job, so a fixed count keeps the run's work
  // and memory the same whatever the host's speed. Only on a host so slow
  // that the run would pass 1.3 S does the loop stop early.
  LoopResult loop;
  {
    auto rig = make_rig(log_prefix + ".jsonl");
    const auto jobs = std::max(
        kOracleSample, static_cast<std::size_t>(
                           std::max(1.0, opt.seconds - 6.0) * kServeRate));
    loop = closed_loop(*rig, opt, std::max(1.0, 1.3 * opt.seconds -
                                                     run.elapsed().wall_s),
                       jobs, 0, untraced, checks);
  }
  std::filesystem::remove(log_prefix + ".jsonl");
  const SoloSweep solo = solo_sweep(loop, opt, untraced, checks);
  const double served = static_cast<double>(loop.latency_ms.size());
  rep.add("setup_s", median_cpu(setups), "s");
  rep.add("pipeline_cpu_s", median_cpu(sessions), "s");
  rep.add("profile_cpu_s", solo.total.cpu_s, "s");
  // Mean, not median: the sample mixes three job kinds of different cost,
  // and a median sits on the boundary between two of them.
  const double solo_jobs =
      std::max<double>(1.0, static_cast<double>(solo.runs.size()));
  rep.add("run_cpu_s", solo.total.cpu_s / solo_jobs, "s");
  rep.add("run_sim_s", solo.sim_total_s, "s");
  rep.add("jobs_per_cpu_s", served / loop.elapsed.cpu_s, "1/s");
  const Tail tail = tail_of(loop.latency_ms);
  rep.note("pipeline_s", median_wall(sessions), "s");
  rep.note("profile_s", solo.total.wall_s, "s");
  rep.note("run_s", solo.total.wall_s / solo_jobs, "s");
  rep.note("jobs_per_s", served / loop.elapsed.wall_s, "1/s");
  rep.note("job_p50_ms", median(loop.latency_ms), "ms");
  rep.note("job_tail_ms", tail.value, "ms");
  std::printf("%zu jobs served in %.3fs; job_tail_ms is p%g with %zu samples "
              "beyond it\n",
              loop.latency_ms.size(), loop.elapsed.wall_s, tail.pct,
              tail.beyond);
  std::printf("seed=%llu run_sim_s=%.17g (solo makespans of %zu sampled "
              "jobs, summed)\n",
              static_cast<unsigned long long>(opt.seed), solo.sim_total_s,
              solo.runs.size());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  chopper::common::set_log_level_default(chopper::common::LogLevel::kWarn);
  const auto opt = parse_args(argc, argv);
  if (!opt) return 2;
  std::filesystem::create_directories(opt->out_dir);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s "
              "host_cores=%u\n",
              opt->workload.c_str(), static_cast<unsigned long long>(opt->seed),
              opt->seconds, opt->trace ? 1 : 0, opt->small ? " small" : "",
              std::thread::hardware_concurrency());
  Tracer tracer(opt->trace);
  Report rep(opt->seed);
  Checks checks;
  try {
    if (opt->workload == "serve_mix") {
      run_serve(*opt, tracer, rep, checks);
    } else {
      run_pipeline(*opt, tracer, rep, checks);
    }
  } catch (const std::exception& e) {
    checks.fail(std::string("run aborted: ") + e.what());
  }
  if (opt->trace) {
    const std::string path = opt->out_dir + "/spans-" + opt->workload +
                             "-seed" + std::to_string(opt->seed) + ".jsonl";
    if (tracer.write(path)) {
      std::printf("\nspans written to %s\n", path.c_str());
    }
    bench::Table table({"span", "count", "total_s", "self_s"});
    for (const auto& [name, t] : tracer.totals()) {
      table.add_row({name, std::to_string(t.count),
                     bench::Table::num(t.total_s, 6),
                     bench::Table::num(t.self_s, 6)});
    }
    table.print();
  } else {
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  }
  rep.print(checks);
  std::fflush(stdout);
  return checks.failed == 0 ? 0 : 1;
}
