// Microbenchmarks of the engine's hot paths: partitioner dispatch, the
// batched data plane (radix shuffle scatter, map-side combine, reduce-side
// merge), and the event-log emit guard.
//
// Two layers:
//  * The always-run data-plane sections compare the batched SoA
//    implementations (engine/dataplane) against faithful replicas of the
//    pre-§13 per-record code (vector<Record> buckets, unordered_map merges),
//    and enforce:
//      - the allocation contract with a global operator-new counter: the
//        batched paths must allocate at least 4x fewer times than legacy;
//      - map-side combine speed at scale: on the large-input row (2^22
//        records, 4096 keys) the batched combine must be at least as fast
//        as the legacy per-bucket hash maps.
//    `--json PATH` mirrors the section table into a BENCH_*.json artifact.
//  * google-benchmark micro-timers for profiling individual primitives.
//
// The custom main() additionally enforces the event-log overhead contract
// (DESIGN.md §12): with no sink attached, the per-task instrumentation
// guard must not allocate — checked by counting global operator new calls
// across 100k disabled-guard evaluations before anything else runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "engine/dataplane.h"
#include "engine/partition.h"
#include "engine/partitioner.h"
#include "harness.h"
#include "obs/event_log.h"
#include "obs/sinks.h"

namespace {
// Relaxed atomic: the engine sections allocate from task threads, and the
// gates only need an exact total at the single-threaded sample points — no
// ordering required.
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace chopper;

engine::Partition make_records(std::size_t n, std::size_t distinct_keys,
                               std::uint64_t seed = 99) {
  common::Xoshiro256 rng(seed);
  engine::Partition p;
  p.reserve(n);
  p.reserve_values(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const double vals[2] = {rng.next_double(), 1.0};
    p.emplace(rng.next_below(distinct_keys), vals, 2, 0);
  }
  return p;
}

void sum_fn(engine::Record& acc, const engine::Record& next) {
  acc.values[0] += next.values[0];
  acc.values[1] += next.values[1];
}

// ---------------------------------------------------------------------------
// Data-plane sections: batched implementations vs pre-batched replicas.
// ---------------------------------------------------------------------------

struct Section {
  std::string name;
  std::size_t records = 0;
  double legacy_s = 0.0;
  double batched_s = 0.0;
  std::size_t legacy_allocs = 0;
  std::size_t batched_allocs = 0;

  double speedup() const { return legacy_s / std::max(batched_s, 1e-12); }
  double legacy_allocs_per_krec() const {
    return 1e3 * static_cast<double>(legacy_allocs) /
           static_cast<double>(records);
  }
  double batched_allocs_per_krec() const {
    return 1e3 * static_cast<double>(batched_allocs) /
           static_cast<double>(records);
  }
};

template <typename F>
double best_seconds(F&& f, int reps) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

template <typename Legacy, typename Batched>
Section measure(std::string name, std::size_t records, Legacy&& legacy,
                Batched&& batched) {
  Section s;
  s.name = std::move(name);
  s.records = records;
  legacy();  // warmup (also sizes the batched path's per-thread scratch)
  batched();
  std::size_t a0 = g_allocs.load(std::memory_order_relaxed);
  legacy();
  s.legacy_allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  a0 = g_allocs.load(std::memory_order_relaxed);
  batched();
  s.batched_allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  s.legacy_s = best_seconds(legacy, 5);
  s.batched_s = best_seconds(batched, 5);
  return s;
}

/// Shuffle write: legacy = per-record partitioner call + per-record
/// vector<Record> push (the old Partition storage); batched = single-pass
/// radix scatter into exactly-reserved arenas.
Section shuffle_write_section(const engine::Partition& data,
                              const engine::Partitioner& part,
                              const std::string& name) {
  const std::size_t r_count = part.num_partitions();
  auto legacy = [&] {
    std::vector<std::vector<engine::Record>> buckets(r_count);
    engine::Record scratch;
    for (std::size_t i = 0; i < data.size(); ++i) {
      data.materialize_into(i, scratch);
      buckets[part.partition_of(scratch.key)].push_back(scratch);
    }
    benchmark::DoNotOptimize(buckets.data());
  };
  auto batched = [&] {
    std::vector<engine::Partition> buckets(r_count);
    engine::dataplane::radix_scatter(data, part, buckets);
    benchmark::DoNotOptimize(buckets.data());
  };
  return measure(name, data.size(), legacy, batched);
}

/// Reduce-side merge: legacy = unordered_map accumulation + sorted-key
/// emission with a second at() probe per key; batched = k-way merge of the
/// key-sorted runs.
Section reduce_merge_section(const std::vector<engine::Partition>& parts) {
  std::size_t records = 0;
  for (const auto& p : parts) records += p.size();
  auto legacy = [&] {
    std::unordered_map<std::uint64_t, engine::Record> acc;
    engine::Record scratch;
    for (const auto& part : parts) {
      for (std::size_t i = 0; i < part.size(); ++i) {
        part.materialize_into(i, scratch);
        auto [it, inserted] = acc.try_emplace(scratch.key, scratch);
        if (!inserted) sum_fn(it->second, scratch);
      }
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(acc.size());
    for (const auto& [k, v] : acc) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    engine::Partition out;
    out.reserve(keys.size());
    for (const auto k : keys) out.push(acc.at(k));
    benchmark::DoNotOptimize(out.size());
  };
  auto batched = [&] {
    std::vector<engine::Partition> copy = parts;  // bulk arena copies
    const auto out =
        engine::dataplane::merge_reduce_by_key(std::move(copy), sum_fn);
    benchmark::DoNotOptimize(out.size());
  };
  return measure("reduce_merge", records, legacy, batched);
}

/// Map-side combine: legacy = per-bucket unordered_map + sorted keys +
/// at() emission; batched = one key table over the whole input, then one
/// bucketing and one sort of the distinct keys.
Section combine_section(const engine::Partition& data,
                        const engine::Partitioner& part,
                        const std::string& name) {
  const std::size_t r_count = part.num_partitions();
  auto legacy = [&] {
    std::vector<std::unordered_map<std::uint64_t, engine::Record>> accs(
        r_count);
    engine::Record scratch;
    for (std::size_t i = 0; i < data.size(); ++i) {
      data.materialize_into(i, scratch);
      auto& acc = accs[part.partition_of(scratch.key)];
      auto [it, inserted] = acc.try_emplace(scratch.key, scratch);
      if (!inserted) sum_fn(it->second, scratch);
    }
    std::vector<std::vector<engine::Record>> row(r_count);
    for (std::size_t r = 0; r < r_count; ++r) {
      std::vector<std::uint64_t> keys;
      keys.reserve(accs[r].size());
      for (const auto& [k, v] : accs[r]) keys.push_back(k);
      std::sort(keys.begin(), keys.end());
      row[r].reserve(keys.size());
      for (const auto k : keys) row[r].push_back(accs[r].at(k));
    }
    benchmark::DoNotOptimize(row.data());
  };
  auto batched = [&] {
    std::vector<engine::Partition> row(r_count);
    engine::dataplane::combine_scatter(data, part, sum_fn, row);
    benchmark::DoNotOptimize(row.data());
  };
  return measure(name, data.size(), legacy, batched);
}

/// Runs every section, prints the table, enforces the contracts:
///  * allocation: batched >= 4x fewer allocs than legacy on every section;
///  * speed at scale: batched >= legacy on map_side_combine_large.
bool run_dataplane_sections(const std::string& json_path) {
  const std::size_t kRecords = 1 << 16;
  const auto data = make_records(kRecords, 1 << 12);

  // Post-combine shape for reduce_merge: each map task's shuffle row is
  // key-sorted (what combine_scatter emits) and carries high key
  // cardinality — a key appears ~once per contributing map task.
  std::vector<engine::Partition> merge_parts(8);
  for (std::size_t i = 0; i < merge_parts.size(); ++i) {
    merge_parts[i] = make_records(8192, 1 << 16, 99 + i);
    merge_parts[i].stable_sort_by_key();
  }

  std::vector<Section> sections;
  const engine::HashPartitioner hash(100);
  sections.push_back(shuffle_write_section(data, hash, "shuffle_write_hash"));
  {
    common::Xoshiro256 rng(7);
    std::vector<std::uint64_t> sample(2048);
    for (auto& k : sample) k = rng.next_below(1 << 12);
    const auto range = engine::RangePartitioner::from_sample(100, sample);
    sections.push_back(
        shuffle_write_section(data, *range, "shuffle_write_range"));
  }
  sections.push_back(reduce_merge_section(merge_parts));
  sections.push_back(combine_section(data, hash, "map_side_combine"));
  {
    // A large map task folding into few keys: the shape where a combine
    // that sorts every record loses to plain hash maps.
    const auto big = make_records(std::size_t{1} << 22, 1 << 12);
    sections.push_back(combine_section(big, hash, "map_side_combine_large"));
  }

  bench::Table t({"section", "records", "legacy Mrec/s", "batched Mrec/s",
                  "speedup", "legacy allocs/krec", "batched allocs/krec"});
  bool ok = true;
  for (const auto& s : sections) {
    const double n = static_cast<double>(s.records);
    t.add_row({s.name, std::to_string(s.records),
               bench::Table::num(n / s.legacy_s / 1e6),
               bench::Table::num(n / s.batched_s / 1e6),
               bench::Table::num(s.speedup()),
               bench::Table::num(s.legacy_allocs_per_krec()),
               bench::Table::num(s.batched_allocs_per_krec())});
    // Allocation contract: the batched path exists to eliminate per-record
    // heap traffic; demand a >= 4x reduction (in practice it is >100x).
    if (s.batched_allocs * 4 >= s.legacy_allocs) {
      std::fprintf(stderr,
                   "FAIL: %s batched path allocated %zu times vs legacy %zu "
                   "(need >= 4x reduction)\n",
                   s.name.c_str(), s.batched_allocs, s.legacy_allocs);
      ok = false;
    }
    if (s.name == "map_side_combine_large" && s.speedup() < 1.0) {
      std::fprintf(stderr,
                   "FAIL: %s batched combine is %.2fx the legacy hash maps "
                   "(need >= 1x)\n",
                   s.name.c_str(), s.speedup());
      ok = false;
    }
  }
  bench::print_header("micro_engine_ops: batched data plane vs legacy");
  t.print();
  if (!json_path.empty()) t.write_json(json_path, "micro_engine_ops");
  return ok;
}

/// Checkpointing enabled-but-idle contract (DESIGN.md §16): with a
/// CheckpointWriter attached as WAL sink + engine hook, a job that commits
/// no block payloads (single map stage, no shuffle/cache/collect) pays only
/// the subsystem's fixed costs — a handful of buffered WAL appends and one
/// barrier flush per stage. That must stay within 2% of the bare engine's
/// wall time, and the simulated timeline must be bit-identical (checkpoint
/// I/O lives entirely off the simulated clock).
bool run_checkpoint_idle_section() {
  const std::string dir = "micro_ckpt_idle.tmp";
  std::filesystem::remove_all(dir);

  // Compute-dominated, payload-light: the fixed WAL/barrier costs are what
  // is being measured, so the job must not checkpoint meaningful data (its
  // only block file is the final stage's ~320 KB result).
  auto make_job = [] {
    return engine::Dataset::source(
               "ckpt-idle-src", 8,
               [](std::size_t index, std::size_t count) {
                 engine::Partition p;
                 common::Xoshiro256 rng(0x1d1eULL + index);
                 const std::size_t n = 8'000 / count;
                 p.reserve(n);
                 p.reserve_values(2 * n);
                 for (std::size_t i = 0; i < n; ++i) {
                   const double vals[2] = {rng.next_double(), 1.0};
                   p.emplace(rng.next_below(1 << 12), vals, 2, 0);
                 }
                 return p;
               })
        ->map("ckpt-idle-map", [](const engine::Record& in) {
          engine::Record r = in;
          double x = r.values[0];
          for (int i = 0; i < 6000; ++i) x = x * 1.0000001 + 1e-9;
          r.values[0] = x;
          return r;
        });
  };

  double base_sim = 0.0;
  double ckpt_sim = 0.0;
  auto base = [&] {
    engine::Engine eng(bench::bench_cluster(), bench::vanilla_options());
    const auto r = eng.count(make_job(), "ckpt-idle");
    base_sim = r.sim_time_s;
    benchmark::DoNotOptimize(r.count);
  };
  auto attached = [&] {
    engine::Engine eng(bench::bench_cluster(), bench::vanilla_options());
    obs::EventLog log;
    auto writer = std::make_shared<ckpt::CheckpointWriter>(dir);
    log.attach(writer);
    eng.set_event_log(&log);
    eng.set_checkpoint_hook(writer.get());
    const auto r = eng.count(make_job(), "ckpt-idle");
    ckpt_sim = r.sim_time_s;
    log.detach_all();
    benchmark::DoNotOptimize(r.count);
  };

  base();  // warmup both variants (and populate the sim times)
  attached();
  if (base_sim != ckpt_sim) {
    std::fprintf(stderr,
                 "FAIL: checkpointing perturbed the simulated timeline "
                 "(%.9f s vs %.9f s)\n",
                 base_sim, ckpt_sim);
    std::filesystem::remove_all(dir);
    return false;
  }

  // Wall-clock gate. The two variants run as interleaved pairs (so CPU
  // frequency drift cannot bias one side) and the gate takes the minimum
  // pairwise overhead: scheduler noise on a CI runner perturbs individual
  // pairs in both directions, but a real regression shifts every pair, so
  // the minimum is the noise-robust estimate of the true fixed cost. Stops
  // early once the contract holds.
  double overhead = 1e300;
  bool ok = false;
  for (int i = 0; i < 16; ++i) {
    const double base_s = best_seconds(base, 1);
    const double ckpt_s = best_seconds(attached, 1);
    overhead =
        std::min(overhead, ckpt_s / std::max(base_s, 1e-12) - 1.0);
    ok = overhead <= 0.02;
    if (i >= 3 && ok) break;
  }
  std::printf("checkpoint enabled-but-idle: wall overhead %+.2f%% "
              "(target <= 2%%), simulated timeline identical\n",
              100.0 * overhead);
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: idle checkpointing overhead %.2f%% exceeds 2%%\n",
                 100.0 * overhead);
  }
  std::filesystem::remove_all(dir);
  return ok;
}

// ---------------------------------------------------------------------------
// google-benchmark micro-timers.
// ---------------------------------------------------------------------------

void BM_HashPartitioner(benchmark::State& state) {
  const engine::HashPartitioner part(static_cast<std::size_t>(state.range(0)));
  const auto data = make_records(4096, 1u << 20);
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const auto& r : data.records()) acc += part.partition_of(r.key);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_HashPartitioner)->Arg(100)->Arg(500)->Arg(2000);

void BM_RangePartitioner(benchmark::State& state) {
  common::Xoshiro256 rng(7);
  std::vector<std::uint64_t> sample(2048);
  for (auto& k : sample) k = rng();
  const auto part = engine::RangePartitioner::from_sample(
      static_cast<std::size_t>(state.range(0)), sample);
  const auto data = make_records(4096, 1u << 20);
  for (auto _ : state) {
    std::size_t acc = 0;
    for (const auto& r : data.records()) acc += part->partition_of(r.key);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RangePartitioner)->Arg(100)->Arg(500)->Arg(2000);

void BM_RadixScatter(benchmark::State& state) {
  const std::size_t r_count = static_cast<std::size_t>(state.range(0));
  const engine::HashPartitioner part(r_count);
  const auto data = make_records(8192, 1u << 16);
  for (auto _ : state) {
    std::vector<engine::Partition> buckets(r_count);
    engine::dataplane::radix_scatter(data, part, buckets);
    benchmark::DoNotOptimize(buckets.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RadixScatter)->Arg(100)->Arg(500);

void BM_CombineScatter(benchmark::State& state) {
  const std::size_t distinct = static_cast<std::size_t>(state.range(0));
  const engine::HashPartitioner part(100);
  const auto data = make_records(8192, distinct);
  for (auto _ : state) {
    std::vector<engine::Partition> buckets(part.num_partitions());
    engine::dataplane::combine_scatter(data, part, sum_fn, buckets);
    benchmark::DoNotOptimize(buckets.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_CombineScatter)->Arg(10)->Arg(1000)->Arg(100000);

void BM_ReduceMerge(benchmark::State& state) {
  std::vector<engine::Partition> parts(4);
  for (auto& p : parts) {
    p = make_records(4096, static_cast<std::size_t>(state.range(0)));
  }
  for (auto _ : state) {
    std::vector<engine::Partition> copy = parts;
    const auto out =
        engine::dataplane::merge_reduce_by_key(std::move(copy), sum_fn);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 4 * 4096);
}
BENCHMARK(BM_ReduceMerge)->Arg(64)->Arg(4096);

void BM_TraceEmitDisabled(benchmark::State& state) {
  // The guard every instrumented hot path evaluates per task when no event
  // log is attached: one relaxed atomic load, no branch taken.
  obs::EventLog log;
  std::size_t taken = 0;
  for (auto _ : state) {
    if (log.enabled()) ++taken;
    benchmark::DoNotOptimize(taken);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitDisabled);

void BM_TraceEmitRing(benchmark::State& state) {
  // Full emit cost into the bounded in-memory sink (the cheapest enabled
  // configuration): seq/wall stamping + one striped-ring slot write.
  obs::EventLog log;
  log.attach(std::make_shared<obs::RingSink>(4096));
  for (auto _ : state) {
    obs::Event e;
    e.kind = obs::EventKind::kTaskSpan;
    e.task = 1;
    e.node = 2;
    e.t_end = 1.0;
    log.emit(std::move(e));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmitRing);

}  // namespace

int main(int argc, char** argv) {
  // Overhead-contract check: 100k disabled-guard evaluations must perform
  // zero heap allocations (and never take the emit path).
  {
    obs::EventLog log;
    const std::size_t before = g_allocs.load(std::memory_order_relaxed);
    std::size_t taken = 0;
    for (int i = 0; i < 100000; ++i) {
      if (log.enabled()) ++taken;
      benchmark::DoNotOptimize(taken);
    }
    const std::size_t after = g_allocs.load(std::memory_order_relaxed);
    if (after != before || taken != 0) {
      std::fprintf(stderr,
                   "FAIL: disabled event-log guard allocated (%zu allocations "
                   "across 100000 checks, %zu emits)\n",
                   after - before, taken);
      return 1;
    }
    std::printf("disabled event-log guard: 100000 checks, 0 allocations\n");
  }

  // Data-plane sections always run — they carry the allocation regression
  // gate and the large-input combine speed gate. With --json the binary is
  // in CI artifact mode and stops here.
  const std::string json_path = bench::json_flag(argc, argv);
  if (!run_dataplane_sections(json_path)) return 1;
  if (!run_checkpoint_idle_section()) return 1;
  if (!json_path.empty()) return 0;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
