// Differential chaos fuzzer (DESIGN.md §14): sweep seeds through the chaos
// harness. Each seed deterministically composes node-failure, OOM, flaky-
// fetch and corruption schedules, runs a job graph with and without them,
// and must produce bit-identical results, a replayable event history and a
// bounded makespan. Any divergence fails the sweep (exit 1).
//
//   chaos_fuzz [--seeds N] [--start S] [--tiny] [--json PATH]
//
// --tiny restricts trials to the smallest job graphs for CI smoke runs;
// --json mirrors the per-seed table into a JSON artifact.
#include <cstdio>
#include <cstring>
#include <string>

#include "chaos.h"
#include "common/parse.h"
#include "harness.h"

using namespace chopper;

int main(int argc, char** argv) {
  std::size_t seeds = 100;
  std::size_t start = 0;
  bool tiny = false;
  bool bad = false;
  const auto count = [&bad](const char* raw) {
    const auto v = common::parse_int<std::size_t>(raw);
    bad = bad || !v;
    return v.value_or(0);
  };
  for (int i = 1; i < argc && !bad; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = count(argv[++i]);
      bad = bad || seeds == 0;  // a sweep of no seeds checks nothing
    } else if (std::strcmp(argv[i], "--start") == 0 && i + 1 < argc) {
      start = count(argv[++i]);
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      ++i;  // handled by bench::json_flag below
    } else {
      bad = true;
    }
  }
  if (bad) {
    std::fprintf(stderr,
                 "usage: chaos_fuzz [--seeds N] [--start S] [--tiny] "
                 "[--json PATH]\n");
    return 2;
  }

  bench::print_header("Differential chaos fuzzer: faulty runs must be "
                      "bit-identical, replayable and bounded");
  return bench::chaos_sweep(start, seeds, tiny, bench::json_flag(argc, argv),
                            "chaos_fuzz");
}
