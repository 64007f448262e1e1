#ifndef WAGG_BENCH_COMMON_H
#define WAGG_BENCH_COMMON_H

// Shared helpers for the experiment harness. Every bench binary prints the
// paper-shaped table(s) for its experiment (see the experiment index in
// README.md); most then run google-benchmark timings.
//
// Instance families and mode defaults live in the workload registry
// (src/workload/workload.h); benches call workload::make_family and
// workload::mode_config directly, so benches, tests, and the batch runtime
// all draw instances from one definition.

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "core/planner.h"
#include "geom/point.h"
#include "util/table.h"
#include "workload/workload.h"

namespace wagg::bench {

inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  std::cout << "\n=== " << experiment << " ===\n" << claim << "\n\n";
}

}  // namespace wagg::bench

#endif  // WAGG_BENCH_COMMON_H
