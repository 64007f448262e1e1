// E12 — engineering performance: wall-clock scaling of each pipeline stage
// and the naive vs indexed conflict-graph ablation. Not a paper claim;
// documents that the library is usable at laptop scale.

#include "bench_common.h"

#include "coloring/coloring.h"
#include "conflict/conflict_index.h"
#include "conflict/fgraph.h"
#include "mst/tree.h"
#include "schedule/repair.h"

namespace wagg {
namespace {

void BM_MstBuild(benchmark::State& state) {
  const auto pts = workload::make_family(
      "uniform", static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    const auto edges = mst::euclidean_mst(pts);
    benchmark::DoNotOptimize(edges.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MstBuild)->RangeMultiplier(4)->Range(256, 16384)
    ->Unit(benchmark::kMillisecond)->Complexity(benchmark::oNSquared);

void BM_ConflictNaive(benchmark::State& state) {
  const auto pts = workload::make_family(
      "uniform", static_cast<std::size_t>(state.range(0)), 1);
  const auto tree = mst::mst_tree(pts, 0);
  const auto spec = conflict::ConflictSpec::logarithmic(2.0, 3.0);
  for (auto _ : state) {
    const auto g = conflict::build_conflict_graph(tree.links, spec);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_ConflictNaive)->RangeMultiplier(4)->Range(256, 4096)
    ->Unit(benchmark::kMillisecond);

void BM_ConflictIndexed(benchmark::State& state) {
  const auto pts = workload::make_family(
      "uniform", static_cast<std::size_t>(state.range(0)), 1);
  const auto tree = mst::mst_tree(pts, 0);
  const auto spec = conflict::ConflictSpec::logarithmic(2.0, 3.0);
  for (auto _ : state) {
    const auto g = conflict::build_conflict_graph_indexed(tree.links, spec);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_ConflictIndexed)->RangeMultiplier(4)->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);

void BM_GreedyColoring(benchmark::State& state) {
  const auto pts = workload::make_family(
      "uniform", static_cast<std::size_t>(state.range(0)), 1);
  const auto tree = mst::mst_tree(pts, 0);
  const auto g = conflict::build_conflict_graph_indexed(
      tree.links, conflict::ConflictSpec::logarithmic(2.0, 3.0));
  const auto order = tree.links.by_decreasing_length();
  for (auto _ : state) {
    const auto c = coloring::greedy_color(g, order);
    benchmark::DoNotOptimize(c.num_colors);
  }
}
BENCHMARK(BM_GreedyColoring)->RangeMultiplier(4)->Range(256, 16384)
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndGlobal(benchmark::State& state) {
  const auto pts = workload::make_family(
      "uniform", static_cast<std::size_t>(state.range(0)), 1);
  const auto cfg = workload::mode_config(core::PowerMode::kGlobal);
  for (auto _ : state) {
    const auto plan = core::plan_aggregation(pts, cfg);
    benchmark::DoNotOptimize(plan.schedule().length());
  }
}
BENCHMARK(BM_EndToEndGlobal)->RangeMultiplier(4)->Range(256, 4096)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wagg

int main(int argc, char** argv) {
  wagg::bench::print_header(
      "E12: library performance scaling",
      "google-benchmark timings; see the counters below. BM_Conflict* is the\n"
      "naive-vs-indexed conflict-graph ablation.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
