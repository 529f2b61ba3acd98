// Experiment THM-5.1 + FIG-1 (Theorem 5.1, Lemma 5.1, Figure 1): planar
// Delaunay triangulation. Baseline = Algorithm 2 (points move through the
// encroached sets, Θ(n log n) writes); WE = prefix doubling + DAG tracing
// (O(n) writes). FIG-1 series: measured average visited history nodes |R|
// (grows ~log n) and cavity size |S| (~6, constant) per point.
#include "bench/common.h"
#include "src/delaunay/delaunay.h"

namespace weg {
namespace {

void run_mode(benchmark::State& state, delaunay::Mode mode) {
  size_t n = size_t(state.range(0));
  auto pts = bench::uniform_points(n, 0x9d + n);
  delaunay::DTStats st{};
  for (auto _ : state) {
    auto mesh = delaunay::triangulate(pts, mode, &st);
    benchmark::DoNotOptimize(mesh);
  }
  bench::report_cost(state, st.cost, double(n));
  state.counters["hist_steps_per_pt"] =
      double(st.history_steps) / double(st.points_inserted);  // |R| proxy
  state.counters["cavity_per_pt"] =
      double(st.cavity_triangles) / double(st.points_inserted);  // |S| proxy
  state.counters["sub_rounds"] = double(st.sub_rounds);
  state.counters["retries_per_pt"] =
      double(st.retries) / double(st.points_inserted);  // lost reservations
}

void BM_DelaunayBaseline(benchmark::State& state) {
  run_mode(state, delaunay::Mode::kBaseline);
}
void BM_DelaunayWriteEfficient(benchmark::State& state) {
  run_mode(state, delaunay::Mode::kWriteEfficient);
}

BENCHMARK(BM_DelaunayBaseline)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_DelaunayWriteEfficient)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace weg

int main(int argc, char** argv) {
  weg::bench::banner(
      "THM-5.1 + FIG-1  |  planar Delaunay triangulation (Section 5)",
      "Counters are per point. Claim: baseline writes/pt grow with log n;\n"
      "WE writes/pt stay ~constant. FIG-1 series: hist_steps_per_pt ~ log n\n"
      "(|R|), cavity_per_pt ~ 6 (|S|), for the write-efficient variant.");
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
