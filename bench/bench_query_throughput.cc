// Batched-query engine throughput: queries/sec vs batch size for 2D range
// reports on a 2^18-point k-d tree, k-NN (k = 8) on a p-batched 2^20-point
// k-d tree (the tree build_static queries) and 1D stabbing on a 2^18
// interval tree. Each *_batch row runs the two-phase count+scan+report plan
// over one batch per iteration (items_per_second == queries/sec); the *_loop
// rows run the same queries as a serial per-query loop, so batch overhead /
// speedup is loop_time / batch_time at equal batch size. run_benches.sh also
// records a WEG_NUM_THREADS=1 baseline (BENCH_query_throughput_serial.json)
// for the parallel-speedup trajectory.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/common.h"
#include "src/augtree/interval_tree.h"
#include "src/kdtree/kdtree.h"
#include "src/kdtree/pbatched.h"
#include "src/primitives/random.h"

namespace {

using namespace weg;

constexpr size_t kIndexN = size_t{1} << 18;

const kdtree::KdTree2& kd_index() {
  static const kdtree::KdTree2 tree =
      kdtree::KdTree2::build_classic(bench::uniform_points(kIndexN, 42), 8);
  return tree;
}

const kdtree::KdTree2& knn_index() {
  static const kdtree::KdTree2 tree =
      kdtree::PBatched2::build(bench::uniform_points(size_t{1} << 20, 44));
  return tree;
}

const augtree::StaticIntervalTree& iv_index() {
  static const augtree::StaticIntervalTree tree =
      augtree::StaticIntervalTree::build_postsorted(
          bench::uniform_intervals(kIndexN, 43, 0.0005));
  return tree;
}

std::vector<geom::Box2> make_boxes(size_t q, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<geom::Box2> boxes(q);
  for (auto& b : boxes) {
    for (int d = 0; d < 2; ++d) {
      b.lo[d] = rng.next_double() * 0.98;
      b.hi[d] = b.lo[d] + 0.02;
    }
  }
  return boxes;
}

std::vector<double> make_stabs(size_t q, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<double> qs(q);
  for (double& x : qs) x = rng.next_double();
  return qs;
}

void BM_RangeReportBatch(benchmark::State& state) {
  const auto& tree = kd_index();
  size_t q = static_cast<size_t>(state.range(0));
  auto boxes = make_boxes(q, 7);
  for (auto _ : state) {
    auto r = tree.range_report_batch(boxes);
    benchmark::DoNotOptimize(r.total());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_RangeReportBatch)->Arg(64)->Arg(1024)->Arg(16384)->UseRealTime();

void BM_RangeReportLoop(benchmark::State& state) {
  const auto& tree = kd_index();
  size_t q = static_cast<size_t>(state.range(0));
  auto boxes = make_boxes(q, 7);
  for (auto _ : state) {
    size_t total = 0;
    for (const auto& b : boxes) total += tree.range_report(b).size();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_RangeReportLoop)->Arg(1024)->UseRealTime();

void BM_StabBatch(benchmark::State& state) {
  const auto& tree = iv_index();
  size_t q = static_cast<size_t>(state.range(0));
  auto qs = make_stabs(q, 11);
  for (auto _ : state) {
    auto r = tree.stab_batch(qs);
    benchmark::DoNotOptimize(r.total());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_StabBatch)->Arg(64)->Arg(1024)->Arg(16384)->UseRealTime();

void BM_StabLoop(benchmark::State& state) {
  const auto& tree = iv_index();
  size_t q = static_cast<size_t>(state.range(0));
  auto qs = make_stabs(q, 11);
  for (auto _ : state) {
    size_t total = 0;
    for (double x : qs) total += tree.stab(x).size();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_StabLoop)->Arg(1024)->UseRealTime();

void BM_StabCountBatch(benchmark::State& state) {
  const auto& tree = iv_index();
  size_t q = static_cast<size_t>(state.range(0));
  auto qs = make_stabs(q, 11);
  for (auto _ : state) {
    auto r = tree.stab_count_batch(qs);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_StabCountBatch)->Arg(1024)->UseRealTime();

// Mixed-selectivity count boxes: one in eight covers the whole index, the
// rest are the usual 2% windows — the wide ones exercise the
// covered-subtree fast path (answered from subtree counts in O(log n)
// instead of scanning O(n) points).
std::vector<geom::Box2> make_count_boxes(size_t q, uint64_t seed) {
  auto boxes = make_boxes(q, seed);
  for (size_t i = 0; i < boxes.size(); i += 8) {
    boxes[i].lo[0] = boxes[i].lo[1] = -1.0;
    boxes[i].hi[0] = boxes[i].hi[1] = 2.0;
  }
  return boxes;
}

void BM_CountBatch(benchmark::State& state) {
  const auto& tree = kd_index();
  size_t q = static_cast<size_t>(state.range(0));
  auto boxes = make_count_boxes(q, 7);
  for (auto _ : state) {
    auto r = tree.range_count_batch(boxes);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
  // nodes_skipped: extra nodes the same batch visits with the fast path
  // killed (one untimed serial stats pass per setting).
  kdtree::QueryStats on, off;
  kdtree::QueryOptions opt_on{&on};
  kdtree::QueryOptions opt_off{&off};
  opt_off.count_fast_path = false;
  for (const auto& b : boxes) {
    tree.range_count(b, opt_on);
    tree.range_count(b, opt_off);
  }
  state.counters["nodes_skipped"] =
      static_cast<double>(off.nodes_visited - on.nodes_visited);
  state.counters["covered_subtrees"] =
      static_cast<double>(on.covered_subtrees);
}
BENCHMARK(BM_CountBatch)->Arg(64)->Arg(1024)->Arg(16384)->UseRealTime();

void BM_CountLoop(benchmark::State& state) {
  const auto& tree = kd_index();
  size_t q = static_cast<size_t>(state.range(0));
  auto boxes = make_count_boxes(q, 7);
  for (auto _ : state) {
    size_t total = 0;
    for (const auto& b : boxes) total += tree.range_count(b);
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_CountLoop)->Arg(1024)->UseRealTime();

void BM_KnnBatch(benchmark::State& state) {
  const auto& tree = knn_index();
  size_t q = static_cast<size_t>(state.range(0));
  auto pts = bench::uniform_points(q, 13);
  for (auto _ : state) {
    auto r = tree.knn_batch(pts, 8);
    benchmark::DoNotOptimize(r.total());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_KnnBatch)->Arg(64)->Arg(1024)->Arg(16384)->UseRealTime();

void BM_KnnLoop(benchmark::State& state) {
  const auto& tree = knn_index();
  size_t q = static_cast<size_t>(state.range(0));
  auto pts = bench::uniform_points(q, 13);
  for (auto _ : state) {
    size_t total = 0;
    for (const auto& p : pts) total += tree.knn(p, 8).size();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_KnnLoop)->Arg(1024)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  weg::bench::banner(
      "Batched query throughput (queries/sec vs batch size)",
      "Two-phase batch engine (count pass + exclusive scan + report pass "
      "into pre-claimed slices): every result written exactly once; "
      "read/write totals identical at every worker count.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
