// Sharded serving layer throughput: queries/sec and updates/sec versus
// shard fanout (1/2/4/8) x batch size. Every query row plans its batch
// against the shards' coverage boxes, runs one sub-batch per visited shard
// in parallel (each shard runs the two-phase engine over its subset) and
// merges the slices by offset arithmetic. The BM_Sharded* rows route
// records by hash, so the boxes overlap and queries visit nearly every
// shard; the BM_Planned* rows run the same batches under Routing::kRange,
// where disjoint ranges let the planner prune. Every query row reports a
// shards_visited_per_query counter: hash rows sit at the fanout (for kNN,
// the seed round and the second round together), range rows well below it —
// the gap is the fan-out work range routing saves. Fanout 1 is the
// unsharded baseline, so sharding overhead / speedup is the fanout-1 row
// over the fanout-S row at equal batch size. The commit rows measure the
// epoch API: stage one insert batch + one erase batch, then commit (every
// shard applies its share via bulk_insert/bulk_erase in parallel).
// run_benches.sh records
// BENCH_sharded.json plus a WEG_NUM_THREADS=1 baseline
// (BENCH_sharded_serial.json) for the parallel-speedup trajectory.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "src/augtree/interval_tree.h"
#include "src/kdtree/dynamic.h"
#include "src/parallel/sharded.h"
#include "src/primitives/random.h"

namespace {

using namespace weg;
using augtree::DynamicIntervalTree;
using augtree::Interval;
using kdtree::LogForest;
using parallel::Routing;
using parallel::Sharded;

constexpr size_t kIndexN = size_t{1} << 17;
constexpr size_t kCommitN = size_t{1} << 16;

Sharded<DynamicIntervalTree>& iv_index(size_t fanout) {
  static std::unique_ptr<Sharded<DynamicIntervalTree>> cache[9];
  auto& slot = cache[fanout];
  if (!slot) {
    slot = std::make_unique<Sharded<DynamicIntervalTree>>(fanout, 4);
    (void)slot->bulk_insert(bench::uniform_intervals(kIndexN, 43, 0.0005));
  }
  return *slot;
}

Sharded<LogForest<2>>& forest_index(size_t fanout) {
  static std::unique_ptr<Sharded<LogForest<2>>> cache[9];
  auto& slot = cache[fanout];
  if (!slot) {
    slot = std::make_unique<Sharded<LogForest<2>>>(fanout);
    (void)slot->bulk_insert(bench::uniform_points(kIndexN, 42));
  }
  return *slot;
}

// Range-routed twins of the cached indexes (same record sets), for the
// planner rows.
Sharded<DynamicIntervalTree>& iv_index_routed(size_t fanout) {
  static std::unique_ptr<Sharded<DynamicIntervalTree>> cache[9];
  auto& slot = cache[fanout];
  if (!slot) {
    slot = std::make_unique<Sharded<DynamicIntervalTree>>(Routing::kRange,
                                                          fanout, 4);
    (void)slot->bulk_insert(bench::uniform_intervals(kIndexN, 43, 0.0005));
  }
  return *slot;
}

Sharded<LogForest<2>>& forest_index_routed(size_t fanout) {
  static std::unique_ptr<Sharded<LogForest<2>>> cache[9];
  auto& slot = cache[fanout];
  if (!slot) {
    slot = std::make_unique<Sharded<LogForest<2>>>(Routing::kRange, fanout);
    (void)slot->bulk_insert(bench::uniform_points(kIndexN, 42));
  }
  return *slot;
}

// Surfaces shard visits per planned query over the timed loop: however
// many shards the coverage boxes couldn't prune (about the fanout under
// hash routing, fewer under range routing).
template <typename Index>
class VisitCounter {
 public:
  explicit VisitCounter(const Index& idx)
      : idx_(idx),
        queries0_(idx.planner_queries()),
        visits0_(idx.planner_shard_visits()) {}
  void report(benchmark::State& state) const {
    double dq = static_cast<double>(idx_.planner_queries() - queries0_);
    if (dq > 0) {
      state.counters["shards_visited_per_query"] =
          static_cast<double>(idx_.planner_shard_visits() - visits0_) / dq;
    }
  }

 private:
  const Index& idx_;
  uint64_t queries0_;
  uint64_t visits0_;
};

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

void ShardedArgs(benchmark::internal::Benchmark* b) {
  for (int fanout : {1, 2, 4, 8}) {
    for (int batch : {256, 4096}) b->Args({fanout, batch});
  }
}

void BM_ShardedStabBatch(benchmark::State& state) {
  auto& idx = iv_index(static_cast<size_t>(state.range(0)));
  size_t q = static_cast<size_t>(state.range(1));
  auto qs = make_stabs(q, 11);
  VisitCounter counter(idx);
  for (auto _ : state) {
    auto r = idx.stab_batch(qs);
    benchmark::DoNotOptimize(r.total());
  }
  counter.report(state);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_ShardedStabBatch)->Apply(ShardedArgs)->UseRealTime();

void BM_PlannedStabBatch(benchmark::State& state) {
  auto& idx = iv_index_routed(static_cast<size_t>(state.range(0)));
  size_t q = static_cast<size_t>(state.range(1));
  auto qs = make_stabs(q, 11);
  VisitCounter counter(idx);
  for (auto _ : state) {
    auto r = idx.stab_batch(qs);
    benchmark::DoNotOptimize(r.total());
  }
  counter.report(state);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_PlannedStabBatch)->Apply(ShardedArgs)->UseRealTime();

void BM_ShardedRangeReportBatch(benchmark::State& state) {
  auto& idx = forest_index(static_cast<size_t>(state.range(0)));
  size_t q = static_cast<size_t>(state.range(1));
  auto boxes = make_boxes(q, 7);
  VisitCounter counter(idx);
  for (auto _ : state) {
    auto r = idx.range_report_batch(boxes);
    benchmark::DoNotOptimize(r.total());
  }
  counter.report(state);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_ShardedRangeReportBatch)->Apply(ShardedArgs)->UseRealTime();

void BM_PlannedRangeReportBatch(benchmark::State& state) {
  auto& idx = forest_index_routed(static_cast<size_t>(state.range(0)));
  size_t q = static_cast<size_t>(state.range(1));
  auto boxes = make_boxes(q, 7);
  VisitCounter counter(idx);
  for (auto _ : state) {
    auto r = idx.range_report_batch(boxes);
    benchmark::DoNotOptimize(r.total());
  }
  counter.report(state);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_PlannedRangeReportBatch)->Apply(ShardedArgs)->UseRealTime();

void BM_ShardedKnnBatch(benchmark::State& state) {
  auto& idx = forest_index(static_cast<size_t>(state.range(0)));
  size_t q = static_cast<size_t>(state.range(1));
  auto pts = bench::uniform_points(q, 13);
  VisitCounter counter(idx);
  for (auto _ : state) {
    auto r = idx.knn_batch(pts, 8);
    benchmark::DoNotOptimize(r.total());
  }
  counter.report(state);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_ShardedKnnBatch)->Apply(ShardedArgs)->UseRealTime();

void BM_PlannedKnnBatch(benchmark::State& state) {
  auto& idx = forest_index_routed(static_cast<size_t>(state.range(0)));
  size_t q = static_cast<size_t>(state.range(1));
  auto pts = bench::uniform_points(q, 13);
  VisitCounter counter(idx);
  for (auto _ : state) {
    auto r = idx.knn_batch(pts, 8);
    benchmark::DoNotOptimize(r.total());
  }
  counter.report(state);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_PlannedKnnBatch)->Apply(ShardedArgs)->UseRealTime();

// Clustered twin for the bound-driven knn pruning row: records concentrate
// in four clusters along the routing dimension, so each range shard's cover
// box is tight and probes near cluster centers let the planner's cover-box
// distance bound skip the far shards entirely.
Sharded<LogForest<2>>& forest_index_clustered(size_t fanout) {
  static std::unique_ptr<Sharded<LogForest<2>>> cache[9];
  auto& slot = cache[fanout];
  if (!slot) {
    slot = std::make_unique<Sharded<LogForest<2>>>(Routing::kRange, fanout);
    primitives::Rng rng(0x5EED);
    std::vector<geom::Point2> pts(kIndexN);
    for (size_t i = 0; i < pts.size(); ++i) {
      double cx = 0.125 + 0.25 * static_cast<double>(i % 4);
      pts[i] = geom::Point2{{cx + (rng.next_double() - 0.5) * 0.05,
                             rng.next_double()}};
    }
    (void)slot->bulk_insert(pts);
  }
  return *slot;
}

void BM_PrunedKnnBatch(benchmark::State& state) {
  size_t fanout = static_cast<size_t>(state.range(0));
  auto& idx = forest_index_clustered(fanout);
  size_t q = static_cast<size_t>(state.range(1));
  primitives::Rng rng(0xB0B);
  std::vector<geom::Point2> pts(q);
  for (auto& p : pts) {
    double cx = 0.125 + 0.25 * static_cast<double>(rng.next_bounded(4));
    p = geom::Point2{{cx + (rng.next_double() - 0.5) * 0.05,
                      rng.next_double()}};
  }
  VisitCounter counter(idx);
  uint64_t queries0 = idx.planner_queries();
  uint64_t visits0 = idx.planner_shard_visits();
  for (auto _ : state) {
    auto r = idx.knn_batch(pts, 8);
    benchmark::DoNotOptimize(r.total());
  }
  counter.report(state);
  // shards_pruned: per query, how many of the fanout shards the running
  // k-th-candidate bound let the planner skip.
  double dq = static_cast<double>(idx.planner_queries() - queries0);
  if (dq > 0) {
    state.counters["shards_pruned"] =
        static_cast<double>(fanout) -
        static_cast<double>(idx.planner_shard_visits() - visits0) / dq;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * q));
}
BENCHMARK(BM_PrunedKnnBatch)->Apply(ShardedArgs)->UseRealTime();

// Epoch update throughput: each iteration is one serving epoch — stage
// `batch` fresh inserts plus the previous iteration's batch as erasures,
// then commit. The live size stays ~kCommitN, so iterations are comparable.
void BM_ShardedCommitInterval(benchmark::State& state) {
  size_t fanout = static_cast<size_t>(state.range(0));
  size_t batch = static_cast<size_t>(state.range(1));
  Sharded<DynamicIntervalTree> idx(fanout, 4);
  (void)idx.bulk_insert(bench::uniform_intervals(kCommitN, 99, 0.0005));
  uint32_t next_id = kCommitN;
  primitives::Rng rng(17);
  std::vector<Interval> prev;
  for (auto _ : state) {
    std::vector<Interval> ins(batch);
    for (auto& iv : ins) {
      double a = rng.next_double();
      iv = Interval{a, a + 0.0005, next_id++};
    }
    for (const Interval& iv : ins) idx.stage_insert(iv);
    for (const Interval& iv : prev) idx.stage_erase(iv);
    (void)idx.commit();
    prev = std::move(ins);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * 2 * batch));
}
BENCHMARK(BM_ShardedCommitInterval)
    ->Args({1, 4096})
    ->Args({2, 4096})
    ->Args({4, 4096})
    ->Args({8, 4096})
    ->UseRealTime();

void BM_ShardedCommitForest(benchmark::State& state) {
  size_t fanout = static_cast<size_t>(state.range(0));
  size_t batch = static_cast<size_t>(state.range(1));
  Sharded<LogForest<2>> idx(fanout);
  (void)idx.bulk_insert(bench::uniform_points(kCommitN, 23));
  primitives::Rng rng(29);
  std::vector<geom::Point2> prev;
  for (auto _ : state) {
    std::vector<geom::Point2> ins(batch);
    for (auto& p : ins) {
      p = geom::Point2{{rng.next_double(), rng.next_double()}};
    }
    for (const auto& p : ins) idx.stage_insert(p);
    for (const auto& p : prev) idx.stage_erase(p);
    (void)idx.commit();
    prev = std::move(ins);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * 2 * batch));
}
BENCHMARK(BM_ShardedCommitForest)
    ->Args({1, 4096})
    ->Args({2, 4096})
    ->Args({4, 4096})
    ->Args({8, 4096})
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  weg::bench::banner(
      "Sharded serving layer (queries/sec and updates/sec vs fanout)",
      "Key-space sharding above the two-phase batch engine: hash-routed "
      "(BM_Sharded*) vs range-routed (BM_Planned*) shards under one planner "
      "(shards_visited_per_query), offset-arithmetic merge, epoch-versioned "
      "bulk commits; fanout 1 is the unsharded baseline.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
