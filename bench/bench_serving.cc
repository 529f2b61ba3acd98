// Serving-engine throughput and latency versus offered load: each iteration
// submits one open-loop wave of `offered` requests (mixed ~1:8 updates to
// queries, interleaved) against a live engine (src/serve/engine.h) and waits
// for every std::future to complete, polling readiness so per-request
// latency is measured at completion rather than in wait order. Rows sweep
// shard fanout (1/2/4/8) x offered load (64/256/1024); counters carry
//   p50_us / p95_us / p99_us  request latency percentiles over the run,
//   overlap_ratio             query batches served while the committer
//                             prepared an epoch beside them (the
//                             pipelining evidence: > 0 means reads did not
//                             stall on writes),
//   rejected_fraction         admission-control rejects / offered,
// and items_per_second is completed requests/sec. Engines are cached per
// fanout and started once — batcher + committer are scheduler-external root
// threads, and the per-process budget for those is bounded — so every row at
// one fanout reuses the same running pipeline. run_benches.sh records
// BENCH_serving.json plus a WEG_NUM_THREADS=1 baseline
// (BENCH_serving_serial.json): the serial row still pipelines (the engine
// threads survive), only the shard/batch parallelism inside each commit and
// query batch collapses.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/augtree/interval_tree.h"
#include "src/parallel/sharded.h"
#include "src/primitives/random.h"
#include "src/serve/engine.h"

namespace {

using namespace weg;
using augtree::DynamicIntervalTree;
using augtree::Interval;
using parallel::Routing;
using Clock = std::chrono::steady_clock;

using IntervalEngine = serve::Engine<DynamicIntervalTree>;

constexpr size_t kIndexN = size_t{1} << 15;

// One live engine per fanout, started once and reused by every offered-load
// row. `live` tracks records known committed, so each wave can erase as many
// records as it inserts and the index size stays ~kIndexN across iterations.
struct ServingRig {
  std::unique_ptr<IntervalEngine> engine;
  std::deque<Interval> live;
  uint32_t next_id = 0;
  primitives::Rng rng{101};
};

ServingRig& rig(size_t fanout) {
  static ServingRig cache[9];
  ServingRig& r = cache[fanout];
  if (!r.engine) {
    serve::Config cfg;
    cfg.max_batch = 256;
    cfg.max_delay_us = 200;
    r.engine = std::make_unique<IntervalEngine>(cfg, Routing::kRange, fanout,
                                                /*alpha=*/4);
    auto base = bench::uniform_intervals(kIndexN, 43, 0.0005);
    (void)r.engine->bulk_load(base);
    r.live.assign(base.begin(), base.end());
    r.next_id = static_cast<uint32_t>(kIndexN);
    r.engine->start();
  }
  return r;
}

void ServingArgs(benchmark::internal::Benchmark* b) {
  for (int fanout : {1, 2, 4, 8}) {
    for (int offered : {64, 256, 1024}) b->Args({fanout, offered});
  }
}

double percentile(std::vector<double>& lat, double p) {
  if (lat.empty()) return 0.0;
  size_t k = std::min(lat.size() - 1,
                      static_cast<size_t>(p * (double)(lat.size() - 1)));
  std::nth_element(lat.begin(), lat.begin() + (long)k, lat.end());
  return lat[k];
}

void BM_ServingMixedLoad(benchmark::State& state) {
  ServingRig& r = rig(static_cast<size_t>(state.range(0)));
  IntervalEngine& eng = *r.engine;
  size_t offered = static_cast<size_t>(state.range(1));

  serve::Stats before = eng.stats();
  std::vector<double> lat_us;
  uint64_t rejected = 0, completed = 0;

  for (auto _ : state) {
    // One open-loop wave: every 8th request is an update (alternating
    // insert-fresh / erase-oldest), the rest are stabbing queries. Nothing
    // waits until the whole wave is in flight.
    std::vector<std::future<Expected<IntervalEngine::QueryReply>>> qf;
    std::vector<std::future<Expected<uint64_t>>> uf;
    std::vector<Clock::time_point> qt, ut;
    std::vector<std::pair<bool, Interval>> urec;  // (is_insert, record)
    for (size_t i = 0; i < offered; ++i) {
      if (i % 8 == 7) {
        bool is_insert = (i / 8) % 2 == 0 || r.live.empty();
        Interval rec;
        if (is_insert) {
          double a = r.rng.next_double();
          rec = Interval{a, a + 0.0005, r.next_id++};
        } else {
          rec = r.live.front();
          r.live.pop_front();
        }
        urec.emplace_back(is_insert, rec);
        ut.push_back(Clock::now());
        uf.push_back(is_insert ? eng.submit_insert(rec)
                               : eng.submit_erase(rec));
      } else {
        qt.push_back(Clock::now());
        qf.push_back(eng.submit_query(r.rng.next_double()));
      }
    }
    // Poll for completions so each latency sample is taken when its own
    // future becomes ready, not when a blocking wait in index order
    // reaches it.
    std::vector<char> qdone(qf.size(), 0), udone(uf.size(), 0);
    size_t remaining = qf.size() + uf.size();
    while (remaining > 0) {
      bool progress = false;
      auto now = Clock::now();
      for (size_t i = 0; i < qf.size(); ++i) {
        if (qdone[i] || qf[i].wait_for(std::chrono::seconds(0)) !=
                            std::future_status::ready) {
          continue;
        }
        qdone[i] = 1;
        --remaining;
        progress = true;
        lat_us.push_back(
            std::chrono::duration<double, std::micro>(now - qt[i]).count());
      }
      for (size_t i = 0; i < uf.size(); ++i) {
        if (udone[i] || uf[i].wait_for(std::chrono::seconds(0)) !=
                            std::future_status::ready) {
          continue;
        }
        udone[i] = 1;
        --remaining;
        progress = true;
        lat_us.push_back(
            std::chrono::duration<double, std::micro>(now - ut[i]).count());
      }
      if (!progress) std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    for (auto& f : qf) {
      f.get().ok() ? ++completed : ++rejected;
    }
    for (size_t i = 0; i < uf.size(); ++i) {
      bool ok = uf[i].get().ok();
      ok ? ++completed : ++rejected;
      // Keep `live` exact: only committed inserts become erasable, and a
      // failed erase leaves its record live.
      if (urec[i].first && ok) r.live.push_back(urec[i].second);
      if (!urec[i].first && !ok) r.live.push_front(urec[i].second);
    }
  }

  serve::Stats after = eng.stats();
  uint64_t qb = after.query_batches - before.query_batches;
  uint64_t ob = after.overlap_batches - before.overlap_batches;
  state.counters["p50_us"] = percentile(lat_us, 0.50);
  state.counters["p95_us"] = percentile(lat_us, 0.95);
  state.counters["p99_us"] = percentile(lat_us, 0.99);
  state.counters["overlap_ratio"] = qb ? (double)ob / (double)qb : 0.0;
  state.counters["rejected_fraction"] =
      completed + rejected ? (double)rejected / (double)(completed + rejected)
                           : 0.0;
  state.counters["epochs_committed"] =
      (double)(after.epochs_committed - before.epochs_committed);
  state.SetItemsProcessed(static_cast<int64_t>(completed));
}
BENCHMARK(BM_ServingMixedLoad)->Apply(ServingArgs)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  weg::bench::banner(
      "Asynchronous serving engine (latency percentiles vs offered load)",
      "Open-loop mixed traffic through the pipelined engine: bounded "
      "admission queues, size/deadline batching, and epochs prepared beside "
      "query batches and published between them (overlap_ratio > 0 means "
      "reads did not stall on writes); fanout 1 is the single-shard "
      "baseline.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
