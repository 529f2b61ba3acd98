// Transactional epoch commits under deterministic fault injection
// (src/core/status.h, src/parallel/fault.h, src/parallel/sharded.h): a
// failed commit must be a perfect no-op. The suite drives every fault point
// the harness defines — shard_apply at every shard index, alloc at the
// structure level, validate on staged records, query_poison through every
// merge path, steal_stall against the join watchdog — and checks the
// rollback contract each time: version() unchanged, every query family
// bitwise-identical to the pre-commit snapshot, staged buffers kept for
// retry, and the asym read/write totals of a failed commit deterministic
// across repeat runs (the CMake registration reruns the suite at
// WEG_NUM_THREADS=1/2/8). Degenerate serving inputs (fanout 0, k = 0,
// k > n, empty/inverted/NaN rectangles, NaN probes, never-filled, sparse
// and drained layers) are pinned to defined results under both routing
// policies. The FaultSweep cases re-run
// the serving scenario under whatever WEG_FAULT the environment arms — the
// CI fault sweep's entry point — and assert the invariants hold whether or
// not the armed point trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/asym/counters.h"
#include "src/augtree/interval.h"
#include "src/augtree/interval_tree.h"
#include "src/geom/box.h"
#include "src/kdtree/dynamic.h"
#include "src/parallel/fault.h"
#include "src/parallel/scheduler.h"
#include "src/parallel/sharded.h"
#include "src/primitives/random.h"
#include "tests/testing_util.h"

namespace weg {
namespace {

using augtree::DynamicIntervalTree;
using augtree::Interval;
using kdtree::DynamicKdTree;
using kdtree::LogForest;
using parallel::Routing;
using parallel::Sharded;
using testing::fixed_intervals;
using testing::stab_points;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<geom::Box2> box_queries(size_t q, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<geom::Box2> qs(q);
  for (auto& b : qs) {
    b.lo[0] = rng.next_double();
    b.hi[0] = b.lo[0] + rng.next_double() * 0.2;
    b.lo[1] = rng.next_double();
    b.hi[1] = b.lo[1] + rng.next_double() * 0.2;
  }
  return qs;
}

// Everything a rollback must preserve, captured from a sharded layer in one
// call: reported items (stabbed ids, kNN points) with their slice offsets,
// and counts (stab counts, range counts).
template <typename Item>
struct Snapshot {
  uint64_t version;
  size_t size;
  primitives::UninitVector<Item> items;
  std::vector<size_t> offsets;
  std::vector<size_t> counts;
};
using IntervalSnapshot = Snapshot<uint32_t>;

IntervalSnapshot snapshot(const Sharded<DynamicIntervalTree>& si,
                          const std::vector<double>& qs) {
  auto r = si.stab_batch(qs);
  return {si.version(), si.size(), r.items(), r.offsets(),
          si.stab_count_batch(qs)};
}

// The point layers' probes: range counts over boxes, 8-NN around points.
struct PointProbes {
  std::vector<geom::Box2> boxes;
  std::vector<geom::Point2> near;
};

template <typename Structure>
Snapshot<geom::Point2> snapshot(const Sharded<Structure>& sp,
                                const PointProbes& pr) {
  auto k = sp.knn_batch(pr.near, 8);
  return {sp.version(), sp.size(), k.items(), k.offsets(),
          sp.range_count_batch(pr.boxes)};
}

template <typename Item>
void expect_identical(const Snapshot<Item>& a, const Snapshot<Item>& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.items, b.items);
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.counts, b.counts);
}

// --- the tentpole: all-or-nothing commit --------------------------------

// Stages an epoch with insert and erase work on every shard — every `extra`
// record inserted plus every fourth `base` record erased — then trips
// shard_apply at each shard index in turn: each commit must roll back
// bitwise and keep the staged batch, and the disarmed retry must publish.
template <typename Structure, typename Rec, typename Probes, typename... Args>
void expect_rollback_at_every_shard(const std::vector<Rec>& base,
                                    const std::vector<Rec>& extra,
                                    const Probes& qs, const Args&... args) {
  for (size_t f : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Sharded<Structure> layer(Routing::kRange, f, args...);
    ASSERT_TRUE(layer.bulk_insert(base).ok());
    for (const Rec& r : extra) layer.stage_insert(r);
    for (size_t i = 0; i < base.size(); i += 4) layer.stage_erase(base[i]);
    size_t staged_ins = layer.staged_inserts();
    size_t staged_ers = layer.staged_erases();

    auto golden = snapshot(layer, qs);
    for (size_t s = 0; s < f; ++s) {
      fault::ScopedFault guard("shard_apply", /*seed=*/0, /*nth=*/s);
      auto v = layer.commit();
      ASSERT_FALSE(v.ok()) << "fanout " << f << " shard " << s;
      EXPECT_EQ(v.code(), StatusCode::kFaultInjected);
      EXPECT_GE(fault::trips(), 1u);
      // Rollback identity: the failed epoch is invisible.
      expect_identical(snapshot(layer, qs), golden);
      // The staged batch is kept for repair/retry.
      EXPECT_EQ(layer.staged_inserts(), staged_ins);
      EXPECT_EQ(layer.staged_erases(), staged_ers);
    }

    // Disarmed: the identical staged batch commits and publishes.
    auto v = layer.commit();
    ASSERT_TRUE(v.ok()) << v.status().to_string();
    EXPECT_EQ(v.value(), golden.version + 1);
    EXPECT_EQ(layer.version(), golden.version + 1);
    EXPECT_EQ(layer.staged_inserts(), 0u);
    EXPECT_EQ(layer.last_commit_erased(), staged_ers);
    EXPECT_EQ(layer.size(), golden.size + staged_ins - staged_ers);
  }
}

TEST(FaultInjection, CommitRollsBackAtEveryShardIndex) {
  expect_rollback_at_every_shard<DynamicIntervalTree>(
      fixed_intervals(8000, 0xA11CE), fixed_intervals(4000, 0xF00D, 8000),
      stab_points(128, 0xBEEF), /*alpha=*/4);

  auto pts = testing::random_points<2>(12000, 0xA11CE);
  std::vector<geom::Point2> base(pts.begin(), pts.begin() + 8000);
  std::vector<geom::Point2> extra(pts.begin() + 8000, pts.end());
  PointProbes probes{box_queries(64, 0xBEEF),
                     testing::random_points<2>(32, 0xBEF0)};
  expect_rollback_at_every_shard<LogForest<2>>(base, extra, probes);
}

TEST(FaultInjection, FailedCommitCountsAreDeterministic) {
  // A rolled-back commit's asym totals are a function of the staged batch
  // and the shard sizes alone — identical across repeat runs at any worker
  // count (the p=1/2/8 reruns of this suite check exactly that).
  auto base = fixed_intervals(8000, 0x60D);
  Sharded<DynamicIntervalTree> si(Routing::kRange, 4, 4);
  ASSERT_TRUE(si.bulk_insert(base).ok());
  for (const Interval& iv : fixed_intervals(2000, 0xD1CE, 8000)) {
    si.stage_insert(iv);
  }
  fault::ScopedFault guard("shard_apply", /*seed=*/0, /*nth=*/2);
  asym::Counts c1, c2;
  {
    asym::Region region;
    ASSERT_FALSE(si.commit().ok());
    c1 = region.delta();
  }
  {
    asym::Region region;
    ASSERT_FALSE(si.commit().ok());
    c2 = region.delta();
  }
  EXPECT_EQ(c1.reads, c2.reads);
  EXPECT_EQ(c1.writes, c2.writes);
}

TEST(FaultInjection, ValidationRejectsMalformedStagedRecords) {
  auto qs = stab_points(64, 0x90D);
  Sharded<DynamicIntervalTree> si(4, 4);
  ASSERT_TRUE(si.bulk_insert(fixed_intervals(2000, 0xABBA)).ok());
  IntervalSnapshot golden = snapshot(si, qs);

  auto expect_rejected = [&](const Interval& bad) {
    si.stage_insert(Interval{0.1, 0.2, 90001});  // a valid companion
    si.stage_insert(bad);
    auto v = si.commit();
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.code(), StatusCode::kInvalidArgument);
    expect_identical(snapshot(si, qs), golden);
    si.discard_staged();
    EXPECT_EQ(si.staged_inserts(), 0u);
  };
  expect_rejected(Interval{kNaN, 0.5, 90002});       // NaN endpoint
  expect_rejected(Interval{0.5, kInf, 90002});       // infinite endpoint
  expect_rejected(Interval{0.7, 0.2, 90002});        // inverted l > r
  expect_rejected(Interval{0.1, 0.2, 90001});        // dup id within epoch

  // Malformed staged erases are rejected too (an absent but well-formed
  // erase is a soft miss, not an error).
  si.stage_erase(Interval{kNaN, 0.5, 123});
  auto v = si.commit();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), StatusCode::kInvalidArgument);
  si.discard_staged();
  expect_identical(snapshot(si, qs), golden);

  // The "validate" fault point force-fails a record that would pass.
  si.stage_insert(Interval{0.3, 0.4, 90100});
  si.stage_insert(Interval{0.5, 0.6, 90101});
  {
    fault::ScopedFault guard("validate", /*seed=*/0, /*nth=*/1);
    auto forced = si.commit();
    ASSERT_FALSE(forced.ok());
    EXPECT_EQ(forced.code(), StatusCode::kFaultInjected);
    expect_identical(snapshot(si, qs), golden);
  }
  ASSERT_TRUE(si.commit().ok());  // disarmed: the same batch lands
  EXPECT_EQ(si.size(), golden.size + 2);
}

TEST(FaultInjection, DuplicateIdAgainstLiveRecordRollsBack) {
  // A staged id that is already live fails inside the owning shard's
  // prepare — after other shards may have built their plans — and the
  // transaction still rolls back wholesale.
  auto qs = stab_points(64, 0x51);
  auto base = fixed_intervals(4000, 0xCAFE);
  Sharded<DynamicIntervalTree> si(Routing::kRange, 4, 4);
  ASSERT_TRUE(si.bulk_insert(base).ok());
  IntervalSnapshot golden = snapshot(si, qs);

  for (const Interval& iv : fixed_intervals(1000, 0xBEAD, 4000)) {
    si.stage_insert(iv);
  }
  si.stage_insert(base[1234]);  // id 1234 is live
  auto v = si.commit();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.code(), StatusCode::kInvalidArgument);
  expect_identical(snapshot(si, qs), golden);

  // Same-epoch id reuse via insert+erase is still an error (inserts apply
  // before erases, so the insert clobbers); cross-epoch reuse is fine.
  si.discard_staged();
  ASSERT_EQ(si.bulk_erase({base[7]}).value(), 1u);
  si.stage_insert(Interval{0.4, 0.6, base[7].id});
  EXPECT_TRUE(si.commit().ok());
}

// --- structure-level contract: fail before the first write --------------

TEST(FaultInjection, StructureBulkOpsFailWithoutMutating) {
  auto base = fixed_intervals(3000, 0x7A5);
  DynamicIntervalTree t(4);
  ASSERT_TRUE(t.bulk_insert(base).ok());
  auto probe = t.stab(0.5);

  // seed != 0, nth = 0 selects every index: the alloc gate always trips.
  {
    fault::ScopedFault guard("alloc", /*seed=*/1, /*nth=*/0);
    Status s = t.bulk_insert(fixed_intervals(500, 0x7A6, 3000));
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kFaultInjected);
  }
  EXPECT_EQ(t.size(), base.size());
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.stab(0.5), probe);

  // Validation errors follow the same pre-mutation contract.
  Status s = t.bulk_insert({Interval{0.2, 0.1, 99999}});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  auto e = t.bulk_erase({Interval{kNaN, 0.5, 1}});
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(t.size(), base.size());
  EXPECT_EQ(t.stab(0.5), probe);

  auto pts = testing::random_points<2>(3000, 0x7A7);
  LogForest<2> forest;
  ASSERT_TRUE(forest.bulk_insert(pts).ok());
  DynamicKdTree<2> kd;
  ASSERT_TRUE(kd.bulk_insert(pts).ok());
  {
    fault::ScopedFault guard("alloc", /*seed=*/1, /*nth=*/0);
    auto more = testing::random_points<2>(500, 0x7A8);
    EXPECT_EQ(forest.bulk_insert(more).code(), StatusCode::kFaultInjected);
    EXPECT_EQ(kd.bulk_insert(more).code(), StatusCode::kFaultInjected);
  }
  EXPECT_EQ(forest.size(), pts.size());
  EXPECT_EQ(kd.size(), pts.size());
  geom::PointK<2> bad{{0.5, kNaN}};
  EXPECT_EQ(forest.bulk_insert({bad}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kd.bulk_insert({bad}).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(forest.bulk_erase({bad}).ok());
  EXPECT_FALSE(kd.bulk_erase({bad}).ok());
  EXPECT_EQ(forest.size(), pts.size());
  EXPECT_EQ(kd.size(), pts.size());
}

// --- poisoned query sub-batches -----------------------------------------

TEST(FaultInjection, QueryPoisonPropagatesThroughEveryMergePath) {
  auto ivs = fixed_intervals(6000, 0xB00);
  auto qs = stab_points(96, 0xB01);
  auto pts = testing::random_points<2>(6000, 0xB02);
  auto boxes = box_queries(48, 0xB03);
  auto probes = testing::random_points<2>(32, 0xB04);

  for (Routing routing : {Routing::kHash, Routing::kRange}) {
    Sharded<DynamicIntervalTree> si(routing, 4, 4);
    ASSERT_TRUE(si.bulk_insert(ivs).ok());
    Sharded<LogForest<2>> sf(routing, 4);
    ASSERT_TRUE(sf.bulk_insert(pts).ok());
    auto count_golden = si.stab_count_batch(qs);

    fault::ScopedFault guard("query_poison", /*seed=*/0, /*nth=*/1);
    auto stab = si.stab_batch(qs);
    ASSERT_FALSE(stab.ok());
    EXPECT_EQ(stab.status().code(), StatusCode::kFaultInjected);
    EXPECT_EQ(stab.total(), 0u);  // a poisoned result carries no items

    auto rep = sf.range_report_batch(boxes);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.status().code(), StatusCode::kFaultInjected);

    auto knn = sf.knn_batch(probes, 8);
    ASSERT_FALSE(knn.ok());
    EXPECT_EQ(knn.status().code(), StatusCode::kFaultInjected);

    // Families without a Status carrier (counting) have no poison point:
    // the armed spec must not change their results.
    EXPECT_EQ(si.stab_count_batch(qs), count_golden);
  }
}

// --- degenerate serving inputs ------------------------------------------

TEST(FaultInjection, DegenerateServingInputsAreDefined) {
  auto ivs = fixed_intervals(2000, 0xDE6);
  auto pts = testing::random_points<2>(2000, 0xDE7);

  // Fanout 0 clamps to the degenerate unsharded layout.
  Sharded<DynamicIntervalTree> zero(0, 4);
  EXPECT_EQ(zero.fanout(), 1u);
  ASSERT_TRUE(zero.bulk_insert(ivs).ok());
  EXPECT_EQ(zero.size(), ivs.size());

  for (Routing routing : {Routing::kHash, Routing::kRange}) {
    Sharded<DynamicIntervalTree> si(routing, 4, 4);
    ASSERT_TRUE(si.bulk_insert(ivs).ok());
    Sharded<LogForest<2>> sf(routing, 4);
    ASSERT_TRUE(sf.bulk_insert(pts).ok());

    // Empty query batches.
    EXPECT_EQ(si.stab_batch(std::vector<double>{}).num_queries(), 0u);
    EXPECT_EQ(sf.knn_batch(std::vector<geom::Point2>{}, 4).num_queries(),
              0u);

    // NaN stab probes answer empty, not UB.
    std::vector<double> qs = {0.5, kNaN, 0.25};
    auto stab = si.stab_batch(qs);
    ASSERT_TRUE(stab.ok());
    EXPECT_EQ(stab.count(1), 0u);
    EXPECT_GT(stab.count(0), 0u);
    auto cnt = si.stab_count_batch(qs);
    EXPECT_EQ(cnt[1], 0u);
    EXPECT_EQ(cnt[0], stab.count(0));

    // Inverted and NaN rectangles are empty ranges.
    geom::Box2 inverted;
    inverted.lo[0] = 0.8;
    inverted.hi[0] = 0.2;
    inverted.lo[1] = 0.8;
    inverted.hi[1] = 0.2;
    geom::Box2 nanbox;
    nanbox.lo[0] = kNaN;
    nanbox.hi[0] = kNaN;
    nanbox.lo[1] = 0.0;
    nanbox.hi[1] = 1.0;
    std::vector<geom::Box2> degenerate = {inverted, nanbox};
    auto rep = sf.range_report_batch(degenerate);
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep.total(), 0u);
    auto rc = sf.range_count_batch(degenerate);
    EXPECT_EQ(rc[0], 0u);
    EXPECT_EQ(rc[1], 0u);

    // k = 0, k > n, and NaN probes.
    std::vector<geom::Point2> nn = {geom::Point2{{0.5, 0.5}},
                                    geom::Point2{{kNaN, 0.5}}};
    auto k0 = sf.knn_batch(nn, 0);
    ASSERT_TRUE(k0.ok());
    EXPECT_EQ(k0.total(), 0u);
    auto kbig = sf.knn_batch(nn, pts.size() + 100);
    ASSERT_TRUE(kbig.ok());
    EXPECT_EQ(kbig.count(0), pts.size());  // min(k, live)
    EXPECT_EQ(kbig.count(1), 0u);          // NaN probe: empty slice
    auto ann = sf.ann_batch(nn, 0.0);
    EXPECT_TRUE(ann[0].has_value());
    EXPECT_FALSE(ann[1].has_value());

    // Erasing absent but well-formed records is a soft miss.
    EXPECT_EQ(si.bulk_erase({Interval{0.123, 0.456, 777777}}).value(), 0u);
    EXPECT_EQ(si.size(), ivs.size());

    // Empty and sparse layers: every query is planned against the shard
    // coverage boxes, which only grow, so shards without live records must
    // be pruned by their size alone — whether never inserted into, left
    // empty by a sparse fanout-8 layer holding 3 records, or erased back to
    // empty. All six wrappers must match the unsharded oracle (empty
    // oracles give the empty answer), and no query may visit more shards
    // than hold records.
    std::vector<Interval> few_ivs(ivs.begin(), ivs.begin() + 3);
    std::vector<geom::Point2> few_pts(pts.begin(), pts.begin() + 3);
    std::vector<double> probes = stab_points(32, 0xDE8);
    std::vector<geom::Box2> boxes = box_queries(32, 0xDE9);
    std::vector<geom::Point2> near = testing::random_points<2>(16, 0xDEA);
    for (const Interval& iv : few_ivs) probes.push_back((iv.l + iv.r) / 2);
    for (const geom::Point2& p : few_pts) {
      geom::Box2 b;
      b.lo = b.hi = p;
      boxes.push_back(b);
      near.push_back(p);
    }
    auto expect_oracle = [&](const Sharded<DynamicIntervalTree>& lsi,
                             const DynamicIntervalTree& oi,
                             const Sharded<LogForest<2>>& lsf,
                             const LogForest<2>& of) {
      auto stab = lsi.stab_batch(probes);
      auto sc = lsi.stab_count_batch(probes);
      ASSERT_TRUE(stab.ok());
      for (size_t i = 0; i < probes.size(); ++i) {
        std::vector<uint32_t> want = oi.stab(probes[i]);
        std::sort(want.begin(), want.end());
        EXPECT_EQ(stab.result(i), want);
        EXPECT_EQ(sc[i], want.size());
      }
      auto rep = lsf.range_report_batch(boxes);
      auto rc = lsf.range_count_batch(boxes);
      ASSERT_TRUE(rep.ok());
      for (size_t i = 0; i < boxes.size(); ++i) {
        std::vector<geom::Point2> want = of.range_report(boxes[i]);
        std::sort(want.begin(), want.end(),
                  [](const geom::Point2& a, const geom::Point2& b) {
                    return a.coords < b.coords;
                  });
        EXPECT_EQ(rep.result(i), want);
        EXPECT_EQ(rc[i], want.size());
      }
      for (size_t k : {size_t{1}, size_t{5}}) {
        auto knn = lsf.knn_batch(near, k);
        ASSERT_TRUE(knn.ok());
        for (size_t i = 0; i < near.size(); ++i) {
          EXPECT_EQ(knn.result(i), of.knn(near[i], k));
        }
      }
      auto ann = lsf.ann_batch(near, 0.0);
      for (size_t i = 0; i < near.size(); ++i) {
        ASSERT_EQ(ann[i].has_value(), of.size() > 0);
        if (ann[i].has_value()) {
          EXPECT_EQ(*ann[i], of.knn(near[i], 1).front());
        }
      }
      auto live_shards = [](const auto& layer) {
        size_t live = 0;
        for (size_t s = 0; s < layer.fanout(); ++s) {
          live += layer.shard(s).size() > 0 ? 1 : 0;
        }
        return live;
      };
      EXPECT_LE(lsi.planner_shard_visits(),
                live_shards(lsi) * lsi.planner_queries());
      EXPECT_LE(lsf.planner_shard_visits(),
                live_shards(lsf) * lsf.planner_queries());
    };
    DynamicIntervalTree no_ivs(4), few_iv_oracle(4);
    LogForest<2> no_pts, few_pt_oracle;
    ASSERT_TRUE(few_iv_oracle.bulk_insert(few_ivs).ok());
    ASSERT_TRUE(few_pt_oracle.bulk_insert(few_pts).ok());
    {
      Sharded<DynamicIntervalTree> never_i(routing, 4, 4);
      Sharded<LogForest<2>> never_f(routing, 4);
      expect_oracle(never_i, no_ivs, never_f, no_pts);
    }
    {
      Sharded<DynamicIntervalTree> sparse_i(routing, 8, 4);
      Sharded<LogForest<2>> sparse_f(routing, 8);
      ASSERT_TRUE(sparse_i.bulk_insert(few_ivs).ok());
      ASSERT_TRUE(sparse_f.bulk_insert(few_pts).ok());
      expect_oracle(sparse_i, few_iv_oracle, sparse_f, few_pt_oracle);
    }
    {
      Sharded<DynamicIntervalTree> drained_i(routing, 4, 4);
      Sharded<LogForest<2>> drained_f(routing, 4);
      ASSERT_TRUE(drained_i.bulk_insert(ivs).ok());
      ASSERT_TRUE(drained_f.bulk_insert(pts).ok());
      ASSERT_EQ(drained_i.bulk_erase(ivs).value(), ivs.size());
      ASSERT_EQ(drained_f.bulk_erase(pts).value(), pts.size());
      expect_oracle(drained_i, no_ivs, drained_f, no_pts);
    }
  }
}

// --- scheduler watchdog vs a stalled worker -----------------------------

TEST(FaultInjection, WatchdogSurfacesStalledWorker) {
  auto& sched = parallel::Scheduler::instance();
  if (sched.num_workers() < 2) {
    GTEST_SKIP() << "no steals at p=1: the stall point cannot fire";
  }
  auto ivs = fixed_intervals(30000, 0xA77);
  Sharded<DynamicIntervalTree> si(4, 4);
  ASSERT_TRUE(si.bulk_insert(ivs).ok());
  auto qs = stab_points(256, 0x77);

  uint64_t trips0 = sched.watchdog_trips();
  sched.set_watchdog_ms(5);
  {
    // Every steal by a scheduler worker sleeps kStallMillis before the
    // stolen job runs, so any join on a stolen branch outlives the 5 ms
    // deadline. A few batches make a steal (and thus a trip) overwhelmingly
    // likely at p >= 2; bail out as soon as one lands.
    fault::ScopedFault guard("steal_stall", /*seed=*/1, /*nth=*/0);
    for (int round = 0; round < 30; ++round) {
      si.stab_batch(qs);
      if (sched.watchdog_trips() > trips0) break;
    }
  }
  sched.set_watchdog_ms(0);
  if (fault::trips() == 0) {
    GTEST_SKIP() << "no steal occurred; nothing to observe";
  }
  EXPECT_GT(sched.watchdog_trips(), trips0);
}

// --- the CI fault sweep entry point -------------------------------------

// Runs a full serving scenario under whatever WEG_FAULT the environment
// armed (or none) and asserts the transactional invariants hold either
// way: a failing step must be a perfect no-op, a succeeding run must match
// the fault-free oracle. Both layers run: the interval layer, whose shards
// prepare on a copy, and the forest layer, whose shards plan natively. The
// CI fault sweep executes exactly this suite under a matrix of WEG_FAULT
// specs.
void sweep_interval_layer() {
  auto base = fixed_intervals(6000, 0x5EED);
  auto extra = fixed_intervals(1500, 0x5EEE, 6000);
  auto qs = stab_points(128, 0x5EEF);

  // The oracle is built element-wise: insert() has no fault points, so the
  // oracle is correct under every armed spec.
  DynamicIntervalTree oracle(4);
  for (const Interval& iv : base) oracle.insert(iv);

  Sharded<DynamicIntervalTree> si(Routing::kRange, 4, 4);
  Status load = si.bulk_insert(base);
  if (!load.ok()) {
    // The initial bulk epoch tripped: nothing may have been published.
    EXPECT_EQ(si.version(), 0u);
    EXPECT_EQ(si.size(), 0u);
    return;
  }
  EXPECT_EQ(si.size(), oracle.size());
  IntervalSnapshot before = snapshot(si, qs);

  for (const Interval& iv : extra) si.stage_insert(iv);
  for (size_t i = 0; i < base.size(); i += 3) si.stage_erase(base[i]);
  auto v = si.commit();
  if (!v.ok()) {
    // Rolled back: epoch N still serves, staged batch kept.
    expect_identical(snapshot(si, qs), before);
    EXPECT_EQ(si.staged_inserts(), extra.size());
    return;
  }
  EXPECT_EQ(si.version(), before.version + 1);
  for (const Interval& iv : extra) oracle.insert(iv);
  std::vector<Interval> gone;
  for (size_t i = 0; i < base.size(); i += 3) gone.push_back(base[i]);
  ASSERT_TRUE(oracle.bulk_erase(gone).ok());
  EXPECT_EQ(si.size(), oracle.size());

  auto r = si.stab_batch(qs);
  if (!r.ok()) {
    // A poisoned sub-batch: the merged result reports, never fabricates.
    EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
    EXPECT_EQ(r.total(), 0u);
    return;
  }
  for (size_t i = 0; i < qs.size(); ++i) {
    auto expect = oracle.stab(qs[i]);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(r.result(i), expect);
  }
}

void sweep_forest_layer() {
  auto pts = testing::random_points<2>(7500, 0x5EED);
  std::vector<geom::Point2> base(pts.begin(), pts.begin() + 6000);
  std::vector<geom::Point2> extra(pts.begin() + 6000, pts.end());
  PointProbes probes{box_queries(64, 0x5EEF),
                     testing::random_points<2>(32, 0x5EF0)};

  // insert() and erase() have no fault points either.
  LogForest<2> oracle;
  for (const geom::Point2& p : base) oracle.insert(p);

  Sharded<LogForest<2>> sf(Routing::kRange, 4);
  Status load = sf.bulk_insert(base);
  if (!load.ok()) {
    EXPECT_EQ(sf.version(), 0u);
    EXPECT_EQ(sf.size(), 0u);
    return;
  }
  EXPECT_EQ(sf.size(), oracle.size());
  // kNN can be poisoned; the snapshot then compares poisoned (empty)
  // results, which the armed spec makes identical on both sides.
  auto before = snapshot(sf, probes);

  for (const geom::Point2& p : extra) sf.stage_insert(p);
  for (size_t i = 0; i < base.size(); i += 3) sf.stage_erase(base[i]);
  auto v = sf.commit();
  if (!v.ok()) {
    expect_identical(snapshot(sf, probes), before);
    EXPECT_EQ(sf.staged_inserts(), extra.size());
    return;
  }
  EXPECT_EQ(sf.version(), before.version + 1);
  for (const geom::Point2& p : extra) oracle.insert(p);
  for (size_t i = 0; i < base.size(); i += 3) {
    ASSERT_TRUE(oracle.erase(base[i]));
  }
  EXPECT_EQ(sf.size(), oracle.size());
  for (size_t s = 0; s < sf.fanout(); ++s) EXPECT_TRUE(sf.shard(s).validate());

  auto counts = sf.range_count_batch(probes.boxes);
  for (size_t i = 0; i < probes.boxes.size(); ++i) {
    EXPECT_EQ(counts[i], oracle.range_count(probes.boxes[i]));
  }
  auto knn = sf.knn_batch(probes.near, 8);
  if (!knn.ok()) {
    EXPECT_EQ(knn.status().code(), StatusCode::kFaultInjected);
    EXPECT_EQ(knn.total(), 0u);
    return;
  }
  for (size_t i = 0; i < probes.near.size(); ++i) {
    EXPECT_EQ(knn.result(i), oracle.knn(probes.near[i], 8));
  }
}

TEST(FaultSweep, ServingInvariantsHoldUnderEnvFault) {
  sweep_interval_layer();
  sweep_forest_layer();
}

}  // namespace
}  // namespace weg
