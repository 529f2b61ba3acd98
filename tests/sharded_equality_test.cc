// Sharded-vs-unsharded equality for the serving layer
// (src/parallel/sharded.h): at every fanout, each merged query slice must be
// bitwise-identical to the unsharded structure's answer put into the same
// canonical order — ascending ids for stabbing, lexicographic coordinates
// for range reports, (distance, coordinates) for kNN/ANN — because the
// merge is pure offset arithmetic plus a canonicalizing sort, and shards
// partition the record set. The epoch tests replay the same
// update-batch/query-batch schedule against a serial oracle. The CMake
// registration reruns this suite at WEG_NUM_THREADS=1/2/8, and the golden
// read/write counts pin the other contract: bulk updates (pre-claimed build
// slots) and sharded batch queries charge asym totals that are functions of
// the input alone — identical at every worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "src/augtree/interval.h"
#include "src/augtree/interval_tree.h"
#include "src/geom/box.h"
#include "src/kdtree/dynamic.h"
#include "src/parallel/fault.h"
#include "src/parallel/sharded.h"
#include "src/primitives/random.h"
#include "tests/testing_util.h"

namespace weg {
namespace {

using augtree::DynamicIntervalTree;
using augtree::Interval;
using kdtree::DynamicKdTree;
using kdtree::LogForest;
using parallel::Sharded;

constexpr size_t kN = 30000;  // above the ~2k sequential cutoff
const size_t kFanouts[] = {1, 2, 4, 8};

std::vector<Interval> fixed_intervals(size_t n, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<Interval> ivs(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.next_double();
    ivs[i] = Interval{a, a + rng.next_double() * 0.05, uint32_t(i)};
  }
  return ivs;
}

std::vector<double> stab_points(size_t q, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<double> qs(q);
  for (double& x : qs) x = rng.next_double();
  return qs;
}

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

std::vector<uint32_t> sorted_ids(std::vector<uint32_t> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<geom::Point2> sorted_points(std::vector<geom::Point2> v) {
  std::sort(v.begin(), v.end(),
            [](const geom::Point2& a, const geom::Point2& b) {
              return a.coords < b.coords;
            });
  return v;
}

TEST(ShardedEquality, StabBatchAllFanouts) {
  auto ivs = fixed_intervals(kN, 0xA11CE);
  DynamicIntervalTree oracle(4);
  ASSERT_TRUE(oracle.bulk_insert(ivs).ok());
  auto qs = stab_points(256, 0xBEEF);

  for (size_t f : kFanouts) {
    Sharded<DynamicIntervalTree> sharded(f, 4);
    ASSERT_TRUE(sharded.bulk_insert(ivs).ok());
    EXPECT_EQ(sharded.fanout(), f);
    EXPECT_EQ(sharded.size(), oracle.size());
    for (size_t s = 0; s < f; ++s) {
      EXPECT_GT(sharded.shard(s).size(), 0u);  // routing actually spreads
    }
    auto batch = sharded.stab_batch(qs);
    auto counts = sharded.stab_count_batch(qs);
    ASSERT_EQ(batch.num_queries(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(batch.result(i), sorted_ids(oracle.stab(qs[i])));
      EXPECT_EQ(counts[i], oracle.stab_count(qs[i]));
      EXPECT_EQ(batch.count(i), counts[i]);
    }
  }
}

TEST(ShardedEquality, ForestRangeKnnAnnAllFanouts) {
  auto pts = testing::random_points<2>(20000, 0xFEED);
  std::vector<geom::Point2> gone(pts.begin(), pts.begin() + 2500);
  LogForest<2> oracle;
  ASSERT_TRUE(oracle.bulk_insert(pts).ok());
  ASSERT_EQ(oracle.bulk_erase(gone).value(), gone.size());
  auto boxes = box_queries(96, 0xABBA);
  {
    // Covered-subtree shapes ride along: all-covering, half-space, and a
    // zero-area box through a surviving point — the count fast path and
    // covered-shard planning must stay bitwise-equal to the oracle at
    // every fanout.
    geom::Box2 all;
    all.lo[0] = all.lo[1] = -1.0;
    all.hi[0] = all.hi[1] = 2.0;
    geom::Box2 half = all;
    half.hi[0] = 0.5;
    geom::Box2 pb;
    pb.lo = pb.hi = pts.back();
    boxes.push_back(all);
    boxes.push_back(half);
    boxes.push_back(pb);
  }
  auto nnq = testing::random_points<2>(64, 0xACDC);

  for (size_t f : kFanouts) {
    Sharded<LogForest<2>> sharded(f);
    ASSERT_TRUE(sharded.bulk_insert(pts).ok());
    EXPECT_EQ(sharded.bulk_erase(gone).value(), gone.size());
    EXPECT_EQ(sharded.size(), oracle.size());

    auto rep = sharded.range_report_batch(boxes);
    auto cnt = sharded.range_count_batch(boxes);
    for (size_t i = 0; i < boxes.size(); ++i) {
      EXPECT_EQ(rep.result(i), sorted_points(oracle.range_report(boxes[i])));
      EXPECT_EQ(cnt[i], oracle.range_count(boxes[i]));
      EXPECT_EQ(rep.count(i), cnt[i]);
    }

    const size_t k = 8;
    auto knn = sharded.knn_batch(nnq, k);
    auto ann = sharded.ann_batch(nnq, 0.0);
    ASSERT_EQ(knn.total(), nnq.size() * k);
    for (size_t i = 0; i < nnq.size(); ++i) {
      // LogForest::knn already reports in the canonical (distance,
      // coordinates) order, so this is plain bitwise equality.
      EXPECT_EQ(knn.result(i), oracle.knn(nnq[i], k));
      ASSERT_TRUE(ann[i].has_value());
      EXPECT_EQ(*ann[i], oracle.knn(nnq[i], 1).front());
      EXPECT_EQ(knn.result(i).front(), *ann[i]);
    }
  }
}

TEST(ShardedEquality, KnnAnnCanonicalUnderDistanceTies) {
  // Lattice points make distinct equidistant candidates ubiquitous: a query
  // on a lattice site sees its 4 unit neighbors tied, so k=6 forces a pick
  // among tied boundary candidates. The canonical (distance, coordinates)
  // order in the kd visitors is what keeps every fanout's top-k identical —
  // a plain distance comparison would let traversal order decide.
  std::vector<geom::Point2> pts;
  for (int x = 0; x < 40; ++x) {
    for (int y = 0; y < 40; ++y) {
      pts.push_back(geom::Point2{{double(x), double(y)}});
    }
  }
  LogForest<2> oracle;
  ASSERT_TRUE(oracle.bulk_insert(pts).ok());
  std::vector<geom::Point2> qs;
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      qs.push_back(geom::Point2{{double(x * 5), double(y * 5)}});
    }
  }
  for (size_t f : kFanouts) {
    Sharded<LogForest<2>> sharded(f);
    ASSERT_TRUE(sharded.bulk_insert(pts).ok());
    auto knn = sharded.knn_batch(qs, 6);
    auto ann = sharded.ann_batch(qs, 0.0);
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(knn.result(i), oracle.knn(qs[i], 6));
      ASSERT_TRUE(ann[i].has_value());
      EXPECT_EQ(*ann[i], oracle.knn(qs[i], 1).front());
    }
  }
}

TEST(ShardedEquality, DynamicKdTreeBulkMatchesElementwise) {
  auto pts = testing::random_points<2>(20000, 0xD00D);
  std::vector<geom::Point2> gone(pts.begin(), pts.begin() + 2500);

  DynamicKdTree<2> bulk;
  ASSERT_TRUE(bulk.bulk_insert(pts).ok());
  EXPECT_EQ(bulk.bulk_erase(gone).value(), gone.size());
  ASSERT_TRUE(bulk.validate());

  DynamicKdTree<2> elementwise;
  for (const auto& p : pts) elementwise.insert(p);
  for (const auto& p : gone) ASSERT_TRUE(elementwise.erase(p));
  ASSERT_TRUE(elementwise.validate());

  EXPECT_EQ(bulk.size(), elementwise.size());
  auto boxes = box_queries(96, 0xF00D);
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(sorted_points(bulk.range_report(boxes[i])),
              sorted_points(elementwise.range_report(boxes[i])));
  }
}

TEST(ShardedEquality, EpochInterleavingMatchesSerialReplay) {
  // Update batches and query batches interleaved through the epoch API must
  // match a serial oracle that applies the same bulk batches at the same
  // commit points: queries staged-but-uncommitted see the old version,
  // committed epochs see exactly the new record set.
  auto all = fixed_intervals(24000, 0xEB0C);
  Sharded<DynamicIntervalTree> sharded(4, 4);
  DynamicIntervalTree oracle(4);

  size_t next = 0;
  std::vector<Interval> live;
  auto qs = stab_points(128, 0x90D);
  for (int epoch = 0; epoch < 5; ++epoch) {
    uint64_t named = sharded.begin_epoch();
    std::vector<Interval> ins(all.begin() + next, all.begin() + next + 4000);
    next += 4000;
    std::vector<Interval> ers;
    for (size_t i = 0; i < live.size(); i += 2) ers.push_back(live[i]);

    for (const Interval& iv : ins) sharded.stage_insert(iv);
    for (const Interval& iv : ers) sharded.stage_erase(iv);

    // Staged but not committed: queries still see the previous version.
    auto before = sharded.stab_batch(qs);
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(before.result(i), sorted_ids(oracle.stab(qs[i])));
    }

    EXPECT_EQ(sharded.commit().value(), named);
    EXPECT_EQ(sharded.version(), named);
    ASSERT_TRUE(oracle.bulk_insert(ins).ok());
    size_t oracle_erased = oracle.bulk_erase(ers).value();
    EXPECT_EQ(sharded.last_commit_erased(), oracle_erased);

    auto after = sharded.stab_batch(qs);
    auto counts = sharded.stab_count_batch(qs);
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(after.result(i), sorted_ids(oracle.stab(qs[i])));
      EXPECT_EQ(counts[i], oracle.stab_count(qs[i]));
    }

    // Maintain the live set the way the oracle saw it.
    std::vector<Interval> still;
    for (size_t i = 0; i < live.size(); ++i) {
      if (i % 2 != 0) still.push_back(live[i]);
    }
    live.swap(still);
    live.insert(live.end(), ins.begin(), ins.end());
    EXPECT_EQ(sharded.size(), oracle.size());
  }
}

TEST(ShardedEquality, ForestEpochInterleaving) {
  auto pts = testing::random_points<2>(16000, 0xE66);
  Sharded<LogForest<2>> sharded(4);
  LogForest<2> oracle;
  auto boxes = box_queries(48, 0xB0BA);

  size_t next = 0;
  std::vector<geom::Point2> live;
  for (int epoch = 0; epoch < 4; ++epoch) {
    std::vector<geom::Point2> ins(pts.begin() + next,
                                  pts.begin() + next + 4000);
    next += 4000;
    std::vector<geom::Point2> ers;
    for (size_t i = 0; i < live.size(); i += 3) ers.push_back(live[i]);
    for (const auto& p : ins) sharded.stage_insert(p);
    for (const auto& p : ers) sharded.stage_erase(p);
    ASSERT_TRUE(sharded.commit().ok());
    ASSERT_TRUE(oracle.bulk_insert(ins).ok());
    EXPECT_EQ(sharded.last_commit_erased(), oracle.bulk_erase(ers).value());

    auto rep = sharded.range_report_batch(boxes);
    for (size_t i = 0; i < boxes.size(); ++i) {
      EXPECT_EQ(rep.result(i), sorted_points(oracle.range_report(boxes[i])));
    }

    std::vector<geom::Point2> still;
    for (size_t i = 0; i < live.size(); ++i) {
      if (i % 3 != 0) still.push_back(live[i]);
    }
    live.swap(still);
    live.insert(live.end(), ins.begin(), ins.end());
  }
  EXPECT_EQ(sharded.version(), 4u);
}

// Randomized differential epochs over a range-routed forest layer. Each
// epoch inserts fresh points (clustered, so range rebalances migrate
// records through the transaction) plus copies of live points, and erases
// live points, absent points, the same point twice, and points inserted in
// the same epoch; some epochs erase most of the live set, so shard forests
// compact inside the plan. A brute-force multiset is the oracle for the
// erase count, range counts and kNN after every epoch, and every shard
// must validate(). Every fifth epoch first trips shard_apply on a shard
// with work: the failed commit must leave results bitwise identical and
// keep the staged batch.
TEST(ShardedEquality, ForestRandomEpochsMatchOracle) {
  using geom::Point2;
  constexpr size_t kK = 5;
  for (uint64_t seed : {0x5A1u, 0x5A2u, 0x5A3u}) {
    primitives::Rng rng(seed);
    Sharded<LogForest<2>> sf(parallel::Routing::kRange, 4);
    std::vector<Point2> live;  // the oracle multiset
    auto boxes = box_queries(16, seed);
    auto near = testing::random_points<2>(8, seed ^ 0x99);
    auto random_point = [&](double cx, double cy, double spread) {
      return Point2{{cx + rng.next_double() * spread,
                     cy + rng.next_double() * spread}};
    };
    auto results = [&] {
      return std::make_pair(sf.range_count_batch(boxes),
                            sf.knn_batch(near, kK).items());
    };

    for (int epoch = 0; epoch < 30; ++epoch) {
      std::vector<Point2> ins, ers;
      double cx = rng.next_double() * 0.8, cy = rng.next_double() * 0.8;
      for (size_t i = 0, n = 50 + rng.next_bounded(250); i < n; ++i) {
        ins.push_back(random_point(cx, cy, 0.2));
      }
      for (size_t i = 0; i < 10 && !live.empty(); ++i) {
        ins.push_back(live[rng.next_bounded(live.size())]);
      }
      size_t erase_live = rng.next_bounded(live.size() / 4 + 1);
      // Every seventh epoch erases most of the live set: shards compact.
      if (epoch % 7 == 6) erase_live = live.size() * 3 / 5;
      for (size_t i = 0; i < erase_live; ++i) {
        ers.push_back(live[rng.next_bounded(live.size())]);
      }
      for (size_t i = 0; i < 5; ++i) ers.push_back(random_point(0, 0, 1));
      for (size_t i = 0; i < 5 && !ers.empty(); ++i) ers.push_back(ers[i]);
      for (size_t i = 0; i < ins.size(); i += 7) ers.push_back(ins[i]);
      for (const Point2& p : ins) sf.stage_insert(p);
      for (const Point2& p : ers) sf.stage_erase(p);

      if (epoch % 5 == 4) {
        auto before = results();
        uint64_t version = sf.version();
        size_t victim = sf.shard_of(ins[rng.next_bounded(ins.size())]);
        {
          fault::ScopedFault guard("shard_apply", /*seed=*/0, victim);
          auto v = sf.commit();
          ASSERT_FALSE(v.ok());
          EXPECT_EQ(v.code(), StatusCode::kFaultInjected);
        }
        EXPECT_EQ(sf.version(), version);
        EXPECT_EQ(sf.staged_inserts(), ins.size());
        EXPECT_EQ(sf.staged_erases(), ers.size());
        EXPECT_EQ(results(), before);
      }
      ASSERT_TRUE(sf.commit().ok()) << "seed " << seed << " epoch " << epoch;

      // Oracle: the epoch's inserts land first, then each erase removes one
      // live copy if there is one.
      live.insert(live.end(), ins.begin(), ins.end());
      size_t erased = 0;
      for (const Point2& p : ers) {
        auto it = std::find(live.begin(), live.end(), p);
        if (it == live.end()) continue;
        *it = live.back();
        live.pop_back();
        ++erased;
      }
      ASSERT_EQ(sf.last_commit_erased(), erased);
      ASSERT_EQ(sf.size(), live.size());
      for (size_t s = 0; s < sf.fanout(); ++s) {
        ASSERT_TRUE(sf.shard(s).validate()) << "shard " << s;
      }

      auto [counts, knn_items] = results();
      for (size_t i = 0; i < boxes.size(); ++i) {
        size_t want = size_t(std::count_if(
            live.begin(), live.end(),
            [&](const Point2& p) { return boxes[i].contains(p); }));
        EXPECT_EQ(counts[i], want) << "box " << i;
      }
      primitives::UninitVector<Point2> want_knn;
      for (const Point2& q : near) {
        std::vector<std::pair<double, Point2>> by_dist;
        for (const Point2& p : live) {
          by_dist.emplace_back(geom::squared_distance(p, q), p);
        }
        size_t k = std::min(kK, by_dist.size());
        std::partial_sort(by_dist.begin(), by_dist.begin() + k, by_dist.end(),
                          [](const auto& a, const auto& b) {
                            if (a.first != b.first) return a.first < b.first;
                            return a.second.coords < b.second.coords;
                          });
        for (size_t j = 0; j < k; ++j) want_knn.push_back(by_dist[j].second);
      }
      EXPECT_EQ(knn_items, want_knn);
    }
    EXPECT_GT(sf.rebalances(), 0u) << "seed " << seed;
  }
}

// prepare_epoch only reads: dropping its plan leaves a range-routed forest
// layer exactly as it was — version, size, the split points, and kNN and
// range results all bitwise unchanged. Covers the first epoch (whose plan
// carries the seeded split points), a normal epoch, and an epoch where
// shard_apply trips; a tripped first commit() seeds nothing either.
TEST(ShardedEquality, DroppedEpochPlansLeaveLayerUnchanged) {
  using geom::Point2;
  using Layer = Sharded<LogForest<2>>;
  auto pts = testing::random_points<2>(6000, 0xD80);
  std::vector<Point2> base(pts.begin(), pts.begin() + 4000);
  std::vector<Point2> extra(pts.begin() + 4000, pts.end());
  std::vector<Point2> gone(base.begin(), base.begin() + 1000);
  auto boxes = box_queries(32, 0xD81);
  auto near = testing::random_points<2>(16, 0xD82);
  auto state = [&](const Layer& l) {
    auto knn = l.knn_batch(near, 8);
    auto rep = l.range_report_batch(boxes);
    return std::make_tuple(l.version(), l.size(), l.bounds_built(), l.splits(),
                           knn.items(), knn.offsets(), rep.items(),
                           rep.offsets(), l.range_count_batch(boxes));
  };

  Layer layer(parallel::Routing::kRange, 4);
  auto before = state(layer);
  ASSERT_TRUE(layer.prepare_epoch(base, {}).ok());  // first epoch, dropped
  EXPECT_EQ(state(layer), before);
  EXPECT_TRUE(layer.splits().empty());
  ASSERT_TRUE(layer.bulk_insert(base).ok());
  ASSERT_TRUE(layer.bounds_built());

  before = state(layer);
  ASSERT_TRUE(layer.prepare_epoch(extra, gone).ok());  // normal, dropped
  EXPECT_EQ(state(layer), before);
  {
    fault::ScopedFault guard("shard_apply", /*seed=*/0,
                             layer.shard_of(extra[0]));
    auto plan = layer.prepare_epoch(extra, gone);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::kFaultInjected);
  }
  EXPECT_EQ(state(layer), before);

  Layer fresh(parallel::Routing::kRange, 4);
  for (const Point2& p : base) fresh.stage_insert(p);
  {
    fault::ScopedFault guard("shard_apply", /*seed=*/0, /*nth=*/0);
    ASSERT_FALSE(fresh.commit().ok());
  }
  EXPECT_FALSE(fresh.bounds_built());
  EXPECT_TRUE(fresh.splits().empty());
  EXPECT_EQ(fresh.version(), 0u);

  // Published, the same epoch lands.
  auto plan = layer.prepare_epoch(extra, gone);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(layer.publish(plan.value()), std::get<0>(before) + 1);
  EXPECT_EQ(plan.value().erased(), gone.size());
  EXPECT_EQ(layer.size(), base.size() + extra.size() - gone.size());
}

TEST(ShardedEquality, ShardedCountsScheduleIndependent) {
  // Repeat-run determinism at whatever worker count this process has: the
  // shard fan-out, per-shard two-phase plans, and bulk-charged merge perform
  // the same counted accesses regardless of work-stealing interleavings.
  auto ivs = fixed_intervals(20000, 0x60D);
  Sharded<DynamicIntervalTree> sharded(4, 4);
  ASSERT_TRUE(sharded.bulk_insert(ivs).ok());
  auto qs = stab_points(200, 0x90D);
  asym::Counts c1, c2;
  {
    asym::Region region;
    sharded.stab_batch(qs);
    c1 = region.delta();
  }
  {
    asym::Region region;
    sharded.stab_batch(qs);
    c2 = region.delta();
  }
  EXPECT_EQ(c1.reads, c2.reads);
  EXPECT_EQ(c1.writes, c2.writes);
}

TEST(ShardedEquality, BulkOpsAndShardedBatchGoldenCounts) {
  // Golden read/write counts captured from the serial (WEG_NUM_THREADS=1)
  // code path. The p=2/8 reruns of this suite must charge exactly the same
  // totals — the unified pre-claimed-slot bulk paths and the bulk-charged
  // sharded merge are functions of the input alone. If an algorithm's
  // counting legitimately changes, recapture at p=1.
  auto ivs = fixed_intervals(20000, 0x60D);
  std::vector<Interval> iv_gone(ivs.begin(), ivs.begin() + 5000);
  {
    asym::Region region;
    DynamicIntervalTree t(4);
    ASSERT_TRUE(t.bulk_insert(ivs).ok());
    ASSERT_EQ(t.bulk_erase(iv_gone).value(), iv_gone.size());
    auto c = region.delta();
    // Recaptured for the sampling semisort (interval bulk ops rebuild via
    // the write-efficient sort, whose large rounds now take the heavy/light
    // plan): +42226 reads are the separately charged sample fetches and
    // grouping sweeps, +28731 writes the now-charged local bucket sorts.
    // +25000 reads since ivs_ lookups are charged: 20000 from the final
    // whole-tree rebuild, one per erase.
    EXPECT_EQ(c.reads, 2957197u);
    EXPECT_EQ(c.writes, 839650u);
  }

  auto pts = testing::random_points<2>(20000, 0x60D);
  std::vector<geom::Point2> pt_gone(pts.begin(), pts.begin() + 5000);
  {
    asym::Region region;
    DynamicKdTree<2> t;
    ASSERT_TRUE(t.bulk_insert(pts).ok());
    ASSERT_EQ(t.bulk_erase(pt_gone).value(), pt_gone.size());
    auto c = region.delta();
    EXPECT_EQ(c.reads, 386912u);
    EXPECT_EQ(c.writes, 340486u);
  }
  {
    asym::Region region;
    LogForest<2> t;
    ASSERT_TRUE(t.bulk_insert(pts).ok());
    ASSERT_EQ(t.bulk_erase(pt_gone).value(), pt_gone.size());
    auto c = region.delta();
    EXPECT_EQ(c.reads, 351783u);
    EXPECT_EQ(c.writes, 285000u);
  }

  Sharded<DynamicIntervalTree> si(4, 4);
  ASSERT_TRUE(si.bulk_insert(ivs).ok());
  auto sq = stab_points(200, 0x90D);
  {
    asym::Region region;
    auto r = si.stab_batch(sq);
    auto c = region.delta();
    EXPECT_GT(r.total(), 0u);
    // Recaptured when hash batches moved onto the planner: they now pay its
    // bulk charges (mask sweep, routing slots) instead of the broadcast's
    // flat nq * S fan-out (was 460387/294247). Recaptured when the planner
    // stopped semisorting the shard masks and built its CSR plan straight
    // from them (was 462587/295577).
    EXPECT_EQ(c.reads, 461987u);
    EXPECT_EQ(c.writes, 295247u);
  }

  Sharded<LogForest<2>> sf(4);
  ASSERT_TRUE(sf.bulk_insert(pts).ok());
  auto boxes = box_queries(96, 0xE66);
  auto nnq = testing::random_points<2>(64, 0xE66);
  {
    asym::Region region;
    auto r = sf.range_report_batch(boxes);
    auto k = sf.knn_batch(nnq, 8);
    auto c = region.delta();
    EXPECT_GT(r.total(), 0u);
    EXPECT_EQ(k.total(), nnq.size() * 8);
    // Recaptured for the count-augmented traversal: covered-subtree slice
    // reporting and per-node box pruning inside each shard's forest drop
    // reads from the pre-augmentation 145297 (writes unchanged — the same
    // result slices are written once). Recaptured again when hash batches
    // moved onto the planner (was 129326/54528): the planner's bulk charges
    // and kNN's seed round plus threshold pass. Recaptured when the planner
    // stopped semisorting the shard masks (was 131598/55814).
    EXPECT_EQ(c.reads, 130926u);
    EXPECT_EQ(c.writes, 55456u);
  }
}

}  // namespace
}  // namespace weg
