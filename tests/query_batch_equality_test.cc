// Batch-vs-serial equality for the parallel batched-query engine
// (src/parallel/batch_query.h): every structure's *_batch entry point must
// return, per query, exactly the ids/points/neighbors its serial query
// returns, in the same order (bitwise equality — both run the same single
// templated traversal). The CMake registration reruns this suite at
// WEG_NUM_THREADS=1/2/8, and the golden read/write counts below pin the
// engine's other contract: the two-phase plan (count pass, exclusive scan,
// report pass into pre-claimed slices) is a function of the input alone, so
// asym totals are bit-identical at every worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/augtree/interval.h"
#include "src/augtree/interval_tree.h"
#include "src/augtree/priority_tree.h"
#include "src/augtree/range_tree.h"
#include "src/kdtree/dynamic.h"
#include "src/kdtree/kdtree.h"
#include "src/primitives/random.h"
#include "tests/testing_util.h"

namespace weg {
namespace {

using augtree::AlphaRangeTree;
using augtree::DynamicIntervalTree;
using augtree::DynamicPriorityTree;
using augtree::Interval;
using augtree::PPoint;
using augtree::Query3Sided;
using augtree::RangeQuery2D;
using augtree::StaticIntervalTree;
using augtree::StaticPriorityTree;
using augtree::StaticRangeTree;

constexpr size_t kN = 30000;  // above the ~2k sequential cutoff

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

std::vector<RangeQuery2D> range_queries(size_t q, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<RangeQuery2D> qs(q);
  for (auto& r : qs) {
    r.xl = rng.next_double();
    r.xr = r.xl + rng.next_double() * 0.2;
    r.yb = rng.next_double();
    r.yt = r.yb + rng.next_double() * 0.2;
  }
  return qs;
}

std::vector<Query3Sided> sided_queries(size_t q, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<Query3Sided> qs(q);
  for (auto& s : qs) {
    s.xl = rng.next_double();
    s.xr = s.xl + rng.next_double() * 0.2;
    s.yb = 1.0 - rng.next_double() * 0.4;
  }
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

TEST(QueryBatchEquality, IntervalTreesStabBatch) {
  auto ivs = fixed_intervals(kN, 0xA11CE);
  auto classic = StaticIntervalTree::build_classic(ivs);
  auto postsorted = StaticIntervalTree::build_postsorted(ivs);
  DynamicIntervalTree dynamic(4);
  ASSERT_TRUE(dynamic.bulk_insert(ivs).ok());
  auto qs = stab_points(256, 0xBEEF);

  auto bc = classic.stab_batch(qs);
  auto bp = postsorted.stab_batch(qs);
  auto bd = dynamic.stab_batch(qs);
  auto cc = classic.stab_count_batch(qs);
  ASSERT_EQ(bc.num_queries(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(bc.result(i), classic.stab(qs[i]));
    EXPECT_EQ(bp.result(i), postsorted.stab(qs[i]));
    EXPECT_EQ(bd.result(i), dynamic.stab(qs[i]));
    EXPECT_EQ(bc.count(i), classic.stab_count(qs[i]));
    EXPECT_EQ(bd.count(i), dynamic.stab_count(qs[i]));
    EXPECT_EQ(cc[i], bc.count(i));
  }
}

TEST(QueryBatchEquality, RangeTreesQueryBatch) {
  auto pts = testing::random_ppoints(kN, 0x5EED);
  auto classic = StaticRangeTree::build(pts);
  auto alpha = AlphaRangeTree::build(pts, 4);
  auto qs = range_queries(128, 0xCAFE);

  auto bc = classic.query_batch(qs);
  auto ba = alpha.query_batch(qs);
  auto cc = classic.query_count_batch(qs);
  auto ca = alpha.query_count_batch(qs);
  for (size_t i = 0; i < qs.size(); ++i) {
    const RangeQuery2D& q = qs[i];
    EXPECT_EQ(bc.result(i), classic.query(q.xl, q.xr, q.yb, q.yt));
    EXPECT_EQ(ba.result(i), alpha.query(q.xl, q.xr, q.yb, q.yt));
    EXPECT_EQ(cc[i], classic.query_count(q.xl, q.xr, q.yb, q.yt));
    EXPECT_EQ(ca[i], ba.count(i));
    EXPECT_EQ(bc.count(i), ba.count(i));  // same answer set size
  }
}

TEST(QueryBatchEquality, PriorityTreesQueryBatch) {
  auto pts = testing::random_ppoints(kN, 0xFACE);
  auto classic = StaticPriorityTree::build_classic(pts);
  auto postsorted = StaticPriorityTree::build_postsorted(pts);
  DynamicPriorityTree dynamic(4);
  for (const PPoint& p : pts) dynamic.insert(p);
  auto qs = sided_queries(128, 0xB0BA);

  auto bc = classic.query_batch(qs);
  auto bp = postsorted.query_batch(qs);
  auto bd = dynamic.query_batch(qs);
  auto cd = dynamic.query_count_batch(qs);
  for (size_t i = 0; i < qs.size(); ++i) {
    const Query3Sided& q = qs[i];
    EXPECT_EQ(bc.result(i), classic.query(q.xl, q.xr, q.yb));
    EXPECT_EQ(bp.result(i), postsorted.query(q.xl, q.xr, q.yb));
    EXPECT_EQ(bd.result(i), dynamic.query(q.xl, q.xr, q.yb));
    EXPECT_EQ(cd[i], dynamic.query_count(q.xl, q.xr, q.yb));
    EXPECT_EQ(bc.count(i), bd.count(i));
  }
}

TEST(QueryBatchEquality, KdTreeRangeAndNeighborBatch) {
  auto pts = testing::random_points<2>(kN, 0xD00D);
  auto tree = kdtree::KdTree2::build_classic(pts, 8);
  auto boxes = box_queries(128, 0xF00D);
  auto nnq = testing::random_points<2>(256, 0x1DEA);

  auto br = tree.range_report_batch(boxes);
  auto bc = tree.range_count_batch(boxes);
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(br.result(i), tree.range_report(boxes[i]));
    EXPECT_EQ(bc[i], tree.range_count(boxes[i]));
    EXPECT_EQ(br.count(i), bc[i]);
  }

  const size_t k = 8;
  auto bk = tree.knn_batch(nnq, k);
  auto ba = tree.ann_batch(nnq, 0.0);
  ASSERT_EQ(bk.total(), nnq.size() * k);
  for (size_t i = 0; i < nnq.size(); ++i) {
    // Serial knn/ann return indices into points(); the unified batch API
    // returns the neighbor points themselves.
    auto ids = tree.knn(nnq[i], k);
    std::vector<geom::Point2> want(ids.size());
    for (size_t j = 0; j < ids.size(); ++j) want[j] = tree.points()[ids[j]];
    EXPECT_EQ(bk.result(i), want);
    ASSERT_TRUE(ba[i].has_value());
    EXPECT_EQ(*ba[i], tree.points()[tree.ann(nnq[i], 0.0)]);
    EXPECT_EQ(bk.result(i).front(), *ba[i]);  // 1-NN is the exact ANN
  }

  // A non-finite probe has no neighbours, as in the dynamic structures: an
  // empty slice (count pass 0), no ANN, and no serial answer.
  const geom::Point2 nan_q{{std::numeric_limits<double>::quiet_NaN(), 0.5}};
  auto bn = tree.knn_batch({nnq[0], nan_q}, k);
  EXPECT_EQ(bn.count(0), k);
  EXPECT_EQ(bn.count(1), 0u);
  EXPECT_TRUE(tree.knn(nan_q, k).empty());
  EXPECT_EQ(tree.ann(nan_q), SIZE_MAX);
  EXPECT_FALSE(tree.ann_batch({nan_q})[0].has_value());
}

TEST(QueryBatchEquality, CoveredSubtreeFastPathMatchesLeafScan) {
  // The count-augmented traversal answers fully-covered subtrees from the
  // pre-claimed slice bounds. Every covered-box shape — all-covering,
  // half-space (whole subtrees on one side of the root split), zero-area
  // through an existing point, zero-area in empty space — must return
  // bitwise-identical results with the fast path on, with the kill switch
  // off, and against a leaf-scan oracle; the all-covering count must do it
  // with strictly fewer reads.
  auto pts = testing::random_points<2>(kN, 0xC0FE);
  auto tree = kdtree::KdTree2::build_classic(pts, 8);

  geom::Box2 all;
  all.lo[0] = all.lo[1] = -1.0;
  all.hi[0] = all.hi[1] = 2.0;
  geom::Box2 half;
  half.lo[0] = half.lo[1] = -1.0;
  half.hi[0] = 0.5;
  half.hi[1] = 2.0;
  geom::Box2 pbox;  // zero-area: lo == hi on an existing point
  pbox.lo = pbox.hi = pts[7];
  geom::Box2 nowhere;  // zero-area box in empty space
  nowhere.lo[0] = nowhere.hi[0] = -0.25;
  nowhere.lo[1] = nowhere.hi[1] = -0.25;
  std::vector<geom::Box2> boxes = {all, half, pbox, nowhere};

  auto leaf_count = [&](const geom::Box2& b) {
    size_t c = 0;
    for (const auto& p : pts) c += b.contains(p) ? 1 : 0;
    return c;
  };

  kdtree::QueryOptions off;
  off.count_fast_path = false;
  auto bc = tree.range_count_batch(boxes);
  auto br = tree.range_report_batch(boxes);
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(bc[i], leaf_count(boxes[i]));
    EXPECT_EQ(bc[i], tree.range_count(boxes[i], off));
    EXPECT_EQ(br.result(i), tree.range_report(boxes[i], off));  // same order
  }
  EXPECT_EQ(bc[0], pts.size());
  EXPECT_GE(bc[2], 1u);
  EXPECT_EQ(bc[3], 0u);

  kdtree::QueryStats qs_on, qs_off;
  asym::Counts on_c, off_c;
  {
    asym::Region region;
    tree.range_count(all, kdtree::QueryOptions{&qs_on});
    on_c = region.delta();
  }
  {
    asym::Region region;
    kdtree::QueryOptions o{&qs_off};
    o.count_fast_path = false;
    tree.range_count(all, o);
    off_c = region.delta();
  }
  EXPECT_EQ(qs_on.covered_subtrees, 1u);  // the root shortcut
  EXPECT_EQ(qs_off.covered_subtrees, 0u);
  EXPECT_LT(on_c.reads, off_c.reads);
  EXPECT_LT(qs_on.nodes_visited, qs_off.nodes_visited);
}

TEST(QueryBatchEquality, DynamicCoveredCountsRespectLiveWeights) {
  // Covered counts in the dynamic structures come from live-subtree
  // weights: erased points must not resurrect through the fast path, and
  // the kill switch must agree bitwise.
  auto pts = testing::random_points<2>(20000, 0xD1CE);
  kdtree::DynamicKdTree<2> single;
  for (const auto& p : pts) single.insert(p);
  kdtree::LogForest<2> forest;
  ASSERT_TRUE(forest.bulk_insert(pts).ok());
  for (size_t i = 0; i < pts.size() / 4; ++i) {
    ASSERT_TRUE(single.erase(pts[i]));
    ASSERT_TRUE(forest.erase(pts[i]));
  }
  const size_t live = pts.size() - pts.size() / 4;

  geom::Box2 all;
  all.lo[0] = all.lo[1] = -1.0;
  all.hi[0] = all.hi[1] = 2.0;
  kdtree::QueryOptions off;
  off.count_fast_path = false;
  EXPECT_EQ(single.range_count(all), live);
  EXPECT_EQ(forest.range_count(all), live);
  EXPECT_EQ(single.range_count(all, off), live);
  EXPECT_EQ(forest.range_count(all, off), live);
  EXPECT_EQ(single.range_report(all).size(), live);
  EXPECT_EQ(forest.range_report(all).size(), live);
}

TEST(QueryBatchEquality, DynamicKdStructuresRangeBatch) {
  auto pts = testing::random_points<2>(20000, 0xFEED);
  kdtree::DynamicKdTree<2> single;
  for (const auto& p : pts) single.insert(p);
  kdtree::LogForest<2> forest;
  ASSERT_TRUE(forest.bulk_insert(pts).ok());
  // Erase a slice so the dead-point filtering paths run too.
  for (size_t i = 0; i < pts.size() / 8; ++i) {
    ASSERT_TRUE(single.erase(pts[i]));
    ASSERT_TRUE(forest.erase(pts[i]));
  }
  auto boxes = box_queries(96, 0xABBA);
  auto nnq = testing::random_points<2>(64, 0xACDC);

  auto bs = single.range_report_batch(boxes);
  auto cs = single.range_count_batch(boxes);
  auto bf = forest.range_report_batch(boxes);
  auto cf = forest.range_count_batch(boxes);
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(bs.result(i), single.range_report(boxes[i]));
    EXPECT_EQ(cs[i], single.range_count(boxes[i]));
    EXPECT_EQ(bf.result(i), forest.range_report(boxes[i]));
    EXPECT_EQ(cf[i], forest.range_count(boxes[i]));
    EXPECT_EQ(cs[i], cf[i]);  // same live point set
  }

  auto as = single.ann_batch(nnq);
  auto af = forest.ann_batch(nnq);
  for (size_t i = 0; i < nnq.size(); ++i) {
    EXPECT_EQ(as[i], single.ann(nnq[i]));
    EXPECT_EQ(af[i], forest.ann(nnq[i]));
  }

  // kNN against brute force on the forest's multi-level, dead-point path.
  // A small batch and singles after the bulk load give the forest several
  // levels besides the large one. The probe at c has four points at exactly
  // the same distance (ties the canonical order must break by coordinates),
  // each twice (duplicates), and the three nearest points of some probes are
  // erased, so their nearest candidates are dead.
  std::vector<geom::Point2> live(pts.begin() + long(pts.size() / 8), pts.end());
  auto batch = testing::random_points<2>(40, 0xB1B);
  ASSERT_TRUE(single.bulk_insert(batch).ok());
  ASSERT_TRUE(forest.bulk_insert(batch).ok());
  live.insert(live.end(), batch.begin(), batch.end());
  auto add = [&](const geom::Point2& p) {
    single.insert(p);
    forest.insert(p);
    live.push_back(p);
  };
  const double c = 0.5, h = 1.0 / 1024;  // dyadic: the four d^2 are equal
  for (int rep = 0; rep < 2; ++rep) {
    for (const geom::Point2& p : {geom::Point2{{c + h, c}}, {{c - h, c}},
                                  {{c, c + h}}, {{c, c - h}}}) {
      add(p);
    }
  }
  for (const geom::Point2& p : testing::random_points<2>(100, 0xB0B)) add(p);
  nnq.push_back(geom::Point2{{c, c}});

  // The first m live points in canonical (distance^2, coordinates) order,
  // by brute force.
  auto canonical = [&](const geom::Point2& q, size_t m) {
    std::vector<std::pair<double, geom::Point2>> by;
    for (const geom::Point2& p : live) {
      by.emplace_back(geom::squared_distance(p, q), p);
    }
    m = std::min(m, by.size());
    std::partial_sort(by.begin(), by.begin() + long(m), by.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first < b.first;
                        return a.second.coords < b.second.coords;
                      });
    std::vector<geom::Point2> out(m);
    for (size_t j = 0; j < m; ++j) out[j] = by[j].second;
    return out;
  };
  auto erase_live = [&](const geom::Point2& p) {
    ASSERT_TRUE(single.erase(p));
    ASSERT_TRUE(forest.erase(p));
    live.erase(std::find(live.begin(), live.end(), p));
  };
  for (size_t i = 0; i < nnq.size(); i += 8) {
    auto near = canonical(nnq[i], 3);
    for (size_t j = 0; j < 3; ++j) erase_live(near[j]);
  }
  ASSERT_GT(forest.num_trees(), 2u);
  ASSERT_EQ(single.size(), live.size());
  ASSERT_EQ(forest.size(), live.size());

  // Whole-set answers (k > size) only for the last four probes, the tie
  // probe among them, to keep the suite fast.
  const size_t whole_from = nnq.size() - 4;
  std::vector<std::vector<geom::Point2>> order;
  for (size_t i = 0; i < nnq.size(); ++i) {
    order.push_back(canonical(nnq[i], i < whole_from ? 8 : live.size()));
  }
  for (size_t k : {size_t{0}, size_t{1}, size_t{8}, live.size() + 5}) {
    size_t first = k > live.size() ? whole_from : 0;
    std::vector<geom::Point2> probes(nnq.begin() + long(first), nnq.end());
    auto ks = single.knn_batch(probes, k);
    auto kf = forest.knn_batch(probes, k);
    for (size_t i = first; i < nnq.size(); ++i) {
      std::vector<geom::Point2> want(
          order[i].begin(), order[i].begin() + long(std::min(k, live.size())));
      EXPECT_EQ(ks.result(i - first), want) << "query " << i << " k " << k;
      EXPECT_EQ(kf.result(i - first), want) << "query " << i << " k " << k;
      EXPECT_EQ(single.knn(nnq[i], k), want) << "query " << i << " k " << k;
      EXPECT_EQ(forest.knn(nnq[i], k), want) << "query " << i << " k " << k;
      if (k == 1) {
        EXPECT_EQ(single.ann(nnq[i]), want.front()) << "query " << i;
        EXPECT_EQ(forest.ann(nnq[i]), want.front()) << "query " << i;
      }
    }
  }
}

TEST(QueryBatchEquality, BatchCountsAreScheduleIndependent) {
  // Repeat-run determinism at whatever worker count this process has: the
  // two-phase plan performs the same counted accesses regardless of how work
  // stealing interleaves the per-query tasks.
  auto ivs = fixed_intervals(20000, 0x60D);
  auto tree = StaticIntervalTree::build_postsorted(ivs);
  auto qs = stab_points(200, 0x90D);
  asym::Counts c1, c2;
  {
    asym::Region region;
    tree.stab_batch(qs);
    c1 = region.delta();
  }
  {
    asym::Region region;
    tree.stab_batch(qs);
    c2 = region.delta();
  }
  EXPECT_EQ(c1.reads, c2.reads);
  EXPECT_EQ(c1.writes, c2.writes);
}

TEST(QueryBatchEquality, BatchCountsMatchSerialGolden) {
  // Golden read/write counts captured from the serial (WEG_NUM_THREADS=1)
  // code path. The p=2/8 reruns of this suite must charge exactly the same
  // totals — the cross-worker-count half of the determinism contract the
  // batch engine inherits from the parallel builds. If an algorithm's
  // counting legitimately changes, recapture at p=1.
  auto ivs = fixed_intervals(20000, 0x60D);
  auto itree = StaticIntervalTree::build_postsorted(ivs);
  auto sq = stab_points(200, 0x90D);
  {
    asym::Region region;
    auto r = itree.stab_batch(sq);
    auto c = region.delta();
    EXPECT_GT(r.total(), 0u);
    EXPECT_EQ(c.reads, 120768u);
    EXPECT_EQ(c.writes, 97815u);
  }

  auto pts = testing::random_ppoints(20000, 0x60D);
  auto rtree = StaticRangeTree::build(pts);
  auto rq = range_queries(96, 0xE66);
  {
    asym::Region region;
    auto r = rtree.query_batch(rq);
    auto c = region.delta();
    EXPECT_GT(r.total(), 0u);
    EXPECT_EQ(c.reads, 47055u);
    EXPECT_EQ(c.writes, 16979u);
  }

  auto kpts = testing::random_points<2>(20000, 0x60D);
  auto ktree = kdtree::KdTree2::build_classic(kpts, 8);
  auto nnq = testing::random_points<2>(128, 0xE66);
  {
    asym::Region region;
    auto r = ktree.knn_batch(nnq, 8);
    auto c = region.delta();
    EXPECT_EQ(r.total(), 128u * 8u);
    // Recaptured for the count-augmented traversal: the per-node bounding
    // box short-circuit skips subtrees farther than the running k-th
    // candidate, dropping reads from the pre-augmentation 7319.
    EXPECT_EQ(c.reads, 6599u);
    EXPECT_EQ(c.writes, 1281u);
  }

  // The forest's multi-level, dead-point path (a serve_knn_readmostly shard
  // looks like this): one large level with erased points plus the small
  // levels later inserts leave. One visitor spans every level and skips
  // dead slots, so no level is searched twice.
  kdtree::LogForest<2> forest;
  ASSERT_TRUE(forest.bulk_insert(kpts).ok());
  for (const auto& p : testing::random_points<2>(100, 0xF0E)) forest.insert(p);
  for (size_t i = 0; i < kpts.size(); i += 8) {
    ASSERT_TRUE(forest.erase(kpts[i]));
  }
  ASSERT_GT(forest.num_trees(), 2u);
  {
    asym::Region region;
    auto r = forest.knn_batch(nnq, 8);
    auto c = region.delta();
    EXPECT_EQ(r.total(), 128u * 8u);
    EXPECT_EQ(c.reads, 14012u);
    EXPECT_EQ(c.writes, 1281u);
  }
  {
    asym::Region region;
    auto r = forest.ann_batch(nnq);
    auto c = region.delta();
    EXPECT_EQ(r.size(), 128u);
    EXPECT_EQ(c.reads, 7258u);
    EXPECT_EQ(c.writes, 128u);
  }
}

}  // namespace
}  // namespace weg
