// Parallel/serial equality for the geometry layer (hull, Delaunay, k-d
// trees): every structure is built on fixed-seed inputs large enough to
// engage the parallel paths (n >> the ~2k sequential cutoff / block size)
// and must answer identically to a serial brute-force oracle. The CMake
// registration reruns this suite at WEG_NUM_THREADS=1/2/8, so a parallel
// build answering — or *counting* — differently from a serial build fails
// one of the pinned runs. Golden read/write counts (captured at p=1) pin the
// cross-worker-count half of the counter-determinism claim; the repeat-build
// checks pin schedule independence at a fixed worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/delaunay/delaunay.h"
#include "src/hull/hull.h"
#include "src/kdtree/dynamic.h"
#include "src/kdtree/kdtree.h"
#include "src/kdtree/pbatched.h"
#include "src/primitives/random.h"
#include "tests/testing_util.h"

namespace weg {
namespace {

constexpr size_t kN = 50000;  // several fork levels above the ~2k cutoff

// ---------------------------------------------------------------------------
// Convex hull
// ---------------------------------------------------------------------------

// Independent serial oracle: std::sort + one monotone-chain pass (no blocks,
// no parallel primitives).
std::vector<uint32_t> brute_hull(const std::vector<geom::Point2>& pts) {
  size_t n = pts.size();
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return pts[a][0] < pts[b][0] ||
           (pts[a][0] == pts[b][0] && pts[a][1] < pts[b][1]);
  });
  auto cross = [&](uint32_t o, uint32_t a, uint32_t b) {
    return (pts[a][0] - pts[o][0]) * (pts[b][1] - pts[o][1]) -
           (pts[a][1] - pts[o][1]) * (pts[b][0] - pts[o][0]);
  };
  if (n < 2) return order;
  std::vector<uint32_t> hull;
  auto scan = [&](auto begin, auto end) {
    size_t start = hull.size();
    for (auto it = begin; it != end; ++it) {
      while (hull.size() >= start + 2 &&
             cross(hull[hull.size() - 2], hull.back(), *it) <= 0) {
        hull.pop_back();
      }
      hull.push_back(*it);
    }
    hull.pop_back();
  };
  scan(order.begin(), order.end());
  scan(order.rbegin(), order.rend());
  return hull;
}

TEST(GeometryParallelEquality, HullMatchesSerialOracle) {
  auto pts = testing::random_points(kN, 0x481);
  auto expect = brute_hull(pts);
  EXPECT_EQ(convex_hull(pts, hull::SortMode::kClassic), expect);
  EXPECT_EQ(convex_hull(pts, hull::SortMode::kWriteEfficient), expect);
}

TEST(GeometryParallelEquality, HullCircleAllVerticesSurviveBlockFilter) {
  // Every point is a hull vertex: the block filter may discard nothing.
  size_t n = 20000;
  primitives::Rng rng(0x482);
  std::vector<geom::Point2> pts(n);
  for (auto& p : pts) {
    double t = rng.next_double() * 6.283185307179586;
    p[0] = std::cos(t);
    p[1] = std::sin(t);
  }
  auto expect = brute_hull(pts);
  hull::HullStats st{};
  auto h = convex_hull(pts, hull::SortMode::kClassic, &st);
  EXPECT_EQ(h, expect);
  EXPECT_EQ(st.hull_size, n);
  EXPECT_GE(st.candidates, n);
}

TEST(GeometryParallelEquality, HullGridPointsWithEqualXRuns) {
  // Lattice points: long equal-x runs that cross parallel_for chunk and
  // block boundaries, exercising the two-phase run fixup (the continuous
  // inputs above never take that branch) — including under the tsan preset.
  size_t n = 30000;
  primitives::Rng rng(0x48E);
  std::vector<geom::Point2> pts(n);
  for (auto& p : pts) {
    p[0] = static_cast<double>(rng.next_bounded(64));
    p[1] = static_cast<double>(rng.next_bounded(64));
  }
  // Duplicate lattice points make the representative *index* of a vertex
  // tie-dependent, so compare vertex coordinates.
  auto coords = [&](const std::vector<uint32_t>& h) {
    std::vector<std::pair<double, double>> c;
    c.reserve(h.size());
    for (uint32_t i : h) c.emplace_back(pts[i][0], pts[i][1]);
    return c;
  };
  auto expect = coords(brute_hull(pts));
  EXPECT_EQ(coords(convex_hull(pts, hull::SortMode::kClassic)), expect);
  EXPECT_EQ(coords(convex_hull(pts, hull::SortMode::kWriteEfficient)), expect);
}

TEST(GeometryParallelEquality, HullCountsMatchSerialGolden) {
  // Golden counts captured from the serial (WEG_NUM_THREADS=1) code path.
  // The block decomposition is a function of n alone, so the p=2/8 reruns
  // must charge exactly the same reads and writes. If the algorithm's
  // counting legitimately changes, recapture at p=1.
  auto pts = testing::random_points(kN, 0x483);
  hull::HullStats c1{}, c2{};
  convex_hull(pts, hull::SortMode::kWriteEfficient, &c1);
  convex_hull(pts, hull::SortMode::kWriteEfficient, &c2);
  EXPECT_EQ(c1.cost.reads, c2.cost.reads);
  EXPECT_EQ(c1.cost.writes, c2.cost.writes);
  // Recaptured for the sampling semisort: the write-efficient hull sorts
  // its chains through incremental-sort rounds, whose large rounds now take
  // the heavy/light plan (+52785 reads: sample fetches + separately charged
  // grouping sweeps; +39409 writes: the now-charged local bucket sorts).
  EXPECT_EQ(c1.cost.reads, 2322052u);
  EXPECT_EQ(c1.cost.writes, 383260u);
}

// ---------------------------------------------------------------------------
// Delaunay triangulation
// ---------------------------------------------------------------------------

// Under symbolic perturbation the Delaunay triangulation is unique, so
// every mode and schedule must produce the same canonical alive-triangle
// set (compared by its fingerprint, tests/testing_util.h).
TEST(GeometryParallelEquality, DelaunayModesAgreeOnTheTriangulation) {
  auto pts = testing::random_points(20000, 0x484);
  auto grid = delaunay::quantize(pts);
  auto baseline = delaunay::triangulate(grid, delaunay::Mode::kBaseline);
  auto we = delaunay::triangulate(grid, delaunay::Mode::kWriteEfficient);
  ASSERT_TRUE(baseline->validate(false));
  ASSERT_TRUE(we->validate(false));
  EXPECT_EQ(testing::alive_triangle_fingerprint(*baseline),
            testing::alive_triangle_fingerprint(*we));
}

TEST(GeometryParallelEquality, DelaunayCountsMatchSerialGolden) {
  // The counts move with the reservation rounds; the fingerprint of the
  // output, unique under SoS, must not (captured before the rounds changed).
  auto pts = testing::random_points(20000, 0x485);
  auto grid = delaunay::quantize(pts);
  delaunay::DTStats s1{}, s2{};
  auto m1 = delaunay::triangulate(grid, delaunay::Mode::kWriteEfficient, &s1);
  auto m2 = delaunay::triangulate(grid, delaunay::Mode::kWriteEfficient, &s2);
  EXPECT_EQ(testing::alive_triangle_fingerprint(*m1), 0xc412cc07a5fc22e5ULL);
  EXPECT_EQ(testing::alive_triangle_fingerprint(*m2), 0xc412cc07a5fc22e5ULL);
  EXPECT_EQ(s1.cost.reads, s2.cost.reads);
  EXPECT_EQ(s1.cost.writes, s2.cost.writes);
  EXPECT_EQ(s1.cost.reads, 1638521u);
  EXPECT_EQ(s1.cost.writes, 779330u);
}

// ---------------------------------------------------------------------------
// k-d trees
// ---------------------------------------------------------------------------

size_t brute_range_count(const std::vector<geom::Point2>& pts,
                         const geom::Box2& q) {
  size_t c = 0;
  for (const auto& p : pts) c += q.contains(p) ? 1 : 0;
  return c;
}

geom::Box2 random_box(primitives::Rng& rng) {
  geom::Box2 q;
  for (int d = 0; d < 2; ++d) {
    double a = rng.next_double();
    q.lo[d] = a;
    q.hi[d] = a + rng.next_double() * 0.25;
  }
  return q;
}

TEST(GeometryParallelEquality, PBatchedBuildIsDeterministicAndCorrect) {
  auto pts = testing::random_points(kN, 0x486);
  auto t1 = kdtree::PBatched2::build(pts);
  auto t2 = kdtree::PBatched2::build(pts);
  ASSERT_TRUE(t1.validate());
  // Structural determinism across schedules: the finishing step lays both
  // the point array and the compact node ids out from pre-claimed,
  // size-determined slices, so repeat builds are bit-identical.
  EXPECT_EQ(t1.points(), t2.points());
  EXPECT_EQ(t1.num_nodes(), t2.num_nodes());
  EXPECT_EQ(t1.height(), t2.height());
  auto classic = kdtree::KdTree2::build_classic(pts);
  primitives::Rng rng(0x487);
  for (int i = 0; i < 48; ++i) {
    auto q = random_box(rng);
    size_t expect = brute_range_count(pts, q);
    EXPECT_EQ(t1.range_count(q), expect);
    EXPECT_EQ(classic.range_count(q), expect);
  }
}

TEST(GeometryParallelEquality, KdBuildCountsMatchSerialGolden) {
  auto pts = testing::random_points(kN, 0x488);
  kdtree::BuildStats c1{}, c2{}, p1{}, p2{};
  kdtree::KdTree2::build_classic(pts, 8, &c1);
  kdtree::KdTree2::build_classic(pts, 8, &c2);
  EXPECT_EQ(c1.cost.reads, c2.cost.reads);
  EXPECT_EQ(c1.cost.writes, c2.cost.writes);
  kdtree::PBatched2::build(pts, 0, 8, &p1);
  kdtree::PBatched2::build(pts, 0, 8, &p2);
  EXPECT_EQ(p1.cost.reads, p2.cost.reads);
  EXPECT_EQ(p1.cost.writes, p2.cost.writes);
  EXPECT_EQ(c1.cost.reads, 650000u);
  EXPECT_EQ(c1.cost.writes, 700000u);
  // Recaptured for the sampling semisort: pbatched rounds semisort by leaf
  // rank through the heavy/light plan (+52785 reads, as in the hull golden
  // above). Writes moved by only +14 — leaf-rank buckets are single-key, so
  // the plan places every round with pre-claimed slices and almost no local
  // sorting: the O(n)-writes contract is intact.
  EXPECT_EQ(p1.cost.reads, 502170u);
  EXPECT_EQ(p1.cost.writes, 328303u);
}

TEST(GeometryParallelEquality, DynamicKdTreeRebuildsMatchBruteForce) {
  // Incremental inserts trigger imbalance rebuilds; rebuilds past the ~2k
  // cutoff take the parallel pre-claimed-slice path.
  auto pts = testing::random_points(20000, 0x489);
  kdtree::DynamicKdTree<2> t;
  asym::Region region;
  for (const auto& p : pts) t.insert(p);
  auto c = region.delta();
  ASSERT_TRUE(t.validate());
  EXPECT_GT(t.rebuilds(), 0u);
  primitives::Rng rng(0x48A);
  for (int i = 0; i < 32; ++i) {
    auto q = random_box(rng);
    EXPECT_EQ(t.range_count(q), brute_range_count(pts, q));
  }
  EXPECT_EQ(c.reads, 562155u);
  EXPECT_EQ(c.writes, 560610u);
}

TEST(GeometryParallelEquality, LogForestBulkInsertMatchesBruteForce) {
  auto pts = testing::random_points(30000, 0x48B);
  kdtree::LogForest<2> bulk(kdtree::LogForest<2>::RebuildMode::kPBatched);
  ASSERT_TRUE(bulk.bulk_insert(pts).ok());
  EXPECT_EQ(bulk.size(), pts.size());
  // A second, smaller batch exercises the carry-chain absorption.
  auto more = testing::random_points(5000, 0x48C);
  ASSERT_TRUE(bulk.bulk_insert(more).ok());
  auto all = pts;
  all.insert(all.end(), more.begin(), more.end());
  EXPECT_EQ(bulk.size(), all.size());
  primitives::Rng rng(0x48D);
  for (int i = 0; i < 32; ++i) {
    auto q = random_box(rng);
    EXPECT_EQ(bulk.range_count(q), brute_range_count(all, q));
  }
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bulk.erase(all[i]));
  }
  EXPECT_EQ(bulk.size(), all.size() - 1000);
}

}  // namespace
}  // namespace weg
