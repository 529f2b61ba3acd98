// Delaunay triangulation tests (Section 5): mesh validity and the exact
// empty-circle property across point distributions (uniform, circle, grid,
// clusters, collinear, duplicates), agreement between the baseline and the
// write-efficient variants, Euler-formula structure, the Theorem 5.1 write
// bounds, the contiguous history-fan layout, golden DTStats and output
// fingerprints, and the pool-capacity check.
#include <gtest/gtest.h>

#include "src/delaunay/delaunay.h"
#include "src/primitives/random.h"
#include "tests/testing_util.h"

namespace weg::delaunay {
namespace {

enum class Dist { kUniform, kCircle, kGrid, kClusters, kCollinearish };

std::vector<geom::Point2> make_points(Dist d, size_t n, uint64_t seed) {
  primitives::Rng rng(seed);
  std::vector<geom::Point2> pts(n);
  switch (d) {
    case Dist::kUniform:
      for (auto& p : pts) {
        p[0] = rng.next_double();
        p[1] = rng.next_double();
      }
      break;
    case Dist::kCircle:
      for (auto& p : pts) {
        double t = rng.next_double() * 6.283185307179586;
        p[0] = 0.5 + 0.5 * std::cos(t);
        p[1] = 0.5 + 0.5 * std::sin(t);
      }
      break;
    case Dist::kGrid: {
      size_t side = static_cast<size_t>(std::sqrt(double(n))) + 1;
      pts.clear();
      for (size_t x = 0; x < side && pts.size() < n; ++x) {
        for (size_t y = 0; y < side && pts.size() < n; ++y) {
          geom::Point2 p;
          p[0] = double(x);
          p[1] = double(y);
          pts.push_back(p);
        }
      }
      primitives::shuffle(pts, rng);
      break;
    }
    case Dist::kClusters:
      for (auto& p : pts) {
        double cx = (rng.next_bounded(4)) * 0.25;
        double cy = (rng.next_bounded(4)) * 0.25;
        p[0] = cx + rng.next_double() * 0.01;
        p[1] = cy + rng.next_double() * 0.01;
      }
      break;
    case Dist::kCollinearish:
      for (size_t i = 0; i < n; ++i) {
        pts[i][0] = double(i);
        pts[i][1] = (i % 5 == 0) ? 1.0 : 0.0;  // mostly on a line
      }
      primitives::shuffle(pts, rng);
      break;
  }
  return pts;
}

std::vector<uint32_t> all_ids(const Mesh& m) {
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i + 3 < m.vertices().size() + 0; ++i) {
    if (i < m.vertices().size() - 3) ids.push_back(i);
  }
  return ids;
}

class DTDistributions
    : public ::testing::TestWithParam<std::tuple<Dist, size_t, int>> {};

TEST_P(DTDistributions, ValidDelaunayBothModes) {
  auto [dist, n, mode_int] = GetParam();
  Mode mode = mode_int ? Mode::kWriteEfficient : Mode::kBaseline;
  auto pts = make_points(dist, n, 42 + n);
  DTStats st;
  auto mesh = triangulate(pts, mode, &st);
  auto ids = all_ids(*mesh);
  EXPECT_TRUE(mesh->validate(/*check_delaunay=*/true, &ids));
  // Euler: with the bounding triangle, every inserted point is interior, so
  // the number of alive triangles is exactly 2 * m + 1 where m is the number
  // of distinct inserted points.
  size_t m = mesh->vertices().size() - 3;
  EXPECT_EQ(mesh->alive_triangles().size(), 2 * m + 1);
  EXPECT_EQ(st.points_inserted, m);
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, DTDistributions,
    ::testing::Combine(::testing::Values(Dist::kUniform, Dist::kCircle,
                                         Dist::kGrid, Dist::kClusters,
                                         Dist::kCollinearish),
                       ::testing::Values(3, 50, 500, 1500),
                       ::testing::Values(0, 1)));

TEST(Delaunay, TinyInputs) {
  for (size_t n : {0ul, 1ul, 2ul}) {
    auto pts = make_points(Dist::kUniform, n, 7);
    auto mesh = triangulate(pts, Mode::kWriteEfficient);
    EXPECT_TRUE(mesh->validate(false));
    EXPECT_EQ(mesh->alive_triangles().size(), 2 * n + 1);
  }
}

TEST(Delaunay, BothModesProduceTheSameTriangulation) {
  // The Delaunay triangulation of symbolically perturbed points is unique,
  // so the alive triangle sets must match exactly (as vertex triples).
  auto pts = make_points(Dist::kUniform, 2000, 11);
  auto m1 = triangulate(pts, Mode::kBaseline);
  auto m2 = triangulate(pts, Mode::kWriteEfficient);
  EXPECT_EQ(testing::alive_triangle_fingerprint(*m1),
            testing::alive_triangle_fingerprint(*m2));
}

TEST(Delaunay, DuplicatesAreDropped) {
  auto pts = make_points(Dist::kUniform, 500, 13);
  auto dup = pts;
  dup.insert(dup.end(), pts.begin(), pts.end());  // every point twice
  DTStats st;
  auto mesh = triangulate(dup, Mode::kWriteEfficient, &st);
  EXPECT_EQ(st.duplicates_dropped, pts.size());
  EXPECT_EQ(mesh->vertices().size() - 3, pts.size());
  EXPECT_TRUE(mesh->validate(false));
}

TEST(Delaunay, Theorem51WriteEfficiency) {
  // Algorithm 2 rewrites a point at every step of its history descent, so
  // its writes grow with the O(log n) steps per point; DAG tracing writes a
  // point O(1) times. From 2^14 to 2^16 the baseline's steps per point grow
  // while the WE writes per point do not, and stay under a fixed constant.
  // (Below 2^14 the reservation prefix's 64-point floor dominates the
  // sub-rounds and the gap between the modes is not monotone in n.)
  double prev_steps = 0, prev_we_writes = 0;
  for (size_t n : {1ul << 14, 1ul << 16}) {
    auto pts = make_points(Dist::kUniform, n, 17);
    DTStats sb, sw;
    triangulate(pts, Mode::kBaseline, &sb);
    triangulate(pts, Mode::kWriteEfficient, &sw);
    EXPECT_LT(sw.cost.writes, sb.cost.writes);
    double steps = double(sb.history_steps) / double(n);
    double we_writes = double(sw.cost.writes) / double(n);
    EXPECT_GT(steps, prev_steps);
    if (prev_we_writes > 0) {
      EXPECT_LE(we_writes, prev_we_writes);
    }
    prev_steps = steps;
    prev_we_writes = we_writes;
    EXPECT_LT(sw.cost.writes, 48 * n);  // bounded writes-per-point
  }
}

TEST(Delaunay, Figure1TracingStructureStats) {
  // Expected |S| (cavity size) is constant (~6 by Euler); expected |R|
  // (visited history nodes) is O(log n).
  size_t n = 1 << 14;
  auto pts = make_points(Dist::kUniform, n, 19);
  DTStats st;
  triangulate(pts, Mode::kWriteEfficient, &st);
  double avg_cavity = double(st.cavity_triangles) / double(st.points_inserted);
  EXPECT_GT(avg_cavity, 3.0);
  EXPECT_LT(avg_cavity, 8.0);
  double avg_steps = double(st.history_steps) / double(st.points_inserted);
  EXPECT_LT(avg_steps, 10.0 * 14);  // O(log n) with a small constant
}

TEST(Delaunay, PrefixRoundsMatchSchedule) {
  auto pts = make_points(Dist::kUniform, 1 << 12, 23);
  DTStats sw, sb;
  triangulate(pts, Mode::kWriteEfficient, &sw);
  triangulate(pts, Mode::kBaseline, &sb);
  EXPECT_GT(sw.prefix_rounds, 4u);
  EXPECT_EQ(sb.prefix_rounds, 1u);
}

TEST(Delaunay, HistoryChildrenAreContiguousLaterFans) {
  // Every dead triangle's children are the fan of the cavity that killed
  // it: one block of at least three triangles, all created after it, inside
  // the pool's used prefix. Alive triangles have no children.
  for (Mode mode : {Mode::kBaseline, Mode::kWriteEfficient}) {
    auto pts = make_points(Dist::kUniform, 5000, 41);
    auto mesh = triangulate(pts, mode);
    size_t created = mesh->num_created();
    size_t dead = 0;
    for (uint32_t t = 0; t < created; ++t) {
      const Triangle& tr = mesh->tri(t);
      if (tr.alive.load()) {
        EXPECT_EQ(tr.child_n, 0u) << "alive triangle " << t;
        continue;
      }
      ++dead;
      ASSERT_GE(tr.child_n, 3u) << "dead triangle " << t;
      ASSERT_GT(tr.child_lo, t) << "dead triangle " << t;
      ASSERT_LE(size_t{tr.child_lo} + tr.child_n, created)
          << "dead triangle " << t;
    }
    EXPECT_EQ(dead + mesh->alive_triangles().size(), created);
  }
}

TEST(Delaunay, StatsMatchSerialGolden) {
  // Captured at WEG_NUM_THREADS=1; the p=1/2/8 reruns of this suite (see
  // tests/CMakeLists.txt) make every field a cross-worker-count check. The
  // reservation rounds pick the same winners at any worker count, so the
  // retries, descent steps and cavity sizes repeat exactly. A reservation
  // prefix of a small fraction of the mesh keeps lost attempts below one
  // per point. The counts move with the rounds; the output, unique under
  // SoS, must not: its fingerprint was captured before the rounds changed.
  constexpr uint64_t kAliveTriangleFingerprint = 0xb255c342be3a5ba2ULL;
  struct Golden {
    Mode mode;
    uint64_t reads, writes, history_steps, cavity_triangles;
    size_t retries, triangles_created, sub_rounds;
  };
  const Golden goldens[] = {
      {Mode::kBaseline, 1634944, 1218730, 452373, 79587, 13048, 119588, 236},
      {Mode::kWriteEfficient, 1622363, 777566, 451310, 79587, 11985, 119588,
       263},
  };
  auto pts = make_points(Dist::kUniform, 20000, 37);
  for (const Golden& g : goldens) {
    DTStats st;
    auto mesh = triangulate(pts, g.mode, &st);
    EXPECT_EQ(st.cost.reads, g.reads);
    EXPECT_EQ(st.cost.writes, g.writes);
    EXPECT_EQ(st.history_steps, g.history_steps);
    EXPECT_EQ(st.cavity_triangles, g.cavity_triangles);
    EXPECT_EQ(st.retries, g.retries);
    EXPECT_EQ(st.triangles_created, g.triangles_created);
    EXPECT_EQ(st.sub_rounds, g.sub_rounds);
    EXPECT_LT(st.retries, st.points_inserted);
    EXPECT_EQ(testing::alive_triangle_fingerprint(*mesh),
              kAliveTriangleFingerprint);
  }
}

TEST(DelaunayDeathTest, PoolExhaustionAbortsInEveryBuildType) {
  // A pool with room for the bounding triangle only: the first fan must
  // abort loudly instead of writing past the pool.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  std::vector<geom::GridPoint> verts = {{10, 10, 0},
                                        {-100, -100, 1},
                                        {300, -100, 2},
                                        {-100, 300, 3}};
  EXPECT_DEATH(
      {
        Mesh mesh(verts, 1);
        uint32_t root = mesh.init_bounding(1, 2, 3);
        std::vector<uint32_t> dead;
        std::vector<Mesh::Boundary> boundary;
        mesh.cavity(0, root, dead, boundary);
        mesh.retriangulate(0, dead, boundary);
      },
      "triangle pool exhausted");
}

TEST(Quantize, PreservesOrderDropsDuplicates) {
  std::vector<geom::Point2> pts(4);
  pts[0][0] = 0.1; pts[0][1] = 0.1;
  pts[1][0] = 0.9; pts[1][1] = 0.9;
  pts[2][0] = 0.1; pts[2][1] = 0.1;  // duplicate of 0
  pts[3][0] = 0.5; pts[3][1] = 0.5;
  size_t dropped = 0;
  auto g = quantize(pts, &dropped);
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(g.size(), 3u);
  for (size_t i = 0; i < g.size(); ++i) EXPECT_EQ(g[i].id, i);
  EXPECT_EQ(g[0].x, 0);  // min maps to 0
}

TEST(Quantize, CoordinatesWithinGrid) {
  auto pts = make_points(Dist::kUniform, 1000, 29);
  auto g = quantize(pts);
  for (auto& p : g) {
    EXPECT_GE(p.x, 0);
    EXPECT_LT(p.x, int64_t{1} << 24);
    EXPECT_GE(p.y, 0);
    EXPECT_LT(p.y, int64_t{1} << 24);
  }
}

}  // namespace
}  // namespace weg::delaunay
